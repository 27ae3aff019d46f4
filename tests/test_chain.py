"""Block validation rules: difficulty matching, clique genuineness, and the
strictly-improving published-score sequence."""

import re

import pytest

from cliquechain import engine
from cliquechain.chain import (
    Block,
    ChainError,
    append_block,
)
from cliquechain.clique import (
    CliqueSolution,
    Graph,
    ProblemInstance,
    gen_random_graph,
)
from cliquechain.difficulty import DifficultyPolicy, DifficultyState
from cliquechain.engine import SimConfig, simulate

D_B = 100.0
D_R = 0.5

# The messages that tell the append-time faults apart.
NOT_A_CLIQUE = "are not a clique"
STALE = "does not beat published best"
NO_ADVANCE = "does not advance past"

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
K5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


def mk_state():
    return DifficultyState(d_b=D_B, d_r=D_R)


def mk_problem(graph, best=1, epoch=0):
    return ProblemInstance(graph=graph, epoch=epoch, best_score=best)


def publish(graph, best, vertices):
    """Append one solution block as the first block of a problem whose
    published best is ``best``; return the problem."""
    problem = mk_problem(graph, best)
    append_block(None, solution(0, 1.0, vertices), problem, mk_state())
    return problem


def classical(height, t, miner=0, epoch=0):
    return Block(height=height, miner_id=miner, sim_time=t,
                 difficulty_used=D_B, problem_epoch=epoch)


def solution(height, t, vertices, miner=1, epoch=0):
    return Block(height=height, miner_id=miner, sim_time=t,
                 difficulty_used=D_R, problem_epoch=epoch,
                 solution=CliqueSolution(tuple(vertices)))


# ---------------------------------------------------------------------------
# Block payload invariants
# ---------------------------------------------------------------------------

def test_block_kind_payload_coherence():
    # The payload alone makes a block a solution block: carrying a clique
    # it must be mined at d_r, without one at d_b.
    problem = mk_problem(K3)
    sol = CliqueSolution((0, 1))
    with pytest.raises(ChainError, match="^solution block used "
                                         f"difficulty {D_B}"):
        append_block(None, Block(height=0, miner_id=0, sim_time=0.1,
                                 difficulty_used=D_B, problem_epoch=0,
                                 solution=sol),
                     problem, mk_state())
    with pytest.raises(ChainError, match="^classical block used "
                                         f"difficulty {D_R}"):
        append_block(None, Block(height=0, miner_id=0, sim_time=0.1,
                                 difficulty_used=D_R, problem_epoch=0),
                     problem, mk_state())
    assert problem.best_score == 1


def test_solution_payload_shape_is_checked():
    with pytest.raises(ValueError):
        CliqueSolution((1, 0))
    with pytest.raises(ValueError):
        CliqueSolution((0, 0))
    assert CliqueSolution((0, 2, 5)).score == 3
    assert CliqueSolution(()).score == 0


# ---------------------------------------------------------------------------
# Solution checks
# ---------------------------------------------------------------------------

def test_verify_accepts_strict_improvement():
    assert publish(K3, 2, (0, 1, 2)).best_score == 3
    assert publish(K5, 3, (0, 1, 2, 3)).best_score == 4


def test_verify_rejects_ties_and_non_cliques():
    with pytest.raises(ChainError, match=STALE):
        publish(C5, 2, (0, 1))
    with pytest.raises(ChainError, match=NOT_A_CLIQUE):
        publish(C5, 1, (0, 2))


def test_verify_agrees_with_pairwise_check():
    rng_graphs = [gen_random_graph(8, 0.5, s) for s in range(20)]
    subsets = [(0,), (1, 3), (0, 2, 5), (1, 4, 6, 7), (0, 1, 2, 3, 4)]
    for g in rng_graphs:
        for vs in subsets:
            for best in (1, len(vs) - 1, len(vs)):
                pairwise = all(g.has_edge(u, v)
                               for i, u in enumerate(vs) for v in vs[i + 1:])
                expect = pairwise and len(vs) > best
                try:
                    publish(g, best, vs)
                except ChainError as exc:
                    assert not expect
                    # Only the solution checks may refuse it.
                    assert re.search(f"{NOT_A_CLIQUE}|{STALE}", str(exc))
                else:
                    assert expect


# ---------------------------------------------------------------------------
# append_block
# ---------------------------------------------------------------------------

def test_append_updates_published_best():
    problem = mk_problem(K3)
    state = mk_state()
    b0 = classical(0, 0.1)
    append_block(None, b0, problem, state)
    assert problem.best_score == 1
    b1 = solution(1, 0.2, (0, 1))
    append_block(b0, b1, problem, state)
    assert problem.best_score == 2
    append_block(b1, solution(2, 0.3, (0, 1, 2)), problem, state)
    assert problem.best_score == 3


def test_append_rejects_stale_solution():
    problem = mk_problem(K3)
    state = mk_state()
    b0 = solution(0, 0.1, (0, 1, 2))
    append_block(None, b0, problem, state)
    with pytest.raises(ChainError, match=STALE):
        append_block(b0, solution(1, 0.2, (0, 1, 2)), problem, state)
    with pytest.raises(ChainError, match=STALE):
        append_block(b0, solution(1, 0.2, (0, 1)), problem, state)
    assert problem.best_score == 3


def test_append_rejects_non_clique():
    problem = mk_problem(C5)
    with pytest.raises(ChainError, match=NOT_A_CLIQUE):
        append_block(None, solution(0, 0.1, (0, 2)), problem, mk_state())
    assert problem.best_score == 1


def test_append_rejects_non_monotonic_time():
    problem = mk_problem(K3)
    state = mk_state()
    b0 = classical(0, 1.0)
    append_block(None, b0, problem, state)
    with pytest.raises(ChainError, match=NO_ADVANCE):
        append_block(b0, classical(1, 1.0), problem, state)
    with pytest.raises(ChainError, match=NO_ADVANCE):
        append_block(b0, classical(1, 0.5), problem, state)
    # The first block's time must exceed 0, as verify-chain requires.
    for t in (-1e-9, 0.0):
        with pytest.raises(ChainError, match=NO_ADVANCE + " 0.0"):
            append_block(None, classical(0, t), problem, state)
    append_block(None, classical(0, 5e-324), problem, state)


def test_append_rejects_wrong_difficulty():
    problem = mk_problem(K3)
    state = mk_state()
    bad_classical = Block(height=0, miner_id=0, sim_time=0.1,
                          difficulty_used=D_R, problem_epoch=0)
    with pytest.raises(ChainError, match="^classical block used"):
        append_block(None, bad_classical, problem, state)
    bad_solution = Block(height=0, miner_id=0, sim_time=0.1,
                         difficulty_used=D_B, problem_epoch=0,
                         solution=CliqueSolution((0, 1)))
    with pytest.raises(ChainError, match="^solution block used"):
        append_block(None, bad_solution, problem, state)


def test_append_rejects_height_gap():
    problem = mk_problem(K3)
    with pytest.raises(ChainError):
        append_block(None, classical(1, 0.1), problem, mk_state())
    b0 = classical(0, 0.1)
    append_block(None, b0, problem, mk_state())
    with pytest.raises(ChainError):
        append_block(b0, classical(2, 0.2), problem, mk_state())


def test_append_rejects_epoch_mismatch():
    with pytest.raises(ChainError):
        append_block(None, classical(0, 0.1, epoch=1), mk_problem(K3),
                     mk_state())
    with pytest.raises(ChainError):
        append_block(None, classical(0, 0.1), mk_problem(K3, epoch=1),
                     mk_state())


def test_best_score_floor_is_one():
    assert ProblemInstance(graph=K3, epoch=0).best_score == 1
    assert ProblemInstance(graph=K3, epoch=7).best_score == 1


# ---------------------------------------------------------------------------
# Replay: simulated chains re-validate from scratch
# ---------------------------------------------------------------------------

def test_simulated_chain_replays_cleanly(monkeypatch):
    appended = []

    def record(parent, block, problem, state):
        append_block(parent, block, problem, state)
        appended.append(block)

    monkeypatch.setattr(engine, "append_block", record)
    cfg = SimConfig(policy="v2", seed=3, max_blocks=150)
    res = simulate(cfg)
    assert [b.height for b in appended] == list(range(cfg.max_blocks))

    policy = DifficultyPolicy(cfg)
    state = DifficultyState(d_b=cfg.initial_db, d_r=cfg.initial_dr)
    problems = [ProblemInstance(graph=g, epoch=k)
                for k, g in enumerate(res.graphs)]
    parent = None
    for block in appended:
        append_block(parent, block, problems[block.problem_epoch], state)
        state = policy.on_block(state, block)
        parent = block
    final_best = {r.problem_epoch: r.best_score for r in res.records}
    assert {k: problems[k].best_score for k in final_best} == final_best

    # Published scores rise strictly within every epoch.
    by_epoch = {}
    for block in appended:
        if block.solution is not None:
            prev = by_epoch.get(block.problem_epoch, 1)
            assert block.solution.score > prev
            by_epoch[block.problem_epoch] = block.solution.score
    assert by_epoch, "run produced no solution blocks"
