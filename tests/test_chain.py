"""Block validation rules: difficulty matching, clique genuineness, and the
strictly-improving published-score sequence."""

import pytest

from cliquechain.chain import (
    Block,
    BlockKind,
    Chain,
    ChainError,
    InvalidDifficulty,
    MalformedClique,
    NonMonotonicTime,
    StaleSolution,
    append_block,
    verify_solution_block,
)
from cliquechain.clique import CliqueSolution, Graph, gen_random_graph
from cliquechain.difficulty import DifficultyPolicy, DifficultyState
from cliquechain.engine import SimConfig, simulate

D_B = 100.0
D_R = 0.5

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
K5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


def mk_state():
    return DifficultyState(d_b=D_B, d_r=D_R)


def classical(height, t, miner=0, epoch=0):
    return Block(height=height, kind=BlockKind.CLASSICAL, miner_id=miner,
                 sim_time=t, difficulty_used=D_B, problem_epoch=epoch)


def solution(height, t, vertices, miner=1, epoch=0):
    sol = CliqueSolution(problem_epoch=epoch, vertices=tuple(vertices),
                         score=len(vertices))
    return Block(height=height, kind=BlockKind.SOLUTION, miner_id=miner,
                 sim_time=t, difficulty_used=D_R, problem_epoch=epoch,
                 solution=sol)


# ---------------------------------------------------------------------------
# Block construction invariants
# ---------------------------------------------------------------------------

def test_block_kind_payload_coherence():
    sol = CliqueSolution(problem_epoch=0, vertices=(0, 1), score=2)
    with pytest.raises(ValueError):
        Block(height=0, kind=BlockKind.CLASSICAL, miner_id=0, sim_time=0.0,
              difficulty_used=D_B, problem_epoch=0, solution=sol)
    with pytest.raises(ValueError):
        Block(height=0, kind=BlockKind.SOLUTION, miner_id=0, sim_time=0.0,
              difficulty_used=D_R, problem_epoch=0)
    with pytest.raises(ValueError):
        Block(height=0, kind=BlockKind.SOLUTION, miner_id=0, sim_time=0.0,
              difficulty_used=D_R, problem_epoch=1, solution=sol)


def test_solution_payload_shape_is_checked():
    with pytest.raises(ValueError):
        CliqueSolution(problem_epoch=0, vertices=(1, 0), score=2)
    with pytest.raises(ValueError):
        CliqueSolution(problem_epoch=0, vertices=(0, 0), score=2)
    with pytest.raises(ValueError):
        CliqueSolution(problem_epoch=0, vertices=(0, 1), score=3)


# ---------------------------------------------------------------------------
# verify_solution_block
# ---------------------------------------------------------------------------

def test_verify_accepts_strict_improvement():
    assert verify_solution_block(solution(0, 1.0, (0, 1, 2)), K3, 2)
    assert verify_solution_block(solution(0, 1.0, (0, 1, 2, 3)), K5, 3)


def test_verify_rejects_ties_and_non_cliques():
    assert not verify_solution_block(solution(0, 1.0, (0, 1)), C5, 2)
    assert not verify_solution_block(solution(0, 1.0, (0, 2)), C5, 1)
    assert not verify_solution_block(classical(0, 1.0), K3, 0)


def test_verify_agrees_with_pairwise_check():
    rng_graphs = [gen_random_graph(8, 0.5, s) for s in range(20)]
    subsets = [(0,), (1, 3), (0, 2, 5), (1, 4, 6, 7), (0, 1, 2, 3, 4)]
    for g in rng_graphs:
        for vs in subsets:
            for best in (1, len(vs) - 1, len(vs)):
                block = solution(0, 1.0, vs)
                pairwise = all(g.has_edge(u, v)
                               for i, u in enumerate(vs) for v in vs[i + 1:])
                expect = pairwise and len(vs) > best
                assert verify_solution_block(block, g, best) == expect


# ---------------------------------------------------------------------------
# append_block
# ---------------------------------------------------------------------------

def test_append_updates_published_best():
    chain = Chain()
    state = mk_state()
    append_block(chain, classical(0, 0.1), K3, state)
    assert chain.best_score(0) == 1
    append_block(chain, solution(1, 0.2, (0, 1)), K3, state)
    assert chain.best_score(0) == 2
    append_block(chain, solution(2, 0.3, (0, 1, 2)), K3, state)
    assert chain.best_score(0) == 3
    assert chain.height == 2


def test_append_rejects_stale_solution():
    chain = Chain()
    state = mk_state()
    append_block(chain, solution(0, 0.1, (0, 1, 2)), K3, state)
    with pytest.raises(StaleSolution):
        append_block(chain, solution(1, 0.2, (0, 1, 2)), K3, state)
    with pytest.raises(StaleSolution):
        append_block(chain, solution(1, 0.2, (0, 1)), K3, state)


def test_append_rejects_non_clique():
    chain = Chain()
    with pytest.raises(MalformedClique):
        append_block(chain, solution(0, 0.1, (0, 2)), C5, mk_state())
    assert chain.blocks == []


def test_append_rejects_non_monotonic_time():
    chain = Chain()
    state = mk_state()
    append_block(chain, classical(0, 1.0), K3, state)
    with pytest.raises(NonMonotonicTime):
        append_block(chain, classical(1, 1.0), K3, state)
    with pytest.raises(NonMonotonicTime):
        append_block(chain, classical(1, 0.5), K3, state)


def test_append_rejects_wrong_difficulty():
    chain = Chain()
    state = mk_state()
    bad_classical = Block(height=0, kind=BlockKind.CLASSICAL, miner_id=0,
                          sim_time=0.1, difficulty_used=D_R, problem_epoch=0)
    with pytest.raises(InvalidDifficulty):
        append_block(chain, bad_classical, K3, state)
    sol = CliqueSolution(problem_epoch=0, vertices=(0, 1), score=2)
    bad_solution = Block(height=0, kind=BlockKind.SOLUTION, miner_id=0,
                         sim_time=0.1, difficulty_used=D_B, problem_epoch=0,
                         solution=sol)
    with pytest.raises(InvalidDifficulty):
        append_block(chain, bad_solution, K3, state)


def test_append_rejects_height_gap():
    chain = Chain()
    with pytest.raises(ChainError):
        append_block(chain, classical(1, 0.1), K3, mk_state())


def test_append_rejects_epoch_mismatch():
    chain = Chain()
    with pytest.raises(ChainError):
        append_block(chain, classical(0, 0.1, epoch=1), K3, mk_state())


def test_epochs_must_advance():
    chain = Chain()
    chain.begin_epoch(2)
    with pytest.raises(ChainError):
        chain.begin_epoch(2)
    with pytest.raises(ChainError):
        chain.begin_epoch(1)


def test_best_score_floor_is_one():
    assert Chain().best_score(0) == 1
    assert Chain().best_score(7) == 1


# ---------------------------------------------------------------------------
# Replay: simulated chains re-validate from scratch
# ---------------------------------------------------------------------------

def test_simulated_chain_replays_cleanly():
    cfg = SimConfig(policy="v2", seed=3, max_blocks=150).resolve()
    res = simulate(cfg)
    policy = DifficultyPolicy(cfg)
    state = DifficultyState(d_b=cfg.initial_db, d_r=cfg.initial_dr)
    fresh = Chain()
    for block in res.chain.blocks:
        if block.problem_epoch > fresh.active_epoch:
            fresh.begin_epoch(block.problem_epoch)
        append_block(fresh, block, res.graphs[block.problem_epoch], state)
        state = policy.on_block(state, block)
    assert fresh.blocks == res.chain.blocks
    assert fresh.best_score_per_epoch == res.chain.best_score_per_epoch

    # Published scores rise strictly within every epoch.
    by_epoch = {}
    for block in res.chain.blocks:
        if block.kind is BlockKind.SOLUTION:
            prev = by_epoch.get(block.problem_epoch, 1)
            assert block.solution.score > prev
            by_epoch[block.problem_epoch] = block.solution.score
    assert by_epoch, "run produced no solution blocks"
