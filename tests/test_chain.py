"""The publish rule: a solution block carries a genuine clique that strictly
beats the published best; and the chain invariants a recorded run carries
(heights, times, epochs, difficulties, the classical/solution partition)."""

import re

import pytest

from cliquechain import engine
from cliquechain.clique import (
    CliqueSolution,
    Graph,
    ProblemInstance,
    gen_random_graph,
)
from cliquechain.difficulty import Block
from cliquechain.engine import (
    SimConfig,
    append_block,
    sample_block_winner,
    simulate,
)
from cliquechain.io import ReplayError, verify_record_stream

# The messages that tell the two publish faults apart.
NOT_A_CLIQUE = "are not a clique"
STALE = "does not beat published best"

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
K5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


def mk_problem(graph, best=1):
    return ProblemInstance(graph=graph, epoch=0, best_score=best)


def publish(graph, best, vertices):
    """Append one solution block as the first block of a problem whose
    published best is ``best``; return the problem."""
    problem = mk_problem(graph, best)
    append_block(problem, solution(0, 1.0, vertices))
    return problem


def classical(height, t):
    return Block(height, t)


def solution(height, t, vertices):
    return Block(height, t, CliqueSolution(tuple(vertices)))


# ---------------------------------------------------------------------------
# Block payload invariants
# ---------------------------------------------------------------------------

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
    with pytest.raises(ValueError, match=STALE):
        publish(C5, 2, (0, 1))
    with pytest.raises(ValueError, match=NOT_A_CLIQUE):
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
                except ValueError as exc:
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
    append_block(problem, classical(0, 0.1))
    assert problem.best_score == 1
    append_block(problem, solution(1, 0.2, (0, 1)))
    assert problem.best_score == 2
    append_block(problem, solution(2, 0.3, (0, 1, 2)))
    assert problem.best_score == 3


def test_append_rejects_stale_solution():
    problem = mk_problem(K3)
    append_block(problem, solution(0, 0.1, (0, 1, 2)))
    with pytest.raises(ValueError, match=STALE):
        append_block(problem, solution(1, 0.2, (0, 1, 2)))
    with pytest.raises(ValueError, match=STALE):
        append_block(problem, solution(1, 0.2, (0, 1)))
    assert problem.best_score == 3


def test_append_rejects_non_clique():
    problem = mk_problem(C5)
    with pytest.raises(ValueError, match=NOT_A_CLIQUE):
        append_block(problem, solution(0, 0.1, (0, 2)))
    assert problem.best_score == 1


def test_best_score_floor_is_one():
    assert ProblemInstance(graph=K3, epoch=0).best_score == 1
    assert ProblemInstance(graph=K3, epoch=7).best_score == 1


# ---------------------------------------------------------------------------
# Replay: simulated chains re-validate from scratch
# ---------------------------------------------------------------------------

def test_simulated_chain_replays_cleanly(monkeypatch):
    appended = []

    def record(problem, block):
        append_block(problem, block)
        appended.append(block)

    monkeypatch.setattr(engine, "append_block", record)
    cfg = SimConfig(policy="v2", seed=3, max_blocks=150)
    res = simulate(cfg)
    assert [b.height for b in appended] == list(range(cfg.max_blocks))

    problems = [ProblemInstance(graph=g, epoch=k)
                for k, g in enumerate(res.graphs)]
    epochs = [res.records[block.height].problem_epoch for block in appended]
    for block, epoch in zip(appended, epochs):
        append_block(problems[epoch], block)
    final_best = {r.problem_epoch: r.best_score for r in res.records}
    assert {k: problems[k].best_score for k in final_best} == final_best

    # Published scores rise strictly within every epoch.
    by_epoch = {}
    for block, epoch in zip(appended, epochs):
        if block.solution is not None:
            prev = by_epoch.get(epoch, 1)
            assert block.solution.score > prev
            by_epoch[epoch] = block.solution.score
    assert by_epoch, "run produced no solution blocks"


# ---------------------------------------------------------------------------
# Chain invariants: the engine builds heights, times, epochs and each race's
# difficulty itself, so verify_record_stream is where a chain that breaks
# them is rejected.
# ---------------------------------------------------------------------------

CHAIN_CFG = SimConfig(policy="v2", seed=3, max_blocks=150)


def mined_chain(monkeypatch):
    """Run CHAIN_CFG; return its result, the blocks in append order and,
    per block, whether its race was won at d_r."""
    appended, at_d_r = [], []

    def record(problem, block):
        append_block(problem, block)
        appended.append(block)

    def race(*args):
        won = sample_block_winner(*args)
        at_d_r.append(won[1])
        return won

    monkeypatch.setattr(engine, "append_block", record)
    monkeypatch.setattr(engine, "sample_block_winner", race)
    res = simulate(CHAIN_CFG)
    verify_record_stream(res.records, res.graphs)
    return res, appended, at_d_r


def rejects(records, graphs, i, match, **changes):
    bad = list(records)
    bad[i] = bad[i]._replace(**changes)
    with pytest.raises(ReplayError, match=f"^height {bad[i].height}: {match}"):
        verify_record_stream(bad, graphs)


def test_block_kind_payload_coherence(monkeypatch):
    # The payload alone makes a block a solution block, and its record says
    # so: kind "solution" with the clique's score, else the best unmoved.
    res, appended, _ = mined_chain(monkeypatch)
    records = res.records
    prev_best = {}
    for block, r in zip(appended, records, strict=True):
        assert (r.kind == "solution") == (block.solution is not None)
        if block.solution is not None:
            assert r.best_score == block.solution.score
        else:
            assert r.best_score == prev_best.get(r.problem_epoch, 1)
        prev_best[r.problem_epoch] = r.best_score
    kinds = [r.kind for r in records]
    sol, cls = kinds.index("solution"), kinds.index("classical")
    rejects(records, res.graphs, sol, "classical block moved best score",
            kind="classical")
    rejects(records, res.graphs, cls, "solution score 1 does not beat 1",
            kind="solution")


def test_append_rejects_wrong_difficulty(monkeypatch):
    # A solution is published exactly when its race was won at d_r; a
    # classical block is mined at d_b.
    res, appended, at_d_r = mined_chain(monkeypatch)
    assert [b.solution is not None for b in appended] == at_d_r
    assert 0 < sum(at_d_r) < len(at_d_r)
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        for field in ("d_b", "d_r"):
            rejects(res.records, res.graphs, 5,
                    "difficulty is not finite and positive", **{field: bad})


def test_append_rejects_height_gap(monkeypatch):
    res, appended, _ = mined_chain(monkeypatch)
    assert [b.height for b in appended] == list(range(CHAIN_CFG.max_blocks))
    assert [r.height for r in res.records] == [b.height for b in appended]
    gap = "heights must be consecutive from 0"
    rejects(res.records, res.graphs, 0, gap, height=1)
    rejects(res.records, res.graphs, 5, gap, height=6)
    rejects(res.records, res.graphs, 5, gap, height=4)
    with pytest.raises(ReplayError, match=gap):
        verify_record_stream(res.records[:5] + res.records[6:], res.graphs)


def test_append_rejects_non_monotonic_time(monkeypatch):
    res, appended, _ = mined_chain(monkeypatch)
    times = [b.sim_time for b in appended]
    assert 0.0 < times[0] and all(a < b for a, b in zip(times, times[1:]))
    assert [r.sim_time for r in res.records] == times
    records = res.records
    no_advance = "sim_time does not increase to a finite time"
    rejects(records, res.graphs, 5, no_advance, sim_time=times[4])
    rejects(records, res.graphs, 5, no_advance, sim_time=times[4] - 0.01)
    # The first block's time must exceed 0.
    for t in (-1e-9, 0.0, float("inf"), float("nan")):
        rejects(records, res.graphs, 0, no_advance, sim_time=t)
    verify_record_stream([records[0]._replace(sim_time=5e-324)] + records[1:],
                         res.graphs)


def test_append_rejects_epoch_mismatch(monkeypatch):
    res, _, _ = mined_chain(monkeypatch)
    records, graphs = res.records, res.graphs
    swap = next(i for i in range(1, len(records))
                if records[i].problem_epoch != records[i - 1].problem_epoch)
    assert records[swap].problem_epoch == records[swap - 1].problem_epoch + 1
    rejects(records, graphs, 0, "epoch does not follow 0", problem_epoch=1)
    rejects(records, graphs, swap, "epoch does not follow 0", problem_epoch=2)
    rejects(records, graphs, swap + 1, "epoch does not follow 1",
            problem_epoch=0)
    rejects(records, graphs, swap - 1, "epoch does not follow 0",
            problem_epoch=-1)
    assert len(graphs) == 2
    with pytest.raises(ReplayError, match="no graph for epoch 1"):
        verify_record_stream(records, graphs[:1])
