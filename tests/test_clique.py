"""Graph generation and the pausable clique search, checked against the
brute-force oracle and hand-built graphs."""

import math

import numpy as np
import pytest

from cliquechain.clique import (
    CursorGraphMismatch,
    Graph,
    InvalidParams,
    SolverCursor,
    TooLarge,
    _relabel,
    brute_force_max_clique,
    gen_random_graph,
    graph_to_edge_list,
    is_clique,
    read_graphs,
    write_graphs,
)

PETERSEN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                  (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                  (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]


def complete_graph(n):
    return Graph.from_edges(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def exhaust(graph, order=None, chunk=10 ** 9):
    """Drive a cursor to exhaustion with a rising threshold; return the
    best score found and the cursor."""
    cursor = SolverCursor(graph, order=order)
    best = 0
    while not cursor.exhausted:
        found = cursor.advance(graph, chunk, best)
        if found is not None:
            best = found.score
    return best, cursor


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def test_gen_single_vertex():
    g = gen_random_graph(1, 0.5, 0)
    assert g.n == 1 and g.num_edges == 0


def test_gen_is_deterministic():
    a = gen_random_graph(40, 0.3, 123)
    b = gen_random_graph(40, 0.3, 123)
    assert a.neighbor_masks == b.neighbor_masks
    c = gen_random_graph(40, 0.3, 124)
    assert a.neighbor_masks != c.neighbor_masks


def test_gen_rejects_bad_params():
    with pytest.raises(InvalidParams):
        gen_random_graph(0, 0.5, 1)
    with pytest.raises(InvalidParams):
        gen_random_graph(10, 0.0, 1)
    with pytest.raises(InvalidParams):
        gen_random_graph(10, 1.0, 1)
    with pytest.raises(InvalidParams):
        gen_random_graph(10, 0.5, -2)


def test_gen_edge_count_within_binomial_band():
    # C(50, 2) = 1225 pairs at p = 0.5: mean 612.5, sigma = 17.5.
    mean = 1225 * 0.5
    sigma = math.sqrt(1225 * 0.25)
    for seed in range(40):
        g = gen_random_graph(50, 0.5, seed)
        assert abs(g.num_edges - mean) < 4 * sigma, f"seed {seed}"


def test_adjacency_is_symmetric_without_self_loops():
    g = gen_random_graph(25, 0.4, 9)
    for u in range(g.n):
        assert not g.has_edge(u, u)
        for v in range(g.n):
            assert g.has_edge(u, v) == g.has_edge(v, u)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def test_brute_force_known_graphs():
    assert brute_force_max_clique(complete_graph(6)) == 6
    assert brute_force_max_clique(Graph.from_edges(7, [])) == 1
    assert brute_force_max_clique(cycle_graph(5)) == 2
    assert brute_force_max_clique(Graph.from_edges(10, PETERSEN_EDGES)) == 2


def test_brute_force_size_guard():
    with pytest.raises(TooLarge):
        brute_force_max_clique(Graph.from_edges(21, []))


# ---------------------------------------------------------------------------
# Search behavior
# ---------------------------------------------------------------------------

def test_search_reports_immediately_on_k5():
    g = complete_graph(5)
    cursor = SolverCursor(g)
    found = cursor.advance(g, 10 ** 6, 0)
    assert found is not None and found.score >= 1
    assert cursor.steps_consumed <= 3


def test_search_finds_nothing_above_c5_optimum():
    g = cycle_graph(5)
    cursor = SolverCursor(g)
    found = cursor.advance(g, 10 ** 6, 2)
    assert found is None
    assert cursor.exhausted


def test_petersen_threshold_behavior():
    g = Graph.from_edges(10, PETERSEN_EDGES)
    cursor = SolverCursor(g)
    found = cursor.advance(g, 10 ** 6, 1)
    assert found is not None and found.score == 2

    cursor2 = SolverCursor(g)
    found2 = cursor2.advance(g, 10 ** 6, 2)
    assert found2 is None and cursor2.exhausted


def test_search_matches_brute_force_over_many_seeds():
    for seed in range(100):
        g = gen_random_graph(12, 0.5, 5000 + seed)
        best, _ = exhaust(g)
        assert best == brute_force_max_clique(g), f"seed {seed}"


def test_permuted_order_still_finds_optimum():
    g = gen_random_graph(14, 0.5, 77)
    expect = brute_force_max_clique(g)
    for order in (list(range(13, -1, -1)),
                  [7, 3, 11, 0, 12, 5, 9, 1, 13, 4, 8, 2, 10, 6]):
        best, _ = exhaust(g, order=order)
        assert best == expect


def test_reported_cliques_are_cliques():
    g = gen_random_graph(20, 0.5, 31)
    cursor = SolverCursor(g)
    best = 0
    while not cursor.exhausted:
        found = cursor.advance(g, 10 ** 9, best)
        if found is not None:
            assert is_clique(g, found.vertices)
            assert found.score > best
            best = found.score


def test_zero_budget_is_a_noop():
    g = gen_random_graph(10, 0.5, 4)
    cursor = SolverCursor(g)
    found = cursor.advance(g, 0, 0)
    assert found is None and cursor.steps_consumed == 0


def test_cursor_rejects_wrong_graph():
    g = gen_random_graph(10, 0.5, 4)
    other = gen_random_graph(10, 0.5, 5)
    cursor = SolverCursor(g)
    with pytest.raises(CursorGraphMismatch):
        cursor.advance(other, 10, 0)


def test_cursor_rejects_other_handcrafted_graph():
    # Hand-built graphs all carry (n, -1, 0.0), so only the adjacency
    # tells K5 from C5.
    cursor = SolverCursor(complete_graph(5))
    with pytest.raises(CursorGraphMismatch):
        cursor.advance(cycle_graph(5), 10, 0)


def test_cursor_accepts_an_equal_graph():
    g = gen_random_graph(10, 0.5, 4)
    cursor = SolverCursor(g)
    assert cursor.matches(gen_random_graph(10, 0.5, 4))


def test_relabel_matches_per_pair_reference():
    # Bit j of relabelled row i is the edge (order[i], order[j]); sizes
    # straddle the byte and 64-bit word boundaries of the packed rows.
    rng = np.random.Generator(np.random.PCG64(3))
    for n in (1, 2, 8, 9, 63, 64, 65, 70):
        g = gen_random_graph(n, 0.5, n)
        order = rng.permutation(n).tolist()
        rows = _relabel(g.neighbor_masks, order)
        for i in range(n):
            expect = sum(1 << j for j in range(n)
                         if g.has_edge(order[i], order[j]))
            assert rows[i] == expect, (n, i)


def _collect_reports(graph, threshold, budgets):
    """Advance through the given budget chunks, collecting every report."""
    cursor = SolverCursor(graph)
    reports = []
    i = 0
    while not cursor.exhausted:
        budget = budgets[i % len(budgets)] if budgets else 10 ** 9
        i += 1
        found = cursor.advance(graph, budget, threshold)
        if found is not None:
            reports.append(found.vertices)
    return reports, cursor.steps_consumed


def test_chunked_advance_matches_unbounded_run():
    g = gen_random_graph(16, 0.5, 8)
    whole, total_steps = _collect_reports(g, 2, [])
    for budgets in ([1], [2, 3], [7, 1, 4], [13]):
        chunked, steps = _collect_reports(g, 2, budgets)
        assert chunked == whole
        assert steps == total_steps


def test_resume_never_rereports():
    g = complete_graph(5)
    cursor = SolverCursor(g)
    seen = []
    while not cursor.exhausted:
        found = cursor.advance(g, 1, 0)
        if found is not None:
            seen.append(found.vertices)
    assert len(seen) == len(set(seen))


# ---------------------------------------------------------------------------
# Edge-list persistence
# ---------------------------------------------------------------------------

def test_edge_list_header_format():
    g = gen_random_graph(6, 0.5, 3)
    header = graph_to_edge_list(g).splitlines()[0].split()
    assert header == ["6", str(g.num_edges), "3", "0.5"]


def test_edge_list_round_trip(tmp_path):
    graphs = [gen_random_graph(20, 0.5, 11), gen_random_graph(15, 0.3, 12)]
    path = tmp_path / "graphs.edges"
    write_graphs(graphs, path)
    back = read_graphs(path)
    assert len(back) == 2
    for orig, re in zip(graphs, back):
        assert re.neighbor_masks == orig.neighbor_masks
        assert (re.n, re.seed, re.edge_prob) == (orig.n, orig.seed,
                                                 orig.edge_prob)


def test_edge_list_detects_tampering(tmp_path):
    g = gen_random_graph(12, 0.5, 21)
    path = tmp_path / "graph.edges"
    write_graphs([g], path)
    lines = path.read_text().splitlines()
    del lines[1]
    header = lines[0].split()
    header[1] = str(int(header[1]) - 1)
    lines[0] = " ".join(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="regeneration"):
        read_graphs(path)


def test_handcrafted_graphs_round_trip(tmp_path):
    g = Graph.from_edges(10, PETERSEN_EDGES)
    path = tmp_path / "petersen.edges"
    write_graphs([g], path)
    back = read_graphs(path)[0]
    assert back.neighbor_masks == g.neighbor_masks
