"""Graph generation and the pausable clique search, checked against the
brute-force oracle and hand-built graphs."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cliquechain import clique, io
from cliquechain.clique import (
    MAX_GRAPH_N,
    Graph,
    SolverCursor,
    _relabel,
    brute_force_max_clique,
    gen_random_graph,
    is_clique,
)
from cliquechain.io import (
    ReplayError,
    graph_to_edge_list,
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
        found = cursor.advance(chunk, best)
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


def scalar_gen_masks(n, edge_prob, seed):
    """The per-pair G(n, p) loop: one draw per pair u < v, in (u, v) order."""
    draws = np.random.Generator(np.random.PCG64(seed)).random(
        n * (n - 1) // 2)
    masks = [0] * n
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if draws[k] < edge_prob:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            k += 1
    return tuple(masks)


@pytest.mark.parametrize("n", [1, 2, 8, 9, 60, 61, 200, 256])
def test_gen_matches_the_scalar_loop(n):
    for edge_prob in (0.1, 0.5, 0.9):
        for seed in range(10):
            g = gen_random_graph(n, edge_prob, seed)
            assert g.neighbor_masks == scalar_gen_masks(n, edge_prob, seed), \
                (n, edge_prob, seed)


@pytest.mark.parametrize("n", [2, 9, 65])
def test_from_edges_in_any_order_is_the_generated_graph(n):
    g = gen_random_graph(n, 0.5, n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if g.has_edge(u, v)]
    flipped = [(v, u) for u, v in pairs[::-1] + pairs[::3]]
    built = Graph.from_edges(n, flipped)
    assert (built.n, built.edges) == (g.n, g.edges)


def test_gen_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_random_graph(0, 0.5, 1)
    with pytest.raises(ValueError):
        gen_random_graph(10, 0.0, 1)
    with pytest.raises(ValueError):
        gen_random_graph(10, 1.0, 1)
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError, match="capped at 20 vertices"):
        brute_force_max_clique(Graph.from_edges(21, []))


# ---------------------------------------------------------------------------
# Search behavior
# ---------------------------------------------------------------------------

def test_search_reports_immediately_on_k5():
    g = complete_graph(5)
    cursor = SolverCursor(g)
    found = cursor.advance(10 ** 6, 0)
    assert found is not None and found.score >= 1
    assert cursor.steps_consumed <= 3


def test_search_finds_nothing_above_c5_optimum():
    g = cycle_graph(5)
    cursor = SolverCursor(g)
    found = cursor.advance(10 ** 6, 2)
    assert found is None
    assert cursor.exhausted


def test_petersen_threshold_behavior():
    g = Graph.from_edges(10, PETERSEN_EDGES)
    cursor = SolverCursor(g)
    found = cursor.advance(10 ** 6, 1)
    assert found is not None and found.score == 2

    cursor2 = SolverCursor(g)
    found2 = cursor2.advance(10 ** 6, 2)
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
        found = cursor.advance(10 ** 9, best)
        if found is not None:
            assert is_clique(g, found.vertices)
            assert found.score > best
            best = found.score


def pairwise_is_clique(graph, vertices):
    """Reference: distinct vertices of ``graph``, every pair an edge."""
    vs = list(vertices)
    return (len(set(vs)) == len(vs) and all(0 <= v < graph.n for v in vs)
            and all(graph.has_edge(u, v)
                    for i, u in enumerate(vs) for v in vs[i + 1:]))


def test_is_clique_edge_cases():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert is_clique(g, ())
    assert is_clique(g, (3,))
    assert is_clique(g, (2, 0, 1))
    assert not is_clique(g, (0, 3))
    # Repeated and out-of-range vertices are refused, never raised on.
    for bad in [(0, 0), (1, 2, 1), (-1,), (0, -1), (4,), (0, 1, 4)]:
        assert not is_clique(g, bad), bad


def test_is_clique_agrees_with_pairwise_reference():
    # Sizes straddle the 64-bit word; each graph gets random subsets and
    # greedily grown cliques, which then take one vertex too many.
    rng = np.random.Generator(np.random.PCG64(11))
    outcomes = set()
    for seed in range(30):
        n = int(rng.integers(1, 80))
        g = gen_random_graph(n, float(rng.uniform(0.3, 0.9)), seed)
        for _ in range(10):
            k = int(rng.integers(0, min(n, 6) + 1))
            subsets = [rng.choice(n, size=k, replace=False).tolist()]
            grown = []
            for v in rng.permutation(n).tolist():
                if all(g.has_edge(u, v) for u in grown):
                    grown.append(v)
            subsets += [grown, grown + [int(rng.integers(n))]]
            for vs in subsets:
                expect = pairwise_is_clique(g, vs)
                assert is_clique(g, vs) == expect, (seed, vs)
                outcomes.add(expect)
    assert outcomes == {True, False}


def test_zero_budget_is_a_noop():
    g = gen_random_graph(10, 0.5, 4)
    cursor = SolverCursor(g)
    found = cursor.advance(0, 0)
    assert found is None and cursor.steps_consumed == 0


def per_pair_relabel(graph, order):
    """Bit j of relabelled row i is the edge (order[i], order[j])."""
    return [sum(1 << j for j in range(graph.n)
                if graph.has_edge(order[i], order[j]))
            for i in range(graph.n)]


def test_relabel_matches_per_pair_reference():
    # Sizes straddle the byte and 64-bit word boundaries of the packed
    # rows.
    rng = np.random.Generator(np.random.PCG64(3))
    for n in (1, 2, 8, 9, 63, 64, 65, 70):
        g = gen_random_graph(n, 0.5, n)
        order = rng.permutation(n).tolist()
        assert _relabel(g, order) == per_pair_relabel(g, order)


def test_cached_adjacency_never_goes_stale():
    # The matrix of the last graph relabelled is reused, so alternating
    # graphs, and orders of one graph, must each get their own rows.
    rng = np.random.Generator(np.random.PCG64(4))
    graphs = [gen_random_graph(12, 0.5, 1), gen_random_graph(12, 0.5, 2),
              gen_random_graph(9, 0.3, 1)]
    cases = [(g, rng.permutation(g.n).tolist()) for g in graphs]
    cases.append((graphs[0], list(range(11, -1, -1))))
    for g, order in cases * 3:
        assert _relabel(g, order) == per_pair_relabel(g, order)


def test_cached_adjacency_is_read_only():
    g = gen_random_graph(10, 0.5, 1)
    adj = clique._adjacency(g.n, g.edges)
    with pytest.raises(ValueError):
        adj[0, 1] = not adj[0, 1]


def _collect_reports(graph, threshold, budgets):
    """Advance through the given budget chunks, collecting every report."""
    cursor = SolverCursor(graph)
    reports = []
    i = 0
    while not cursor.exhausted:
        budget = budgets[i % len(budgets)] if budgets else 10 ** 9
        i += 1
        found = cursor.advance(budget, threshold)
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
        found = cursor.advance(1, 0)
        if found is not None:
            seen.append(found.vertices)
    assert len(seen) == len(set(seen))


# ---------------------------------------------------------------------------
# Shared walks: replay against a private walk
# ---------------------------------------------------------------------------

# The search cases of test_golden.py: graph size -> (edge probability,
# graph seed, fixed threshold), visit orders, budget cycles, call limit.
GOLDEN_GRAPHS = {1: (0.5, 11, 0), 2: (0.7, 12, 1), 5: (0.6, 13, 1),
                 12: (0.5, 14, 2), 30: (0.5, 15, 3), 60: (0.5, 16, 5)}
GOLDEN_ORDERS = ("identity", "reversed", "random")
GOLDEN_BUDGET_CYCLES = ((1,), (0, 1, 5), (0, 64, 1, 250), (1, 0, 997))
GOLDEN_MAX_CALLS = 120


def _visit_order(kind, n, seed):
    if kind == "identity":
        return list(range(n))
    if kind == "reversed":
        return list(range(n - 1, -1, -1))
    return np.random.Generator(np.random.PCG64(seed)).permutation(n).tolist()


def _state(cursor, found):
    return found, cursor.steps_consumed, cursor.exhausted


def _advance_both(live, shared, budget, threshold):
    """One call on each cursor; both must answer alike.  ``live`` runs a
    private walk, ``shared`` one from a ``walks`` dict."""
    expect = _state(live, live.advance(budget, threshold))
    assert _state(shared, shared.advance(budget, threshold)) == expect
    return expect[0]


@pytest.mark.parametrize("n", sorted(GOLDEN_GRAPHS))
def test_shared_walk_replays_the_live_search(n):
    edge_prob, graph_seed, fixed = GOLDEN_GRAPHS[n]
    graph = gen_random_graph(n, edge_prob, graph_seed)
    # One dict for every case, so later cases replay walks that earlier
    # ones recorded further than they need.
    walks = {}
    orders = [_visit_order(kind, n, 1000 * n + i)
              for i, kind in enumerate(GOLDEN_ORDERS)]
    for order in orders:
        for budgets in GOLDEN_BUDGET_CYCLES:
            for mode in ("rising", -1, 0, fixed):
                live = SolverCursor(graph, order=order)
                shared = SolverCursor(graph, order=order, walks=walks)
                best = 0
                # A few calls past exhaustion check that it stays set.
                for call in range(GOLDEN_MAX_CALLS):
                    if live.exhausted and call % 5 == 0:
                        break
                    threshold = best if mode == "rising" else mode
                    found = _advance_both(live, shared,
                                          budgets[call % len(budgets)],
                                          threshold)
                    if found is not None:
                        best = max(best, found.score)
    assert len(walks) == len({tuple(order) for order in orders})


def test_graphs_with_equal_edge_bytes_get_their_own_walks():
    # One edge packs to the same byte whatever the vertex count.
    graphs = [Graph.from_edges(2, [(0, 1)]), Graph.from_edges(3, [(0, 1)])]
    assert graphs[0].edges == graphs[1].edges
    walks = {}
    pairs = [(SolverCursor(g), SolverCursor(g, walks=walks)) for g in graphs]
    assert len(walks) == 2
    for live, shared in pairs:
        for threshold in (0, 1, 0, 2):
            _advance_both(live, shared, 1, threshold)
        assert _advance_both(live, shared, 10, 0) is None
        assert shared.exhausted


def test_zero_budget_records_nothing():
    g = gen_random_graph(10, 0.5, 4)
    walks = {}
    cursor = SolverCursor(g, walks=walks)
    assert cursor.advance(0, -1) is None
    assert cursor.steps_consumed == 0 and not cursor.exhausted
    (walk,) = walks.values()
    assert len(walk.sizes) == 0


@pytest.mark.parametrize("recorded_first", [False, True])
def test_budget_ending_on_the_last_step_leaves_exhausted_unset(
        recorded_first):
    g = gen_random_graph(12, 0.5, 14)
    _, whole = exhaust(g)
    total = whole.steps_consumed
    walks = {}
    if recorded_first:
        exhaust_shared = SolverCursor(g, walks=walks)
        exhaust_shared.advance(total + 1, g.n)
        assert exhaust_shared.exhausted
    live = SolverCursor(g)
    shared = SolverCursor(g, walks=walks)
    assert _advance_both(live, shared, total, g.n) is None
    assert shared.steps_consumed == total and not shared.exhausted
    # Nor does a zero budget; the next step of budget does.
    assert _advance_both(live, shared, 0, g.n) is None
    assert not shared.exhausted
    assert _advance_both(live, shared, 1, g.n) is None
    assert shared.steps_consumed == total and shared.exhausted


def test_interleaved_consumers_of_one_walk_match_live_cursors():
    g = gen_random_graph(30, 0.5, 15)
    order = _visit_order("random", 30, 7)
    rng = np.random.Generator(np.random.PCG64(5))
    walks = {}
    pairs = [(SolverCursor(g, order=order),
              SolverCursor(g, order=order, walks=walks)) for _ in range(2)]
    lead = 0
    while not all(shared.exhausted for _, shared in pairs):
        live, shared = pairs[int(rng.integers(2))]
        budget = int(rng.choice([0, 1, 3, 40]))
        threshold = int(rng.integers(-1, 7))
        _advance_both(live, shared, budget, threshold)
        a, b = (shared.steps_consumed for _, shared in pairs)
        lead = max(lead, abs(a - b))
    assert len(walks) == 1
    assert lead > 20


def test_graphs_above_255_vertices_are_not_shared():
    walks = {}
    g255 = gen_random_graph(255, 0.5, 1)
    SolverCursor(g255, walks=walks)
    assert len(walks) == 1
    g = gen_random_graph(256, 0.5, 1)
    live = SolverCursor(g)
    shared = SolverCursor(g, walks=walks)
    assert len(walks) == 1
    for budget, threshold in ((1, -1), (5, 3), (50, 0), (200, 6)):
        _advance_both(live, shared, budget, threshold)
    assert len(walks) == 1
    assert shared._walk.sizes is None


def test_private_walk_keeps_no_per_step_record():
    g = gen_random_graph(60, 0.5, 16)
    cursor = SolverCursor(g, order=_visit_order("random", 60, 3))
    reports = 0
    while not cursor.exhausted:
        reports += cursor.advance(500, 4) is not None
    walk = cursor._walk
    assert reports > 0 and walk.steps == cursor.steps_consumed > 1000
    assert walk.sizes is None and walk.cliques is None and not walk.stack


def reference_preorder(graph, order):
    """Every clique of the recursive Bron-Kerbosch search with the Tomita
    pivot, in preorder, as vertex sets of the graph's own labels.

    The pivot is the first vertex of P | X in visit order with the most
    neighbours in P, and the children P \\ N(pivot) are taken in visit
    order, each moving from P to X once its subtree is done.
    """
    rank = {v: i for i, v in enumerate(order)}
    nbrs = [{u for u in range(graph.n) if graph.has_edge(u, v)}
            for v in range(graph.n)]
    out = []

    def expand(r, p, x):
        out.append(r)
        if not p:
            return
        pivot = max(sorted(p | x, key=rank.get),
                    key=lambda u: len(p & nbrs[u]))
        for v in sorted(p - nbrs[pivot], key=rank.get):
            expand(r | {v}, p & nbrs[v], x & nbrs[v])
            p = p - {v}
            x = x | {v}

    expand(frozenset(), frozenset(range(graph.n)), frozenset())
    return out


def _reference_cases():
    probs = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
    for n in (1, 2, 5, 12, 30, 60):
        for i, p in enumerate(probs if n <= 30 else probs[:4]):
            for kind in GOLDEN_ORDERS:
                yield n, p, 100 * n + i, kind
    yield 255, 0.05, 255, "random"


def assert_walk_is_the_reference(graph, order):
    walks = {}
    cursor = SolverCursor(graph, order=order, walks=walks)
    assert cursor.advance(10 ** 9, graph.n) is None
    assert cursor.exhausted
    (walk,) = walks.values()
    expect = reference_preorder(graph, order)
    assert [frozenset(order[i] for i in clique._bits(c))
            for c in walk.cliques] == expect
    assert list(walk.sizes) == [len(c) for c in expect]
    assert walk.steps == cursor.steps_consumed == len(expect)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 30, 60, 255])
def test_recorded_walk_is_the_reference_search_tree(n):
    cases = [case for case in _reference_cases() if case[0] == n]
    for _, edge_prob, seed, kind in cases:
        graph = gen_random_graph(n, edge_prob, seed)
        assert_walk_is_the_reference(graph, _visit_order(kind, n, seed))


def complete_bipartite_graph(a, b):
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a)
                                    for v in range(b)])


def disjoint_cliques(*sizes):
    starts = np.cumsum((0,) + sizes).tolist()
    return Graph.from_edges(starts[-1], [
        (s + u, s + v) for s, k in zip(starts, sizes)
        for u in range(k) for v in range(u + 1, k)])


# Graphs on which many vertices of P | X tie for the most neighbours in P,
# so the tie-break decides the pivot; and random graphs whose ranks
# straddle the 64-bit word boundary.
TIE_HEAVY_GRAPHS = {
    "complete": [complete_graph(n) for n in (1, 2, 7, 20)],
    "edgeless": [Graph.from_edges(n, []) for n in (1, 6, 20)],
    "bipartite": [complete_bipartite_graph(a, b)
                  for a, b in ((1, 1), (3, 3), (2, 5), (6, 4))],
    "cycle": [cycle_graph(n) for n in (3, 4, 5, 12)],
    "petersen": [Graph.from_edges(10, PETERSEN_EDGES)],
    "disjoint-cliques": [disjoint_cliques(*sizes)
                         for sizes in ((3, 3, 3), (1, 2, 3, 4), (5, 5))],
    "random-word-boundary": [gen_random_graph(n, p, n)
                             for n in (63, 64, 65) for p in (0.2, 0.5)],
}


@pytest.mark.parametrize("family", sorted(TIE_HEAVY_GRAPHS))
def test_recorded_walk_is_the_reference_search_tree_on_ties(family):
    for k, graph in enumerate(TIE_HEAVY_GRAPHS[family]):
        for kind in GOLDEN_ORDERS:
            assert_walk_is_the_reference(
                graph, _visit_order(kind, graph.n, 1000 + k))


# ---------------------------------------------------------------------------
# Edge-list persistence
# ---------------------------------------------------------------------------

def test_edge_list_header_format():
    g = gen_random_graph(6, 0.5, 3)
    header = graph_to_edge_list(g).splitlines()[0].split()
    assert header == ["6", str(g.num_edges), "3", "0.5"]


def bitwise_edge_list(graph):
    """A section rendered bit by bit from the neighbour masks."""
    lines = [f"{graph.n} {graph.num_edges} {graph.seed} "
             f"{format(graph.edge_prob, '.17g')}"]
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if graph.neighbor_masks[u] >> v & 1:
                lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def test_edge_list_matches_bitwise_rendering():
    graphs = [Graph.from_edges(10, PETERSEN_EDGES), Graph.from_edges(1, []),
              Graph.from_edges(5, [])]
    graphs += [gen_random_graph(n, p, seed) for n in (1, 2, 9, 64, 65, 130)
               for p in (0.1, 0.5, 0.9) for seed in range(3)]
    for g in graphs:
        assert graph_to_edge_list(g) == bitwise_edge_list(g)


@pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 101, 1001])
def test_edge_list_matches_the_reference_where_label_widths_change(n):
    # Around each power of ten, u's and v's labels change width.
    for g in (Graph.from_edges(n, []), complete_graph(n),
              gen_random_graph(n, 0.5, n)):
        assert graph_to_edge_list(g) == bitwise_edge_list(g)


def test_edge_list_round_trip(tmp_path):
    graphs = [gen_random_graph(20, 0.5, 11), gen_random_graph(15, 0.3, 12)]
    path = tmp_path / "graphs.edges"
    write_graphs(graphs, path)
    back = read_graphs(path, iter(graphs))
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
    with pytest.raises(ReplayError, match="regeneration"):
        read_graphs(path, iter([g]))


def _named_by(text):
    """The complete graph on the n vertices that ``text``'s first header
    names, carrying its seed and edge_prob: the header names this graph,
    and no section here lists all of its edges."""
    n, _, seed, edge_prob = text.split()[:4]
    return dataclasses.replace(complete_graph(int(n)), seed=int(seed),
                               edge_prob=float(edge_prob))


@pytest.mark.parametrize("text", [
    "1 -3 0 0.5\n",
    "3 2 -1 0\n0 1\n1 0\n",
])
def test_edge_list_rejects_a_wrong_edge_count(tmp_path, text):
    # Both parse to valid graphs whose rewritten header would differ.
    path = tmp_path / "graph.edges"
    path.write_text(text)
    with pytest.raises(ReplayError, match="distinct"):
        read_graphs(path, iter([_named_by(text)]))


def test_edge_list_caches_hold_one_size(tmp_path):
    # A run's graphs share one n, and one label table is 84 MB at
    # MAX_GRAPH_N, so the caches keep only the last size.
    path = tmp_path / "graphs.edges"
    graphs = [gen_random_graph(20, 0.5, 1), gen_random_graph(9, 0.5, 2)]
    write_graphs(graphs, path)
    assert [g.n for g in read_graphs(path, iter(graphs))] == [20, 9]
    assert io._pair_labels.cache_info().currsize == 1


def test_pair_labels_are_built_in_bounded_memory():
    # 130,816 labels of 8 bytes (1.05 MB); one Python string per pair held
    # 8.3 MB and peaked at 11.6 MB.
    io._pair_labels.cache_clear()
    tracemalloc.start()
    try:
        io._pair_labels(512)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 2e6 and peak <= 4e6


def test_handcrafted_graphs_round_trip(tmp_path):
    g = Graph.from_edges(10, PETERSEN_EDGES)
    path = tmp_path / "petersen.edges"
    write_graphs([g], path)
    back = read_graphs(path, iter([g]))[0]
    assert back.neighbor_masks == g.neighbor_masks


def _rewrite_edges(text, change):
    head, *edges = text.splitlines()
    return "\n".join([head, *change(edges)]) + "\n"


def _count_regenerations(monkeypatch):
    """The list that each later gen_random_graph call appends its args to;
    read_graphs itself draws no graph, so it stays empty there."""
    calls = []

    def counting_gen(*args):
        calls.append(args)
        return gen_random_graph(*args)

    monkeypatch.setattr(clique, "gen_random_graph", counting_gen)
    return calls


def _drawing(graphs):
    """An endless expected stream, as ``engine.problem_graphs`` is, that
    yields ``graphs`` and then more, and the list of what it has yielded."""
    drawn, more = [], gen_random_graph(3, 0.5, 0)

    def stream():
        for graph in itertools.chain(graphs, itertools.repeat(more)):
            drawn.append(graph)
            yield graph
    return stream(), drawn


def _per_section(change):
    """A layout that rewrites each section's edge lines with ``change``."""
    return lambda sections: "".join(_rewrite_edges(s, change)
                                    for s in sections)


# The middle section has no edges, so its header line is followed directly
# by the next section's header.
LAID_OUT = [gen_random_graph(30, 0.5, 5), gen_random_graph(1, 0.5, 7),
            gen_random_graph(12, 0.3, 6)]


@pytest.mark.parametrize("layout", [
    _per_section(lambda edges: edges[::-1]),
    _per_section(lambda edges: [" ".join(e.split()[::-1]) for e in edges]),
    _per_section(lambda edges: [e.replace(" ", "  ") for e in edges]),
    _per_section(lambda edges: [x for e in edges for x in (e, "", "  ")]),
    "".join,
    lambda sections: "".join(sections).replace("\n", "\r\n"),
    lambda sections: "".join(sections).replace("\n", " \t \n"),
    lambda sections: "".join(sections).replace(" 0.5\n", " 0.50\n"),
    lambda sections: "".join(sections).rstrip("\n"),
    lambda sections: "\n \n".join(sections),
], ids=["reordered", "as-v-u", "double-spaced", "blank-lines", "as-written",
        "crlf", "trailing-spaces", "header-0.50", "no-final-newline",
        "blank-lines-between-sections"])
def test_seeded_sections_read_back_however_laid_out(tmp_path, monkeypatch,
                                                    layout):
    path = tmp_path / "graphs.edges"
    path.write_bytes(layout([graph_to_edge_list(g)
                             for g in LAID_OUT]).encode())
    expected, drawn = _drawing(LAID_OUT)
    calls = _count_regenerations(monkeypatch)
    assert read_graphs(path, expected) == LAID_OUT
    assert drawn == LAID_OUT and calls == []    # one graph per section


def test_canonical_sections_are_taken_without_parsing(tmp_path, monkeypatch):
    graphs = [gen_random_graph(30, 0.5, 5), gen_random_graph(12, 0.3, 6)]
    path = tmp_path / "graphs.edges"
    write_graphs(graphs, path)

    def no_parse(*args, **kwargs):
        raise AssertionError("a canonical section was parsed")

    monkeypatch.setattr(Graph, "from_edges", no_parse)
    assert read_graphs(path, iter(graphs)) == graphs


@pytest.mark.parametrize("graphs", [
    LAID_OUT, LAID_OUT + [gen_random_graph(1, 0.5, 8)],
], ids=["last-with-edges", "last-without-edges"])
@pytest.mark.parametrize("final_newline", [True, False])
def test_zero_edge_sections_are_taken_without_parsing(tmp_path, monkeypatch,
                                                      graphs, final_newline):
    # LAID_OUT's middle section has no edges, so the next header follows
    # its header line directly.
    path = tmp_path / "graphs.edges"
    write_graphs(graphs, path)
    if not final_newline:
        path.write_text(path.read_text()[:-1])

    def no_parse(*args, **kwargs):
        raise AssertionError("a canonical section was parsed")

    monkeypatch.setattr(Graph, "from_edges", no_parse)
    assert read_graphs(path, iter(graphs)) == graphs


def test_rendering_must_end_at_a_line_end(tmp_path):
    # The rendering is a prefix of this section's text, but its last edge
    # line goes on: the section is parsed, and the stray edge rejected.
    g = gen_random_graph(12, 0.5, 21)
    last = graph_to_edge_list(g).splitlines()[-1]
    path = tmp_path / "graph.edges"
    path.write_text(graph_to_edge_list(g).rstrip("\n") + "0\n")
    with pytest.raises(ReplayError, match=rf"bad edge \({last.split()[0]}, "
                                          rf"{last.split()[1]}0\)"):
        read_graphs(path, iter([g]))


def test_tampered_seeded_section_regenerates_once(tmp_path, monkeypatch):
    g = gen_random_graph(12, 0.5, 21)
    lines = graph_to_edge_list(g).splitlines()
    header = lines[0].split()
    header[1] = str(int(header[1]) - 1)
    path = tmp_path / "graph.edges"
    path.write_text("\n".join([" ".join(header)] + lines[2:]) + "\n")
    expected, drawn = _drawing([g])
    calls = _count_regenerations(monkeypatch)
    with pytest.raises(ReplayError, match="regeneration"):
        read_graphs(path, expected)
    assert drawn == [g] and calls == []


@pytest.mark.parametrize("text, message", [
    ("3 1 5 1.5\n0 1 2\n", "too many values to unpack"),
    ("2 1 5 0.5\nx y\n", "invalid literal for int"),
    ("4 1 7 0.5\n0 9\n", r"bad edge \(0, 9\) for n=4"),
    ("1 -3 0 0.5\n", "header says -3 edges, lists 0 distinct"),
    ("2 0 3 0.5\n", "does not match regeneration"),
    ("2 3 5 0.5\n0 1\n", "section 0 lists 1 of its 3 edges"),
    ("3 1 5 0.5 x\n0 1\n", "bad edge-list header"),
])
def test_seeded_section_errors_keep_their_messages(tmp_path, text, message):
    # A section whose header names the expected graph but whose edges are
    # not its edges gets the parse path's error.
    path = tmp_path / "graph.edges"
    path.write_text(text)
    with pytest.raises(ReplayError, match=message):
        read_graphs(path, iter([_named_by(text)]))


@pytest.mark.parametrize("text", [
    "0 0 5 0.5\n",
    "3 1 5 1.5\n0 1\n",
    "3 1 6 0.5\n0 1\n",
    "4 1 5 0.5\n0 1\n",
])
def test_section_with_another_graphs_header_is_refused(tmp_path, text):
    # Each header differs from the expected graph's "3 3 5 0.5" in n, seed
    # or edge_prob; n = 0 and p = 1.5 name no graph a config can draw.
    path = tmp_path / "graph.edges"
    path.write_text(text)
    with pytest.raises(ReplayError, match="graph.edges: section 0 is not "
                                          "the run's graph 0"):
        read_graphs(path, iter([_named_by("3 3 5 0.5")]))


@pytest.mark.parametrize("n", [MAX_GRAPH_N + 1, 100_000])
def test_oversized_section_is_refused_before_any_allocation(
        tmp_path, monkeypatch, n):
    path = tmp_path / "graph.edges"
    g = gen_random_graph(5, 0.5, 3)
    path.write_text(graph_to_edge_list(g) + f"{n} 0 5 0.5\n")
    expected, drawn = _drawing([g])
    calls = _count_regenerations(monkeypatch)
    built = []
    monkeypatch.setattr(Graph, "from_edges",
                        lambda *args, **kwargs: built.append(args))
    with pytest.raises(ReplayError, match="graph.edges: section 1 is not "
                                          "the run's graph 1"):
        read_graphs(path, expected)
    assert len(drawn) == 2 and calls == [] and built == []
