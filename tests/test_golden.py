"""Pinned traces of the pausable clique search.

Each case drives a ``SolverCursor`` through a cycle of step budgets and
records ``(steps_consumed, found.vertices or None)`` after every
``advance`` call.  The traces are digested per graph size and compared
with digests taken from a known-good build, so any change to the search
tree, to the pause points or to the order of reports shows up here even
when the best score found stays the same.
"""

import hashlib
import json

import numpy as np
import pytest

from cliquechain.clique import SolverCursor, gen_random_graph

# Graph size -> (edge probability, graph seed, fixed threshold).
GRAPHS = {
    1: (0.5, 11, 0),
    2: (0.7, 12, 1),
    5: (0.6, 13, 1),
    12: (0.5, 14, 2),
    30: (0.5, 15, 3),
    60: (0.5, 16, 5),
}
ORDERS = ("identity", "reversed", "random")
BUDGET_CYCLES = ((1,), (0, 1, 5), (0, 64, 1, 250), (1, 0, 997))
THRESHOLDS = ("rising", "fixed")
# A case stops at exhaustion or after this many advance calls, whichever
# comes first, so the large graphs are traced over a prefix of the tree.
MAX_CALLS = 120

DIGESTS = {
    1: "4fc51927b9c33beca19f0cf51fd711bc902115ea2ee7a82b9c040160eaf1bd30",
    2: "a4f55b6426804cc954cb16399da71b5c8dc98fb41c95a7fce5f4de2618548819",
    5: "d5bf3efabf571946a3843d289e3af53e8dc8868c74cdcb13e2854aa8090557ba",
    12: "83be2b9de79318baff21ad9a45cc529d5dcb40fa70f1e763e5fbace6bdb29066",
    30: "9dbd065c56bc197e64ead055582bfb67df1c6f6a17b740a43c14fb9f3139f43b",
    60: "ae58fea1220346ce29f8052f721299d2b33ffa4227ed70da7f094040e2609f55",
}


def _order(kind, n, seed):
    if kind == "identity":
        return list(range(n))
    if kind == "reversed":
        return list(range(n - 1, -1, -1))
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.permutation(n).tolist()


def _trace(graph, order, budgets, threshold):
    cursor = SolverCursor(graph, order=order)
    best = 0
    trace = []
    calls = 0
    while not cursor.exhausted and calls < MAX_CALLS:
        limit = best if threshold == "rising" else threshold
        found = cursor.advance(graph, budgets[calls % len(budgets)], limit)
        calls += 1
        if found is not None:
            best = max(best, found.score)
        trace.append((cursor.steps_consumed,
                      None if found is None else list(found.vertices)))
    trace.append(cursor.exhausted)
    return trace


def _cases(n):
    edge_prob, graph_seed, fixed = GRAPHS[n]
    graph = gen_random_graph(n, edge_prob, graph_seed)
    for i, kind in enumerate(ORDERS):
        order = _order(kind, n, 1000 * n + i)
        for budgets in BUDGET_CYCLES:
            for mode in THRESHOLDS:
                threshold = "rising" if mode == "rising" else fixed
                label = [kind, list(budgets), mode]
                yield label, graph, order, budgets, threshold


def _digest(n):
    traces = [[label, _trace(graph, order, budgets, threshold)]
              for label, graph, order, budgets, threshold in _cases(n)]
    blob = json.dumps(traces, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("n", sorted(GRAPHS))
def test_cursor_traces_match_pinned_digests(n):
    assert _digest(n) == DIGESTS[n]
