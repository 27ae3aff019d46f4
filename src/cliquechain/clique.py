"""Random graph instances and the resumable maximum-clique search.

The search is Bron-Kerbosch with the Tomita pivot, driven through an
explicit frame stack so a solver can spend a fixed step budget, pause, and
resume later without losing its place.  One step is one frame expansion,
i.e. one node of the recursion tree.  Following BBMC, each cursor first
relabels its graph into its own visit order, so every vertex set is a
bitmask in which the lowest bit is the earliest vertex to visit (see
``SolverCursor``); the tree, and so every trace, is that of the
unrelabelled search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The published best score starts at 1: a single vertex is a clique in any
# nonempty graph, so the first improvement worth a block is an edge.
INITIAL_BEST_SCORE = 1

# Sentinel seed for hand-built graphs that were not drawn from G(n, p).
HANDCRAFTED_SEED = -1


class InvalidParams(ValueError):
    """Rejected graph-generation parameters."""


class TooLarge(ValueError):
    """Instance exceeds the brute-force oracle's size guard."""


class CursorGraphMismatch(ValueError):
    """A cursor was advanced against a graph it was not created for."""


@dataclass(frozen=True)
class CliqueSolution:
    """A clique witness tied to one problem instance.

    Vertices are kept sorted so equal cliques compare equal and serialize
    identically.
    """

    problem_epoch: int
    vertices: tuple[int, ...]
    score: int

    def __post_init__(self):
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("solution vertices must be sorted and distinct")
        if self.score != len(self.vertices):
            raise ValueError("solution score must equal its vertex count")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with bitmask adjacency.

    Bit ``u`` of ``neighbor_masks[v]`` is set iff the edge (u, v) exists.
    ``seed``/``edge_prob`` record the G(n, p) draw that produced the graph;
    hand-built graphs carry ``seed = -1`` and ``edge_prob = 0.0``.
    """

    n: int
    seed: int
    edge_prob: float
    neighbor_masks: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges, seed: int = HANDCRAFTED_SEED,
                   edge_prob: float = 0.0) -> "Graph":
        if n < 1:
            raise InvalidParams("graph needs at least one vertex")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvalidParams(f"bad edge ({u}, {v}) for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n=n, seed=seed, edge_prob=edge_prob,
                   neighbor_masks=tuple(masks))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.neighbor_masks[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            mask = self.neighbor_masks[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in _bits(mask))
        return out

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.neighbor_masks) // 2


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def gen_random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Draw G(n, edge_prob) deterministically from a PCG64 stream.

    Pairs are visited in (u, v) order with u < v and one uniform draw
    decides each edge, so the same (n, edge_prob, seed) always regenerates
    the identical adjacency.
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if not 0.0 < edge_prob < 1.0:
        raise InvalidParams("edge_prob must lie strictly between 0 and 1")
    if seed < 0:
        raise InvalidParams("seed must be non-negative")
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.random(n * (n - 1) // 2)
    masks = [0] * n
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if draws[k] < edge_prob:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            k += 1
    return Graph(n=n, seed=seed, edge_prob=edge_prob,
                 neighbor_masks=tuple(masks))


@dataclass
class ProblemInstance:
    """One clique instance being worked by the network.

    ``best_score`` tracks the best published score; ``optimum`` is filled
    once the enumeration provably finished (every solver cursor exhausted).
    ``last_improvement_height`` starts at the height that swapped the
    problem in (-1 for the first one) and moves with every publish; the
    problem is replaced once it lags a full saturation window behind.
    """

    graph: Graph
    epoch: int
    best_score: int = INITIAL_BEST_SCORE
    optimum: int | None = None
    last_improvement_height: int = -1


# ---------------------------------------------------------------------------
# Resumable Bron-Kerbosch
# ---------------------------------------------------------------------------

def _relabel(masks: tuple[int, ...], order: list[int]) -> list[int]:
    """Adjacency masks renumbered so that bit ``i`` is vertex ``order[i]``.

    Vectorised: a per-bit loop would cost as much as a short-lived cursor's
    whole search.
    """
    n = len(masks)
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(n, width)
    adj = np.unpackbits(rows, axis=1, count=n, bitorder="little")
    o = np.asarray(order)
    out = np.packbits(adj.take(o, 0).take(o, 1), axis=1,
                      bitorder="little").tobytes()
    return [int.from_bytes(out[i:i + width], "little")
            for i in range(0, n * width, width)]


class SolverCursor:
    """Pausable Bron-Kerbosch enumeration over one graph.

    ``order`` permutes the exploration so independently seeded solvers walk
    the same tree in different directions; the default is vertex order.
    The cursor searches a copy of the graph relabelled into that order:
    bit ``i`` stands for ``order[i]``, the vertex of rank ``i``, so the
    lowest set bit of a set is its earliest vertex in visit order.

    Each stack frame is a list ``[r, p, x, ext]``: clique so far (ranks),
    candidate and excluded sets, and the children left to visit, with
    ``ext = -1`` until expanded.  Expanding costs one step: the pivot is
    the first vertex of P | X, scanning from the lowest bit, with the most
    neighbours in P, and ``ext`` becomes P \\ N(pivot), visited lowest bit
    first.  Pivot ties and children thus go in visit order, as in the plain
    search on the graph's own labels, so the tree and every trace are the
    same.  Any expanded frame whose clique beats the caller's threshold is
    reported at once, maximal or not, mapped back through ``order``.
    """

    def __init__(self, graph: Graph, problem_epoch: int = 0,
                 order: list[int] | None = None):
        n = graph.n
        if order is None:
            order = list(range(n))
        if sorted(order) != list(range(n)):
            raise InvalidParams("order must be a permutation of the vertices")
        self.problem_epoch = problem_epoch
        self._graph_masks = graph.neighbor_masks
        self._order = tuple(order)
        self._masks = _relabel(graph.neighbor_masks, order)
        self._stack: list[list] = [[(), (1 << n) - 1, 0, -1]]
        self.steps_consumed = 0
        self.exhausted = False

    def matches(self, graph: Graph) -> bool:
        masks = graph.neighbor_masks
        return masks is self._graph_masks or masks == self._graph_masks

    def advance(self, graph: Graph, step_budget: int,
                threshold: int) -> CliqueSolution | None:
        """Run up to ``step_budget`` expansions; return the first clique
        strictly larger than ``threshold``, or None.

        The cursor pauses right after a report, so the very next call picks
        up beneath the reported frame and never reports the same clique
        twice.  The visit sequence does not depend on the budget split.
        """
        if not self.matches(graph):
            raise CursorGraphMismatch(
                "cursor was created for a different graph")
        masks = self._masks
        stack = self._stack
        budget = step_budget
        found = None
        while budget > 0 and stack:
            fr = stack[-1]
            r, p, x, ext = fr
            if ext < 0:
                budget -= 1
                ext = 0
                if p:
                    best_count = -1
                    cand = p | x
                    while cand:
                        low = cand & -cand
                        cand ^= low
                        count = (p & masks[low.bit_length() - 1]).bit_count()
                        if count > best_count:
                            best_count, pivot = count, low
                    ext = p & ~masks[pivot.bit_length() - 1]
                fr[3] = ext
                if len(r) > threshold:
                    order = self._order
                    found = CliqueSolution(
                        problem_epoch=self.problem_epoch,
                        vertices=tuple(sorted(order[i] for i in r)),
                        score=len(r))
                    break
            elif ext:
                low = ext & -ext
                v = low.bit_length() - 1
                mv = masks[v]
                fr[1] = p ^ low
                fr[2] = x | low
                fr[3] = ext ^ low
                stack.append([r + (v,), p & mv, x & mv, -1])
            else:
                stack.pop()
        self.steps_consumed += step_budget - budget
        if not stack:
            self.exhausted = True
        return found


def brute_force_max_clique(graph: Graph) -> int:
    """Exact maximum clique size by exhaustive subset enumeration.

    Independent of the Bron-Kerbosch path on purpose: subsets are scanned
    in increasing order and a set is a clique iff removing its lowest
    vertex leaves a clique fully adjacent to that vertex.  Guarded to
    n <= 20.
    """
    n = graph.n
    if n > 20:
        raise TooLarge(f"brute force is capped at 20 vertices, got {n}")
    masks = graph.neighbor_masks
    is_clique = bytearray(1 << n)
    is_clique[0] = 1
    best = 0
    for s in range(1, 1 << n):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        if is_clique[rest] and rest & ~masks[v] == 0:
            is_clique[s] = 1
            size = s.bit_count()
            if size > best:
                best = size
    return best


def is_clique(graph: Graph, vertices) -> bool:
    """Pairwise adjacency check, O(k^2) edge lookups for k vertices."""
    verts = list(vertices)
    if len(set(verts)) != len(verts):
        return False
    for v in verts:
        if not 0 <= v < graph.n:
            return False
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if not graph.has_edge(u, v):
                return False
    return True


# ---------------------------------------------------------------------------
# Edge-list persistence
# ---------------------------------------------------------------------------

def graph_to_edge_list(graph: Graph) -> str:
    """Render one graph as an edge-list section.

    Header line is "n m seed p", then one "u v" pair per line, 0-indexed.
    """
    lines = [f"{graph.n} {graph.num_edges} {graph.seed} "
             f"{format(graph.edge_prob, '.17g')}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def write_graphs(graphs, path) -> None:
    """Write one or more graphs as concatenated edge-list sections.

    A multi-epoch run stores the graph of epoch k as section k, so a single
    file is enough to audit a whole chain.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for graph in graphs:
            fh.write(graph_to_edge_list(graph))


def read_graphs(path) -> list[Graph]:
    """Parse edge-list sections back into graphs.

    When a section carries a non-negative seed it is re-drawn from
    (n, edge_prob, seed) and must match the listed edges bit for bit;
    a mismatch means the file does not belong to its manifest.  Every
    problem with the file raises ValueError naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            tokens = fh.read().split("\n")
        lines = [ln.strip() for ln in tokens if ln.strip()]
        graphs = []
        i = 0
        while i < len(lines):
            head = lines[i].split()
            if len(head) != 4:
                raise ValueError(f"bad edge-list header: {lines[i]!r}")
            n, m, seed = int(head[0]), int(head[1]), int(head[2])
            edge_prob = float(head[3])
            i += 1
            if i + m > len(lines):
                raise ValueError(f"section {len(graphs)} lists "
                                 f"{len(lines) - i} of its {m} edges")
            edges = []
            for _ in range(m):
                u, v = lines[i].split()
                edges.append((int(u), int(v)))
                i += 1
            graph = Graph.from_edges(n, edges, seed=seed,
                                     edge_prob=edge_prob)
            if seed >= 0:
                regen = gen_random_graph(n, edge_prob, seed)
                if regen.neighbor_masks != graph.neighbor_masks:
                    raise ValueError(f"edge list for seed {seed} does not "
                                     "match regeneration")
            graphs.append(graph)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return graphs
