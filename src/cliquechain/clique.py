"""Random graph instances and the resumable maximum-clique search.

The search is Bron-Kerbosch with the Tomita pivot, driven through an
explicit frame stack so a solver can spend a fixed step budget, pause, and
resume later without losing its place.  One step is one frame expansion,
i.e. one node of the recursion tree.  Following BBMC, each cursor first
relabels its graph into its own visit order, so every vertex set is a
bitmask in which the lowest bit is the earliest vertex to visit (see
``SolverCursor``); the tree, and so every trace, is that of the
unrelabelled search.  The one search loop is ``Walk.run``: a cursor runs
a private walk, or shares a recorded one with the cursors of other runs
that search the same graph in the same order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

# The published best score starts at 1: a single vertex is a clique in any
# nonempty graph, so the first improvement worth a block is an edge.
INITIAL_BEST_SCORE = 1

# Sentinel seed for hand-built graphs that were not drawn from G(n, p).
HANDCRAFTED_SEED = -1

# The most vertices a config may name, and so a graph in a graphs file;
# the memory a graph needs grows with n squared.  gen_random_graph holds
# n(n-1)/2 float64 draws and their bits at once (75 MB at 4,096 vertices),
# a search an n-by-n bool matrix, and a graphs file's writer or reader a
# table of "u v\n" labels, 10 bytes a pair (``io._pair_labels``: 84 MB).
MAX_GRAPH_N = 4096


@dataclass(frozen=True)
class CliqueSolution:
    """A clique witness: its vertices, sorted so equal cliques compare
    equal and serialize identically.  The block that carries it is
    published on the problem instance active at its height."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("solution vertices must be sorted and distinct")

    @property
    def score(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph, stored as its edge bits.

    ``edges`` packs one bit per pair u < v, little-endian, in the
    ``_upper(n)`` order that G(n, p) draws and the edge list writes.  The
    search's bitmask rows are derived on first use: bit ``u`` of
    ``neighbor_masks[v]`` is set iff the edge (u, v) exists.
    ``seed``/``edge_prob`` record the G(n, p) draw that produced the graph;
    hand-built graphs carry ``seed = -1`` and ``edge_prob = 0.0``.
    """

    n: int
    seed: int
    edge_prob: float
    edges: bytes

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            adj[u, v] = adj[v, u] = True
        return cls(n=n, seed=HANDCRAFTED_SEED, edge_prob=0.0,
                   edges=_pack(adj[_upper(n)]))

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        return tuple(_masks_from_rows(_adjacency(self.n, self.edges)))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.neighbor_masks[u] >> v & 1)

    @property
    def num_edges(self) -> int:
        return int.from_bytes(self.edges, "little").bit_count()


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
        raise ValueError("n must be >= 1")
    if not 0.0 < edge_prob < 1.0:
        raise ValueError("edge_prob must lie strictly between 0 and 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.random(n * (n - 1) // 2)
    return Graph(n=n, seed=seed, edge_prob=edge_prob,
                 edges=_pack(draws < edge_prob))


def _upper(n: int) -> np.ndarray:
    return ~np.tri(n, dtype=bool)  # indexes the pairs u < v in (u, v) order


def _masks_from_rows(adj: np.ndarray) -> list[int]:
    """Bitmask rows of a 0/1 matrix: bit ``v`` of row ``u`` is adj[u, v]."""
    width = (len(adj) + 7) // 8
    out = np.packbits(adj, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(out[i:i + width], "little")
            for i in range(0, len(out), width)]


def _pack(bits: np.ndarray) -> bytes:
    return np.packbits(bits, bitorder="little").tobytes()


def _unpack(n: int, edges: bytes) -> np.ndarray:
    """``edges`` as one bool per pair u < v, in ``_upper(n)`` order."""
    return np.unpackbits(np.frombuffer(edges, dtype=np.uint8),
                         count=n * (n - 1) // 2, bitorder="little").view(bool)


@lru_cache(maxsize=1)  # every solver of a graph relabels the same matrix
def _adjacency(n: int, edges: bytes) -> np.ndarray:
    """Boolean adjacency matrix of a graph's edge bits, read-only as it is
    cached."""
    adj = np.zeros((n, n), dtype=bool)
    adj[_upper(n)] = _unpack(n, edges)
    adj |= adj.T
    adj.flags.writeable = False
    return adj


@dataclass
class ProblemInstance:
    """One clique instance being worked by the network.

    ``best_score`` is the best published score, raised only by
    ``engine.append_block``.  Whether the instance is solved out is read
    from the solvers' cursors and hoards, not stored here.
    ``last_improvement_height`` starts at the height that swapped the
    problem in (-1 for the first one) and moves with every publish; the
    problem is replaced once it lags a full saturation window behind.
    """

    graph: Graph
    epoch: int
    best_score: int = INITIAL_BEST_SCORE
    last_improvement_height: int = -1


# ---------------------------------------------------------------------------
# Resumable Bron-Kerbosch
# ---------------------------------------------------------------------------

def _relabel(graph: Graph, order: list[int]) -> list[int]:
    """Adjacency masks renumbered so that bit ``i`` is vertex ``order[i]``."""
    o = np.asarray(order)
    adj = _adjacency(graph.n, graph.edges)
    return _masks_from_rows(adj.take(o, 0).take(o, 1))


@cache
def _above(threshold: int) -> re.Pattern | None:
    """Pattern for one byte greater than ``threshold``; None if no size
    byte can be."""
    low = max(threshold + 1, 0)
    if low > 255:
        return None
    return re.compile(b"[" + re.escape(bytes([low])) + b"-\xff]")


class Walk:
    """The Bron-Kerbosch search of one relabelled graph, run as far as its
    cursors have asked.

    Each stack frame is a list ``[r, p, x, ext]``: the clique so far,
    candidate and excluded sets, all bitmasks of ranks, and the children
    left to visit.  The stack holds just the frames with a child left,
    each the parent of the one above.  One step pops the top frame's
    lowest child (and the frame with its last) and expands it: the pivot
    is the vertex of P | X with the most neighbours in P, the lowest rank
    on a tie (the scan runs from the highest rank down and takes every
    tie), and the child is pushed if its ``ext``, P \\ N(pivot), is
    nonzero.  The root is the only child of a sentinel frame over an
    extra vertex ``n`` adjacent to all.  ``steps`` counts the expansions.

    A shared walk (``record=True``) also keeps the size and the clique of
    its ``k``-th expansion, from 0, in ``sizes[k]`` and ``cliques[k]``, so
    cursors behind its frontier answer from the record.  Sizes are bytes,
    so only graphs of at most 255 vertices are recorded.  A private walk
    keeps nothing but its stack.
    """

    __slots__ = ("masks", "stack", "steps", "sizes", "cliques")

    def __init__(self, masks: list[int], record: bool = False):
        n = len(masks)
        self.masks = [*masks, (1 << n) - 1]
        self.stack: list[list] = [[1 << n, (1 << n) - 1, 0, 1 << n]]
        self.steps = 0
        self.sizes = bytearray() if record else None
        self.cliques: list[int] | None = [] if record else None

    def run(self, end: int, threshold: int) -> int | None:
        """Expand frames until step ``end``; return the clique of the first
        expansion larger than ``threshold``, or None.  The walk pauses
        right after a report.  On a miss, ``steps < end`` iff the search
        ran out of frames."""
        masks = self.masks
        stack = self.stack
        sizes = self.sizes
        cliques = self.cliques
        step = self.steps
        while step < end and stack:
            r, p, x, ext = fr = stack[-1]
            low = ext & -ext
            if ext == low:
                stack.pop()
            else:
                fr[1] = p ^ low
                fr[2] = x | low
                fr[3] = ext ^ low
            mv = masks[low.bit_length() - 1]
            r ^= low
            p &= mv
            step += 1
            if p:
                x &= mv
                best_count = -1
                cand = p | x
                while cand:
                    i = cand.bit_length() - 1
                    cand ^= 1 << i
                    count = (p & masks[i]).bit_count()
                    if count >= best_count:
                        best_count, pivot = count, i
                ext = p & ~masks[pivot]
                if ext:
                    stack.append([r, p, x, ext])
            size = r.bit_count()
            if sizes is not None:
                sizes.append(size)
                cliques.append(r)
            if size > threshold:
                self.steps = step
                return r
        self.steps = step
        return None


class SolverCursor:
    """Pausable Bron-Kerbosch enumeration over the graph it is built for.

    ``order`` permutes the exploration so independently seeded solvers walk
    the same tree in different directions; the default is vertex order.
    The cursor searches a copy of the graph relabelled into that order:
    bit ``i`` stands for ``order[i]``, the vertex of rank ``i``, so the
    lowest set bit of a set is its earliest vertex in visit order.  Pivot
    ties and children thus go in visit order, as in the plain search on
    the graph's own labels, so the tree and every trace are the same.  Any
    expanded frame whose clique beats the caller's threshold is reported
    at once, maximal or not, mapped back through ``order``.

    The search itself is a ``Walk``.  Given a ``walks`` dict, cursors of
    the same graph and order share one recorded walk kept there under
    ``(graph.n, graph.edges, order)``: each cursor keeps only its
    position, the walk runs each step once for all of them, and a cursor
    behind its frontier answers with a byte search of the recorded clique
    sizes.  Reports, ``steps_consumed`` and ``exhausted`` are those of the
    cursor's own search.  Without ``walks``, or on graphs of more than 255
    vertices, the cursor runs a private walk that records nothing.
    """

    def __init__(self, graph: Graph, order: list[int] | None = None,
                 walks: dict | None = None):
        n = graph.n
        if order is None:
            order = list(range(n))
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the vertices")
        self._order = tuple(order)
        self.steps_consumed = 0
        self.exhausted = False
        if walks is None or n > 255:
            self._walk = Walk(_relabel(graph, order))
            return
        key = (n, graph.edges, self._order)
        self._walk = walks.get(key)
        if self._walk is None:
            self._walk = walks[key] = Walk(_relabel(graph, order),
                                           record=True)

    def advance(self, step_budget: int,
                threshold: int) -> CliqueSolution | None:
        """Run up to ``step_budget`` expansions; return the first clique
        strictly larger than ``threshold``, or None.

        The cursor pauses right after a report, so the very next call picks
        up beneath the reported frame and never reports the same clique
        twice.  The visit sequence does not depend on the budget split.
        """
        walk = self._walk
        pos = self.steps_consumed
        end = pos + step_budget
        clique = None
        if pos < walk.steps:
            stop = min(end, walk.steps)
            pattern = _above(threshold)
            hit = pattern and pattern.search(walk.sizes, pos, stop)
            if hit:
                pos = hit.end()
                clique = walk.cliques[pos - 1]
            else:
                pos = stop
        if clique is None and pos < end:
            clique = walk.run(end, threshold)
            pos = walk.steps
        self.steps_consumed = pos
        if clique is None:
            # The walk stops at ``end`` before it looks at its stack, so
            # the search exhausts only in a call with budget left past it.
            if walk.steps < end:
                self.exhausted = True
            return None
        return CliqueSolution(
            tuple(sorted(self._order[i] for i in _bits(clique))))


def brute_force_max_clique(graph: Graph) -> int:
    """Exact maximum clique size by exhaustive subset enumeration.

    Independent of the Bron-Kerbosch path on purpose: subsets are scanned
    in increasing order and a set is a clique iff removing its lowest
    vertex leaves a clique fully adjacent to that vertex.  Guarded to
    n <= 20.
    """
    n = graph.n
    if n > 20:
        raise ValueError(f"brute force is capped at 20 vertices, got {n}")
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
    """Whether ``vertices`` are distinct, pairwise adjacent graph vertices."""
    verts = list(vertices)
    if len(set(verts)) != len(verts):
        return False
    if not all(0 <= v < graph.n for v in verts):
        return False
    mask = sum(1 << v for v in verts)
    masks = graph.neighbor_masks
    return all(mask & ~(masks[v] | 1 << v) == 0 for v in verts)
