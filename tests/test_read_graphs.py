"""``io.read_graphs`` reads its file a block at a time: it names the same
graphs and the same faults as the whole-file reader it replaced, in
memory that does not grow with the file."""

import random
import re
import tracemalloc
from itertools import chain, count

from cliquechain import io
from cliquechain.cli import main
from cliquechain.clique import Graph, gen_random_graph
from cliquechain.engine import problem_graphs
from cliquechain.io import (
    BLOCK,
    ReplayError,
    graph_to_edge_list,
    parse_config,
    read_graphs,
)

_NEXT_LINE = re.compile(r"\S(?:[^\n]*\S)?")


def reference_read_graphs(path, expected):
    """``read_graphs`` as it read the whole file as one str, in text mode,
    so that "\\r\\n" and "\\r" end lines as "\\n" does."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ReplayError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ReplayError(f"{path}: byte {exc.start} is not UTF-8") from None
    graphs, pos = [], 0
    try:
        while line := _NEXT_LINE.search(text, pos):
            head, pos = line[0].split(), line.end() + 1
            if len(head) != 4:
                raise ValueError(f"bad edge-list header: {line[0]!r}")
            n, m, seed = int(head[0]), int(head[1]), int(head[2])
            edge_prob, k = float(head[3]), len(graphs)
            want = next(expected)
            if (n, seed, edge_prob) != (want.n, want.seed, want.edge_prob):
                raise ValueError(f"section {k} is not the run's graph {k}")
            graphs.append(want)
            rendered = io._edge_text(want)
            end = pos + len(rendered)
            if m == want.num_edges and (
                    text.startswith(rendered, pos) or len(text) == end - 1
                    and text.endswith(rendered[:-1])):
                pos = end
                continue
            body = []
            while len(body) < m and (line := _NEXT_LINE.search(text, pos)):
                body.append(line[0])
                pos = line.end() + 1
            if len(body) < m:
                raise ValueError(f"section {k} lists {len(body)} of its "
                                 f"{m} edges")
            edges = [(int(u), int(v)) for u, v in map(str.split, body)]
            graph = Graph.from_edges(n, edges)
            if graph.num_edges != m:
                raise ValueError(f"section {k} header says {m} edges, "
                                 f"lists {graph.num_edges} distinct")
            if graph.edges != want.edges:
                raise ValueError(f"edge list for seed {seed} does not "
                                 "match regeneration")
    except ValueError as exc:
        raise ReplayError(f"{path}: {exc}") from None
    return graphs


def _expected(graphs):
    """An endless stream of graphs, as ``engine.problem_graphs`` is:
    ``graphs``, then seeded graphs that a file may list as extra
    sections."""
    return chain(graphs, (gen_random_graph(5, 0.5, 900 + k)
                          for k in count()))


def _outcome(read, path, graphs):
    """The graphs that ``read`` returns, or the message it raises."""
    try:
        return read(path, _expected(graphs))
    except ReplayError as exc:
        return str(exc)


# Each layout rewrites every line of the file; a section's lines are its
# header and then its edges.
_LAYOUTS = {
    "blank-lines": lambda rng, line: line + rng.choice(["", "\n", "\n \n"]),
    "trailing-spaces": lambda rng, line: line + rng.choice([" ", "\t", " \t"]),
    # str.splitlines breaks at these too, but a graphs file does not.
    "inner-breaks": lambda rng, line: line.replace(
        " ", rng.choice([" ", "\x0c", "\x1c", "\u2028", " \x0c "]), 1)
    + rng.choice(["", "\x0c", " "]),
}
_NEWLINES = ["\n", "\n", "\r\n", "\r"]
_FAULTS = ["swapped", "missing-edge", "extra-edge", "edge-count",
           "bad-header", "extra-section", "truncated"]
_BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]


def _corrupt(rng, sections, graphs, fault):
    """Corrupt ``sections`` (lists of lines) in place with ``fault`` and
    return the index of the first section it touches."""
    k = rng.randrange(len(sections))
    lines = sections[k]
    if fault == "swapped":
        g = graphs[k]
        other = gen_random_graph(g.n, g.edge_prob, g.seed + 1)
        sections[k] = graph_to_edge_list(other).splitlines()
    elif fault == "missing-edge" and len(lines) > 1:
        del lines[rng.randrange(1, len(lines))]
    elif fault == "extra-edge":
        u = rng.randrange(graphs[k].n)
        v = rng.choice([u, u + 1, graphs[k].n])
        at = rng.randrange(1, len(lines) + 1)
        lines.insert(at, rng.choice([f"{u} {v}", *lines[1:2]]))
    elif fault == "edge-count":
        head = lines[0].split()
        head[1] = str(int(head[1]) + rng.choice([-1, 1]))
        lines[0] = " ".join(head)
    elif fault == "bad-header":
        head = lines[0].split()
        lines[0] = rng.choice([" ".join(head[:3]), lines[0] + " 0",
                               " ".join(["x", *head[1:]]),
                               " ".join([*head[:3], "p"])])
    elif fault == "extra-section":
        k = len(sections)
        extra = rng.choice([gen_random_graph(5, 0.5, 900),
                            gen_random_graph(5, 0.5, 901)])
        sections.append(graph_to_edge_list(extra).splitlines())
    return k


def _seeded_graph_file(rng, path):
    """Write a graphs file drawn from ``rng``: its run's graphs as written,
    then laid out otherwise, corrupted, or holding a byte that is not
    UTF-8, or several of these.  Returns the run's graphs and what was
    drawn: where the bad byte went, the fault, the layout (each None if
    there is none) and the line end."""
    big = rng.random() < 0.1  # one section wider than a real block
    graphs = [gen_random_graph(260 if big and k == 0 else
                               rng.choice([1, 2, 5, 13, 30]),
                               rng.choice([0.05, 0.1, 0.5, 0.9]),
                               rng.randrange(1000))
              for k in range(rng.randint(1, 4))]
    sections = [graph_to_edge_list(g).splitlines() for g in graphs]
    if rng.random() < 0.2:  # the edges in another order
        for lines in sections:
            lines[1:] = rng.sample(lines[1:], len(lines) - 1)
    fault = rng.choice(_FAULTS) if rng.random() < 0.5 else None
    first = _corrupt(rng, sections, graphs, fault) if fault else None
    layout = rng.choice([None, None, *_LAYOUTS])
    newline = rng.choice(_NEWLINES)
    starts, data = [], b""  # each section's first byte
    for lines in sections:
        starts.append(len(data))
        if layout:
            lines = [_LAYOUTS[layout](rng, line) for line in lines]
        data += "".join(line + "\n" for line in lines).replace(
            "\n", newline).encode()
    starts.append(len(data))
    if rng.random() < 0.2:
        data = data.rstrip(newline.encode())  # no final newline
    if fault == "truncated":
        data = data[:rng.randrange(len(data) + 1)]
    where = None
    if rng.random() < 0.3:
        # Before, inside or after the first faulty section (any section
        # of a clean file).
        k = rng.randrange(len(sections)) if first is None else first
        where = rng.choice(["before", "inside", "after"])
        lo, hi = {"before": (0, starts[k]),
                  "inside": (starts[k], starts[k + 1]),
                  "after": (starts[k + 1], len(data))}[where]
        at = rng.randint(min(lo, len(data)), min(max(lo, hi), len(data)))
        data = data[:at] + rng.choice(_BAD_BYTES) + data[at:]
    path.write_bytes(data)
    return graphs, where, fault, layout, newline


# A fault message names one of these.
_MESSAGES = ["is not UTF-8", "is not the run's graph", "bad edge-list header",
             "lists", "distinct", "does not match regeneration", "bad edge (",
             "unpack", "invalid literal", "could not convert"]


def test_block_reader_matches_the_whole_file_reader(tmp_path, monkeypatch):
    rng = random.Random(33)
    seen, messages, clean = set(), set(), 0
    for k in range(150):
        path = tmp_path / f"graphs{k}.edges"
        graphs, *kinds = _seeded_graph_file(rng, path)
        want = _outcome(reference_read_graphs, path, graphs)
        # Small blocks cut every section, and the real one cuts the
        # 260-vertex sections.
        for block in (rng.choice([1, 2, 3, 7, 64, 1000]), BLOCK):
            monkeypatch.setattr(io, "BLOCK", block)
            assert _outcome(read_graphs, path, graphs) == want, (k, block)
        seen.update(kinds)
        if isinstance(want, str):
            messages.add(want)
        else:
            clean += 1
    assert seen >= {"before", "inside", "after", *_FAULTS, *_LAYOUTS,
                    *_NEWLINES}
    assert [m for m in _MESSAGES
            if not any(m in message for message in messages)] == []
    assert clean >= 30


def test_a_long_run_reads_its_graphs_in_bounded_memory(tmp_path):
    # A 100,000-block bitcoin run at the stock saturation window writes
    # 2,001 sections, 10 MB.  Read whole, that peaked 18.5 MB above the
    # returned graphs (Python 3.11, tracemalloc).
    cfg = tmp_path / "run.cfg"
    cfg.write_text("policy = bitcoin\nseed = 1\nmax_blocks = 100000\n")
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--out-dir", str(out)]) == 0
    expected = problem_graphs(parse_config(cfg))
    tracemalloc.start()
    try:
        graphs = read_graphs(out / "graphs.edges", expected)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graphs) == 2001
    assert peak - held <= 1e6
