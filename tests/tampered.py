"""Every tampered run ``verify-chain`` is checked on, and the configs
that exit 2, in one table.

A row edits a copy of a base run (or an empty directory) with a Python
function, runs one command, and expects an exit code and a message (on
stdout for exit 0, else on stderr).  A ``verify-chain`` row must also
match ``whole_list_verdict``: of several faults, the highest ranked wins.
Tier-1 runs every row in-process through ``cli.main``; ``python
tests/tampered.py`` runs them through the installed ``cliquechain``
script.  Only the function that runs a command differs, and both treat
RuntimeWarning as an error.  Pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import shutil
import subprocess
import tempfile
import warnings
from itertools import chain, islice
from pathlib import Path
from typing import Callable, NamedTuple

from cliquechain import cli, io
from cliquechain.clique import MAX_GRAPH_N, gen_random_graph
from cliquechain.engine import SimRecord, problem_graphs
from cliquechain.io import (
    ReplayError,
    parse_config_text,
    read_graphs,
    read_records,
    run_config,
    verify_miners,
    verify_record_stream,
    write_graphs,
)

# 1,500 blocks put data row 1,400 in the records' second chunk; one graph.
LONG_BITCOIN = ("policy = bitcoin\nseed = 1\nmax_blocks = 1500\n"
                "saturation_window = 0\n")
GROWTH_CFG = Path(__file__).parent.parent / "configs" / "growth.cfg"
# The base runs' configs, a file or a config's text; each runs once in both
# formats, as "<name>.<format>".  Records move 1,024 at a time, so "chunks"
# spans three chunks; it has a graphs section every 50 blocks, 61 in all.
BASES = {"growth": GROWTH_CFG,
         "chunks": "policy = bitcoin\nseed = 1\nmax_blocks = 3000\n",
         "long": LONG_BITCOIN}

RECORDS, GRAPHS = "records.{fmt}", "graphs.edges"


class Row(NamedTuple):
    name: str
    base: str  # a base run, "<name>.<format>", or "empty"
    edit: Callable[[Path, str], object]  # edit(run directory, format)
    code: int
    message: str
    # The command; "{run}" is the edited directory, "{fmt}" its format.
    argv: tuple = ("verify-chain", "{run}/" + RECORDS, "{run}/" + GRAPHS)


def _edit(name, change):
    """An edit that rewrites file ``name`` of the run through ``change``
    of its text, read as Latin-1 so that every byte round-trips."""
    def edit(run, fmt):
        path = run / name.format(fmt=fmt)
        path.write_bytes(
            change(path.read_bytes().decode("latin-1")).encode("latin-1"))
    return edit


def _set(row, **fields):
    """An edit that sets fields of data row ``row`` of the records."""
    def change(text):
        lines = text.splitlines()
        if text.startswith("{"):
            lines[row] = json.dumps({**json.loads(lines[row]), **fields})
        else:
            values = lines[row + 1].split(",")
            for name, value in fields.items():
                values[SimRecord._fields.index(name)] = str(value)
            lines[row + 1] = ",".join(values)
        return "\n".join(lines) + "\n"
    return _edit(RECORDS, change)


def _graphs(make):
    """An edit that writes ``make(the run's graphs)`` as its graphs file.
    It reads the manifest, so it goes before a manifest edit."""
    def edit(run, fmt):
        cfg = run_config(run / RECORDS.format(fmt=fmt))
        write_graphs(make(read_graphs(run / GRAPHS, problem_graphs(cfg))),
                     run / GRAPHS)
    return edit


def _all(*edits):
    return lambda run, fmt: [edit(run, fmt) for edit in edits]


def _drop(name):
    return lambda run, fmt: (run / name.format(fmt=fmt)).unlink()


def _write(name, content: bytes):
    return lambda run, fmt: (run / name).write_bytes(content)


def _repeated_edge(text):
    """Section 0 lists its first edge twice, and its header counts it."""
    head, edge, rest = text.split("\n", 2)
    n, m, tail = head.split(" ", 2)
    return f"{n} {int(m) + 1} {tail}\n{edge}\n{edge}\n{rest}"


def _out_dir(run, fmt):
    """A config, a regular file "file" and a symlink "link" to nowhere."""
    (run / "run.cfg").write_text("policy = v2\nseed = 3\nmax_blocks = 20\n")
    (run / "file").write_text("")
    (run / "link").symlink_to(run / "absent" / "target")


def _simulate(cfg, out="out"):
    return ("simulate", f"{{run}}/{cfg}", "--out-dir", f"{{run}}/{out}")


_NOTHING = _all()
_SWAPPED = _graphs(lambda graphs: [gen_random_graph(60, 0.5, 12345)])
_BAD_MANIFEST = _edit("manifest.json", lambda text: "[]")
_BAD_HEADER = _edit(RECORDS,
                    lambda text: "height,time" + text[text.index("\n"):])
_BAD_BYTE = _edit(RECORDS, lambda text: text + "\xff\n")
_GRAPHS_BAD_BYTE_LATE = _edit(GRAPHS,
                              lambda text: text + "\n" * io.BLOCK + "\xff\n")
_LINE_EARLY = _set(5, d_b="x")
_LINE_LATE = _set(1400, d_b="x")
_STREAM_EARLY = _set(3, kind="mystery")
_STREAM_LATE = _set(1400, kind="mystery")
_MINER_EARLY = _set(2, miner_id=20)

ROWS = [
    # Untouched runs verify, across three record chunks too, and so does
    # any whitespace layout of graphs.edges: CRLF line endings.
    Row("growth", "growth.csv", _NOTHING, 0, "ok: 600 records over 9 problem"),
    Row("growth-jsonl", "growth.jsonl", _NOTHING, 0, "ok: 600 records"),
    Row("chunks", "chunks.csv", _NOTHING, 0, "ok: 3000 records over 61"),
    Row("chunks-jsonl", "chunks.jsonl", _NOTHING, 0, "ok: 3000 records"),
    Row("crlf-graphs", "growth.csv",
        _edit(GRAPHS, lambda text: text.replace("\n", "\r\n")), 0, "ok: 600"),

    # The records file's bytes and lines; a bad value is named with its
    # line, in the third chunk too.  JSON keeps the last of two equal keys.
    Row("records-not-utf8", "growth.csv", _BAD_BYTE, 3, "is not UTF-8"),
    Row("jsonl-fractional-height", "growth.jsonl", _set(1, height=1.5), 3,
        "height must be a JSON integer"),
    Row("jsonl-extra-key", "growth.jsonl", _set(1, witness=[1, 2, 3]), 3,
        "a row needs exactly the 10 record fields"),
    Row("jsonl-repeated-key", "chunks.jsonl", _edit(RECORDS, lambda text: (
        text.replace('{"height":0,', '{"height":7,"height":0,', 1))), 3,
        "repeated key 'height'"),
    Row("bad-value-in-chunk-3", "chunks.csv", _set(2499, d_b="x"), 3,
        "bad record '2499,279.65108688269038,classical,6,x,5,1,49,2500,0'"),

    # Records bind to their run only through the manifest beside them,
    # which must list them.
    Row("no-manifest", "growth.csv", _drop("manifest.json"), 3,
        "manifest.json: No such file"),
    Row("unlisted-records", "chunks.csv",
        lambda run, fmt: shutil.copy(run / "records.csv", run / "copy.csv"),
        3, "manifest.json: does not list copy.csv",
        ("verify-chain", "{run}/copy.csv", "{run}/" + GRAPHS)),

    # Graphs that no run of the manifest's config drew.  Graph 2 at the
    # next seed is still a consistent G(n, p) section.  A header naming
    # more than MAX_GRAPH_N vertices names no graph of the run.
    Row("every-section-swapped", "growth.csv", _graphs(lambda graphs: [
        gen_random_graph(60, 0.5, 12345 + k) for k in range(len(graphs))]),
        3, "section 0 is not the run's graph 0"),
    Row("section-2-swapped", "chunks.csv", _graphs(lambda g: [
        *g[:2], gen_random_graph(g[2].n, g[2].edge_prob, g[2].seed + 1),
        *g[3:]]), 3, "graphs.edges: section 2 is not the run's graph 2"),
    Row("graph-header-too-big", "growth.csv", _edit(GRAPHS, lambda text: (
        str(MAX_GRAPH_N + 1) + text[text.index(" "):])), 3,
        "section 0 is not the run's graph 0"),
    Row("repeated-edge-line", "growth.csv", _edit(GRAPHS, _repeated_edge), 3,
        "graphs.edges: section 0 header says 880 edges, lists 879 distinct"),

    # The stream rules.  Heights and times hold by construction in the
    # simulator, so only verify-chain checks them.  Growth's epoch 8 has
    # records, so cutting its section leaves them without a graph.
    Row("height-gap", "growth.csv", _edit(RECORDS, lambda text: "".join(
        line for i, line in enumerate(text.splitlines(True)) if i != 11)), 3,
        "height 11: heights must be consecutive"),
    Row("time-nan", "growth.csv", _set(1, sim_time="nan"), 3,
        "height 1: sim_time does not increase"),
    Row("first-time-zero", "growth.csv", _set(0, sim_time=0), 3,
        "height 0: sim_time does not increase"),
    Row("time-goes-back", "growth.csv", _set(10, sim_time=0.1), 3,
        "height 10: sim_time does not increase"),
    Row("unknown-kind", "growth.csv", _set(0, kind="mystery"), 3,
        "height 0: unknown kind 'mystery'"),
    Row("solution-that-does-not-improve", "growth.csv",
        _set(39, kind="solution", best_score=1), 3,
        "height 39: solution score 1 does not beat 8"),
    Row("classical-moves-best", "growth.csv", _set(0, best_score=2), 3,
        "height 0: classical block moved best score"),
    Row("classical-moves-best-later", "chunks.csv", _set(10, best_score=2), 3,
        "height 10: classical block moved best score"),
    Row("one-classical-too-many", "growth.csv", _set(0, cum_classical=2), 3,
        "height 0: cumulative counters inconsistent"),
    Row("last-section-cut", "growth.csv", _graphs(lambda graphs: graphs[:-1]),
        3, "height 567: no graph for epoch 8"),

    # The miner rules: growth's stock population has ids 0-19.
    Row("unknown-miner", "growth.csv", _set(0, miner_id=20), 3,
        "height 0: no miner 20 in the run's config"),

    # Which fault verify-chain names when a run has several.  The ranks,
    # highest first: the records file's bytes and lines, the manifest,
    # the graphs file, the stream rules, the miner rules.
    Row("line-late-over-stream-early", "long.csv",
        _all(_LINE_LATE, _STREAM_EARLY), 3, "could not convert"),
    Row("line-late-over-miner-early", "long.csv",
        _all(_LINE_LATE, _MINER_EARLY), 3, "could not convert"),
    Row("byte-late-over-line-early", "long.csv",
        _all(_LINE_EARLY, _BAD_BYTE), 3, "is not UTF-8"),
    Row("byte-late-over-header", "long.csv",
        _all(_BAD_HEADER, _BAD_BYTE), 3, "is not UTF-8"),
    Row("line-over-manifest", "long.csv",
        _all(_BAD_MANIFEST, _LINE_LATE), 3, "could not convert"),
    Row("header-over-missing-manifest", "long.csv",
        _all(_drop("manifest.json"), _BAD_HEADER), 3, "unexpected header"),
    Row("missing-records-over-missing-manifest", "long.csv",
        _all(_drop("manifest.json"), _drop(RECORDS)), 3,
        "records.csv: No such file"),
    Row("manifest-over-graphs", "long.csv",
        _all(_SWAPPED, _BAD_MANIFEST), 3, "not a run manifest"),
    Row("manifest-over-empty-stream", "long.csv",
        _all(_edit(RECORDS, lambda text: text[:text.index("\n") + 1]),
             _BAD_MANIFEST), 3, "not a run manifest"),
    Row("graphs-byte-late-over-swapped-section", "long.csv",
        _all(_SWAPPED, _GRAPHS_BAD_BYTE_LATE), 3, "is not UTF-8"),
    Row("graphs-byte-late-over-stream", "long.csv",
        _all(_STREAM_EARLY, _GRAPHS_BAD_BYTE_LATE), 3, "is not UTF-8"),
    Row("graphs-over-stream", "long.csv",
        _all(_SWAPPED, _STREAM_EARLY), 3, "is not the run's graph"),
    Row("graphs-over-miner", "long.csv",
        _all(_SWAPPED, _MINER_EARLY), 3, "is not the run's graph"),
    Row("stream-late-over-miner-early", "long.csv",
        _all(_MINER_EARLY, _STREAM_LATE), 3, "height 1400: unknown kind"),
    Row("stream-end-over-miner", "long.csv", _all(_graphs(lambda graphs: list(
        islice(problem_graphs(parse_config_text(LONG_BITCOIN)), 3))),
        _MINER_EARLY), 3, "3 graphs for 1 epochs"),
    Row("miner-alone", "long.csv", _MINER_EARLY, 3, "height 2: no miner 20"),
    Row("jsonl-line-over-stream-and-miner", "long.jsonl",
        _all(_MINER_EARLY, _STREAM_EARLY, _set(1, height=1.5)), 3,
        "TypeError: height must be a JSON integer"),
    Row("jsonl-stream-late-over-miner-early", "long.jsonl",
        _all(_MINER_EARLY, _STREAM_LATE), 3, "height 1400: unknown kind"),

    # Configs the simulator refuses, exit 2.  An overflow warning in the
    # race would turn either overflow into exit 1; a waiting time of
    # 1e311 overflows the clock at block 0.
    Row("difficulty-overflows", "empty", _write("run.cfg", (
        b"policy = bitcoin\nseed = 1\nmax_blocks = 40\ninitial_db = 1e308\n"
        b"target_time = 1e308\n")), 2,
        "height 9: retarget takes d_b to inf", _simulate("run.cfg")),
    Row("clock-overflows", "empty", _write("run.cfg", (
        b"policy = bitcoin\nseed = 1\nmax_blocks = 5\ninitial_db = 1e308\n"
        b"miner = strategy=classical hashrate=0.001 count=2\n")), 2,
        "height 0: block time overflows", _simulate("run.cfg")),
    Row("config-not-utf8", "empty", _write(
        "bad.cfg", b"policy = v2\nseed = 1\n# \xff\xfe\n"), 2,
        "bad.cfg: byte 23 is not UTF-8", _simulate("bad.cfg")),
    # An output directory that cannot be made is refused before the run.
    Row("out-dir-is-a-file", "empty", _out_dir, 2, "cannot make --out-dir",
        _simulate("run.cfg", "file")),
    Row("out-dir-is-a-dangling-link", "empty", _out_dir, 2,
        "cannot make --out-dir", _simulate("run.cfg", "link")),
]


def whole_list_verdict(records, graphs) -> tuple[int, str]:
    """verify-chain's exit code and stderr, composed as the checks ran
    before records streamed: the whole list read, then the manifest, the
    graphs, the stream rules and the miner rules, each in turn."""
    try:
        recs = list(chain.from_iterable(read_records(records)))
        cfg = run_config(records)
        loaded = read_graphs(graphs, problem_graphs(cfg))
        verify_record_stream(recs, loaded)
        faults = []
        list(verify_miners([recs], cfg, faults))
        if faults:
            raise faults[0]
    except ReplayError as exc:
        return 3, f"validation error: {exc}\n"
    return 0, ""


def in_process(argv) -> tuple[int, str, str]:
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def installed(argv) -> tuple[int, str, str]:
    proc = subprocess.run(
        ["cliquechain", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
    return proc.returncode, proc.stdout, proc.stderr


def make_bases(command, where: Path) -> None:
    """Simulate every base run under ``where`` through ``command``."""
    (where / "empty").mkdir()
    for name, cfg in BASES.items():
        if isinstance(cfg, str):
            (where / f"{name}.cfg").write_text(cfg)
            cfg = where / f"{name}.cfg"
        for fmt in ("csv", "jsonl"):
            code, _, err = command(["simulate", str(cfg),
                                    "--out-dir", str(where / f"{name}.{fmt}"),
                                    "--format", fmt])
            assert code == 0, err


def check(row: Row, command, bases: Path, tmp: Path) -> None:
    """Edit a copy of the row's base run under ``tmp``, run the row's
    command through ``command`` and check what it gives."""
    run = tmp / row.name
    shutil.copytree(bases / row.base, run)
    fmt = row.base.partition(".")[2]
    row.edit(run, fmt)
    argv = [arg.format(run=run, fmt=fmt) for arg in row.argv]
    code, out, err = command(argv)
    assert code == row.code, f"{row.name}: exit {code}\n{err}"
    assert row.message in (err if code else out), f"{row.name}:\n{out}{err}"
    if argv[0] == "verify-chain":
        assert (code, err) == whole_list_verdict(*argv[1:]), row.name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        bases = Path(tmp, "bases")
        bases.mkdir()
        make_bases(installed, bases)
        for row in ROWS:
            check(row, installed, bases, Path(tmp))
            print("ok", row.name)
    print(len(ROWS), "rows")
