"""End-to-end command-line runs in temporary directories, plus the shipped
configuration files."""

import glob
import importlib
import json
import os
import pkgutil
import shlex
import shutil
import sys
import tracemalloc
import warnings
from itertools import chain, islice

import pytest

import cliquechain
from cliquechain import cli, clique, experiments, io
from cliquechain.cli import main
from cliquechain.clique import MAX_GRAPH_N, Graph
from cliquechain.engine import ConfigError, SimRecord, problem_graphs
from cliquechain.io import (
    ReplayError,
    parse_config,
    parse_config_text,
    read_graphs,
    read_manifest,
    read_records,
    run_config,
    verify_miners,
    verify_record_stream,
    write_graphs,
)

V2_SMALL = "policy = v2\nseed = 3\nmax_blocks = 120\n"
V1_SMALL = "policy = v1\nseed = 6\nmax_blocks = 150\n"
SWEEP_SMALL = ("policy = v2\nseed = 100\nmax_blocks = 40\ngraph_n = 25\n")
BUBKA_SMALL = ("policy = v2\nseed = 7\nmax_blocks = 50\ngraph_n = 25\n"
               "miner = strategy=classical hashrate=1000 count=4\n"
               "miner = strategy=bubka-attacker hashrate=1000 "
               "solver_steps_per_second=200 hoard_target=1\n")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_writes_records_graphs_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, V2_SMALL)
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out-dir", out]) == 0
    for name in ("records.csv", "graphs.edges", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))
    manifest = read_manifest(os.path.join(out, "manifest.json"))
    assert manifest.seed == 3
    assert manifest.outputs["records"] == "records.csv"
    assert "policy = v2" in manifest.config_text


def test_simulate_then_verify_chain_round_trip(tmp_path):
    cfg = write_cfg(tmp_path, V2_SMALL)
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out-dir", out]) == 0
    assert main(["verify-chain", os.path.join(out, "records.csv"),
                 os.path.join(out, "graphs.edges")]) == 0


def test_bitcoin_runs_and_verifies_without_search_masks(tmp_path,
                                                         monkeypatch):
    # No miner searches a bitcoin run's graphs, so neither command builds
    # their bitmask rows; a v2 run does, which shows the patch is live.
    def refuse(adj):
        raise AssertionError("built search masks")

    monkeypatch.setattr(clique, "_masks_from_rows", refuse)
    cfg = write_cfg(tmp_path, "policy = bitcoin\nseed = 3\nmax_blocks = 300\n")
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out-dir", out]) == 0
    graphs = os.path.join(out, "graphs.edges")
    assert main(["verify-chain", os.path.join(out, "records.csv"),
                 graphs]) == 0
    assert len(read_graphs(graphs, problem_graphs(parse_config(cfg)))) > 1
    with pytest.raises(AssertionError, match="search masks"):
        main(["simulate", write_cfg(tmp_path, V2_SMALL, "v2.cfg"),
              "--out-dir", str(tmp_path / "v2")])


def test_jsonl_format_verifies_too(tmp_path):
    cfg = write_cfg(tmp_path, V2_SMALL)
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out-dir", out,
                 "--format", "jsonl"]) == 0
    assert main(["verify-chain", os.path.join(out, "records.jsonl"),
                 os.path.join(out, "graphs.edges")]) == 0


def test_verify_chain_catches_tampering(tmp_path):
    cfg = write_cfg(tmp_path, V2_SMALL)
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out-dir", out]) == 0
    records = os.path.join(out, "records.csv")
    lines = open(records).read().splitlines()
    row = lines[40].split(",")
    row[6] = "1"                               # flatten a best_score
    row[2] = "solution"
    lines[40] = ",".join(row)
    with open(records, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(["verify-chain", records,
                 os.path.join(out, "graphs.edges")]) == 3


@pytest.mark.parametrize("new_epoch", [
    lambda e: max(e, 1),                    # every epoch-0 record as epoch 1
    lambda e: e + 1 if e >= 3 else e,       # epoch 2 jumps to 4
], ids=["starts-at-1", "skips-an-epoch"])
def test_verify_chain_rejects_impossible_epochs(tmp_path, capsys, new_epoch):
    cfg = write_cfg(tmp_path, "policy = bitcoin\nseed = 3\n"
                              "max_blocks = 400\n")
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out-dir", out]) == 0
    records = os.path.join(out, "records.csv")
    lines = open(records).read().splitlines()
    column = lines[0].split(",").index("problem_epoch")
    for i, line in enumerate(lines[1:], 1):
        row = line.split(",")
        row[column] = str(new_epoch(int(row[column])))
        lines[i] = ",".join(row)
    with open(records, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify-chain", records,
                 os.path.join(out, "graphs.edges")]) == 3
    assert "does not follow" in capsys.readouterr().err


@pytest.mark.parametrize("fmt,field,value", [
    ("csv", "sim_time", "nan"),
    ("csv", "d_b", "nan"),
    ("csv", "d_r", "inf"),
    ("csv", "sim_time", "inf"),
    ("jsonl", "d_r", "NaN"),
])
def test_verify_chain_rejects_non_finite_floats(tmp_path, capsys, fmt,
                                                field, value):
    # Every comparison with NaN is false, so each bound must be one that
    # NaN fails; inf must fail the upper bound.
    cfg = write_cfg(tmp_path, "policy = bitcoin\nseed = 1\nmax_blocks = 5\n")
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out-dir", out, "--format", fmt]) == 0
    records = os.path.join(out, f"records.{fmt}")
    lines = open(records).read().splitlines()
    if fmt == "csv":
        row = lines[2].split(",")
        row[lines[0].split(",").index(field)] = value
        lines[2] = ",".join(row)
    else:
        row = json.loads(lines[1])
        row[field] = float(value)
        lines[1] = json.dumps(row)
        assert value in lines[1]
    with open(records, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify-chain", records,
                 os.path.join(out, "graphs.edges")]) == 3
    assert "height 1: " in capsys.readouterr().err


GROWTH_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "growth.cfg")


# A one-block bitcoin run's record made into a solution block that the
# stream checks accept.
AS_SOLUTION = {"kind": "solution", "best_score": "2", "cum_classical": "0",
               "cum_solution": "1"}


@pytest.mark.parametrize("config,pick,edit,message", [
    # The stock growth population is classical miners 0-9 and solvers
    # 10-19.
    ("growth", "first", {"miner_id": "999"},
     "height 0: no miner 999 in the run's config"),
    ("growth", "first", {"miner_id": "20"},
     "height 0: no miner 20 in the run's config"),
    ("growth", "first solution", {"miner_id": "0"},
     "height 1: miner 0 cannot mine a solution block"),
    # No miner publishes under bitcoin, a listed solver included.
    ("", "first", AS_SOLUTION,
     "height 0: miner 1 cannot mine a solution block"),
    ("miner = strategy=solver count=3\n", "first", AS_SOLUTION,
     "height 0: miner 1 cannot mine a solution block"),
], ids=["unknown-miner", "one-past-the-last-miner", "classical-solution",
        "bitcoin-solution", "bitcoin-solver-solution"])
def test_verify_chain_checks_each_records_miner(tmp_path, capsys, config,
                                                pick, edit, message):
    text = (open(GROWTH_CFG).read() if config == "growth" else
            "policy = bitcoin\nseed = 1\nmax_blocks = 1\n" + config)
    out = tmp_path / "out"
    assert main(["simulate", write_cfg(tmp_path, text),
                 "--out-dir", str(out)]) == 0
    records, graphs = out / "records.csv", str(out / "graphs.edges")
    assert main(["verify-chain", str(records), graphs]) == 0
    header, *rows = [ln.split(",")
                     for ln in records.read_text().splitlines()]
    kind = header.index("kind")
    row = next(r for r in rows
               if pick == "first" or r[kind] == "solution")
    for name, value in edit.items():
        row[header.index(name)] = value
    records.write_text("\n".join(map(",".join, [header, *rows])) + "\n")
    capsys.readouterr()
    assert main(["verify-chain", str(records), graphs]) == 3
    assert message in capsys.readouterr().err


def test_one_exception_class_per_exit_path():
    # ConfigError exits 2 and ReplayError 3; any other exception is a bug
    # and exits 1, so no module defines a class that only renames it.
    modules = [cliquechain] + [
        importlib.import_module(f"cliquechain.{info.name}")
        for info in pkgutil.iter_modules(cliquechain.__path__)]
    defined = {obj for mod in modules for obj in vars(mod).values()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == mod.__name__}
    assert defined == {ConfigError, ReplayError}


@pytest.mark.parametrize("n,code", [(MAX_GRAPH_N + 1, 3), (30, 0)])
def test_verify_chain_bounds_the_graph_header(tmp_path, capsys, monkeypatch,
                                              n, code):
    # Section 1's header names n vertices; the run's graphs have 30.  A
    # header above MAX_GRAPH_N is refused before any graph is built.
    cfg = write_cfg(tmp_path, "policy = bitcoin\nseed = 1\nmax_blocks = 80\n"
                              "graph_n = 30\n")
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
    graphs = out / "graphs.edges"
    text = graphs.read_text()
    second = text.index("\n30 ") + 1
    graphs.write_text(text[:second] + f"{n} " + text[second + 3:])
    built = []
    monkeypatch.setattr(Graph, "from_edges",
                        lambda *args, **kwargs: built.append(args))
    capsys.readouterr()
    records = str(out / "records.csv")
    assert main(["verify-chain", records, str(graphs)]) == code
    assert built == []
    if code:
        assert ("graphs.edges: section 1 is not the run's graph 1"
                in capsys.readouterr().err)


def test_verify_chain_binds_the_graphs_to_the_run(tmp_path, capsys):
    # Replacements at heights 49, 99, ..., 349 give 8 graphs.  Graph 2
    # swapped for another seed's draw is still a consistent G(n, p)
    # section, so only the manifest's config can tell it is not the run's.
    cfg = write_cfg(tmp_path, "policy = bitcoin\nseed = 3\n"
                              "max_blocks = 380\n")
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
    graphs = read_graphs(out / "graphs.edges",
                         problem_graphs(parse_config(cfg)))
    graphs[2] = clique.gen_random_graph(graphs[2].n, graphs[2].edge_prob,
                                        graphs[2].seed + 1)
    swapped = str(tmp_path / "swapped.edges")
    write_graphs(graphs, swapped)
    capsys.readouterr()
    assert main(["verify-chain", str(out / "records.csv"), swapped]) == 3
    assert ("swapped.edges: section 2 is not the run's graph 2"
            in capsys.readouterr().err)
    # Records bind to a run only through a manifest beside them that
    # lists them.
    alone = tmp_path / "records.csv"
    alone.write_bytes((out / "records.csv").read_bytes())
    graphs = str(out / "graphs.edges")
    assert main(["verify-chain", str(alone), graphs]) == 3
    assert "manifest.json: No such file" in capsys.readouterr().err
    unlisted = out / "copy.csv"
    unlisted.write_bytes((out / "records.csv").read_bytes())
    assert main(["verify-chain", str(unlisted), graphs]) == 3
    assert ("manifest.json: does not list copy.csv"
            in capsys.readouterr().err)


@pytest.mark.parametrize("edit", [
    lambda text: text[:len(text) // 2],
    lambda text: "[]",
    lambda text: json.dumps({**json.loads(text), "outputs": ["records"]}),
    lambda text: text.replace("policy = v2", "policy = v3"),
], ids=["truncated", "a-list", "outputs-a-list", "config-does-not-parse"])
def test_verify_chain_refuses_a_bad_manifest(tmp_path, capsys, edit):
    cfg = write_cfg(tmp_path, V2_SMALL)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
    manifest = out / "manifest.json"
    manifest.write_text(edit(manifest.read_text()))
    capsys.readouterr()
    assert main(["verify-chain", str(out / "records.csv"),
                 str(out / "graphs.edges")]) == 3
    assert "manifest.json: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Which fault verify-chain names when a run has several
# ---------------------------------------------------------------------------

# 1,500 blocks put data row 1,400 in the records' second chunk.
LONG_BITCOIN = ("policy = bitcoin\nseed = 1\nmax_blocks = 1500\n"
                "saturation_window = 0\n")


@pytest.fixture(scope="module")
def long_runs(tmp_path_factory):
    """The run directory of LONG_BITCOIN in each record format."""
    base = tmp_path_factory.mktemp("long")
    cfg = write_cfg(base, LONG_BITCOIN)
    runs = {}
    for fmt in ("csv", "jsonl"):
        runs[fmt] = base / fmt
        assert main(["simulate", cfg, "--out-dir", str(runs[fmt]),
                     "--format", fmt]) == 0
    return runs


def _set(row, **fields):
    """An edit that sets fields of data row ``row`` of the records."""
    def edit(run, fmt):
        path = run / f"records.{fmt}"
        lines = path.read_text().splitlines()
        if fmt == "jsonl":
            lines[row] = json.dumps({**json.loads(lines[row]), **fields})
        else:
            values = lines[row + 1].split(",")
            for name, value in fields.items():
                values[SimRecord._fields.index(name)] = str(value)
            lines[row + 1] = ",".join(values)
        path.write_text("\n".join(lines) + "\n")
    return edit


def _bad_header(run, fmt):
    path = run / f"records.{fmt}"
    path.write_text("height,time\n" + path.read_text().split("\n", 1)[1])


def _header_only(run, fmt):
    path = run / f"records.{fmt}"
    path.write_text(path.read_text().split("\n", 1)[0] + "\n")


def _bad_byte_at_end(run, fmt):
    with open(run / f"records.{fmt}", "ab") as fh:
        fh.write(b"\xff\n")


def _drop(name):
    def edit(run, fmt):
        (run / name.format(fmt=fmt)).unlink()
    return edit


def _bad_manifest(run, fmt):
    (run / "manifest.json").write_text("[]")


def _swapped_graph(run, fmt):
    write_graphs([clique.gen_random_graph(60, 0.5, 12345)],
                 run / "graphs.edges")


def _graphs_bad_byte_late(run, fmt):
    """A byte that is not UTF-8 past the graphs file's first read block."""
    with open(run / "graphs.edges", "ab") as fh:
        fh.write(b"\n" * io.BLOCK + b"\xff\n")


def _three_graphs(run, fmt):
    cfg = parse_config_text(LONG_BITCOIN)
    write_graphs(islice(problem_graphs(cfg), 3), run / "graphs.edges")


_LINE_EARLY = _set(5, d_b="x")
_LINE_LATE = _set(1400, d_b="x")
_STREAM_EARLY = _set(3, kind="mystery")
_STREAM_LATE = _set(1400, kind="mystery")
_MINER_EARLY = _set(2, miner_id=20)

# (format, edits, the fault that wins).  The ranks, highest first: the
# records file's bytes and lines, the manifest, the graphs file, the
# stream rules, the miner rules.
PRECEDENCE = {
    "line-late-over-stream-early":
        ("csv", [_LINE_LATE, _STREAM_EARLY], "could not convert"),
    "line-late-over-miner-early":
        ("csv", [_LINE_LATE, _MINER_EARLY], "could not convert"),
    "byte-late-over-line-early":
        ("csv", [_LINE_EARLY, _bad_byte_at_end], "is not UTF-8"),
    "byte-late-over-header": ("csv", [_bad_header, _bad_byte_at_end],
                              "is not UTF-8"),
    "line-over-manifest":
        ("csv", [_bad_manifest, _LINE_LATE], "could not convert"),
    "header-over-missing-manifest":
        ("csv", [_drop("manifest.json"), _bad_header], "unexpected header"),
    "missing-records-over-missing-manifest":
        ("csv", [_drop("manifest.json"), _drop("records.{fmt}")],
         "records.csv: No such file"),
    "manifest-over-graphs":
        ("csv", [_swapped_graph, _bad_manifest], "not a run manifest"),
    "manifest-over-empty-stream":
        ("csv", [_header_only, _bad_manifest], "not a run manifest"),
    "graphs-byte-late-over-swapped-section":
        ("csv", [_swapped_graph, _graphs_bad_byte_late], "is not UTF-8"),
    "graphs-byte-late-over-stream":
        ("csv", [_STREAM_EARLY, _graphs_bad_byte_late], "is not UTF-8"),
    "graphs-over-stream":
        ("csv", [_swapped_graph, _STREAM_EARLY], "is not the run's graph"),
    "graphs-over-miner":
        ("csv", [_swapped_graph, _MINER_EARLY], "is not the run's graph"),
    "stream-late-over-miner-early":
        ("csv", [_MINER_EARLY, _STREAM_LATE], "height 1400: unknown kind"),
    "stream-end-over-miner":
        ("csv", [_three_graphs, _MINER_EARLY], "3 graphs for 1 epochs"),
    "miner-alone": ("csv", [_MINER_EARLY], "height 2: no miner 20"),
    "jsonl-line-over-stream-and-miner":
        ("jsonl", [_MINER_EARLY, _STREAM_EARLY, _set(1, height=1.5)],
         "TypeError: height must be a JSON integer"),
    "jsonl-stream-late-over-miner-early":
        ("jsonl", [_MINER_EARLY, _STREAM_LATE], "height 1400: unknown kind"),
}


def _whole_list_verdict(records, graphs) -> tuple[int, str]:
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


@pytest.mark.parametrize("fmt, edits, wins", PRECEDENCE.values(),
                         ids=PRECEDENCE.keys())
def test_verify_chain_names_the_highest_ranked_fault(long_runs, tmp_path,
                                                     capsys, fmt, edits,
                                                     wins):
    run = tmp_path / "run"
    shutil.copytree(long_runs[fmt], run)
    for edit in edits:
        edit(run, fmt)
    records, graphs = str(run / f"records.{fmt}"), str(run / "graphs.edges")
    capsys.readouterr()
    code = main(["verify-chain", records, graphs])
    err = capsys.readouterr().err
    assert (code, err) == _whole_list_verdict(records, graphs)
    assert code == 3 and wins in err


def test_record_memory_does_not_grow_with_the_run(tmp_path):
    # Records stream to the file and back a chunk at a time.  Held whole,
    # 100,000 blocks peaked about 20 MB (simulate) and 31 MB (verify-chain)
    # above 10,000 blocks.
    peaks = {}
    for n in (10_000, 100_000):
        cfg = write_cfg(tmp_path, f"policy = bitcoin\nseed = 1\n"
                                  f"max_blocks = {n}\nsaturation_window = 0\n"
                                  "miner = strategy=classical\n", f"{n}.cfg")
        out = tmp_path / f"out{n}"
        for argv in (["simulate", cfg, "--out-dir", str(out)],
                     ["verify-chain", str(out / "records.csv"),
                      str(out / "graphs.edges")]):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[argv[0], n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for command in ("simulate", "verify-chain"):
        assert peaks[command, 100_000] <= peaks[command, 10_000] + 2e6


def test_manifest_records_the_parsed_command_line(tmp_path, monkeypatch):
    # In-process callers of main, the benchmark and these tests, run under
    # another program's sys.argv; main(None) reads sys.argv[1:].
    cfg = write_cfg(tmp_path, V2_SMALL, "my run.cfg")
    monkeypatch.setattr(sys, "argv", ["host-process", "--flag"])
    argv = ["simulate", cfg, "--out-dir", str(tmp_path / "a")]
    assert main(argv) == 0
    manifest = read_manifest(tmp_path / "a" / "manifest.json")
    assert manifest.command == shlex.join(["cliquechain", *argv])
    assert shlex.split(manifest.command)[1:] == argv
    argv[-1] = str(tmp_path / "b")
    monkeypatch.setattr(sys, "argv", ["cliquechain", *argv])
    assert main() == 0
    manifest = read_manifest(tmp_path / "b" / "manifest.json")
    assert manifest.command == shlex.join(["cliquechain", *argv])


def test_seed_override_is_recorded_and_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, V2_SMALL)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["simulate", cfg, "--out-dir", out_a, "--seed", "77"]) == 0
    assert main(["simulate", cfg, "--out-dir", out_b]) == 0
    manifest = read_manifest(os.path.join(out_a, "manifest.json"))
    assert manifest.seed == 77
    assert "seed = 77" in manifest.config_text
    rec_a = open(os.path.join(out_a, "records.csv")).read()
    rec_b = open(os.path.join(out_b, "records.csv")).read()
    assert rec_a != rec_b


def test_manifest_config_reproduces_run_byte_for_byte(tmp_path):
    cfg = write_cfg(tmp_path, V2_SMALL)
    out_a = str(tmp_path / "a")
    assert main(["simulate", cfg, "--out-dir", out_a]) == 0
    manifest = read_manifest(os.path.join(out_a, "manifest.json"))
    replay_cfg = write_cfg(tmp_path, manifest.config_text, "replay.cfg")
    out_b = str(tmp_path / "b")
    assert main(["simulate", replay_cfg, "--out-dir", out_b]) == 0
    for name in ("records.csv", "graphs.edges"):
        original = open(os.path.join(out_a, name), "rb").read()
        replayed = open(os.path.join(out_b, name), "rb").read()
        assert original == replayed, name


def test_config_problems_exit_2(tmp_path):
    bad_value = write_cfg(tmp_path, "policy = v2\nseed = 1\neta = 1.5\n")
    assert main(["simulate", bad_value, "--out-dir",
                 str(tmp_path / "o1")]) == 2
    unknown = write_cfg(tmp_path, "policy = v2\nseed = 1\nfoo = 1\n",
                        "unknown.cfg")
    assert main(["simulate", unknown, "--out-dir", str(tmp_path / "o2")]) == 2
    malformed = write_cfg(tmp_path, "just some words\n", "malformed.cfg")
    assert main(["growth", malformed, "--out-dir", str(tmp_path / "o3")]) == 2


@pytest.mark.parametrize("line", [
    "policy = bitcoin\ntarget_time = nan",
    "policy = v2\ninitial_db = nan",
    "policy = v2\ninitial_db = inf",
    "policy = v1\ninitial_dr = inf",
    "policy = v2\nmax_update_factor = inf",
    "policy = v2\nminer = strategy=solver solver_steps_per_second=nan",
    "policy = v2\nminer = strategy=classical hashrate=inf",
])
def test_non_finite_config_numbers_exit_2(tmp_path, line):
    cfg = write_cfg(tmp_path, f"seed = 1\nmax_blocks = 20\n{line}\n")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text,height", [
    # d_b overflows to inf at the first retarget.
    ("policy = bitcoin\ninitial_db = 1e308\ntarget_time = 1e308\n", 9),
    # A 1e300 clamp drives d_b to 0 once the clock has outrun it.
    ("policy = v1\ninitial_db = 1e307\neta = 1\n"
     "max_update_factor = 1e300\n", 29),
], ids=["bitcoin-overflow", "v1-underflow"])
def test_difficulty_out_of_range_exits_2(tmp_path, capsys, text, height):
    cfg = write_cfg(tmp_path, f"seed = 1\nmax_blocks = 40\n{text}")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert f"height {height}: " in capsys.readouterr().err


@pytest.mark.parametrize("text,code,message", [
    # The retarget ratio underflows to 0.0: each of the three retargets
    # takes the factor 1/x, so d_b ends at 1e300 / 4**3.
    ("policy = bitcoin\nseed = 1\nmax_blocks = 30\ntarget_time = 1e-300\n"
     "initial_db = 1e300\n", 0, "final d_b=1.5625e+298"),
    # The v1 pull toward eta * d_b underflows to 0.0: the factor is 1/x
    # at each retarget, so d_r ends at 1e200 / 4**3.
    ("policy = v1\nseed = 1\nmax_blocks = 30\neta = 0.001\n"
     "initial_db = 1e-200\ninitial_dr = 1e200\n", 0, "d_r=1.5625e+198"),
    # A waiting time of 1e311 overflows the clock at the first block.
    ("policy = bitcoin\nseed = 1\nmax_blocks = 5\ninitial_db = 1e308\n"
     "miner = strategy=classical hashrate=0.001 count=2\n", 2,
     "height 0: block time overflows"),
    # The attacker's step budget for block 0 is infinite; it searches to
    # exhaustion, and the clock overflows one block later.
    ("policy = v1\nseed = 27\nmax_blocks = 84\ngraph_n = 1\n"
     "initial_db = 1e308\ninitial_dr = 1e300\nn1 = 100\n"
     "saturation_window = 1\nminer = strategy=classical hashrate=1e-200\n"
     "miner = strategy=bubka-attacker hashrate=1.0 "
     "solver_steps_per_second=200 hoard_target=1\n", 2,
     "height 1: block time overflows"),
], ids=["retarget-underflow", "v1-pull-underflow", "clock-overflow",
        "step-budget-overflow"])
def test_extreme_configs_run_or_exit_2(tmp_path, capsys, text, code,
                                       message):
    # A miner whose time overflows to inf just never wins: no warning.
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", cfg, "--out-dir",
                     str(tmp_path / "o")]) == code
    assert not [w for w in caught if w.category is RuntimeWarning]
    captured = capsys.readouterr()
    assert message in (captured.err if code else captured.out)


@pytest.mark.parametrize("command,option,value", [
    ("eta-sweep", "--etas", "0.5,x"),
    ("bubka", "--hoard-targets", "1,y"),
    ("bubka", "--hoard-targets", "1,1"),
    ("eta-sweep", "--etas", "0.5,0.5"),
    ("eta-sweep", "--workers", "0"),
    ("bubka", "--workers", "-2"),
])
def test_bad_list_arguments_exit_2_and_write_nothing(tmp_path, capsys,
                                                     command, option, value):
    cfg = write_cfg(tmp_path, SWEEP_SMALL if command == "eta-sweep"
                    else BUBKA_SMALL)
    out = str(tmp_path / "o")
    with pytest.raises(SystemExit) as exc:
        main([command, cfg, option, value, "--out-dir", out])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_stray_value_error_is_not_reported_as_validation(tmp_path,
                                                         monkeypatch):
    # A ValueError from inside a run is a bug: main lets it propagate, so
    # the process exits 1 with a traceback instead of exit 3.
    def broken(cfg, **options):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "simulate", broken)
    cfg = write_cfg(tmp_path, V2_SMALL)
    with pytest.raises(ValueError, match="bug"):
        main(["simulate", cfg, "--out-dir", str(tmp_path / "o")])


def test_missing_input_files_get_a_message(tmp_path, capsys):
    missing = str(tmp_path / "absent")
    assert main(["simulate", missing, "--out-dir", str(tmp_path / "o")]) == 2
    assert "absent" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, V2_SMALL)
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out-dir", out]) == 0
    graphs = os.path.join(out, "graphs.edges")
    assert main(["verify-chain", missing, graphs]) == 3
    assert "absent" in capsys.readouterr().err


def test_missing_graphs_file_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, V2_SMALL)
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out-dir", out]) == 0
    capsys.readouterr()
    assert main(["verify-chain", os.path.join(out, "records.csv"),
                 str(tmp_path / "absent.edges")]) == 3
    assert "absent.edges" in capsys.readouterr().err


def test_verify_chain_needs_a_graph_per_epoch_and_fixed_classical_scores(
        tmp_path, capsys):
    # Replacements at heights 49, 99, ..., 349: epoch 7, the last, has
    # records, so cutting its section off leaves them without a graph.
    cfg = write_cfg(tmp_path, "policy = bitcoin\nseed = 3\n"
                              "max_blocks = 380\n")
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
    records, graphs = str(out / "records.csv"), str(out / "graphs.edges")
    cut = str(tmp_path / "cut.edges")
    write_graphs(read_graphs(graphs, problem_graphs(parse_config(cfg)))[:-1],
                 cut)
    capsys.readouterr()
    assert main(["verify-chain", records, cut]) == 3
    assert "height 350: no graph for epoch 7" in capsys.readouterr().err

    lines = open(records).read().splitlines()
    row = lines[11].split(",")
    row[lines[0].split(",").index("best_score")] = "2"
    lines[11] = ",".join(row)
    with open(records, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(["verify-chain", records, graphs]) == 3
    assert ("height 10: classical block moved best score"
            in capsys.readouterr().err)


@pytest.mark.parametrize("line,message", [
    ("miner = strategy=solver hashrate", "'hashrate' needs key=value"),
    ("miner = strategy=solver hashrate=1 hashrate=2",
     "duplicate miner attribute 'hashrate'"),
    ("miner = strategy=solver hashrate=abc", "bad numeric miner attribute"),
    ("max_blocks = 0", "max_blocks must be >= 1"),
    ("saturation_window = -1", "saturation_window must be >= 0"),
    # Refused before a single miner is built, so a billion costs nothing.
    ("miner = strategy=classical count=1000000000",
     "1000000000 miners exceed the cap of 100000"),
    ("miner = strategy=classical count=60000\n"
     "miner = strategy=solver count=40001",
     "100001 miners exceed the cap of 100000"),
], ids=["token-without-equals", "repeated-attribute", "hashrate-abc",
        "max-blocks-0", "saturation-window-minus-1", "a-billion-miners",
        "miner-counts-summed-past-the-cap"])
def test_rejected_config_lines_exit_2(tmp_path, capsys, line, message):
    cfg = write_cfg(tmp_path, f"policy = v2\nseed = 1\n{line}\n")
    out = tmp_path / "o"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bubka_without_seeds_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BUBKA_SMALL)
    out = tmp_path / "o"
    assert main(["bubka", cfg, "--seeds", "0", "--out-dir", str(out)]) == 2
    assert "num_seeds must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,text", [("simulate", V2_SMALL),
                                          ("eta-sweep", SWEEP_SMALL)],
                         ids=["simulate", "eta-sweep"])
@pytest.mark.parametrize("under", ["file", "file/out", "link"],
                         ids=["file", "below-file", "dangling-link"])
def test_out_dir_that_cannot_be_made_exits_2_before_the_run(
        tmp_path, capsys, monkeypatch, command, text, under):
    # A run would raise, so exit 2 shows the directory is checked first.
    def refuse(*args):
        raise AssertionError("ran the simulation")

    monkeypatch.setattr(cli, "simulate", refuse)
    monkeypatch.setattr(experiments, "simulate", refuse)
    cfg = write_cfg(tmp_path, text)
    (tmp_path / "file").write_text("")
    (tmp_path / "link").symlink_to(tmp_path / "absent" / "target")
    out = str(tmp_path / under)
    assert main([command, cfg, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"cannot make --out-dir {out}" in err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"policy = v2\nseed = 1\n# \xff\xfe\n")
    out = str(tmp_path / "o")
    assert main(["simulate", str(cfg), "--out-dir", out]) == 2
    assert "bad.cfg: byte 23 is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["records.csv", "graphs.edges"])
def test_non_utf8_run_file_exits_3(tmp_path, capsys, name):
    cfg = write_cfg(tmp_path, V2_SMALL)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
    with open(out / name, "ab") as fh:
        fh.write(b"\xff\n")
    capsys.readouterr()
    assert main(["verify-chain", str(out / "records.csv"),
                 str(out / "graphs.edges")]) == 3
    assert name in capsys.readouterr().err


def test_truncated_graph_file_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, V2_SMALL)
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out-dir", out]) == 0
    graphs = os.path.join(out, "graphs.edges")
    lines = open(graphs).read().splitlines()
    with open(graphs, "w") as fh:
        fh.write("\n".join(lines[:len(lines) // 2]) + "\n")
    capsys.readouterr()
    assert main(["verify-chain", os.path.join(out, "records.csv"),
                 graphs]) == 3
    assert "graphs.edges" in capsys.readouterr().err


def test_repeated_edge_line_exits_3(tmp_path, capsys):
    # The header counts the repeat, so the edge list still regenerates.
    cfg = write_cfg(tmp_path, V2_SMALL)
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out-dir", out]) == 0
    graphs = os.path.join(out, "graphs.edges")
    lines = open(graphs).read().splitlines()
    header = lines[0].split()
    header[1] = str(int(header[1]) + 1)
    lines[0:2] = [" ".join(header), lines[1], lines[1]]
    with open(graphs, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify-chain", os.path.join(out, "records.csv"),
                 graphs]) == 3
    assert "distinct" in capsys.readouterr().err


def test_jsonl_record_without_kind_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, V2_SMALL)
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--out-dir", out,
                 "--format", "jsonl"]) == 0
    records = os.path.join(out, "records.jsonl")
    lines = open(records).read().splitlines()
    row = json.loads(lines[7])
    del row["kind"]
    lines[7] = json.dumps(row)
    with open(records, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify-chain", records,
                 os.path.join(out, "graphs.edges")]) == 3
    assert "records.jsonl" in capsys.readouterr().err


def test_growth_summary_shape(tmp_path):
    cfg = write_cfg(tmp_path, V2_SMALL)
    out = str(tmp_path / "out")
    assert main(["growth", cfg, "--out-dir", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert set(summary) == {"height", "cum_classical", "cum_solution",
                            "diagonal", "replacement_heights"}
    assert summary["height"] == list(range(120))
    assert summary["diagonal"] == [h + 1 for h in range(120)]
    total = [c + s for c, s in zip(summary["cum_classical"],
                                   summary["cum_solution"])]
    assert total == summary["diagonal"]


def test_difficulty_summary_shape(tmp_path):
    cfg = write_cfg(tmp_path, V1_SMALL)
    out = str(tmp_path / "out")
    assert main(["difficulty", cfg, "--out-dir", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert set(summary) == {"height", "d_b", "d_r", "replacement_heights"}
    assert len(summary["d_b"]) == len(summary["d_r"]) == 150
    assert all(v > 0 for v in summary["d_b"])


def test_eta_sweep_outputs(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_SMALL)
    out = str(tmp_path / "out")
    assert main(["eta-sweep", cfg, "--out-dir", out,
                 "--etas", "0.5,0.01", "--instances", "1"]) == 0
    lines = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert lines[0] == "eta,v1_mean,v1_sd,v2_mean,v2_sd"
    assert len(lines) == 3
    runs = sorted(os.listdir(os.path.join(out, "runs")))
    assert runs == ["v1_eta00_inst00.csv", "v1_eta01_inst00.csv",
                    "v2_eta00_inst00.csv", "v2_eta01_inst00.csv"]
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["eta_values"] == [0.5, 0.01]
    assert (summary["instances"], summary["chain_height"]) == (1, 40)
    assert 0.0 <= summary["v2_mean_line"] <= 1.0


def test_bubka_outputs(tmp_path):
    cfg = write_cfg(tmp_path, BUBKA_SMALL)
    out = str(tmp_path / "out")
    assert main(["bubka", cfg, "--out-dir", out,
                 "--hoard-targets", "1,2", "--seeds", "2"]) == 0
    lines = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert lines[0] == "hoard_target,win_fraction,max_consecutive"
    assert len(lines) == 3
    runs = sorted(os.listdir(os.path.join(out, "runs")))
    assert runs == ["honest_seed00.csv", "honest_seed01.csv",
                    "target1_seed00.csv", "target1_seed01.csv",
                    "target2_seed00.csv", "target2_seed01.csv"]


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main builds its parser once per process, so no call may leave its
    # options or its usage error behind for the next.
    cfg = write_cfg(tmp_path, BUBKA_SMALL)

    def targets(name, *options):
        out = str(tmp_path / name)
        assert main(["bubka", cfg, "--seeds", "1", "--out-dir", out,
                     *options]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        return [row["hoard_target"] for row in summary["rows"]]

    assert cli.build_parser() is cli.build_parser()
    assert targets("two", "--hoard-targets", "2") == [2]
    assert targets("default") == [1, 2, 5]
    with pytest.raises(SystemExit) as exc:
        main(["bubka", cfg, "--hoard-targets", "1,y"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert targets("after-error") == [1, 2, 5]


def test_selftest_passes():
    assert main(["selftest", "--graphs", "10", "--max-n", "10"]) == 0


def test_selftest_disagreement_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "brute_force_max_clique", lambda graph: 99)
    assert main(["selftest", "--graphs", "3", "--max-n", "8"]) == 3
    captured = capsys.readouterr()
    assert "FAIL graph 0: n=" in captured.out
    assert "search=" in captured.out and "brute=99" in captured.out
    assert "selftest: 0/3 graphs agree" in captured.out
    assert "3 selftest graphs disagreed" in captured.err


@pytest.mark.parametrize("args", [
    ["--max-n", "3"],                       # graphs start at 4 vertices
    ["--max-n", "21", "--graphs", "1", "--seed", "7"],  # draws n = 21
    ["--graphs", "-1"],
    ["--graphs", "0"],
    ["--seed", "-1"],
], ids=["max-n-3", "max-n-21", "graphs-minus-1", "graphs-0", "seed-minus-1"])
def test_selftest_out_of_range_arguments_exit_2(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(["selftest"] + args)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_shipped_configs_parse():
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                          os.pardir, "configs", "*.cfg")))
    assert len(paths) == 5
    for path in paths:
        cfg = parse_config(path)
        assert cfg.miners, path

    by_name = {os.path.basename(p): parse_config(p) for p in paths}
    growth = by_name["growth.cfg"]
    assert (growth.policy, growth.max_blocks) == ("v2", 600)
    assert (growth.n2_classical, growth.n2_solution) == (10, 5)
    assert (growth.t2_classical, growth.t2_solution) == (0.1, 0.1)
    assert by_name["difficulty_v1.cfg"].policy == "v1"
    assert by_name["difficulty_v2.cfg"].policy == "v2"
    attacker = [i for i, m in enumerate(by_name["bubka.cfg"].miners)
                if m.hoard_target is not None]
    assert attacker == [10]
