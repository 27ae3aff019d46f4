"""Tests of the benchmark's own machinery: span arithmetic, metric names,
output checks and the worker cap."""

import json

import pytest

import run
import tracing

run.import_program()

SMALL_V2 = "policy = v2\nseed = 3\nmax_blocks = 120\ngraph_n = 20\n"


def test_self_time_subtracts_direct_children_only():
    #   0: [0, 10]  root
    #   1: [1, 3]   child of 0
    #   2: [4, 6]   child of 0
    #   3: [1.5, 2.5] child of 1
    parent = [-1, 0, 0, 1]
    start = [0.0, 1.0, 4.0, 1.5]
    end = [10.0, 3.0, 6.0, 2.5]
    assert tracing.self_times(parent, start, end) == [6.0, 1.0, 2.0, 1.0]


def test_tracer_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))

    def middle():
        return [leaf() for _ in range(3)]

    middle = tracer.wrap("middle", middle)
    with tracer.operation("root"):
        middle()
        leaf()
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 4
    assert summary["middle"]["calls"] == 1
    root_total = summary["root"]["total_s"]
    assert sum(row["self_s"] for row in summary.values()) == \
        pytest.approx(root_total)
    assert all(row["self_s"] >= 0 for row in summary.values())
    assert set(tracer.op) == {1}


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.end_to_end([], [])) == set(run.END_TO_END)
    # layer_metrics covers every per-layer metric except the two that are
    # computed across rounds.
    assert set(run.layer_metrics(tracing.Tracer())) | {
        "trace.overhead_frac", "experiments.parallel_efficiency"} == \
        set(run.PER_LAYER)


def test_tampered_records_count_as_failure(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_V2)
    out = tmp_path / "out"
    sim, ver = run.chain_pair("small", config, 3, out, None)
    assert sim.ok and ver.ok and sim.blocks == 120
    records = out / "records.csv"
    lines = records.read_text().splitlines()
    fields = lines[5].split(",")
    fields[2] = "solution" if fields[2] == "classical" else "classical"
    lines[5] = ",".join(fields)
    records.write_text("\n".join(lines) + "\n")
    tampered = run.verify_op("verify-chain small", records,
                             out / "graphs.edges", None)
    assert not tampered.ok
    assert "exit 3" in tampered.error


def test_digest_mismatch_marks_the_operation_failed():
    good = run.Op("simulate a", "simulate", 1.0, True, digest={"x": "1"})
    bad = run.Op("simulate a", "simulate", 1.0, True, digest={"x": "2"})
    rounds = [run.Round([good]), run.Round([bad])]
    run.check_outputs(rounds, None)
    assert good.ok and not bad.ok
    pinned = run.Op("simulate a", "simulate", 1.0, True, digest={"x": "1"})
    run.check_outputs([run.Round([pinned])], {"simulate a": {"x": "0"}})
    assert not pinned.ok


def test_tracing_changes_no_output_and_restores_the_program(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_V2)
    plain, _ = run.chain_pair("small", config, 3, tmp_path / "a", None)
    originals = {(spec, attr): getattr(tracing._owner(spec), attr)
                 for spec, attr, *_ in tracing.PATCHES}
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        traced, ver = run.chain_pair("small", config, 3, tmp_path / "b",
                                     tracer)
    assert traced.digest == plain.digest and ver.ok
    for (spec, attr), original in originals.items():
        assert getattr(tracing._owner(spec), attr) is original
    metrics = run.layer_metrics(tracer)
    assert metrics["engine.race_calls"] == 120
    assert metrics["chain.append_calls"] == 120
    assert metrics["clique.steps"] > 0
    assert metrics["io.bytes_written"] > 0
    assert metrics["cli.simulate_s"] > metrics["engine.simulate_s"] > 0


def test_pool_workers_never_exceed_nproc(monkeypatch):
    assert 1 <= run.pool_workers() <= run.nproc()
    for cores, expected in ((1, 1), (2, 2), (64, 2)):
        monkeypatch.setattr(run, "nproc", lambda cores=cores: cores)
        assert run.pool_workers() == expected

