"""Config parsing, record serialization, manifests, and stream
re-validation."""

import dataclasses

import pytest

from cliquechain.engine import SimConfig, SimRecord, Strategy, simulate
from cliquechain.io import (
    CSV_HEADER,
    ParseError,
    ReplayError,
    RunManifest,
    UnknownKey,
    ValidationError,
    parse_config_text,
    read_manifest,
    read_records,
    render_config,
    records_to_csv,
    verify_record_stream,
    write_manifest,
    write_records,
)

MINIMAL = "policy = bitcoin\nseed = 1\n"

FULL = """\
# independent policy with a mixed population
policy = v2
seed = 42
max_blocks = 150          # inline comment
n2_classical = 8
t2_solution = 0.25
graph_n = 30

miner = strategy=classical hashrate=2000 count=3
miner = strategy=solver hashrate=1000 solver_steps_per_second=50
miner = strategy=bubka-attacker hashrate=500 solver_steps_per_second=10 hoard_target=2
"""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_minimal_config_resolves_all_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.policy == "bitcoin" and cfg.seed == 1
    assert cfg.eta == 0.005 and cfg.initial_dr == 5.0
    assert cfg.max_blocks == 200 and cfg.graph_n == 60
    assert len(cfg.miners) == 10
    assert all(m.strategy is Strategy.CLASSICAL for m in cfg.miners)


def test_full_config_parses_miners_in_order():
    cfg = parse_config_text(FULL)
    assert cfg.n2_classical == 8 and cfg.t2_solution == 0.25
    assert cfg.max_blocks == 150
    strategies = [m.strategy for m in cfg.miners]
    assert strategies == [Strategy.CLASSICAL] * 3 + [Strategy.SOLVER,
                                                     Strategy.BUBKA]
    assert [m.id for m in cfg.miners] == [0, 1, 2, 3, 4]
    assert cfg.miners[0].hashrate == 2000.0
    assert cfg.miners[4].hoard_target == 2


def test_parse_rejects_malformed_lines():
    with pytest.raises(ParseError):
        parse_config_text("policy bitcoin\nseed = 1\n")
    with pytest.raises(ParseError):
        parse_config_text(MINIMAL + "seed = 2\n")          # duplicate
    with pytest.raises(ParseError):
        parse_config_text(MINIMAL + "max_blocks = ten\n")
    with pytest.raises(ParseError):
        parse_config_text(MINIMAL + "eta =\n")
    with pytest.raises(ParseError):
        parse_config_text(MINIMAL + "miner = hashrate=10\n")


def test_parse_rejects_unknown_keys():
    with pytest.raises(UnknownKey):
        parse_config_text(MINIMAL + "difficulty = 3\n")
    with pytest.raises(UnknownKey):
        parse_config_text(MINIMAL + "miner = strategy=classical color=red\n")
    with pytest.raises(UnknownKey):
        parse_config_text(MINIMAL + "miners = strategy=classical\n")


def test_parse_rejects_invalid_values():
    with pytest.raises(ValidationError):
        parse_config_text("policy = v2\nseed = 1\neta = 1.5\n")
    with pytest.raises(ValidationError):
        parse_config_text("policy = v9\nseed = 1\n")
    with pytest.raises(ValidationError):
        parse_config_text("seed = 1\n")
    with pytest.raises(ValidationError):
        parse_config_text("policy = v2\n")
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL + "miner = strategy=alchemist\n")
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL + "miner = strategy=bubka-attacker "
                                    "solver_steps_per_second=10\n")
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL + "miner = strategy=classical count=0\n")


def test_render_parse_round_trip():
    for text in (MINIMAL, FULL):
        cfg = parse_config_text(text)
        rendered = render_config(cfg)
        assert parse_config_text(rendered) == cfg
        assert render_config(parse_config_text(rendered)) == rendered


# ---------------------------------------------------------------------------
# Record serialization
# ---------------------------------------------------------------------------

def sample_records():
    return [
        SimRecord(height=0, sim_time=0.09357624234, kind="classical",
                  miner_id=3, d_b=1000.0, d_r=5.0, best_score=1,
                  problem_epoch=0, cum_classical=1, cum_solution=0),
        SimRecord(height=1, sim_time=0.1, kind="solution", miner_id=11,
                  d_b=1000.0, d_r=4.9999999999999991, best_score=6,
                  problem_epoch=0, cum_classical=1, cum_solution=1),
    ]


def test_csv_header_and_row_layout():
    text = records_to_csv(sample_records())
    lines = text.splitlines()
    assert lines[0] == ("height,sim_time,kind,miner_id,d_b,d_r,"
                        "best_score,problem_epoch,cum_classical,cum_solution")
    assert lines[0] == CSV_HEADER
    assert lines[1].split(",")[2] == "classical"
    assert lines[2].split(",")[2] == "solution"
    assert len(lines) == 3


def test_round_trip_preserves_floats_exactly(tmp_path):
    records = sample_records()
    for fmt in ("csv", "jsonl"):
        path = tmp_path / f"records.{fmt}"
        write_records(records, path, fmt=fmt)
        assert read_records(path) == records


def test_simulated_records_round_trip(tmp_path):
    records = simulate(SimConfig(policy="v2", seed=2, max_blocks=80)).records
    for fmt in ("csv", "jsonl"):
        path = tmp_path / f"records.{fmt}"
        write_records(records, path, fmt=fmt)
        assert read_records(path) == records


def test_write_records_guards(tmp_path):
    with pytest.raises(ValueError):
        write_records([], tmp_path / "none.csv")
    with pytest.raises(ValueError):
        write_records(sample_records(), tmp_path / "x.bin", fmt="bin")


def test_read_records_rejects_garbage(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("height,sim_time\n0,0.1\n")
    with pytest.raises(ReplayError):
        read_records(bad_header)
    truncated = tmp_path / "bad2.csv"
    truncated.write_text(CSV_HEADER + "\n0,0.1,classical\n")
    with pytest.raises(ReplayError):
        read_records(truncated)
    empty = tmp_path / "bad3.csv"
    empty.write_text("")
    with pytest.raises(ReplayError):
        read_records(empty)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(version="0.1.0", command="cliquechain simulate x",
                           seed=7, config_text=MINIMAL,
                           outputs={"records": "records.csv"},
                           started_utc="2026-01-01T00:00:00+00:00",
                           finished_utc="2026-01-01T00:00:01+00:00")
    path = tmp_path / "manifest.json"
    write_manifest(manifest, path)
    assert read_manifest(path) == manifest


# ---------------------------------------------------------------------------
# Stream verification
# ---------------------------------------------------------------------------

def test_verify_accepts_real_runs():
    res = simulate(SimConfig(policy="v2", seed=13, max_blocks=300))
    verify_record_stream(res.records, res.graphs)


def test_verify_rejects_corrupted_streams():
    res = simulate(SimConfig(policy="v2", seed=13, max_blocks=120))
    records, graphs = res.records, res.graphs

    def corrupt(i, **changes):
        out = list(records)
        out[i] = dataclasses.replace(out[i], **changes)
        return out

    solution_idx = next(i for i, r in enumerate(records)
                        if r.kind == "solution")
    cases = [
        corrupt(5, height=7),
        corrupt(5, sim_time=records[4].sim_time),
        corrupt(5, d_r=0.0),
        corrupt(5, kind="mystery"),
        corrupt(5, problem_epoch=99),
        corrupt(solution_idx, best_score=1),            # no improvement
        corrupt(solution_idx, best_score=1000),         # exceeds graph size
        corrupt(5, cum_classical=records[5].cum_classical + 1),
    ]
    if records[5].kind == "classical":
        cases.append(corrupt(5, best_score=records[5].best_score + 1))
    for bad in cases:
        with pytest.raises(ReplayError):
            verify_record_stream(bad, graphs)
    with pytest.raises(ReplayError):
        verify_record_stream([], graphs)
    verify_record_stream(records, graphs)               # original still fine
