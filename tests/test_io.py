"""Config parsing, record serialization, manifests, and stream
re-validation."""

import json
import math
import pickle
import random
import sys
import time
import tracemalloc
from itertools import chain, product
from pathlib import Path

import pytest

from cliquechain import io
from cliquechain.clique import INITIAL_BEST_SCORE
from cliquechain.engine import (
    ConfigError,
    SimConfig,
    SimRecord,
    Strategy,
    simulate,
)
from cliquechain.experiments import SweepCell
from cliquechain.io import (
    CHUNK,
    CSV_HEADER,
    MAX_MINERS,
    ReplayError,
    RunManifest,
    parse_config_text,
    read_manifest,
    render_config,
    records_to_csv,
    records_to_jsonl,
    verify_record_stream,
    write_manifest,
    write_records,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def read_records(path) -> list[SimRecord]:
    """Every record of the file at ``path``, built from the chunks that
    ``io.read_records`` yields."""
    return list(chain.from_iterable(io.read_records(path)))


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
    assert cfg.miners[0].hashrate == 2000.0
    assert cfg.miners[4].hoard_target == 2


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("policy bitcoin\nseed = 1\n")
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        parse_config_text(MINIMAL + "seed = 2\n")
    with pytest.raises(ConfigError, match="bad value for max_blocks"):
        parse_config_text(MINIMAL + "max_blocks = ten\n")
    with pytest.raises(ConfigError, match="key 'eta' has no value"):
        parse_config_text(MINIMAL + "eta =\n")
    with pytest.raises(ConfigError, match="miner entry needs a strategy"):
        parse_config_text(MINIMAL + "miner = hashrate=10\n")


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key 'difficulty'"):
        parse_config_text(MINIMAL + "difficulty = 3\n")
    with pytest.raises(ConfigError, match="unknown miner attribute 'color'"):
        parse_config_text(MINIMAL + "miner = strategy=classical color=red\n")
    with pytest.raises(ConfigError, match="unknown key 'miners'"):
        parse_config_text(MINIMAL + "miners = strategy=classical\n")


def test_parse_rejects_invalid_values():
    with pytest.raises(ConfigError, match=r"eta must lie in \(0, 1\]"):
        parse_config_text("policy = v2\nseed = 1\neta = 1.5\n")
    with pytest.raises(ConfigError, match="unknown policy 'v9'"):
        parse_config_text("policy = v9\nseed = 1\n")
    with pytest.raises(ConfigError, match="config must set a policy"):
        parse_config_text("seed = 1\n")
    with pytest.raises(ConfigError, match="config must set a seed"):
        parse_config_text("policy = v2\n")
    with pytest.raises(ConfigError, match="unknown strategy 'alchemist'"):
        parse_config_text(MINIMAL + "miner = strategy=alchemist\n")
    with pytest.raises(ConfigError, match="needs hoard_target >= 1"):
        parse_config_text(MINIMAL + "miner = strategy=bubka-attacker "
                                    "solver_steps_per_second=10\n")
    with pytest.raises(ConfigError, match="miner count must be >= 1"):
        parse_config_text(MINIMAL + "miner = strategy=classical count=0\n")
    with pytest.raises(ConfigError, match="only applies to solving miners"):
        parse_config_text(MINIMAL + "miner = strategy=classical "
                                    "solver_steps_per_second=50\n")


def test_miner_cap_admits_exactly_the_cap():
    cfg = parse_config_text(MINIMAL + "miner = strategy=classical count="
                            f"{MAX_MINERS - 1}\nminer = strategy=classical\n")
    assert len(cfg.miners) == MAX_MINERS


def test_repeated_miner_lines_share_one_spec():
    # A rendered config lists its miners one per line; each distinct line
    # is parsed, and its spec built, once.
    stock = parse_config_text("policy = v2\nseed = 1\n")
    cfg = parse_config_text(render_config(stock))
    assert cfg == stock
    classical, solvers = cfg.miners[:10], cfg.miners[10:]
    assert all(m is classical[0] for m in classical)
    assert all(m is solvers[0] for m in solvers)
    assert classical[0] is not solvers[0]
    line = "miner = strategy=classical hashrate=5\n"
    a, b, c = parse_config_text(MINIMAL + line + "miner = strategy=classical "
                                "hashrate=5 count=1\n" + line).miners
    assert a is c and a == b and a is not b


@pytest.mark.parametrize("line, message", [
    ("miner = strategy=classical hashrate=x",
     "line 4: bad numeric miner attribute"),
    ("miner = strategy=alchemist", "line 4: unknown strategy 'alchemist'"),
])
def test_a_repeated_bad_miner_line_names_its_first_line(line, message):
    text = MINIMAL + "miner = strategy=classical\n" + f"{line}\n" * 3
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config_text(text)


def test_render_parse_round_trip():
    shipped = sorted(CONFIG_DIR.glob("*.cfg"))
    assert shipped
    for text in [MINIMAL, FULL] + [p.read_text() for p in shipped]:
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


def test_csv_rows_match_column_wise_rendering(tmp_path):
    # records_to_csv formats a row at a time with '%.17g' and '%s'; its
    # bytes must be those of format(v, '.17g') for floats and str for the
    # rest, applied column by column.
    big = 12345678901234567890
    records = [
        SimRecord(0, 5e-324, "classical", big, sys.float_info.max, 0.1,
                  1, 0, 1, 0),
        SimRecord(1, 1 / 3, "solution", 7, 4.9999999999999991, 5e-324,
                  big, big, 1, 1),
        SimRecord(2, sys.float_info.max, "classical", 0, 1 / 3, 0.1, 2, 1,
                  2, big),
    ]
    columns = [[format(v, ".17g") if isinstance(v, float) else str(v)
                for v in column] for column in zip(*records)]
    old = "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"
    assert records_to_csv(records) == old
    path = tmp_path / "records.csv"
    write_records(records, path)
    assert read_records(path) == records


def test_round_trip_preserves_floats_exactly(tmp_path):
    records = sample_records()
    for fmt in ("csv", "jsonl"):
        path = tmp_path / f"records.{fmt}"
        write_records(records, path, fmt=fmt)
        assert read_records(path) == records


def test_simulated_records_round_trip(tmp_path):
    records = simulate(SimConfig(policy="v2", seed=2, max_blocks=80)).records
    copies = []
    for fmt in ("csv", "jsonl"):
        path = tmp_path / f"records.{fmt}"
        write_records(records, path, fmt=fmt)
        copies.append(read_records(path))
    cell = SweepCell("v2", 0, 0, 2, 0.5, tuple(records))
    copies.append(list(pickle.loads(pickle.dumps(cell)).records))
    for copy in copies:
        assert copy == records
        assert all(type(r) is SimRecord for r in copy)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_read_records_share_each_repeated_value(tmp_path, fmt):
    records = simulate(SimConfig(policy="v2", seed=2, max_blocks=300)).records
    path = tmp_path / f"records.{fmt}"
    write_records(records, path, fmt=fmt)
    back = read_records(path)
    assert back == records
    for field in ("kind", "d_b", "d_r"):
        values = [getattr(r, field) for r in back]
        assert len(set(values)) < len(values) / 3, field
        assert len(set(map(id, values))) == len(set(values)), field


def test_write_records_guards(tmp_path):
    with pytest.raises(ValueError):
        write_records([], tmp_path / "none.csv")
    with pytest.raises(ValueError):
        write_records(sample_records(), tmp_path / "x.bin", fmt="bin")


def test_a_stream_that_fails_leaves_the_older_file(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("an older run\n")

    def run():
        yield from _many_records(CHUNK + 1)
        raise ConfigError("height 1025: block time overflows")

    with pytest.raises(ConfigError):
        write_records(run(), path)
    assert path.read_text() == "an older run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]


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


def test_csv_rows_are_checked_one_by_one(tmp_path):
    # Moving one field from the head of a row to the end of the one before
    # leaves the joined values of a valid file; each row must still have
    # every field.
    header, first, second = records_to_csv(sample_records()).splitlines()
    height, rest = second.split(",", 1)
    long_row = f"{first},{height}"
    path = tmp_path / "shifted.csv"
    path.write_text("\n".join([header, long_row, rest]) + "\n")
    with pytest.raises(ReplayError, match="a row needs 10 fields") as exc:
        read_records(path)
    assert repr(long_row) in str(exc.value)


def test_bad_csv_value_names_its_line(tmp_path):
    lines = records_to_csv(sample_records()).splitlines()
    lines[2] = lines[2].replace(",11,", ",eleven,")
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReplayError, match="invalid literal") as exc:
        read_records(path)
    assert repr(lines[2]) in str(exc.value)


def _jsonl_with(tmp_path, **changes):
    """A 5-block bitcoin run as JSONL, with record 1's fields changed."""
    records = simulate(SimConfig(policy="bitcoin", seed=1,
                                 max_blocks=5)).records
    path = tmp_path / "records.jsonl"
    write_records(records, path, fmt="jsonl")
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), **changes})
    path.write_text("\n".join(lines) + "\n")
    return path, lines[1]


@pytest.mark.parametrize("changes", [
    {"height": 1.9, "miner_id": True, "best_score": 1.5},
    {"height": 1.0},
    {"miner_id": True},
    {"best_score": "1"},
    {"kind": 1},
    {"d_b": True},
    {"sim_time": "0.5"},
], ids=["fraction-bool-fraction", "int-as-float", "bool-as-int",
        "string-as-int", "int-as-string", "bool-as-float", "string-as-float"])
def test_jsonl_values_must_have_their_field_type(tmp_path, changes):
    path, line = _jsonl_with(tmp_path, **changes)
    with pytest.raises(ReplayError, match="must be") as exc:
        read_records(path)
    assert repr(line) in str(exc.value)


def test_jsonl_rows_hold_only_the_record_fields(tmp_path):
    path, line = _jsonl_with(tmp_path, witness=[1, 2, 3])
    with pytest.raises(ReplayError, match="exactly the 10 record") as exc:
        read_records(path)
    assert repr(line) in str(exc.value)


def test_jsonl_rows_refuse_a_repeated_key(tmp_path):
    # json.loads would keep the last of the two heights, and the row
    # still has ten distinct keys.
    path, _ = _jsonl_with(tmp_path)
    lines = path.read_text().splitlines()
    lines[0] = '{"height":7,' + lines[0][1:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReplayError, match="repeated key 'height'") as exc:
        read_records(path)
    assert repr(lines[0]) in str(exc.value)


def test_jsonl_float_fields_take_any_json_number(tmp_path):
    path, _ = _jsonl_with(tmp_path, d_b=1000, d_r=2)
    record = read_records(path)[1]
    assert (record.d_b, record.d_r) == (1000.0, 2.0)
    assert type(record.d_b) is float and type(record.d_r) is float
    # 0.0 == -0.0 == 0, yet each zero of one column keeps its own sign.
    zeros = [-0.0, 0.0, 0, -0.0, 0.0]
    lines = path.read_text().splitlines()
    path.write_text("".join(json.dumps({**json.loads(line), "d_r": z}) + "\n"
                            for line, z in zip(lines, zeros)))
    d_r = [r.d_r for r in read_records(path)]
    assert [math.copysign(1, v) for v in d_r] == [-1, 1, 1, -1, 1]
    assert {type(v) for v in d_r} == {float}


# ---------------------------------------------------------------------------
# Chunked record files
# ---------------------------------------------------------------------------

def _many_records(n: int) -> list[SimRecord]:
    """n records with full-precision floats (not a valid chain)."""
    rng = random.Random(n)
    return [SimRecord(h, (h + rng.random()) / 3,
                      ("classical", "solution")[h % 2], rng.randrange(20),
                      1000 * rng.random(), rng.random(), h % 9, h // 100,
                      h + 1, h // 2)
            for h in range(n)]


_RENDERERS = {"csv": records_to_csv, "jsonl": records_to_jsonl}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_chunked_files_are_the_whole_rendering(tmp_path, n, fmt):
    assert CHUNK == 1024  # the sizes sit on either side of chunk edges
    records = _many_records(n)
    path = tmp_path / f"records.{fmt}"
    write_records(records, path, fmt=fmt)
    assert path.read_bytes() == _RENDERERS[fmt](records).encode()
    assert read_records(path) == records


def _csv_bad_value(line):
    fields = line.split(",")
    fields[4] = "x"
    return ",".join(fields)


def _jsonl_bad_value(line):
    return json.dumps({**json.loads(line), "d_b": "x"})


def _jsonl_short(line):
    row = json.loads(line)
    del row["cum_solution"]
    return json.dumps(row)


# (format, fault, why): each fault is the first bad line of its file.
_CHUNK_FAULTS = [
    ("csv", _csv_bad_value,
     "ValueError: could not convert string to float: 'x'"),
    ("csv", lambda line: line.rsplit(",", 1)[0],
     "ValueError: a row needs 10 fields"),
    ("jsonl", _jsonl_bad_value, "TypeError: d_b must be a JSON number"),
    ("jsonl", _jsonl_short, "KeyError: 'cum_solution'"),
]


@pytest.mark.parametrize("row", [1025, 2100], ids=["chunk2-first", "chunk3"])
@pytest.mark.parametrize("fmt, fault, why", _CHUNK_FAULTS,
                         ids=["csv-value", "csv-short", "jsonl-value",
                              "jsonl-short"])
def test_first_bad_line_is_named_past_the_first_chunk(tmp_path, row, fmt,
                                                      fault, why):
    path = tmp_path / f"records.{fmt}"
    write_records(_many_records(2200), path, fmt=fmt)
    lines = path.read_text().splitlines()
    # Data row r is line r of a JSONL file and line r + 1 of a CSV one.
    first = row - 1 if fmt == "jsonl" else row
    lines[first] = fault(lines[first])
    lines[-1] = fault(lines[-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReplayError) as exc:
        read_records(path)
    assert str(exc.value) == f"{path}: bad record {lines[first]!r} ({why})"


_FIELD_TYPES = {"height": int, "sim_time": float, "kind": str,
                "miner_id": int, "d_b": float, "d_r": float,
                "best_score": int, "problem_epoch": int,
                "cum_classical": int, "cum_solution": int}


def _reference_object(pairs):
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ValueError(f"repeated key {key!r}")
    return dict(pairs)


def _reference_row(line, jsonl):
    if jsonl:
        row = json.loads(line, object_pairs_hook=_reference_object)
        values = [row[field] for field in _FIELD_TYPES]
        if len(row) != 10:
            raise ValueError("a row needs exactly the 10 record fields")
        for (field, kind), v in zip(_FIELD_TYPES.items(), values):
            if type(v) is not kind and (kind, type(v)) != (float, int):
                raise TypeError(f"{field} must be a JSON " + {
                    int: "integer", float: "number", str: "string"}[kind])
    else:
        values = line.split(",")
        if len(values) != 10:
            raise ValueError("a row needs 10 fields")
    return SimRecord(*(kind(v) for kind, v
                       in zip(_FIELD_TYPES.values(), values)))


def _reference_read(path):
    """The record parse restated a line at a time, one int() or float()
    per field, kept as the oracle for ``read_records``."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ReplayError(f"{path}: empty record file")
    jsonl = lines[0].startswith("{")
    if not jsonl and lines[0] != CSV_HEADER:
        raise ReplayError(f"{path}: unexpected header {lines[0]!r}")
    records = []
    for ln in lines[0 if jsonl else 1:]:
        try:
            records.append(_reference_row(ln, jsonl))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ReplayError(f"{path}: bad record {ln!r} "
                              f"({type(exc).__name__}: {exc})") from None
    return records


_FLOAT_POOL = [0.0, -0.0, math.inf, math.nan, 5e-324, 1 / 3, 5.0, 1000.0]


def _repeating_records(rng, n):
    """n records whose float columns repeat values, zeros of both signs,
    inf and nan among them (not a valid chain)."""
    return [SimRecord(h, h + rng.random() if rng.random() < 0.9
                      else rng.choice(_FLOAT_POOL),
                      rng.choice(("classical", "solution", "x")),
                      rng.randrange(20), rng.choice(_FLOAT_POOL),
                      rng.choice(_FLOAT_POOL), rng.randrange(-3, 300),
                      h // 500, rng.randrange(10 ** 20), h // 2)
            for h in range(n)]


_CSV_VALUES = ["x", "", "1.5", "-0", "0", "+0", "-0.0", "1e400", "nan",
               " 7", "1_000", "0x10", "classical"]
_JSON_VALUES = [-0.0, 0, 0.0, True, None, "1", 1.5, 10 ** 400, [1],
                {"a": 1}, 7, "solution"]


def _corrupt_line(rng, line, jsonl):
    """One seeded edit of a data line, of its value, shape or syntax."""
    roll = rng.random()
    if roll < 0.1:
        return line[:rng.randrange(len(line))]
    if roll < 0.15:
        return rng.choice(["", " ", "[1, 2]", "5", "null", '"row"', "{}"])
    if not jsonl:
        values = line.split(",")
        if roll < 0.25:
            del values[rng.randrange(len(values))]
        elif roll < 0.3:
            values.insert(rng.randrange(len(values)), "0")
        else:
            values[rng.randrange(10)] = rng.choice(_CSV_VALUES)
        return ",".join(values)
    row = json.loads(line)
    field = rng.choice(list(_FIELD_TYPES))
    if roll < 0.25:
        del row[field]
    elif roll < 0.3:
        row["witness"] = [1, 2]
    elif roll < 0.35:
        return f'{{"{field}":0,' + line[1:]
    else:
        row[field] = rng.choice(_JSON_VALUES)
    return json.dumps(row)


def _seeded_record_file(rng, path, fmt):
    """A clean, empty or corrupted records file of 1 to 2,600 rows; sizes
    and edits favour the chunk edges."""
    roll = rng.random()
    if roll < 0.05:
        path.write_text(rng.choice(["", "\n", " \n\n"]))
        return
    n = rng.choice([1, 2, 1023, 1024, 1025, 2048, 2600,
                    rng.randint(1, 2600)])
    write_records(_repeating_records(rng, n), path, fmt=fmt)
    if roll < 0.2:
        return
    lines = path.read_text().splitlines()
    edges = [i for i in (1, 1023, 1024, 1025, 1026) if i < len(lines)]
    picks = {rng.choice([rng.randrange(len(lines)), *edges])
             for _ in range(rng.randint(1, 3))}
    # From the last line up, so that each edit meets the written line.
    for i in sorted(picks, reverse=True):
        roll = rng.random()
        if roll < 0.1:
            lines.insert(i, rng.choice(["", "  ", lines[i]]))
        elif roll < 0.2 and i:
            del lines[i]
        else:
            lines[i] = _corrupt_line(rng, lines[i], fmt == "jsonl")
    path.write_text("\n".join(lines) + "\n")


def _read_outcome(read, path):
    """The message a read raises, or each record's type and each field's
    type and repr, which tells the two zeros apart."""
    try:
        records = read(path)
    except ReplayError as exc:
        return str(exc)
    return [(type(r), [(type(v), repr(v)) for v in r]) for r in records]


_READ_OUTCOMES = ("empty record file", "unexpected header", "ValueError:",
                  "TypeError:", "KeyError:", "JSONDecodeError:",
                  "OverflowError:", "repeated key", "must be a JSON",
                  "a row needs 10", "a row needs exactly")


def test_read_records_matches_the_reference_line_by_line(tmp_path):
    rng = random.Random(2029)
    messages, clean = set(), 0
    for k in range(120):
        fmt = ("csv", "jsonl")[k % 2]
        path = tmp_path / f"records{k}.{fmt}"
        _seeded_record_file(rng, path, fmt)
        want = _read_outcome(_reference_read, path)
        assert _read_outcome(read_records, path) == want, path.read_text()
        if isinstance(want, str):
            messages.add(want)
        else:
            clean += 1
    # The corpus reaches every way a read fails, and many reads succeed.
    assert [m for m in _READ_OUTCOMES
            if not any(m in message for message in messages)] == []
    assert clean >= 20


def _whole_file_outcome(path):
    """What a read of ``path`` decoded whole gives: the first non-UTF-8
    byte's message, else ``_reference_read``'s outcome."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"{path}: byte {exc.start} is not UTF-8"
    return _read_outcome(_reference_read, path)


def _edge_files(fmt):
    """Record files whose line breaks and characters land on read-block
    edges as the block size varies; each is (name, bytes)."""
    records = _many_records(6)
    text = _RENDERERS[fmt](records)
    lines = text.splitlines()
    # A kind is any string, so one with multibyte characters, written
    # raw in either format, still parses.
    kind = {"csv": ",classical,", "jsonl": '"classical"'}[fmt]
    head, _, tail = text.rpartition(kind)
    odd = head + kind.replace("classical", "cl\u00e1ssical\u2603") + tail
    bad_first = lines[:]
    bad_first[1] = "x" + bad_first[1]
    return [
        ("plain", text.encode()),
        ("crlf", "\r\n".join(lines).encode() + b"\r\n"),
        ("multibyte", odd.encode()),
        # Blank lines of multibyte spaces are skipped like any blank line.
        ("wide-blank", "\n\u3000\u00a0\n".join(lines).encode()),
        # str.splitlines also breaks at these; a read must too.
        ("ff-fs-ls", "\x0c".join(lines[:3]).encode() + b"\x1c"
         + "\u2028".join(lines[3:]).encode() + "\x85\n".encode()),
        ("no-newline", "\r".join(lines).encode()),
        ("bad-byte-late", text.encode()[:-5] + b"\xff" + text.encode()[-5:]),
        ("cut-char-at-end", text.encode() + "\u2603".encode()[:2]),
        # A bad byte ranks above a bad record before it.
        ("bad-line-then-byte", "\n".join(bad_first).encode() + b"\n\xfe\n"),
    ]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_read_blocks_split_lines_as_the_whole_file_does(tmp_path, monkeypatch,
                                                        fmt):
    files = _edge_files(fmt)
    for name, data in files:
        path = tmp_path / f"{name}.{fmt}"
        path.write_bytes(data)
        want = _whole_file_outcome(path)
        # Small chunks parse lines before the rest of the file is read.
        for block, chunk in product(
                [*range(1, 40), len(data) - 1, len(data), 1 << 16],
                [1, 2, CHUNK]):
            monkeypatch.setattr(io, "BLOCK", block)
            monkeypatch.setattr(io, "CHUNK", chunk)
            assert _read_outcome(read_records, path) == want, (name, block,
                                                               chunk)
    outcomes = {name: _whole_file_outcome(tmp_path / f"{name}.{fmt}")
                for name, _ in files}
    assert [n for n, o in outcomes.items() if isinstance(o, str)] == [
        "bad-byte-late", "cut-char-at-end", "bad-line-then-byte"]


def test_a_line_of_many_blocks_is_read_in_linear_time(tmp_path,
                                                     monkeypatch):
    # A 1 MB line with no newline spans 62,500 blocks of 16 bytes; its
    # pieces are joined once, not once a block.
    path = tmp_path / "records.csv"
    path.write_text(CSV_HEADER + "\n" + "0," * 500_000)
    monkeypatch.setattr(io, "BLOCK", 16)
    start = time.perf_counter()
    with pytest.raises(ReplayError, match="bad record '0,0,"):
        read_records(path)
    assert time.perf_counter() - start < 0.5


def test_record_files_move_a_chunk_at_a_time(tmp_path):
    # The peak Python allocation beside the records. On Python 3.11, this
    # 1.8 MB file read whole peaked 15.1 MB above the returned list, and
    # written whole 4.8 MB; a chunk at a time, 3.4 MB and 0.4 MB; read a
    # block at a time as well, 1.1 MB and 0.3 MB.
    records = _many_records(20_000)
    path = tmp_path / "records.csv"
    tracemalloc.start()
    try:
        write_records(records, path)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = read_records(path)
        held, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == records
    assert write_peak <= 1e6
    assert read_peak - held <= 5e6


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
        out[i] = out[i]._replace(**changes)
        return i, out

    solution_idx = next(i for i, r in enumerate(records)
                        if r.kind == "solution")
    cases = [
        corrupt(0, sim_time=-0.5),                      # times start above 0
        corrupt(0, sim_time=0.0),
        corrupt(0, height=1),                           # heights start at 0
        corrupt(5, height=7),
        corrupt(5, sim_time=records[4].sim_time),
        corrupt(5, sim_time=records[4].sim_time - 0.01),
        corrupt(5, d_r=0.0),
        corrupt(5, kind="mystery"),
        corrupt(5, problem_epoch=99),
        corrupt(solution_idx, best_score=1),            # no improvement
        corrupt(solution_idx, best_score=1000),         # exceeds graph size
        corrupt(5, cum_classical=records[5].cum_classical + 1),
    ]
    if records[5].kind == "classical":
        cases.append(corrupt(5, best_score=records[5].best_score + 1))
    for i, bad in cases:
        # The message names the height the corrupted record carries.
        with pytest.raises(ReplayError, match=f"^height {bad[i].height}: "):
            verify_record_stream(bad, graphs)
    with pytest.raises(ReplayError):
        verify_record_stream([], graphs)
    verify_record_stream(records, graphs)               # original still fine
    verify_record_stream(corrupt(0, sim_time=5e-324)[1], graphs)  # above 0

    # Epochs start at 0 and rise by at most one a block; the last block may
    # have swapped in one more graph, but no more.
    res = simulate(SimConfig(policy="bitcoin", seed=3, max_blocks=400))
    records, graphs = res.records, res.graphs
    assert records[-1].problem_epoch == 7 and len(graphs) == 9
    verify_record_stream(records, graphs)

    def relabel(new_epoch):
        return [r._replace(problem_epoch=new_epoch(r.problem_epoch))
                for r in records]

    for bad in (relabel(lambda e: max(e, 1)),             # starts at 1
                relabel(lambda e: e + 1 if e >= 3 else e)):  # 2 jumps to 4
        with pytest.raises(ReplayError, match="does not follow"):
            verify_record_stream(bad, graphs)
    with pytest.raises(ReplayError, match="10 graphs for 8 epochs"):
        verify_record_stream(records, graphs + graphs[:1])


def _reference_verify(records, graphs):
    """The stream check as a per-epoch dict of best scores with running
    counters, kept as the oracle for ``verify_record_stream``."""
    def fault(r, why):
        return ReplayError(f"height {r.height}: {why}")

    if not records:
        raise ReplayError("no records to verify")
    best = {}
    prev_time = 0.0
    prev_epoch = 0
    cum_c = cum_s = 0
    for r in records:
        if r.height != cum_c + cum_s:
            raise fault(r, "heights must be consecutive from 0")
        if not prev_time < r.sim_time < math.inf:
            raise fault(r, "sim_time does not increase to a finite time")
        if not (0 < r.d_b < math.inf and 0 < r.d_r < math.inf):
            raise fault(r, "difficulty is not finite and positive")
        if r.kind not in ("classical", "solution"):
            raise fault(r, f"unknown kind {r.kind!r}")
        if r.problem_epoch != prev_epoch and (
                r.problem_epoch != prev_epoch + 1 or not r.height):
            raise fault(r, f"epoch does not follow {prev_epoch}")
        if r.problem_epoch >= len(graphs):
            raise fault(r, f"no graph for epoch {r.problem_epoch}")
        epoch_best = best.get(r.problem_epoch, INITIAL_BEST_SCORE)
        if r.kind == "solution":
            cum_s += 1
            if r.best_score <= epoch_best:
                raise fault(r, f"solution score {r.best_score} does not "
                               f"beat {epoch_best}")
            if r.best_score > graphs[r.problem_epoch].n:
                raise fault(r, "score exceeds graph size")
            best[r.problem_epoch] = r.best_score
        else:
            cum_c += 1
            if r.best_score != epoch_best:
                raise fault(r, "classical block moved best score")
        if r.cum_classical != cum_c or r.cum_solution != cum_s:
            raise fault(r, "cumulative counters inconsistent")
        prev_time = r.sim_time
        prev_epoch = r.problem_epoch
    if len(graphs) > prev_epoch + 2:
        raise ReplayError(f"{len(graphs)} graphs for {prev_epoch + 1} epochs")


def _edit(rng, records, i, graph_n):
    """Record i with one field set to a value that may break a check."""
    r = records[i]
    before = records[i - 1].sim_time if i else 0.0
    after = records[i + 1].sim_time if i + 1 < len(records) else math.inf
    other = "classical" if r.kind == "solution" else "solution"
    choices = {
        "height": [r.height - 1, r.height + 1, 0],
        "sim_time": [0.0, before, after, math.nan, math.inf],
        "kind": ["mystery", other],
        "miner_id": [r.miner_id + 1],
        "d_b": [0.0, -r.d_b, math.inf, math.nan, 2 * r.d_b],
        "d_r": [0.0, -r.d_r, math.inf, math.nan, 2 * r.d_r],
        "best_score": [r.best_score - 1, r.best_score + 1, 0, graph_n,
                       graph_n + 1],
        "problem_epoch": [r.problem_epoch - 1, r.problem_epoch + 1,
                          r.problem_epoch + 2, 0],
        "cum_classical": [r.cum_classical - 1, r.cum_classical + 1],
        "cum_solution": [r.cum_solution - 1, r.cum_solution + 1],
    }
    field = rng.choice(sorted(choices))
    return r._replace(**{field: rng.choice(choices[field])})


def _corrupt(rng, records, graph_n):
    """A seeded corruption: one to three field edits, most of them on one
    record so that the order of checks within a record shows, or a
    truncation."""
    out = list(records)
    roll = rng.random()
    if roll < 0.1:
        return out[:rng.randrange(len(out) + 1)]
    if roll < 0.15:
        return out[rng.randrange(1, len(out)):]
    if roll < 0.2:
        del out[rng.randrange(len(out))]
        return out
    solutions = [i for i, r in enumerate(out) if r.kind == "solution"]
    for k in range(rng.randint(1, 3)):
        if not k or rng.random() < 0.2:
            i = rng.choice(solutions if solutions and rng.random() < 0.3
                           else range(len(out)))
        out[i] = _edit(rng, out, i, graph_n)
    return out


def _outcome(verify, records, graphs):
    try:
        verify(records, graphs)
    except ReplayError as exc:
        return str(exc)
    return "ok"


_CHECKS = ("ok", "no records", "heights must", "sim_time does not",
           "difficulty is not", "unknown kind", "epoch does not follow",
           "no graph for epoch", "does not beat", "exceeds graph size",
           "classical block moved", "cumulative counters", "graphs for")


def test_verify_matches_the_reference_record_by_record():
    rng = random.Random(2019)
    outcomes = set()
    for policy in ("bitcoin", "v1", "v2"):
        for window in (0, 10, 50):
            res = simulate(SimConfig(policy=policy, seed=5, max_blocks=80,
                                     saturation_window=window, graph_n=20))
            graphs = res.graphs
            graph_lists = [graphs[:0], graphs[:1], graphs,
                           graphs + graphs[-1:], graphs + graphs[-1:] * 2]
            streams = [res.records, []] + [_corrupt(rng, res.records, 20)
                                           for _ in range(240)]
            for records in streams:
                for some in graph_lists:
                    want = _outcome(_reference_verify, records, some)
                    assert _outcome(verify_record_stream, records,
                                    some) == want, (policy, window, records)
                    outcomes.add(want)
    # The corpus reaches every check, and the clean runs pass.
    assert [c for c in _CHECKS if not any(c in o for o in outcomes)] == []
