"""Config files, record serialization, manifests, and replay checks.

The config format is deliberately flat: one ``key = value`` per line, every
simulation parameter under its own greppable name, `#` comments.  Miners
are the one repeatable key::

    policy = v2
    seed = 7
    miner = strategy=classical hashrate=1000 count=10
    miner = strategy=solver hashrate=1000 solver_steps_per_second=200

Records serialize to CSV (fixed header, floats at 17 significant digits)
or JSONL with the same fields; both round-trip exactly.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass

from .clique import INITIAL_BEST_SCORE, Graph
from .engine import (
    DEFAULT_HASHRATE,
    DEFAULT_SOLVER_STEPS_PER_SECOND,
    FLOAT_FIELDS,
    ConfigError,
    MinerSpec,
    SimConfig,
    SimRecord,
    Strategy,
)

# The record schema is SimRecord's: its fields, in order, are the columns,
# and each field's type parses its column back.
RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(SimRecord))
_RECORD_TYPES = tuple(typing.get_type_hints(SimRecord)[f]
                      for f in RECORD_FIELDS)
CSV_HEADER = ",".join(RECORD_FIELDS)

_INT_KEYS = ("seed", "n1", "n2_classical", "n2_solution", "graph_n",
             "max_blocks", "saturation_window")
_MINER_ATTRS = ("strategy", "hashrate", "solver_steps_per_second",
                "hoard_target", "count")


class ParseError(ConfigError):
    """Config text is syntactically broken or a value fails to parse."""


class UnknownKey(ConfigError):
    """Config text names a key this simulator does not define."""


class ValidationError(ConfigError):
    """Config parsed fine but the values violate a constraint."""


class ReplayError(Exception):
    """A recorded run fails re-validation."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _parse_scalar(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in FLOAT_FIELDS:
            return float(raw)
    except ValueError:
        raise ParseError(f"bad value for {key}: {raw!r}") from None
    return raw


def _parse_miner_entry(raw: str, lineno: int) -> tuple[dict, int]:
    attrs: dict = {}
    for token in raw.split():
        if "=" not in token:
            raise ParseError(
                f"line {lineno}: miner attribute {token!r} needs key=value")
        key, _, value = token.partition("=")
        if key not in _MINER_ATTRS:
            raise UnknownKey(f"line {lineno}: unknown miner attribute {key!r}")
        if key in attrs:
            raise ParseError(f"line {lineno}: duplicate miner attribute "
                             f"{key!r}")
        attrs[key] = value
    if "strategy" not in attrs:
        raise ParseError(f"line {lineno}: miner entry needs a strategy")
    try:
        strategy = Strategy(attrs["strategy"])
    except ValueError:
        raise ValidationError(
            f"line {lineno}: unknown strategy {attrs['strategy']!r}") from None
    try:
        hashrate = float(attrs.get("hashrate", DEFAULT_HASHRATE))
        count = int(attrs.get("count", 1))
        steps_default = (DEFAULT_SOLVER_STEPS_PER_SECOND
                         if strategy is not Strategy.CLASSICAL else 0.0)
        steps = float(attrs.get("solver_steps_per_second", steps_default))
        hoard = (int(attrs["hoard_target"]) if "hoard_target" in attrs
                 else None)
    except ValueError:
        raise ParseError(f"line {lineno}: bad numeric miner attribute") from None
    if count < 1:
        raise ValidationError(f"line {lineno}: miner count must be >= 1")
    return ({"strategy": strategy, "hashrate": hashrate,
             "solver_steps_per_second": steps, "hoard_target": hoard},
            count)


def parse_config_text(text: str) -> SimConfig:
    """Parse flat config text into a resolved SimConfig."""
    scalars: dict = {}
    miner_entries: list[tuple[dict, int]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', "
                             f"got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "miner":
            miner_entries.append(_parse_miner_entry(value, lineno))
            continue
        if key not in ("policy",) + _INT_KEYS + FLOAT_FIELDS:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        if key in scalars:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ParseError(f"line {lineno}: key {key!r} has no value")
        scalars[key] = _parse_scalar(key, value)

    if "policy" not in scalars:
        raise ValidationError("config must set a policy")
    if "seed" not in scalars:
        raise ValidationError("config must set a seed")

    specs: list[MinerSpec] = []
    try:
        for attrs, count in miner_entries:
            for _ in range(count):
                specs.append(MinerSpec(id=len(specs), **attrs))
        config = SimConfig(miners=tuple(specs), **scalars)
        return config.resolve()
    except ValidationError:
        raise
    except ConfigError as exc:
        raise ValidationError(str(exc)) from None


def parse_config(path) -> SimConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    return parse_config_text(text)


def render_config(config: SimConfig) -> str:
    """Canonical flat rendering of a resolved config; parses back equal."""
    cfg = config.resolve()
    lines = [f"policy = {cfg.policy}"]
    for key in _INT_KEYS:
        lines.append(f"{key} = {getattr(cfg, key)}")
    for key in FLOAT_FIELDS:
        lines.append(f"{key} = {format(getattr(cfg, key), '.17g')}")
    for spec in cfg.miners:
        parts = [f"strategy={spec.strategy.value}",
                 f"hashrate={format(spec.hashrate, '.17g')}"]
        if spec.strategy is not Strategy.CLASSICAL:
            parts.append("solver_steps_per_second="
                         f"{format(spec.solver_steps_per_second, '.17g')}")
        if spec.hoard_target is not None:
            parts.append(f"hoard_target={spec.hoard_target}")
        lines.append("miner = " + " ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Record serialization
# ---------------------------------------------------------------------------

def format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def records_to_csv(records: list[SimRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(format_value(getattr(r, f))
                              for f in RECORD_FIELDS))
    return "\n".join(lines) + "\n"


def records_to_jsonl(records: list[SimRecord]) -> str:
    lines = []
    for r in records:
        obj = {f: getattr(r, f) for f in RECORD_FIELDS}
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def write_records(records: list[SimRecord], path, fmt: str = "csv") -> None:
    if not records:
        raise ValueError("refusing to write an empty record list")
    if fmt == "csv":
        text = records_to_csv(records)
    elif fmt == "jsonl":
        text = records_to_jsonl(records)
    else:
        raise ValueError(f"unknown record format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_records(path) -> list[SimRecord]:
    """Read records back from either serialization (sniffed, not by
    extension)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise ReplayError(f"{path}: {exc.strerror}") from None
    if not lines:
        raise ReplayError(f"{path}: empty record file")
    jsonl = lines[0].startswith("{")
    if not jsonl and lines[0] != CSV_HEADER:
        raise ReplayError(f"{path}: unexpected header {lines[0]!r}")
    records = []
    for ln in lines if jsonl else lines[1:]:
        try:
            if jsonl:
                obj = json.loads(ln)
                values = [obj[f] for f in RECORD_FIELDS]
            else:
                values = ln.split(",")
                if len(values) != len(RECORD_FIELDS):
                    raise ReplayError(f"{path}: bad row {ln!r}")
            records.append(SimRecord(*[parse(v) for parse, v
                                       in zip(_RECORD_TYPES, values)]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplayError(f"{path}: bad record {ln!r} "
                              f"({type(exc).__name__}: {exc})") from None
    return records


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run byte for byte.

    ``config_text`` is the canonical rendering of the fully resolved
    config; feeding it back through ``simulate`` regenerates identical
    output files.  Wall-clock times are informational only.
    """

    version: str
    command: str
    seed: int
    config_text: str
    outputs: dict
    started_utc: str
    finished_utc: str


def write_manifest(manifest: RunManifest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> RunManifest:
    with open(path, encoding="utf-8") as fh:
        return RunManifest(**json.load(fh))


# ---------------------------------------------------------------------------
# Replay verification
# ---------------------------------------------------------------------------

def verify_record_stream(records: list[SimRecord],
                         graphs: list[Graph]) -> None:
    """Re-validate a recorded chain against its problem graphs.

    Checks the structural invariants a chain must satisfy: consecutive
    heights, strictly increasing times, positive difficulties, the
    classical/solution partition, monotone epochs, and strictly improving
    per-epoch scores bounded by the epoch's graph size.  Raises ReplayError
    on the first violation.  (Solution vertices are validated at append
    time; the record schema stores only scores.)
    """
    if not records:
        raise ReplayError("no records to verify")
    best: dict[int, int] = {}
    prev_time = -1.0
    prev_epoch = 0
    cum_c = cum_s = 0
    for r in records:
        where = f"height {r.height}"
        if r.height != cum_c + cum_s:
            raise ReplayError(f"{where}: heights must be consecutive from 0")
        if r.sim_time <= prev_time:
            raise ReplayError(f"{where}: sim_time does not increase")
        if r.d_b <= 0 or r.d_r <= 0:
            raise ReplayError(f"{where}: non-positive difficulty")
        if r.kind not in ("classical", "solution"):
            raise ReplayError(f"{where}: unknown kind {r.kind!r}")
        if r.problem_epoch < prev_epoch:
            raise ReplayError(f"{where}: problem_epoch went backwards")
        if r.problem_epoch >= len(graphs):
            raise ReplayError(f"{where}: no graph for epoch "
                              f"{r.problem_epoch}")
        epoch_best = best.get(r.problem_epoch, INITIAL_BEST_SCORE)
        if r.kind == "solution":
            cum_s += 1
            if r.best_score <= epoch_best:
                raise ReplayError(
                    f"{where}: solution score {r.best_score} does not beat "
                    f"{epoch_best}")
            if r.best_score > graphs[r.problem_epoch].n:
                raise ReplayError(f"{where}: score exceeds graph size")
            best[r.problem_epoch] = r.best_score
        else:
            cum_c += 1
            if r.best_score != epoch_best:
                raise ReplayError(
                    f"{where}: classical block moved best score")
        if r.cum_classical != cum_c or r.cum_solution != cum_s:
            raise ReplayError(f"{where}: cumulative counters inconsistent")
        prev_time = r.sim_time
        prev_epoch = r.problem_epoch
