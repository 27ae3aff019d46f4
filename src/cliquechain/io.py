"""Every file a run writes: configs, records, graph edge lists and
manifests, plus the replay checks that read them back.

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
import os
import re
import typing
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from math import inf
from operator import itemgetter

import numpy as np

from . import clique
from .clique import INITIAL_BEST_SCORE, Graph
from .engine import (
    FLOAT_FIELDS,
    RECORD_TYPES,
    ConfigError,
    MinerSpec,
    SimConfig,
    SimRecord,
    Strategy,
    records_from_columns,
    solving_miners,
)

# The record schema is SimRecord's: its fields, in order, are the columns,
# and each field's type parses its column back.
RECORD_FIELDS = SimRecord._fields
CSV_HEADER = ",".join(RECORD_FIELDS)
_CSV_LINE = ",".join("%.17g" if k is float else "%s"
                     for k in RECORD_TYPES) + "\n"
_JSON_ROW = json.JSONEncoder(separators=(",", ":")).encode
# Record files are written and parsed this many records at a time, so
# that only one chunk's rendered rows or parsed columns exist at once.
CHUNK = 1024
# Every file is read in pieces of whole lines about this many bytes long.
BLOCK = 1 << 16

# The int-valued config keys, in SimConfig field order.
_INT_KEYS = tuple(name for name, kind
                  in typing.get_type_hints(SimConfig).items() if kind is int)
# The numeric miner attributes and their types; MinerSpec fills in those a
# miner line leaves out.
_MINER_NUMBERS = {"hashrate": float, "solver_steps_per_second": float,
                  "hoard_target": int, "count": int}
# The most miners a config may list, counts summed.  Each miner costs
# memory in every block's race, so a larger population is refused before
# any of its specs is built.
MAX_MINERS = 100_000


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
        raise ConfigError(f"bad value for {key}: {raw!r}") from None
    return raw


def _parse_miner_entry(raw: str, lineno: int) -> tuple[dict, int]:
    attrs: dict = {}
    for token in raw.split():
        if "=" not in token:
            raise ConfigError(
                f"line {lineno}: miner attribute {token!r} needs key=value")
        key, _, value = token.partition("=")
        if key != "strategy" and key not in _MINER_NUMBERS:
            raise ConfigError(
                f"line {lineno}: unknown miner attribute {key!r}")
        if key in attrs:
            raise ConfigError(f"line {lineno}: duplicate miner attribute "
                              f"{key!r}")
        attrs[key] = value
    if "strategy" not in attrs:
        raise ConfigError(f"line {lineno}: miner entry needs a strategy")
    try:
        attrs["strategy"] = Strategy(attrs["strategy"])
    except ValueError:
        raise ConfigError(
            f"line {lineno}: unknown strategy {attrs['strategy']!r}") from None
    try:
        for key, kind in _MINER_NUMBERS.items():
            if key in attrs:
                attrs[key] = kind(attrs[key])
    except ValueError:
        raise ConfigError(
            f"line {lineno}: bad numeric miner attribute") from None
    count = attrs.pop("count", 1)
    if count < 1:
        raise ConfigError(f"line {lineno}: miner count must be >= 1")
    return attrs, count


def parse_config_text(text: str) -> SimConfig:
    """Parse flat config text into a SimConfig."""
    scalars: dict = {}
    # Each distinct miner value, parsed once, and every miner line's value:
    # a rendered config lists its miners one per line.
    entries: dict[str, tuple[dict, int]] = {}
    miner_values: list[str] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "miner":
            if value not in entries:
                entries[value] = _parse_miner_entry(value, lineno)
            miner_values.append(value)
            continue
        if key not in ("policy",) + _INT_KEYS + FLOAT_FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in scalars:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        scalars[key] = _parse_scalar(key, value)

    if "policy" not in scalars:
        raise ConfigError("config must set a policy")
    if "seed" not in scalars:
        raise ConfigError("config must set a seed")

    total = sum(entries[value][1] for value in miner_values)
    if total > MAX_MINERS:
        raise ConfigError(f"{total} miners exceed the cap of {MAX_MINERS}")
    # Built in the order of first lines, so the first bad spec raises; the
    # miners of one value share its spec.
    miners_of = {value: [MinerSpec(**attrs)] * count
                 for value, (attrs, count) in entries.items()}
    specs: list[MinerSpec] = []
    for value in miner_values:
        specs += miners_of[value]
    return SimConfig(miners=tuple(specs), **scalars)


def parse_config(path) -> SimConfig:
    try:
        text = "".join(_text_blocks(path))
    except ReplayError as exc:
        raise ConfigError(str(exc)) from None
    return parse_config_text(text)


def render_config(cfg: SimConfig) -> str:
    """Canonical flat rendering of a config, defaults included; parses
    back equal."""
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

def records_to_csv(records: list[SimRecord]) -> str:
    """The header and a row per record, floats at 17 significant digits."""
    return CSV_HEADER + "\n" + "".join(map(_CSV_LINE.__mod__, records))


def records_to_jsonl(records: list[SimRecord]) -> str:
    return "\n".join([_JSON_ROW(dict(zip(RECORD_FIELDS, r)))
                      for r in records]) + "\n"


def write_records(records: typing.Iterable[SimRecord], path,
                  fmt: str = "csv") -> SimRecord:
    """Write ``records_to_csv(records)`` or ``records_to_jsonl(records)``,
    rendered CHUNK records at a time, and return the last record.

    ``records`` may be a stream, such as ``simulate``'s.  The rows go to
    ``<path>.part``, which replaces ``path`` once they are all written
    and is removed if the stream raises, so a failed run leaves any
    older file at ``path`` as it was.
    """
    render = {"csv": records_to_csv, "jsonl": records_to_jsonl}.get(fmt)
    if render is None:
        raise ValueError(f"unknown record format {fmt!r}")
    records = iter(records)
    chunk = list(islice(records, CHUNK))
    if not chunk:
        raise ValueError("refusing to write an empty record list")
    # Each CSV chunk renders the header; only the first one writes it.
    skip = len(CSV_HEADER) + 1 if fmt == "csv" else 0
    part = f"{path}.part"
    with open(part, "w", encoding="utf-8") as fh:
        try:
            fh.write(render(chunk))
            while more := list(islice(records, CHUNK)):
                chunk = more
                fh.write(render(chunk)[skip:])
        except BaseException:
            fh.close()
            os.remove(part)
            raise
    os.replace(part, path)
    return chunk[-1]


_BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError)


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object's dict, refusing a key that appears twice (a plain
    dict keeps its last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError("repeated key "
                         f"{next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


_JSON_OBJECT = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


def _text_blocks(path) -> typing.Iterator[str]:
    """Yield the text of a UTF-8 file in pieces of whole lines, about
    BLOCK bytes each: every piece but the last ends with a "\\n".  A failed
    read or a byte that is not UTF-8 raises ReplayError naming the file
    (and the byte's offset in it)."""
    try:
        with open(path, "rb") as fh:
            offset = 0
            # The bytes read since the last "\n": pieces of one line, which
            # are joined once however many reads it spans.
            tail: list[bytes] = []
            while True:
                data = fh.read(BLOCK)
                cut = data.rfind(b"\n") + 1
                if data and not cut:
                    tail.append(data)
                    continue
                # No UTF-8 character and no "\r\n" spans a "\n" byte.
                piece = b"".join([*tail, memoryview(data)[:cut]])
                if not piece:
                    return
                tail = [data[cut:]]
                try:
                    text = piece.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ReplayError(f"{path}: byte {offset + exc.start} "
                                      "is not UTF-8") from None
                yield text
                offset += len(piece)
    except OSError as exc:
        raise ReplayError(f"{path}: {exc.strerror}") from None


def read_records(path) -> typing.Iterator[list[SimRecord]]:
    """Yield the records of a file in either serialization (sniffed, not
    by extension) CHUNK at a time, reading it a block at a time.

    Lines break where ``str.splitlines`` breaks them; blank lines are
    skipped.  Faults raise ReplayError, ranked as if the file were read
    whole before any line is parsed: a byte that is not UTF-8, then an
    empty file, a bad header or the first bad record.  So once a line is
    refused, the rest of the file is still decoded before it is named.
    """
    blocks = _text_blocks(path)
    lines: list[str] = []  # the nonblank lines not yet parsed
    jsonl = None
    try:
        for text in blocks:
            lines += filter(str.strip, text.splitlines())
            if jsonl is None and lines:
                jsonl = lines[0].startswith("{")
                if not jsonl and (head := lines.pop(0)) != CSV_HEADER:
                    raise ReplayError(f"{path}: unexpected header {head!r}")
            while len(lines) >= CHUNK:
                yield _parse(path, lines[:CHUNK], jsonl)
                del lines[:CHUNK]
        if jsonl is None:
            raise ReplayError(f"{path}: empty record file")
        if lines:
            yield _parse(path, lines, jsonl)
    except ReplayError:
        for _ in blocks:  # a bad byte further on ranks first
            pass
        raise


def _parse(path, lines: list[str], jsonl: bool) -> list[SimRecord]:
    """Parse nonempty body lines; a bad one raises ReplayError naming the
    first."""
    try:
        return _records(lines, jsonl)
    except _BAD_VALUE:
        for ln in lines:  # only a bad chunk pays for finding its bad line
            try:
                _records([ln], jsonl)
            except _BAD_VALUE as exc:
                raise ReplayError(
                    f"{path}: bad record {ln!r} "
                    f"({type(exc).__name__}: {exc})") from None
        raise


def _records(lines: list[str], jsonl: bool) -> list[SimRecord]:
    """Parse nonempty body lines one column at a time."""
    width = len(RECORD_FIELDS)
    if jsonl:
        rows = list(map(_JSON_OBJECT, lines))
        columns = list(zip(*map(itemgetter(*RECORD_FIELDS), rows)))
        # Every field is there, so the length rules out any other key.
        if set(map(len, rows)) != {width}:
            raise ValueError(f"a row needs exactly the {width} record fields")
        for field, kind, column in zip(RECORD_FIELDS, RECORD_TYPES, columns):
            # A bool is not an int; a float field takes any JSON number.
            if set(map(type, column)) - {kind, int if kind is float else kind}:
                raise TypeError(f"{field} must be a JSON " + {
                    int: "integer", float: "number", str: "string"}[kind])
    else:
        # Per line, so that a long row cannot make up for a short one.
        if set(map(str.count, lines, repeat(","))) != {width - 1}:
            raise ValueError(f"a row needs {width} fields")
        values = ",".join(lines).split(",")
        columns = [values[i::width] for i in range(width)]
    return records_from_columns(columns)


# ---------------------------------------------------------------------------
# Graph edge lists
# ---------------------------------------------------------------------------

def graph_to_edge_list(graph: Graph) -> str:
    """Render one graph as an edge-list section.

    Header line is "n m seed p", then one "u v" pair per line, 0-indexed,
    u < v, in (u, v) order: the text ``read_graphs`` matches before parsing.
    """
    head = (f"{graph.n} {graph.num_edges} {graph.seed} "
            f"{format(graph.edge_prob, '.17g')}")
    return head + "\n" + _edge_text(graph)


def _edge_text(graph: Graph) -> str:
    """The "u v\n" line of each of ``graph``'s edges, in (u, v) order."""
    bits = clique._unpack(graph.n, graph.edges)
    labels = _pair_labels(graph.n)[bits]
    return labels.tobytes().translate(None, b"\0").decode("ascii")


@lru_cache(maxsize=1)  # a run's graphs all share one n
def _pair_labels(n: int) -> np.ndarray:
    """The "u v\n" label of each pair u < v, in ``clique._upper(n)`` order,
    as fixed-width bytes padded with NULs."""
    width = len(str(n - 1)) + 1  # the widest "v\n", and the widest "u "
    tails = np.array([b"%d\n" % v for v in range(n)], dtype=f"S{width}")
    tails = tails.view(np.uint8).reshape(n, width)
    labels = np.zeros(n * (n - 1) // 2, dtype=f"S{2 * width}")
    rows = labels.view(np.uint8).reshape(-1, 2 * width)
    start = 0
    for u in range(n - 1):  # u's labels: "u ", then each later "v\n"
        head = b"%d " % u
        block = rows[start:start + n - 1 - u]
        block[:, :len(head)] = np.frombuffer(head, np.uint8)
        block[:, len(head):len(head) + width] = tails[u + 1:]
        start += n - 1 - u
    return labels


def write_graphs(graphs, path) -> None:
    """Write one or more graphs as concatenated edge-list sections.

    A multi-epoch run stores the graph of epoch k as section k, so a single
    file is enough to audit a whole chain.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for graph in graphs:
            fh.write(graph_to_edge_list(graph))


# The next non-blank line from a position on, stripped.
_NEXT_LINE = re.compile(r"\S(?:[^\n]*\S)?")


def read_graphs(path, expected: typing.Iterator[Graph]) -> list[Graph]:
    """Read edge-list sections back as the graphs that ``expected`` yields,
    drawing one per section.

    Section k's header must name graph k's n, seed and edge_prob (compared
    as numbers) and count the distinct edges it lists, and those edges
    must be graph k's.  A section whose text after its header line is
    exactly graph k's rendering is taken unparsed.  Every problem with the
    file raises ReplayError naming it, ranked as if the file were read
    whole first: a byte that is not UTF-8 anywhere in it, then the first
    bad section.

    The file is read a block at a time, so at most the current section's
    unread text and one block are held.  Lines end at "\\n", "\\r\\n" or
    "\\r", as a text-mode read ends them.
    """
    # A block ends after a "\n", so no "\r\n" spans two blocks.
    blocks = (t.replace("\r\n", "\n").replace("\r", "\n") if "\r" in t
              else t for t in _text_blocks(path))
    text, pos = "", 0  # text[pos:] is the file's unread text: whole lines

    def next_line() -> str | None:
        """The next nonblank line, stripped; None at the end of the file."""
        nonlocal text, pos
        while not (line := _NEXT_LINE.search(text, pos)):
            if not (text := next(blocks, "")):
                return None
            pos = 0
        pos = line.end() + 1
        return line[0]

    def take(rendered: str) -> bool:
        """Read past ``rendered`` if the unread text starts with it, or is
        all of it but its final newline; else leave that text unread."""
        nonlocal text, pos
        done = 0  # how much of rendered the blocks read past have matched
        while rendered.startswith(
                piece := text[pos:pos + len(rendered) - done], done):
            done, pos = done + len(piece), pos + len(piece)
            if done == len(rendered):
                return True
            if not (more := next(blocks, "")):
                if done == len(rendered) - 1:  # no final newline
                    return True
                break
            text, pos = more, 0
        text, pos = rendered[:done] + text[pos:], 0
        return False

    graphs = []
    try:
        while line := next_line():
            head = line.split()
            if len(head) != 4:
                raise ValueError(f"bad edge-list header: {line!r}")
            n, m, seed = int(head[0]), int(head[1]), int(head[2])
            edge_prob, k = float(head[3]), len(graphs)
            want = next(expected)
            # Checking n before parsing bounds the n-by-n allocation.
            if (n, seed, edge_prob) != (want.n, want.seed, want.edge_prob):
                raise ValueError(f"section {k} is not the run's graph {k}")
            graphs.append(want)
            if m == want.num_edges and take(_edge_text(want)):
                continue
            body = []
            while len(body) < m and (line := next_line()):
                body.append(line)
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
        for _ in blocks:  # a bad byte further on ranks first
            pass
        raise ReplayError(f"{path}: {exc}") from None
    return graphs


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run byte for byte.

    ``config_text`` is the canonical rendering of the config, defaults
    included; feeding it back through ``simulate`` regenerates identical
    output files.  Wall-clock times are informational only.
    """

    version: str
    command: str
    seed: int
    config_text: str
    outputs: dict
    started_utc: str
    finished_utc: str


_MANIFEST_TYPES = typing.get_type_hints(RunManifest).items()


def write_manifest(manifest: RunManifest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> RunManifest:
    """Read a manifest back; a file that is not one raises ReplayError."""
    try:
        manifest = RunManifest(**json.loads("".join(_text_blocks(path))))
    except (TypeError, ValueError) as exc:
        raise ReplayError(f"{path}: not a run manifest ({exc})") from None
    if not all(isinstance(getattr(manifest, f), t)
               for f, t in _MANIFEST_TYPES):
        raise ReplayError(f"{path}: not a run manifest")
    return manifest


def run_config(records_path) -> SimConfig:
    """The config of the run whose ``manifest.json`` sits beside
    ``records_path`` and lists that file; anything less raises
    ReplayError."""
    folder, name = os.path.split(records_path)
    path = os.path.join(folder, "manifest.json")
    manifest = read_manifest(path)
    if name not in manifest.outputs.values():
        raise ReplayError(f"{path}: does not list {name}")
    try:
        return parse_config_text(manifest.config_text)
    except ConfigError as exc:
        raise ReplayError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Replay verification
# ---------------------------------------------------------------------------

def _fault(height, why: str) -> ReplayError:
    return ReplayError(f"height {height}: {why}")


def verify_record_stream(records: typing.Iterable[SimRecord],
                         graphs: list[Graph]) -> int:
    """Re-validate a recorded chain against its problem graphs, and
    return its number of records.

    Checks the structural invariants a chain must satisfy: consecutive
    heights, finite times increasing strictly from 0, finite positive
    difficulties, the classical/solution partition, epochs from 0 up by at
    most one a block (and at most one graph past the last), and strictly
    improving scores bounded by the epoch's graph size.  Raises ReplayError
    on the first violation.  (The record schema stores scores, not
    solution vertices.)  ``records`` may be a list or a stream, read once.

    One running best score is enough: an epoch that passes its check is
    the previous one or the next, so an epoch once left never returns.
    A record that passes the height check is the i-th, so the classical
    count is i + 1 less the solution count.
    """
    n_graphs = len(graphs)
    best = INITIAL_BEST_SCORE
    prev_time = 0.0
    prev_epoch = cum_s = 0
    i = -1
    for i, (height, sim_time, kind, _, d_b, d_r, score, epoch,
            cum_classical, cum_solution) in enumerate(records):
        if height != i:
            raise _fault(height, "heights must be consecutive from 0")
        # Written so that NaN fails every test and inf the upper bound.
        if not prev_time < sim_time < inf:
            raise _fault(height,
                         "sim_time does not increase to a finite time")
        if not (0 < d_b < inf and 0 < d_r < inf):
            raise _fault(height, "difficulty is not finite and positive")
        if kind not in ("classical", "solution"):
            raise _fault(height, f"unknown kind {kind!r}")
        if epoch != prev_epoch:
            if epoch != prev_epoch + 1 or not i:
                raise _fault(height, f"epoch does not follow {prev_epoch}")
            best = INITIAL_BEST_SCORE
        if epoch >= n_graphs:
            raise _fault(height, f"no graph for epoch {epoch}")
        if kind == "solution":
            cum_s += 1
            if score <= best:
                raise _fault(height, f"solution score {score} does not "
                                     f"beat {best}")
            if score > graphs[epoch].n:
                raise _fault(height, "score exceeds graph size")
            best = score
        elif score != best:
            raise _fault(height, "classical block moved best score")
        if cum_classical != i + 1 - cum_s or cum_solution != cum_s:
            raise _fault(height, "cumulative counters inconsistent")
        prev_time = sim_time
        prev_epoch = epoch
    if i < 0:
        raise ReplayError("no records to verify")
    if n_graphs > prev_epoch + 2:
        raise ReplayError(f"{n_graphs} graphs for {prev_epoch + 1} epochs")
    return i + 1


def verify_miners(chunks: typing.Iterable[list[SimRecord]], cfg: SimConfig,
                  faults: list[ReplayError]
                  ) -> typing.Iterator[list[SimRecord]]:
    """Yield ``chunks`` of records unchanged, appending to ``faults`` a
    ReplayError for the first record that names no miner of ``cfg``, or
    a solution block by a miner that may not publish one
    (``engine.solving_miners``).  The caller raises it once the checks
    that rank above it have passed."""
    miners = range(len(cfg.miners))
    solvers = set(solving_miners(cfg))
    for chunk in chunks:
        for r in () if faults else chunk:
            if r.miner_id not in miners:
                faults.append(_fault(
                    r.height, f"no miner {r.miner_id} in the run's config"))
                break
            if r.kind == "solution" and r.miner_id not in solvers:
                faults.append(_fault(
                    r.height,
                    f"miner {r.miner_id} cannot mine a solution block"))
                break
        yield chunk
