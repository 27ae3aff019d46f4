"""cliquechain benchmark: closed-loop workloads with output checks.

Run from the repository root:

    python3 bench/run.py --workload solver-chain --seed 0 --seconds 30 --trace 0

A run repeats whole rounds of its workload's operations, one after the
other in this process, until ``--seconds`` have passed (at least two
rounds).  Every operation's output is checked: at the default seed against
the digests pinned in ``bench/golden.json``, at any other seed against the
first round.  ``--trace 0`` reports the end-to-end metrics, timed in
reference seconds (wall seconds scaled by the speed of a calibration loop
timed around each operation); ``--trace 1`` runs untraced and traced
rounds and reports per-layer metrics instead.
The report goes to stdout and its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gzip
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = BENCH / "out"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 0
MIN_ROUNDS = 2
SETUP_REPEATS = 5
SWEEP_INSTANCES = 10
CALIBRATION_MASKS = tuple((i * 0x9E3779B97F4A7C15) & ((1 << 60) - 1)
                          for i in range(1, 61))
CALIBRATION_LOOPS = 10      # about 5 ms per calibration
REFERENCE_RATE = 2200.0     # calibration loops per reference second
SAMPLE_INTERVAL = 0.1       # seconds between calibrations during Pool ops

SOLVER_CONFIGS = ("growth.cfg", "difficulty_v1.cfg", "difficulty_v2.cfg")
# Acceptance criterion 2's bitcoin arm: stock 10 classical miners.
BITCOIN_CONFIG = "policy = bitcoin\nseed = 42\nmax_blocks = 10000\n"

END_TO_END = {
    "blocks_per_s": "blocks/s",
    "verify_blocks_per_s": "blocks/s",
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "clique.steps": "count",
    "clique.advance_calls": "count",
    "clique.finds": "count",
    "clique.advance_s": "s",
    "clique.steps_per_s": "steps/s",
    "clique.gen_graph_calls": "count",
    "clique.gen_graph_s": "s",
    "clique.read_graphs_s": "s",
    "clique.write_graphs_s": "s",
    "engine.simulate_s": "s",
    "engine.self_s": "s",
    "engine.race_calls": "count",
    "engine.race_s": "s",
    "engine.advance_solvers_s": "s",
    "engine.replace_s": "s",
    "engine.replacements": "count",
    "engine.publish_ratio": "ratio",
    "difficulty.on_block_calls": "count",
    "difficulty.on_block_s": "s",
    "difficulty.updates": "count",
    "chain.append_calls": "count",
    "chain.append_s": "s",
    "io.parse_config_s": "s",
    "io.write_records_s": "s",
    "io.read_records_s": "s",
    "io.verify_s": "s",
    "io.bytes_written": "bytes",
    "experiments.cells": "count",
    "experiments.driver_s": "s",
    "experiments.cell_simulate_s": "s",
    "experiments.result_bytes": "bytes",
    "experiments.parallel_efficiency": "ratio",
    "cli.simulate_s": "s",
    "cli.verify_chain_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}
# Counters that must repeat exactly across traced rounds and runs.
EXACT_COUNTERS = ("clique.steps", "clique.finds", "engine.race_calls",
                  "engine.replacements", "difficulty.updates")


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to run."""


@dataclasses.dataclass
class Op:
    """One timed operation of a round."""

    name: str
    kind: str          # "simulate", "verify" or "driver"
    wall: float        # wall-clock seconds
    ref: float         # the same time in reference seconds
    ok: bool = True
    blocks: int = 0    # blocks simulated, or records re-validated
    cells: int = 0     # simulation runs completed
    digest: object = None
    error: str = ""


@dataclasses.dataclass
class Round:
    ops: list[Op]
    tracer: tracing.Tracer | None = None

    def seconds(self, clock: str, kinds=("simulate", "verify", "driver")
                ) -> float:
        """Time of the ops of the given kinds on ``clock`` ("ref" or
        "wall")."""
        return sum(getattr(op, clock) for op in self.ops if op.kind in kinds)

    def rate(self, kinds, field: str, clock: str = "ref") -> float:
        """``field`` summed over the ops of the given kinds, per second of
        their ``clock`` time ("ref" or "wall")."""
        seconds = self.seconds(clock, kinds)
        return sum(getattr(op, field) for op in self.ops
                   if op.kind in kinds) / seconds if seconds else 0.0


# ---------------------------------------------------------------------------
# Helpers shared by the workloads
# ---------------------------------------------------------------------------

def pool_workers() -> int:
    """Worker processes for the sweep drivers' Pool: at most two, never
    more than the cores this process may run on."""
    return max(1, min(2, nproc()))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count_records(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def cells_digest(cells) -> str:
    """sha256 of a driver's per-cell fractions, in the driver's cell order."""
    lines = [f"{c.protocol} {c.eta_index} {c.instance} {c.seed} "
             f"{c.fraction!r}" for c in cells]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _calibration_loop() -> int:
    """Fixed pure-Python work: lowest-bit scans and popcounts over 60-bit
    masks, the integer operations the clique search is built from."""
    masks = CALIBRATION_MASKS
    total = 0
    for mask in masks:
        cand = mask
        while cand:
            low = cand & -cand
            total += (masks[low.bit_length() - 1] & cand).bit_count()
            cand ^= low
    return total


def calibration_rate() -> float:
    """Mean speed, in calibration loops per wall second, on each CPU this
    process may use."""
    allowed = sorted(os.sched_getaffinity(0))
    rates = []
    try:
        for cpu in allowed:
            if len(allowed) > 1:
                os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_LOOPS):
                _calibration_loop()
            rates.append(CALIBRATION_LOOPS / (time.perf_counter() - t0))
    finally:
        if len(allowed) > 1:
            os.sched_setaffinity(0, set(allowed))
    return statistics.fmean(rates)


class _Sampler(threading.Thread):
    """Times the calibration loop on each CPU every SAMPLE_INTERVAL seconds
    while Pool workers run.

    The loop is timed on this thread's CPU clock, so the time a worker
    holds the CPU does not count; only how fast the core runs does.
    """

    def __init__(self, cpus):
        super().__init__(name="calibration-sampler", daemon=True)
        self.cpus = cpus
        self.rates: list[float] = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(SAMPLE_INTERVAL):
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})   # this thread only
                t0 = time.thread_time()
                _calibration_loop()
                self.rates.append(1.0 / max(time.thread_time() - t0, 1e-9))


class Stopwatch:
    """Wall time of a block, and the same time in reference seconds.

    A reference second is the time the calibration loop takes to run
    REFERENCE_RATE times.  The loop is timed right before and right after
    the block, and with ``sample`` (a block that waits on Pool workers)
    also on every CPU throughout it, so a CPU that runs slower for a while
    slows the block and the loop alike and the reference time stays put.
    """

    def __init__(self, sample: bool = False):
        self._sampler = (_Sampler(sorted(os.sched_getaffinity(0)))
                         if sample else None)

    def __enter__(self):
        self._rate = calibration_rate()
        if self._sampler is not None:
            self._sampler.start()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.wall = time.perf_counter() - self._t0
        rates = [self._rate, calibration_rate()]
        if self._sampler is not None:
            self._sampler.done.set()
            self._sampler.join()
            rates = self._sampler.rates or rates
        self.ref = self.wall * statistics.fmean(rates) / REFERENCE_RATE
        return False


@contextlib.contextmanager
def on_cpus(n: int):
    """Keep this process, and the processes it starts, on its first ``n``
    allowed CPUs, so the calibration loop runs on the cores the timed work
    runs on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(sorted(allowed)[:n]))
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@contextlib.contextmanager
def _operation(tracer, name):
    if tracer is None:
        yield
    else:
        with tracer.operation(name):
            yield


def timed(name: str, kind: str, span: str, tracer, fn,
          sample: bool = False) -> tuple[Op, object]:
    """Run ``fn()`` as one operation and return (op, fn's result).

    An exception marks the operation failed; it is counted, never retried.
    """
    error, result = "", None
    with Stopwatch(sample) as sw:
        with _operation(tracer, span):
            try:
                result = fn()
            except (Exception, SystemExit) as exc:
                error = f"{type(exc).__name__}: {exc}"
    return Op(name, kind, sw.wall, sw.ref, ok=not error, error=error), result


def run_cli(name: str, kind: str, argv: list[str], span: str, tracer) -> Op:
    """Run one ``cli.main`` command as an operation.

    The command's own stdout and stderr are captured so that the benchmark
    report stays readable; their tail goes into the error of a failed op.
    """
    from cliquechain import cli

    sink = io.StringIO()

    def call():
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            return cli.main(argv)

    op, rc = timed(name, kind, span, tracer, call)
    if op.ok and rc != 0:
        op.ok, op.error = False, f"exit {rc}"
    if not op.ok:
        op.error = f"{op.error} {sink.getvalue()[-500:]}".strip()
    return op


def chain_pair(name: str, config: Path, seed: int, out: Path,
               tracer) -> list[Op]:
    """``simulate`` then ``verify-chain`` on one config."""
    records, graphs = out / "records.csv", out / "graphs.edges"
    sim = run_cli(f"simulate {name}", "simulate",
                  ["simulate", str(config), "--seed", str(seed),
                   "--out-dir", str(out)],
                  tracing.CLI_SIMULATE, tracer)
    sim.cells = 1
    if sim.ok:
        try:
            sim.blocks = count_records(records)
            sim.digest = {"records.csv": sha256_file(records),
                          "graphs.edges": sha256_file(graphs)}
        except OSError as exc:
            sim.ok, sim.error = False, f"unreadable output: {exc}"
    return [sim, verify_op(f"verify-chain {name}", records, graphs, tracer)]


def verify_op(name: str, records: Path, graphs: Path, tracer) -> Op:
    op = run_cli(name, "verify", ["verify-chain", str(records), str(graphs)],
                 tracing.CLI_VERIFY, tracer)
    if op.ok:
        op.blocks = count_records(records)
    return op


def verify_cells(name: str, cells, graph_n: int, tracer) -> Op:
    """Re-validate every cell's record stream with
    ``io.verify_record_stream``.

    Sweep cells do not return their problem graphs.  The stream check
    reads only each epoch graph's vertex count, so edgeless stand-ins of
    the configured size take their place.
    """
    from cliquechain import io as cio
    from cliquechain.clique import Graph

    streams = [list(c.records) for c in cells]

    def check():
        stand_in = Graph.from_edges(graph_n, [])
        for recs in streams:
            epochs = recs[-1].problem_epoch + 1 if recs else 0
            cio.verify_record_stream(recs, [stand_in] * epochs)

    op, _ = timed(name, "verify", "bench.verify_cells", tracer, check)
    if op.ok:
        op.blocks = sum(len(r) for r in streams)
    return op


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class ChainWorkload:
    """simulate -> verify-chain pairs through ``cli.main``."""

    uses_pool = False

    def __init__(self, configs: list[Path], workload_seed: int):
        from cliquechain import io as cio

        self.configs = configs
        self.seeds = [cio.parse_config(p).seed + workload_seed
                      for p in configs]

    def config_paths(self) -> list[Path]:
        return self.configs

    def round(self, work: Path, tracer, workers: int) -> Round:
        ops: list[Op] = []
        for config, seed in zip(self.configs, self.seeds):
            ops += chain_pair(config.name, config, seed,
                              work / config.stem, tracer)
        return Round(ops, tracer)


class SweepWorkload:
    """The eta-sweep and hoard-and-release drivers at acceptance size."""

    uses_pool = True

    def __init__(self, workload_seed: int):
        from cliquechain import io as cio

        self.workload_seed = workload_seed
        self.sweep_cfg = CONFIGS / "sweep.cfg"
        self.bubka_cfg = CONFIGS / "bubka.cfg"
        self.graph_n = {p: cio.parse_config(p).graph_n
                        for p in (self.sweep_cfg, self.bubka_cfg)}

    def config_paths(self) -> list[Path]:
        return [self.sweep_cfg, self.bubka_cfg]

    def _driver(self, span, config: Path, run, tracer, workers: int):
        from cliquechain import io as cio

        def call():
            cfg = cio.parse_config(config)
            return run(dataclasses.replace(
                cfg, seed=cfg.seed + self.workload_seed))

        op, result = timed(span.split(".")[-1], "driver", span, tracer, call,
                           sample=workers > 1)
        if op.ok:
            op.cells = len(result.cells)
            op.blocks = sum(len(c.records) for c in result.cells)
            op.digest = cells_digest(result.cells)
            if tracer is not None:
                tracer.counters["experiments.result_bytes"] += sum(
                    len(pickle.dumps(c)) for c in result.cells)
        return op, result

    def round(self, work: Path, tracer, workers: int) -> Round:
        from cliquechain import experiments

        ops = []
        for span, config, run in (
                (tracing.ETA_DRIVER, self.sweep_cfg,
                 lambda cfg: experiments.run_eta_sweep(
                     cfg, instances=SWEEP_INSTANCES, workers=workers)),
                (tracing.BUBKA_DRIVER, self.bubka_cfg,
                 lambda cfg: experiments.run_bubka_experiment(
                     cfg, workers=workers))):
            op, result = self._driver(span, config, run, tracer, workers)
            ops.append(op)
            if op.ok:
                with on_cpus(1):
                    ops.append(verify_cells(f"verify {op.name}",
                                            result.cells,
                                            self.graph_n[config], tracer))
        return Round(ops, tracer)


def make_workload(name: str, workload_seed: int, work: Path):
    if name == "solver-chain":
        return ChainWorkload([CONFIGS / c for c in SOLVER_CONFIGS],
                             workload_seed)
    if name == "hash-chain":
        config = work / "bitcoin.cfg"
        config.write_text(BITCOIN_CONFIG, encoding="utf-8")
        return ChainWorkload([config], workload_seed)
    return SweepWorkload(workload_seed)


WORKLOADS = ("solver-chain", "hash-chain", "sweep-drivers")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from cliquechain import cli, io; "
              "[io.parse_config(p) for p in sys.argv[2:]]")


def measure_setup(config_paths) -> list[Stopwatch]:
    """Time a fresh interpreter importing cliquechain and parsing the
    workload's configs, SETUP_REPEATS times."""
    runs = []
    for _ in range(SETUP_REPEATS):
        with Stopwatch() as sw:
            subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                            *map(str, config_paths)], check=True,
                           timeout=120)
        runs.append(sw)
    return runs


def run_rounds(workload, work: Path, seconds: float, min_rounds: int,
               traced: bool, workers: int) -> list[Round]:
    """Closed loop: each round starts when the previous one has finished."""
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        if traced:
            tracer = tracing.Tracer()
            with tracing.install(tracer):
                rounds.append(workload.round(work, tracer, workers))
        else:
            rounds.append(workload.round(work, None, workers))
    return rounds


def check_outputs(rounds: list[Round], reference: dict | None) -> dict:
    """Mark every op whose digest differs from the reference as failed.

    The reference is the pinned golden digests, or else the first round's.
    Returns the reference actually used.
    """
    if reference is None:
        reference = {op.name: op.digest for op in rounds[0].ops
                     if op.digest is not None}
    for rnd in rounds:
        for op in rnd.ops:
            if op.ok and op.digest is not None \
                    and op.digest != reference.get(op.name):
                op.ok = False
                op.error = "output digest differs from the reference"
    return reference


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(rounds: list[Round], setup: list[Stopwatch],
               clock: str = "ref") -> dict[str, list]:
    """Per-round (per set-up run for setup_s) values of each end-to-end
    metric, timed on ``clock``: "ref" or "wall"."""
    return {
        "blocks_per_s": [r.rate(("simulate", "driver"), "blocks", clock)
                         for r in rounds],
        "verify_blocks_per_s": [r.rate(("verify",), "blocks", clock)
                                for r in rounds],
        "cells_per_s": [r.rate(("simulate", "driver"), "cells", clock)
                        for r in rounds],
        "setup_s": [getattr(sw, clock) for sw in setup],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0],
    }


def layer_metrics(tracer: tracing.Tracer, scale: float = 1.0
                  ) -> dict[str, float]:
    """Per-layer values of one traced round (see README for definitions).

    Span times are wall seconds multiplied by ``scale``, the round's
    reference seconds per wall second.
    """
    s = tracer.summary()
    c = tracer.counters

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def total(*names):
        return scale * sum(s.get(n, {}).get("total_s", 0.0) for n in names)

    def self_s(*names):
        return scale * sum(s.get(n, {}).get("self_s", 0.0) for n in names)

    steps, advance_s = c["clique.steps"], total("clique.advance")
    finds = c["clique.finds"]
    cells, cell_wall = tracer.children_of(tracing.DRIVER_SPANS,
                                          "engine.simulate")
    return {
        "clique.steps": steps,
        "clique.advance_calls": calls("clique.advance"),
        "clique.finds": finds,
        "clique.advance_s": advance_s,
        "clique.steps_per_s": steps / advance_s if advance_s else 0.0,
        "clique.gen_graph_calls": calls("clique.gen_graph"),
        "clique.gen_graph_s": total("clique.gen_graph"),
        "clique.read_graphs_s": total("clique.read_graphs"),
        "clique.write_graphs_s": total("clique.write_graphs"),
        "engine.simulate_s": total("engine.simulate"),
        "engine.self_s": self_s("engine.simulate"),
        "engine.race_calls": calls("engine.race"),
        "engine.race_s": total("engine.race"),
        "engine.advance_solvers_s": self_s("engine.advance_solvers"),
        "engine.replace_s": total("engine.replace"),
        "engine.replacements": c["engine.replacements"],
        "engine.publish_ratio": (c["chain.solution_blocks"] / finds
                                 if finds else 0.0),
        "difficulty.on_block_calls": calls("difficulty.on_block"),
        "difficulty.on_block_s": total("difficulty.on_block"),
        "difficulty.updates": c["difficulty.updates"],
        "chain.append_calls": calls("chain.append"),
        "chain.append_s": total("chain.append"),
        "io.parse_config_s": total("io.parse_config"),
        "io.write_records_s": total("io.write_records"),
        "io.read_records_s": total("io.read_records"),
        "io.verify_s": total("io.verify"),
        "io.bytes_written": c["io.bytes_written"],
        "experiments.cells": cells,
        "experiments.driver_s": total(*tracing.DRIVER_SPANS),
        "experiments.cell_simulate_s": scale * cell_wall,
        "experiments.result_bytes": c["experiments.result_bytes"],
        "cli.simulate_s": total(tracing.CLI_SIMULATE),
        "cli.verify_chain_s": total(tracing.CLI_VERIFY),
        "cli.self_s": self_s(tracing.CLI_SIMULATE, tracing.CLI_VERIFY),
    }


def check_counters(per_round: list[dict], pinned: dict | None) -> list[str]:
    """Exact counters must agree across traced rounds and with the pin."""
    counters = [{k: m[k] for k in EXACT_COUNTERS} for m in per_round]
    reference = pinned if pinned is not None else counters[0]
    return [f"traced round {i} counters {c} != {reference}"
            for i, c in enumerate(counters) if c != reference]


# ---------------------------------------------------------------------------
# Run metadata and reporting
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_metadata(workers: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "cliquechain").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": git_commit(), "src_sha256": digest.hexdigest(),
            "src_lines": lines, "nproc": nproc(), "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "workers": workers}


def metric_line(name: str, values: list, unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return (f"{name:32s} {med:14.6g} {unit:9s} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def load_golden() -> dict:
    if GOLDEN.is_file():
        return json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from traced "
                             "rounds instead of end-to-end metrics")
    parser.add_argument("--write-golden", action="store_true",
                        help="pin this run's digests (and, with --trace 1, "
                             "exact counters) in bench/golden.json; only "
                             "at the default seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.write_golden and args.seed != DEFAULT_SEED:
        parser.error("--write-golden needs the default seed")
    return args


def import_program() -> None:
    """Import cliquechain from this checkout's src/, nowhere else."""
    if not (SRC / "cliquechain" / "__init__.py").is_file():
        raise SetupError(f"no cliquechain package under {SRC}")
    missing = [c for c in SOLVER_CONFIGS + ("sweep.cfg", "bubka.cfg")
               if not (CONFIGS / c).is_file()]
    if missing:
        raise SetupError(f"missing configs: {', '.join(missing)}")
    sys.path.insert(0, str(SRC))
    import cliquechain

    if Path(cliquechain.__file__).resolve().parent != SRC / "cliquechain":
        raise SetupError(f"imported cliquechain from {cliquechain.__file__}")


@dataclasses.dataclass
class Measurement:
    rounds: list[Round]
    values: dict[str, list]
    units: dict[str, str]
    checks: int = 0               # counter pins attempted
    problems: list[str] = dataclasses.field(default_factory=list)


def measure_end_to_end(workload, work: Path, seconds: float, workers: int,
                       setup: list[Stopwatch], pinned: dict) -> Measurement:
    rounds = run_rounds(workload, work, seconds, MIN_ROUNDS, False, workers)
    check_outputs(rounds, pinned.get("digests"))
    for name, values in end_to_end(rounds, setup, "wall").items():
        if name != "peak_rss_mb":
            print(metric_line(f"{name} (wall clock)", values,
                              END_TO_END[name]))
    rates = [op.ref / op.wall * REFERENCE_RATE
             for rnd in rounds for op in rnd.ops]
    print(metric_line("calibration rate", rates, "loops/s"))
    return Measurement(rounds, end_to_end(rounds, setup), END_TO_END)


def measure_layers(workload, work: Path, seconds: float, workers: int,
                   pinned: dict) -> Measurement:
    """Untraced then traced rounds, both in-process with one worker on one
    CPU so cell spans are captured and the two compare; for the sweep
    drivers, one Pool round gives the untraced parallel driver time."""
    with on_cpus(1):
        plain = run_rounds(workload, work, seconds / 2, 1, False, 1)
        traced = run_rounds(workload, work, seconds / 2, MIN_ROUNDS, True, 1)
    pooled = (run_rounds(workload, work, 0, 1, False, workers)
              if workload.uses_pool else [])
    rounds = plain + traced + pooled
    check_outputs(rounds, pinned.get("digests"))
    per_round = [layer_metrics(r.tracer, r.seconds("ref") / r.seconds("wall"))
                 for r in traced]
    values = {k: [m[k] for m in per_round] for k in per_round[0]}
    values["trace.overhead_frac"] = [
        statistics.median(r.seconds("ref") for r in traced)
        / statistics.median(r.seconds("ref") for r in plain) - 1.0]
    efficiency = 0.0
    if pooled:
        efficiency = driver_time(plain) / (workers * driver_time(pooled))
    values["experiments.parallel_efficiency"] = [efficiency]
    with gzip.open(work / "spans.tsv.gz", "wt", encoding="utf-8",
                   compresslevel=1) as fh:
        fh.write("round\tindex\tname\tstart_ns\tend_ns\tparent\top\n")
        for i, rnd in enumerate(traced):
            rnd.tracer.write_tsv(fh, i)
    return Measurement(rounds, values, PER_LAYER, checks=len(traced),
                       problems=check_counters(per_round,
                                               pinned.get("counters")))


def driver_time(rounds: list[Round]) -> float:
    return statistics.median(r.seconds("ref", ("driver",)) for r in rounds)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workers = pool_workers()
    workload = make_workload(args.workload, args.seed, work)
    golden = load_golden()
    pinned = (golden.get(args.workload, {})
              if args.seed == DEFAULT_SEED and not args.write_golden else {})

    print(f"bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(run_metadata(workers), sort_keys=True))
    with on_cpus(1):
        setup = measure_setup(workload.config_paths())
    # The chain workloads run on one CPU, the sweep drivers on one per
    # Pool worker.
    with on_cpus(workers if workload.uses_pool else 1):
        if args.trace:
            m = measure_layers(workload, work, args.seconds, workers, pinned)
        else:
            m = measure_end_to_end(workload, work, args.seconds, workers,
                                   setup, pinned)

    ops = [op for rnd in m.rounds for op in rnd.ops]
    attempted = len(ops) + m.checks
    failed = sum(not op.ok for op in ops) + len(m.problems)
    for op in ops:
        if not op.ok:
            print(f"FAILED {op.name}: {op.error}")
    for problem in m.problems:
        print(f"FAILED counter pin: {problem}")
    print(f"rounds {len(m.rounds)}, operations {attempted}, failed {failed}")
    metrics = {}
    for name, unit in m.units.items():
        print(metric_line(name, m.values[name], unit))
        metrics[name] = {"value": statistics.median(m.values[name]),
                         "unit": unit}
    print(f"{'failed_frac':32s} {failed / attempted:14.6g} ratio")

    if args.write_golden:
        entry = golden.setdefault(args.workload, {})
        entry["digests"] = check_outputs(m.rounds[:1], None)
        if args.trace:
            entry["counters"] = {k: m.values[k][0] for k in EXACT_COUNTERS}
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
