"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls into cliquechain's public functions by
replacing the module (or class) attribute through which each caller looks
the name up; nothing inside ``src/`` is instrumented.  ``install`` puts
every original back when its block exits, so untraced rounds that follow
run the unmodified program.

A span is (name, start, end, parent, operation id).  Spans are kept in flat
arrays while the run is measured and written out only at the end.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Span names of the benchmark's own operation boundaries.
CLI_SIMULATE = "cli.simulate"
CLI_VERIFY = "cli.verify_chain"
ETA_DRIVER = "experiments.run_eta_sweep"
BUBKA_DRIVER = "experiments.run_bubka_experiment"
DRIVER_SPANS = (ETA_DRIVER, BUBKA_DRIVER)


class Tracer:
    """Collects nested spans and exact counters for one measured round."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Span one benchmark operation under a fresh operation id."""
        self.op_id += 1
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, pre=None, post=None):
        """Return ``fn`` wrapped in a span.

        ``pre(args)`` runs before the call; ``post(counters, args, result,
        pre_value)`` runs after it returns and updates exact counters.
        """
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            before = pre(args) if pre is not None else None
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if post is not None:
                post(self.counters, args, result, before)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        selfs = self_times(self.parent, self.start, self.end)
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name):
            row = out.setdefault(self.names[nid],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += selfs[i]
        return out

    def children_of(self, parents, child: str) -> tuple[int, float]:
        """Count and total seconds of ``child`` spans directly under any
        span named in ``parents``."""
        ids = {self._ids[p] for p in parents if p in self._ids}
        cid = self._ids.get(child)
        calls, total = 0, 0.0
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            if nid == cid and p >= 0 and self.name[p] in ids:
                calls += 1
                total += self.end[i] - self.start[i]
        return calls, total

    def write_tsv(self, fh, round_index: int) -> None:
        """Append this round's spans, one per line: round, index, name,
        start and end in ns from the round's first span, parent index and
        operation id."""
        t0 = self.start[0] if self.start else 0.0
        for i, nid in enumerate(self.name):
            fh.write(f"{round_index}\t{i}\t{self.names[nid]}\t"
                     f"{round((self.start[i] - t0) * 1e9)}\t"
                     f"{round((self.end[i] - t0) * 1e9)}\t"
                     f"{self.parent[i]}\t{self.op[i]}\n")


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread's call stack, so a span's children are
    disjoint intervals inside it and the covered time is their sum.
    """
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(start))]


# ---------------------------------------------------------------------------
# Counter hooks
# ---------------------------------------------------------------------------

def _steps_before(args):
    return args[0].steps_consumed


def _after_advance(counters, args, result, steps_before):
    counters["clique.steps"] += args[0].steps_consumed - steps_before
    if result is not None:
        counters["clique.finds"] += 1


def _after_replace(counters, args, result, _):
    if result is not None:
        counters["engine.replacements"] += 1


def _after_on_block(counters, args, result, _):
    # args = (policy, state, block); updates only ever grow by appending.
    counters["difficulty.updates"] += len(result.updates) - len(args[1].updates)


def _after_append(counters, args, result, _):
    if args[1].solution is not None:
        counters["chain.solution_blocks"] += 1


def _after_write(counters, args, result, _):
    counters["io.bytes_written"] += os.path.getsize(args[1])


# (owner, attribute, span name, pre hook, post hook).  The owner is the
# module or class through which the calling code looks the name up, so a
# function imported into two modules is patched in both.
PATCHES = (
    ("cliquechain.cli", "simulate", "engine.simulate", None, None),
    ("cliquechain.experiments", "simulate", "engine.simulate", None, None),
    ("cliquechain.engine", "sample_block_winner", "engine.race", None, None),
    ("cliquechain.engine", "advance_solvers", "engine.advance_solvers",
     None, None),
    ("cliquechain.engine", "check_saturation_and_replace", "engine.replace",
     None, _after_replace),
    ("cliquechain.engine", "gen_random_graph", "clique.gen_graph",
     None, None),
    ("cliquechain.clique", "gen_random_graph", "clique.gen_graph",
     None, None),
    ("cliquechain.engine", "append_block", "chain.append",
     None, _after_append),
    ("cliquechain.clique:SolverCursor", "advance", "clique.advance",
     _steps_before, _after_advance),
    ("cliquechain.difficulty:DifficultyPolicy", "on_block",
     "difficulty.on_block", None, _after_on_block),
    ("cliquechain.cli", "parse_config", "io.parse_config", None, None),
    ("cliquechain.io", "parse_config", "io.parse_config", None, None),
    ("cliquechain.cli", "write_records", "io.write_records",
     None, _after_write),
    ("cliquechain.cli", "write_manifest", "io.write_manifest",
     None, _after_write),
    ("cliquechain.cli", "write_graphs", "clique.write_graphs",
     None, _after_write),
    ("cliquechain.cli", "read_records", "io.read_records", None, None),
    ("cliquechain.cli", "read_graphs", "clique.read_graphs", None, None),
    ("cliquechain.cli", "verify_record_stream", "io.verify", None, None),
    ("cliquechain.io", "verify_record_stream", "io.verify", None, None),
)


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextmanager
def install(tracer: Tracer):
    """Route every patched call through ``tracer`` for the block's duration."""
    saved = []
    try:
        for spec, attr, name, pre, post in PATCHES:
            owner = _owner(spec)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, pre, post))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
