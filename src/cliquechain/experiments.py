"""Drivers for the shipped experiments.

Every run in a sweep gets its seed from a pure function of the master seed
and the cell index, so sweeps are reproducible, cells are independent, and
the two protocols in a comparison share identical random numbers per cell.
The cells that share a seed form one task, which runs them in cell order
through one dict of search walks, so each search walk they have in common
is run once (see ``SolverCursor``).  Each task can go to a worker process
on its own; results come back in the order the cells were built, so
parallel and serial execution produce the same output.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, replace
from multiprocessing import Pool

import numpy as np

from .engine import (
    ConfigError,
    SimConfig,
    SimRecord,
    Strategy,
    derive_seed,
    records_from_columns,
    simulate,
)

DEFAULT_ETA_GRID = tuple(float(v) for v in np.logspace(0.0, -3.0, 10))
DEFAULT_BUBKA_TARGETS = (1, 2, 5)
DEFAULT_BUBKA_SEEDS = 20


# ---------------------------------------------------------------------------
# Record statistics
# ---------------------------------------------------------------------------

def solution_fraction(records: Sequence[SimRecord]) -> float:
    """Fraction of blocks that published a solution."""
    return records[-1].cum_solution / len(records)


def win_fraction(records: Sequence[SimRecord], miner_id: int) -> float:
    wins = sum(1 for r in records if r.miner_id == miner_id)
    return wins / len(records)


def max_consecutive_wins(records: Sequence[SimRecord], miner_id: int) -> int:
    best = run = 0
    for r in records:
        run = run + 1 if r.miner_id == miner_id else 0
        best = max(best, run)
    return best


# ---------------------------------------------------------------------------
# Eta sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    """One run of a sweep.  A cell sent back from a worker pickles its
    records as one tuple per field, not one ``SimRecord`` per block."""

    protocol: str
    eta_index: int
    instance: int
    seed: int
    fraction: float
    records: tuple[SimRecord, ...]

    def __reduce__(self):
        return (_cell_from_columns,
                (self.protocol, self.eta_index, self.instance, self.seed,
                 self.fraction, tuple(zip(*self.records))))


def _cell_from_columns(protocol, eta_index, instance, seed, fraction,
                       columns) -> SweepCell:
    return SweepCell(protocol, eta_index, instance, seed, fraction,
                     tuple(records_from_columns(columns)))


@dataclass
class EtaSweepResult:
    """The cells of an eta sweep in the order they were built: v1 then
    v2, eta by eta, instance by instance.

    ``fractions(protocol)[i][j]`` is instance j at eta_values[i].
    ``v2_mean_line`` pools every v2 cell, the reference line the v1 curve
    should approach as eta shrinks.
    """

    eta_values: tuple[float, ...]
    cells: tuple[SweepCell, ...]

    def fractions(self, protocol: str) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(c.fraction for c in self.cells
                           if c.protocol == protocol and c.eta_index == i)
                     for i in range(len(self.eta_values)))

    def mean_sd(self, protocol: str) -> tuple[tuple[float, ...],
                                              tuple[float, ...]]:
        rows = self.fractions(protocol)
        means = tuple(float(np.mean(row)) for row in rows)
        sds = tuple(float(np.std(row, ddof=1)) if len(row) > 1 else 0.0
                    for row in rows)
        return means, sds

    @property
    def v2_mean_line(self) -> float:
        return float(np.mean([c.fraction for c in self.cells
                              if c.protocol == "v2"]))


def _sweep_cell_config(base: SimConfig, protocol: str, eta: float,
                       seed: int) -> SimConfig:
    if protocol == "v1":
        # The coupled policy starts at its own equilibrium ratio,
        # initial_dr = eta * initial_db.
        return replace(base, policy="v1", eta=float(eta), initial_dr=None,
                       seed=seed)
    # eta is not an independent-policy parameter, so v2 cells must not let
    # it leak in through the initial condition: replace keeps the base
    # config's filled initial_dr whatever the grid value.
    return replace(base, policy="v2", eta=float(eta), seed=seed)


def _run_seed_group(cells: list[tuple[str, int, int, SimConfig]]
                    ) -> list[SweepCell]:
    walks: dict = {}
    out = []
    for protocol, eta_index, instance, config in cells:
        result = simulate(config, walks)
        out.append(SweepCell(protocol=protocol, eta_index=eta_index,
                             instance=instance, seed=config.seed,
                             fraction=solution_fraction(result.records),
                             records=tuple(result.records)))
    return out


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_cells(cells, workers: int):
    groups: dict[int, list[int]] = {}
    for i, cell in enumerate(cells):
        groups.setdefault(cell[3].seed, []).append(i)
    tasks = [[cells[i] for i in members] for members in groups.values()]
    # More processes than usable cores or tasks only add start-up cost.
    workers = min(workers, _usable_cores(), len(tasks))
    if workers <= 1:
        done = [_run_seed_group(t) for t in tasks]
    else:
        with Pool(workers) as pool:
            done = pool.map(_run_seed_group, tasks, chunksize=1)
    outputs = [None] * len(cells)
    for members, results in zip(groups.values(), done):
        for i, result in zip(members, results):
            outputs[i] = result
    return outputs


def run_eta_sweep(base_config: SimConfig,
                  eta_values=DEFAULT_ETA_GRID,
                  instances: int = 10,
                  workers: int = 1) -> EtaSweepResult:
    """Run both protocols over the eta grid with common random numbers.

    Each (eta, instance) cell derives one seed from the master seed and
    reuses it for the v1 and the v2 run, so protocol differences are not
    drowned in sampling noise.
    """
    if instances < 1:
        raise ConfigError("instances must be >= 1")
    eta_values = tuple(float(v) for v in eta_values)
    cells = []
    for protocol in ("v1", "v2"):
        for i, eta in enumerate(eta_values):
            for j in range(instances):
                seed = derive_seed(base_config.seed, i, j)
                cells.append((protocol, i, j,
                              _sweep_cell_config(base_config, protocol,
                                                 eta, seed)))
    return EtaSweepResult(eta_values=eta_values,
                          cells=tuple(_run_cells(cells, workers)))


# ---------------------------------------------------------------------------
# Hoard-and-release attacker
# ---------------------------------------------------------------------------

@dataclass
class BubkaResult:
    """The cells of the attacker sweep, seed by seed for each hoard target
    in turn, then for the honest baseline.

    Target index ``i`` reads ``hoard_targets[i]``; the index after the
    last target is the baseline, which swaps the attacker for an honest
    solver with the same hashrate and solver speed, run on the same seeds.
    """

    hoard_targets: tuple[int, ...]
    attacker_id: int
    cells: tuple[SweepCell, ...]

    def win_fractions(self, i: int) -> tuple[float, ...]:
        return tuple(win_fraction(c.records, self.attacker_id)
                     for c in self.cells if c.eta_index == i)

    def max_consecutives(self, i: int) -> tuple[int, ...]:
        return tuple(max_consecutive_wins(c.records, self.attacker_id)
                     for c in self.cells if c.eta_index == i)


def run_bubka_experiment(base: SimConfig,
                         hoard_targets=DEFAULT_BUBKA_TARGETS,
                         num_seeds: int = DEFAULT_BUBKA_SEEDS,
                         workers: int = 1) -> BubkaResult:
    """Sweep the attacker's hoard target over a set of seeded runs.

    All hoard targets and the honest baseline share the same per-seed
    random numbers.  A cell's ``eta_index`` holds its target index.
    """
    if num_seeds < 1:
        raise ConfigError("num_seeds must be >= 1")
    idx = [i for i, m in enumerate(base.miners)
           if m.strategy is Strategy.BUBKA]
    if len(idx) != 1:
        raise ConfigError("bubka experiment needs exactly one "
                          "bubka-attacker in the miner list")
    attacker = base.miners[idx[0]]
    hoard_targets = tuple(int(t) for t in hoard_targets)
    variants = [(f"target={t}", replace(attacker, hoard_target=t))
                for t in hoard_targets]
    variants.append(("honest", replace(attacker, strategy=Strategy.SOLVER,
                                       hoard_target=None)))
    seeds = tuple(derive_seed(base.seed, s) for s in range(num_seeds))
    cells = []
    for t, (label, spec) in enumerate(variants):
        specs = list(base.miners)
        specs[idx[0]] = spec
        cfg = replace(base, miners=tuple(specs))
        for s, seed in enumerate(seeds):
            cells.append((label, t, s, replace(cfg, seed=seed)))
    return BubkaResult(hoard_targets=hoard_targets, attacker_id=idx[0],
                       cells=tuple(_run_cells(cells, workers)))
