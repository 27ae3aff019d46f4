"""Drivers for the shipped experiments.

Every run in a sweep gets its seed from a pure function of the master seed
and the cell index, so sweeps are reproducible, cells are independent, and
the two protocols in a comparison share identical random numbers per cell.
The cells that share a seed form one task, which runs them in cell order
through one dict of search walks, so each search walk they have in common
is run once (see ``SolverCursor``).  Tasks can be farmed out to worker
processes; results come back in the order the cells were built, so
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
    SimResult,
    Strategy,
    derive_seed,
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
# Single-run trajectory experiments
# ---------------------------------------------------------------------------

def run_block_growth_experiment(config: SimConfig) -> SimResult:
    """Run the independent policy with problem replacement active.

    The growth curves are the ``cum_classical`` and ``cum_solution``
    columns of the returned records.
    """
    if config.policy != "v2":
        raise ConfigError("block-growth experiment runs the v2 policy")
    if config.saturation_window < 1:
        raise ConfigError("block-growth experiment needs problem "
                          "replacement (saturation_window >= 1)")
    return simulate(config)


def run_difficulty_trajectories(config: SimConfig) -> SimResult:
    """Run either retargeting policy; the trajectories are the ``d_b`` and
    ``d_r`` columns of the returned records."""
    if config.policy not in ("v1", "v2"):
        raise ConfigError("difficulty trajectories need policy v1 or v2")
    return simulate(config)


# ---------------------------------------------------------------------------
# Eta sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    protocol: str
    eta_index: int
    instance: int
    seed: int
    fraction: float
    records: tuple[SimRecord, ...]


@dataclass
class EtaSweepResult:
    """Solution-block fractions for both protocols over an eta grid.

    ``v1_fractions[i][j]`` is instance j at eta_values[i]; same shape for
    v2.  ``v2_mean_line`` pools every v2 cell, the reference line the v1
    curve should approach as eta shrinks.
    """

    eta_values: tuple[float, ...]
    instances: int
    chain_height: int
    v1_fractions: tuple[tuple[float, ...], ...]
    v2_fractions: tuple[tuple[float, ...], ...]
    cells: tuple[SweepCell, ...]

    def mean_sd(self, protocol: str) -> tuple[tuple[float, ...],
                                              tuple[float, ...]]:
        rows = self.v1_fractions if protocol == "v1" else self.v2_fractions
        means = tuple(float(np.mean(row)) for row in rows)
        sds = tuple(float(np.std(row, ddof=1)) if len(row) > 1 else 0.0
                    for row in rows)
        return means, sds

    @property
    def v2_mean_line(self) -> float:
        return float(np.mean([f for row in self.v2_fractions for f in row]))


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
            done = pool.map(_run_seed_group, tasks)
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
    outputs = _run_cells(cells, workers)

    fractions = [c.fraction for c in outputs]
    rows = tuple(tuple(fractions[k:k + instances])
                 for k in range(0, len(fractions), instances))
    return EtaSweepResult(eta_values=eta_values, instances=instances,
                          chain_height=base_config.max_blocks,
                          v1_fractions=rows[:len(eta_values)],
                          v2_fractions=rows[len(eta_values):],
                          cells=tuple(outputs))


# ---------------------------------------------------------------------------
# Hoard-and-release attacker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BubkaRow:
    hoard_target: int
    win_fraction: float
    max_consecutive: float
    win_fractions: tuple[float, ...]
    max_consecutives: tuple[int, ...]


@dataclass
class BubkaResult:
    """Attacker statistics per hoard target, plus an honest baseline.

    The baseline swaps the attacker for an honest solver with the same
    hashrate and solver speed, run on the same seeds.
    """

    rows: tuple[BubkaRow, ...]
    honest_win_fractions: tuple[float, ...]
    attacker_id: int
    seeds: tuple[int, ...]
    cells: tuple[SweepCell, ...]

    @property
    def honest_win_fraction(self) -> float:
        return float(np.mean(self.honest_win_fractions))


def _attacker_index(config: SimConfig) -> int:
    idx = [i for i, m in enumerate(config.miners)
           if m.strategy is Strategy.BUBKA]
    if len(idx) != 1:
        raise ConfigError("bubka experiment needs exactly one "
                          "bubka-attacker in the miner list")
    return idx[0]


def run_bubka_experiment(base: SimConfig,
                         hoard_targets=DEFAULT_BUBKA_TARGETS,
                         num_seeds: int = DEFAULT_BUBKA_SEEDS,
                         workers: int = 1) -> BubkaResult:
    """Sweep the attacker's hoard target over a set of seeded runs.

    All hoard targets and the honest baseline share the same per-seed
    random numbers.  Reports the attacker's win fraction and its longest
    consecutive block run, averaged over seeds.
    """
    if num_seeds < 1:
        raise ConfigError("num_seeds must be >= 1")
    attacker_idx = _attacker_index(base)
    attacker = base.miners[attacker_idx]
    seeds = tuple(derive_seed(base.seed, s) for s in range(num_seeds))

    cells = []
    for t, target in enumerate(hoard_targets):
        specs = list(base.miners)
        specs[attacker_idx] = replace(attacker, hoard_target=int(target))
        cfg = replace(base, miners=tuple(specs))
        for s, seed in enumerate(seeds):
            cells.append((f"target={int(target)}", t, s,
                          replace(cfg, seed=seed)))
    honest_specs = list(base.miners)
    honest_specs[attacker_idx] = replace(attacker, strategy=Strategy.SOLVER,
                                         hoard_target=None)
    honest_cfg = replace(base, miners=tuple(honest_specs))
    for s, seed in enumerate(seeds):
        cells.append(("honest", len(hoard_targets), s,
                      replace(honest_cfg, seed=seed)))

    outputs = _run_cells(cells, workers)

    rows = []
    for t, target in enumerate(hoard_targets):
        runs = outputs[t * num_seeds:(t + 1) * num_seeds]
        fracs = tuple(win_fraction(c.records, attacker.id) for c in runs)
        streaks = tuple(max_consecutive_wins(c.records, attacker.id)
                        for c in runs)
        rows.append(BubkaRow(hoard_target=int(target),
                             win_fraction=float(np.mean(fracs)),
                             max_consecutive=float(np.mean(streaks)),
                             win_fractions=fracs,
                             max_consecutives=streaks))
    honest = tuple(win_fraction(c.records, attacker.id)
                   for c in outputs[len(hoard_targets) * num_seeds:])
    return BubkaResult(rows=tuple(rows), honest_win_fractions=honest,
                       attacker_id=attacker.id, seeds=seeds,
                       cells=tuple(outputs))
