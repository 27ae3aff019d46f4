"""Experiment drivers: the growth and difficulty commands, the eta sweep
with common random numbers, and the hoard-and-release attacker sweep."""

import json
import pickle

import pytest

from cliquechain.cli import main
from cliquechain.engine import (
    ConfigError,
    MinerSpec,
    SimConfig,
    SimRecord,
    Strategy,
    derive_seed,
    simulate,
)
from cliquechain.experiments import (
    max_consecutive_wins,
    run_bubka_experiment,
    run_eta_sweep,
    solution_fraction,
    win_fraction,
)
from cliquechain.io import render_config


def classical_team(n):
    return (MinerSpec(hashrate=1000.0, strategy=Strategy.CLASSICAL),) * n


def run_command(tmp_path, command, cfg, *options):
    """Run a command on ``cfg`` through ``cli.main``; return its exit code
    and, on success, its summary.json."""
    path = tmp_path / "run.cfg"
    path.write_text(render_config(cfg))
    out = tmp_path / "out"
    code = main([command, str(path), "--out-dir", str(out), *options])
    if code:
        return code, None
    return code, json.loads((out / "summary.json").read_text())


def rec(i, miner, kind="classical", cum_s=0):
    return SimRecord(height=i, sim_time=0.1 * (i + 1), kind=kind,
                     miner_id=miner, d_b=1000.0, d_r=5.0, best_score=1,
                     problem_epoch=0, cum_classical=i + 1 - cum_s,
                     cum_solution=cum_s)


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------

def test_summary_statistics_on_synthetic_records():
    records = [rec(i, m) for i, m in enumerate([0, 1, 1, 0, 1, 1, 1])]
    assert win_fraction(records, 1) == 5 / 7
    assert win_fraction(records, 2) == 0.0
    assert max_consecutive_wins(records, 1) == 3
    assert max_consecutive_wins(records, 0) == 1
    assert max_consecutive_wins(records, 9) == 0

    with_solutions = [rec(0, 0), rec(1, 0, "solution", 1),
                      rec(2, 0, "solution", 2), rec(3, 0, cum_s=2)]
    assert solution_fraction(with_solutions) == 0.5


# ---------------------------------------------------------------------------
# Growth and difficulty commands
# ---------------------------------------------------------------------------

def test_block_growth_without_solvers_tracks_the_diagonal(tmp_path):
    cfg = SimConfig(policy="v2", seed=21, max_blocks=120,
                    miners=classical_team(10))
    code, summary = run_command(tmp_path, "growth", cfg)
    assert code == 0
    assert summary["cum_solution"] == [0] * 120
    assert (summary["cum_classical"] == summary["diagonal"]
            == [h + 1 for h in summary["height"]])
    assert summary["replacement_heights"] == [49, 99]


def test_block_growth_requires_the_independent_policy(tmp_path, capsys):
    for cfg, message in (
            (SimConfig(policy="v1", seed=1),
             "block-growth experiment runs the v2 policy"),
            (SimConfig(policy="v2", seed=1, saturation_window=0),
             "needs problem replacement (saturation_window >= 1)")):
        assert run_command(tmp_path, "growth", cfg) == (2, None)
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_difficulty_trajectories_match_records(tmp_path, capsys):
    cfg = SimConfig(policy="v1", seed=6, max_blocks=100)
    code, summary = run_command(tmp_path, "difficulty", cfg)
    plain = simulate(cfg).records
    assert code == 0
    assert summary["d_b"] == [r.d_b for r in plain]
    assert summary["d_r"] == [r.d_r for r in plain]
    bitcoin = SimConfig(policy="bitcoin", seed=1)
    assert run_command(tmp_path, "difficulty", bitcoin) == (2, None)
    assert ("difficulty trajectories need policy v1 or v2"
            in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# Eta sweep
# ---------------------------------------------------------------------------

SWEEP_BASE = SimConfig(policy="v2", seed=100, max_blocks=60, graph_n=25)
SWEEP_ETAS = (0.5, 0.01)


def test_eta_sweep_shapes_and_cell_bookkeeping():
    res = run_eta_sweep(SWEEP_BASE, SWEEP_ETAS, instances=2)
    assert res.eta_values == (0.5, 0.01)
    assert len(res.cells) == 8
    for protocol in ("v1", "v2"):
        rows = res.fractions(protocol)
        assert len(rows) == 2
        assert all(len(row) == 2 for row in rows)
        for i, row in enumerate(rows):
            assert row == tuple(c.fraction for c in res.cells
                                if (c.protocol, c.eta_index) == (protocol, i))
    for cell in res.cells:
        assert cell.fraction == (cell.records[-1].cum_solution
                                 / len(cell.records))
        assert len(cell.records) == 60


def test_eta_sweep_uses_common_random_numbers():
    res = run_eta_sweep(SWEEP_BASE, SWEEP_ETAS, instances=2)
    seed_of = {(c.protocol, c.eta_index, c.instance): c.seed
               for c in res.cells}
    for i in range(2):
        for j in range(2):
            expect = derive_seed(SWEEP_BASE.seed, i, j)
            assert seed_of[("v1", i, j)] == expect
            assert seed_of[("v2", i, j)] == expect


def test_eta_sweep_is_reproducible_and_parallel_safe():
    serial = run_eta_sweep(SWEEP_BASE, SWEEP_ETAS, instances=2, workers=1)
    again = run_eta_sweep(SWEEP_BASE, SWEEP_ETAS, instances=2, workers=1)
    parallel = run_eta_sweep(SWEEP_BASE, SWEEP_ETAS, instances=2, workers=2)
    assert serial == again
    assert serial == parallel


@pytest.mark.parametrize("workers,cpus,usable,expect", [
    (64, 3, 3, [3]),        # capped at the usable cores
    (64, 16, 16, [4]),      # capped at the four seed groups of 8 cells
    (8, 1, 1, []),          # one core: no pool at all
    (64, 16, 2, [2]),       # affinity allows fewer cores than cpu_count
    (64, 3, None, [3]),     # no sched_getaffinity: cpu_count decides
])
def test_sweep_workers_are_capped(monkeypatch, workers, cpus, usable,
                                  expect):
    from cliquechain import experiments

    requested = []
    chunksizes = []

    class SerialPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            chunksizes.append(chunksize)
            return [fn(item) for item in items]

    monkeypatch.setattr(experiments, "Pool", SerialPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    if usable is None:
        monkeypatch.delattr(experiments.os, "sched_getaffinity",
                            raising=False)
    else:
        monkeypatch.setattr(experiments.os, "sched_getaffinity",
                            lambda pid: set(range(usable)))
    base = SimConfig(policy="v2", seed=100, max_blocks=10, graph_n=12)
    res = run_eta_sweep(base, SWEEP_ETAS, instances=2, workers=workers)
    assert requested == expect
    # One seed group per task, so no worker waits on a chunk's tail.
    assert chunksizes == [1] * len(expect)
    assert res == run_eta_sweep(base, SWEEP_ETAS, instances=2)


def test_cells_cross_processes_as_columns():
    res = run_eta_sweep(SWEEP_BASE, SWEEP_ETAS, instances=1)
    for cell in res.cells:
        back = pickle.loads(pickle.dumps(cell))
        assert back == cell
        assert all(type(r) is SimRecord for r in back.records)
        assert len(pickle.dumps(cell)) < len(pickle.dumps(cell.records))
        # Pickle memoizes no float, yet each repeated value comes back as
        # one object.
        for field in ("kind", "d_b", "d_r"):
            values = [getattr(r, field) for r in back.records]
            assert len(set(map(id, values))) == len(set(values)), field

    pooled = (run_eta_sweep(SWEEP_BASE, SWEEP_ETAS, instances=1, workers=2),
              run_bubka_experiment(attacker_base(), (1,), num_seeds=2,
                                   workers=2))
    for result in pooled:
        assert all(type(r) is SimRecord
                   for c in result.cells for r in c.records)


def test_shared_walks_run_fewer_steps_with_the_same_records(monkeypatch):
    from cliquechain import engine
    from cliquechain.clique import SolverCursor
    from cliquechain.experiments import _sweep_cell_config

    cursors = []

    class CountedCursor(SolverCursor):
        def __init__(self, *args):
            super().__init__(*args)
            cursors.append(self)

    monkeypatch.setattr(engine, "SolverCursor", CountedCursor)
    seed = derive_seed(SWEEP_BASE.seed, 0, 0)
    cells = [_sweep_cell_config(SWEEP_BASE, protocol, SWEEP_ETAS[0], seed)
             for protocol in ("v1", "v2")]
    walks = {}
    shared = [simulate(cfg, walks).records for cfg in cells]
    consumed = sum(c.steps_consumed for c in cursors)
    executed = sum(len(walk.sizes) for walk in walks.values())
    assert shared == [simulate(cfg).records for cfg in cells]
    assert 0 < executed < consumed


def test_eta_sweep_summary_math():
    res = run_eta_sweep(SWEEP_BASE, SWEEP_ETAS, instances=2)
    means, sds = res.mean_sd("v1")
    for row, mean, sd in zip(res.fractions("v1"), means, sds):
        assert mean == pytest.approx(sum(row) / 2)
        var = sum((f - mean) ** 2 for f in row)          # ddof=1 with n=2
        assert sd == pytest.approx(var ** 0.5)
    pooled = [f for row in res.fractions("v2") for f in row]
    assert res.v2_mean_line == pytest.approx(sum(pooled) / len(pooled))


def test_eta_sweep_rejects_bad_instance_count():
    with pytest.raises(ConfigError):
        run_eta_sweep(SWEEP_BASE, SWEEP_ETAS, instances=0)


# ---------------------------------------------------------------------------
# Attacker sweep
# ---------------------------------------------------------------------------

def attacker_base(n_classical=4, target=1):
    miners = list(classical_team(n_classical))
    miners.append(MinerSpec(hashrate=1000.0, strategy=Strategy.BUBKA,
                            solver_steps_per_second=200.0,
                            hoard_target=target))
    return SimConfig(policy="v2", seed=7, max_blocks=50, graph_n=25,
                     miners=tuple(miners))


def test_bubka_experiment_shapes_and_seeds(tmp_path):
    base = attacker_base()
    res = run_bubka_experiment(base, hoard_targets=(1, 2), num_seeds=3)
    assert res.hoard_targets == (1, 2)
    assert res.attacker_id == 4
    assert len(res.cells) == 9
    seeds = [derive_seed(7, s) for s in range(3)]
    for t in range(3):                     # both targets, then the baseline
        runs = [c for c in res.cells if c.eta_index == t]
        assert [c.seed for c in runs] == seeds
        assert res.win_fractions(t) == tuple(
            win_fraction(c.records, 4) for c in runs)
        assert res.max_consecutives(t) == tuple(
            max_consecutive_wins(c.records, 4) for c in runs)

    code, summary = run_command(tmp_path, "bubka", base,
                                "--hoard-targets", "1,2", "--seeds", "3")
    assert code == 0
    assert [row["hoard_target"] for row in summary["rows"]] == [1, 2]
    for t, row in enumerate(summary["rows"]):
        assert row["win_fraction"] == pytest.approx(
            sum(res.win_fractions(t)) / 3)
        assert row["max_consecutive"] == pytest.approx(
            sum(res.max_consecutives(t)) / 3)
    assert summary["honest_win_fraction"] == pytest.approx(
        sum(res.win_fractions(2)) / 3)


def test_bubka_experiment_is_reproducible_in_parallel():
    base = attacker_base()
    assert (run_bubka_experiment(base, (1,), num_seeds=2, workers=1)
            == run_bubka_experiment(base, (1,), num_seeds=2, workers=2))


def test_bubka_experiment_requires_exactly_one_attacker():
    with pytest.raises(ConfigError):
        run_bubka_experiment(
            SimConfig(policy="v2", seed=7, miners=classical_team(5)),
            (1,), num_seeds=1)
    two = list(attacker_base().miners)
    two.append(MinerSpec(hashrate=1000.0, strategy=Strategy.BUBKA,
                         solver_steps_per_second=200.0, hoard_target=1))
    with pytest.raises(ConfigError):
        run_bubka_experiment(
            SimConfig(policy="v2", seed=7, miners=tuple(two)),
            (1,), num_seeds=1)
