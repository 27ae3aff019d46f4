"""Acceptance gate: nine end-to-end criteria covering the search oracle,
the difficulty rules, the shipped experiments, and replay determinism.

Each test measures one criterion at its stated tolerance and prints a
single [PASS]/[FAIL] line with the observed numbers before asserting, so a
full run reads as a checklist.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from cliquechain.cli import main
from cliquechain.clique import (
    SolverCursor,
    brute_force_max_clique,
    gen_random_graph,
)
from cliquechain.engine import MinerSpec, SimConfig, Strategy, simulate
from cliquechain.experiments import (
    DEFAULT_ETA_GRID,
    run_bubka_experiment,
    run_eta_sweep,
)
from cliquechain.io import parse_config, read_manifest

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

CLAMP_LO = 0.25 * (1.0 - 1e-12)
CLAMP_HI = 4.0 * (1.0 + 1e-12)

ETA_DEFAULT = 1.0 / 200.0


@pytest.fixture
def report(capsys):
    """Print one [PASS]/[FAIL] line per criterion, then assert it."""
    def _report(name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"
    return _report


def _exhaust_best(graph) -> int:
    """Run the pausable search to exhaustion with a rising threshold."""
    cursor = SolverCursor(graph)
    best = 0
    while not cursor.exhausted:
        found = cursor.advance(10 ** 9, best)
        if found is not None:
            best = found.score
    return best


def _classical_miners(count: int) -> tuple[MinerSpec, ...]:
    return (MinerSpec(hashrate=1000.0, strategy=Strategy.CLASSICAL),) * count


# ---------------------------------------------------------------------------
# 1. Search result equals the brute-force oracle on small graphs
# ---------------------------------------------------------------------------

def test_search_agrees_with_brute_force(report):
    rng = np.random.default_rng(20260817)
    trials = 200
    t0 = time.perf_counter()
    agree = 0
    for _ in range(trials):
        n = int(rng.integers(4, 13))
        p = float(rng.uniform(0.2, 0.8))
        seed = int(rng.integers(0, 2 ** 31))
        graph = gen_random_graph(n, p, seed)
        if _exhaust_best(graph) == brute_force_max_clique(graph):
            agree += 1
    elapsed = time.perf_counter() - t0
    ok = agree == trials and elapsed < 30.0
    report("criterion 1 (search vs brute-force oracle)", ok,
           f"{agree}/{trials} graphs agree in {elapsed:.1f}s (limit 30s)")


# ---------------------------------------------------------------------------
# 2. Every difficulty update stays inside the clamp; droughts divide by
#    exactly the full factor
# ---------------------------------------------------------------------------

def test_difficulty_updates_respect_clamp(report, policy_calls):
    mixed = tuple(
        [MinerSpec(hashrate=1000.0, strategy=Strategy.CLASSICAL)] * 5
        + [MinerSpec(hashrate=1000.0, strategy=Strategy.SOLVER,
                     solver_steps_per_second=500.0)] * 5)
    arms = {
        "bitcoin": SimConfig(policy="bitcoin", seed=42, max_blocks=10_000),
        "v1": SimConfig(policy="v1", seed=42, max_blocks=10_000),
        # Tuned so the run keeps crossing between drought stretches and
        # solution bursts: all three v2 rules fire many times.
        "v2": SimConfig(policy="v2", seed=42, max_blocks=10_000,
                        graph_n=20, graph_p=0.5, t2_solution=0.5,
                        miners=mixed),
    }
    violations = 0
    totals = {}
    v2_rules = {"d_b": 0, "d_r": 0, "drought": 0}
    for name, cfg in arms.items():
        policy_calls.clear()
        simulate(cfg)
        updates = [u for _, applied in policy_calls for u in applied]
        totals[name] = len(updates)
        for u in updates:
            ratio = u.new / u.old
            if not CLAMP_LO <= ratio <= CLAMP_HI:
                violations += 1
            if u.rule == "drought":
                if u.new != u.old / 4.0:
                    violations += 1
                if name == "v2":
                    v2_rules["drought"] += 1
            elif name == "v2":
                v2_rules[u.name] += 1
    coverage = all(v2_rules.values()) and all(totals.values())
    ok = violations == 0 and coverage
    report("criterion 2 (difficulty clamp invariant)", ok,
           f"{violations} violations over {sum(totals.values())} updates "
           f"(bitcoin {totals['bitcoin']}, v1 {totals['v1']}, "
           f"v2 {totals['v2']} incl. {v2_rules['drought']} droughts)")


# ---------------------------------------------------------------------------
# 3. Coupled policy holds the average d_r/d_b ratio at eta
# ---------------------------------------------------------------------------

def test_v1_ratio_tracks_eta(report):
    t0 = time.perf_counter()
    hits = 0
    means = []
    for seed in range(10):
        cfg = SimConfig(policy="v1", seed=seed, max_blocks=2000)
        recs = simulate(cfg).records
        mean_ratio = float(np.mean([r.d_r / r.d_b for r in recs[1000:]]))
        means.append(mean_ratio)
        if abs(mean_ratio - ETA_DEFAULT) <= 0.25 * ETA_DEFAULT:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 9 and elapsed < 60.0
    report("criterion 3 (v1 ratio tracking)", ok,
           f"{hits}/10 seeds within 25% of {ETA_DEFAULT} "
           f"(means {min(means):.6f}..{max(means):.6f}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. d_r never rises while solutions are absent, and with no solvers at all
#    it steps down by exactly 1/4 every 10 classical blocks
# ---------------------------------------------------------------------------

def test_v2_drought_monotonicity(report):
    rises = 0
    for seed in range(10):
        cfg = SimConfig(policy="v2", seed=seed, max_blocks=1000)
        recs = simulate(cfg).records
        for prev, cur in zip(recs, recs[1:]):
            if cur.kind == "classical" and cur.d_r > prev.d_r:
                rises += 1

    stair_cfg = SimConfig(policy="v2", seed=3, max_blocks=1000,
                          initial_dr=1000.0, miners=_classical_miners(10))
    stair = simulate(stair_cfg).records
    expected = 1000.0
    exact = True
    for r in stair:
        if (r.height + 1) % 10 == 0:
            expected /= 4.0
        exact = exact and r.d_r == expected
    ok = rises == 0 and exact
    report("criterion 4 (drought monotonicity)", ok,
           f"{rises} d_r rises on classical blocks over 10 seeds x 1000 "
           f"blocks; zero-solver staircase exact={exact} "
           f"(final d_r {stair[-1].d_r:.3g})")


# ---------------------------------------------------------------------------
# 5. Cumulative block growth: totals on the diagonal, classical strictly
#    below it once solutions appear, growth resumes after each replacement
# ---------------------------------------------------------------------------

def test_block_growth_shape(tmp_path, report):
    t0 = time.perf_counter()
    rc = main(["growth", str(CONFIG_DIR / "growth.cfg"),
               "--out-dir", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    summary = json.loads((tmp_path / "summary.json").read_text())

    cum_classical = summary["cum_classical"]
    cum_solution = summary["cum_solution"]
    n = len(cum_classical)
    on_diagonal = all(cum_classical[h] + cum_solution[h] == h + 1
                      for h in range(n))
    first_sol = next(h for h in range(n) if cum_solution[h] > 0)
    below = all(cum_classical[h] < h + 1 for h in range(first_sol, n))
    reps = summary["replacement_heights"]
    resumes = all(any(cum_solution[h] > cum_solution[rh]
                      for h in range(rh + 1, n)) for rh in reps)
    ok = (rc == 0 and on_diagonal and below and len(reps) >= 2 and resumes
          and elapsed < 60.0)
    report("criterion 5 (block growth shape)", ok,
           f"totals on diagonal={on_diagonal}, classical below after "
           f"h={first_sol}, {len(reps)} replacements at {reps}, growth "
           f"resumes after each={resumes}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Eta sweep: v2 is insensitive to eta, v1 solution share grows as eta
#    shrinks and meets the v2 level at the small-eta end
# ---------------------------------------------------------------------------

def test_eta_sweep_statistics(report):
    base = parse_config(str(CONFIG_DIR / "sweep.cfg"))
    t0 = time.perf_counter()
    sweep = run_eta_sweep(base, eta_values=DEFAULT_ETA_GRID, instances=10,
                          workers=4)
    elapsed = time.perf_counter() - t0

    v1_means, _ = sweep.mean_sd("v1")
    rho_v1 = float(spearmanr([1.0 / e for e in sweep.eta_values],
                             v1_means).statistic)

    v2_rows = sweep.fractions("v2")
    v2_x = [eta for eta, row in zip(sweep.eta_values, v2_rows) for _ in row]
    v2_y = [f for row in v2_rows for f in row]
    rho_v2 = float(spearmanr(v2_x, v2_y).statistic)

    i_small = int(np.argmin(sweep.eta_values))
    v1_small = np.asarray(sweep.fractions("v1")[i_small])
    v2_all = np.asarray(v2_y)
    n1, n2 = len(v1_small), len(v2_all)
    pooled = math.sqrt(((n1 - 1) * v1_small.var(ddof=1)
                        + (n2 - 1) * v2_all.var(ddof=1)) / (n1 + n2 - 2))
    gap = abs(float(v1_small.mean()) - sweep.v2_mean_line)

    ok = (abs(rho_v2) < 0.3 and rho_v1 > 0.5 and gap <= 2.0 * pooled
          and elapsed < 600.0)
    report("criterion 6 (eta sweep statistics)", ok,
           f"v2 rho={rho_v2:+.3f} (|rho|<0.3), v1 rho vs 1/eta="
           f"{rho_v1:+.3f} (>0.5), small-eta gap {gap:.4f} <= "
           f"2*pooled sd {2 * pooled:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. With zero solvers, v2 collapses onto the single-difficulty baseline
# ---------------------------------------------------------------------------

def test_zero_solver_baseline_degeneracy(report):
    miners = _classical_miners(10)
    v2 = simulate(SimConfig(policy="v2", seed=2025, max_blocks=500,
                            n2_classical=10, t2_classical=0.1,
                            miners=miners)).records
    btc = simulate(SimConfig(policy="bitcoin", seed=2025, max_blocks=500,
                             n1=10, target_time=0.1,
                             miners=miners)).records
    same_db = [r.d_b for r in v2] == [r.d_b for r in btc]
    same_times = [r.sim_time for r in v2] == [r.sim_time for r in btc]
    gap = (btc[-1].sim_time - btc[-101].sim_time) / 100.0
    on_target = abs(gap - 0.1) <= 0.3 * 0.1
    ok = same_db and same_times and on_target
    report("criterion 7 (zero-solver baseline degeneracy)", ok,
           f"d_b series identical={same_db}, times identical={same_times}, "
           f"mean gap over last 100 blocks {gap:.4f} (target 0.1 +-30%)")


# ---------------------------------------------------------------------------
# 8. Re-running from a manifest reproduces every output byte
# ---------------------------------------------------------------------------

def test_manifest_replay_is_byte_identical(tmp_path, report):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc_a = main(["simulate", str(CONFIG_DIR / "growth.cfg"),
                 "--out-dir", str(out_a)])
    manifest = read_manifest(str(out_a / "manifest.json"))
    replay = tmp_path / "replay.cfg"
    replay.write_text(manifest.config_text)
    rc_b = main(["simulate", str(replay), "--out-dir", str(out_b)])
    same = {name: (out_a / name).read_bytes() == (out_b / name).read_bytes()
            for name in ("records.csv", "graphs.edges")}
    ok = rc_a == 0 and rc_b == 0 and all(same.values())
    report("criterion 8 (manifest replay determinism)", ok,
           f"exit codes ({rc_a}, {rc_b}), byte-identical {same}")


# ---------------------------------------------------------------------------
# 9. Hoarding attacker: longer consecutive-win runs as the hoard target
#    grows; a target of 1 behaves like an honest solver
# ---------------------------------------------------------------------------

def test_attacker_hoard_monotonicity(report):
    base = parse_config(str(CONFIG_DIR / "bubka.cfg"))
    result = run_bubka_experiment(base, hoard_targets=(1, 2, 5),
                                  num_seeds=20, workers=4)
    runs = [float(np.mean(result.max_consecutives(i))) for i in range(3)]
    monotone = all(a <= b for a, b in zip(runs, runs[1:]))

    attacker = np.asarray(result.win_fractions(0))
    honest = np.asarray(result.win_fractions(3))      # the honest baseline
    sigma = math.sqrt(attacker.var(ddof=1) / len(attacker)
                      + honest.var(ddof=1) / len(honest))
    gap = abs(float(attacker.mean()) - float(honest.mean()))
    ok = monotone and gap <= 2.0 * sigma
    report("criterion 9 (attacker hoard monotonicity)", ok,
           f"mean max-consecutive {[round(r, 2) for r in runs]} "
           f"non-decreasing={monotone}; target-1 win {attacker.mean():.4f} "
           f"vs honest {honest.mean():.4f} (gap {gap:.4f} <= "
           f"2 sigma {2 * sigma:.4f})")
