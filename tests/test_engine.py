"""Event-loop mechanics: the exponential block race, solver scheduling,
attacker bookkeeping, problem replacement, and whole-run invariants."""

import numpy as np
import pytest
from scipy import stats

from cliquechain.chain import BlockKind
from cliquechain.clique import (
    CliqueSolution,
    ProblemInstance,
    SolverCursor,
    brute_force_max_clique,
    gen_random_graph,
)
from cliquechain.engine import (
    ConfigError,
    MinerSpec,
    MinerState,
    SimConfig,
    Strategy,
    advance_solvers,
    bubka_strategy_step,
    default_miners,
    derive_seed,
    sample_block_winner,
    simulate,
)


def classical_spec(i, hashrate=1000.0):
    return MinerSpec(id=i, hashrate=hashrate, strategy=Strategy.CLASSICAL)


def solver_spec(i, hashrate=1000.0, speed=100.0):
    return MinerSpec(id=i, hashrate=hashrate, strategy=Strategy.SOLVER,
                     solver_steps_per_second=speed)


def bubka_spec(i, target, hashrate=1000.0, speed=100.0):
    return MinerSpec(id=i, hashrate=hashrate, strategy=Strategy.BUBKA,
                     solver_steps_per_second=speed, hoard_target=target)


def sol(score, epoch=0):
    return CliqueSolution(problem_epoch=epoch, vertices=tuple(range(score)),
                          score=score)


# ---------------------------------------------------------------------------
# Block race
# ---------------------------------------------------------------------------

def test_waiting_time_mean_matches_difficulty_over_hashrate():
    miners = [MinerState(spec=classical_spec(0, hashrate=10.0))]
    rng = np.random.default_rng(1)
    times = [sample_block_winner(miners, 100.0, 5.0, rng)[2]
             for _ in range(10_000)]
    assert abs(np.mean(times) - 10.0) < 0.5        # within 5% of d/h = 10


def test_equal_miners_split_wins_evenly():
    miners = [MinerState(spec=classical_spec(i)) for i in range(2)]
    rng = np.random.default_rng(2)
    wins = sum(sample_block_winner(miners, 1000.0, 5.0, rng)[0] == 0
               for _ in range(10_000))
    sigma = (10_000 * 0.25) ** 0.5
    assert abs(wins - 5_000) < 4 * sigma


def test_held_solution_switches_kind_and_dominates_race():
    holder = MinerState(spec=solver_spec(0), hoard=[sol(2)])
    rival = MinerState(spec=classical_spec(1))
    rng = np.random.default_rng(3)
    rounds = 10_000
    wins = 0
    for _ in range(rounds):
        miner_id, kind, _ = sample_block_winner([holder, rival], 1000.0, 5.0,
                                                rng)
        if miner_id == 0:
            wins += 1
            assert kind is BlockKind.SOLUTION
        else:
            assert kind is BlockKind.CLASSICAL
    # Rates 1000/5 vs 1000/1000: P(holder) = 200/201.
    p = 200.0 / 201.0
    sigma = (rounds * p * (1 - p)) ** 0.5
    assert abs(wins - rounds * p) < 4 * sigma


def test_attacker_mines_reduced_only_while_releasing():
    st = MinerState(spec=bubka_spec(0, target=2))
    assert not st.mines_reduced()
    st.hoard = [sol(3)]
    assert not st.mines_reduced()
    st.releasing = True
    assert st.mines_reduced()
    st.hoard = []
    assert not st.mines_reduced()


def test_wins_scale_with_hashrate():
    cfg = SimConfig(policy="bitcoin", seed=17, max_blocks=6000,
                    miners=(classical_spec(0, 1000.0),
                            classical_spec(1, 2000.0),
                            classical_spec(2, 3000.0)))
    records = simulate(cfg).records
    counts = np.bincount([r.miner_id for r in records], minlength=3)
    expected = np.array([1 / 6, 2 / 6, 3 / 6]) * len(records)
    result = stats.chisquare(counts, f_exp=expected)
    assert result.pvalue > 1e-3, (counts, result.pvalue)


# ---------------------------------------------------------------------------
# Solver scheduling
# ---------------------------------------------------------------------------

def make_solver(graph, speed=10.0, strategy="solver", target=3):
    if strategy == "solver":
        spec = solver_spec(0, speed=speed)
    else:
        spec = bubka_spec(0, target=target, speed=speed)
    return MinerState(spec=spec, cursor=SolverCursor(graph))


def test_zero_dt_is_a_noop():
    graph = gen_random_graph(30, 0.5, 1)
    st = make_solver(graph)
    advance_solvers([st], 0.0, ProblemInstance(graph=graph, epoch=0))
    assert st.cursor.steps_consumed == 0 and st.carry == 0.0


def test_fractional_steps_carry_over():
    graph = gen_random_graph(30, 0.5, 1)
    st = make_solver(graph, speed=10.0)
    problem = ProblemInstance(graph=graph, epoch=0)
    advance_solvers([st], 0.05, problem)
    assert st.cursor.steps_consumed == 0 and st.carry == 0.5
    advance_solvers([st], 0.05, problem)
    assert st.cursor.steps_consumed == 1 and st.carry == 0.0


def test_chunked_advance_equals_one_big_advance():
    graph = gen_random_graph(30, 0.5, 1)
    chunked = make_solver(graph, speed=10.0)
    whole = make_solver(graph, speed=10.0)
    problem = ProblemInstance(graph=graph, epoch=0)
    for _ in range(10):
        advance_solvers([chunked], 0.05, problem)
    advance_solvers([whole], 0.5, problem)
    assert chunked.cursor.steps_consumed == whole.cursor.steps_consumed == 5
    assert chunked.hoard == whole.hoard


def test_negative_dt_rejected():
    graph = gen_random_graph(10, 0.5, 1)
    st = make_solver(graph)
    with pytest.raises(ValueError):
        advance_solvers([st], -0.1, ProblemInstance(graph=graph, epoch=0))


def test_non_solvers_and_exhausted_cursors_idle():
    graph = gen_random_graph(10, 0.5, 2)
    passive = MinerState(spec=classical_spec(0))
    worker = make_solver(graph, speed=1e6)
    problem = ProblemInstance(graph=graph, epoch=0)
    advance_solvers([passive, worker], 1.0, problem)
    assert worker.cursor.exhausted
    drained = worker.cursor.steps_consumed
    advance_solvers([passive, worker], 1.0, problem)
    assert worker.cursor.steps_consumed == drained
    assert passive.cursor is None


def test_solver_banks_improvements_up_to_the_optimum():
    graph = gen_random_graph(18, 0.5, 31)
    st = make_solver(graph, speed=1e6)
    problem = ProblemInstance(graph=graph, epoch=0)
    advance_solvers([st], 1.0, problem)
    assert st.cursor.exhausted
    assert [s.score for s in st.hoard] == [brute_force_max_clique(graph)]


def test_attacker_hoard_ascends_and_flips_release():
    graph = gen_random_graph(18, 0.5, 31)
    st = make_solver(graph, speed=1e6, strategy="bubka", target=3)
    problem = ProblemInstance(graph=graph, epoch=0)
    advance_solvers([st], 1.0, problem)
    scores = [s.score for s in st.hoard]
    assert scores == sorted(set(scores)), "hoard must ascend strictly"
    assert len(st.hoard) >= 3 and st.releasing
    assert scores[-1] == brute_force_max_clique(graph)


def test_honest_solver_holds_only_its_later_find():
    # On this graph one interval yields two finds, scoring 2 then 3.
    graph = gen_random_graph(8, 0.5, 0)
    problem = ProblemInstance(graph=graph, epoch=0)
    honest = make_solver(graph, speed=1e6)
    attacker = make_solver(graph, speed=1e6, strategy="bubka", target=2)
    advance_solvers([honest, attacker], 1.0, problem)
    assert [s.score for s in attacker.hoard] == [2, 3]
    assert honest.hoard == attacker.hoard[-1:]


def test_honest_solver_publishes_its_later_find_and_attacker_both():
    # A lone miner fast enough to exhaust the first 8-vertex graph in the
    # interval before block 1; there too the finds score 2 then 3.
    published = {}
    for strategy, target in ((Strategy.SOLVER, None), (Strategy.BUBKA, 2)):
        spec = MinerSpec(id=0, hashrate=1000.0, strategy=strategy,
                         solver_steps_per_second=1e6, hoard_target=target)
        cfg = SimConfig(policy="v2", seed=0, graph_n=8, max_blocks=4,
                        miners=(spec,))
        published[strategy] = [(b.height, b.solution.score)
                               for b in simulate(cfg).chain.blocks
                               if b.solution and b.problem_epoch == 0]
    assert published == {Strategy.SOLVER: [(1, 3)],
                         Strategy.BUBKA: [(1, 2), (2, 3)]}


def test_bubka_prune_and_release_lifecycle():
    st = MinerState(spec=bubka_spec(0, target=3))
    st.hoard = [sol(3), sol(4)]
    bubka_strategy_step(st, 2)
    assert [s.score for s in st.hoard] == [3, 4] and not st.releasing
    st.hoard.append(sol(5))
    bubka_strategy_step(st, 2)
    assert st.releasing
    bubka_strategy_step(st, 4)                     # published best catches up
    assert [s.score for s in st.hoard] == [5] and st.releasing
    bubka_strategy_step(st, 5)
    assert st.hoard == [] and not st.releasing


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_resolve_fills_stock_population_and_reduced_difficulty():
    cfg = SimConfig(policy="v2", seed=1).resolve()
    assert cfg.initial_dr == cfg.eta * cfg.initial_db == 5.0
    assert len(cfg.miners) == 20
    cfg_btc = SimConfig(policy="bitcoin", seed=1).resolve()
    assert len(cfg_btc.miners) == 10
    assert all(m.strategy is Strategy.CLASSICAL for m in cfg_btc.miners)


def test_default_population_split():
    miners = default_miners("v1")
    assert [m.strategy for m in miners[:10]] == [Strategy.CLASSICAL] * 10
    assert [m.strategy for m in miners[10:]] == [Strategy.SOLVER] * 10


def test_resolve_rejects_bad_configs():
    with pytest.raises(ConfigError):
        SimConfig(policy="v9", seed=1).resolve()
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=-1).resolve()
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=1, eta=1.5).resolve()
    with pytest.raises(ConfigError):
        SimConfig(policy="v1", seed=1, n1=0).resolve()
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=1, t2_solution=0.0).resolve()
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=1, max_update_factor=1.0).resolve()
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=1, graph_p=1.0).resolve()
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=1, initial_dr=-3.0).resolve()
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=1,
                  miners=(classical_spec(0), classical_spec(2))).resolve()


def test_miner_spec_validation():
    with pytest.raises(ConfigError):
        MinerSpec(id=0, hashrate=0.0, strategy=Strategy.CLASSICAL)
    with pytest.raises(ConfigError):
        MinerSpec(id=0, hashrate=1.0, strategy=Strategy.SOLVER)
    with pytest.raises(ConfigError):
        MinerSpec(id=0, hashrate=1.0, strategy=Strategy.BUBKA,
                  solver_steps_per_second=10.0)
    with pytest.raises(ConfigError):
        MinerSpec(id=0, hashrate=1.0, strategy=Strategy.CLASSICAL,
                  hoard_target=2)


def test_derive_seed_is_pure_and_spreads():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    seeds = {derive_seed(42, i, j) for i in range(10) for j in range(10)}
    assert len(seeds) == 100


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_runs_exactly():
    cfg = SimConfig(policy="v2", seed=5, max_blocks=120)
    assert simulate(cfg).records == simulate(cfg).records
    other = simulate(SimConfig(policy="v2", seed=6, max_blocks=120)).records
    assert [r.sim_time for r in other] != [
        r.sim_time for r in simulate(cfg).records]


def test_zero_solver_baseline_run_is_all_classical():
    cfg = SimConfig(policy="bitcoin", seed=9, max_blocks=100)
    records = simulate(cfg).records
    assert len(records) == 100
    assert all(r.kind == "classical" for r in records)
    assert records[-1].cum_solution == 0
    assert {r.d_r for r in records} == {5.0}


def test_every_block_is_counted_once():
    records = simulate(SimConfig(policy="v2", seed=8, max_blocks=200)).records
    kinds = {"classical", "solution"}
    for i, r in enumerate(records):
        assert r.height == i
        assert r.kind in kinds
        assert r.cum_classical + r.cum_solution == i + 1
    times = [r.sim_time for r in records]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert any(r.kind == "solution" for r in records)


def test_stagnation_window_replaces_on_schedule():
    cfg = SimConfig(policy="v2", seed=4, max_blocks=160,
                    miners=tuple(classical_spec(i) for i in range(10)))
    res = simulate(cfg)
    assert res.replacement_heights == [49, 99, 149]
    assert len(res.graphs) == 4
    epochs = [r.problem_epoch for r in res.records]
    assert epochs[49] == 0 and epochs[50] == 1 and epochs[100] == 2


def test_window_zero_disables_stagnation_replacement():
    cfg = SimConfig(policy="v2", seed=4, max_blocks=120, saturation_window=0,
                    miners=tuple(classical_spec(i) for i in range(10)))
    res = simulate(cfg)
    assert res.replacement_heights == []
    assert len(res.graphs) == 1


def test_proven_optimum_replaces_before_the_window():
    cfg = SimConfig(policy="v2", seed=12, max_blocks=100, graph_n=8,
                    miners=(classical_spec(0), solver_spec(1, speed=1000.0)))
    res = simulate(cfg)
    assert res.replacement_heights, "tiny instances should be solved"
    assert res.replacement_heights[0] < 49
    assert len(res.graphs) == len(res.replacement_heights) + 1
    # Published best at a replacement equals that instance's true optimum.
    first = res.replacement_heights[0]
    epoch0_best = max(r.best_score for r in res.records[:first + 1])
    assert epoch0_best == brute_force_max_clique(res.graphs[0])


def test_solution_blocks_strictly_raise_best_score():
    records = simulate(SimConfig(policy="v2", seed=8, max_blocks=300)).records
    best = {}
    for r in records:
        prev = best.get(r.problem_epoch, 1)
        if r.kind == "solution":
            assert r.best_score > prev
        else:
            assert r.best_score == prev
        best[r.problem_epoch] = r.best_score
