"""Event-loop mechanics: the exponential block race, solver scheduling,
attacker bookkeeping, problem replacement, and whole-run invariants."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from cliquechain.clique import (
    MAX_GRAPH_N,
    CliqueSolution,
    ProblemInstance,
    SolverCursor,
    brute_force_max_clique,
    gen_random_graph,
)
from cliquechain import engine
from cliquechain.difficulty import D_R_FLOOR
from cliquechain.engine import (
    _MINING_STREAM,
    MAX_STEP_BUDGET,
    RECORD_TYPES,
    ConfigError,
    MinerSpec,
    MinerState,
    SimConfig,
    SimRecord,
    Strategy,
    _mining_draws,
    _stream_rng,
    advance_solvers,
    bubka_strategy_step,
    default_miners,
    derive_seed,
    problem_graphs,
    sample_block_winner,
    simulate,
)
from cliquechain.io import verify_record_stream


def classical_spec(hashrate=1000.0):
    return MinerSpec(hashrate=hashrate, strategy=Strategy.CLASSICAL)


def solver_spec(hashrate=1000.0, speed=100.0):
    return MinerSpec(hashrate=hashrate, strategy=Strategy.SOLVER,
                     solver_steps_per_second=speed)


def bubka_spec(target, hashrate=1000.0, speed=100.0):
    return MinerSpec(hashrate=hashrate, strategy=Strategy.BUBKA,
                     solver_steps_per_second=speed, hoard_target=target)


def race_inputs(miners, d_b):
    """``sample_block_winner``'s inputs up to d_r, built as ``simulate``
    builds them: the roster of solving miners by id, the hashrates as a
    tuple of floats and each miner's d_b / hashrate."""
    roster = {i: st for i, st in enumerate(miners)
              if st.spec.strategy is not Strategy.CLASSICAL}
    hashrates = tuple(float(st.spec.hashrate) for st in miners)
    return roster, hashrates, [d_b / h for h in hashrates]


def draws(rng, miners):
    """One block's row of the mining stream, as ``simulate`` reads it."""
    return rng.standard_exponential(len(miners)).tolist()


def sol(score):
    return CliqueSolution(tuple(range(score)))


# ---------------------------------------------------------------------------
# Block race
# ---------------------------------------------------------------------------

def test_waiting_time_mean_matches_difficulty_over_hashrate():
    miners = [MinerState(spec=classical_spec(hashrate=10.0))]
    rng = np.random.default_rng(1)
    times = [sample_block_winner(*race_inputs(miners, 100.0), 5.0,
                                 draws(rng, miners))[2]
             for _ in range(10_000)]
    assert abs(np.mean(times) - 10.0) < 0.5        # within 5% of d/h = 10


def test_equal_miners_split_wins_evenly():
    miners = [MinerState(spec=classical_spec()) for _ in range(2)]
    rng = np.random.default_rng(2)
    wins = sum(sample_block_winner(*race_inputs(miners, 1000.0), 5.0,
                                   draws(rng, miners))[0] == 0
               for _ in range(10_000))
    sigma = (10_000 * 0.25) ** 0.5
    assert abs(wins - 5_000) < 4 * sigma


def test_held_solution_switches_kind_and_dominates_race():
    holder = MinerState(spec=solver_spec(), hoard=[sol(2)])
    rival = MinerState(spec=classical_spec())
    miners = [holder, rival]
    rng = np.random.default_rng(3)
    rounds = 10_000
    wins = 0
    for _ in range(rounds):
        miner_id, at_d_r, _ = sample_block_winner(
            *race_inputs(miners, 1000.0), 5.0, draws(rng, miners))
        if miner_id == 0:
            wins += 1
        assert at_d_r is (miner_id == 0)
    # Rates 1000/5 vs 1000/1000: P(holder) = 200/201.
    p = 200.0 / 201.0
    sigma = (rounds * p * (1 - p)) ** 0.5
    assert abs(wins - rounds * p) < 4 * sigma


def test_race_draws_match_the_exponential_oracle():
    # Scales d/h through rng.exponential, the race's reference sampler.
    def oracle(miners, d_b, d_r, rng):
        reduced = [st.mines_reduced() for st in miners]
        times = rng.exponential([(d_r if red else d_b) / st.spec.hashrate
                                 for st, red in zip(miners, reduced)])
        idx = int(np.argmin(times))
        return idx, reduced[idx], float(times[idx])

    miners = [MinerState(spec=classical_spec(3.0)),
              MinerState(spec=solver_spec(1000.0), hoard=[sol(2)]),
              MinerState(spec=solver_spec(250.0)),
              MinerState(spec=bubka_spec(2, 4e6), hoard=[sol(2)],
                         releasing=True),
              MinerState(spec=bubka_spec(2, 0.5), hoard=[sol(2)]),
              MinerState(spec=classical_spec(1e-3))]
    assert [st.mines_reduced() for st in miners] == [False, True, False,
                                                       True, False, False]
    ours, ref = np.random.default_rng(9), np.random.default_rng(9)
    difficulties = np.random.default_rng(10).uniform(-300, 10.4, (4000, 2))
    at_d_r = set()
    for d_b, d_r in (10.0 ** difficulties).tolist():
        got = sample_block_winner(*race_inputs(miners, d_b), d_r,
                                  draws(ours, miners))
        assert got == oracle(miners, d_b, d_r, ref)
        at_d_r.add(got[1])
    assert at_d_r == {False, True}
    assert ours.random() == ref.random()            # streams stay in step

    # With no miner reduced the race takes its d_b-only path.
    for st in miners:
        st.hoard.clear()
    for d_b, d_r in (10.0 ** difficulties[:500]).tolist():
        got = sample_block_winner(*race_inputs(miners, d_b), d_r,
                                  draws(ours, miners))
        assert got == oracle(miners, d_b, d_r, ref)
        assert got[1] is False
    assert ours.random() == ref.random()


def test_race_times_are_exact_at_d_b_one_ulp_apart():
    # Consecutive blocks whose d_b differ by one ulp each race at exactly
    # e * (d_b / h), with no rounding of their own.
    miners = [MinerState(spec=classical_spec(h))
              for h in (3.0, 7.0, 1000.0, 0.3)]
    hashrates = [st.spec.hashrate for st in miners]
    rng = np.random.default_rng(11)
    d_b = 1000.0
    for _ in range(200):
        row = draws(rng, miners)
        want = [e * (d_b / h) for e, h in zip(row, hashrates)]
        idx = want.index(min(want))
        assert sample_block_winner(*race_inputs(miners, d_b), 5.0,
                                   row) == (idx, False, want[idx])
        d_b = math.nextafter(d_b, math.inf)


def test_simulate_races_at_the_current_d_b(monkeypatch):
    calls = []

    def recording(roster, hashrates, scales, d_r, row):
        won = sample_block_winner(roster, hashrates, scales, d_r, row)
        calls.append((list(scales), d_r, won[1]))
        return won

    cfg = SimConfig(policy="v1", seed=5, max_blocks=300, graph_n=20)
    monkeypatch.setattr(engine, "sample_block_winner", recording)
    records = simulate(cfg).records
    scales, d_rs, at_d_r = zip(*calls)
    hashrates = [spec.hashrate for spec in cfg.miners]
    mined_at = [cfg.initial_db] + [r.d_b for r in records[:-1]]
    assert len(set(mined_at)) > 5                 # d_b retargets in this run
    assert list(scales) == [[d_b / h for h in hashrates] for d_b in mined_at]
    # d_r is the previous block's, and a block is a solution block exactly
    # when its race was won at d_r.
    assert list(d_rs) == [cfg.initial_dr] + [r.d_r for r in records[:-1]]
    assert len(set(d_rs)) > 5                     # d_r retargets too
    assert [r.kind == "solution" for r in records] == list(at_d_r)
    assert sum(at_d_r) == 52


def test_race_tie_goes_to_the_lowest_id():
    miners = [MinerState(spec=classical_spec()) for _ in range(3)]
    assert sample_block_winner(*race_inputs(miners, 1000.0), 5.0,
                               [0.5, 0.25, 0.25]) == (1, False, 0.25)
    assert sample_block_winner(*race_inputs(miners, 1000.0), 5.0,
                               [0.5, 0.5, 0.5]) == (0, False, 0.5)


def test_race_time_of_inf_never_wins():
    # d_b / 1e-300 overflows to inf as plain float division: no warning.
    miners = [MinerState(spec=classical_spec(1e-300)),
              MinerState(spec=classical_spec())]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sample_block_winner(*race_inputs(miners, 1e10), 5.0,
                                  [1e-9, 50.0])
    assert got == (1, False, 50.0 * (1e10 / 1000.0))


def test_race_with_empty_hoards_runs_at_d_b():
    # A roster whose hoards are all empty races at d_b, an attacker still
    # marked as releasing included.
    miners = [MinerState(spec=classical_spec()),
              MinerState(spec=solver_spec(hashrate=500.0)),
              MinerState(spec=bubka_spec(target=2)),
              MinerState(spec=bubka_spec(target=1), releasing=True)]
    inputs = race_inputs(miners, 1000.0)
    rng = np.random.default_rng(4)
    for _ in range(200):
        row = draws(rng, miners)
        times = [d * scale for d, scale in zip(row, inputs[2])]
        idx = times.index(min(times))
        assert sample_block_winner(*inputs, 5.0, row) == (idx, False,
                                                          times[idx])


def test_releasing_attacker_races_at_d_r():
    attacker = MinerState(spec=bubka_spec(target=2), hoard=[sol(3)])
    miners = [MinerState(spec=classical_spec()), attacker]
    inputs = race_inputs(miners, 1000.0)
    # Holding a find below its target, the attacker races at d_b.
    assert sample_block_winner(*inputs, 5.0, [0.01, 1.0]) == (0, False, 0.01)
    attacker.releasing = True
    assert sample_block_winner(*inputs, 5.0, [0.01, 1.0]) == (
        1, True, 1.0 * (5.0 / 1000.0))


@pytest.mark.parametrize("cfg", [
    SimConfig(policy="bitcoin", seed=1, max_blocks=300),
    SimConfig(policy="v1", seed=2, max_blocks=300),
    SimConfig(policy="v2", seed=3, max_blocks=300),
    SimConfig(policy="v2", seed=99, max_blocks=300,
              miners=(classical_spec(),) * 10 + (bubka_spec(2, speed=5),)),
], ids=["bitcoin", "v1", "v2", "bubka"])
def test_simulated_records_hold_the_field_types(cfg):
    records = simulate(cfg).records
    assert {r.kind for r in records} == (
        {"classical"} if cfg.policy == "bitcoin"
        else {"classical", "solution"})
    for r in records:
        assert type(r) is SimRecord
        assert tuple(map(type, r)) == RECORD_TYPES


@pytest.mark.parametrize("m", [1, 11, 20, 3000])
@pytest.mark.parametrize("max_blocks", [2500, 700])
def test_mining_rows_match_one_draw_per_block(m, max_blocks):
    # simulate draws up to 1,024 rows at once; 2,500 rows cross two chunk
    # boundaries, and a run shorter than 1,024 blocks draws smaller chunks.
    # 3,000 miners draw 21 rows at a time, the most under 2**16 floats.
    cfg = SimConfig(policy="bitcoin", seed=5, max_blocks=max_blocks,
                    miners=(classical_spec(),) * m)
    rows = _mining_draws(cfg)
    per_block = _stream_rng(cfg.seed, _MINING_STREAM)
    for _ in range(2500):
        assert next(rows) == per_block.standard_exponential(m).tolist()


def test_mining_draws_hold_a_bounded_buffer():
    # Drawing 1,024 rows of 2,000 miners at once held about 80 MB; rows of
    # at most 2**16 floats hold about 3 MB at the peak, records included.
    cfg = SimConfig(policy="bitcoin", seed=1, max_blocks=1100,
                    miners=(classical_spec(),) * 2000)
    tracemalloc.start()
    try:
        records = simulate(cfg).records
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 1100
    assert peak <= 8e6


def test_attacker_mines_reduced_only_while_releasing():
    st = MinerState(spec=bubka_spec(target=2))
    assert not st.mines_reduced()
    st.hoard = [sol(3)]
    assert not st.mines_reduced()
    st.releasing = True
    assert st.mines_reduced()
    st.hoard = []
    assert not st.mines_reduced()


def test_wins_scale_with_hashrate():
    cfg = SimConfig(policy="bitcoin", seed=17, max_blocks=6000,
                    miners=(classical_spec(1000.0),
                            classical_spec(2000.0),
                            classical_spec(3000.0)))
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
        spec = solver_spec(speed=speed)
    else:
        spec = bubka_spec(target=target, speed=speed)
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


def test_step_budget_is_the_floor_of_the_total():
    # Totals are never negative, so truncating them is flooring them; a
    # floor reference must leave the same carry and step count, the
    # capped total included.
    graph = gen_random_graph(60, 0.5, 16)
    problem = ProblemInstance(graph=graph, epoch=0)
    cursor = SolverCursor(graph)
    cursor.advance(10 ** 9, graph.n)
    tree_size = cursor.steps_consumed
    rng = np.random.Generator(np.random.PCG64(6))
    triples = [(10 ** rng.uniform(-2, 3), rng.uniform(0, 2), rng.random())
               for _ in range(100)]
    triples += [(0.1, 30.0, 0.0), (3.0, 1 / 3, 1 - 2 ** -53),
                (1e10, 1e300, 0.5)]
    for rate, dt, carry in triples:
        st = make_solver(graph, speed=rate)
        st.carry = carry
        advance_solvers([st], dt, problem)
        total = min(rate * dt + carry, MAX_STEP_BUDGET)
        budget = math.floor(total)
        assert st.carry == total - budget, (rate, dt, carry)
        assert st.cursor.steps_consumed == min(budget, tree_size)
    assert total == MAX_STEP_BUDGET and st.cursor.exhausted


def test_negative_dt_rejected():
    graph = gen_random_graph(10, 0.5, 1)
    st = make_solver(graph)
    with pytest.raises(ValueError):
        advance_solvers([st], -0.1, ProblemInstance(graph=graph, epoch=0))


def test_non_solvers_and_exhausted_cursors_idle():
    graph = gen_random_graph(10, 0.5, 2)
    worker = make_solver(graph, speed=1e6)
    problem = ProblemInstance(graph=graph, epoch=0)
    advance_solvers([worker], 1.0, problem)
    assert worker.cursor.exhausted
    drained = worker.cursor.steps_consumed
    advance_solvers([worker], 1.0, problem)
    assert worker.cursor.steps_consumed == drained


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
        spec = MinerSpec(hashrate=1000.0, strategy=strategy,
                         solver_steps_per_second=1e6, hoard_target=target)
        cfg = SimConfig(policy="v2", seed=0, graph_n=8, max_blocks=4,
                        miners=(spec,))
        published[strategy] = [(r.height, r.best_score)
                               for r in simulate(cfg).records
                               if r.kind == "solution" and r.problem_epoch == 0]
    assert published == {Strategy.SOLVER: [(1, 3)],
                         Strategy.BUBKA: [(1, 2), (2, 3)]}


def test_bubka_prune_and_release_lifecycle():
    # The search of this graph finds cliques of 2, 3 and 4 at steps 3, 4
    # and 10; at one step a second, dt counts steps.
    graph = gen_random_graph(18, 0.5, 31)
    problem = ProblemInstance(graph=graph, epoch=0)
    st = make_solver(graph, speed=1.0, strategy="bubka", target=3)
    advance_solvers([st], 4.0, problem)
    bubka_strategy_step(st, 1)
    assert [s.score for s in st.hoard] == [2, 3] and not st.releasing
    advance_solvers([st], 6.0, problem)            # the third find
    assert [s.score for s in st.hoard] == [2, 3, 4] and st.releasing
    bubka_strategy_step(st, 3)                     # published best catches up
    assert [s.score for s in st.hoard] == [4] and st.releasing
    bubka_strategy_step(st, 4)
    assert st.hoard == [] and not st.releasing


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_fills_stock_population_and_reduced_difficulty():
    cfg = SimConfig(policy="v2", seed=1)
    assert cfg.initial_dr == cfg.eta * cfg.initial_db == 5.0
    assert len(cfg.miners) == 20
    cfg_btc = SimConfig(policy="bitcoin", seed=1)
    assert len(cfg_btc.miners) == 10
    assert all(m.strategy is Strategy.CLASSICAL for m in cfg_btc.miners)


def test_default_population_split():
    miners = default_miners("v1")
    assert [m.strategy for m in miners[:10]] == [Strategy.CLASSICAL] * 10
    assert [m.strategy for m in miners[10:]] == [Strategy.SOLVER] * 10
    assert {m.hashrate for m in miners} == {1000.0}
    assert [m.solver_steps_per_second for m in (miners[0], miners[10])] == [
        0.0, 100.0]


def test_config_rejects_bad_configs():
    with pytest.raises(ConfigError):
        SimConfig(policy="v9", seed=1)
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=-1)
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=1, eta=1.5)
    with pytest.raises(ConfigError):
        SimConfig(policy="v1", seed=1, n1=0)
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=1, t2_solution=0.0)
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=1, max_update_factor=1.0)
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=1, graph_p=1.0)
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=1, initial_dr=-3.0)
    with pytest.raises(ConfigError):
        SimConfig(policy="v2", seed=1, initial_dr=D_R_FLOOR / 2)
    with pytest.raises(ConfigError):
        dataclasses.replace(SimConfig(policy="v1", seed=1), n1=0)


def test_graph_n_is_bounded_at_build_time():
    # Building a config allocates no graph, so the bound itself is cheap
    # to accept; one vertex more is refused before any run starts.
    assert SimConfig(policy="v2", seed=1, graph_n=MAX_GRAPH_N).graph_n == (
        MAX_GRAPH_N)
    for n in (MAX_GRAPH_N + 1, 100_000, 0):
        with pytest.raises(ConfigError, match="graph_n"):
            SimConfig(policy="v2", seed=1, graph_n=n)


def test_miner_spec_validation():
    with pytest.raises(ConfigError):
        MinerSpec(hashrate=0.0, strategy=Strategy.CLASSICAL)
    with pytest.raises(ConfigError):
        MinerSpec(hashrate=1.0, strategy=Strategy.SOLVER,
                  solver_steps_per_second=0.0)
    with pytest.raises(ConfigError):
        MinerSpec(hashrate=1.0, strategy=Strategy.BUBKA,
                  solver_steps_per_second=10.0)
    with pytest.raises(ConfigError):
        MinerSpec(hashrate=1.0, strategy=Strategy.CLASSICAL,
                  hoard_target=2)
    with pytest.raises(ConfigError):
        MinerSpec(strategy=Strategy.CLASSICAL,
                  solver_steps_per_second=50.0)


def test_derive_seed_is_pure_and_spreads():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    seeds = {derive_seed(42, i, j) for i in range(10) for j in range(10)}
    assert len(seeds) == 100


def test_problem_seeds_are_the_run_graphs_seeds():
    # Graph k is drawn from the k-th integers(0, 2**63) draw of the
    # problem stream, spawn key 1 of the master seed.
    cfg = SimConfig(policy="bitcoin", seed=3, max_blocks=380)
    graphs = simulate(cfg).graphs
    stream = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=3, spawn_key=(1,))))
    expect = [int(stream.integers(0, 2 ** 63)) for _ in graphs]
    assert len(graphs) == 8
    assert [g.seed for g in graphs] == expect
    drawn = [g for _, g in zip(range(8), problem_graphs(cfg))]
    assert [g.seed for g in drawn] == expect
    assert drawn == graphs


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
                    miners=tuple(classical_spec() for _ in range(10)))
    res = simulate(cfg)
    assert res.replacement_heights == [49, 99, 149]
    assert len(res.graphs) == 4
    epochs = [r.problem_epoch for r in res.records]
    assert epochs[49] == 0 and epochs[50] == 1 and epochs[100] == 2


def test_window_zero_disables_stagnation_replacement():
    cfg = SimConfig(policy="v2", seed=4, max_blocks=120, saturation_window=0,
                    miners=tuple(classical_spec() for _ in range(10)))
    res = simulate(cfg)
    assert res.replacement_heights == []
    assert len(res.graphs) == 1


def test_proven_optimum_replaces_before_the_window():
    cfg = SimConfig(policy="v2", seed=12, max_blocks=100, graph_n=8,
                    miners=(classical_spec(), solver_spec(speed=1000.0)))
    res = simulate(cfg)
    assert res.replacement_heights, "tiny instances should be solved"
    assert res.replacement_heights[0] < 49
    assert len(res.graphs) == len(res.replacement_heights) + 1
    # Published best at a replacement equals that instance's true optimum.
    first = res.replacement_heights[0]
    epoch0_best = max(r.best_score for r in res.records[:first + 1])
    assert epoch0_best == brute_force_max_clique(res.graphs[0])


def test_bitcoin_gives_listed_solvers_no_search(monkeypatch):
    # Bitcoin pays for no solution, so solvers and attackers only hash.
    def refuse(*args, **kwargs):
        raise AssertionError("built a SolverCursor")

    monkeypatch.setattr(engine, "SolverCursor", refuse)
    cfg = SimConfig(policy="bitcoin", seed=3, max_blocks=300, graph_n=8,
                    miners=(classical_spec(), solver_spec(speed=1e6),
                            bubka_spec(1, speed=1e6)))
    records = simulate(cfg).records
    assert {r.kind for r in records} == {"classical"}
    assert {r.miner_id for r in records} == {0, 1, 2}
    with pytest.raises(AssertionError, match="SolverCursor"):
        simulate(dataclasses.replace(cfg, policy="v2"))


@pytest.mark.parametrize("policy", ["v1", "v2"])
def test_classical_miners_get_no_roster_entry(monkeypatch, policy):
    rosters = []
    real = engine._reseed_solvers

    def recording(roster, *args):
        rosters.append(dict(roster))
        real(roster, *args)

    monkeypatch.setattr(engine, "_reseed_solvers", recording)
    miners = (classical_spec(), solver_spec(), classical_spec(),
              bubka_spec(2), classical_spec())
    simulate(SimConfig(policy=policy, seed=2, max_blocks=120, graph_n=8,
                       miners=miners))
    assert len(rosters) > 1         # the first problem and a replacement
    for roster in rosters:
        assert sorted(roster) == [1, 3]
        assert all(st.spec is miners[i] for i, st in roster.items())


@pytest.mark.parametrize("target", [None, 2, 3], ids=lambda t: f"target{t}")
@pytest.mark.parametrize("policy", ["v1", "v2"])
def test_solved_out_is_the_proven_optimum_rule(monkeypatch, policy, target):
    # The rule this restates: once every cursor is exhausted, the best
    # score held or published anywhere is the optimum, and the problem is
    # spent when the published best reaches it.
    real = engine.check_saturation_and_replace
    old, new = [], []
    optimum = math.inf              # of the active problem, once proven
    proved_while_held = 0

    def checked(problem, height, config, graphs, solving):
        nonlocal optimum, proved_while_held
        held = [s.score for st in solving for s in st.hoard]
        assert all(score > problem.best_score for score in held)
        if optimum == math.inf and all(st.cursor.exhausted
                                       for st in solving):
            optimum = max([problem.best_score] + held)
            proved_while_held += bool(held)
        if problem.best_score >= optimum:
            old.append((height, "solved"))
        elif (height - problem.last_improvement_height
              >= config.saturation_window):
            old.append((height, "stagnant"))
        fresh = real(problem, height, config, graphs, solving)
        if fresh is not None:
            new.append(height)
            optimum = math.inf
        return fresh

    monkeypatch.setattr(engine, "check_saturation_and_replace", checked)
    honest = (solver_spec(speed=20.0), solver_spec(speed=60.0))
    populations = [honest]
    if target is not None:
        attacker = (bubka_spec(target, speed=100.0),)
        populations = [honest + attacker, attacker]
    for solvers in populations:
        for seed in range(2):
            for n in (6, 8, 10):
                optimum = math.inf
                simulate(SimConfig(policy=policy, seed=seed, graph_n=n,
                                   max_blocks=300,
                                   miners=(classical_spec(),) + solvers))
    assert [h for h, _ in old] == new
    causes = {cause for _, cause in old}
    assert causes == ({"solved"} if target is None
                      else {"solved", "stagnant"})
    assert proved_while_held > 0


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


@pytest.mark.parametrize("cfg", [
    SimConfig(policy="v2", seed=1, max_blocks=6000),
    SimConfig(policy="v2", seed=1, max_blocks=20_000,
              miners=tuple(classical_spec() for _ in range(10))),
], ids=["default-population", "zero-solver"])
def test_long_v2_runs_hold_d_r_at_the_floor(cfg, policy_calls):
    # Without the floor, droughts drive d_r to zero and both runs stop.
    res = simulate(cfg)
    assert len(res.records) == cfg.max_blocks
    verify_record_stream(res.records, res.graphs)
    assert res.records[-1].d_r == D_R_FLOOR
    assert any(u.rule == "floor"
               for _, applied in policy_calls for u in applied)


def test_each_state_holds_one_block_of_changes(policy_calls):
    # simulate clears a state's updates right after on_block returns it,
    # so every call starts from none, and the changes the calls apply
    # still chain into one history that the records follow.
    for cfg in (SimConfig(policy="bitcoin", seed=3, max_blocks=400),
                SimConfig(policy="v1", seed=3, max_blocks=400),
                SimConfig(policy="v2", seed=3, max_blocks=400)):
        policy_calls.clear()
        records = simulate(cfg).records
        assert len(policy_calls) == len(records)
        assert all(received == () for received, _ in policy_calls)
        current = {"d_b": cfg.initial_db, "d_r": cfg.initial_dr}
        for record, (_, applied) in zip(records, policy_calls):
            for u in applied:
                assert u.height == record.height
                assert u.old == current[u.name]
                current[u.name] = u.new
            assert (record.d_b, record.d_r) == (current["d_b"],
                                                current["d_r"])
        names = {u.name for _, applied in policy_calls for u in applied}
        assert names == ({"d_b"} if cfg.policy == "bitcoin"
                         else {"d_b", "d_r"})
