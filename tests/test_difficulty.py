"""Retargeting arithmetic for all three policies, pinned against values
recomputed by hand."""

import numpy as np
import pytest

from cliquechain.chain import Block, BlockKind
from cliquechain.clique import CliqueSolution
from cliquechain.difficulty import (
    DifficultyPolicy,
    DifficultyState,
    NonPositiveFactor,
    clamp_factor,
    on_block_bitcoin,
    on_block_v1,
    on_block_v2,
)
from cliquechain.engine import SimConfig

DUMMY_SOLUTION = CliqueSolution(problem_epoch=0, vertices=(0,), score=1)


def blk(kind, t, height=0):
    solution = DUMMY_SOLUTION if kind is BlockKind.SOLUTION else None
    return Block(height=height, kind=kind, miner_id=0, sim_time=t,
                 difficulty_used=1.0, problem_epoch=0, solution=solution)


def feed_v2(state, params, kinds, times, start=0):
    for i, (kind, t) in enumerate(zip(kinds, times), start):
        state = on_block_v2(state, params, blk(kind, t, height=i))
    return state


# ---------------------------------------------------------------------------
# Clamping
# ---------------------------------------------------------------------------

def test_clamp_factor_pinned_values():
    assert clamp_factor(1.0, 4.0) == 1.0
    assert clamp_factor(2.5, 4.0) == 2.5
    assert clamp_factor(17.3, 4.0) == 4.0
    assert clamp_factor(4.0, 4.0) == 4.0
    assert clamp_factor(0.01, 4.0) == 0.25
    assert clamp_factor(0.25, 4.0) == 0.25
    assert clamp_factor(3.0, 2.0) == 2.0


def test_clamp_factor_rejects_non_positive():
    with pytest.raises(NonPositiveFactor):
        clamp_factor(0.0, 4.0)
    with pytest.raises(NonPositiveFactor):
        clamp_factor(-2.0, 4.0)


def test_state_requires_positive_difficulties():
    with pytest.raises(ValueError):
        DifficultyState(d_b=0.0, d_r=1.0)
    with pytest.raises(ValueError):
        DifficultyState(d_b=1.0, d_r=-5.0)


# ---------------------------------------------------------------------------
# Coupled policy (v1)
# ---------------------------------------------------------------------------

V1 = SimConfig(policy="v1", seed=0, eta=0.005, n1=4, target_time=0.1)


def run_v1(times, d_b=100.0, d_r=0.5, start=0.0):
    state = DifficultyState(d_b=d_b, d_r=d_r, epoch_start_time=start)
    for i, t in enumerate(times):
        state = on_block_v1(state, V1, blk(BlockKind.CLASSICAL, t, height=i))
    return state


def test_v1_is_inert_mid_epoch():
    state = run_v1([0.05, 0.10, 0.15])
    assert (state.d_b, state.d_r) == (100.0, 0.5)
    assert state.epoch_count == 3
    assert state.updates == ()


def test_v1_fast_epoch_doubles_both():
    # Epoch of 4 blocks spanning 0.2s against a 0.4s budget: raw factor
    # 4 * 0.1 / 0.2 = 2, then d_r is pulled toward eta * d_b_new:
    # 0.005 * 200 / 0.5 = 2.  Both land inside the clamp.
    state = run_v1([0.05, 0.10, 0.15, 0.20])
    raw_b = 4 * 0.1 / 0.2
    new_db = 100.0 * raw_b
    new_dr = 0.5 * (0.005 * new_db / 0.5)
    assert state.d_b == new_db == 200.0
    assert state.d_r == new_dr == 1.0
    assert state.epoch_count == 0
    assert state.epoch_start_time == 0.20


def test_v1_on_target_epoch_is_a_fixed_point():
    state = run_v1([0.1, 0.2, 0.3, 0.4])
    assert (state.d_b, state.d_r) == (100.0, 0.5)
    assert len(state.updates) == 2      # factor-1 retargets still audited


def test_v1_slow_epoch_clamps_at_quarter():
    state = run_v1([1.0, 2.0, 3.0, 4.0])
    assert state.d_b == 25.0
    assert state.d_r == 0.125


def test_v1_zero_elapsed_takes_full_upward_clamp():
    state = run_v1([1.0, 1.0, 1.0, 1.0], start=1.0)
    assert state.d_b == 400.0
    assert state.d_r == 2.0


def test_v1_ratio_relaxes_toward_eta():
    # Hold block production exactly on target (0.25s spacing is exact in
    # binary, so d_b never moves); d_r walks multiplicatively from 50 down
    # to eta * d_b = 0.5, clamped to a quarter per epoch.
    params = SimConfig(policy="v1", seed=0, eta=0.005, n1=4, target_time=0.25)
    state = DifficultyState(d_b=100.0, d_r=50.0)
    trajectory = []
    for i in range(24):
        state = on_block_v1(state, params, blk(BlockKind.CLASSICAL,
                                               0.25 * (i + 1)))
        if state.epoch_count == 0:
            trajectory.append(state.d_r)
    assert state.d_b == 100.0
    assert trajectory == [12.5, 3.125, 0.78125, 0.5, 0.5, 0.5]


def test_v1_update_audit_trail():
    state = run_v1([0.05, 0.10, 0.15, 0.20])
    assert [(u.height, u.name, u.rule) for u in state.updates] == [
        (3, "d_b", "retarget"), (3, "d_r", "retarget")]
    assert {u.name: u.new for u in state.updates if u.height == 3} == {
        "d_b": 200.0, "d_r": 1.0}


# ---------------------------------------------------------------------------
# Independent policy (v2)
# ---------------------------------------------------------------------------

V2 = SimConfig(policy="v2", seed=0, n2_classical=10, n2_solution=5,
               t2_classical=0.1, t2_solution=0.1)


def test_v2_drought_quarters_reduced_difficulty():
    state = DifficultyState(d_b=1000.0, d_r=1000.0)
    times = [0.1 * (i + 1) for i in range(10)]
    state = feed_v2(state, V2, [BlockKind.CLASSICAL] * 10, times)
    assert state.d_r == 250.0
    assert state.d_b == 1000.0          # epoch exactly on target
    assert state.consecutive_classical == 0
    droughts = [u for u in state.updates if u.rule == "drought"]
    assert [(u.height, u.old, u.new) for u in droughts] == [(9, 1000.0, 250.0)]


def test_v2_repeated_droughts_compound():
    state = DifficultyState(d_b=1000.0, d_r=1000.0)
    times = [0.1 * (i + 1) for i in range(30)]
    state = feed_v2(state, V2, [BlockKind.CLASSICAL] * 30, times)
    assert state.d_r == 1000.0 / 4 ** 3
    assert len([u for u in state.updates if u.rule == "drought"]) == 3


def test_v2_solution_breaks_streak_but_not_classical_epoch():
    kinds = ([BlockKind.CLASSICAL] * 9 + [BlockKind.SOLUTION]
             + [BlockKind.CLASSICAL] * 10)
    times = [0.1 * (i + 1) for i in range(20)]
    state = DifficultyState(d_b=1000.0, d_r=1000.0)
    mid = feed_v2(state, V2, kinds[:10], times[:10])
    assert mid.consecutive_classical == 0
    assert mid.epoch_count == 9         # solution does not reset it
    assert not any(u.rule == "drought" for u in mid.updates)

    end = feed_v2(mid, V2, kinds[10:], times[10:], start=10)
    droughts = [u for u in end.updates if u.rule == "drought"]
    assert [(u.height, u.new / u.old) for u in droughts] == [(19, 0.25)]
    # The classical epoch completed at the 10th classical block (height 10).
    classical_retargets = [u for u in end.updates if u.name == "d_b"]
    assert [u.height for u in classical_retargets] == [10]


def test_v2_solution_epoch_retargets_on_its_own_clock():
    state = DifficultyState(d_b=1000.0, d_r=100.0)
    on_target = feed_v2(state, V2, [BlockKind.SOLUTION] * 5,
                        [0.1 * (i + 1) for i in range(5)])
    assert on_target.d_r == 100.0

    fast = feed_v2(state, V2, [BlockKind.SOLUTION] * 5,
                   [0.05 * (i + 1) for i in range(5)])
    assert fast.d_r == 200.0            # raw 5*0.1/0.25 = 2
    assert fast.d_b == 1000.0
    assert fast.solution_count_in_epoch == 0


def test_v2_drought_and_retarget_fire_together():
    # 10 consecutive classical blocks spanning 0.5s: the d_b epoch doubles
    # d_b and the drought rule quarters d_r on the same block.
    state = DifficultyState(d_b=1000.0, d_r=1000.0)
    state = feed_v2(state, V2, [BlockKind.CLASSICAL] * 10,
                    [0.05 * (i + 1) for i in range(10)])
    assert state.d_b == 2000.0
    assert state.d_r == 250.0
    assert [u.rule for u in state.updates] == ["retarget", "drought"]


# ---------------------------------------------------------------------------
# Baseline policy
# ---------------------------------------------------------------------------

BTC = SimConfig(policy="bitcoin", seed=0, n1=10, target_time=0.1)


def run_bitcoin(times, d_b=1000.0):
    state = DifficultyState(d_b=d_b, d_r=5.0)
    for t in times:
        state = on_block_bitcoin(state, BTC, blk(BlockKind.CLASSICAL, t))
    return state


def test_bitcoin_on_target_is_fixed_point():
    state = run_bitcoin([0.1 * (i + 1) for i in range(10)])
    assert state.d_b == 1000.0
    assert state.d_r == 5.0


def test_bitcoin_fast_epoch_doubles():
    state = run_bitcoin([0.05 * (i + 1) for i in range(10)])
    assert state.d_b == 2000.0
    assert state.d_r == 5.0


def test_bitcoin_never_touches_reduced_difficulty():
    state = run_bitcoin([0.01 * (i + 1) for i in range(50)])
    assert state.d_r == 5.0
    assert all(u.name == "d_b" for u in state.updates)


def test_bitcoin_clamped_epochs_compound_exactly():
    # Five consecutive near-instant epochs each take the full 4x step.
    times = [1e-6 * (i + 1) for i in range(50)]
    state = run_bitcoin(times)
    assert state.d_b == 1000.0 * 4 ** 5


# ---------------------------------------------------------------------------
# Policy wrapper
# ---------------------------------------------------------------------------

def test_policy_wrapper_dispatch_matches_free_functions():
    state = DifficultyState(d_b=100.0, d_r=0.5)
    block = blk(BlockKind.CLASSICAL, 0.07)

    p1 = DifficultyPolicy(V1)
    assert p1.on_block(state, block) == on_block_v1(state, V1, block)
    assert p1.uses_solutions

    p2 = DifficultyPolicy(V2)
    assert p2.on_block(state, block) == on_block_v2(state, V2, block)
    assert p2.uses_solutions

    pb = DifficultyPolicy(BTC)
    assert pb.on_block(state, block) == on_block_bitcoin(state, BTC, block)
    assert not pb.uses_solutions


# ---------------------------------------------------------------------------
# Invariant fuzz (small; the acceptance suite runs the big one)
# ---------------------------------------------------------------------------

def test_random_walks_respect_clamp_and_positivity():
    rng = np.random.default_rng(2024)
    for trial in range(5):
        kinds = rng.random(400) < 0.3
        gaps = rng.exponential(0.1, size=400)
        times = np.cumsum(gaps)
        v1_state = DifficultyState(d_b=1000.0, d_r=5.0)
        v2_state = DifficultyState(d_b=1000.0, d_r=5.0)
        btc_state = DifficultyState(d_b=1000.0, d_r=5.0)
        for i in range(400):
            kind = BlockKind.SOLUTION if kinds[i] else BlockKind.CLASSICAL
            block = blk(kind, float(times[i]), height=i)
            v1_state = on_block_v1(v1_state, V1, block)
            v2_state = on_block_v2(v2_state, V2, block)
            btc_state = on_block_bitcoin(btc_state, BTC, block)
        for state in (v1_state, v2_state, btc_state):
            assert state.d_b > 0 and state.d_r > 0
            for u in state.updates:
                ratio = u.new / u.old
                assert 0.25 * (1 - 1e-12) <= ratio <= 4.0 * (1 + 1e-12)
                if u.rule == "drought":
                    assert u.new == u.old / 4.0
