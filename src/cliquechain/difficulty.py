"""Difficulty retargeting policies.

Three policies share one state type and one clamping rule: every multiplier
applied to a difficulty is clamped into [1/x, x].

* bitcoin: one difficulty, retargeted every ``epoch_length`` blocks toward a
  target block time.
* v1 (coupled): both difficulties move every ``epoch_length`` blocks.  d_b
  retargets like bitcoin, then d_r is pulled multiplicatively toward
  eta * d_b, each leg clamped, so the ratio d_r/d_b relaxes to eta.
* v2 (independent): d_b retargets after every ``classical_epoch`` classical
  blocks, d_r after every ``solution_epoch`` solution blocks, each against
  its own wall-clock span.  On top of that sits the drought rule: a run of
  ``classical_epoch`` consecutive classical blocks drops d_r by the full
  factor x, making unsolved problems progressively cheaper to claim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .chain import Block, BlockKind

DEFAULT_MAX_UPDATE_FACTOR = 4.0


class NonPositiveFactor(ValueError):
    """Raw retarget factor was zero or negative."""


def clamp_factor(raw: float, max_update_factor: float) -> float:
    """Clamp a raw multiplicative update into [1/x, x]."""
    if raw <= 0:
        raise NonPositiveFactor(f"update factor must be positive, got {raw}")
    x = max_update_factor
    return min(max(raw, 1.0 / x), x)


def _retarget_factor(n_blocks: int, target_time: float, elapsed: float,
                     max_update_factor: float) -> float:
    # A degenerate epoch (elapsed <= 0) means blocks came absurdly fast;
    # treat it as the hardest possible upward correction.
    if elapsed <= 0:
        return max_update_factor
    return clamp_factor(n_blocks * target_time / elapsed, max_update_factor)


@dataclass(frozen=True)
class PolicyParamsV1:
    """Coupled policy: one epoch length, one time target, one ratio eta."""

    eta: float
    epoch_length: int
    target_block_time: float
    max_update_factor: float = DEFAULT_MAX_UPDATE_FACTOR

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.epoch_length < 1:
            raise ValueError("epoch_length must be >= 1")
        if self.target_block_time <= 0:
            raise ValueError("target_block_time must be positive")
        if self.max_update_factor <= 1.0:
            raise ValueError("max_update_factor must exceed 1")


@dataclass(frozen=True)
class PolicyParamsV2:
    """Independent policy: per-kind epoch lengths and time targets."""

    classical_epoch: int
    solution_epoch: int
    classical_target_time: float
    solution_target_time: float
    max_update_factor: float = DEFAULT_MAX_UPDATE_FACTOR

    def __post_init__(self):
        if self.classical_epoch < 1 or self.solution_epoch < 1:
            raise ValueError("epoch lengths must be >= 1")
        if self.classical_target_time <= 0 or self.solution_target_time <= 0:
            raise ValueError("target times must be positive")
        if self.max_update_factor <= 1.0:
            raise ValueError("max_update_factor must exceed 1")


@dataclass(frozen=True)
class DifficultyUpdate:
    """One applied difficulty change, for audit and tests."""

    height: int
    name: str            # "d_b" or "d_r"
    old: float
    new: float
    rule: str            # "retarget" or "drought"


@dataclass(frozen=True)
class DifficultyState:
    """Current difficulties plus the counters the policies run on.

    States are immutable; the on_block transitions return updated copies.
    ``updates`` holds every applied change, in order.
    """

    d_b: float
    d_r: float
    classical_count_in_epoch: int = 0
    solution_count_in_epoch: int = 0
    total_count_in_epoch: int = 0
    epoch_start_time: float = 0.0
    classical_epoch_start_time: float = 0.0
    solution_epoch_start_time: float = 0.0
    consecutive_classical: int = 0
    blocks_seen: int = 0
    updates: tuple[DifficultyUpdate, ...] = ()

    def __post_init__(self):
        if self.d_b <= 0 or self.d_r <= 0:
            raise ValueError("difficulties must stay positive")


def on_block_v1(state: DifficultyState, params: PolicyParamsV1,
                block_time: float) -> DifficultyState:
    """Apply one block under the coupled policy.

    At the end of each epoch d_b is retargeted on the epoch's wall-clock
    span, then d_r takes one clamped multiplicative step toward
    eta * d_b_new.  Solution and classical blocks count alike.
    """
    total = state.total_count_in_epoch + 1
    seen = state.blocks_seen + 1
    if total < params.epoch_length:
        return replace(state, total_count_in_epoch=total, blocks_seen=seen)

    x = params.max_update_factor
    elapsed = block_time - state.epoch_start_time
    f_b = _retarget_factor(params.epoch_length, params.target_block_time,
                           elapsed, x)
    new_db = state.d_b * f_b
    f_r = clamp_factor(params.eta * new_db / state.d_r, x)
    new_dr = state.d_r * f_r

    height = seen - 1
    updates = state.updates + (
        DifficultyUpdate(height, "d_b", state.d_b, new_db, "retarget"),
        DifficultyUpdate(height, "d_r", state.d_r, new_dr, "retarget"),
    )
    return replace(state, d_b=new_db, d_r=new_dr,
                   total_count_in_epoch=0, epoch_start_time=block_time,
                   blocks_seen=seen, updates=updates)


def on_block_v2(state: DifficultyState, params: PolicyParamsV2,
                block: Block) -> DifficultyState:
    """Apply one block under the independent policy.

    Classical blocks feed the d_b epoch and the consecutive-classical
    counter; solution blocks feed the d_r epoch and break the streak.  The
    drought rule fires whenever the streak reaches ``classical_epoch``:
    d_r is divided by the full clamp factor x and the streak restarts, as
    often as the drought persists.  The solution block that ends a streak
    does not reset the classical epoch count.
    """
    x = params.max_update_factor
    seen = state.blocks_seen + 1
    height = seen - 1
    d_b, d_r = state.d_b, state.d_r
    updates = state.updates

    if block.kind is BlockKind.CLASSICAL:
        classical = state.classical_count_in_epoch + 1
        streak = state.consecutive_classical + 1
        classical_start = state.classical_epoch_start_time
        if classical == params.classical_epoch:
            elapsed = block.sim_time - classical_start
            f_b = _retarget_factor(params.classical_epoch,
                                   params.classical_target_time, elapsed, x)
            new_db = d_b * f_b
            updates += (DifficultyUpdate(height, "d_b", d_b, new_db,
                                         "retarget"),)
            d_b = new_db
            classical = 0
            classical_start = block.sim_time
        if streak == params.classical_epoch:
            new_dr = d_r / x
            updates += (DifficultyUpdate(height, "d_r", d_r, new_dr,
                                         "drought"),)
            d_r = new_dr
            streak = 0
        return replace(state, d_b=d_b, d_r=d_r,
                       classical_count_in_epoch=classical,
                       classical_epoch_start_time=classical_start,
                       consecutive_classical=streak,
                       blocks_seen=seen, updates=updates)

    solution = state.solution_count_in_epoch + 1
    solution_start = state.solution_epoch_start_time
    if solution == params.solution_epoch:
        elapsed = block.sim_time - solution_start
        f_r = _retarget_factor(params.solution_epoch,
                               params.solution_target_time, elapsed, x)
        new_dr = d_r * f_r
        updates += (DifficultyUpdate(height, "d_r", d_r, new_dr,
                                     "retarget"),)
        d_r = new_dr
        solution = 0
        solution_start = block.sim_time
    return replace(state, d_r=d_r,
                   solution_count_in_epoch=solution,
                   solution_epoch_start_time=solution_start,
                   consecutive_classical=0,
                   blocks_seen=seen, updates=updates)


def on_block_bitcoin(state: DifficultyState, epoch_length: int,
                     target_time: float, block_time: float,
                     max_update_factor: float = DEFAULT_MAX_UPDATE_FACTOR,
                     ) -> DifficultyState:
    """Apply one block under the single-difficulty baseline.

    Every block counts toward the epoch; d_r is never touched.
    """
    total = state.total_count_in_epoch + 1
    seen = state.blocks_seen + 1
    if total < epoch_length:
        return replace(state, total_count_in_epoch=total, blocks_seen=seen)

    elapsed = block_time - state.epoch_start_time
    f_b = _retarget_factor(epoch_length, target_time, elapsed,
                           max_update_factor)
    new_db = state.d_b * f_b
    height = seen - 1
    return replace(state, d_b=new_db,
                   total_count_in_epoch=0, epoch_start_time=block_time,
                   blocks_seen=seen, updates=state.updates + (
                       DifficultyUpdate(height, "d_b", state.d_b, new_db,
                                        "retarget"),))


class DifficultyPolicy:
    """Uniform per-block interface over the three policies.

    The engine only ever calls ``on_block(state, block)``; which rule set
    runs is fixed at construction.  Under the bitcoin baseline there is a
    single difficulty, so solution publishing is disabled entirely
    (``uses_solutions`` is False).
    """

    def __init__(self, name: str,
                 v1: PolicyParamsV1 | None = None,
                 v2: PolicyParamsV2 | None = None,
                 epoch_length: int | None = None,
                 target_time: float | None = None,
                 max_update_factor: float = DEFAULT_MAX_UPDATE_FACTOR):
        if name not in ("bitcoin", "v1", "v2"):
            raise ValueError(f"unknown policy {name!r}")
        if name == "v1" and v1 is None:
            raise ValueError("v1 policy needs PolicyParamsV1")
        if name == "v2" and v2 is None:
            raise ValueError("v2 policy needs PolicyParamsV2")
        if name == "bitcoin" and (epoch_length is None or target_time is None):
            raise ValueError("bitcoin policy needs epoch_length and "
                             "target_time")
        self.name = name
        self.v1 = v1
        self.v2 = v2
        self.epoch_length = epoch_length
        self.target_time = target_time
        self.max_update_factor = max_update_factor

    @property
    def uses_solutions(self) -> bool:
        return self.name != "bitcoin"

    def initial_state(self, d_b: float, d_r: float) -> DifficultyState:
        return DifficultyState(d_b=d_b, d_r=d_r)

    def on_block(self, state: DifficultyState, block: Block,
                 ) -> DifficultyState:
        if self.name == "v1":
            return on_block_v1(state, self.v1, block.sim_time)
        if self.name == "v2":
            return on_block_v2(state, self.v2, block)
        return on_block_bitcoin(state, self.epoch_length, self.target_time,
                                block.sim_time, self.max_update_factor)
