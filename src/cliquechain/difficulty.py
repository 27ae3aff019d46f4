"""Difficulty retargeting policies.

Three policies share one state type and one clamping rule: every multiplier
applied to a difficulty is clamped into [1/x, x], x = ``max_update_factor``.
Each rule reads its parameters from the ``SimConfig``.

* bitcoin: one difficulty, retargeted every ``n1`` blocks toward the
  target block time ``target_time``.
* v1 (coupled): both difficulties move every ``n1`` blocks.  d_b
  retargets like bitcoin, then d_r is pulled multiplicatively toward
  eta * d_b, each leg clamped, so the ratio d_r/d_b relaxes to eta.
* v2 (independent): d_b retargets after every ``n2_classical`` classical
  blocks against ``t2_classical``, d_r after every ``n2_solution``
  solution blocks against ``t2_solution``, each on its own wall-clock
  span.  On top of that sits the drought rule: a run of ``n2_classical``
  consecutive classical blocks drops d_r by the full factor x, making
  unsolved problems progressively cheaper to claim.  No v2 update takes
  d_r below ``D_R_FLOOR``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .clique import CliqueSolution
    from .engine import SimConfig


# Without a floor, droughts drive a long v2 run's d_r to zero: solutions
# come no faster as d_r falls, so no rule ever raises it again.
D_R_FLOOR = sys.float_info.min


class ConfigError(Exception):
    """A config cannot be read, is invalid, or drives a run out of range."""


@dataclass(slots=True)
class Block:
    """A block as the policy rules read it: a solution block exactly when
    it carries a solution."""

    height: int
    sim_time: float
    solution: CliqueSolution | None = None


def clamp_factor(raw: float, max_update_factor: float) -> float:
    """Clamp a multiplier, even an underflowed 0.0, into [1/x, x]."""
    x = max_update_factor
    return min(max(raw, 1.0 / x), x)


def _retarget_factor(n_blocks: int, target_time: float, elapsed: float,
                     max_update_factor: float) -> float:
    # A degenerate epoch (elapsed <= 0) means blocks came absurdly fast;
    # treat it as the hardest possible upward correction.
    if elapsed <= 0:
        return max_update_factor
    return clamp_factor(n_blocks * target_time / elapsed, max_update_factor)


class DifficultyUpdate(NamedTuple):
    """One applied difficulty change, for audit and tests."""

    height: int
    name: str            # "d_b" or "d_r"
    old: float
    new: float
    rule: str            # "retarget", "drought" or "floor"


@dataclass(slots=True)
class DifficultyState:
    """Current difficulties plus the counters the policies run on.

    ``epoch_count`` and ``epoch_start_time`` run the d_b epoch: every block
    counts under bitcoin and v1, classical blocks only under v2.  The
    ``solution_*`` pair runs v2's d_r epoch.  ``updates`` holds every
    applied change, in order.  The rules update a state in place, and
    only through ``set``; ``DifficultyPolicy.on_block`` hands them a copy.
    """

    d_b: float
    d_r: float
    epoch_count: int = 0
    epoch_start_time: float = 0.0
    solution_count_in_epoch: int = 0
    solution_epoch_start_time: float = 0.0
    consecutive_classical: int = 0
    updates: tuple[DifficultyUpdate, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.d_b < math.inf and 0.0 < self.d_r < math.inf):
            raise ValueError("difficulties must be finite and positive")

    def copy(self) -> DifficultyState:
        """A copy that skips the range check: ``set`` checks each change."""
        new = object.__new__(DifficultyState)
        new.d_b, new.d_r, new.updates = self.d_b, self.d_r, self.updates
        new.epoch_count = self.epoch_count
        new.epoch_start_time = self.epoch_start_time
        new.solution_count_in_epoch = self.solution_count_in_epoch
        new.solution_epoch_start_time = self.solution_epoch_start_time
        new.consecutive_classical = self.consecutive_classical
        return new

    def set(self, name: str, new: float, height: int, rule: str,
            floor: float = 0.0) -> None:
        """Set difficulty ``name`` ("d_b" or "d_r") to ``new``, or to
        ``floor`` (audited as "floor") if ``new`` is below it, and audit
        the change; a value that is not finite and positive is refused."""
        if new < floor:
            new, rule = floor, "floor"
        if not 0.0 < new < math.inf:
            raise ConfigError(
                f"height {height}: {rule} takes {name} to {new!r}, outside "
                "the finite positive range")
        self.updates += (DifficultyUpdate(height, name, getattr(self, name),
                                          new, rule),)
        setattr(self, name, new)


def _db_epoch(state: DifficultyState, block: Block, n: int,
              target_time: float, x: float) -> bool:
    """Count ``block`` toward the d_b epoch of ``n`` blocks; the epoch's
    last block retargets d_b on the epoch's wall-clock span against
    ``target_time``.  Return whether it did."""
    state.epoch_count += 1
    if state.epoch_count < n:
        return False
    elapsed = block.sim_time - state.epoch_start_time
    state.set("d_b", state.d_b * _retarget_factor(n, target_time, elapsed, x),
              block.height, "retarget")
    state.epoch_count = 0
    state.epoch_start_time = block.sim_time
    return True


def on_block_bitcoin(state: DifficultyState, cfg: SimConfig,
                     block: Block) -> None:
    """Apply one block under the single-difficulty baseline.

    Every block counts toward the ``n1``-block epoch, which retargets d_b
    on its wall-clock span against ``target_time``; d_r is never touched.
    """
    _db_epoch(state, block, cfg.n1, cfg.target_time, cfg.max_update_factor)


def on_block_v1(state: DifficultyState, cfg: SimConfig,
                block: Block) -> None:
    """Apply one block under the coupled policy.

    d_b runs the bitcoin epoch of ``n1`` blocks.  On the block that
    retargets it, d_r then takes one clamped multiplicative step toward
    eta * d_b_new.  Solution and classical blocks count alike.
    """
    x = cfg.max_update_factor
    if _db_epoch(state, block, cfg.n1, cfg.target_time, x):
        f_r = clamp_factor(cfg.eta * state.d_b / state.d_r, x)
        state.set("d_r", state.d_r * f_r, block.height, "retarget")


def on_block_v2(state: DifficultyState, cfg: SimConfig,
                block: Block) -> None:
    """Apply one block under the independent policy.

    Classical blocks feed the ``n2_classical`` d_b epoch (against
    ``t2_classical``) and the consecutive-classical counter; solution
    blocks feed the ``n2_solution`` d_r epoch (against ``t2_solution``)
    and break the streak.  The drought rule fires whenever the streak
    reaches ``n2_classical``: d_r is divided by the full clamp factor x
    and the streak restarts, as often as the drought persists.  The
    solution block that ends a streak does not reset the classical epoch
    count.  Either d_r update stops at ``D_R_FLOOR``, audited as "floor".
    """
    x = cfg.max_update_factor
    if block.solution is None:
        _db_epoch(state, block, cfg.n2_classical, cfg.t2_classical, x)
        state.consecutive_classical += 1
        if state.consecutive_classical >= cfg.n2_classical:
            state.set("d_r", state.d_r / x, block.height, "drought",
                      D_R_FLOOR)
            state.consecutive_classical = 0
        return

    state.consecutive_classical = 0
    state.solution_count_in_epoch += 1
    if state.solution_count_in_epoch == cfg.n2_solution:
        elapsed = block.sim_time - state.solution_epoch_start_time
        f_r = _retarget_factor(cfg.n2_solution, cfg.t2_solution, elapsed, x)
        state.set("d_r", state.d_r * f_r, block.height, "retarget",
                  D_R_FLOOR)
        state.solution_count_in_epoch = 0
        state.solution_epoch_start_time = block.sim_time


_RULES = {"bitcoin": on_block_bitcoin, "v1": on_block_v1, "v2": on_block_v2}


class DifficultyPolicy:
    """The per-block rule of one config.

    The engine only ever calls ``on_block(state, block)``, after it has
    published the block; the rule named by ``cfg.policy`` is looked up
    once, here, and reads only the block's height, time and solution.
    Who may publish solutions is the engine's business: under the bitcoin
    baseline it gives no miner a search, so every block is classical.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.rule = _RULES[cfg.policy]

    def on_block(self, state: DifficultyState, block: Block,
                 ) -> DifficultyState:
        """Return the state after ``block``; ``state`` is left as it was."""
        new = state.copy()
        self.rule(new, self.cfg, block)
        return new
