"""Difficulty retargeting policies.

Three policies share one state type and one clamping rule: every multiplier
applied to a difficulty is clamped into [1/x, x], x = ``max_update_factor``.
Each rule reads its parameters from the resolved ``SimConfig``.

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
  unsolved problems progressively cheaper to claim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .chain import Block, BlockKind

if TYPE_CHECKING:
    from .engine import SimConfig


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
    ``epoch_count`` and ``epoch_start_time`` run the d_b epoch: every block
    counts under bitcoin and v1, classical blocks only under v2.  The
    ``solution_*`` pair runs v2's d_r epoch.  ``updates`` holds every
    applied change, in order.
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
        if self.d_b <= 0 or self.d_r <= 0:
            raise ValueError("difficulties must stay positive")


def _db_epoch(state: DifficultyState, block: Block, n: int,
              target_time: float, x: float) -> DifficultyState:
    """Count ``block`` toward the d_b epoch of ``n`` blocks; the epoch's
    last block retargets d_b on the epoch's wall-clock span against
    ``target_time``."""
    count = state.epoch_count + 1
    if count < n:
        return replace(state, epoch_count=count)
    elapsed = block.sim_time - state.epoch_start_time
    new_db = state.d_b * _retarget_factor(n, target_time, elapsed, x)
    return replace(state, d_b=new_db,
                   epoch_count=0, epoch_start_time=block.sim_time,
                   updates=state.updates + (
                       DifficultyUpdate(block.height, "d_b", state.d_b,
                                        new_db, "retarget"),))


def on_block_bitcoin(state: DifficultyState, cfg: SimConfig,
                     block: Block) -> DifficultyState:
    """Apply one block under the single-difficulty baseline.

    Every block counts toward the ``n1``-block epoch, which retargets d_b
    on its wall-clock span against ``target_time``; d_r is never touched.
    """
    return _db_epoch(state, block, cfg.n1, cfg.target_time,
                     cfg.max_update_factor)


def on_block_v1(state: DifficultyState, cfg: SimConfig,
                block: Block) -> DifficultyState:
    """Apply one block under the coupled policy.

    d_b runs the bitcoin epoch of ``n1`` blocks.  On the block that
    retargets it, d_r then takes one clamped multiplicative step toward
    eta * d_b_new.  Solution and classical blocks count alike.
    """
    new = on_block_bitcoin(state, cfg, block)
    if new.epoch_count:
        return new
    f_r = clamp_factor(cfg.eta * new.d_b / state.d_r, cfg.max_update_factor)
    new_dr = state.d_r * f_r
    return replace(new, d_r=new_dr, updates=new.updates + (
        DifficultyUpdate(block.height, "d_r", state.d_r, new_dr,
                         "retarget"),))


def on_block_v2(state: DifficultyState, cfg: SimConfig,
                block: Block) -> DifficultyState:
    """Apply one block under the independent policy.

    Classical blocks feed the ``n2_classical`` d_b epoch (against
    ``t2_classical``) and the consecutive-classical counter; solution
    blocks feed the ``n2_solution`` d_r epoch (against ``t2_solution``)
    and break the streak.  The drought rule fires whenever the streak
    reaches ``n2_classical``: d_r is divided by the full clamp factor x
    and the streak restarts, as often as the drought persists.  The
    solution block that ends a streak does not reset the classical epoch
    count.
    """
    x = cfg.max_update_factor
    d_r = state.d_r
    if block.kind is BlockKind.CLASSICAL:
        new = _db_epoch(state, block, cfg.n2_classical, cfg.t2_classical, x)
        streak = state.consecutive_classical + 1
        if streak < cfg.n2_classical:
            return replace(new, consecutive_classical=streak)
        new_dr = d_r / x
        return replace(new, d_r=new_dr, consecutive_classical=0,
                       updates=new.updates + (
                           DifficultyUpdate(block.height, "d_r", d_r, new_dr,
                                            "drought"),))

    solution = state.solution_count_in_epoch + 1
    solution_start = state.solution_epoch_start_time
    updates = state.updates
    if solution == cfg.n2_solution:
        elapsed = block.sim_time - solution_start
        f_r = _retarget_factor(cfg.n2_solution, cfg.t2_solution, elapsed, x)
        new_dr = d_r * f_r
        updates += (DifficultyUpdate(block.height, "d_r", d_r, new_dr,
                                     "retarget"),)
        d_r = new_dr
        solution = 0
        solution_start = block.sim_time
    return replace(state, d_r=d_r,
                   solution_count_in_epoch=solution,
                   solution_epoch_start_time=solution_start,
                   consecutive_classical=0, updates=updates)


_RULES = {"bitcoin": on_block_bitcoin, "v1": on_block_v1, "v2": on_block_v2}


class DifficultyPolicy:
    """The per-block rule of one resolved config.

    The engine only ever calls ``on_block(state, block)``; the rule named by
    ``cfg.policy`` is looked up once, here.  Under the bitcoin baseline
    there is a single difficulty, so solution publishing is disabled
    entirely (``uses_solutions`` is False).
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.rule = _RULES[cfg.policy]
        self.uses_solutions = cfg.policy != "bitcoin"

    def on_block(self, state: DifficultyState, block: Block,
                 ) -> DifficultyState:
        return self.rule(state, self.cfg, block)
