"""Blocks and the rule that appends them.

Nothing stores the chain: each block is checked against its parent, the
active problem instance and the difficulty state, with no forks,
transactions or hash header.  What the rule enforces is the solution
economy: a solution block must carry a genuine clique for the active
problem instance and must strictly beat the best score already published
for that instance, so the per-epoch score sequence is strictly increasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .clique import CliqueSolution, ProblemInstance, is_clique

if TYPE_CHECKING:
    from .difficulty import DifficultyState


class ChainError(Exception):
    """A block fails an append-time check; the message names which."""


@dataclass(slots=True)
class Block:
    """A block is a solution block exactly when it carries a solution."""

    height: int
    miner_id: int
    sim_time: float
    difficulty_used: float
    problem_epoch: int
    solution: CliqueSolution | None = None


def append_block(parent: Block | None, block: Block,
                 problem: ProblemInstance, state: "DifficultyState") -> None:
    """Validate ``block`` as the child of ``parent`` (``None`` for the
    first block) and publish its solution, if any.

    A block's time must exceed its parent's, and the first block's must
    exceed 0.  The difficulty check is exact: the block must have been
    mined at the policy's current d_r if it carries a solution and at d_b
    otherwise, so it is positive.  The solution must be a genuine clique
    of the active problem's graph and strictly improve its published
    best, which is then raised to its score.
    """
    height = 0 if parent is None else parent.height + 1
    if block.height != height:
        raise ChainError(f"expected height {height}, got {block.height}")
    earliest = 0.0 if parent is None else parent.sim_time
    if not earliest < block.sim_time:
        raise ChainError(
            f"block time {block.sim_time} does not advance past {earliest}")
    if block.problem_epoch != problem.epoch:
        raise ChainError(
            f"block targets epoch {block.problem_epoch}, "
            f"active epoch is {problem.epoch}")

    sol = block.solution
    expected = state.d_b if sol is None else state.d_r
    if block.difficulty_used != expected:
        raise ChainError(
            f"{'classical' if sol is None else 'solution'} block used "
            f"difficulty {block.difficulty_used}, policy state says "
            f"{expected}")
    if sol is not None:
        if not is_clique(problem.graph, sol.vertices):
            raise ChainError(f"vertices {sol.vertices} are not a clique")
        if sol.score <= problem.best_score:
            raise ChainError(
                f"score {sol.score} does not beat published best "
                f"{problem.best_score}")
        problem.best_score = sol.score
