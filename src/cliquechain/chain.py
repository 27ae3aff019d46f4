"""Blocks and the rule that appends them.

Nothing stores the chain: each block is checked against its parent, the
active problem instance and the difficulty state, with no forks,
transactions or hash header.  What the rule enforces is the solution
economy: a solution block must carry a genuine clique for the active
problem instance and must strictly beat the best score already published
for that instance, so the per-epoch score sequence is strictly increasing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .clique import CliqueSolution, ProblemInstance, is_clique

if TYPE_CHECKING:
    from .difficulty import DifficultyState


class ChainError(Exception):
    """Base class for append-time validation failures."""


class InvalidDifficulty(ChainError):
    """Block difficulty does not match the policy state for its kind."""


class StaleSolution(ChainError):
    """Solution does not strictly improve the published best."""


class MalformedClique(ChainError):
    """Claimed solution is not a clique of the active graph."""


class NonMonotonicTime(ChainError):
    """Block timestamp does not advance past its parent."""


class BlockKind(str, enum.Enum):
    CLASSICAL = "classical"
    SOLUTION = "solution"


@dataclass(frozen=True)
class Block:
    height: int
    kind: BlockKind
    miner_id: int
    sim_time: float
    difficulty_used: float
    problem_epoch: int
    solution: CliqueSolution | None = None

    def __post_init__(self):
        if self.height < 0:
            raise ValueError("height must be non-negative")
        if self.sim_time < 0:
            raise ValueError("sim_time must be non-negative")
        if self.difficulty_used <= 0:
            raise ValueError("difficulty_used must be positive")
        has_solution = self.solution is not None
        if (self.kind is BlockKind.SOLUTION) != has_solution:
            raise ValueError("solution payload must match block kind")
        if has_solution and self.solution.problem_epoch != self.problem_epoch:
            raise ValueError("solution epoch must match block epoch")


def append_block(parent: Block | None, block: Block,
                 problem: ProblemInstance, state: "DifficultyState") -> None:
    """Validate ``block`` as the child of ``parent`` (``None`` for the
    first block) and publish its solution, if any.

    The difficulty check is exact: the block must have been mined at the
    policy's current d_b (classical) or d_r (solution).  Solution blocks
    must target the active problem, be genuine cliques of its graph, and
    strictly improve its published best, which is then raised to their
    score.
    """
    height = 0 if parent is None else parent.height + 1
    if block.height != height:
        raise ChainError(f"expected height {height}, got {block.height}")
    if parent is not None and block.sim_time <= parent.sim_time:
        raise NonMonotonicTime(
            f"block time {block.sim_time} does not advance past "
            f"{parent.sim_time}")
    if block.problem_epoch != problem.epoch:
        raise ChainError(
            f"block targets epoch {block.problem_epoch}, "
            f"active epoch is {problem.epoch}")

    expected = state.d_r if block.kind is BlockKind.SOLUTION else state.d_b
    if block.difficulty_used != expected:
        raise InvalidDifficulty(
            f"{block.kind.value} block used difficulty "
            f"{block.difficulty_used}, policy state says {expected}")

    if block.kind is BlockKind.SOLUTION:
        sol = block.solution
        if not is_clique(problem.graph, sol.vertices):
            raise MalformedClique(
                f"vertices {sol.vertices} are not a clique")
        if sol.score <= problem.best_score:
            raise StaleSolution(
                f"score {sol.score} does not beat published best "
                f"{problem.best_score}")
        problem.best_score = sol.score
