"""Chain state and block validation.

The chain is a plain list of blocks: no forks, no transactions, no hash
header.  What it enforces is the solution economy: a solution block must
carry a genuine clique for the active problem instance and must strictly
beat the best score already published for that instance, so the per-epoch
score sequence is strictly increasing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .clique import INITIAL_BEST_SCORE, CliqueSolution, Graph, is_clique

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


@dataclass
class Chain:
    """Append-only block list plus the per-epoch published-best table.

    ``active_epoch`` is bumped by the engine when a problem instance is
    replaced; appends are validated against it.
    """

    blocks: list[Block] = field(default_factory=list)
    best_score_per_epoch: dict[int, int] = field(default_factory=dict)
    active_epoch: int = 0

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    def best_score(self, epoch: int) -> int:
        return self.best_score_per_epoch.get(epoch, INITIAL_BEST_SCORE)

    def begin_epoch(self, epoch: int) -> None:
        if epoch <= self.active_epoch:
            raise ChainError("epochs must advance")
        self.active_epoch = epoch


def verify_solution_block(block: Block, graph: Graph,
                          current_best: int) -> bool:
    """True iff the block's payload is a clique that beats current_best.

    Pure check, O(score^2) edge lookups; ties are not improvements.
    """
    if block.solution is None:
        return False
    sol = block.solution
    return sol.score > current_best and is_clique(graph, sol.vertices)


def append_block(chain: Chain, block: Block, graph: Graph,
                 state: "DifficultyState") -> None:
    """Validate ``block`` against the chain tip and append it.

    The difficulty check is exact: the block must have been mined at the
    policy's current d_b (classical) or d_r (solution).  Solution blocks
    must target the active epoch, be genuine cliques, and strictly improve
    the published best for that epoch.
    """
    if block.height != len(chain.blocks):
        raise ChainError(
            f"expected height {len(chain.blocks)}, got {block.height}")
    if chain.blocks and block.sim_time <= chain.blocks[-1].sim_time:
        raise NonMonotonicTime(
            f"block time {block.sim_time} does not advance past "
            f"{chain.blocks[-1].sim_time}")
    if block.problem_epoch != chain.active_epoch:
        raise ChainError(
            f"block targets epoch {block.problem_epoch}, "
            f"active epoch is {chain.active_epoch}")

    expected = state.d_r if block.kind is BlockKind.SOLUTION else state.d_b
    if block.difficulty_used != expected:
        raise InvalidDifficulty(
            f"{block.kind.value} block used difficulty "
            f"{block.difficulty_used}, policy state says {expected}")

    if block.kind is BlockKind.SOLUTION:
        sol = block.solution
        if not is_clique(graph, sol.vertices):
            raise MalformedClique(
                f"vertices {sol.vertices} are not a clique")
        best = chain.best_score(block.problem_epoch)
        if sol.score <= best:
            raise StaleSolution(
                f"score {sol.score} does not beat published best {best}")
        chain.best_score_per_epoch[block.problem_epoch] = sol.score

    chain.blocks.append(block)
