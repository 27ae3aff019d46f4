"""Discrete-event simulator of a clique-mining proof-of-work blockchain.

Miners race to extend a chain whose difficulty policy rewards publishing
strictly improving maximum-clique solutions: a miner holding an improvement
may mine its next block at a reduced difficulty.  The package provides the
chain and difficulty rules, a resumable branch-and-bound clique solver, the
event-driven mining simulation, and drivers for the shipped experiments.
"""

__version__ = "0.1.0"

from .chain import (
    Block,
    BlockKind,
    Chain,
    ChainError,
    InvalidDifficulty,
    MalformedClique,
    NonMonotonicTime,
    StaleSolution,
    append_block,
    verify_solution_block,
)
from .clique import (
    CliqueSolution,
    CursorGraphMismatch,
    Graph,
    InvalidParams,
    ProblemInstance,
    SolverCursor,
    TooLarge,
    brute_force_max_clique,
    gen_random_graph,
)
from .difficulty import (
    DifficultyPolicy,
    DifficultyState,
    DifficultyUpdate,
    NonPositiveFactor,
    PolicyParamsV1,
    PolicyParamsV2,
    clamp_factor,
    on_block_bitcoin,
    on_block_v1,
    on_block_v2,
)
from .engine import (
    ConfigError,
    MinerSpec,
    MinerState,
    SimConfig,
    SimRecord,
    SimResult,
    Strategy,
    advance_solvers,
    bubka_strategy_step,
    check_saturation_and_replace,
    run_simulation,
    sample_block_winner,
    simulate,
)

__all__ = [
    "Block",
    "BlockKind",
    "Chain",
    "ChainError",
    "CliqueSolution",
    "ConfigError",
    "CursorGraphMismatch",
    "DifficultyPolicy",
    "DifficultyState",
    "DifficultyUpdate",
    "Graph",
    "InvalidDifficulty",
    "InvalidParams",
    "MalformedClique",
    "MinerSpec",
    "MinerState",
    "NonMonotonicTime",
    "NonPositiveFactor",
    "PolicyParamsV1",
    "PolicyParamsV2",
    "ProblemInstance",
    "SimConfig",
    "SimRecord",
    "SimResult",
    "SolverCursor",
    "StaleSolution",
    "Strategy",
    "TooLarge",
    "advance_solvers",
    "append_block",
    "brute_force_max_clique",
    "bubka_strategy_step",
    "check_saturation_and_replace",
    "clamp_factor",
    "gen_random_graph",
    "on_block_bitcoin",
    "on_block_v1",
    "on_block_v2",
    "run_simulation",
    "sample_block_winner",
    "simulate",
    "verify_solution_block",
]
