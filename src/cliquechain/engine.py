"""Event-driven mining simulation.

Each round is an exponential race: every miner draws a waiting time with
mean (its difficulty / its hashrate), the minimum wins the block, and by
memorylessness the losers simply redraw next round.  A miner sitting on an
unpublished improvement races at the reduced difficulty d_r and its win
becomes a solution block; everyone else races at d_b.

Between blocks the solver miners push their clique enumerations forward in
proportion to elapsed simulated time.  Solved-out or stagnant problem
instances are swapped for fresh graphs; the difficulty state carries over.
"""

from __future__ import annotations

import enum
import math
import typing
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .clique import (
    MAX_GRAPH_N,
    CliqueSolution,
    Graph,
    ProblemInstance,
    SolverCursor,
    gen_random_graph,
    is_clique,
)
from .difficulty import (D_R_FLOOR, Block, ConfigError, DifficultyPolicy,
                         DifficultyState)

DEFAULT_HASHRATE = 1000.0
# Full enumeration of a default 60-vertex instance takes ~4800 steps, so at
# 100 steps/s one default solver exhausts it in roughly 500 block times at
# the default 0.1 s target.
DEFAULT_SOLVER_STEPS_PER_SECOND = 100.0
DEFAULT_ETA = 1.0 / 200.0
DEFAULT_MAX_UPDATE_FACTOR = 4.0
# A solver's step budget per block, far above any search tree, so an
# overflowing budget still means "search to exhaustion".
MAX_STEP_BUDGET = 2.0 ** 63


class Strategy(str, enum.Enum):
    CLASSICAL = "classical"
    SOLVER = "solver"
    BUBKA = "bubka-attacker"


@dataclass(frozen=True)
class MinerSpec:
    """One miner, validated when built; its id is its index in
    ``SimConfig.miners``.  A solving miner's speed defaults to
    DEFAULT_SOLVER_STEPS_PER_SECOND; a classical miner's is always 0."""

    strategy: Strategy
    hashrate: float = DEFAULT_HASHRATE
    solver_steps_per_second: float | None = None
    hoard_target: int | None = None

    def __post_init__(self):
        solves = self.strategy is not Strategy.CLASSICAL
        if self.solver_steps_per_second is None:
            object.__setattr__(self, "solver_steps_per_second",
                               DEFAULT_SOLVER_STEPS_PER_SECOND if solves
                               else 0.0)
        for name in ("hashrate", "solver_steps_per_second"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.hashrate <= 0:
            raise ConfigError("hashrate must be positive")
        if solves and self.solver_steps_per_second <= 0:
            raise ConfigError(f"{self.strategy.value} miner needs "
                              "solver_steps_per_second > 0")
        if not solves and self.solver_steps_per_second:
            raise ConfigError("solver_steps_per_second only applies to "
                              "solving miners")
        if self.strategy is Strategy.BUBKA:
            if self.hoard_target is None or self.hoard_target < 1:
                raise ConfigError("bubka-attacker needs hoard_target >= 1")
        elif self.hoard_target is not None:
            raise ConfigError("hoard_target only applies to bubka-attacker")


@dataclass(slots=True)
class MinerState:
    """Mutable state of one solving miner; classical miners have none.

    ``simulate`` gives every miner of its roster a ``cursor`` on the
    active problem before the first block.  ``carry`` is the fractional
    solver step left over from the previous round.  ``hoard`` holds the
    miner's unpublished finds, ascending by score, each above the
    published best.  An honest solver keeps only its latest find there;
    an attacker keeps every find, and its ``releasing`` flips on once the
    hoard reaches its target and stays on until it drains.
    """

    spec: MinerSpec
    cursor: SolverCursor | None = None
    hoard: list[CliqueSolution] = field(default_factory=list)
    carry: float = 0.0
    releasing: bool = False

    def mines_reduced(self) -> bool:
        return bool(self.hoard) and (self.releasing or
                                     self.spec.strategy is Strategy.SOLVER)


@dataclass(frozen=True)
class SimConfig:
    """Full simulation setup; field names match the config-file keys.

    Building a config, ``dataclasses.replace`` included, validates it
    (raising ConfigError) and fills its defaults: ``initial_dr = None``
    becomes eta * initial_db, and an empty miner list the stock
    population (10 classical miners under the bitcoin baseline, 10
    classical plus 10 solvers otherwise).  They are filled once, so a
    ``replace`` that changes ``eta``, ``initial_db`` or ``policy`` keeps
    them unless it passes ``initial_dr=None`` or ``miners=()``.
    """

    policy: str
    seed: int
    eta: float = DEFAULT_ETA
    n1: int = 10
    target_time: float = 0.1
    n2_classical: int = 10
    n2_solution: int = 5
    t2_classical: float = 0.1
    t2_solution: float = 0.1
    max_update_factor: float = DEFAULT_MAX_UPDATE_FACTOR
    initial_db: float = 1000.0
    initial_dr: float | None = None
    graph_n: int = 60
    graph_p: float = 0.5
    max_blocks: int = 200
    saturation_window: int = 50
    miners: tuple[MinerSpec, ...] = ()

    def __post_init__(self):
        for name in FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if self.policy not in ("bitcoin", "v1", "v2"):
            raise ConfigError(f"unknown policy {self.policy!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError("eta must lie in (0, 1]")
        for name in ("n1", "n2_classical", "n2_solution"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("target_time", "t2_classical", "t2_solution",
                     "initial_db"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.max_update_factor <= 1.0:
            raise ConfigError("max_update_factor must exceed 1")
        if not 1 <= self.graph_n <= MAX_GRAPH_N:
            raise ConfigError(f"graph_n must lie in [1, {MAX_GRAPH_N}]")
        if not 0.0 < self.graph_p < 1.0:
            raise ConfigError("graph_p must lie strictly between 0 and 1")
        if self.max_blocks < 1:
            raise ConfigError("max_blocks must be >= 1")
        if self.saturation_window < 0:
            raise ConfigError("saturation_window must be >= 0")

        if self.initial_dr is None:
            object.__setattr__(self, "initial_dr", self.eta * self.initial_db)
        if self.initial_dr < D_R_FLOOR:
            raise ConfigError(f"initial_dr must be at least {D_R_FLOOR}")

        object.__setattr__(self, "miners",
                           tuple(self.miners) or default_miners(self.policy))


# The float-valued SimConfig fields, in field order; every SimConfig field
# is also a config-file key.
FLOAT_FIELDS = tuple(name for name, kind
                     in typing.get_type_hints(SimConfig).items()
                     if kind in (float, float | None))


def default_miners(policy: str) -> tuple[MinerSpec, ...]:
    """Stock population: 10 classical miners, plus 10 solvers when the
    policy actually pays for solutions."""
    specs = [MinerSpec(strategy=Strategy.CLASSICAL)] * 10
    if policy != "bitcoin":
        specs += [MinerSpec(strategy=Strategy.SOLVER)] * 10
    return tuple(specs)


class SimRecord(typing.NamedTuple):
    """One per-block log row; difficulties are post-update values."""

    height: int
    sim_time: float
    kind: str
    miner_id: int
    d_b: float
    d_r: float
    best_score: int
    problem_epoch: int
    cum_classical: int
    cum_solution: int


@dataclass
class SimResult:
    """Everything a run produced, for writers and experiments."""

    records: list[SimRecord]
    graphs: list[Graph]
    replacement_heights: list[int]


# ---------------------------------------------------------------------------
# Deterministic seed plumbing
# ---------------------------------------------------------------------------

_MINING_STREAM = 0
_PROBLEM_STREAM = 1
_PERMUTATION_STREAM = 2


def derive_seed(master: int, *key: int) -> int:
    """Pure (master, key...) -> seed map used for sweep cells and runs."""
    seq = np.random.SeedSequence(entropy=master, spawn_key=tuple(key))
    return int(seq.generate_state(1, np.uint64)[0])


def _stream_rng(master: int, *key: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(seq))


def _mining_draws(cfg: SimConfig):
    """Yield the mining substream one block's row at a time, one standard
    exponential per miner; on PCG64 a (rows, m) draw is rows draws of m."""
    rng = _stream_rng(cfg.seed, _MINING_STREAM)
    shape = (min(1024, cfg.max_blocks), len(cfg.miners))
    while True:
        yield from rng.standard_exponential(shape).tolist()


def _solver_order(master: int, miner_id: int, epoch: int, n: int) -> list[int]:
    rng = _stream_rng(master, _PERMUTATION_STREAM, miner_id, epoch)
    return rng.permutation(n).tolist()


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

class ChainError(Exception):
    """A solution block breaks the publish rule; the message says how."""


def append_block(problem: ProblemInstance, block: Block) -> None:
    """Publish ``block``'s solution, if it carries one, on ``problem``.

    The solution must be a genuine clique of the problem's graph and
    strictly improve its published best, which is then raised to its
    score.  ``simulate`` builds each block's height, time and epoch
    itself, so they hold by construction; ``verify_record_stream``
    checks them over written records.
    """
    sol = block.solution
    if sol is None:
        return
    if not is_clique(problem.graph, sol.vertices):
        raise ChainError(f"vertices {sol.vertices} are not a clique")
    if sol.score <= problem.best_score:
        raise ChainError(f"score {sol.score} does not beat published best "
                         f"{problem.best_score}")
    problem.best_score = sol.score


def sample_block_winner(roster: dict[int, MinerState],
                        hashrates: tuple[float, ...], scales: list[float],
                        d_r: float, draws: list[float]
                        ) -> tuple[int, bool, float]:
    """Run one exponential race and return (miner id, whether it mined at
    d_r, waiting time).

    Each miner's time is exponential with mean difficulty/hashrate, where
    the difficulty is d_r for the ``roster`` members currently working a
    held solution and d_b for everyone else.  ``scales`` holds each
    miner's d_b / hashrate, which the caller rebuilds only when d_b
    moves; ``draws`` holds one standard exponential per miner.  Ties go
    to the lowest miner id; a time of inf never wins.
    """
    times = list(map(mul, draws, scales))
    reduced = [i for i, st in roster.items() if st.mines_reduced()]
    for i in reduced:
        times[i] = draws[i] * (d_r / hashrates[i])
    idx = times.index(min(times))
    return idx, idx in reduced, times[idx]


def advance_solvers(miners: list[MinerState], dt: float,
                    problem: ProblemInstance) -> None:
    """Advance every solving miner by floor(steps_per_second * dt + carry)
    enumeration steps, at most MAX_STEP_BUDGET, preserving the carry.

    A solver banks each improvement it finds in its hoard: an honest
    solver's find replaces the one it held, an attacker's is appended and
    starts release mode once the hoard reaches its target.  The report
    threshold is the published best or the miner's own best find,
    whichever is higher, so successive finds within one interval keep
    improving.  The published best is read once: only ``append_block``
    raises it, and ``simulate`` calls that after this call.
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    best = problem.best_score
    for st in miners:
        cursor = st.cursor
        total = min(st.spec.solver_steps_per_second * dt + st.carry,
                    MAX_STEP_BUDGET)
        budget = int(total)  # total lies in [0, 2**63]: truncation floors
        st.carry = total - budget
        while budget > 0 and not cursor.exhausted:
            threshold = max(best, st.hoard[-1].score) if st.hoard else best
            before = cursor.steps_consumed
            found = cursor.advance(budget, threshold)
            budget -= cursor.steps_consumed - before
            if found is None:
                break
            if st.spec.strategy is Strategy.BUBKA:
                st.hoard.append(found)
                if len(st.hoard) >= st.spec.hoard_target:
                    st.releasing = True
            else:
                st.hoard[:] = [found]


def bubka_strategy_step(st: MinerState, chain_best: int) -> None:
    """Prune a miner's hoard against the published best.

    Entries that no longer beat the published best are worthless and are
    dropped.  Release mode, once ``advance_solvers`` starts it, persists
    until the hoard drains, even if pruning shrinks it midway.
    """
    st.hoard = [sol for sol in st.hoard if sol.score > chain_best]
    if not st.hoard:
        st.releasing = False


def check_saturation_and_replace(problem: ProblemInstance, height: int,
                                 config: SimConfig,
                                 rng: np.random.Generator,
                                 solving: list[MinerState],
                                 ) -> ProblemInstance | None:
    """Decide, after the block at ``height``, whether the active problem is
    spent; if so build its successor.

    Two triggers: the problem is solved out, or the best score has been
    frozen for a full saturation window of blocks.  Solved out means
    ``solving`` is nonempty, every cursor in it is exhausted and no hoard
    holds a find.  After every block each held find beats the published
    best (a find is banked only above it, and every publish prunes every
    hoard), so that is exactly when the published best has reached the
    best clique any search found, the instance's optimum.  The
    replacement is a fresh graph at epoch + 1; difficulties are not
    touched.
    """
    done = solving and all(st.cursor.exhausted and not st.hoard
                           for st in solving)
    stagnant = (config.saturation_window > 0
                and height - problem.last_improvement_height
                >= config.saturation_window)
    if not (done or stagnant):
        return None
    seed = int(rng.integers(0, 2 ** 63))
    graph = gen_random_graph(config.graph_n, config.graph_p, seed)
    return ProblemInstance(graph=graph, epoch=problem.epoch + 1,
                           last_improvement_height=height)


def _reseed_solvers(roster: dict[int, MinerState], problem: ProblemInstance,
                    master_seed: int, walks: dict | None) -> None:
    for miner_id, st in roster.items():
        order = _solver_order(master_seed, miner_id, problem.epoch,
                              problem.graph.n)
        st.cursor = SolverCursor(problem.graph, order, walks)
        st.hoard.clear()
        st.releasing = False


def simulate(cfg: SimConfig, walks: dict | None = None) -> SimResult:
    """Run the full event loop and return records, graphs and replacements.

    Runs given the same ``walks`` dict share their search walks (see
    ``SolverCursor``); the results are those of separate runs.
    """
    policy = DifficultyPolicy(cfg)
    state = DifficultyState(d_b=cfg.initial_db, d_r=cfg.initial_dr)
    mining_draws = _mining_draws(cfg)
    problem_rng = _stream_rng(cfg.seed, _PROBLEM_STREAM)

    problem = ProblemInstance(
        graph=gen_random_graph(cfg.graph_n, cfg.graph_p,
                               int(problem_rng.integers(0, 2 ** 63))),
        epoch=0)
    hashrates = tuple(float(spec.hashrate) for spec in cfg.miners)
    # The roster of solving miners; bitcoin pays for no solution, so there
    # every miner only hashes.
    roster = {} if cfg.policy == "bitcoin" else {
        i: MinerState(spec=spec) for i, spec in enumerate(cfg.miners)
        if spec.strategy is not Strategy.CLASSICAL}
    solving = list(roster.values())
    _reseed_solvers(roster, problem, cfg.seed, walks)

    records: list[SimRecord] = []
    graphs = [problem.graph]
    replacement_heights: list[int] = []
    cum_solution = 0
    now = 0.0
    d_b = None

    for height, draws in zip(range(cfg.max_blocks), mining_draws):
        # Each miner's d_b / hashrate changes only when d_b does.
        if state.d_b != d_b:
            d_b = state.d_b
            scales = [d_b / h for h in hashrates]
        miner_id, at_d_r, dt = sample_block_winner(
            roster, hashrates, scales, state.d_r, draws)
        # Long droughts can push d_r so low that a waiting time drops under
        # the clock's float resolution; advance by at least one ulp so block
        # times stay strictly increasing.
        now = max(now + dt, math.nextafter(now, math.inf))
        if now == math.inf:
            raise ConfigError(f"height {height}: block time overflows")
        if solving:
            advance_solvers(solving, dt, problem)

        solution = roster[miner_id].hoard.pop(0) if at_d_r else None
        block = Block(height, now, solution)
        append_block(problem, block)

        if at_d_r:
            cum_solution += 1
            problem.last_improvement_height = height
            for st in solving:
                bubka_strategy_step(st, solution.score)

        state = policy.on_block(state, block)
        state.updates = ()
        kind = "solution" if at_d_r else "classical"
        records.append(SimRecord(height, now, kind, miner_id, state.d_b,
                                 state.d_r, problem.best_score, problem.epoch,
                                 height + 1 - cum_solution, cum_solution))

        fresh = check_saturation_and_replace(problem, height, cfg,
                                             problem_rng, solving)
        if fresh is not None:
            replacement_heights.append(height)
            problem = fresh
            graphs.append(problem.graph)
            _reseed_solvers(roster, problem, cfg.seed, walks)

    return SimResult(records=records, graphs=graphs,
                     replacement_heights=replacement_heights)
