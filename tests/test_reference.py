"""An end-to-end reference simulator, compared record for record with
``simulate``.

The reference restates the whole model from its description and shares
no code with ``src/``: graphs and cliques are plain dicts and sets, the
search is a lazy recursive Bron-Kerbosch generator with the Tomita pivot,
each graph is drawn by the per-pair G(n, p) loop, each block is one
exponential race, and the three difficulty policies, the d_r floor, the
hoard rules and problem replacement are each written out again.  From
``cliquechain`` it takes only the config and record types, ``Strategy``
and, to compare against, ``simulate``.

It runs every config in ``configs/`` as one ``simulate``, and the
configs that ``test_accepted_configs.py`` draws from its seeded
generator.  A run must give the same records, graphs and replacement
heights; a run that fails must fail in both with the same error class at
the same height.
"""

import dataclasses
import itertools
import math
import random
import re
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from cliquechain.engine import SimConfig, SimRecord, Strategy, simulate
from test_accepted_configs import CONFIGS, MASTER_SEED, _config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# The model's constants.
FIRST_BEST = 1                    # a single vertex is a clique
MAX_BUDGET = 2.0 ** 63            # a solver's step budget per block
FLOOR = sys.float_info.min        # no v2 update takes d_r below it
MINING, PROBLEMS, ORDERS = 0, 1, 2  # spawn keys of the run's streams


class ConfigError(Exception):
    """A difficulty or the clock leaves the finite positive range."""


class ChainError(Exception):
    """A solution block is not a clique or does not improve the best."""


def stream(seed, *key):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def draw_graph(n, p, seed):
    """G(n, p): one uniform draw per pair u < v, in (u, v) order."""
    draws = iter(np.random.Generator(np.random.PCG64(seed)).random(
        n * (n - 1) // 2).tolist())
    adj = {v: set() for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if next(draws) < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def bron_kerbosch(adj, order):
    """Yield the clique of every node of the search tree, in preorder.

    The pivot is the vertex of P | X with the most neighbours in P, the
    first in ``order`` on a tie; the children P \\ N(pivot) go in
    ``order``, each moving from P to X once its subtree is done."""
    rank = {v: i for i, v in enumerate(order)}

    def expand(r, p, x):
        yield r
        if not p:
            return
        pivot = max(sorted(p | x, key=rank.get),
                    key=lambda u: len(p & adj[u]))
        for v in sorted(p - adj[pivot], key=rank.get):
            yield from expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    return expand(frozenset(), frozenset(adj), frozenset())


class Solver:
    """One solving miner: its search of the active graph and its hoard of
    unpublished finds, as sorted vertex tuples."""

    def __init__(self, spec):
        self.spec = spec
        self.carry = 0.0

    def start(self, adj, order):
        """Search a fresh graph from the root, with an empty hoard; the
        carry stays."""
        self.tree = bron_kerbosch(adj, order)
        self.exhausted = False
        self.hoard = []
        self.releasing = False

    def search(self, budget, threshold):
        """Walk up to ``budget`` tree nodes; return the nodes walked and
        the first clique larger than ``threshold``, or None.  The search
        is exhausted when it runs out of nodes with budget left."""
        for walked in range(1, budget + 1):
            r = next(self.tree, None)
            if r is None:
                self.exhausted = True
                return walked - 1, None
            if len(r) > threshold:
                return walked, tuple(sorted(r))
        return budget, None

    def work(self, dt, best):
        """Search for ``dt`` seconds of the miner's speed, banking finds."""
        total = min(self.spec.solver_steps_per_second * dt + self.carry,
                    MAX_BUDGET)
        budget = int(total)
        self.carry = total - budget
        while budget > 0 and not self.exhausted:
            threshold = max(best, len(self.hoard[-1])) if self.hoard else best
            walked, found = self.search(budget, threshold)
            budget -= walked
            if found is None:
                return
            if self.spec.strategy is Strategy.BUBKA:
                self.hoard.append(found)
                if len(self.hoard) >= self.spec.hoard_target:
                    self.releasing = True
            else:
                self.hoard = [found]

    def mines_reduced(self):
        return bool(self.hoard) and (self.releasing or
                                     self.spec.strategy is Strategy.SOLVER)


class Policy:
    """The difficulty state of a run and the rules that move it."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.d = {"d_b": cfg.initial_db, "d_r": cfg.initial_dr}
        self.count, self.start = 0, 0.0            # the d_b epoch
        self.solutions, self.solution_start = 0, 0.0  # v2's d_r epoch
        self.streak = 0                             # consecutive classical

    def set(self, name, value, height, floor=0.0):
        value = max(value, floor)
        if not 0.0 < value < math.inf:
            raise ConfigError(f"height {height}: {name} -> {value!r}")
        self.d[name] = value

    def factor(self, blocks, target, elapsed):
        x = self.cfg.max_update_factor
        if elapsed <= 0:
            return x
        return min(max(blocks * target / elapsed, 1.0 / x), x)

    def d_b_epoch(self, height, now, blocks, target):
        self.count += 1
        if self.count < blocks:
            return False
        self.set("d_b", self.d["d_b"] * self.factor(blocks, target,
                                                    now - self.start), height)
        self.count, self.start = 0, now
        return True

    def after(self, height, now, solved):
        cfg, x = self.cfg, self.cfg.max_update_factor
        if cfg.policy == "bitcoin":
            self.d_b_epoch(height, now, cfg.n1, cfg.target_time)
        elif cfg.policy == "v1":
            if self.d_b_epoch(height, now, cfg.n1, cfg.target_time):
                pull = min(max(cfg.eta * self.d["d_b"] / self.d["d_r"],
                               1.0 / x), x)
                self.set("d_r", self.d["d_r"] * pull, height)
        elif not solved:
            self.d_b_epoch(height, now, cfg.n2_classical, cfg.t2_classical)
            self.streak += 1
            if self.streak >= cfg.n2_classical:
                self.set("d_r", self.d["d_r"] / x, height, FLOOR)
                self.streak = 0
        else:
            self.streak = 0
            self.solutions += 1
            if self.solutions == cfg.n2_solution:
                f = self.factor(cfg.n2_solution, cfg.t2_solution,
                                now - self.solution_start)
                self.set("d_r", self.d["d_r"] * f, height, FLOOR)
                self.solutions, self.solution_start = 0, now


def reference(cfg):
    """Run ``cfg``; return its records, its graphs' (n, seed, edges) and
    its replacement heights."""
    policy = Policy(cfg)
    mining = stream(cfg.seed, MINING)
    problems = stream(cfg.seed, PROBLEMS)
    hashrates = [spec.hashrate for spec in cfg.miners]
    solvers = {} if cfg.policy == "bitcoin" else {
        i: Solver(spec) for i, spec in enumerate(cfg.miners)
        if spec.strategy is not Strategy.CLASSICAL}
    records, graphs, replaced = [], [], []
    epoch, now, solution_blocks = -1, 0.0, 0

    def new_problem(height):
        nonlocal adj, epoch, best, improved
        seed = int(problems.integers(0, 2 ** 63))
        adj = draw_graph(cfg.graph_n, cfg.graph_p, seed)
        graphs.append((cfg.graph_n, seed, {(u, v) for u in adj
                                           for v in adj[u] if u < v}))
        epoch, best, improved = epoch + 1, FIRST_BEST, height
        for i, solver in solvers.items():
            order = stream(cfg.seed, ORDERS, i, epoch).permutation(
                cfg.graph_n).tolist()
            solver.start(adj, order)

    adj = best = improved = None
    new_problem(-1)
    for height in range(cfg.max_blocks):
        reduced = [i in solvers and solvers[i].mines_reduced()
                   for i in range(len(cfg.miners))]
        times = mining.exponential(
            [policy.d["d_r" if red else "d_b"] / h
             for red, h in zip(reduced, hashrates)]).tolist()
        winner = min(range(len(times)), key=times.__getitem__)
        dt = times[winner]
        now = max(now + dt, math.nextafter(now, math.inf))
        if now == math.inf:
            raise ConfigError(f"height {height}: the clock overflows")
        for solver in solvers.values():
            solver.work(dt, best)

        solved = reduced[winner]
        if solved:
            clique = solvers[winner].hoard.pop(0)
            if not all(v in adj[u] for u, v in
                       itertools.combinations(clique, 2)):
                raise ChainError(f"{clique} is not a clique")
            if len(clique) <= best:
                raise ChainError(f"{clique} does not beat {best}")
            best, improved = len(clique), height
            solution_blocks += 1
            for solver in solvers.values():
                solver.hoard = [c for c in solver.hoard if len(c) > best]
                if not solver.hoard:
                    solver.releasing = False

        policy.after(height, now, solved)
        records.append(SimRecord(
            height, now, "solution" if solved else "classical", winner,
            policy.d["d_b"], policy.d["d_r"], best, epoch,
            height + 1 - solution_blocks, solution_blocks))

        solved_out = solvers and all(s.exhausted and not s.hoard
                                     for s in solvers.values())
        stagnant = (cfg.saturation_window > 0
                    and height - improved >= cfg.saturation_window)
        if solved_out or stagnant:
            replaced.append(height)
            new_problem(height)
    return records, graphs, replaced


def run_simulate(cfg):
    result = simulate(cfg)
    graphs = [(g.n, g.seed, {(u, v) for u in range(g.n)
                             for v in range(u + 1, g.n) if g.has_edge(u, v)})
              for g in result.graphs]
    return result.records, graphs, result.replacement_heights


def outcome(run, cfg):
    """``("ran", *what the run gives back)``, or the class of its error
    and the height its message names."""
    try:
        return ("ran", *run(cfg))
    except Exception as exc:
        height = re.match(r"height (\d+):", str(exc))
        return type(exc).__name__, height and int(height[1])


def read_config(path):
    """A config file as ``SimConfig``: ``key = value`` lines, and miner
    lines built on a stock classical or solver miner.  Read here rather
    than by ``io.parse_config`` so that the oracle shares no more of
    ``src/`` than its module docstring says."""
    kinds = typing.get_type_hints(SimConfig)
    stock = SimConfig(policy="v2", seed=0).miners
    fields, miners = {}, []
    for line in path.read_text().splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        key, value = key.strip(), value.strip()
        if key == "miner":
            attrs = dict(part.split("=") for part in value.split())
            strategy = Strategy(attrs.pop("strategy"))
            spec = dataclasses.replace(
                stock[0] if strategy is Strategy.CLASSICAL else stock[-1],
                strategy=strategy,
                **{k: int(v) if k == "hoard_target" else float(v)
                   for k, v in attrs.items() if k != "count"})
            miners += [spec] * int(attrs.get("count", 1))
        elif key:
            kind = kinds[key]
            fields[key] = (value if kind is str else
                           int(value) if kind is int else float(value))
    return SimConfig(miners=tuple(miners), **fields)


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CONFIG_DIR.glob("*.cfg")))
def test_shipped_configs_match_the_reference(name):
    cfg = read_config(CONFIG_DIR / name)
    assert outcome(run_simulate, cfg) == outcome(reference, cfg)


def test_drawn_configs_match_the_reference():
    rng = random.Random(MASTER_SEED)
    outcomes = []
    for i in range(CONFIGS):
        cfg = _config(rng)
        got = outcome(run_simulate, cfg)
        assert got == outcome(reference, cfg), f"draw {i}: {cfg}"
        outcomes.append(got[0])
    # As in test_accepted_configs: 41 draws run, the rest exit 2.
    assert outcomes.count("ran") == 41
    assert set(outcomes) == {"ran", "ConfigError"}
