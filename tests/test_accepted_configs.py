"""Every config the simulator accepts either runs or exits 2.

A seeded generator draws configs over the accepted ranges, extremes
included: floats near 1e-300 and 1e300, ``max_update_factor`` up to 1e300,
one-block epochs and tiny targets.  Each config that ``SimConfig`` accepts
is run in-process through ``cli.main simulate``; an exit of 1 (an
uncaught exception) is a bug, and the files of every run that exits 0
must pass ``verify-chain``.
"""

import random
import sys

import pytest

from cliquechain.cli import main
from cliquechain.engine import ConfigError, MinerSpec, SimConfig, Strategy
from cliquechain.io import render_config

CONFIGS = 60
MASTER_SEED = 20261018


def _positive(rng: random.Random) -> float:
    """A positive float, often at an extreme of the double range."""
    return rng.choice((
        lambda: 10.0 ** rng.uniform(-300.0, 300.0),
        lambda: rng.choice((1e-300, 1e-200, 1e200, 1e300, 1e308)),
        lambda: rng.uniform(0.01, 10.0),
    ))()


def _miners(rng: random.Random) -> tuple[MinerSpec, ...]:
    if rng.random() < 0.3:
        return ()                                   # the stock population
    specs = []
    for _ in range(rng.randint(1, 4)):
        strategy = rng.choice(list(Strategy))
        solves = strategy is not Strategy.CLASSICAL
        specs.append(MinerSpec(
            strategy=strategy, hashrate=_positive(rng),
            solver_steps_per_second=_positive(rng) if solves else None,
            hoard_target=(rng.randint(1, 4) if strategy is Strategy.BUBKA
                          else None)))
    return tuple(specs)


def _config(rng: random.Random) -> SimConfig:
    """Draw until ``SimConfig`` accepts the draw."""
    while True:
        try:
            return SimConfig(
                policy=rng.choice(("bitcoin", "v1", "v2")),
                seed=rng.randrange(2 ** 32),
                eta=rng.choice((1.0, 1e-300, 10.0 ** rng.uniform(-300, 0))),
                n1=rng.choice((1, 2, rng.randint(1, 20))),
                target_time=_positive(rng),
                n2_classical=rng.choice((1, rng.randint(1, 20))),
                n2_solution=rng.choice((1, rng.randint(1, 20))),
                t2_classical=_positive(rng),
                t2_solution=_positive(rng),
                max_update_factor=rng.choice(
                    (1.0 + 1e-12, 4.0, 1e300, 10.0 ** rng.uniform(0, 300))),
                initial_db=_positive(rng),
                initial_dr=rng.choice((None, _positive(rng))),
                graph_n=rng.choice((1, 2, rng.randint(1, 64))),
                # An unbounded step budget searches a dense random graph
                # to exhaustion, which takes minutes at p = 0.9 and n = 51;
                # the complete graph (p = 1 - 1e-16) is fast.
                graph_p=rng.choice((1e-300, 0.5, 1.0 - 1e-16,
                                    rng.uniform(1e-9, 0.7))),
                max_blocks=rng.randint(1, 200),
                saturation_window=rng.choice((0, 1, rng.randint(0, 60))),
                miners=_miners(rng))
        except ConfigError:
            continue


def test_generated_configs_run_or_exit_2(tmp_path, capsys):
    rng = random.Random(MASTER_SEED)
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    codes = {}
    for i in range(CONFIGS):
        text = render_config(_config(rng))
        path.write_text(text)
        try:
            codes[i] = main(["simulate", str(path), "--out-dir", str(out)])
        except Exception as exc:            # exit 1
            pytest.fail(f"config {i} raised {exc!r}:\n{text}")
        if codes[i] == 0:
            verified = main(["verify-chain", str(out / "records.csv"),
                             str(out / "graphs.edges")])
            assert verified == 0, f"config {i}:\n{text}"
        capsys.readouterr()
    assert set(codes.values()) <= {0, 2}, codes
    # The verify step above ran on the 41 draws that exit 0.
    assert list(codes.values()).count(0) == 41


@pytest.mark.parametrize("policy", ["bitcoin", "v1", "v2"])
def test_largest_max_update_factor_runs_or_exits_2(tmp_path, capsys, policy):
    # max_update_factor has no cap: a retarget that takes a difficulty to 0
    # or inf is refused by DifficultyState.set, which exits 2.
    path = tmp_path / "run.cfg"
    path.write_text(f"policy = {policy}\nseed = 1\nmax_blocks = 300\n"
                    f"graph_n = 20\n"
                    f"max_update_factor = {sys.float_info.max!r}\n")
    code = main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
    assert code in (0, 2), capsys.readouterr().err
