"""Exact metamorphic relations of whole runs on the shipped configs.

Multiplying by a power of two is exact in IEEE arithmetic while every
value stays normal, so two relations hold bit for bit:

* difficulty scale: every hashrate, ``initial_db`` and ``initial_dr``
  times 2**k gives the same records, with ``d_b`` and ``d_r`` times 2**k;
* time scale: ``target_time``, ``t2_classical`` and ``t2_solution`` times
  2**k, and every hashrate and solver speed divided by 2**k, gives the
  same records, with ``sim_time`` times 2**k.

Each holds only under its precondition: every scaled input and every
record value, in the base run and the scaled one, stays normal (or zero),
and every ``d_r`` stays above ``D_R_FLOOR``.  A value outside the normal
range rounds differently once scaled, and the floor does not scale.  On
the shipped configs the test asserts the precondition before it
compares, so a relation is never passed over for one of them.  The
configs that ``test_accepted_configs.py`` draws run through both
relations too: each relation is compared on every draw whose base run
completes, whose scaled config ``SimConfig`` accepts and which meets the
precondition, and the counts of those draws are pinned.  Whether a
relation holds never decides which draws are compared.
"""

import dataclasses
import random
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from cliquechain.difficulty import D_R_FLOOR
from cliquechain.engine import ConfigError, simulate
from cliquechain.io import parse_config
from test_accepted_configs import CONFIGS, MASTER_SEED, _config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# name -> (k, the exponent sign of each scaled config field and miner
# field, the record fields scaled by 2**k)
RELATIONS = {
    "difficulty": (-3, {"initial_db": 1, "initial_dr": 1},
                   {"hashrate": 1}, ("d_b", "d_r")),
    "time": (5, {"target_time": 1, "t2_classical": 1, "t2_solution": 1},
             {"hashrate": -1, "solver_steps_per_second": -1},
             ("sim_time",)),
}


def _normal(x: float) -> bool:
    return x == 0 or sys.float_info.min <= abs(x) <= sys.float_info.max


def _scaled(obj, signs: dict, k: int):
    return dataclasses.replace(obj, **{
        f: getattr(obj, f) * 2.0 ** (s * k) for f, s in signs.items()})


def _scale(cfg, records, relation: str):
    """The relation's scaled config, the records it must give, and the
    parts of the precondition that fail.  Raises ConfigError if
    ``SimConfig`` refuses the scaled config."""
    k, cfg_signs, miner_signs, fields = RELATIONS[relation]
    scaled_cfg = dataclasses.replace(
        _scaled(cfg, cfg_signs, k),
        miners=tuple(_scaled(m, miner_signs, k) for m in cfg.miners))
    expected = [r._replace(**{f: getattr(r, f) * 2.0 ** k for f in fields})
                for r in records]

    inputs = [getattr(c, f) for c in (cfg, scaled_cfg) for f in cfg_signs]
    inputs += [getattr(m, f) for c in (cfg, scaled_cfg) for m in c.miners
               for f in miner_signs]
    values = [getattr(r, f) for rs in (records, expected) for r in rs
              for f in ("sim_time", "d_b", "d_r")]
    unmet = []
    if not all(map(_normal, inputs + values)):
        unmet.append("normal values")
    if min(r.d_r for rs in (records, expected) for r in rs) <= D_R_FLOOR:
        unmet.append("d_r above the floor")
    return scaled_cfg, expected, unmet


@cache
def _base(name: str):
    cfg = parse_config(CONFIG_DIR / name)
    return cfg, simulate(cfg).records


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CONFIG_DIR.glob("*.cfg")))
def test_power_of_two_scaling_is_exact(name, relation):
    scaled_cfg, expected, unmet = _scale(*_base(name), relation)
    assert not unmet, f"precondition: {unmet}"
    assert simulate(scaled_cfg).records == expected


def test_drawn_configs_scale_exactly():
    rng = random.Random(MASTER_SEED)
    compared = Counter()
    for i in range(CONFIGS):
        cfg = _config(rng)
        try:
            records = simulate(cfg).records
        except ConfigError:
            compared["base run refused"] += 1
            continue
        for relation in RELATIONS:
            try:
                scaled_cfg, expected, unmet = _scale(cfg, records, relation)
            except ConfigError:
                continue
            if not unmet:
                compared[relation] += 1
                assert simulate(scaled_cfg).records == expected, \
                    f"draw {i}, {relation}: {cfg}"
    # Pinned so that the filter cannot come to exclude every draw
    # unnoticed; in each other draw the scaled config is refused, a value
    # leaves the normal range or d_r meets the floor.
    assert compared == {"base run refused": 19, "difficulty": 34, "time": 27}
