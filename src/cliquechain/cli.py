"""Command-line front end.

Exit codes:

* 0: success.
* 2: bad arguments, or a config file that is missing, does not parse, or
  sets a value the simulator rejects (NaN and inf included).
* 3: a records or graphs file that is missing, malformed or fails
  re-validation, or a failed selftest.
* 1: anything else; that is a bug and comes with a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .clique import (
    SolverCursor,
    brute_force_max_clique,
    gen_random_graph,
    read_graphs,
    write_graphs,
)
from .engine import ConfigError, SimConfig, simulate
from .experiments import (
    DEFAULT_BUBKA_SEEDS,
    DEFAULT_BUBKA_TARGETS,
    DEFAULT_ETA_GRID,
    run_bubka_experiment,
    run_eta_sweep,
)
from .io import (
    ReplayError,
    RunManifest,
    parse_config,
    read_records,
    render_config,
    verify_record_stream,
    write_manifest,
    write_records,
)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_records(args, stem: str, records) -> str:
    """Write records as ``<stem>.<format>`` under the output directory and
    return that name."""
    name = f"{stem}.{args.format}"
    path = os.path.join(args.out_dir, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_records(records, path, fmt=args.format)
    return name


def _write_summary(args, payload: dict, header: str = "", rows=()) -> None:
    """Write ``summary.json`` and, given a header, ``summary.csv`` with
    floats at 17 significant digits."""
    if header:
        lines = [header] + [",".join(format(v, ".17g") if isinstance(v, float)
                                     else str(v) for v in row) for row in rows]
        with open(os.path.join(args.out_dir, "summary.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    with open(os.path.join(args.out_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _columns(records, *fields) -> dict:
    return {f: [getattr(r, f) for r in records] for f in fields}


def _simulate(args, cfg: SimConfig) -> tuple[dict, str]:
    result = simulate(cfg)
    records = _write_records(args, "records", result.records)
    write_graphs(result.graphs, os.path.join(args.out_dir, "graphs.edges"))
    last = result.records[-1]
    return ({"records": records, "graphs": "graphs.edges"},
            f"{len(result.records)} blocks "
            f"({last.cum_classical} classical, {last.cum_solution} solution), "
            f"{len(result.replacement_heights)} problem replacements, "
            f"final d_b={last.d_b:.6g} d_r={last.d_r:.6g}\n"
            f"wrote {args.out_dir}/{records}")


def _growth(args, cfg: SimConfig) -> tuple[dict, str]:
    if cfg.policy != "v2":
        raise ConfigError("block-growth experiment runs the v2 policy")
    if cfg.saturation_window < 1:
        raise ConfigError("block-growth experiment needs problem "
                          "replacement (saturation_window >= 1)")
    result = simulate(cfg)
    recs = result.records
    records = _write_records(args, "records", recs)
    _write_summary(args, {
        **_columns(recs, "height", "cum_classical", "cum_solution"),
        "diagonal": [r.height + 1 for r in recs],
        "replacement_heights": result.replacement_heights})
    return ({"records": records, "summary": "summary.json"},
            f"block growth over {len(recs)} blocks, "
            f"replacements at {result.replacement_heights}")


def _difficulty(args, cfg: SimConfig) -> tuple[dict, str]:
    if cfg.policy not in ("v1", "v2"):
        raise ConfigError("difficulty trajectories need policy v1 or v2")
    result = simulate(cfg)
    recs = result.records
    records = _write_records(args, "records", recs)
    _write_summary(args, {**_columns(recs, "height", "d_b", "d_r"),
                          "replacement_heights": result.replacement_heights})
    return ({"records": records, "summary": "summary.json"},
            f"{cfg.policy} difficulty trajectories over {len(recs)} blocks, "
            f"final d_r/d_b = {recs[-1].d_r / recs[-1].d_b:.6g}")


def _eta_sweep(args, cfg: SimConfig) -> tuple[dict, str]:
    sweep = run_eta_sweep(cfg, eta_values=args.etas, instances=args.instances,
                          workers=args.workers)
    outputs = {}
    for c in sweep.cells:
        stem = f"runs/{c.protocol}_eta{c.eta_index:02d}_inst{c.instance:02d}"
        outputs[f"{c.protocol}/{c.eta_index}/{c.instance}"] = _write_records(
            args, stem, c.records)
    v1_mean, v1_sd = sweep.mean_sd("v1")
    v2_mean, v2_sd = sweep.mean_sd("v2")
    _write_summary(
        args,
        {"eta_values": list(sweep.eta_values),
         "instances": args.instances,
         "chain_height": cfg.max_blocks,
         "v1_mean": list(v1_mean), "v1_sd": list(v1_sd),
         "v2_mean": list(v2_mean), "v2_sd": list(v2_sd),
         "v2_mean_line": sweep.v2_mean_line},
        "eta,v1_mean,v1_sd,v2_mean,v2_sd",
        zip(sweep.eta_values, v1_mean, v1_sd, v2_mean, v2_sd))
    outputs["summary"] = "summary.csv"
    return (outputs,
            f"eta sweep over {len(sweep.eta_values)} values x "
            f"{args.instances} instances, v2 mean fraction "
            f"{sweep.v2_mean_line:.4f}")


def _bubka(args, cfg: SimConfig) -> tuple[dict, str]:
    result = run_bubka_experiment(cfg, hoard_targets=args.hoard_targets,
                                  num_seeds=args.seeds, workers=args.workers)
    outputs = {}
    for c in result.cells:
        stem = f"runs/{c.protocol.replace('=', '')}_seed{c.instance:02d}"
        outputs[f"{c.protocol}/{c.instance}"] = _write_records(
            args, stem, c.records)
    columns = ("hoard_target", "win_fraction", "max_consecutive")
    rows = [[target, float(np.mean(result.win_fractions(i))),
             float(np.mean(result.max_consecutives(i)))]
            for i, target in enumerate(result.hoard_targets)]
    honest = float(np.mean(result.win_fractions(len(rows))))
    _write_summary(args, {"rows": [dict(zip(columns, r)) for r in rows],
                          "honest_win_fraction": honest,
                          "attacker_id": result.attacker_id},
                   ",".join(columns), rows)
    outputs["summary"] = "summary.csv"
    lines = [f"hoard_target={target}: win_fraction={win:.4f}, "
             f"max_consecutive={streak:.2f}" for target, win, streak in rows]
    lines.append(f"honest baseline win_fraction={honest:.4f}")
    return outputs, "\n".join(lines)


# The run commands: name -> (run function, help line).
_RUNS = {
    "simulate": (_simulate, "run one chain and write records"),
    "growth": (_growth, "cumulative block-growth experiment"),
    "difficulty": (_difficulty, "difficulty trajectory experiment"),
    "eta-sweep": (_eta_sweep, "solution fraction vs eta, both protocols"),
    "bubka": (_bubka, "hoard-and-release attacker sweep"),
}


def _cmd_run(args) -> int:
    """Load the config, check the output directory, run, write the manifest."""
    started = _utcnow()
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    near = os.path.abspath(args.out_dir)
    while not os.path.exists(near):
        near = os.path.dirname(near)
    if not os.path.isdir(near) or not os.access(near, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot make --out-dir {args.out_dir} in {near}")
    outputs, message = args.run(args, cfg)
    manifest = RunManifest(version=__version__,
                           command=" ".join(sys.argv) if sys.argv else "",
                           seed=cfg.seed, config_text=render_config(cfg),
                           outputs=outputs, started_utc=started,
                           finished_utc=_utcnow())
    write_manifest(manifest, os.path.join(args.out_dir, "manifest.json"))
    print(message)
    return 0


def _cmd_verify_chain(args) -> int:
    records = read_records(args.records)
    try:
        graphs = read_graphs(args.graphs)
    except ValueError as exc:
        raise ReplayError(str(exc)) from None
    verify_record_stream(records, graphs)
    print(f"ok: {len(records)} records over {len(graphs)} problem graphs")
    return 0


def _cmd_selftest(args) -> int:
    """Cross-check the pausable search against the brute-force oracle,
    in visit orders drawn from a second stream so the graphs stay fixed."""
    rng = np.random.Generator(np.random.PCG64(args.seed))
    order_rng = np.random.Generator(np.random.PCG64([args.seed, 1]))
    failures = 0
    for i in range(args.graphs):
        n = int(rng.integers(4, args.max_n + 1))
        p = float(rng.uniform(0.2, 0.8))
        graph = gen_random_graph(n, p, int(rng.integers(0, 2 ** 31)))
        expect = brute_force_max_clique(graph)
        cursor = SolverCursor(graph, order=order_rng.permutation(n).tolist())
        best = 0
        while not cursor.exhausted:
            found = cursor.advance(10 ** 9, best)
            if found is not None:
                best = found.score
        if best != expect:
            failures += 1
            print(f"FAIL graph {i}: n={n} p={p:.3f} "
                  f"search={best} brute={expect}")
    print(f"selftest: {args.graphs - failures}/{args.graphs} graphs agree")
    if failures:
        raise ReplayError(f"{failures} selftest graphs disagreed")
    return 0


def _comma_list(convert):
    """An argparse ``type`` for a comma-separated list of distinct values."""
    def parse(text: str) -> tuple:
        values = tuple(convert(v) for v in text.split(","))
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
        return values
    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


def _int_in(low: int, high: float = float("inf")):
    """An argparse ``type`` that reads an integer in [low, high]."""
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"{value} is outside [{low}, {high}]")
        return value
    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquechain",
        description="Simulate a clique-mining proof-of-work chain.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    runs = {}
    for name, (run, text) in _RUNS.items():
        runs[name] = sub = subs.add_parser(name, help=text)
        sub.add_argument("config", help="flat key=value config file")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        sub.add_argument("--out-dir", default="out",
                         help="output directory (default: ./out)")
        sub.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                         help="record serialization (default: csv)")
        sub.set_defaults(func=_cmd_run, run=run)

    sweep, bubka = runs["eta-sweep"], runs["bubka"]
    sweep.add_argument("--etas", type=_comma_list(float),
                       default=DEFAULT_ETA_GRID,
                       help="comma-separated eta values "
                            "(default: 10 log-spaced from 1 to 0.001)")
    sweep.add_argument("--instances", type=int, default=10,
                       help="independent chains per cell (default: 10)")
    bubka.add_argument("--hoard-targets", type=_comma_list(int),
                       default=DEFAULT_BUBKA_TARGETS,
                       help="comma-separated hoard targets (default: 1,2,5)")
    bubka.add_argument("--seeds", type=int, default=DEFAULT_BUBKA_SEEDS,
                       help="seeded runs per target (default: 20)")
    for sub in (sweep, bubka):
        sub.add_argument("--workers", type=_int_in(1), default=1,
                         help="worker processes (default: 1)")

    sub = subs.add_parser("verify-chain",
                          help="re-validate a records file against its "
                               "problem graphs")
    sub.add_argument("records", help="records.csv or records.jsonl")
    sub.add_argument("graphs", help="edge-list file written by simulate")
    sub.set_defaults(func=_cmd_verify_chain)

    sub = subs.add_parser("selftest",
                          help="cross-check the search against brute force")
    sub.add_argument("--graphs", type=_int_in(1), default=60,
                     help="number of random graphs (default: 60)")
    # The brute-force oracle takes at most 20 vertices; graphs start at 4.
    sub.add_argument("--max-n", type=_int_in(4, 20), default=12,
                     help="largest graph size (default: 12)")
    sub.add_argument("--seed", type=_int_in(0), default=0)
    sub.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ReplayError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
