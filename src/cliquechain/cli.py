"""Command-line front end.

Exit codes: 0 on success, 2 for configuration problems, 3 when a recorded
run fails re-validation (including selftest failures).
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
    run_block_growth_experiment,
    run_bubka_experiment,
    run_difficulty_trajectories,
    run_eta_sweep,
)
from .io import (
    ReplayError,
    RunManifest,
    ensure_dir,
    parse_config,
    read_records,
    render_config,
    verify_record_stream,
    write_manifest,
    write_records,
)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _load_config(args) -> SimConfig:
    cfg = parse_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed).resolve()
    return cfg


def _manifest(args, cfg: SimConfig, outputs: dict, started: str,
              ) -> RunManifest:
    return RunManifest(version=__version__,
                       command=" ".join(sys.argv) if sys.argv else "",
                       seed=cfg.seed, config_text=render_config(cfg),
                       outputs=outputs, started_utc=started,
                       finished_utc=_utcnow())


def _write_summary_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(args) -> int:
    started = _utcnow()
    cfg = _load_config(args)
    result = simulate(cfg)
    ensure_dir(args.out_dir)
    records_name = f"records.{args.format}"
    write_records(result.records, os.path.join(args.out_dir, records_name),
                  fmt=args.format)
    write_graphs(result.graphs, os.path.join(args.out_dir, "graphs.edges"))
    outputs = {"records": records_name, "graphs": "graphs.edges"}
    write_manifest(_manifest(args, cfg, outputs, started),
                   os.path.join(args.out_dir, "manifest.json"))
    last = result.records[-1]
    print(f"{len(result.records)} blocks "
          f"({last.cum_classical} classical, {last.cum_solution} solution), "
          f"{len(result.replacement_heights)} problem replacements, "
          f"final d_b={last.d_b:.6g} d_r={last.d_r:.6g}")
    print(f"wrote {args.out_dir}/{records_name}")
    return 0


def _cmd_growth(args) -> int:
    started = _utcnow()
    cfg = _load_config(args)
    traj = run_block_growth_experiment(cfg)
    ensure_dir(args.out_dir)
    records_name = f"records.{args.format}"
    write_records(traj.records, os.path.join(args.out_dir, records_name),
                  fmt=args.format)
    result = {"height": [r.height for r in traj.records],
              "cum_classical": list(traj.cum_classical),
              "cum_solution": list(traj.cum_solution),
              "diagonal": list(traj.diagonal),
              "replacement_heights": list(traj.replacement_heights)}
    _write_summary_json(os.path.join(args.out_dir, "summary.json"), result)
    outputs = {"records": records_name, "summary": "summary.json"}
    write_manifest(_manifest(args, cfg, outputs, started),
                   os.path.join(args.out_dir, "manifest.json"))
    print(f"block growth over {len(traj.records)} blocks, "
          f"replacements at {list(traj.replacement_heights)}")
    return 0


def _cmd_difficulty(args) -> int:
    started = _utcnow()
    cfg = _load_config(args)
    traj = run_difficulty_trajectories(cfg)
    ensure_dir(args.out_dir)
    records_name = f"records.{args.format}"
    write_records(traj.records, os.path.join(args.out_dir, records_name),
                  fmt=args.format)
    result = {"height": [r.height for r in traj.records],
              "d_b": list(traj.d_b), "d_r": list(traj.d_r),
              "replacement_heights": list(traj.replacement_heights)}
    _write_summary_json(os.path.join(args.out_dir, "summary.json"), result)
    outputs = {"records": records_name, "summary": "summary.json"}
    write_manifest(_manifest(args, cfg, outputs, started),
                   os.path.join(args.out_dir, "manifest.json"))
    ratio = traj.d_r[-1] / traj.d_b[-1]
    print(f"{cfg.policy} difficulty trajectories over "
          f"{len(traj.records)} blocks, final d_r/d_b = {ratio:.6g}")
    return 0


def _cmd_eta_sweep(args) -> int:
    started = _utcnow()
    cfg = _load_config(args)
    etas = (tuple(float(v) for v in args.etas.split(","))
            if args.etas else DEFAULT_ETA_GRID)
    sweep = run_eta_sweep(cfg, eta_values=etas, instances=args.instances,
                          workers=args.workers)
    ensure_dir(args.out_dir)
    runs_dir = os.path.join(args.out_dir, "runs")
    ensure_dir(runs_dir)
    outputs = {}
    for cell in sweep.cells:
        name = (f"runs/{cell.protocol}_eta{cell.eta_index:02d}"
                f"_inst{cell.instance:02d}.{args.format}")
        write_records(list(cell.records), os.path.join(args.out_dir, name),
                      fmt=args.format)
        outputs[f"{cell.protocol}/{cell.eta_index}/{cell.instance}"] = name

    v1_mean, v1_sd = sweep.mean_sd("v1")
    v2_mean, v2_sd = sweep.mean_sd("v2")
    lines = ["eta,v1_mean,v1_sd,v2_mean,v2_sd"]
    for i, eta in enumerate(sweep.eta_values):
        lines.append(",".join(format(v, ".17g") for v in
                              (eta, v1_mean[i], v1_sd[i], v2_mean[i],
                               v2_sd[i])))
    with open(os.path.join(args.out_dir, "summary.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_summary_json(
        os.path.join(args.out_dir, "summary.json"),
        {"eta_values": list(sweep.eta_values),
         "instances": sweep.instances,
         "chain_height": sweep.chain_height,
         "v1_mean": list(v1_mean), "v1_sd": list(v1_sd),
         "v2_mean": list(v2_mean), "v2_sd": list(v2_sd),
         "v2_mean_line": sweep.v2_mean_line})
    outputs["summary"] = "summary.csv"
    write_manifest(_manifest(args, cfg, outputs, started),
                   os.path.join(args.out_dir, "manifest.json"))
    print(f"eta sweep over {len(sweep.eta_values)} values x "
          f"{sweep.instances} instances, v2 mean fraction "
          f"{sweep.v2_mean_line:.4f}")
    return 0


def _cmd_bubka(args) -> int:
    started = _utcnow()
    cfg = _load_config(args)
    targets = (tuple(int(v) for v in args.hoard_targets.split(","))
               if args.hoard_targets else DEFAULT_BUBKA_TARGETS)
    result = run_bubka_experiment(cfg, hoard_targets=targets,
                                  num_seeds=args.seeds, workers=args.workers)
    ensure_dir(args.out_dir)
    runs_dir = os.path.join(args.out_dir, "runs")
    ensure_dir(runs_dir)
    outputs = {}
    for cell in result.cells:
        label = cell.protocol.replace("=", "")
        name = f"runs/{label}_seed{cell.instance:02d}.{args.format}"
        write_records(list(cell.records), os.path.join(args.out_dir, name),
                      fmt=args.format)
        outputs[f"{cell.protocol}/{cell.instance}"] = name

    lines = ["hoard_target,win_fraction,max_consecutive"]
    for row in result.rows:
        lines.append(f"{row.hoard_target},"
                     f"{format(row.win_fraction, '.17g')},"
                     f"{format(row.max_consecutive, '.17g')}")
    with open(os.path.join(args.out_dir, "summary.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_summary_json(
        os.path.join(args.out_dir, "summary.json"),
        {"rows": [{"hoard_target": row.hoard_target,
                   "win_fraction": row.win_fraction,
                   "max_consecutive": row.max_consecutive}
                  for row in result.rows],
         "honest_win_fraction": result.honest_win_fraction,
         "attacker_id": result.attacker_id})
    outputs["summary"] = "summary.csv"
    write_manifest(_manifest(args, cfg, outputs, started),
                   os.path.join(args.out_dir, "manifest.json"))
    for row in result.rows:
        print(f"hoard_target={row.hoard_target}: "
              f"win_fraction={row.win_fraction:.4f}, "
              f"max_consecutive={row.max_consecutive:.2f}")
    print(f"honest baseline win_fraction={result.honest_win_fraction:.4f}")
    return 0


def _cmd_verify_chain(args) -> int:
    records = read_records(args.records)
    graphs = read_graphs(args.graphs)
    verify_record_stream(records, graphs)
    print(f"ok: {len(records)} records over {len(graphs)} problem graphs")
    return 0


def _cmd_selftest(args) -> int:
    """Cross-check the pausable search against the brute-force oracle,
    in visit orders drawn from a second stream so the graphs stay fixed."""
    rng = np.random.Generator(np.random.PCG64(args.seed or 0))
    order_rng = np.random.Generator(np.random.PCG64([args.seed or 0, 1]))
    failures = 0
    for i in range(args.graphs):
        n = int(rng.integers(4, args.max_n + 1))
        p = float(rng.uniform(0.2, 0.8))
        graph = gen_random_graph(n, p, int(rng.integers(0, 2 ** 31)))
        expect = brute_force_max_clique(graph)
        cursor = SolverCursor(graph, order=order_rng.permutation(n).tolist())
        best = 0
        while not cursor.exhausted:
            found = cursor.advance(graph, 10 ** 9, best)
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


def _add_run_options(sub, with_format: bool = True) -> None:
    sub.add_argument("config", help="flat key=value config file")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sub.add_argument("--out-dir", default="out",
                     help="output directory (default: ./out)")
    if with_format:
        sub.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                         help="record serialization (default: csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquechain",
        description="Simulate a clique-mining proof-of-work chain.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("simulate", help="run one chain and write records")
    _add_run_options(sub)
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("growth", help="cumulative block-growth experiment")
    _add_run_options(sub)
    sub.set_defaults(func=_cmd_growth)

    sub = subs.add_parser("difficulty", help="difficulty trajectory experiment")
    _add_run_options(sub)
    sub.set_defaults(func=_cmd_difficulty)

    sub = subs.add_parser("eta-sweep",
                          help="solution fraction vs eta, both protocols")
    _add_run_options(sub)
    sub.add_argument("--etas", default=None,
                     help="comma-separated eta values "
                          "(default: 10 log-spaced from 1 to 0.001)")
    sub.add_argument("--instances", type=int, default=10,
                     help="independent chains per cell (default: 10)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes (default: 1)")
    sub.set_defaults(func=_cmd_eta_sweep)

    sub = subs.add_parser("bubka", help="hoard-and-release attacker sweep")
    _add_run_options(sub)
    sub.add_argument("--hoard-targets", default=None,
                     help="comma-separated hoard targets (default: 1,2,5)")
    sub.add_argument("--seeds", type=int, default=DEFAULT_BUBKA_SEEDS,
                     help="seeded runs per target (default: 20)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes (default: 1)")
    sub.set_defaults(func=_cmd_bubka)

    sub = subs.add_parser("verify-chain",
                          help="re-validate a records file against its "
                               "problem graphs")
    sub.add_argument("records", help="records.csv or records.jsonl")
    sub.add_argument("graphs", help="edge-list file written by simulate")
    sub.set_defaults(func=_cmd_verify_chain)

    sub = subs.add_parser("selftest",
                          help="cross-check the search against brute force")
    sub.add_argument("--graphs", type=int, default=60,
                     help="number of random graphs (default: 60)")
    sub.add_argument("--max-n", type=int, default=12,
                     help="largest graph size (default: 12)")
    sub.add_argument("--seed", type=int, default=0)
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
    except (ReplayError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
