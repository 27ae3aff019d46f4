"""Pinned traces of the pausable clique search and pinned outputs of the
run commands.

Each search case drives a ``SolverCursor`` through a cycle of step
budgets and records ``(steps_consumed, found.vertices or None)`` after
every ``advance`` call.  The traces are digested per graph size and compared
with digests taken from a known-good build, so any change to the search
tree, to the pause points or to the order of reports shows up here even
when the best score found stays the same.

Each run case calls ``cli.main`` on a config and digests every file the
command writes, plus what it prints.  Manifests are digested without their
timestamps and command line, so the rest of each manifest is pinned too.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from cliquechain.cli import main
from cliquechain.clique import SolverCursor, gen_random_graph

# Graph size -> (edge probability, graph seed, fixed threshold).
GRAPHS = {
    1: (0.5, 11, 0),
    2: (0.7, 12, 1),
    5: (0.6, 13, 1),
    12: (0.5, 14, 2),
    30: (0.5, 15, 3),
    60: (0.5, 16, 5),
}
ORDERS = ("identity", "reversed", "random")
BUDGET_CYCLES = ((1,), (0, 1, 5), (0, 64, 1, 250), (1, 0, 997))
THRESHOLDS = ("rising", "fixed")
# A case stops at exhaustion or after this many advance calls, whichever
# comes first, so the large graphs are traced over a prefix of the tree.
MAX_CALLS = 120

DIGESTS = {
    1: "4fc51927b9c33beca19f0cf51fd711bc902115ea2ee7a82b9c040160eaf1bd30",
    2: "a4f55b6426804cc954cb16399da71b5c8dc98fb41c95a7fce5f4de2618548819",
    5: "d5bf3efabf571946a3843d289e3af53e8dc8868c74cdcb13e2854aa8090557ba",
    12: "83be2b9de79318baff21ad9a45cc529d5dcb40fa70f1e763e5fbace6bdb29066",
    30: "9dbd065c56bc197e64ead055582bfb67df1c6f6a17b740a43c14fb9f3139f43b",
    60: "ae58fea1220346ce29f8052f721299d2b33ffa4227ed70da7f094040e2609f55",
}


def _order(kind, n, seed):
    if kind == "identity":
        return list(range(n))
    if kind == "reversed":
        return list(range(n - 1, -1, -1))
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.permutation(n).tolist()


def _trace(graph, order, budgets, threshold):
    cursor = SolverCursor(graph, order=order)
    best = 0
    trace = []
    calls = 0
    while not cursor.exhausted and calls < MAX_CALLS:
        limit = best if threshold == "rising" else threshold
        found = cursor.advance(budgets[calls % len(budgets)], limit)
        calls += 1
        if found is not None:
            best = max(best, found.score)
        trace.append((cursor.steps_consumed,
                      None if found is None else list(found.vertices)))
    trace.append(cursor.exhausted)
    return trace


def _cases(n):
    edge_prob, graph_seed, fixed = GRAPHS[n]
    graph = gen_random_graph(n, edge_prob, graph_seed)
    for i, kind in enumerate(ORDERS):
        order = _order(kind, n, 1000 * n + i)
        for budgets in BUDGET_CYCLES:
            for mode in THRESHOLDS:
                threshold = "rising" if mode == "rising" else fixed
                label = [kind, list(budgets), mode]
                yield label, graph, order, budgets, threshold


def _digest(n):
    traces = [[label, _trace(graph, order, budgets, threshold)]
              for label, graph, order, budgets, threshold in _cases(n)]
    blob = json.dumps(traces, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("n", sorted(GRAPHS))
def test_cursor_traces_match_pinned_digests(n):
    assert _digest(n) == DIGESTS[n]


# ---------------------------------------------------------------------------
# Pinned output files of the run commands
# ---------------------------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BITCOIN = "policy = bitcoin\nseed = 4\nmax_blocks = 3000\n"
V1_SMALL = "policy = v1\nseed = 6\nmax_blocks = 150\n"
V2_SMALL = "policy = v2\nseed = 3\nmax_blocks = 150\n"
SWEEP_SMALL = "policy = v2\nseed = 100\nmax_blocks = 40\ngraph_n = 25\n"
BUBKA_SMALL = ("policy = v2\nseed = 7\nmax_blocks = 50\ngraph_n = 25\n"
               "miner = strategy=classical hashrate=1000 count=4\n"
               "miner = strategy=bubka-attacker hashrate=1000 "
               "solver_steps_per_second=200 hoard_target=1\n")
# Manifest fields that differ between two runs of the same command.
UNPINNED_MANIFEST_FIELDS = ("started_utc", "finished_utc", "command")

# Case name -> (command, config file or config text, extra arguments).
RUNS = {
    "simulate-growth": ("simulate", "growth.cfg", []),
    "simulate-v1": ("simulate", "difficulty_v1.cfg", []),
    "simulate-v2": ("simulate", "difficulty_v2.cfg", []),
    "simulate-bitcoin": ("simulate", BITCOIN, []),
    "simulate-jsonl": ("simulate", V2_SMALL,
                       ["--format", "jsonl", "--seed", "9"]),
    "growth": ("growth", V2_SMALL, []),
    "difficulty-v1": ("difficulty", V1_SMALL, []),
    "difficulty-v2": ("difficulty", V2_SMALL, ["--format", "jsonl"]),
    "eta-sweep": ("eta-sweep", SWEEP_SMALL,
                  ["--etas", "0.5,0.01", "--instances", "2",
                   "--workers", "2"]),
    "bubka": ("bubka", BUBKA_SMALL,
              ["--hoard-targets", "1,2", "--seeds", "2",
               "--format", "jsonl"]),
}

RUN_DIGESTS = {
    "bubka":
        "a74dc01b7d72d175fd00674cbff19a420d36be900b9862121295dc4d4f11840e",
    "difficulty-v1":
        "709da4183692008620afd3139537cc2fd29e693cc801b0025baacac4760f5392",
    "difficulty-v2":
        "d8016ac38c2d9d81b4fe459e0b24dd0e95601f6419a6051344ada1c63bdf3f26",
    "eta-sweep":
        "5aa525215578dd1cceb934cf09fb48eb5ab0ab82c3217b724e8b894059762fe7",
    "growth":
        "9d76c808cc8b0d967c22ea4572af5308601a40a04554f727cc85889282300841",
    "simulate-bitcoin":
        "aa66d47f3212b4bcbe8549da565fe60a5eb71814f12ee296677fb4d1a42d5ad0",
    "simulate-growth":
        "29418b63beba1e05c9e963327aa0a940bbda76de2de73dc7d8229532fe93a6ef",
    "simulate-jsonl":
        "951c5103a5be978c10840d3dfffd28c902a96b54a1938d948709e3d07facc40e",
    "simulate-v1":
        "59f7e408fd0d73b77ed0a81fe53127353a50bbb10834182c1e52f899f22816f4",
    "simulate-v2":
        "9dc66bba12d1410b8741a44730a3c300f217a176f159bc28789e7a3228dd6eac",
}


def _file_digest(path):
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        for key in UNPINNED_MANIFEST_FIELDS:
            del manifest[key]
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _run_digest(tmp_path, command, config, extra):
    if not config.endswith(".cfg"):
        (tmp_path / "run.cfg").write_text(config)
        config = tmp_path / "run.cfg"
    else:
        config = CONFIG_DIR / config
    out = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([command, str(config), "--out-dir", str(out),
                     *extra]) == 0
    files = {str(p.relative_to(out)): _file_digest(p)
             for p in sorted(out.rglob("*")) if p.is_file()}
    printed = stdout.getvalue().replace(str(out), "OUT").encode()
    files["<stdout>"] = hashlib.sha256(printed).hexdigest()
    blob = json.dumps(files, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("case", sorted(RUNS))
def test_run_command_outputs_match_pinned_digests(tmp_path, case):
    assert _run_digest(tmp_path, *RUNS[case]) == RUN_DIGESTS[case]
