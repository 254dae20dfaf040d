"""Benchmark for bellpoly: end-to-end and per-layer figures on three workloads.

    python3 perfbench/run.py --workload {cli,game-values,facets} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones. See perfbench/README.md for the workloads, the
metrics and how each input is derived from the seed.

The work itself runs in child processes: `python -m bellpoly.cli` per
operation for cli, perfbench/worker.py for the in-process workloads. This
process only generates inputs, times, checks and reports, so its own memory
and checking work stay out of the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import check
import inputs
import speed

WORKLOADS = ("cli", "game-values", "facets")
SETUP_STARTS = 7        # fresh interpreters timed per run for setup_s (after one warm-up)
IMPORTTIME_STARTS = 3   # fresh interpreters under -X importtime in a traced run
OUT_DIR = os.path.join("perfbench", "out")
REJECTIONS = ("ValueError", "ParseError")  # how the program may refuse an invalid inequality


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_process(argv, env):
    """Run to completion. Returns (wall seconds, exit code, stdout, stderr,
    peak RSS in MB of that process)."""
    out_path, err_path = os.path.join(OUT_DIR, "stdout"), os.path.join(OUT_DIR, "stderr")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return wall, proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024


def import_seconds(env):
    """Seconds from starting a fresh interpreter until `import bellpoly`
    returns, read from the child's CLOCK_MONOTONIC (shared by all processes)
    and scaled to reference speed (speed.py)."""
    before = speed.kernel_seconds()
    t0 = time.monotonic()
    _, code, out, err, _ = run_process(
        [sys.executable, "-c", "import bellpoly; import time; print(repr(time.monotonic()))"], env)
    if code != 0:
        fail(f"import bellpoly failed:\n{err.decode(errors='replace')}")
    return speed.scaled(float(out.decode().strip()) - t0, before, speed.kernel_seconds())


def import_breakdown(env):
    """Cumulative import milliseconds of bellpoly, numpy, scipy and networkx
    from -X importtime; each third-party package is charged at its outermost
    import, wherever in the tree that happens."""
    _, code, _, err, _ = run_process([sys.executable, "-X", "importtime", "-c", "import bellpoly"],
                                     env)
    if code != 0:
        fail("import bellpoly failed under -X importtime")
    pending = {}  # level -> nodes whose parent line has not been read yet
    for line in err.decode().splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        level = len(m.group(3)) // 2
        node = (m.group(4), int(m.group(2)) / 1000, pending.pop(level + 1, []))
        pending.setdefault(level, []).append(node)
    totals = {"bellpoly": 0.0, "numpy": 0.0, "scipy": 0.0, "networkx": 0.0}

    def walk(node, inside):
        name, cum, kids = node
        top = name.split(".")[0]
        if top in totals and top not in inside:
            totals[top] += cum
            inside = inside | {top}
        for k in kids:
            walk(k, inside)
    for root in pending.get(0, []):
        walk(root, frozenset())
    return totals


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def run_worker(workload, seed, seconds, trace, env):
    path = os.path.join(OUT_DIR, f"worker-{workload}.pkl")
    argv = [sys.executable, os.path.join("perfbench", "worker.py"), workload, str(seed),
            str(seconds), "1" if trace else "0", path]
    _, code, _, err, _ = run_process(argv, env)
    if code != 0:
        fail(f"worker exited with {code}:\n{err.decode(errors='replace')}")
    with open(path, "rb") as fh:  # written by our own worker just now
        data = pickle.load(fh)
    os.remove(path)
    return data


def check_op(op, r):
    """Returns (failed, problems) for one in-process operation."""
    kind = op[0]
    if kind == "corr_facet":
        C, b = check.correlator_tensor(op[1]["corr"], op[1]["bound"])
        exp = check.expected_facet(C, b, "correlation")
        if "error" in r:
            return r["error"] not in REJECTIONS or exp["valid"], []
        if not exp["valid"]:
            return r["is_facet"], []  # a facet verdict on an invalid inequality
        return False, check.compare_facet(exp, r, "correlator facet test")
    if "error" in r:
        return True, []
    if kind == "value":
        return False, check.check_value(op[1], r)
    if kind == "chsh":
        return False, check.check_chsh(check.chsh_matrix(op[1]), r)
    if kind == "positivity":
        m = op[1]["m"]
        exp = check.expected_facet(*check.positivity_tensor(op[1]), "bell")
        out = check.compare_facet(exp, r, f"{m}x{m} positivity")
        if exp["count"] != 3 * 4 ** (m - 1):
            out.append(f"{m}x{m} positivity saturates {exp['count']} boxes, not 3*4^(m-1)")
        return False, out
    if kind == "game_facet":
        return False, check.check_game_facet(op[1], op[2], r)
    if kind in ("decompose", "nlcd_nonfacet"):
        return False, check.check_decomposition(op[1], r)
    if kind == "cut_facet":
        b = op[1]
        return False, check.check_cut_facet(len(b), check.hypermetric_coeffs(b), 0, r)
    if kind == "census":
        return False, check.check_census(op[1], r)
    if kind == "ce_gap":
        return False, check.check_ce_gap(r)
    return False, [f"no checker for {kind}"]


def in_process(workload, seed, seconds, trace, env):
    ops = inputs.game_values_ops(seed) if workload == "game-values" else inputs.facets_ops(seed)
    data = run_worker(workload, seed, seconds, trace, env)
    failed, problems = 0, []
    for i, (op, r) in enumerate(zip(ops, data["results"])):
        f, p = check_op(op, r)
        failed += f
        problems += [f"op {i} ({op[0]}): {msg}" for msg in p]
    problems += [f"op {i}: result differs between passes" for i in data["nondeterministic"]]
    passes = 1 + len(data["walls"]) + len(data["traced_walls"])  # with the warm-up pass
    return {"passes": passes, "ops": len(ops), "failed": failed * passes,
            "problems": problems, "walls": data["walls"], "op_times": data["op_times"],
            "raw_walls": data["raw_walls"], "rss_mb": data["rss_mb"], "worker": data}


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------

def _rat(v):
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def file_text(ftype, data):
    if ftype == "game":
        g = data
        if g["kind"] == "nlc":
            obj = {"kind": "nlc", "d": g["d"],
                   "nlc": {"n": g["n"], "g": list(g["g"]), "p": [_rat(v) for v in g["p"]]}}
        else:
            obj = {"kind": g["kind"], "mA": g["ma"], "mB": g["mb"],
                   "q": [[_rat(v) for v in row] for row in g["q"]]}
            if g["kind"] == "linear":
                obj.update(d=g["d"], f=[list(row) for row in g["f"]])
            else:
                obj["perms"] = [list(row) for row in g["perms"]]
        return json.dumps(obj, indent=1)
    if ftype == "positivity":
        m, cell = data["m"], data["cell"]
        coeffs = [[[["-1" if (x, y, a, b) == cell else "0" for b in range(2)] for a in range(2)]
                   for y in range(m)] for x in range(m)]
        return json.dumps({"space": "probability", "coeffs": coeffs, "bound": "0"})
    if ftype == "correlator":
        return json.dumps({"space": "correlator",
                           "coeffs": [[_rat(v) for v in row] for row in data["corr"]],
                           "bound": _rat(data["bound"])})
    if ftype == "graph":
        return "\n".join([str(data["n"])] + [f"{i} {j}" for i, j in data["edges"]]) + "\n"
    if ftype == "cut_ineq":
        b = data
        return json.dumps({"space": "cut", "n": len(b), "bound": "0",
                           "coeffs": [[i, j, _rat(c)]
                                      for (i, j), c in check.hypermetric_coeffs(b).items()]})
    raise ValueError(ftype)


def write_cli_files(files):
    os.makedirs(inputs.CLI_DIR, exist_ok=True)
    for name, (ftype, data) in files.items():
        if ftype == "correlator":  # a valid, tight bound: the benchmark's own local maximum
            data["bound"] = check.local_max(check.correlator_tensor(data["corr"], 0)[0])
        with open(os.path.join(inputs.CLI_DIR, name), "w") as fh:
            fh.write(file_text(ftype, data))


def cli_argv(argv, files):
    return [os.path.join(inputs.CLI_DIR, a) if a in files else a for a in argv]


def cli_workload(seed, seconds, env):
    ops, files = inputs.cli_ops(seed)
    write_cli_files(files)
    walls, raw_walls, op_times, rss, outputs = [], [], [], 0.0, {}
    first = None
    deadline = time.perf_counter() + seconds
    before = speed.kernel_seconds()
    while True:
        start = time.perf_counter()
        results, times, raw = [], [], 0.0
        for argv, _ in ops:
            wall, code, out, err, peak = run_process(
                [sys.executable, "-m", "bellpoly.cli"] + cli_argv(argv, files), env)
            after = speed.kernel_seconds()
            times.append(speed.scaled(wall, before, after))
            raw += wall
            before = after
            rss = max(rss, peak)
            results.append((code, out, err))
            outputs.setdefault(argv, set()).add((code, out))
        op_times += times
        walls.append(sum(times))
        raw_walls.append(raw)
        first = first or results
        now = time.perf_counter()
        if now + (now - start) > deadline:  # the next pass would overrun
            break
    failed, problems = 0, []
    for i, ((argv, spec), (code, out, err)) in enumerate(zip(ops, first)):
        if code != 0:
            failed += 1
            continue
        try:
            report = check.strict_json(out.decode())
        except ValueError:
            failed += 1
            continue
        problems += [f"op {i} ({' '.join(argv)}): {p}"
                     for p in check.check_cli_report(spec, files, list(argv), report["results"])]
    problems += [f"{' '.join(a)}: reports differ between invocations"
                 for a, outs in outputs.items() if len(outs) > 1]
    passes = len(walls)
    return {"passes": passes, "ops": len(ops), "failed": failed * passes, "problems": problems,
            "walls": walls, "raw_walls": raw_walls, "op_times": op_times, "rss_mb": rss}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "init.import_ms": "ms", "init.numpy_ms": "ms", "init.scipy_ms": "ms",
    "init.networkx_ms": "ms",
    "cli.main_ms": "ms", "cli.startup_ms": "ms", "cli.parse_ms": "ms", "cli.serialize_ms": "ms",
    "values.classical_value_ms": "ms", "values.classical_value_calls": "count",
    "values.classical_calls_per_game": "calls/game", "values.alice_maps": "count",
    "values.maps_per_s": "1/s", "values.spectral_norm_ms": "ms",
    "values.spectral_norm_calls": "count", "values.gen_norm_ms": "ms",
    "values.gen_norm_calls": "count", "values.sufficient_ms": "ms",
    "chsh.face_condition_ms": "ms", "chsh.certificate_ms": "ms", "chsh.qubit_estimate_ms": "ms",
    "games.to_inequality_ms": "ms",
    "tightness.saturating_boxes_ms": "ms", "tightness.boxes_scanned": "count",
    "tightness.saturating_hits": "count", "tightness.hit_ratio": "hits/box",
    "tightness.facet_test_ms": "ms", "tightness.decompose_ms": "ms",
    "scenario.project_ms": "ms",
    "exactrank.affine_rank_ms": "ms", "exactrank.affine_rank_calls": "count",
    "exactrank.rank_cells": "count",
    "cut.enumerate_cuts_ms": "ms", "cut.cuts_enumerated": "count", "cut.evaluate_cut_ms": "ms",
    "cut.evaluate_cut_calls": "count", "cut.census_ms": "ms",
    "trace.overhead_s": "s",
}


def layer_metrics(layers, traced_passes, ops_per_pass, cli_main_s=None, process_s=None):
    """Per traced pass: self milliseconds and counts of the named functions.
    For the cli workload the cli.* figures are per command."""
    L = layers

    def get(name, key):
        return L.get(f"bellpoly.{name}", {}).get(key, 0)

    def ms(*names):
        return 1000 * sum(get(n, "self_s") for n in names) / traced_passes

    def per_pass(name, key="calls"):
        return get(name, key) / traced_passes

    cv_s = get("values.classical_value", "self_s")
    games = get("values.classical_value", "games")
    boxes = per_pass("tightness.saturating_boxes", "boxes")
    per_cmd = ops_per_pass if cli_main_s is not None else None
    m = {
        "cli.main_ms": 1000 * cli_main_s / per_cmd if per_cmd else 0.0,
        "cli.startup_ms": 1000 * (process_s - cli_main_s) / per_cmd if per_cmd else 0.0,
        "cli.parse_ms": ms("cli.parse_game_text", "cli.parse_inequality_text",
                           "cli.parse_graph_text", "rational.parse_rational") / (per_cmd or 1),
        "cli.serialize_ms": ms("cli.canonical_json") / (per_cmd or 1),
        "values.classical_value_ms": ms("values.classical_value"),
        "values.classical_value_calls": per_pass("values.classical_value"),
        "values.classical_calls_per_game":
            per_pass("values.classical_value") / games if games else 0.0,
        "values.alice_maps": per_pass("values.classical_value", "alice_maps"),
        "values.maps_per_s": get("values.classical_value", "alice_maps") / cv_s if cv_s else 0.0,
        "values.spectral_norm_ms": ms("values.spectral_norm"),
        "values.spectral_norm_calls": per_pass("values.spectral_norm"),
        "values.gen_norm_ms": ms("values.gen_norm", "values.gen_norm_detailed"),
        "values.gen_norm_calls": per_pass("values.gen_norm_detailed"),
        "values.sufficient_ms": ms("values.sufficient_no_advantage"),
        "chsh.face_condition_ms": ms("chsh.face_condition"),
        "chsh.certificate_ms": ms("chsh.sigma_lambda_certificate"),
        "chsh.qubit_estimate_ms": ms("chsh.qubit_value_estimate"),
        "games.to_inequality_ms": ms("games.to_bell_inequality", "games.to_correlator_inequality"),
        "tightness.saturating_boxes_ms": ms("tightness.saturating_boxes"),
        "tightness.boxes_scanned": boxes,
        "tightness.saturating_hits": per_pass("tightness.saturating_boxes", "hits"),
        "tightness.hit_ratio":
            per_pass("tightness.saturating_boxes", "hits") / boxes if boxes else 0.0,
        "tightness.facet_test_ms": ms("tightness.facet_test"),
        "tightness.decompose_ms": ms("tightness.nlc2_decompose", "tightness.nlcd_nonfacet_check"),
        "scenario.project_ms": ms("scenario.reduced_vector", "scenario.correlator_vector"),
        "exactrank.affine_rank_ms": ms("exactrank.affine_rank", "exactrank.matrix_rank_exact",
                                       "exactrank.integer_rank"),
        "exactrank.affine_rank_calls": per_pass("exactrank.affine_rank"),
        "exactrank.rank_cells": per_pass("exactrank.affine_rank", "cells"),
        "cut.enumerate_cuts_ms": ms("cut.enumerate_cuts"),
        "cut.cuts_enumerated": per_pass("cut.enumerate_cuts", "cuts"),
        "cut.evaluate_cut_ms": ms("cut.evaluate_cut"),
        "cut.evaluate_cut_calls": per_pass("cut.evaluate_cut"),
        "cut.census_ms": ms("cut.maximal_orthogonal_sets"),
    }
    return m


def traced_run(workload, seed, seconds, env, res):
    breakdowns = [import_breakdown(env) for _ in range(IMPORTTIME_STARTS)]
    m = {f"init.{k if k != 'bellpoly' else 'import'}_ms":
         statistics.median(b[k] for b in breakdowns)
         for k in ("bellpoly", "numpy", "scipy", "networkx")}
    if workload == "cli":
        # cli.main in process: one untraced and one traced pass
        w = run_worker("cli", seed, 0, True, env)
        main_s = statistics.median(w["walls"])
        m.update(layer_metrics(w["layers"], len(w["traced_walls"]), w["ops"],
                               cli_main_s=main_s,
                               process_s=statistics.median(res["walls"])))
    else:
        w = res["worker"]
        m.update(layer_metrics(w["layers"], len(w["traced_walls"]), w["ops"]))
    m["trace.overhead_s"] = statistics.median(w["traced_walls"]) - statistics.median(w["walls"])
    with open(os.path.join(OUT_DIR, f"trace-{workload}.json"), "w") as fh:
        json.dump({"spans": w["spans"], "layers": w["layers"]}, fh)
    return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "bellpoly", "__init__.py")):
        fail("run from the root of a bellpoly checkout: src/bellpoly is missing")
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"),
                                                      env.get("PYTHONPATH")]))

    import_seconds(env)  # warm-up: compiles bytecode on a fresh checkout
    setup = statistics.median(import_seconds(env) for _ in range(SETUP_STARTS))

    if args.workload == "cli":
        res = cli_workload(args.seed, args.seconds, env)
    else:
        res = in_process(args.workload, args.seed, args.seconds, args.trace == 1, env)

    for p in res["problems"]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"perfbench: median pass {statistics.median(res['raw_walls']):.4f} s unscaled, "
          f"{statistics.median(res['walls']):.4f} s at reference speed", file=sys.stderr)
    if args.trace:
        metrics = traced_run(args.workload, args.seed, args.seconds, env, res)
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "op_ms_p50": {"value": 1000 * statistics.median(res["op_times"]), "unit": "ms"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        }
    result = {"correct": not res["problems"], "attempted": res["passes"] * res["ops"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
