"""Runs one workload's operations in this process and pickles what happened.

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT

Started by run.py from the checkout root with PYTHONPATH pointing at src.
A pass runs every operation once, in order, each starting when the one
before it ended (one client, closed loop) and the host's speed has been read
(speed.py); operation times are scaled by it. One untimed warm-up pass comes
first; timed passes then repeat while the next one would still end within
SECONDS, at least once.
With TRACE=1, untraced and traced passes alternate (at least one of each)
and the span summary of the traced passes is saved.

Every call goes through a module attribute at call time, so the tracing
wrappers see it. Operation inputs are built before the first pass; only the
program calls are timed. Results are reduced to plain data (ints, Fractions,
floats, strings) for the checker in run.py, which never imports bellpoly.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import resource
import sys
import time
from fractions import Fraction

import bellpoly  # noqa: F401  (loads every module the tracer wraps)
from bellpoly import chsh, cli, cut, games, scenario, tightness, values

import inputs
import speed
from spans import Tracer


def build_game(spec):
    if spec["kind"] == "linear":
        return games.LinearGame(spec["d"], spec["ma"], spec["mb"], spec["q"], spec["f"])
    if spec["kind"] == "unique3":
        return games.UniqueGame3(spec["ma"], spec["mb"], spec["q"], spec["perms"])
    return games.build_nlc(games.NLCSpec(spec["d"], spec["n"], spec["g"], spec["p"]))


def facet_summary(rep, bound=None):
    return {"is_facet": rep.is_facet, "ambient": rep.ambient_dim,
            "count": rep.saturating_count, "dim": rep.saturating_affine_dim,
            "fragments": None if rep.decomposition is None
            else [fr.bound for fr in rep.decomposition], "bound": bound}


def value_summary(rep):
    na = rep.no_advantage
    return {"classical": rep.classical, "witness": rep.witness, "bound": rep.quantum_upper_bound,
            "W": rep.no_signaling, "no_adv": None if na is None else (na.holds, na.strategy)}


def chsh_op(weights):
    w = chsh.WeightedCHSH(weights)

    def call():
        verdict = chsh.face_condition(w)
        cert = chsh.sigma_lambda_certificate(w)
        return verdict, cert, chsh.qubit_value_estimate(w)

    def summarize(r):
        verdict, cert, qubit = r
        return {"verdict": verdict.verdict, "cgv": verdict.classical_game_value,
                "cb": verdict.correlator_bound, "qubit": qubit,
                "cert": (cert.verdict, cert.rho)}
    return call, summarize


def game_values(seed):
    ops = []
    for op in inputs.game_values_ops(seed):
        if op[0] == "chsh":
            ops.append(chsh_op(op[1]))
            continue
        g, sufficient = build_game(op[1]), op[2]
        ops.append((lambda g=g, s=sufficient: values.value_report(g, with_sufficient=s),
                    value_summary))
    return ops


def facets(seed):
    ops = []
    for op in inputs.facets_ops(seed):
        kind = op[0]
        if kind == "positivity":
            m, (x0, y0, a0, b0) = op[1]["m"], op[1]["cell"]
            coeffs = tuple(tuple(tuple(tuple(
                Fraction(-1) if (x, y, a, b) == (x0, y0, a0, b0) else Fraction(0)
                for b in range(2)) for a in range(2)) for y in range(m)) for x in range(m))
            ineq = scenario.BellInequality(scenario.Scenario(m, m, 2, 2), coeffs, Fraction(0))
            ops.append((lambda i=ineq: tightness.facet_test(i, "bell"), facet_summary))
        elif kind == "game_facet":
            g, poly = build_game(op[1]), op[2]

            def call(g=g, poly=poly):
                ineq = (games.to_bell_inequality(g) if poly == "bell"
                        else games.to_correlator_inequality(g))
                return tightness.facet_test(ineq, poly), ineq.bound
            ops.append((call, lambda r: facet_summary(*r)))
        elif kind == "decompose":
            g = build_game(op[1])
            ops.append((lambda g=g: tightness.nlc2_decompose(g), facet_summary))
        elif kind == "nlcd_nonfacet":
            g = build_game(op[1])
            ops.append((lambda g=g: tightness.nlcd_nonfacet_check(g), facet_summary))
        elif kind == "cut_facet":
            b = op[1]
            ops.append((lambda b=b: cut.cut_facet_test(cut.CutInequality.hypermetric(b),
                                                       cut.Graph.complete(len(b))),
                        facet_summary))
        elif kind == "census":
            ops.append((lambda n=op[1]: cut.maximal_orthogonal_sets(n), census_summary))
        elif kind == "ce_gap":
            ops.append((cut_ce_gap, dict))
        elif kind == "corr_facet":
            ineq = scenario.correlator_inequality(scenario.Scenario(2, 2, 2, 2), op[1]["corr"],
                                                  op[1]["bound"])
            ops.append((lambda i=ineq: tightness.facet_test(i, "correlation"), facet_summary))
    return ops


def cut_ce_gap():
    return cut.ce_gap_report()


def census_summary(c):
    def events(sets):
        return tuple(tuple((e.i, e.j, e.a, e.b) for e in s) for s in sets)
    return {"normalization": events(c.normalization), "protocol": events(c.protocol),
            "triples": events(c.triples)}


def cli_inprocess(seed):
    """cli.main per command, stdout captured; used by the traced cli run."""
    ops, files = inputs.cli_ops(seed)
    out = []
    for argv, _ in ops:
        argv = [os.path.join(inputs.CLI_DIR, a) if a in files else a for a in argv]

        def call(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        out.append((call, lambda r: r))
    return out


WORKLOADS = {"game-values": game_values, "facets": facets, "cli": cli_inprocess}


def run_pass(ops):
    """Returns the pass time and the time of each operation, both scaled to
    reference speed by the host-speed readings taken between operations
    (see speed.py), the results, and the unscaled sum of operation times."""
    results, times, raw_times = [], [], []
    before = speed.kernel_seconds()
    for call, summarize in ops:
        t0 = time.perf_counter()
        try:
            raw, err = call(), None
        except Exception as e:  # an operation that raises counts as failed
            raw, err = None, e
        took = time.perf_counter() - t0
        after = speed.kernel_seconds()
        raw_times.append(took)
        times.append(speed.scaled(took, before, after))
        before = after
        results.append({"error": type(err).__name__, "message": str(err)} if err is not None
                       else summarize(raw))
    return sum(times), times, results, sum(raw_times)


def main():
    workload, seed, seconds, trace, out_path = sys.argv[1:6]
    seconds, trace = float(seconds), trace == "1"
    ops = WORKLOADS[workload](int(seed))
    tracer = Tracer() if trace else None
    walls, traced_walls, op_times, raw_walls = [], [], [], []
    # warm-up pass: lazy set-up and first-touch allocation stay out of the
    # timed passes; its results are the reference the timed passes must repeat.
    # Peak memory is read after it: a fresh process through one whole pass.
    # Later passes would add allocator history (freed memory kept in the
    # arenas of the program's worker threads) that moves the peak from run
    # to run.
    _, _, first, _ = run_pass(ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    nondeterministic = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.install()
            try:
                wall, times, results, raw_wall = run_pass(ops)
            finally:
                if traced:
                    tracer.restore()
            (traced_walls if traced else walls).append(wall)
            if not traced:
                op_times += times
                raw_walls.append(raw_wall)
            if results != first:
                nondeterministic += [i for i, (a, b) in enumerate(zip(first, results)) if a != b]
        now = time.perf_counter()
        if now + (now - started) > deadline:  # the next round would overrun
            break
    data = {"walls": walls, "traced_walls": traced_walls, "op_times": op_times,
            "raw_walls": raw_walls,
            "results": first, "nondeterministic": sorted(set(nondeterministic)),
            "ops": len(ops), "rss_mb": rss_mb, "layers": tracer.summary() if trace else None}
    if trace:
        data["spans"] = [s[:4] for s in tracer.spans]
    with open(out_path, "wb") as fh:
        pickle.dump(data, fh)


if __name__ == "__main__":
    main()
