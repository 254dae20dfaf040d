"""Command-line front end.

Reports are canonical JSON: two-space indent, sorted keys, trailing newline.
Exact quantities appear as "num/den" strings; floating-point quantities are
objects {"value": ..., "precision": ...} so the printed digits carry their
own error bar; a float that is infinite or undefined prints as null, so every
report is strict JSON. Exit codes: 0 success, 2 malformed input or a report
that cannot be written (a full disk, a closed pipe), 3 enumeration budget
exceeded or out of memory, 4 internal cross-check failure (a computed
certificate contradicted an exact recomputation; deliberately loud).

Argument rules live in the parser: each command and cut operation declares
only the options it reads, so a stray or missing option exits 2 there. One
rule is checked before it: a cut option given before the operation name
exits 2 with the order `bellpoly cut OPERATION [options]`. Each
handler imports the modules it computes with when it runs, so `--help`,
argument errors, `chsh` and the cut operations that build no array
(`suspend`, `cuts`, `ce1`, `ce-gap`) start without numpy, the cut facet
tests (`facet`, `pentagonal`) without the game modules, and `facet-test`
of an inequality file without `cut`.

`main(argv)` prints the report and returns the exit code, and touches the
process no further, so tests and library callers run it in process. `run`
is the process entry of `bellpoly` and `python -m bellpoly.cli`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import DEFAULT_BOX_BUDGET, BudgetExceededError, ParseError, VerificationError
from .rational import format_rational, parse_rational


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _finite(x: float):
    # strict JSON has no Infinity or NaN; a non-finite float is reported as null
    x = float(x)
    return x if math.isfinite(x) else None


def _float_field(value: float, precision: float) -> dict:
    return {"value": _finite(value), "precision": _finite(precision)}


def _line_of(raw: str, needle: str, key: str = None) -> int:
    """The first line holding needle, searched from the line of the key
    `key` on when one is given (the table the value sits in); else line 1."""
    start = _line_of(raw, f'"{key}"') if key else 1
    for i, line in enumerate(raw.splitlines()[start - 1:], start=start):
        if needle in line:
            return i
    return 1


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _load_json(raw: str) -> dict:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno) from None
    if not isinstance(data, dict):
        raise ParseError("top level must be an object", line=1)
    return data


def _rat(value, raw: str, what: str, key: str = None) -> Fraction:
    try:
        return parse_rational(value, where=what)
    except ParseError as e:
        raise ParseError(str(e), line=_line_of(raw, str(value), key)) from None


def _need(data, key):
    if key not in data:
        raise ParseError(f"missing key {key!r}", line=1)
    return data[key]


def _int_at(value, raw, what, key=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer", line=_line_of(raw, str(value), key))
    return value


def _table(data, key, raw, rows, cols, convert):
    t = _need(data, key)
    if not isinstance(t, list) or len(t) != rows \
            or any(not isinstance(r, list) or len(r) != cols for r in t):
        raise ParseError(f"{key!r} must be a {rows} x {cols} table",
                         line=_line_of(raw, f'"{key}"'))
    return tuple(tuple(convert(v) for v in r) for r in t)


def parse_game_text(raw: str):
    from .games import NLCSpec, LinearGame, UniqueGame3, build_nlc
    data = _load_json(raw)
    kind = _need(data, "kind")
    if kind == "linear":
        d = _int_at(_need(data, "d"), raw, "d")
        ma = _int_at(_need(data, "mA"), raw, "mA")
        mb = _int_at(_need(data, "mB"), raw, "mB")
        q = _table(data, "q", raw, ma, mb, lambda v: _rat(v, raw, "weight", "q"))
        f = _table(data, "f", raw, ma, mb, lambda v: _int_at(v, raw, "f entry", "f"))
        for row in f:
            for v in row:
                if not 0 <= v < d:
                    raise ParseError(f"f entry {v} outside Z_{d}",
                                     line=_line_of(raw, str(v), "f"))
        n = _int_at(data.get("n", 1), raw, "n")
        try:
            return LinearGame(d, ma, mb, q, f, n=n)
        except ValueError as e:
            raise ParseError(str(e), line=1) from None
    if kind == "unique3":
        ma = _int_at(_need(data, "mA"), raw, "mA")
        mb = _int_at(_need(data, "mB"), raw, "mB")
        q = _table(data, "q", raw, ma, mb, lambda v: _rat(v, raw, "weight", "q"))
        perms = _table(data, "perms", raw, ma, mb, str)
        try:
            return UniqueGame3(ma, mb, q, perms)
        except ValueError as e:
            raise ParseError(str(e), line=_line_of(raw, '"perms"')) from None
    if kind == "nlc":
        d = _int_at(_need(data, "d"), raw, "d")
        sub = _need(data, "nlc")
        if not isinstance(sub, dict):
            raise ParseError('"nlc" must be an object', line=_line_of(raw, '"nlc"'))
        n = _int_at(_need(sub, "n"), raw, "n")
        g, p = _need(sub, "g"), _need(sub, "p")
        if not isinstance(g, list) or not isinstance(p, list):
            raise ParseError('"g" and "p" must be lists', line=_line_of(raw, '"nlc"'))
        g = [_int_at(v, raw, "g entry", "g") for v in g]
        p = [_rat(v, raw, "probability", "p") for v in p]
        try:
            return build_nlc(NLCSpec(d, n, tuple(g), tuple(p)))
        except ValueError as e:
            raise ParseError(str(e), line=_line_of(raw, '"nlc"')) from None
    raise ParseError(f"unknown game kind {kind!r}", line=_line_of(raw, '"kind"'))


def serialize_game(g) -> str:
    from .games import UniqueGame3
    if isinstance(g, UniqueGame3):
        data = {"kind": "unique3", "d": 3, "mA": g.ma, "mB": g.mb,
                "q": [[format_rational(v) for v in row] for row in g.q],
                "perms": [list(row) for row in g.perms]}
    elif g.nlc is not None:
        data = {"kind": "nlc", "d": g.d,
                "nlc": {"n": g.nlc.n, "g": list(g.nlc.g),
                        "p": [format_rational(v) for v in g.nlc.p]}}
    else:
        data = {"kind": "linear", "d": g.d, "mA": g.ma, "mB": g.mb,
                "q": [[format_rational(v) for v in row] for row in g.q],
                "f": [list(row) for row in g.f]}
        if g.n != 1:
            data["n"] = g.n
    return canonical_json(data)


def parse_graph_text(raw: str):
    from .cut import Graph
    lines = raw.splitlines()
    if not lines:
        raise ParseError("empty graph file", line=1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError("first line must be the vertex count", line=1) from None
    edges = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("edge lines read 'i j'", line=ln)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=ln) from None
        edges.append(((i, j), ln))
    try:
        return Graph(n, [edge for edge, _ in edges])
    except ValueError as e:
        # a vertex-count error is line 1's; an edge error is the line of the
        # first edge the graph refuses on its own
        line = 1 if _refused(n, ()) else \
            next((ln for edge, ln in edges if _refused(n, [edge])), 1)
        raise ParseError(str(e), line=line) from None


def _refused(n, edges) -> bool:
    from .cut import Graph
    try:
        Graph(n, edges)
    except ValueError:
        return True
    return False


def serialize_graph(g) -> str:
    return "\n".join([str(g.n)] + [f"{i} {j}" for i, j in g.sorted_edges]) + "\n"


def parse_inequality_text(raw: str):
    from .scenario import BellInequality, Scenario, correlator_inequality
    data = _load_json(raw)
    space = _need(data, "space")
    bound = _rat(_need(data, "bound"), raw, "bound")
    coeffs = _need(data, "coeffs")
    # the constructors check the tables' shapes; a ValueError there (a ragged
    # table, or an empty level, which makes no scenario) is this file's fault
    if space == "probability":
        try:
            ma, mb = len(coeffs), len(coeffs[0])
            da, db = len(coeffs[0][0]), len(coeffs[0][0][0])
            table = tuple(
                tuple(tuple(tuple(_rat(v, raw, "coefficient", "coeffs") for v in cell)
                            for cell in row) for row in block)
                for block in coeffs)
            return BellInequality(Scenario(ma, mb, da, db), table, bound)
        except ParseError:
            raise
        except (ValueError, TypeError, IndexError, KeyError):
            raise ParseError("probability coeffs must be nested [x][y][a][b]",
                             line=_line_of(raw, '"coeffs"')) from None
    if space == "correlator":
        try:
            ma, mb = len(coeffs), len(coeffs[0])
            corr = tuple(tuple(_rat(v, raw, "coefficient", "coeffs") for v in row)
                         for row in coeffs)
            return correlator_inequality(Scenario(ma, mb, 2, 2), corr, bound)
        except ParseError:
            raise
        except (ValueError, TypeError, IndexError, KeyError):
            raise ParseError("correlator coeffs must be nested [x][y]",
                             line=_line_of(raw, '"coeffs"')) from None
    if space == "cut":
        from .cut import CutInequality
        n = _int_at(_need(data, "n"), raw, "n")
        try:
            pairs = [((_int_at(e[0], raw, "edge endpoint", "coeffs"),
                       _int_at(e[1], raw, "edge endpoint", "coeffs")),
                      _rat(e[2], raw, "coefficient", "coeffs")) for e in coeffs]
            return CutInequality(n, pairs, bound)
        except ParseError:
            raise
        except ValueError as e:  # a negative vertex count, or a bad or repeated edge
            raise ParseError(str(e), line=_line_of(raw, '"n"' if n < 0 else '"coeffs"')) from None
        except (TypeError, IndexError, KeyError):
            raise ParseError("cut coeffs must be [i, j, value] triples",
                             line=_line_of(raw, '"coeffs"')) from None
    raise ParseError(f"unknown space {space!r}", line=_line_of(raw, '"space"'))


def serialize_inequality(ineq) -> str:
    return canonical_json(_inequality_dict(ineq))


def _inequality_dict(ineq) -> dict:
    """The inequality file's object, which `parse_inequality_text` reads."""
    from .cut import CutInequality
    bound = format_rational(ineq.bound)
    if isinstance(ineq, CutInequality):
        return {"space": "cut", "n": ineq.n, "bound": bound,
                "coeffs": [[i, j, format_rational(c)]
                           for (i, j), c in sorted(ineq.edge_coeffs.items())]}
    if ineq.space == "correlator":
        return {"space": "correlator", "bound": bound,
                "coeffs": [[format_rational(v) for v in row] for row in ineq.corr]}
    return {"space": "probability", "bound": bound,
            "coeffs": [[[[format_rational(v) for v in cell] for cell in row]
                        for row in block] for block in ineq.coeffs]}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _at_least(value, low, flag):
    """Reject a numeric option below its least value as a parse error."""
    if value < low:
        raise ParseError(f"{flag} must be at least {low}, got {value}")


def _cmd_analyze_game(args):
    from .games import UniqueGame3
    from .values import value_report
    _at_least(args.budget, 0, "--budget")
    raw = open(args.path, "rb").read()
    g = parse_game_text(raw.decode())
    rep = value_report(g, with_sufficient=args.sufficient, budget=args.budget)
    everything = not (args.classical or args.bound or args.sufficient)
    s = g.scenario
    results = {"kind": "unique3" if isinstance(g, UniqueGame3) else "linear",
               "scenario": {"mA": s.ma, "mB": s.mb, "dA": s.da, "dB": s.db},
               "total_weight": format_rational(rep.no_signaling),
               "soundness": "verified"}
    if args.classical or everything:
        results["classical_value"] = format_rational(rep.classical)
        results["witness"] = {"a_map": list(rep.witness[0]),
                              "b_map": list(rep.witness[1])}
        results["no_signaling_value"] = format_rational(rep.no_signaling)
    if args.bound or everything:
        results["quantum_upper_bound"] = _float_field(rep.quantum_upper_bound,
                                                      rep.bound_error)
        if isinstance(g, UniqueGame3):
            u = rep.norm_bound
            results["bound_certified"] = u.certified
            results["joint_norms"] = [_float_field(hi, precision) for (_, hi), precision
                                      in zip(u.norms, u.precisions)]
    if args.sufficient and rep.no_advantage is not None:
        v = rep.no_advantage
        results["no_advantage"] = {
            "verdict": "Holds" if v.holds else "Inconclusive",
            "strategy": None if v.strategy is None else
                        {"a_map": list(v.strategy[0]), "b_map": list(v.strategy[1])},
            "reason": v.reason,
        }
    return results, _digest(raw)


def _facet_report_dict(rep, extra=None):
    out = {"polytope": rep.polytope_kind,
           "ambient_dim": rep.ambient_dim,
           "saturating_count": rep.saturating_count,
           "saturating_affine_dim": rep.saturating_affine_dim,
           "is_facet": rep.is_facet,
           "trivial_facet_class": rep.trivial_facet_class,
           "notes": list(rep.notes)}
    if rep.decomposition is not None:
        out["decomposition"] = {
            "fragments": len(rep.decomposition),
            "fragment_bounds": [format_rational(fr.bound) for fr in rep.decomposition],
        }
    if extra:
        out.update(extra)
    return out


def _cmd_facet_test(args):
    from .tightness import facet_test, game_facet_test
    _at_least(args.budget, 0, "--budget")
    raw = open(args.path, "rb").read()
    text = raw.decode()
    data = _load_json(text)
    if "kind" in data:
        rep, bound = game_facet_test(parse_game_text(text), args.polytope, budget=args.budget)
    elif data.get("space") == "cut":  # refused before parsing it would load bellpoly.cut
        raise ParseError("cut-space inequalities go through the cut subcommand", line=1)
    else:
        ineq = parse_inequality_text(text)
        rep, bound = facet_test(ineq, args.polytope, budget=args.budget), ineq.bound
    return _facet_report_dict(rep, {"bound": format_rational(bound)}), _digest(raw)


def _cmd_chsh(args):
    from .chsh import face_condition, from_weights, qubit_value_estimate, sigma_lambda_certificate
    raw = [args.p1, args.p2, args.p3, args.p4]
    try:
        w = from_weights([parse_rational(v, where=f"P{k}") for k, v in enumerate(raw, 1)])
    except ValueError as exc:
        raise ParseError(str(exc), line=1) from None
    verdict = face_condition(w)
    results = {
        "canonical": {
            "p": [format_rational(v) for v in w.p],
            "sign_cell": None if w.sign_cell is None else list(w.sign_cell),
            "trivial_even": w.trivial_even,
        },
        "verdict": verdict.verdict,
        "algebraically_trivial": verdict.algebraically_trivial,
        "face_lhs": None if verdict.lhs is None else format_rational(verdict.lhs),
        "face_rhs": None if verdict.rhs is None else format_rational(verdict.rhs),
        "classical_game_value": format_rational(verdict.classical_game_value),
        "correlator_bound": format_rational(verdict.correlator_bound),
        "qubit_estimate": _float_field(qubit_value_estimate(w), 1e-4),
    }
    if w.trivial_even:
        results["certificate"] = None
    else:
        cert = sigma_lambda_certificate(w)
        results["certificate"] = {
            "rho": _float_field(cert.rho, cert.tolerance),
            "verdict": cert.verdict,
        }
    return results, _digest(" ".join(raw).encode())


def _parse_b(text: str):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ParseError("--b takes comma-separated integers", line=1) from None


def _graph_dict(g):
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges]}


def _correlator_ineq_dict(ineq):
    return {"pairs": [[i, j, format_rational(c)]
                      for (i, j), c in sorted(ineq.pair_coeffs.items())],
            "singles": [format_rational(v) for v in ineq.single_coeffs],
            "bound": format_rational(ineq.bound)}


def _read_graph(path):
    raw = open(path, "rb").read()
    return parse_graph_text(raw.decode()), raw


def _graph_option(args):
    """The --graph file's graph, or None for the library's default K_n."""
    return None if args.graph is None else _read_graph(args.graph)[0]


def _cut_suspend(args):
    from .cut import suspension
    g, raw = _read_graph(args.graph)
    return {"graph": _graph_dict(g), "suspension": _graph_dict(suspension(g))}, _digest(raw)


def _cut_cuts(args):
    from .cut import enumerate_cuts
    g, raw = _read_graph(args.graph)
    cuts = [{"subset": sorted(cv.subset), "bits": list(cv.bits)} for cv in enumerate_cuts(g)]
    return {"count": len(cuts), "cuts": cuts}, _digest(raw)


def _cut_ce1(args):
    from .cut import ce1_inequalities
    _at_least(args.n, 0, "--n")
    ineqs = [_correlator_ineq_dict(q) for q in ce1_inequalities(args.n)]
    return {"n": args.n, "count": len(ineqs), "inequalities": ineqs}, _digest(str(args.n).encode())


def _cut_hypermetric(args):
    from .cut import hypermetric_valid
    b = _parse_b(args.b)
    return {"b": list(b), "n": len(b), "valid": hypermetric_valid(b, _graph_option(args))}, \
        _digest(args.b.encode())


def _cut_facet(args):
    from .cut import CutInequality, cut_facet_test, hypermetric_facet_test
    if args.ineq is not None:
        raw = open(args.ineq, "rb").read()
        ineq = parse_inequality_text(raw.decode())
        if not isinstance(ineq, CutInequality):
            raise ParseError("cut facet tests need a cut-space inequality", line=1)
        return _facet_report_dict(cut_facet_test(ineq, _graph_option(args))), _digest(raw)
    b = _parse_b(args.b)
    return _facet_report_dict(hypermetric_facet_test(b, _graph_option(args)), {"b": list(b)}), \
        _digest(args.b.encode())


def _cut_pentagonal(args):
    from .cut import pentagonal_report
    rep = pentagonal_report()
    return {"inequality": _correlator_ineq_dict(rep["inequality"]),
            "cut_form": _inequality_dict(rep["cut_form"]),
            "hypermetric_b": list(rep["hypermetric_b"]), "valid_on_k5": rep["valid_on_k5"],
            "deterministic_max": format_rational(rep["deterministic_max"]),
            "facet": _facet_report_dict(rep["facet"])}, _digest(b"pentagonal")


def _cut_ce_gap(args):
    from .cut import ce_gap_report
    rep = ce_gap_report()
    checks = {key: format_rational(rep[key]) for key in
              ("positivity_min", "ce1_max", "pentagonal_value", "pentagonal_bound")}
    return {"behaviour": {
                "singles": [format_rational(v) for v in rep["singles"]],
                "fulls": [[i, j, format_rational(c)] for (i, j), c in rep["fulls"]]},
            "checks": dict(checks, ce1_count=rep["ce1_count"])}, _digest(b"ce-gap")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bellpoly",
                                 description="nonlocal game values, facet tests, "
                                             "and cut-polytope contextuality checks")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--timing", action="store_true")

    def command(parent, name, handler, **kw):
        p = parent.add_parser(name, parents=[common], **kw)
        p.set_defaults(handler=handler)
        return p

    g1 = command(sub, "analyze-game", _cmd_analyze_game,
                 help="classical/no-signaling values and norm bounds")
    g1.add_argument("path")
    for flag in ("--classical", "--bound", "--sufficient"):
        g1.add_argument(flag, action="store_true")
    g1.add_argument("--budget", type=int, default=DEFAULT_BOX_BUDGET,
                    help="most response maps to enumerate, counted on the side "
                         "enumerated after inputs of zero weight are dropped")

    g2 = command(sub, "facet-test", _cmd_facet_test,
                 help="exact facet test of a game or inequality file")
    g2.add_argument("path")
    g2.add_argument("--polytope", choices=("bell", "correlation"), required=True)
    g2.add_argument("--budget", type=int, default=DEFAULT_BOX_BUDGET,
                    help="most response maps in any one scan (of a game or a fragment), "
                         "on the side with fewer; also caps the cells (rows times "
                         "ambient columns) of the exact rank")

    g3 = command(sub, "chsh", _cmd_chsh, help="canonical form, face verdict, certificates")
    for name in ("p1", "p2", "p3", "p4"):
        g3.add_argument(name)

    ops = sub.add_parser("cut", help="cut polytope and exclusivity operations") \
        .add_subparsers(dest="subcommand", required=True)
    for name, handler in (("suspend", _cut_suspend), ("cuts", _cut_cuts)):
        command(ops, name, handler).add_argument("--graph", required=True, help="graph file")
    command(ops, "ce1", _cut_ce1).add_argument("--n", type=int, required=True,
                                               help="observable count")
    hyper = command(ops, "hypermetric", _cut_hypermetric)
    hyper.add_argument("--b", required=True, help="comma-separated hypermetric coefficients")
    hyper.add_argument("--graph", help="graph file, in place of the complete graph K_n")
    facet = command(ops, "facet", _cut_facet)
    what = facet.add_mutually_exclusive_group(required=True)
    what.add_argument("--b", help="comma-separated hypermetric coefficients")
    what.add_argument("--ineq", help="cut-space inequality file")
    facet.add_argument("--graph", help="graph file, in place of the complete graph K_n")
    command(ops, "pentagonal", _cut_pentagonal)
    command(ops, "ce-gap", _cut_ce_gap)
    return ap


def _refuse_option_before_operation(parser, argv):
    """Exit 2 when an option comes between `cut` and its operation name:
    argparse would read the option's value as the operation and name that
    value as an invalid choice."""
    if argv[:1] == ["cut"] and argv[1:2] and argv[1].startswith("-") \
            and argv[1] not in ("-h", "--help"):
        parser.error(f"option {argv[1]} comes before the operation; "
                     "the order is bellpoly cut OPERATION [options]")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    _refuse_option_before_operation(parser, argv)
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        results, digest = args.handler(args)
    except ParseError as e:
        print(f"bellpoly: parse error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"bellpoly: invalid input: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"bellpoly: cannot read input: {e}", file=sys.stderr)
        return 2
    except (BudgetExceededError, MemoryError) as e:
        print(f"bellpoly: budget exceeded: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3
    except VerificationError as e:
        print(f"bellpoly: verification failure: {e}", file=sys.stderr)
        return 4
    report = {
        "command": [args.command] + argv[1:],
        "input_digest": digest,
        "results": results,
        "tool": "bellpoly",
        "version": __version__,
    }
    if args.timing:
        report["timing_seconds"] = round(time.monotonic() - started, 6)
    sys.stdout.write(canonical_json(report))
    return 0


def run():
    """The process entry of `bellpoly` and `python -m bellpoly.cli`: `main`
    on the command line, the report flushed, then exit with main's code, or
    with 2 when the report cannot be written (a full disk, a closed pipe).
    The heap is frozen first (`gc.freeze`), so that the interpreter's
    teardown does not walk every object numpy and the command made."""
    try:
        try:
            code = main()
        except SystemExit as e:  # argparse's --help and usage errors
            code = e.code
        sys.stdout.flush()
    except OSError as e:
        print(f"bellpoly: cannot write report: {e}", file=sys.stderr)
        # the unwritten report stays buffered: the flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
