"""Independent answers for the workloads, computed without bellpoly.

Each game is turned into an integer win tensor V[x, y, a, b] (weights scaled
by their common denominator). Classical values enumerate the side with fewer
response maps, the other side answering per input; facet data come from the
same enumeration, with saturating boxes built from per-input tie sets and
ranks taken by elimination modulo two primes near 2^31. Cut and event
checks enumerate subsets and cliques directly.

Every check function returns a list of problems; an empty list means the
program's answer agrees.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction as F
from math import comb, gcd, sqrt

import numpy as np

from inputs import ternary_sum_game, tight_d4_game, tsirelson_value

PERMS = {"e": (0, 1, 2), "(01)": (1, 0, 2), "(02)": (2, 1, 0), "(12)": (0, 2, 1),
         "(012)": (1, 2, 0), "(021)": (2, 0, 1)}
PRIMES = (2147483647, 2147483629)
TERNARY_BOUND = (1 + 2 * sqrt(3) / 3) / 3


# ---------------------------------------------------------------------------
# games
# ---------------------------------------------------------------------------

def _lcm(values):
    den = 1
    for v in values:
        den = den * v.denominator // gcd(den, v.denominator)
    return den


def game_tables(spec):
    """(d, q, win) with q[x][y] a Fraction and win(a, b, x, y) a bool."""
    if spec["kind"] == "linear":
        d, f = spec["d"], spec["f"]
        return d, spec["q"], lambda a, b, x, y: (a + b) % d == f[x][y]
    if spec["kind"] == "unique3":
        perms = spec["perms"]
        return 3, spec["q"], lambda a, b, x, y: PERMS[perms[x][y]][a] == b
    d, n, g, p = spec["d"], spec["n"], spec["g"], spec["p"]
    if d == 2 and len(g) == 2 ** n:  # full truth table on x xor y
        m = 2 ** n
        q = [[p[x ^ y] / m for y in range(m)] for x in range(m)]
        f = [[g[x ^ y] for y in range(m)] for x in range(m)]
    else:  # product form on the first n-1 dits times the last-dit sum
        m = d ** n
        q = [[None] * m for _ in range(m)]
        f = [[0] * m for _ in range(m)]
        for x, y in itertools.product(range(m), repeat=2):
            xt, xn = divmod(x, d)
            yt, yn = divmod(y, d)
            zt, place = 0, 1
            for _ in range(n - 1):
                zt += ((xt % d + yt % d) % d) * place
                xt, yt, place = xt // d, yt // d, place * d
            q[x][y] = p[zt] / d ** (n + 1)
            f[x][y] = (g[zt] * (xn + yn)) % d
    return d, q, lambda a, b, x, y: (a + b) % d == f[x][y]


def win_tensor(spec):
    """Integer tensor V[x, y, a, b] = den * q(x, y) * [win] and den."""
    d, q, win = game_tables(spec)
    ma, mb = len(q), len(q[0])
    den = _lcm(v for row in q for v in row)
    V = np.zeros((ma, mb, d, d), dtype=np.int64)
    for x, y in itertools.product(range(ma), range(mb)):
        w = int(q[x][y] * den)
        for a in range(d):
            for b in range(d):
                if win(a, b, x, y):
                    V[x, y, a, b] = w
    return V, den


def _maps(d, m, lo, hi):
    idx = np.arange(lo, hi, dtype=np.int64)
    return np.stack([(idx // d ** (m - 1 - k)) % d for k in range(m)], axis=1)


def alice_scores(C, lo, hi):
    """T[i, y, b] = sum_x C[x, y, a_i(x), b] for Alice maps lo..hi-1."""
    ma, mb, da, db = C.shape
    M = _maps(da, ma, lo, hi)
    T = np.zeros((hi - lo, mb, db), dtype=C.dtype)
    for x in range(ma):
        T += C[x][:, M[:, x], :].transpose(1, 0, 2)
    return T


def local_max(C):
    """max over deterministic boxes of sum_{x,y} C[x, y, a_x, b_y], enumerating
    the side with fewer response maps."""
    ma, mb, da, db = C.shape
    if db ** mb < da ** ma:
        C = C.transpose(1, 0, 3, 2)
        ma, mb, da, db = C.shape
    best = None
    n, step = da ** ma, 4096
    for lo in range(0, n, step):
        T = alice_scores(C, lo, min(n, lo + step))
        v = int(T.max(axis=2).sum(axis=1).max())
        best = v if best is None else max(best, v)
    return best


def classical(spec):
    V, den = win_tensor(spec)
    return F(local_max(V), den)


def strategy_value(spec, a_map, b_map):
    V, den = win_tensor(spec)
    return F(int(sum(V[x, y, a_map[x], b_map[y]]
                     for x in range(V.shape[0]) for y in range(V.shape[1]))), den)


def total_weight(spec):
    return sum((v for row in game_tables(spec)[1] for v in row), F(0))


def closed_form(spec):
    """(1/d)(1 + (d-1) Lambda) for product-form games."""
    d = spec["d"]
    lam = [F(0)] * d
    for z, gz in enumerate(spec["g"]):
        lam[gz] += spec["p"][z]
    return F(1, d) * (1 + (d - 1) * max(lam))


def is_product_form(spec):
    return spec["kind"] == "nlc" and len(spec["g"]) == spec["d"] ** (spec["n"] - 1)


def check_value(spec, r):
    """r: classical, witness, bound, W, no_adv ((holds, strategy) or None)."""
    out = []
    wc = classical(spec)
    W = total_weight(spec)
    if r["classical"] != wc:
        out.append(f"classical value {r['classical']} != enumerated {wc}")
    if r["witness"] is not None and strategy_value(spec, *r["witness"]) != r["classical"]:
        out.append("witness does not attain the reported classical value")
    if r["W"] != W:
        out.append(f"no-signaling value {r['W']} != total weight {W}")
    if not float(wc) <= r["bound"] + 1e-9 <= float(W) + 2e-9:
        out.append(f"chain classical <= bound <= W fails ({wc}, {r['bound']}, {W})")
    if is_product_form(spec) and wc != closed_form(spec):
        out.append(f"product-form value {wc} != closed form {closed_form(spec)}")
    if spec == ternary_sum_game() and abs(r["bound"] - TERNARY_BOUND) > 1e-9:
        out.append(f"ternary sum bound {r['bound']} != {TERNARY_BOUND}")
    if r["no_adv"] is not None and r["no_adv"][0]:
        if strategy_value(spec, *r["no_adv"][1]) != wc:
            out.append("no-advantage strategy is not optimal")
        if abs(float(wc) - r["bound"]) > 1e-9:
            out.append("no-advantage verdict but the bound is not met")
    if spec == tight_d4_game() and not (r["no_adv"] and r["no_adv"][0] and wc == F(13, 14)
                                         and abs(r["bound"] - 13 / 14) <= 1e-9):
        out.append("tight d = 4 game does not give Holds at 13/14")
    return out


# ---------------------------------------------------------------------------
# weighted CHSH
# ---------------------------------------------------------------------------

def chsh_matrix(weights):
    p1, p2, p3, p4 = weights
    return ((p1, p2), (p3, -p4))


def correlator_max(m):
    return max(sum(m[x][y] * s[x] * t[y] for x in range(2) for y in range(2))
               for s in itertools.product((1, -1), repeat=2)
               for t in itertools.product((1, -1), repeat=2))


def check_chsh(m, r):
    """m: normalized signed 2x2 correlator matrix (Fractions, |m| sums to 1).
    r: verdict, cgv, cb, qubit, cert ((verdict, rho) or None)."""
    out = []
    cmax = correlator_max(m)
    cgv = (1 + cmax) / 2
    qv = tsirelson_value(tuple(tuple(float(v) for v in row) for row in m))
    trivial = cmax == 1  # some relabeling makes every coefficient nonnegative
    if r["cgv"] != cgv or r["cb"] != cmax:
        out.append(f"classical game value {r['cgv']} / bound {r['cb']} != {cgv} / {cmax}")
    if abs(r["qubit"] - qv) > 1e-6:
        out.append(f"qubit estimate {r['qubit']} != Tsirelson value {qv}")
    if trivial:
        want = "Trivial"
    else:
        want = "QuantumViolation" if qv > float(cgv) + 1e-9 else "NontrivialFace"
    if r["verdict"] != want:
        out.append(f"face verdict {r['verdict']}, expected {want}")
    if r["verdict"] == "NontrivialFace" and r["qubit"] > float(cgv) + 1e-4:
        out.append("qubit estimate above the classical value on a nontrivial face")
    if r["verdict"] == "QuantumViolation" and not r["qubit"] > float(cgv):
        out.append("qubit estimate not above the classical value under violation")
    if r["cert"] is not None and r["cert"][0] != "indefinite":
        no_adv = r["verdict"] != "QuantumViolation"
        if no_adv != (abs(r["cert"][1] - 1) <= 1e-8) or no_adv != (r["cert"][0] == "no-advantage"):
            out.append(f"certificate {r['cert']} contradicts verdict {r['verdict']}")
    return out


# ---------------------------------------------------------------------------
# facets of the Bell and correlation polytopes
# ---------------------------------------------------------------------------

def rank_mod_p(rows, p):
    A = np.array(rows, dtype=np.int64) % p
    rank = 0
    for col in range(A.shape[1] if A.ndim == 2 else 0):
        piv = np.nonzero(A[rank:, col])[0]
        if len(piv) == 0:
            continue
        r = rank + int(piv[0])
        A[[rank, r]] = A[[r, rank]]
        inv = pow(int(A[rank, col]), p - 2, p)
        A[rank] = (A[rank] * inv) % p
        below = A[rank + 1:, col].copy()
        A[rank + 1:] = (A[rank + 1:] - below[:, None] * A[rank]) % p
        rank += 1
        if rank == A.shape[0]:
            break
    return rank


def affine_rank(points):
    """Affine dimension, as the largest rank modulo two primes of the
    differences to the first point (a lower bound on the rank over Q that
    equals it unless both primes divide every maximal minor)."""
    pts = np.asarray(points, dtype=np.int64)
    if len(pts) == 1:
        return 0
    diffs = pts[1:] - pts[0]
    return max(rank_mod_p(diffs, p) for p in PRIMES)


def bell_facet_data(C, bound):
    """Enumerate every deterministic box of the integer functional C against
    the integer bound. Returns (max, saturating boxes) where the boxes are
    (a_map, b_map) pairs; saturating boxes are listed only when valid."""
    ma, mb, da, db = C.shape
    T = alice_scores(C, 0, da ** ma)
    best = T.max(axis=2)
    vmax = int(best.sum(axis=1).max())
    if vmax > bound:
        return vmax, None
    boxes = []
    for i in np.nonzero(best.sum(axis=1) == bound)[0]:
        a_map = tuple(int(v) for v in _maps(da, ma, i, i + 1)[0])
        ties = [np.nonzero(T[i, y] == best[i, y])[0].tolist() for y in range(mb)]
        boxes += [(a_map, b_map) for b_map in itertools.product(*ties)]
    return vmax, boxes


def probability_point(shape, a_map, b_map):
    ma, mb, da, db = shape
    v = np.zeros((ma, mb, da, db), dtype=np.int64)
    for x in range(ma):
        for y in range(mb):
            v[x, y, a_map[x], b_map[y]] = 1
    return v.ravel()


def correlator_point(a_map, b_map):
    return [1 if a == b else -1 for a in a_map for b in b_map]


def ns_dimension(ma, mb, da, db):
    return ma * mb * (da - 1) * (db - 1) + ma * (da - 1) + mb * (db - 1)


def expected_facet(C, bound, kind, stats=True):
    """Independent facet data for a probability-space functional C (integer,
    correlator functionals expanded) and integer bound. With stats=False the
    saturating count and rank are left out."""
    ma, mb, da, db = C.shape
    vmax, boxes = bell_facet_data(C, bound)
    if boxes is None:
        return {"valid": False, "max": vmax}
    ambient = ns_dimension(ma, mb, da, db) if kind == "bell" else ma * mb
    exp = {"valid": True, "max": vmax, "ambient": ambient, "count": -1, "dim": -1}
    if stats:
        if kind == "bell":
            pts = [probability_point(C.shape, a, b) for a, b in boxes]
        else:
            pts = [correlator_point(a, b) for a, b in boxes]
        exp.update(count=len(boxes), dim=affine_rank(pts) if pts else -1)
    return exp


def compare_facet(exp, r, what):
    """r: is_facet, ambient, count, dim (count/dim -1 when skipped)."""
    out = []
    if not exp["valid"]:
        return out  # the caller decides what a verdict on an invalid inequality means
    if r["ambient"] != exp["ambient"]:
        out.append(f"{what}: ambient {r['ambient']} != {exp['ambient']}")
    if r["count"] != -1 or r["dim"] != -1:
        if r["count"] != exp["count"]:
            out.append(f"{what}: saturating count {r['count']} != {exp['count']}")
        if r["dim"] != exp["dim"]:
            out.append(f"{what}: affine dim {r['dim']} != rank {exp['dim']}")
    if exp["dim"] > exp["ambient"] - 1:
        out.append(f"{what}: saturating set spans {exp['dim']} > ambient - 1")
    if r["is_facet"] and r["dim"] == -1:
        out.append(f"{what}: facet verdict without statistics")
    if r["dim"] != -1 and r["is_facet"] != (exp["dim"] == exp["ambient"] - 1):
        out.append(f"{what}: is_facet {r['is_facet']} but rank {exp['dim']} of {exp['ambient']}")
    return out


def positivity_tensor(spec):
    m = spec["m"]
    C = np.zeros((m, m, 2, 2), dtype=np.int64)
    x, y, a, b = spec["cell"]
    C[x, y, a, b] = -1
    return C, 0


def correlator_tensor(corr, bound):
    """Integer probability-space expansion of sum corr[x][y] <A_x B_y> <= bound."""
    vals = [F(v) for row in corr for v in row] + [F(bound)]
    den = _lcm(vals)
    ma, mb = len(corr), len(corr[0])
    C = np.zeros((ma, mb, 2, 2), dtype=np.int64)
    for x, y, a, b in itertools.product(range(ma), range(mb), range(2), range(2)):
        C[x, y, a, b] = int(F(corr[x][y]) * den) * (1 if a == b else -1)
    return C, int(F(bound) * den)


def game_correlator(spec):
    """Correlator coefficients q (-1)^f / 2 and bound omega_c - W/2 of a binary game."""
    d, q, win = game_tables(spec)
    corr = [[q[x][y] / 2 * (1 if win(0, 0, x, y) else -1) for y in range(len(q[0]))]
            for x in range(len(q))]
    return corr, classical(spec) - total_weight(spec) / 2


def game_facet_expected(spec, kind, stats=True):
    if kind == "bell":
        V, den = win_tensor(spec)
        return expected_facet(V, local_max(V), "bell", stats), classical(spec)
    corr, bound = game_correlator(spec)
    C, b = correlator_tensor(corr, bound)
    return expected_facet(C, b, "correlation", stats), bound


def check_game_facet(spec, kind, r):
    """r: facet fields plus bound and decomposition fragment bounds (or None)."""
    exp, bound = game_facet_expected(spec, kind, stats=r["count"] != -1 or r["dim"] != -1)
    out = compare_facet(exp, r, f"{kind} facet test")
    if r["bound"] != bound:
        out.append(f"inequality bound {r['bound']} != {bound}")
    if r["fragments"] is not None:
        if sum(r["fragments"], F(0)) != bound:
            out.append("fragment bounds do not sum to the game's bound")
        if r["is_facet"]:
            out.append("decomposed inequality reported as a facet")
    if spec["kind"] == "nlc" and spec["n"] >= 2 and kind == "bell" and r["is_facet"]:
        out.append("distributed-computation inequality reported as a Bell facet")
    return out


def check_decomposition(spec, r):
    out = []
    wc = classical(spec)
    parts = spec["d"] ** (spec["n"] - 1) if is_product_form(spec) else 2
    if r["is_facet"]:
        out.append("decomposition reports a facet")
    if r["fragments"] is None or len(r["fragments"]) != parts:
        out.append(f"expected {parts} fragments, got {r['fragments']}")
    elif sum(r["fragments"], F(0)) != wc:
        out.append(f"fragment bounds sum to {sum(r['fragments'], F(0))}, game bound {wc}")
    if r["count"] != -1:
        exp, _ = game_facet_expected(spec, "bell")
        out += compare_facet(exp, r, "decomposition statistics")
    return out


# ---------------------------------------------------------------------------
# cuts, events, and the exclusivity gap
# ---------------------------------------------------------------------------

def cut_bits(n, edges):
    """Distinct incidence vectors over the given edges of all subsets of
    vertices 1..n-1, as a 0/1 matrix."""
    subsets = np.array(list(itertools.product((0, 1), repeat=n - 1)), dtype=np.int64)
    side = np.concatenate([np.zeros((len(subsets), 1), dtype=np.int64), subsets], axis=1)
    bits = np.stack([side[:, i] ^ side[:, j] for i, j in edges], axis=1) if edges else \
        np.zeros((len(side), 0), dtype=np.int64)
    return np.unique(bits, axis=0)


def cut_facet_expected(n, coeffs, bound):
    """coeffs: {(i, j): Fraction} on K_n. Returns validity, roots and rank."""
    edges = list(itertools.combinations(range(n), 2))
    bits = cut_bits(n, edges)
    vals = [F(0)] * len(edges)
    for e, c in coeffs.items():
        vals[edges.index(e)] = F(c)
    den = _lcm(vals + [F(bound)])
    w = np.array([int(v * den) for v in vals], dtype=np.int64)
    scores = bits @ w
    target = int(F(bound) * den)
    roots = bits[scores == target]
    return {"valid": bool(scores.max() <= target), "max": int(scores.max()), "cuts": len(bits),
            "ambient": len(edges), "count": len(roots),
            "dim": affine_rank(roots) if len(roots) else -1}


def hypermetric_coeffs(b):
    return {(i, j): F(b[i] * b[j]) for i, j in itertools.combinations(range(len(b)), 2)}


def check_cut_facet(n, coeffs, bound, r):
    exp = cut_facet_expected(n, coeffs, bound)
    out = []
    if exp["cuts"] != 2 ** (n - 1):
        out.append(f"K_{n} has {exp['cuts']} cuts, expected {2 ** (n - 1)}")
    if not exp["valid"]:
        out.append("hypermetric inequality found invalid by enumeration")
        return out
    return out + compare_facet(exp, r, f"K_{n} cut facet test")


def _events(n):
    return [(i, j, a, b) for i, j in itertools.combinations(range(n), 2)
            for a in (1, -1) for b in (1, -1)]


def _exclusive(e, f):
    if e[:2] == f[:2]:
        return e[2:] != f[2:]
    vals = {e[0]: e[2], e[1]: e[3]}
    for v, val in ((f[0], f[2]), (f[1], f[3])):
        if v in vals:
            return vals[v] != val
    return False


def maximal_cliques(n):
    evs = _events(n)
    adj = {k: {j for j in range(len(evs)) if j != k and _exclusive(evs[k], evs[j])}
           for k in range(len(evs))}
    found = set()

    def expand(r, p, x):
        if not p and not x:
            found.add(frozenset(evs[k] for k in r))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(adj), set())
    return found


def check_census(n, r):
    """r: normalization, protocol, triples as tuples of event tuples."""
    out = []
    got = {frozenset(s) for fam in ("normalization", "protocol", "triples") for s in r[fam]}
    if got != maximal_cliques(n) or sum(len(r[f]) for f in r) != len(got):
        out.append(f"maximal exclusive sets differ from an independent clique search (n = {n})")
    want = {"normalization": comb(n, 2), "protocol": n * (n - 1) * (n - 2),
            "triples": 8 * comb(n, 3)}
    for fam, count in want.items():
        if len(r[fam]) != count:
            out.append(f"{fam}: {len(r[fam])} sets, expected {count} (n = {n})")
    return out


GAP_B = (1, 1, 1, -1)
PENT_B = (1, 1, 1, -1, -1)


def ce_gap_expected():
    b = GAP_B
    s = [F(v, 3) for v in b]
    c = {(i, j): F(-b[i] * b[j], 3) for i, j in itertools.combinations(range(4), 2)}
    pos = min((1 + u * s[i] + v * s[j] + u * v * c[(i, j)]) / 4
              for (i, j) in c for u in (1, -1) for v in (1, -1))
    ce1 = [s1 * c[(i, j)] + s2 * c[(j, k)] + s3 * c[(i, k)]
           for i, j, k in itertools.combinations(range(4), 3)
           for s1, s2, s3 in ((-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))]
    return {"positivity_min": pos, "ce1_count": len(ce1), "ce1_max": max(ce1),
            "pentagonal_value": pentagonal_value(s, c), "pentagonal_bound": F(2)}


def pentagonal_value(singles, fulls):
    b = PENT_B
    return (sum(-b[i] * b[j] * fulls[(i, j)] for i, j in itertools.combinations(range(4), 2))
            + sum(-b[i] * b[4] * singles[i] for i in range(4)))


def check_ce_gap(r):
    exp = ce_gap_expected()
    out = [f"{k}: {r[k]} != {v}" for k, v in exp.items() if r[k] != v]
    if not exp["pentagonal_value"] > exp["pentagonal_bound"]:
        out.append("pentagonal value does not exceed its bound")
    return out


# ---------------------------------------------------------------------------
# command-line reports
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse as RFC 8259 JSON: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def _facet_fields(res):
    dec = res.get("decomposition")
    return {"is_facet": res["is_facet"], "ambient": res["ambient_dim"],
            "count": res["saturating_count"], "dim": res["saturating_affine_dim"],
            "fragments": None if dec is None else [F(v) for v in dec["fragment_bounds"]]}


def check_cli_report(spec, files, argv, res):
    """spec: the operation's check spec; files: name -> (type, data); argv:
    the command line after the program name; res: the report's results."""
    kind = spec[0]
    if kind == "analyze":
        g = files[spec[1]][1]
        out = []
        if F(res["total_weight"]) != total_weight(g):
            out.append("total weight differs")
        wc = classical(g)
        if "classical_value" in res:
            if F(res["classical_value"]) != wc:
                out.append(f"classical value {res['classical_value']} != {wc}")
            w = res["witness"]
            if strategy_value(g, w["a_map"], w["b_map"]) != wc:
                out.append("witness does not attain the classical value")
            if is_product_form(g) and wc != closed_form(g):
                out.append("product-form value differs from the closed form")
        if "quantum_upper_bound" in res:
            na = res.get("no_advantage")
            holds = na is not None and na["verdict"] == "Holds"
            out += check_value(g, {
                "classical": wc, "witness": None, "W": total_weight(g),
                "bound": res["quantum_upper_bound"]["value"],
                "no_adv": (True, (na["strategy"]["a_map"], na["strategy"]["b_map"]))
                if holds else (False, None)})
        return out
    if kind == "facet_game":
        g = files[spec[1]][1]
        r = _facet_fields(res)
        r["bound"] = F(res["bound"])
        return check_game_facet(g, spec[2], r)
    if kind == "facet_ineq":
        ftype, data = files[spec[1]]
        if ftype == "positivity":
            C, b = positivity_tensor(data)
        else:
            C, b = correlator_tensor(data["corr"], data["bound"])
        exp = expected_facet(C, b, spec[2])
        if not exp["valid"]:
            return ["benchmark inequality file is invalid"]
        return compare_facet(exp, _facet_fields(res), f"{spec[1]} facet test")
    if kind == "chsh":
        return check_chsh_report(res, argv[1:])
    if kind == "cut_suspend":
        gr = files[spec[1]][1]
        edges = sorted(gr["edges"])
        want = sorted(edges + [(v, gr["n"]) for v in range(gr["n"])])
        got = res["suspension"]
        if [tuple(e) for e in res["graph"]["edges"]] != edges or got["n"] != gr["n"] + 1 \
                or [tuple(e) for e in got["edges"]] != want:
            return ["suspension graph differs"]
        return []
    if kind == "cut_cuts":
        gr = files[spec[1]][1]
        edges = sorted(gr["edges"])
        want = {tuple(row) for row in cut_bits(gr["n"], edges).tolist()}
        got = [tuple(c["bits"]) for c in res["cuts"]]
        out = []
        if res["count"] != len(want) or set(got) != want or len(got) != len(set(got)):
            out.append(f"cut vectors differ ({res['count']} vs {len(want)})")
        for c in res["cuts"]:
            s = set(c["subset"])
            if 0 in s or tuple(int((i in s) != (j in s)) for i, j in edges) != tuple(c["bits"]):
                out.append("a cut's bits do not match its subset")
                break
        return out
    if kind == "cut_ce1":
        n = spec[1]
        seen = set()
        for q in res["inequalities"]:
            pairs = tuple(sorted((i, j, F(c)) for i, j, c in q["pairs"]))
            verts = {v for i, j, _ in pairs for v in (i, j)}
            prod = pairs[0][2] * pairs[1][2] * pairs[2][2] if len(pairs) == 3 else 0
            if len(pairs) != 3 or len(verts) != 3 or prod != -1 or F(q["bound"]) != 1 \
                    or any(F(v) != 0 for v in q["singles"]):
                return ["malformed exclusivity inequality"]
            seen.add(pairs)
        if res["count"] != 4 * comb(n, 3) or len(seen) != res["count"]:
            return [f"{res['count']} exclusivity inequalities, expected {4 * comb(n, 3)}"]
        return []
    if kind == "cut_hypermetric":
        b = spec[1]
        exp = cut_facet_expected(len(b), hypermetric_coeffs(b), 0)
        return [] if res["valid"] == exp["valid"] else ["hypermetric validity differs"]
    if kind == "cut_facet_b":
        b = spec[1]
        return check_cut_facet(len(b), hypermetric_coeffs(b), 0, _facet_fields(res))
    if kind == "cut_facet_ineq":
        b = files[spec[1]][1]
        return check_cut_facet(len(b), hypermetric_coeffs(b), 0, _facet_fields(res))
    if kind == "cut_pentagonal":
        return check_pentagonal_report(res)
    if kind == "cut_ce_gap":
        c = res["checks"]
        return check_ce_gap({k: (v if k == "ce1_count" else F(v)) for k, v in c.items()})
    return [f"no checker for {kind}"]


def check_chsh_report(res, argv):
    vals = [F(v) for v in argv if v != "--"]
    if all(v >= 0 for v in vals):
        w = sorted((v / sum(vals) for v in vals), reverse=True)
        m = chsh_matrix(w)
    else:
        t = sum(abs(v) for v in vals)
        m = ((vals[0] / t, vals[1] / t), (vals[2] / t, vals[3] / t))
    p = [F(v) for v in res["canonical"]["p"]]
    out = []
    if sorted(p) != sorted(abs(v) for row in m for v in row):
        out.append("canonical weights are not the normalized magnitudes")
    cert = res["certificate"]
    r = {"verdict": res["verdict"], "cgv": F(res["classical_game_value"]),
         "cb": F(res["correlator_bound"]), "qubit": res["qubit_estimate"]["value"],
         "cert": None if cert is None else (cert["verdict"], cert["rho"]["value"])}
    return out + check_chsh(m, r)


def check_pentagonal_report(res):
    out = []
    g4 = list(itertools.combinations(range(4), 2))
    best = max(pentagonal_value(list(s), {(i, j): s[i] * s[j] for i, j in g4})
               for s in itertools.product((1, -1), repeat=4))
    if F(res["deterministic_max"]) != best or best != 2:
        out.append(f"deterministic maximum {res['deterministic_max']} != {best}")
    b = PENT_B
    exp = cut_facet_expected(5, hypermetric_coeffs(b), 0)
    if res["valid_on_k5"] != exp["valid"]:
        out.append("pentagonal validity on K_5 differs")
    out += compare_facet(exp, _facet_fields(res["facet"]), "pentagonal facet")
    pairs = {(i, j): F(c) for i, j, c in res["inequality"]["pairs"]}
    if pairs != {(i, j): F(-b[i] * b[j]) for i, j in g4} \
            or [F(v) for v in res["inequality"]["singles"]] != [F(-b[i] * b[4]) for i in range(4)]:
        out.append("pentagonal coefficients differ")
    return out
