"""Seeded inputs for the three workloads.

Everything here is plain Python data (ints, tuples, Fractions); nothing
imports bellpoly. The worker turns a spec into program objects and the
checker computes its own answers from the same spec, so both sides see the
same inputs without sharing any program code.

Sizes are fixed per workload and only the contents depend on the seed, so
the work per run is the same on every seed.

Game specs:
  {"kind": "linear", "d", "ma", "mb", "q", "f"}
  {"kind": "nlc", "d", "n", "g", "p"}       distributed-computation game
  {"kind": "unique3", "ma", "mb", "q", "perms"}
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F
from math import sqrt

PERM_NAMES = ("e", "(01)", "(02)", "(12)", "(012)", "(021)")


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _weights(rng, ma, mb, lo=1, hi=9):
    raw = [[rng.randint(lo, hi) for _ in range(mb)] for _ in range(ma)]
    total = sum(map(sum, raw))
    return tuple(tuple(F(v, total) for v in row) for row in raw)


def _distribution(rng, k, lo=1, hi=9):
    raw = [rng.randint(lo, hi) for _ in range(k)]
    return tuple(F(v, sum(raw)) for v in raw)


def linear(rng, d, ma, mb):
    return {"kind": "linear", "d": d, "ma": ma, "mb": mb, "q": _weights(rng, ma, mb),
            "f": tuple(tuple(rng.randrange(d) for _ in range(mb)) for _ in range(ma))}


def transpose(spec):
    return {"kind": "linear", "d": spec["d"], "ma": spec["mb"], "mb": spec["ma"],
            "q": tuple(zip(*spec["q"])), "f": tuple(zip(*spec["f"]))}


def nlc_binary(rng, n, uniform=False):
    k = 2 ** n
    p = (F(1, k),) * k if uniform else _distribution(rng, k)
    return {"kind": "nlc", "d": 2, "n": n, "g": tuple(rng.randrange(2) for _ in range(k)),
            "p": p}


def _bits(z, n):
    return [(z >> (n - 1 - k)) & 1 for k in range(n)]


# base truth tables for facet tests: AND, majority and (z1 AND z2) XOR z3
NLC_TABLES = {
    2: (tuple(int(z == 3) for z in range(4)),),
    3: (tuple(int(z == 7) for z in range(8)),
        tuple(int(sum(_bits(z, 3)) >= 2) for z in range(8)),
        tuple((lambda b: (b[0] & b[1]) ^ b[2])(_bits(z, 3)) for z in range(8))),
}


def nlc_relabeled(rng, table):
    """Uniform-p binary NLC game with table g(z xor s) xor c for seeded s, c.
    Shifting z relabels Alice's inputs and c flips Bob's outputs, so every
    seed gives the same saturating count, rank and cost as the base table."""
    s, c = rng.randrange(len(table)), rng.randrange(2)
    n = len(table).bit_length() - 1
    return {"kind": "nlc", "d": 2, "n": n, "g": tuple(table[z ^ s] ^ c for z in range(len(table))),
            "p": (F(1, len(table)),) * len(table)}


# hypermetric coefficients summing to 1, one base vector per vertex count
HYPERMETRIC_B = {7: (1, 1, 1, 1, -1, -1, -1), 8: (2, 1, 1, 1, -1, -1, -1, -1),
                 9: (1, 1, 1, 1, 1, -1, -1, -1, -1), 10: (2, 1, 1, 1, 1, -1, -1, -1, -1, -1)}


def hypermetric_permuted(rng, n):
    """A seeded vertex order of the base vector: the same inequality up to
    relabeling, so root count, rank and cost do not depend on the seed."""
    b = list(HYPERMETRIC_B[n])
    rng.shuffle(b)
    return tuple(b)


def big_lambda(spec):
    lam = [F(0)] * spec["d"]
    for z, gz in enumerate(spec["g"]):
        lam[gz] += spec["p"][z]
    return max(lam)


def nlc_product(rng, d, n, min_lambda=F(0)):
    """Product-form game g(first n-1 dits) * (last dit sum). The fragment
    argument for non-facets needs Lambda >= 1/2; callers that run it ask for
    that through min_lambda, and the draw is repeated until it holds."""
    k = d ** (n - 1)
    while True:
        spec = {"kind": "nlc", "d": d, "n": n, "g": tuple(rng.randrange(d) for _ in range(k)),
                "p": _distribution(rng, k)}
        if big_lambda(spec) >= min_lambda:
            return spec


def unique3(rng, ma, mb):
    return {"kind": "unique3", "ma": ma, "mb": mb, "q": _weights(rng, ma, mb),
            "perms": tuple(tuple(rng.choice(PERM_NAMES) for _ in range(mb))
                           for _ in range(ma))}


def unique3_relabeled(rng, ma, mb):
    """A fixed 3-output unique game with Alice's inputs in a seeded order.
    How long the gen-norm ascent runs depends on the game's contents but not
    on that order (Alice's inputs index the rows both of its matrices
    share), so every seed costs the same."""
    base = unique3(random.Random(f"unique3-base:{ma}x{mb}"), ma, mb)
    order = rng.sample(range(ma), ma)
    return dict(base, q=tuple(base["q"][x] for x in order),
                perms=tuple(base["perms"][x] for x in order))


def nlc_product_relabeled(rng, d, index):
    """Product-form game with n = 2 from a fixed table, relabeled by a seeded
    affine map z -> u z + s of Z_d (Alice's and Bob's first dits each times
    u, Alice's plus s). Whether the roots-of-unity check passes, and so how
    much work value_report does, depends on the table but not on such a
    relabeling, so every seed costs the same."""
    base = nlc_product(random.Random(f"product-base:{d}:{index}"), d, 2)
    u, sh = rng.randrange(1, d), rng.randrange(d)
    z = [(u * v + sh) % d for v in range(d)]
    return dict(base, g=tuple(base["g"][v] for v in z), p=tuple(base["p"][v] for v in z))


def ternary_sum_game():
    """The paper's d = 3 distributed-sum game: f = 1 iff x + y = 2 (mod 3)."""
    return {"kind": "linear", "d": 3, "ma": 3, "mb": 3, "q": ((F(1, 9),) * 3,) * 3,
            "f": tuple(tuple(1 if (x + y) % 3 == 2 else 0 for y in range(3))
                       for x in range(3))}


def tight_d4_game():
    """The paper's d = 4 linear game whose norm bound is tight at 13/14."""
    q56 = ((7, 3, 3, 1), (3, 7, 1, 3), (3, 1, 7, 3), (1, 3, 3, 7))
    return {"kind": "linear", "d": 4, "ma": 4, "mb": 4,
            "q": tuple(tuple(F(v, 56) for v in row) for row in q56),
            "f": ((0, 2, 1, 1), (2, 0, 1, 1), (3, 3, 0, 2), (3, 3, 2, 0))}


def z131_game():
    """Uniform 2x2 linear game over Z_131; d >= 128 overflows the int8 tables
    of the fast classical path, so this operation fails until that is fixed."""
    return {"kind": "linear", "d": 131, "ma": 2, "mb": 2, "q": ((F(1, 4),) * 2,) * 2,
            "f": ((0, 1), (2, 3))}


def chsh_weights(rng):
    """Four distinct positive weights, sorted decreasing and normalized.
    Distinct weights keep the spectral-radius scaling regular; the singular
    case is covered by the fixed uniform vector. Vectors whose quantum and
    classical values lie within 1e-6 of each other are drawn again: there a
    float estimate cannot confirm the exact verdict either way."""
    while True:
        raw = sorted(rng.sample(range(1, 41), 4), reverse=True)
        w = tuple(F(v, sum(raw)) for v in raw)
        p1, p2, p3, p4 = map(float, w)
        if abs(tsirelson_value(((p1, p2), (p3, -p4))) - float(1 - w[3])) > 1e-6:
            return w


def tsirelson_value(m):
    """Quantum value (1 + bias) / 2 of a 2x2 correlation game whose
    coefficient magnitudes sum to 1. The bias is the maximum over the cosine c
    of the angle between Alice's two unit vectors of
    sum_y sqrt(m0y^2 + m1y^2 + 2 m0y m1y c), which is concave in c."""
    (a, b), (c, d) = m
    terms = ((a * a + c * c, 2 * a * c), (b * b + d * d, 2 * b * d))

    def bias(x):
        return sum(sqrt(max(0.0, u + v * x)) for u, v in terms)

    (u1, v1), (u2, v2) = terms
    cands = [-1.0, 1.0]
    if v1 * v2 < 0:
        cands.append(min(1.0, max(-1.0, (v2 * v2 * u1 - v1 * v1 * u2) / (v1 * v2 * (v1 - v2)))))
    return (1 + max(bias(x) for x in cands)) / 2


def positivity(rng, m):
    """Single-cell positivity -P(a, b | x, y) <= 0 on the m x m binary scenario."""
    return {"m": m, "cell": (rng.randrange(m), rng.randrange(m), rng.randrange(2),
                             rng.randrange(2))}


def hypermetric_b(rng, n):
    """Integer coefficients in [-2, 2] summing to 1, not all of one sign."""
    while True:
        b = [rng.randint(-2, 2) for _ in range(n - 1)]
        last = 1 - sum(b)
        if -3 <= last <= 3 and any(v < 0 for v in b + [last]):
            return tuple(b + [last])


def graph(rng, n, p_edge=0.6):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p_edge]
    return {"n": n, "edges": tuple(edges)}


# ---------------------------------------------------------------------------
# workloads: each returns the ordered list of operations of one pass
# ---------------------------------------------------------------------------

UNIFORM_CHSH = (F(1, 4),) * 4
WEIGHTED_CHSH = (F(9, 20), F(5, 20), F(5, 20), F(1, 20))
CHSH_MINUS2 = {"corr": ((1, 1), (1, -1)), "bound": -2}


def game_values_ops(seed):
    rng = _rng("game-values", seed)
    ops = []
    # twelve 2^13-map games (12-14 ms each) fill the middle of the operation
    # times, with about as many faster operations below them as slower ones
    # above, so the median operation is one of them on every seed
    for m in (13,) * 12 + (14, 15, 16):
        ops.append(("value", linear(rng, 2, m, m), True))
    for ma, mb in ((16, 3), (17, 4), (18, 4)):
        g = linear(rng, 2, ma, mb)
        ops += [("value", g, True), ("value", transpose(g), True)]
    for d, m in ((3, 9), (5, 6), (7, 5)):
        ops.append(("value", linear(rng, d, m, m), True))
    ops += [("value", ternary_sum_game(), True), ("value", tight_d4_game(), True)]
    ops += [("value", nlc_binary(rng, 3), True), ("value", nlc_binary(rng, 4), True)]
    ops += [("value", nlc_product_relabeled(rng, 3, i), True) for i in range(4)]
    ops += [("value", unique3_relabeled(rng, ma, mb), False)
            for ma, mb in ((2, 2), (3, 3), (4, 4), (5, 4))]
    ops += [("chsh", UNIFORM_CHSH), ("chsh", WEIGHTED_CHSH)]
    ops += [("chsh", chsh_weights(rng)) for _ in range(4)]
    ops.append(("value", z131_game(), False))
    return ops


def facets_ops(seed):
    rng = _rng("facets", seed)
    pos = [("positivity", positivity(rng, m)) for m in (3, 4, 5, 6)]
    ops = []
    chsh = {"kind": "linear", "d": 2, "ma": 2, "mb": 2,
            "q": tuple(zip(*[iter(chsh_weights(rng))] * 2)), "f": ((0, 0), (0, 1))}
    nlc = [nlc_relabeled(rng, t) for t in NLC_TABLES[2] + NLC_TABLES[3]]
    for g in [chsh] + nlc:
        ops += [("game_facet", g, "bell"), ("game_facet", g, "correlation")]
    # n = 3 with uniform p: the decomposition holds for every table (checked
    # exhaustively); n = 4 is left out, see the README
    ops += [("decompose", nlc_relabeled(rng, t)) for t in NLC_TABLES[3][1:]]
    ops += [("nlcd_nonfacet", nlc_product(rng, 3, 2, min_lambda=F(1, 2))) for _ in range(2)]
    ops += [("cut_facet", hypermetric_permuted(rng, n)) for n in (7, 8, 9, 10)]
    ops += [("census", n) for n in (3, 4, 5, 6)]
    ops.append(("ce_gap",))
    ops.append(("corr_facet", CHSH_MINUS2))
    # positivity last: its rank work then runs on top of what the threaded
    # classical-value scans left in the heap, which makes the peak memory of a
    # pass the same from run to run
    return ops + pos


CLI_DIR = "perfbench/out/cli"  # input files of the cli workload, relative to the checkout


def cli_ops(seed):
    """(argv, check spec) per process, and the input files by name. The
    runner writes the files under CLI_DIR and puts their paths in argv.

    No command scans more than 2^13 Alice maps: larger scans use the
    program's thread pool, and the peak memory of a threaded scan depends on
    how the threads interleave (88 to 105 MB for one product-form facet
    test), which would make peak_rss_mb move from run to run."""
    rng = _rng("cli", seed)
    files = {}
    ops = []

    def add(argv, spec):
        ops.append((tuple(argv), spec))

    games = {
        "chsh.json": {"kind": "linear", "d": 2, "ma": 2, "mb": 2,
                      "q": tuple(zip(*[iter(chsh_weights(rng))] * 2)), "f": ((0, 0), (0, 1))},
        "ternary.json": ternary_sum_game(),
        "tight4.json": tight_d4_game(),
        "bin6.json": linear(rng, 2, 6, 6),
        "tern4.json": linear(rng, 3, 4, 4),
        "tall8x5.json": linear(rng, 2, 8, 5),
        "nlc2.json": nlc_binary(rng, 2, uniform=True),
        "nlc3.json": nlc_binary(rng, 3, uniform=True),
        "nlc3p.json": nlc_binary(rng, 3),
        "u22.json": unique3(rng, 2, 2),
        "u33.json": unique3(rng, 3, 3),
        "u43.json": unique3(rng, 4, 3),
    }
    files.update((name, ("game", spec)) for name, spec in games.items())
    for name, flags in (("chsh.json", ()), ("ternary.json", ("--bound", "--sufficient")),
                        ("tight4.json", ("--classical", "--bound", "--sufficient")),
                        ("bin6.json", ()),
                        ("tern4.json", ("--classical",)), ("tall8x5.json", ("--bound",)),
                        ("nlc2.json", ()), ("nlc3p.json", ("--sufficient",)),
                        ("nlc3.json", ("--classical",)), ("u22.json", ()),
                        ("u33.json", ("--bound",)), ("u43.json", ("--classical",))):
        add(("analyze-game", name) + flags, ("analyze", name, flags))
    for name in ("chsh.json", "nlc2.json", "nlc3.json"):
        for poly in ("bell", "correlation"):
            add(("facet-test", name, "--polytope", poly), ("facet_game", name, poly))
    add(("facet-test", "nlc3p.json", "--polytope", "correlation"),
        ("facet_game", "nlc3p.json", "correlation"))
    for m in (3, 4):
        name = f"pos{m}.json"
        files[name] = ("positivity", positivity(rng, m))
        add(("facet-test", name, "--polytope", "bell"), ("facet_ineq", name, "bell"))
    signs = [rng.choice((1, -1)) for _ in range(9)]
    corr = tuple(tuple(s * rng.randint(1, 5) for s in signs[3 * i:3 * i + 3]) for i in range(3))
    files["corr3.json"] = ("correlator", {"corr": corr})  # bound: its own local maximum
    add(("facet-test", "corr3.json", "--polytope", "correlation"),
        ("facet_ineq", "corr3.json", "correlation"))
    add(("chsh", "9/20", "5/20", "5/20", "1/20"), ("chsh",))
    for _ in range(2):
        w = chsh_weights(rng)
        add(("chsh",) + tuple(f"{v.numerator}/{v.denominator}" for v in w), ("chsh",))
    w = chsh_weights(rng)
    perm = rng.sample(range(4), 4)
    signed = [w[i] * (1 if k < 3 else -1) for k, i in enumerate(perm)]
    add(("chsh", "--") + tuple(f"{v.numerator}/{v.denominator}" for v in signed), ("chsh",))
    add(("chsh", "1", "1", "1", "1"), ("chsh",))
    files["g5.txt"] = ("graph", graph(rng, 5))
    files["g6.txt"] = ("graph", graph(rng, 6))
    add(("cut", "suspend", "--graph", "g5.txt"), ("cut_suspend", "g5.txt"))
    add(("cut", "cuts", "--graph", "g6.txt"), ("cut_cuts", "g6.txt"))
    for n in (4, 5):
        add(("cut", "ce1", "--n", str(n)), ("cut_ce1", n))
    b = hypermetric_b(rng, 6)
    add(("cut", "hypermetric", "--b=" + ",".join(map(str, b))), ("cut_hypermetric", b))
    b = hypermetric_b(rng, 6)
    add(("cut", "facet", "--b=" + ",".join(map(str, b))), ("cut_facet_b", b))
    files["cut5.json"] = ("cut_ineq", hypermetric_b(rng, 5))
    add(("cut", "facet", "--ineq", "cut5.json"), ("cut_facet_ineq", "cut5.json"))
    add(("cut", "pentagonal"), ("cut_pentagonal",))
    add(("cut", "ce-gap"), ("cut_ce_gap",))
    # repeats: the same argv must print byte-identical reports
    for i in (3, 16, 25, 28):
        ops.append(ops[i])
    return ops, files
