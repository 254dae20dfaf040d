"""Compatibility graphs, cut vectors, and exclusivity inequalities.

Dichotomic measurements with a compatibility graph G have a noncontextual
polytope that is affinely isomorphic to the cut polytope of the suspension
graph of G (one apex adjacent to everything): single correlators map to apex
edges via <M_i> = 1 - 2 x_{iO} and pair correlators to ordinary edges via
<M_i M_j> = 1 - 2 x_{ij}. This module keeps both pictures exact, one
inequality type each (`CorrelatorInequality.to_cut_form` changes them): cuts
as integer arrays of edge incidence rows, which one scan (`_cut_scan`)
evaluates in bulk and facet tests rank on the tail shared with Bell
inequalities (`tightness._facet_report`), behaviours and inequalities over
rationals, plus the exclusivity (sum over mutually exclusive events <= 1)
inequalities for the pairwise-measurement scenario and the pentagonal
inequality that separates them from the noncontextual set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Tuple

from .errors import BudgetExceededError, VerificationError
from .rational import as_rational

CUT_ENUM_MAX_VERTICES = 20
_CHUNK_CELLS = 1 << 20  # values per chunk of a cut scan, to bound its memory


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1 with no self-loops.

    sorted_edges fixes the coordinate order of cut vectors; edge_index maps
    each edge to its coordinate. Both are derived from edges once, here."""
    n: int
    edges: frozenset
    sorted_edges: Tuple[Tuple[int, int], ...] = field(init=False, compare=False, repr=False)
    edge_index: Mapping = field(init=False, compare=False, repr=False)

    def __init__(self, n: int, edges):
        if int(n) < 0:
            raise ValueError(f"vertex count {n} is negative")
        object.__setattr__(self, "n", int(n))
        norm = set()
        for e in edges:
            i, j = e
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) references a missing vertex")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "sorted_edges", tuple(sorted(norm)))
        object.__setattr__(self, "edge_index",
                           {e: k for k, e in enumerate(self.sorted_edges)})

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph(n, itertools.combinations(range(n), 2))

    @property
    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2


def suspension(g: Graph) -> Graph:
    """Add one apex vertex adjacent to every existing vertex; the apex gets
    the last index n."""
    return Graph(g.n + 1, set(g.edges) | {(v, g.n) for v in range(g.n)})


# ---------------------------------------------------------------------------
# cuts
# ---------------------------------------------------------------------------

# The bulk cut scan and the facet test's rank work on numpy arrays. They
# import numpy, games and tightness where they run, so that building graphs,
# cuts, behaviours and exclusivity inequalities (`cut suspend`, `cuts`,
# `ce1`, `ce-gap`) starts no numpy.

def _cut_masks(g: Graph) -> range:
    """Every cut of g as a vertex bitmask (bit v for vertex v), vertex 0
    outside, in bitmask order over vertices 1..n-1: the even masks."""
    if g.n > CUT_ENUM_MAX_VERTICES:
        raise BudgetExceededError(
            f"{g.n} vertices exceed the cut enumeration limit of {CUT_ENUM_MAX_VERTICES}")
    return range(0, 1 << g.n, 2)


def _enumerable_complete(n: int) -> Graph:
    """K_n, for a caller that enumerates its cuts next: past the enumeration
    limit, that limit's error comes before the n^2 edges are built."""
    _cut_masks(Graph(n, ()))
    return Graph.complete(n)


def _cut_rows(g: Graph, masks):
    """Edge incidence rows, in g's edge order, of the cuts with these vertex
    bitmasks (at most the enumeration limit's vertices): an edge is cut when
    the bits of its ends differ."""
    import numpy as np
    ends = np.array(g.sorted_edges, dtype=np.int64).reshape(-1, 2)
    m = np.asarray(masks, dtype=np.int64)[:, None]
    return (((m >> ends[:, 0]) ^ (m >> ends[:, 1])) & 1).astype(np.int8)


@dataclass(frozen=True)
class CutVector:
    """Edge incidence vector of a vertex subset. The stored subset is the
    canonical representative not containing vertex 0 (a set and its
    complement cut the same edges)."""
    graph: Graph
    subset: frozenset
    bits: tuple = field(compare=False)

    def __init__(self, graph: Graph, subset):
        s = frozenset(subset)
        if not s <= set(range(graph.n)):
            raise ValueError("subset references a missing vertex")
        if 0 in s:
            s = frozenset(range(graph.n)) - s
        mask = sum(1 << v for v in s)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "subset", s)
        object.__setattr__(self, "bits", tuple(((mask >> i) ^ (mask >> j)) & 1
                                               for i, j in graph.sorted_edges))

    def bit(self, i: int, j: int) -> int:
        try:
            return self.bits[self.graph.edge_index[(min(i, j), max(i, j))]]
        except KeyError:
            raise ValueError(f"({i}, {j}) is not an edge of the graph") from None


def _mask_subset(mask: int, n: int) -> frozenset:
    return frozenset(v for v in range(n) if (mask >> v) & 1)


def enumerate_cuts(g: Graph):
    """All distinct cut vectors, deduplicated across subsets that cut the
    same edges (relevant for disconnected graphs), in subset bitmask order
    over vertices 1..n-1."""
    first = {}
    for mask in _cut_masks(g):
        cv = CutVector(g, _mask_subset(mask, g.n))
        first.setdefault(cv.bits, cv)
    return list(first.values())


def _cut_scan(ineq: "CutInequality", g: Graph):
    """One pass over every cut of g with ineq's integer-scaled values, in
    chunks that bound its memory (the vertex limit is checked first): the
    bitmasks of the cuts meeting the bound, and the bitmask of the first cut
    of largest value when that value exceeds the bound, else None."""
    import numpy as np
    from .scenario import int_scaled
    cuts = _cut_masks(g)
    masks = np.arange(cuts.start, cuts.stop, cuts.step, dtype=np.int64)
    w, (target,), _ = int_scaled(ineq._coefficients(g), [ineq.bound])
    step = max(1, _CHUNK_CELLS // max(1, len(w)))
    roots, top, first = [], None, None
    for lo in range(0, len(masks), step):
        chunk = masks[lo:lo + step]
        values = _cut_rows(g, chunk) @ w
        k = int(np.argmax(values))
        if top is None or values[k] > top:
            top, first = values[k], int(chunk[k])
        roots.append(chunk[values == target])
    return np.concatenate(roots), first if top > target else None


# ---------------------------------------------------------------------------
# behaviours
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NCBehaviour:
    """Single and pair correlators of dichotomic measurements on a
    compatibility graph. Pairwise joint distributions must be nonnegative:
    1 + a<M_i> + b<M_j> + ab<M_iM_j> >= 0 for all signs a, b and each edge."""
    graph: Graph
    singles: tuple
    fulls: Mapping

    def __init__(self, graph: Graph, singles, fulls):
        singles = tuple(map(as_rational, singles))
        fulls = {(min(i, j), max(i, j)): as_rational(v) for (i, j), v in dict(fulls).items()}
        if len(singles) != graph.n:
            raise ValueError("one single correlator per vertex required")
        if set(fulls) != set(graph.sorted_edges):
            raise ValueError("one full correlator per edge required")
        for (i, j), entry in _joint_entries(singles, fulls):
            if entry < 0:
                raise ValueError(f"joint distribution of ({i}, {j}) has a negative entry")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "singles", singles)
        object.__setattr__(self, "fulls", fulls)

    @staticmethod
    def deterministic(graph: Graph, assignment) -> "NCBehaviour":
        vals = tuple(int(v) for v in assignment)
        if any(v not in (1, -1) for v in vals):
            raise ValueError("deterministic assignments are +-1 valued")
        return NCBehaviour(graph, vals,
                           {(i, j): vals[i] * vals[j] for i, j in graph.sorted_edges})

    @property
    def is_deterministic(self) -> bool:
        return (all(v in (1, -1) for v in self.singles)
                and all(c == self.singles[i] * self.singles[j]
                        for (i, j), c in self.fulls.items()))

    def pairwise_positivity_min(self) -> Fraction:
        entries = (entry / 4 for _, entry in _joint_entries(self.singles, self.fulls))
        return min(entries, default=Fraction(2))


def _joint_entries(singles, fulls):
    """(edge, 4 P(a, b)) for every edge (i, j) and signs a, b of the pair's
    joint distribution, 1 + a<M_i> + b<M_j> + ab<M_iM_j>."""
    for (i, j), c in fulls.items():
        for a, b in itertools.product((1, -1), repeat=2):
            yield (i, j), 1 + a * singles[i] + b * singles[j] + a * b * c


def behaviour_to_cut(b: NCBehaviour) -> CutVector:
    """Image of a deterministic behaviour in the suspension graph: vertices
    assigned -1 form the cut subset, the apex plays the +1 reference."""
    if not b.is_deterministic:
        raise ValueError("only deterministic behaviours map to cut vectors")
    sg = suspension(b.graph)
    cv = CutVector(sg, frozenset(i for i, v in enumerate(b.singles) if v == -1))
    for (i, j), c in b.fulls.items():
        if c != 1 - 2 * cv.bit(i, j):
            raise VerificationError("pair correlator disagrees with the cut image")
    for i, v in enumerate(b.singles):
        if v != 1 - 2 * cv.bit(i, sg.n - 1):
            raise VerificationError("single correlator disagrees with the cut image")
    return cv


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------

def _edge_table(coeffs) -> dict:
    """{(i, j): Fraction} with i < j from a mapping or from (edge, value)
    pairs; an edge given twice, in either order, is a ValueError."""
    table = {}
    for (i, j), v in coeffs.items() if hasattr(coeffs, "items") else coeffs:
        e = (min(i, j), max(i, j))
        if e in table:
            raise ValueError(f"edge {e} is listed twice")
        table[e] = as_rational(v)
    return table


@dataclass(frozen=True)
class CutInequality:
    """sum_{i<j} c_ij x_ij <= bound in the cut coordinates of a graph on n
    vertices: edge_coeffs maps edges (i, j), i < j, to their rational
    coefficients c_ij; an edge it omits weighs 0."""
    n: int
    edge_coeffs: Mapping
    bound: Fraction

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count {self.n} is negative")
        object.__setattr__(self, "edge_coeffs", _edge_table(self.edge_coeffs))
        object.__setattr__(self, "bound", as_rational(self.bound))

    @staticmethod
    def hypermetric(b) -> "CutInequality":
        """sum_{i<j} b_i b_j x_ij <= 0 on the complete graph on len(b) vertices."""
        b = tuple(int(v) for v in b)
        return CutInequality(len(b), {(i, j): b[i] * b[j] for i, j
                                      in itertools.combinations(range(len(b)), 2)}, 0)

    def _coefficients(self, g: Graph) -> list:
        """The coefficients on g's edges, in g's edge order; ValueError when
        an edge with a coefficient is not one of g's."""
        missing = [e for e in self.edge_coeffs if e not in g.edge_index]
        if missing:
            raise ValueError(f"{missing[0]} is not an edge of the graph")
        zero = Fraction(0)
        return [self.edge_coeffs.get(e, zero) for e in g.sorted_edges]

    def evaluate_cut(self, cv: CutVector) -> Fraction:
        """The left side at cut cv: the coefficients of the edges it cuts, summed."""
        return sum((c for c, bit in zip(self._coefficients(cv.graph), cv.bits) if bit),
                   Fraction(0))


@dataclass(frozen=True)
class CorrelatorInequality:
    """sum_{i<j} c_ij <M_iM_j> + sum_i s_i <M_i> <= bound on n dichotomic
    observables: pair_coeffs maps pairs (i, j), i < j, to c_ij, and
    single_coeffs holds s_0..s_{n-1}."""
    n: int
    pair_coeffs: Mapping
    single_coeffs: tuple
    bound: Fraction

    def __post_init__(self):
        singles = tuple(map(as_rational, self.single_coeffs))
        if len(singles) != self.n:
            raise ValueError("one single coefficient per observable required")
        object.__setattr__(self, "pair_coeffs", _edge_table(self.pair_coeffs))
        object.__setattr__(self, "single_coeffs", singles)
        object.__setattr__(self, "bound", as_rational(self.bound))

    def evaluate_behaviour(self, nc: NCBehaviour) -> Fraction:
        total = sum((c * nc.fulls[e] for e, c in self.pair_coeffs.items()), Fraction(0))
        return total + sum(c * s for c, s in zip(self.single_coeffs, nc.singles))

    def to_cut_form(self) -> CutInequality:
        """The same inequality on the suspension graph (one more vertex, the
        apex): substituting <M_iM_j> = 1 - 2 x_ij and <M_i> = 1 - 2 x_{i,apex}
        turns coefficient c into edge coefficient -2c and shifts the bound by
        the total."""
        coeffs = {e: -2 * c for e, c in self.pair_coeffs.items()}
        for i, c in enumerate(self.single_coeffs):
            coeffs[(i, self.n)] = -2 * c
        shift = (sum(self.pair_coeffs.values(), Fraction(0))
                 + sum(self.single_coeffs, Fraction(0)))
        return CutInequality(self.n + 1, coeffs, self.bound - shift)


def hypermetric_valid(b, g: Graph = None) -> bool:
    """Exhaustive check of sum b_i b_j x_ij <= 0 over every cut of g, by
    default the complete graph on len(b) vertices, built after b's checks.
    Requires sum(b) == 1, the normalization under which the family is valid
    on cut polytopes."""
    b = tuple(int(v) for v in b)
    if g is not None and len(b) != g.n:
        raise ValueError("one coefficient per vertex required")
    if sum(b) != 1:
        raise ValueError(f"coefficient sum is {sum(b)}, hypermetric form needs 1")
    g = g or _enumerable_complete(len(b))
    restricted = {(i, j): b[i] * b[j] for i, j in g.sorted_edges}
    return _cut_scan(CutInequality(g.n, restricted, 0), g)[1] is None


def _check_facet_graph(n: int, g: Graph):
    """ValueError unless g can carry the facet test of an inequality on n
    vertices: its vertex count is checked first, then that it is complete.
    Both read only g and n, so a caller can check before it builds the
    inequality."""
    if g.n != n:
        raise ValueError("inequality and graph vertex counts differ")
    if not g.is_complete:
        raise ValueError("cut facet tests are run on complete graphs")


def cut_facet_test(ineq: CutInequality, g: Graph):
    """Exact facet test against the cut polytope of a complete graph: the
    inequality must be valid everywhere; its roots (cuts meeting the bound)
    must affinely span one dimension below the edge count."""
    from .tightness import _facet_report
    _check_facet_graph(ineq.n, g)
    roots, worst = _cut_scan(ineq, g)
    if worst is not None:
        raise ValueError("inequality is violated at the cut with subset "
                         f"{sorted(_mask_subset(worst, g.n))}")
    return _facet_report("cut", len(g.sorted_edges), len(roots), _cut_rows(g, roots))


# ---------------------------------------------------------------------------
# exclusivity structure of the pairwise-measurement scenario
# ---------------------------------------------------------------------------

CE1_SIGN_PATTERNS = ((-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))


def ce1_inequalities(n: int):
    """All nontrivial exclusivity inequalities for n pairwise-compatible
    dichotomic observables: per vertex triple i<j<k, the four odd sign
    patterns on (<M_iM_j>, <M_jM_k>, <M_kM_i>) with bound 1. Their
    relaxation lives on the suspension K_{n+1}, so n + 1 may not exceed the
    cut enumeration limit."""
    if n + 1 > CUT_ENUM_MAX_VERTICES:
        raise BudgetExceededError(
            f"{n} observables need the suspension K_{n + 1}, beyond the cut "
            f"enumeration limit of {CUT_ENUM_MAX_VERTICES} vertices")
    out = []
    if n < 3:
        return out
    zero_singles = (0,) * n
    for i, j, k in itertools.combinations(range(n), 3):
        for s1, s2, s3 in CE1_SIGN_PATTERNS:
            pairs = {(i, j): s1, (j, k): s2, (i, k): s3}
            out.append(CorrelatorInequality(n, pairs, zero_singles, 1))
    return out


@dataclass(frozen=True, order=True)
class Event:
    """Outcome pair (a, b) of the joint measurement of observables i < j."""
    i: int
    j: int
    a: int
    b: int


def _events(n):
    return [Event(i, j, a, b)
            for i, j in itertools.combinations(range(n), 2)
            for a in (1, -1) for b in (1, -1)]


def _orthogonal(e: Event, f: Event) -> bool:
    if (e.i, e.j) == (f.i, f.j):
        return (e.a, e.b) != (f.a, f.b)
    shared = {e.i: e.a, e.j: e.b}
    for v, val in ((f.i, f.a), (f.j, f.b)):
        if v in shared:
            return shared[v] != val
    return False


@dataclass(frozen=True)
class OrthogonalSetCensus:
    normalization: tuple  # size-4 sets, one per context
    protocol: tuple       # size-4 sets split over two contexts sharing a vertex
    triples: tuple        # size-3 sets over a vertex triangle


def _classify_maximal(events):
    contexts = {(e.i, e.j) for e in events}
    if len(events) == 4 and len(contexts) == 1:
        return "normalization"
    if len(events) == 4 and len(contexts) == 2:
        (c1, c2) = sorted(contexts)
        shared = set(c1) & set(c2)
        if len(shared) == 1:
            v = shared.pop()
            by_ctx = {c1: [], c2: []}
            for e in events:
                by_ctx[(e.i, e.j)].append(e)
            if all(len(v2) == 2 for v2 in by_ctx.values()):
                def shared_val(e):
                    return e.a if e.i == v else e.b
                s1 = {shared_val(e) for e in by_ctx[c1]}
                s2 = {shared_val(e) for e in by_ctx[c2]}
                if len(s1) == 1 and len(s2) == 1 and s1 != s2:
                    return "protocol"
    if len(events) == 3 and len(contexts) == 3:
        verts = set()
        for c in contexts:
            verts |= set(c)
        if len(verts) == 3:
            return "triple"
    return None


def _maximal_cliques(adj):
    """Every maximal clique of the graph {vertex: set of neighbours}, by
    Bron-Kerbosch with Tomita pivoting: each call branches only on the
    candidates not adjacent to a pivot chosen to cover most candidates."""
    cliques = []

    def expand(clique, cand, excluded):
        if not cand and not excluded:
            cliques.append(clique)
            return
        pivot = max(cand | excluded, key=lambda u: len(cand & adj[u]))
        for v in cand - adj[pivot]:
            expand(clique + [v], cand & adj[v], excluded & adj[v])
            cand = cand - {v}
            excluded = excluded | {v}

    expand([], set(adj), set())
    return cliques


def maximal_orthogonal_sets(n: int) -> OrthogonalSetCensus:
    """Enumerate every maximal set of mutually exclusive events and sort them
    into the three families that exist in this scenario; any unclassifiable
    maximal set would falsify that census and aborts loudly."""
    if not 3 <= n <= 6:
        raise BudgetExceededError("event census supported for 3 <= n <= 6")
    evs = _events(n)
    adj = {x: set() for x in range(len(evs))}
    for x, y in itertools.combinations(range(len(evs)), 2):
        if _orthogonal(evs[x], evs[y]):
            adj[x].add(y)
            adj[y].add(x)
    buckets = {"normalization": [], "protocol": [], "triple": []}
    for clique in _maximal_cliques(adj):
        members = tuple(sorted((evs[x] for x in clique),
                               key=lambda e: (e.i, e.j, e.a, e.b)))
        kind = _classify_maximal(members)
        if kind is None:
            raise VerificationError(
                f"unclassified maximal orthogonal set of size {len(members)}")
        buckets[kind].append(members)
    for key in buckets:
        buckets[key].sort()
    return OrthogonalSetCensus(tuple(buckets["normalization"]),
                               tuple(buckets["protocol"]),
                               tuple(buckets["triple"]))


# ---------------------------------------------------------------------------
# pentagonal inequality and the exclusivity gap
# ---------------------------------------------------------------------------

PENT_B = (1, 1, 1, -1, -1)  # last entry plays the identity observable


def pentagonal_contextuality_inequality() -> CorrelatorInequality:
    """Correlator form of the five-point hypermetric inequality on four
    observables plus the identity: sum of -b_i b_j <M_iM_j> over i<j<=4 and
    -b_i b_5 <M_i> with b = (1,1,1,-1,-1), bound 2."""
    b = PENT_B
    pairs = {(i, j): Fraction(-b[i] * b[j]) for i, j in itertools.combinations(range(4), 2)}
    singles = tuple(Fraction(-b[i] * b[4]) for i in range(4))
    return CorrelatorInequality(4, pairs, singles, 2)


def pentagonal_report() -> dict:
    """The pentagonal inequality, its cut form on K_5 (the suspension of
    K_4, apex last) and that form's facet test. The deterministic
    behaviours of the four observables map onto the cuts of K_5, so the
    facet test's validity check (it raises on a violating cut) bounds their
    largest value by the bound 2, and its roots attain it."""
    ineq = pentagonal_contextuality_inequality()
    cut_form = ineq.to_cut_form()
    facet = cut_facet_test(cut_form, Graph.complete(5))
    if not facet.saturating_count:
        raise VerificationError("no deterministic behaviour attains the pentagonal bound")
    return {"inequality": ineq, "cut_form": cut_form, "hypermetric_b": PENT_B,
            "valid_on_k5": True, "deterministic_max": ineq.bound, "facet": facet}


CE_GAP_B = (1, 1, 1, -1)


def ce_gap_report() -> dict:
    """The behaviour <M_i> = b_i/3, <M_iM_j> = -b_i b_j/3 on four pairwise
    compatible observables (b = (1,1,1,-1)) and its checks, each computed
    once: pairwise joint positivity (worst case exactly 0), every
    exclusivity inequality holds (max exactly 1), and the pentagonal
    inequality is violated at exactly 10/3 > 2. Any failure aborts: it would
    falsify the separation claim. Plain data only (Fractions, ints, tuples),
    the behaviour as its singles and its sorted (edge, full correlator)
    pairs."""
    b = CE_GAP_B
    g4 = Graph.complete(4)
    beh = NCBehaviour(g4, [Fraction(v, 3) for v in b],
                      {(i, j): Fraction(-b[i] * b[j], 3) for i, j in g4.sorted_edges})
    positivity = beh.pairwise_positivity_min()
    if positivity != 0:
        raise VerificationError("positivity margin is not exactly 0")
    ce1_values = [ineq.evaluate_behaviour(beh) for ineq in ce1_inequalities(4)]
    if max(ce1_values) != 1:
        raise VerificationError("exclusivity inequalities do not hold with max 1")
    pent = pentagonal_contextuality_inequality()
    value = pent.evaluate_behaviour(beh)
    if value != Fraction(10, 3):
        raise VerificationError("pentagonal value is not 10/3")
    return {"singles": beh.singles, "fulls": tuple(sorted(beh.fulls.items())),
            "positivity_min": positivity, "ce1_count": len(ce1_values),
            "ce1_max": max(ce1_values), "pentagonal_value": value,
            "pentagonal_bound": pent.bound}
