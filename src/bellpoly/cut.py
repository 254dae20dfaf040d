"""Compatibility graphs, cut vectors, and exclusivity inequalities.

Dichotomic measurements with a compatibility graph G have a noncontextual
polytope that is affinely isomorphic to the cut polytope of the suspension
graph of G (one apex adjacent to everything): single correlators map to apex
edges via <M_i> = 1 - 2 x_{iO} and pair correlators to ordinary edges via
<M_i M_j> = 1 - 2 x_{ij}. This module keeps both pictures exact, one
inequality type each (`CorrelatorInequality.to_cut_form` changes them): the
distinct cuts of any graph, each named by one vertex mask under the rule
`Graph.representatives` owns (which `CutVector`, `_cut_masks` and
`_cut_scan` share), as integer arrays of edge incidence rows, which one scan
(`_cut_scan`) evaluates in bulk and facet tests rank on the tail shared with
Bell inequalities (`exactrank._facet_report`), behaviours and inequalities
over rationals, plus the exclusivity (sum over mutually exclusive events
<= 1) inequalities for the pairwise-measurement scenario and the pentagonal
inequality that separates them from the noncontextual set. The census of maximal mutually exclusive event sets works
on integers: events are indexes in sorted (i, j, a, b) order, the exclusivity
graph's neighbour bitmasks are unions of per-(observable, value) masks (no
pair loop), Bron-Kerbosch runs on those bitmasks, and a maximal set in no
known family raises VerificationError.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Tuple

from .errors import BudgetExceededError, VerificationError
from .rational import as_rational
from .records import record

CUT_ENUM_MAX_VERTICES = 20
_CHUNK_CELLS = 1 << 20  # values per chunk of a cut scan, to bound its memory


@record
class Graph:
    """Undirected graph on vertices 0..n-1 with no self-loops. Its derived
    values are cached properties: sorted_edges fixes the coordinate order of
    cut vectors, and `representatives` is the one rule that names a cut."""
    n: int
    edges: frozenset

    def __post_init__(self):
        _check_count(self.n)
        object.__setattr__(self, "edges", frozenset(_edge(e, self.n) for e in self.edges))

    @cached_property
    def sorted_edges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def components(self) -> tuple:
        """Each component's vertex bitmask, in order of least vertex."""
        comp = [1 << v for v in range(self.n)]
        for i, j in self.sorted_edges:
            if not comp[i] >> j & 1:
                merged = comp[i] | comp[j]
                for v in _bits(merged):
                    comp[v] = merged
        return tuple(dict.fromkeys(comp))

    @cached_property
    def representatives(self) -> int:
        """Vertex 0 and the top vertex of every other component, as a
        bitmask. Moving a component across a cut flips its representative
        and keeps the cut's edges, so a vertex mask names a cut exactly when
        it has no representative bit."""
        return sum(1 if c & 1 else 1 << (c.bit_length() - 1) for c in self.components)

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph(n, itertools.combinations(range(n), 2))


def _check_count(n) -> None:
    if not isinstance(n, int):
        raise ValueError(f"vertex count {n!r} is not an integer")
    if n < 0:
        raise ValueError(f"vertex count {n} is negative")


def _edge(e, n: int) -> tuple:
    """e as (min, max), once checked to join two distinct vertices in 0..n-1."""
    i, j = e
    if i == j:
        raise ValueError(f"self-loop at vertex {i}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"edge ({i}, {j}) references a missing vertex")
    return (min(i, j), max(i, j))


def suspension(g: Graph) -> Graph:
    """Add one apex vertex adjacent to every existing vertex; the apex gets
    the last index n."""
    return Graph(g.n + 1, set(g.edges) | {(v, g.n) for v in range(g.n)})


# ---------------------------------------------------------------------------
# cuts
# ---------------------------------------------------------------------------

# The bulk cut scan and the facet test's rank work on numpy arrays. They
# import numpy, scenario and exactrank where they run, so that building
# graphs, cuts, behaviours and exclusivity inequalities (`cut suspend`,
# `cuts`, `ce1`, `ce-gap`) starts no numpy, and no cut operation loads the
# game modules.

def _check_limit(n: int) -> None:
    """BudgetExceededError when n vertices have too many cuts to enumerate."""
    if n > CUT_ENUM_MAX_VERTICES:
        raise BudgetExceededError(
            f"{n} vertices exceed the cut enumeration limit of {CUT_ENUM_MAX_VERTICES}")


def _cut_masks(g: Graph):
    """Each distinct cut of g once, after the vertex limit, as the vertex
    bitmask (bit v for vertex v) that names it (`Graph.representatives`);
    vertex 0 is a representative, so only even masks are read."""
    _check_limit(g.n)
    reps = g.representatives
    return (m for m in range(0, 1 << g.n, 2) if not m & reps)


def _cut_rows(g: Graph, masks):
    """Edge incidence rows, in g's edge order, of the cuts with these vertex
    bitmasks (at most the enumeration limit's vertices): an edge is cut when
    the bits of its ends differ."""
    import numpy as np
    ends = np.array(g.sorted_edges, dtype=np.int64).reshape(-1, 2)
    m = np.asarray(masks, dtype=np.int64)[:, None]
    return (((m >> ends[:, 0]) ^ (m >> ends[:, 1])) & 1).astype(np.int8)


@record
class CutVector:
    """Edge incidence vector of a vertex subset. The stored subset names the
    cut by the graph's rule (`Graph.representatives`): each component whose
    representative lies in the subset moves across, so on a connected graph
    a subset holding vertex 0 is complemented."""
    graph: Graph
    subset: frozenset

    def __post_init__(self):
        g, s = self.graph, frozenset(self.subset)
        if not s <= set(range(g.n)):
            raise ValueError("subset references a missing vertex")
        named = sum(1 << v for v in s) & g.representatives
        moved = sum(c for c in g.components if c & named)
        object.__setattr__(self, "subset", s ^ _mask_subset(moved, g.n))

    @cached_property
    def bits(self) -> tuple:
        mask = sum(1 << v for v in self.subset)
        return tuple(((mask >> i) ^ (mask >> j)) & 1 for i, j in self.graph.sorted_edges)

    def bit(self, i: int, j: int) -> int:
        if (min(i, j), max(i, j)) not in self.graph.edges:
            raise ValueError(f"({i}, {j}) is not an edge of the graph")
        return int((i in self.subset) != (j in self.subset))


def _mask_subset(mask: int, n: int) -> frozenset:
    return frozenset(v for v in range(n) if (mask >> v) & 1)


def enumerate_cuts(g: Graph):
    """Each distinct cut vector of g once, from the first subset of vertices
    1..n-1 in bitmask order that cuts its edges (`_cut_masks`)."""
    return [CutVector(g, _mask_subset(mask, g.n)) for mask in _cut_masks(g)]


def _cut_scan(ineq: "CutInequality", g: Graph):
    """One pass over the cuts of g (`_cut_masks`' masks, in numpy) with
    ineq's integer-scaled values, in chunks that bound its memory, after the
    vertex limit: the bitmasks of the cuts meeting the bound, and the bitmask
    of the first cut of largest value when it exceeds the bound, else None."""
    import numpy as np
    from .scenario import int_scaled
    _check_limit(g.n)
    masks = np.arange(0, 1 << g.n, 2, dtype=np.int64)
    masks = masks[masks & g.representatives == 0]
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

@record
class NCBehaviour:
    """Single and pair correlators of dichotomic measurements on a
    compatibility graph. Pairwise joint distributions must be nonnegative:
    1 + a<M_i> + b<M_j> + ab<M_iM_j> >= 0 for all signs a, b and each edge."""
    graph: Graph
    singles: tuple
    fulls: Mapping

    def __post_init__(self):
        singles = tuple(map(as_rational, self.singles))
        fulls = {(min(i, j), max(i, j)): as_rational(v) for (i, j), v in dict(self.fulls).items()}
        if len(singles) != self.graph.n:
            raise ValueError("one single correlator per vertex required")
        if fulls.keys() != self.graph.edges:
            raise ValueError("one full correlator per edge required")
        for (i, j), entry in _joint_entries(singles, fulls):
            if entry < 0:
                raise ValueError(f"joint distribution of ({i}, {j}) has a negative entry")
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

def _edge_table(coeffs, n: int) -> dict:
    """{(i, j): Fraction} with i < j from a mapping or (edge, value) pairs; a
    pair `_edge` refuses, or an edge given twice in either order, is a ValueError."""
    table = {}
    for e, v in coeffs.items() if hasattr(coeffs, "items") else coeffs:
        e = _edge(e, n)
        if e in table:
            raise ValueError(f"edge {e} is listed twice")
        table[e] = as_rational(v)
    return table


@record
class CutInequality:
    """sum_{i<j} c_ij x_ij <= bound in the cut coordinates of a graph on n
    vertices: edge_coeffs maps edges (i, j), i < j, to their rational
    coefficients c_ij; an edge it omits weighs 0."""
    n: int
    edge_coeffs: Mapping
    bound: Fraction

    def __post_init__(self):
        _check_count(self.n)
        object.__setattr__(self, "edge_coeffs", _edge_table(self.edge_coeffs, self.n))
        object.__setattr__(self, "bound", as_rational(self.bound))

    @staticmethod
    def hypermetric(b, g: Graph = None) -> "CutInequality":
        """sum b_i b_j x_ij <= 0 over g's edges, by default those of K_len(b)."""
        b = tuple(int(v) for v in b)
        edges = itertools.combinations(range(len(b)), 2) if g is None else g.sorted_edges
        return CutInequality(len(b), {(i, j): b[i] * b[j] for i, j in edges}, 0)

    def _coefficients(self, g: Graph) -> list:
        """The coefficients on g's edges, in g's edge order; ValueError when
        an edge with a coefficient is not one of g's."""
        missing = [e for e in self.edge_coeffs if e not in g.edges]
        if missing:
            raise ValueError(f"{missing[0]} is not an edge of the graph")
        zero = Fraction(0)
        return [self.edge_coeffs.get(e, zero) for e in g.sorted_edges]

    def evaluate_cut(self, cv: CutVector) -> Fraction:
        """The left side at cut cv: the coefficients of the edges it cuts, summed."""
        return sum((c for c, bit in zip(self._coefficients(cv.graph), cv.bits) if bit),
                   Fraction(0))


@record
class CorrelatorInequality:
    """sum_{i<j} c_ij <M_iM_j> + sum_i s_i <M_i> <= bound on n dichotomic
    observables: pair_coeffs maps pairs (i, j), i < j, to c_ij, and
    single_coeffs holds s_0..s_{n-1}."""
    n: int
    pair_coeffs: Mapping
    single_coeffs: tuple
    bound: Fraction

    def __post_init__(self):
        _check_count(self.n)
        singles = tuple(map(as_rational, self.single_coeffs))
        if len(singles) != self.n:
            raise ValueError("one single coefficient per observable required")
        object.__setattr__(self, "pair_coeffs", _edge_table(self.pair_coeffs, self.n))
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
    g = _facet_graph(len(b), g)
    return _cut_scan(CutInequality.hypermetric(b, g), g)[1] is None


def hypermetric_facet_test(b, g: Graph = None):
    """`cut_facet_test` of the form `hypermetric_valid` checks, on g, by
    default K_len(b); g's checks come before the form is built."""
    g = _facet_graph(len(b), g)
    return cut_facet_test(CutInequality.hypermetric(b, g), g)


def _facet_graph(n: int, g: Graph = None) -> Graph:
    """g, by default K_n, once checked to carry the cuts of an inequality on
    n vertices: first the enumeration limit when K_n is built (before its
    n^2 edges are), then g's vertex count."""
    if g is None:
        _check_limit(n)
        g = Graph.complete(n)
    if g.n != n:
        raise ValueError("inequality and graph vertex counts differ")
    return g


def cut_facet_test(ineq: CutInequality, g: Graph = None):
    """Exact facet test against the cut polytope of g, any graph on ineq's n
    vertices, by default K_n: the inequality must be valid at every cut; its
    roots (the distinct cuts meeting the bound) must affinely span one
    dimension below the edge count."""
    from .exactrank import _facet_report
    g = _facet_graph(ineq.n, g)
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


@record(order=True)
class Event:
    """Outcome pair (a, b) of the joint measurement of observables i < j."""
    i: int
    j: int
    a: int
    b: int


@record
class OrthogonalSetCensus:
    normalization: tuple  # size-4 sets, one per context
    protocol: tuple       # size-4 sets split over two contexts sharing a vertex
    triples: tuple        # size-3 sets over a vertex triangle


def _exclusivity_graph(n: int):
    """The events (i, j, a, b) of n observables (i < j, a and b = +-1) in
    sorted order, which is `Event` order, and each event's neighbour bitmask
    in the exclusivity graph (bit y for event y). Two events are exclusive
    exactly when they give a shared observable opposite values, so the
    neighbours of (i, j, a, b) are mask[i, -a] | mask[j, -b], where
    mask[v, s] holds the events that give observable v the value s."""
    events = [(i, j, a, b) for i, j in itertools.combinations(range(n), 2)
              for a in (-1, 1) for b in (-1, 1)]
    mask = dict.fromkeys(itertools.product(range(n), (-1, 1)), 0)
    for x, (i, j, a, b) in enumerate(events):
        mask[i, a] |= 1 << x
        mask[j, b] |= 1 << x
    return events, [mask[i, -a] | mask[j, -b] for i, j, a, b in events]


def _bits(m: int):
    """The set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _maximal_cliques(adj):
    """Every maximal clique, as its vertices in increasing order, of the
    graph on vertices 0..len(adj)-1 where vertex v has neighbour bitmask
    adj[v]: Bron-Kerbosch with Tomita pivoting on bitmasks, where each call
    branches only on the candidates not adjacent to a pivot chosen to cover
    most candidates."""
    cliques = []

    def expand(clique, cand, excluded):
        if not cand:
            if not excluded:
                cliques.append(tuple(_bits(clique)))
            return
        most = -1
        for u in _bits(cand | excluded):
            covered = (cand & adj[u]).bit_count()
            if covered > most:
                most, pivot = covered, u
        for v in _bits(cand & ~adj[pivot]):
            bit = 1 << v
            expand(clique | bit, cand & adj[v], excluded & adj[v])
            cand ^= bit
            excluded |= bit

    expand(0, (1 << len(adj)) - 1, 0)
    return cliques


def _family(members):
    """The census family of a maximal exclusive set, given as its (i, j, a, b)
    tuples, or None when it is in none of the three."""
    contexts = sorted({(i, j) for i, j, _, _ in members})
    if len(members) == 4 and len(contexts) == 1:
        return "normalization"
    if len(members) == 4 and len(contexts) == 2:
        shared = set(contexts[0]) & set(contexts[1])
        if len(shared) == 1:
            (v,) = shared
            values = [[a if i == v else b for i, j, a, b in members if (i, j) == c]
                      for c in contexts]
            if all(len(s) == 2 and s[0] == s[1] for s in values) \
                    and values[0][0] != values[1][0]:
                return "protocol"
    if len(members) == 3 and len(contexts) == 3 \
            and len({v for c in contexts for v in c}) == 3:
        return "triples"
    return None


def maximal_orthogonal_sets(n: int) -> OrthogonalSetCensus:
    """Enumerate every maximal set of mutually exclusive events and sort them
    into the three families that exist in this scenario. The exclusivity
    graph is built from bitmasks with no pair loop: mask[v, s] holds the
    events that give observable v the value s, and the neighbours of event
    (i, j, a, b) are mask[i, -a] | mask[j, -b]. Bron-Kerbosch with Tomita
    pivoting enumerates its maximal cliques on those bitmasks. A maximal set
    that no family covers would falsify the census and raises
    VerificationError. Each family's sets, and each set's events, come in
    sorted order."""
    if not 3 <= n <= 6:
        raise BudgetExceededError("event census supported for 3 <= n <= 6")
    events, adj = _exclusivity_graph(n)
    families = {"normalization": [], "protocol": [], "triples": []}
    for clique in _maximal_cliques(adj):
        kind = _family([events[x] for x in clique])
        if kind is None:
            raise VerificationError(
                f"unclassified maximal orthogonal set of size {len(clique)}")
        families[kind].append(clique)
    objects = [Event(*e) for e in events]
    return OrthogonalSetCensus(**{kind: tuple(tuple(objects[x] for x in clique)
                                              for clique in sorted(cliques))
                                  for kind, cliques in families.items()})


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
    facet = cut_facet_test(cut_form)
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
