import itertools
import random
from fractions import Fraction

import pytest

from bellpoly import BudgetExceededError, VerificationError
from bellpoly.cut import (
    CorrelatorInequality,
    CutInequality,
    CutVector,
    Event,
    Graph,
    NCBehaviour,
    CUT_ENUM_MAX_VERTICES,
    _cut_masks,
    _cut_rows,
    _cut_scan,
    _exclusivity_graph,
    _mask_subset,
    _maximal_cliques,
    behaviour_to_cut,
    ce1_inequalities,
    ce_gap_report,
    cut_facet_test,
    enumerate_cuts,
    hypermetric_facet_test,
    hypermetric_valid,
    maximal_orthogonal_sets,
    pentagonal_contextuality_inequality,
    pentagonal_report,
    suspension,
)
from bellpoly.exactrank import integer_rank
from tests import census_reference
from tests.behaviour_reference import (ce1_from_triple_set, ce_gap_certificate,
                                       ce_gap_grid_search, cut_to_behaviour)

F = Fraction


# -------------------------------------------------------------------- graphs

def test_graph_normalizes_edges():
    g = Graph(3, [(1, 0), (2, 1)])
    assert g.sorted_edges == ((0, 1), (1, 2))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    # duplicates collapse after normalization
    assert Graph(3, [(0, 1), (1, 0)]).sorted_edges == ((0, 1),)


def test_complete_graph():
    k4 = Graph.complete(4)
    assert k4.sorted_edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_suspension_adds_apex_last():
    p3 = Graph(3, [(0, 1), (1, 2)])
    s = suspension(p3)
    assert s.n == 4
    assert set(s.sorted_edges) == {(0, 1), (1, 2), (0, 3), (1, 3), (2, 3)}
    assert suspension(Graph.complete(4)) == Graph.complete(5)


# ---------------------------------------------------------------------- cuts

def test_cut_counts():
    assert len(enumerate_cuts(Graph.complete(3))) == 4
    assert len(enumerate_cuts(Graph.complete(5))) == 16
    assert len(enumerate_cuts(Graph(4, [(0, 1), (1, 2), (2, 3)]))) == 8


def test_disconnected_cut_vectors_dedupe():
    # an isolated vertex doubles the subsets but not the edge vectors
    g = Graph(3, [(0, 1)])
    cuts = enumerate_cuts(g)
    assert len(cuts) == 2
    assert sorted(c.bits for c in cuts) == [(0,), (1,)]
    assert len(enumerate_cuts(Graph(2, []))) == 1
    # {2} and {3} both cut edge 23 alone: one cut, one vector, the one listed
    g = Graph(4, [(0, 1), (2, 3)])
    assert CutVector(g, {2}) == CutVector(g, {3})
    assert CutVector(g, {3}) in enumerate_cuts(g)


def _cuts_reference(g):
    # every subset of vertices 1..n-1 in bitmask order; the first subset
    # of each distinct edge vector is kept
    first = {}
    for mask in range(1 << (g.n - 1)):
        s = frozenset(i + 1 for i in range(g.n - 1) if (mask >> i) & 1)
        first.setdefault(tuple(int((i in s) != (j in s)) for i, j in g.sorted_edges), s)
    return [(s, bits) for bits, s in first.items()]


@pytest.mark.parametrize("g", [
    Graph.complete(5), Graph(4, []), Graph(6, [(0, 1), (2, 3), (3, 4)]),
    Graph(7, [(1, 2), (2, 3), (0, 5), (4, 6)]), suspension(Graph(4, [(0, 1), (2, 3)]))])
def test_enumerate_cuts_order_and_dedupe(g):
    cuts = enumerate_cuts(g)
    assert [(cv.subset, cv.bits) for cv in cuts] == _cuts_reference(g)
    # the scan reads the same masks: the zero form meets its bound 0 at each
    roots, worst = _cut_scan(CutInequality(g.n, {}, 0), g)
    assert [_mask_subset(m, g.n) for m in roots.tolist()] == [cv.subset for cv in cuts]
    assert worst is None
    assert all(type(b) is int for cv in cuts for b in cv.bits)
    assert all(CutVector(g, cv.subset).bits == cv.bits for cv in cuts)


def test_cut_vector_bits_on_a_graph_beyond_int64_bitmasks():
    g = Graph(70, [(0, 69), (1, 2), (5, 66), (66, 69)])
    for subset in ({69, 1}, {2}, {0, 66}, set(range(70))):
        cv = CutVector(g, subset)
        assert cv.bits == tuple(int((i in cv.subset) != (j in cv.subset))
                                for i, j in g.sorted_edges)
        assert all(type(b) is int for b in cv.bits)


def _graph_cases():
    rng = random.Random(2016)
    seeded = []
    for n in (3, 5, 7, 9):
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        seeded.append(Graph(n, edges))
    return [Graph.complete(n) for n in range(1, 9)] + seeded


@pytest.mark.parametrize("g", _graph_cases())
def test_cut_vector_bits_equal_the_cut_rows(g):
    # the per-cut bits and the scan's bulk rows are two codings of one rule
    masks = list(_cut_masks(g))
    rows = [tuple(row) for row in _cut_rows(g, masks).tolist()]
    assert [CutVector(g, _mask_subset(m, g.n)).bits for m in masks] == rows


def test_cut_vector_bits_follow_sorted_edges():
    g = Graph.complete(3)
    cv = CutVector(g, (1,))
    assert cv.bits == (1, 0, 1)  # edges (0,1), (0,2), (1,2)
    assert cv.bit(0, 1) == 1 and cv.bit(2, 0) == 0 and cv.bit(2, 1) == 1


def test_cut_vector_bit_rejects_non_edge():
    cv = CutVector(Graph(3, [(0, 1)]), (1,))
    with pytest.raises(ValueError):
        cv.bit(0, 2)


def test_cut_subset_canonical_excludes_vertex_zero():
    g = Graph.complete(4)
    assert CutVector(g, (0,)).subset == frozenset({1, 2, 3})
    assert CutVector(g, (0, 2)).subset == frozenset({1, 3})


def _components_by_bfs(n, edges):
    adjacent = {v: set() for v in range(n)}
    for i, j in edges:
        adjacent[i].add(j)
        adjacent[j].add(i)
    seen, components = set(), []
    for root in range(n):
        if root in seen:
            continue
        component, frontier = {root}, [root]
        while frontier:
            frontier = [w for v in frontier for w in adjacent[v] if w not in component]
            component.update(frontier)
        seen |= component
        components.append(component)
    return components


@pytest.mark.parametrize("n", range(1, 6))
def test_every_subset_of_every_small_graph_names_the_listed_cut(n):
    # every labelled graph on n vertices, every vertex subset: the vector of
    # the subset is the one listed cut with its bits, and the graph has
    # 2^(n - c) cuts for c components
    pairs = list(itertools.combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        edges = [e for k, e in enumerate(pairs) if chosen >> k & 1]
        g = Graph(n, edges)
        components = _components_by_bfs(n, edges)
        assert g.components == tuple(sum(1 << v for v in c) for c in components)
        cuts = enumerate_cuts(g)
        assert len(cuts) == 2 ** (n - len(components))
        by_bits = {cv.bits: cv for cv in cuts}
        assert len(by_bits) == len(cuts)
        for mask in range(1 << n):
            subset = _mask_subset(mask, n)
            bits = tuple(int((i in subset) != (j in subset)) for i, j in g.sorted_edges)
            assert CutVector(g, subset) == by_bits[bits]


@pytest.mark.parametrize("make", [
    lambda: Graph(2.5, [(0, 2)]),
    lambda: CutInequality(2.5, {(0, 2): 1}, 0),
    lambda: CorrelatorInequality(2.0, {(0, 1): 1}, (0, 0), 1),
], ids=["graph", "cut-inequality", "correlator-inequality"])
def test_a_count_that_is_not_an_integer_is_refused(make):
    with pytest.raises(ValueError, match=r"^vertex count 2\.\d is not an integer$"):
        make()


def test_cut_count_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_cuts(Graph(21, []))


# ---------------------------------------------------------------- behaviours

def test_deterministic_behaviour_roundtrip_n4():
    g = Graph.complete(4)
    s = suspension(g)  # K5 with apex 4
    cuts = {cv.bits for cv in enumerate_cuts(s)}
    behaviours = set()
    for signs in itertools.product((-1, 1), repeat=4):
        b = NCBehaviour.deterministic(g, signs)
        cv = behaviour_to_cut(b)
        assert cv.graph == s
        behaviours.add(cv.bits)
        assert cut_to_behaviour(cv) == b
    # all 16 deterministic sign patterns hit all 16 cuts of the suspension
    assert behaviours == cuts


def test_cut_to_behaviour_factorization():
    s = suspension(Graph.complete(3))
    for cv in enumerate_cuts(s):
        b = cut_to_behaviour(cv)
        # full correlators factor through the singles
        for (i, j), val in b.fulls.items():
            assert val == b.singles[i] * b.singles[j]


def test_behaviour_to_cut_needs_deterministic():
    g = Graph.complete(3)
    half = F(1, 2)
    b = NCBehaviour(g, (half, half, half),
                    {e: half * half for e in g.sorted_edges})
    assert not b.is_deterministic
    with pytest.raises(ValueError):
        behaviour_to_cut(b)


def test_nc_behaviour_positivity_validation():
    g = Graph.complete(3)
    with pytest.raises(ValueError):
        # <M_i M_j> = -1 with both singles +1 violates pairwise positivity
        NCBehaviour(g, (F(1), F(1), F(1)),
                    {(0, 1): F(-1), (0, 2): F(1), (1, 2): F(1)})


def test_pairwise_positivity_min():
    s = suspension(Graph.complete(4))
    b = cut_to_behaviour(enumerate_cuts(s)[3])
    assert b.pairwise_positivity_min() == 0


# ----------------------------------------------------------------------- ce1

def test_ce1_counts():
    assert [len(ce1_inequalities(n)) for n in (2, 3, 4, 5)] == [0, 4, 16, 40]


def test_ce1_sign_patterns_are_odd():
    for ineq in ce1_inequalities(3):
        coeffs = [v for v in ineq.pair_coeffs.values() if v != 0]
        assert len(coeffs) == 3
        assert coeffs.count(F(-1)) % 2 == 1  # odd number of minus signs
        assert ineq.bound == 1


def test_ce1_valid_on_deterministic_behaviours():
    g = Graph.complete(4)
    for ineq in ce1_inequalities(4):
        for signs in itertools.product((-1, 1), repeat=4):
            b = NCBehaviour.deterministic(g, signs)
            assert ineq.evaluate_behaviour(b) <= ineq.bound


def test_ce1_saturated_by_noncontextual_extremes():
    g = Graph.complete(3)
    best = max(ineq.evaluate_behaviour(NCBehaviour.deterministic(g, signs))
               for ineq in ce1_inequalities(3)
               for signs in itertools.product((-1, 1), repeat=3))
    assert best == 1


# -------------------------------------------------------------------- census

def test_census_counts_n3():
    c = maximal_orthogonal_sets(3)
    assert (len(c.normalization), len(c.protocol), len(c.triples)) == (3, 6, 8)


def test_census_counts_n4():
    c = maximal_orthogonal_sets(4)
    assert (len(c.normalization), len(c.protocol), len(c.triples)) == (6, 24, 32)


def test_census_scaling_formulas():
    for n in (3, 4, 5, 6):
        c = maximal_orthogonal_sets(n)
        pairs = n * (n - 1) // 2
        assert len(c.normalization) == pairs
        assert len(c.protocol) == n * (n - 1) * (n - 2)
        assert len(c.triples) == 8 * (n * (n - 1) * (n - 2) // 6)


def _brute_force_maximal_cliques(adj):
    def is_clique(s):
        return all(y in adj[x] for x, y in itertools.combinations(s, 2))
    cliques = [frozenset(s) for r in range(len(adj) + 1)
               for s in itertools.combinations(adj, r) if is_clique(s)]
    return {c for c in cliques if not any(c < d for d in cliques)}


def test_maximal_cliques_match_brute_force():
    rng = random.Random(20160719)
    graphs = [{}, {v: set() for v in range(5)},
              {v: set(range(7)) - {v} for v in range(7)}]
    for _ in range(200):
        n = rng.randint(1, 9)
        density = rng.random()
        adj = {v: set() for v in range(n)}
        for x, y in itertools.combinations(range(n), 2):
            if rng.random() < density:
                adj[x].add(y)
                adj[y].add(x)
        graphs.append(adj)
    for adj in graphs:
        masks = [sum(1 << u for u in adj[v]) for v in range(len(adj))]
        found = [frozenset(c) for c in _maximal_cliques(masks)]
        assert len(found) == len(set(found))
        assert set(found) == _brute_force_maximal_cliques(adj)


def test_census_matches_the_pairwise_reference():
    # every family, every set and every event, in order
    for n in (3, 4, 5, 6):
        assert maximal_orthogonal_sets(n) == census_reference.maximal_orthogonal_sets(n)


def _adjacency_mismatches(events, adj):
    """Event pairs (x, y) where bit y of adj[x] disagrees with the pairwise
    exclusivity rule; a pair (x, x) is exclusive for no event."""
    return [(x, y) for x, e in enumerate(events) for y, f in enumerate(events)
            if bool(adj[x] >> y & 1) != (x != y and census_reference.orthogonal(Event(*e),
                                                                                 Event(*f)))]


def test_mask_adjacency_matches_the_pairwise_rule():
    for n in (3, 4, 5, 6):
        events, adj = _exclusivity_graph(n)
        assert events == sorted(events)
        assert [Event(*e) for e in events] == sorted(census_reference.events(n))
        assert _adjacency_mismatches(events, adj) == []


def test_adjacency_check_catches_a_wrong_neighbour_mask():
    # wrong masks: one bit flipped, each event's own context left out, and
    # each mask given to the next event
    events, adj = _exclusivity_graph(4)
    flipped = list(adj)
    flipped[5] ^= 1 << 17
    same_context_missed = [m & ~(0b1111 << (x & ~3)) for x, m in enumerate(adj)]
    for wrong in (flipped, same_context_missed, adj[-1:] + adj[:-1]):
        assert _adjacency_mismatches(events, wrong) != []


def test_census_size_bounds():
    for n in (2, 7):
        with pytest.raises(BudgetExceededError):
            maximal_orthogonal_sets(n)


def test_census_raises_on_a_maximal_set_in_no_family(monkeypatch):
    # with every pair of events called exclusive, the one maximal set holds
    # all 12 events, which no family covers
    from bellpoly import cut
    events, _ = _exclusivity_graph(3)
    every = [((1 << len(events)) - 1) ^ (1 << x) for x in range(len(events))]
    monkeypatch.setattr(cut, "_exclusivity_graph", lambda n: (events, every))
    with pytest.raises(VerificationError, match="unclassified maximal orthogonal set of size 12"):
        maximal_orthogonal_sets(3)


def test_census_sets_are_mutually_orthogonal():
    c = maximal_orthogonal_sets(3)
    for group in (c.normalization, c.protocol, c.triples):
        for s in group:
            for e1, e2 in itertools.combinations(s, 2):
                # orthogonal events never fire together: same context with
                # different outcomes, or contradicting shared observable
                if (e1.i, e1.j) == (e2.i, e2.j):
                    assert (e1.a, e1.b) != (e2.a, e2.b)
                else:
                    shared = {e1.i, e1.j} & {e2.i, e2.j}
                    assert len(shared) == 1


def test_triples_map_onto_ce1():
    ce1 = {(tuple(sorted(ineq.pair_coeffs.items())), ineq.bound)
           for ineq in ce1_inequalities(4)}
    derived = set()
    for s in maximal_orthogonal_sets(4).triples:
        ineq = ce1_from_triple_set(s, 4)
        derived.add((tuple(sorted(ineq.pair_coeffs.items())), ineq.bound))
    assert derived == ce1
    # global outcome flip identifies the 32 triple sets pairwise: 16 classes
    assert len(derived) == 16


def test_event_orthogonality_unit():
    orthogonal = census_reference.orthogonal
    assert orthogonal(Event(0, 1, 1, 1), Event(0, 1, 1, -1))
    assert orthogonal(Event(0, 1, 1, 1), Event(0, 2, -1, 1))
    assert not orthogonal(Event(0, 1, 1, 1), Event(0, 2, 1, 1))
    assert not orthogonal(Event(0, 1, 1, 1), Event(2, 3, 1, 1))


# --------------------------------------------------------------- hypermetric

def test_triangle_inequality_valid():
    assert hypermetric_valid((1, 1, -1), Graph.complete(3))


def test_pentagonal_inequality_valid_on_k5():
    assert hypermetric_valid((1, 1, 1, -1, -1), Graph.complete(5))


def test_hypermetric_family_small():
    for n in (5, 6):
        b = (1,) * (n - 2) + (-1, 4 - n)
        assert sum(b) == 1
        assert hypermetric_valid(b, Graph.complete(n))


def test_hypermetric_needs_unit_sum():
    with pytest.raises(ValueError):
        hypermetric_valid((1, 1, 1), Graph.complete(3))


def test_hypermetric_cut_value_formula():
    # on a cut S the form evaluates to s(1 - s) with s = sum of b over S
    b = (1, 1, 1, -1, -1)
    ineq = CutInequality.hypermetric(b)
    g = Graph.complete(5)
    for cv in enumerate_cuts(g):
        s = sum(b[i] for i in cv.subset)
        assert ineq.evaluate_cut(cv) == s * (1 - s) * -1 * -1  # == s - s^2
        assert ineq.evaluate_cut(cv) == s * (1 - s)


def _evaluate_cut_per_edge(ineq, cv):
    """One Fraction per edge: the sum evaluate_cut must reproduce exactly."""
    return sum((c * cv.bit(i, j) for (i, j), c in ineq.edge_coeffs.items()), Fraction(0))


@pytest.mark.parametrize("n", range(5, 9))
def test_evaluate_cut_matches_per_edge_sum(n):
    rng = random.Random(n)
    g = Graph.complete(n)
    b = [rng.randint(-2, 2) for _ in range(n - 1)]
    hyper = CutInequality.hypermetric(b + [1 - sum(b)])
    space = CutInequality(
        n, {e: F(rng.randint(-9, 9), rng.randint(1, 12)) for e in g.sorted_edges}, F(1, 3))
    for ineq in (hyper, space):
        for cv in enumerate_cuts(g):
            value = ineq.evaluate_cut(cv)
            assert type(value) is Fraction
            assert value == _evaluate_cut_per_edge(ineq, cv)


def test_cut_facet_test_names_the_first_maximizing_cut():
    # every edge of K_4 weighs 1: the cut {1} (3 edges) is the first above
    # the bound 2, and {1, 2} (4 edges) the first of largest value
    ineq = CutInequality(4, {e: 1 for e in Graph.complete(4).sorted_edges}, 2)
    with pytest.raises(ValueError, match=r"violated at the cut with subset \[1, 2\]$"):
        cut_facet_test(ineq, Graph.complete(4))
    # the vertex limit is checked before validity
    big = CutInequality(21, {e: 1 for e in Graph.complete(21).sorted_edges}, 2)
    with pytest.raises(BudgetExceededError):
        cut_facet_test(big, Graph.complete(21))


@pytest.mark.parametrize("n", [40, 64])
def test_a_given_graph_past_the_vertex_limit_is_refused_before_any_cut(monkeypatch, n):
    # a given graph meets the limit only where its cuts are enumerated, and
    # there it must come before the 2^(n-1) masks are made (about 4 TiB of
    # them at n = 40; at n = 64, 1 << n no longer fits an int64)
    import numpy as np
    made = []
    real = np.arange
    monkeypatch.setattr(np, "arange", lambda *a, **k: made.append(a) or real(*a, **k))
    path = Graph(n, [(i, i + 1) for i in range(n - 1)])
    b = (1,) + (0,) * (n - 1)
    limit = f"{n} vertices exceed the cut enumeration limit of {CUT_ENUM_MAX_VERTICES}"
    for check in (lambda: cut_facet_test(CutInequality(n, {(0, 1): 1}, 1), path),
                  lambda: hypermetric_valid(b, path),
                  lambda: hypermetric_facet_test(b, path),
                  lambda: enumerate_cuts(path)):
        with pytest.raises(BudgetExceededError, match=f"^{limit}$"):
            check()
    assert made == []


def test_evaluate_cut_rejects_missing_edge_and_correlator_form():
    cv = CutVector(Graph(3, [(0, 1)]), {1})
    with pytest.raises(ValueError, match=r"\(0, 2\) is not an edge"):
        CutInequality.hypermetric((1, 1, -1)).evaluate_cut(cv)
    # a correlator inequality has no cut form of its own to evaluate
    assert not hasattr(CorrelatorInequality(2, {(0, 1): 1}, (0, 0), 1), "evaluate_cut")


def test_inequalities_reject_an_edge_listed_twice():
    for coeffs in ({(0, 1): 1, (1, 0): -1}, [((0, 1), 1), ((0, 1), -1)]):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) is listed twice"):
            CutInequality(3, coeffs, 0)
        with pytest.raises(ValueError, match=r"edge \(0, 1\) is listed twice"):
            CorrelatorInequality(3, coeffs, (0, 0, 0), 1)


@pytest.mark.parametrize("coeffs, message", [
    ({(1, 1): 2}, "self-loop at vertex 1"),
    ({(0, 1): 1, (0, 7): 1}, r"edge \(0, 7\) references a missing vertex"),
    ([((3, 0), 1)], r"edge \(3, 0\) references a missing vertex"),
    ({(-1, 2): 1}, r"edge \(-1, 2\) references a missing vertex"),
], ids=["self-pair", "past-n", "at-n", "negative"])
def test_inequalities_refuse_a_pair_off_their_vertices(coeffs, message):
    # the messages a Graph gives for the same edge
    with pytest.raises(ValueError, match=message):
        Graph(3, list(dict(coeffs)))
    with pytest.raises(ValueError, match=message):
        CutInequality(3, coeffs, 0)
    with pytest.raises(ValueError, match=message):
        CorrelatorInequality(3, coeffs, (0, 0, 0), 1)


def test_to_cut_form_puts_each_single_on_its_own_apex_edge():
    # a pair (0, 3) of three observables would name the apex edge of
    # observable 0, the edge that carries the single's coefficient
    with pytest.raises(ValueError, match=r"edge \(0, 3\) references a missing vertex"):
        CorrelatorInequality(3, {(0, 3): 1}, (5, 0, 0), 1).to_cut_form()
    ineq = CorrelatorInequality(3, {(0, 2): 1, (1, 2): -2}, (5, 0, -1), 1)
    cut_form = ineq.to_cut_form()
    assert cut_form.edge_coeffs == {(0, 2): -2, (1, 2): 4, (0, 3): -10, (1, 3): 0, (2, 3): 2}
    g = Graph.complete(3)
    for signs in itertools.product((1, -1), repeat=3):
        beh = NCBehaviour.deterministic(g, signs)
        assert cut_form.evaluate_cut(behaviour_to_cut(beh)) - cut_form.bound == \
            ineq.evaluate_behaviour(beh) - ineq.bound


# ---------------------------------------------------------------- facet tests

def test_triangle_is_facet_of_cut_k4():
    ineq = CutInequality.hypermetric((1, 1, -1, 0))
    rep = cut_facet_test(ineq, Graph.complete(4))
    assert rep.polytope_kind == "cut"
    assert (rep.ambient_dim, rep.saturating_count, rep.saturating_affine_dim) \
        == (6, 6, 5)
    assert rep.is_facet


def test_pentagonal_is_facet_of_cut_k5():
    ineq = CutInequality.hypermetric((1, 1, 1, -1, -1))
    rep = cut_facet_test(ineq, Graph.complete(5))
    assert (rep.ambient_dim, rep.saturating_count, rep.saturating_affine_dim) \
        == (10, 10, 9)
    assert rep.is_facet


def test_loose_inequality_is_not_facet():
    g = Graph.complete(4)
    coeffs = {e: F(1) for e in g.sorted_edges}
    ineq = CutInequality(4, coeffs, F(len(g.sorted_edges)))
    rep = cut_facet_test(ineq, g)
    assert rep.saturating_count == 0
    assert not rep.is_facet


def test_facet_test_rejects_invalid_inequality():
    g = Graph.complete(3)
    ineq = CutInequality(3, {(0, 1): F(1)}, F(0))
    with pytest.raises(ValueError):
        cut_facet_test(ineq, g)


def test_facet_test_refuses_a_coefficient_off_the_graph():
    ineq = CutInequality.hypermetric((1, 1, -1))
    with pytest.raises(ValueError, match=r"\(0, 2\) is not an edge of the graph"):
        cut_facet_test(ineq, Graph(3, [(0, 1)]))


def test_hypermetric_facet_test_is_the_facet_test_of_its_inequality():
    # the hypermetric family of acceptance criterion 9, on K_5 to K_8
    for n in range(5, 9):
        b = (1,) * (n - 2) + (-1, 4 - n)
        assert hypermetric_facet_test(b) == \
            cut_facet_test(CutInequality.hypermetric(b), Graph.complete(n))


def test_cut_facet_test_defaults_to_the_complete_graph():
    g4 = Graph.complete(4)
    for ineq in (CutInequality.hypermetric((1, 1, -1, 0)),
                 CutInequality.hypermetric((1, 1, 1, -1, -1)),
                 CutInequality(4, {e: F(1) for e in g4.sorted_edges}, F(6))):
        assert cut_facet_test(ineq) == cut_facet_test(ineq, Graph.complete(ineq.n))


@pytest.mark.parametrize("b, g, error", [
    ((1,) + (0,) * CUT_ENUM_MAX_VERTICES, None, BudgetExceededError),
    ((1, 1, -1), Graph.complete(4), ValueError),
], ids=["past-the-vertex-limit", "vertex-count"])
def test_hypermetric_facet_test_refuses_before_building_the_inequality(
        monkeypatch, b, g, error):
    # CutInequality.hypermetric builds the form on the graph's edges
    built = []
    monkeypatch.setattr(CutInequality, "hypermetric",
                        staticmethod(lambda *args: built.append(args)))
    with pytest.raises(error):
        hypermetric_facet_test(b, g)
    assert built == []


def test_hypermetric_facet_test_judges_the_form_hypermetric_valid_reads():
    # on the path 0-1-2-3-4 the form keeps the four path edges only; the cut
    # {1, 4} scores b0 b1 + b1 b2 + b3 b4 = 3 > 0, the first of largest value
    p5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    b = (1, 1, 1, -1, -1)
    assert CutInequality.hypermetric(b, p5).edge_coeffs == \
        {(0, 1): 1, (1, 2): 1, (2, 3): -1, (3, 4): 1}
    assert not hypermetric_valid(b, p5)
    with pytest.raises(ValueError, match=r"violated at the cut with subset \[1, 4\]$"):
        hypermetric_facet_test(b, p5)
    # on K_n it is the form CutInequality.hypermetric(b) builds
    for b in ((1, 1, -1), (1, 1, 1, -1, -1), (2, 1, 1, -1, -1, -1, 0, 0)):
        assert CutInequality.hypermetric(b, Graph.complete(len(b))) == \
            CutInequality.hypermetric(b)


def _cycle_edges(cycle):
    return [(min(e), max(e)) for e in zip(cycle, cycle[1:] + cycle[:1])]


def _cycle_inequality(n, cycle):
    """x_f - x(C - f) <= 0 for the cycle C through these vertices and its
    first edge f: the cycle inequality with one odd edge."""
    return CutInequality(n, {e: 1 if k == 0 else -1
                             for k, e in enumerate(_cycle_edges(cycle))}, 0)


C4_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3)]


@pytest.mark.parametrize("graph, cycle, expected", [
    (suspension(Graph(4, C4_EDGES)), (0, 1, 2, 3), (8, 8, 7, True)),
    (suspension(Graph(4, C4_EDGES + [(0, 2)])), (0, 1, 2, 3), (9, 8, 7, False)),
    (suspension(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])), (0, 1, 2, 3, 4),
     (10, 10, 9, True)),
], ids=["nabla-C4", "nabla-C4-chord", "nabla-C5"])
def test_cycle_inequality_on_suspended_cycles(graph, cycle, expected):
    # the KCBS scenario is the 5-cycle; a chord makes the 4-cycle's roots
    # span a face of dimension 7 in 9
    rep = cut_facet_test(_cycle_inequality(graph.n, cycle), graph)
    assert (rep.ambient_dim, rep.saturating_count, rep.saturating_affine_dim,
            rep.is_facet) == expected


def test_saturating_count_counts_each_distinct_cut_once():
    # the edges 01 and 23 on four vertices: each cut has two vertex masks,
    # and x01 <= 1 is met by the two cuts that cut 01
    g = Graph(4, [(0, 1), (2, 3)])
    rep = cut_facet_test(CutInequality(4, {(0, 1): 1}, 1), g)
    assert (rep.ambient_dim, rep.saturating_count, rep.saturating_affine_dim,
            rep.is_facet) == (2, 2, 1, True)
    # an isolated vertex adds no cut: x01 <= 1 is met once, at an end of the
    # segment CUT(G)
    rep = cut_facet_test(CutInequality(3, {(0, 1): 1}, 1), Graph(3, [(0, 1)]))
    assert (rep.saturating_count, rep.saturating_affine_dim, rep.is_facet) == (1, 0, True)


def _labelled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])


def _cycles(n):
    """Every cycle of K_n once, as its vertices from the least one, turning
    towards the smaller of its two neighbours."""
    for k in range(3, n + 1):
        for vs in itertools.combinations(range(n), k):
            for rest in itertools.permutations(vs[1:]):
                if rest[0] < rest[-1]:
                    yield (vs[0],) + rest


def _facet_reference(ineq, g):
    """(saturating count, affine dimension of the roots) by evaluating each
    distinct cut and ranking the roots with a leading 1, by Bareiss."""
    cuts = enumerate_cuts(g)
    values = [ineq.evaluate_cut(cv) for cv in cuts]
    assert max(values) <= ineq.bound
    roots = [(1,) + cv.bits for cv, v in zip(cuts, values) if v == ineq.bound]
    return len(roots), integer_rank(roots) - 1


@pytest.mark.parametrize("n, checks", [(3, 13), (4, 236), (5, 7744)])
def test_barahona_mahjoub_facets_on_every_small_graph(n, checks):
    # Barahona & Mahjoub (Math. Programming 36, 1986), on every labelled
    # graph with n vertices, disconnected ones included: -x_e <= 0 is a
    # facet of CUT(G) iff e lies in no triangle, and a cycle inequality with
    # one odd edge is one iff its cycle is chordless
    rng = random.Random(1986 + n)
    cycles = [(c, _cycle_edges(c)) for c in _cycles(n)]
    done = 0
    for g in _labelled_graphs(n):
        cases = []
        for i, j in g.sorted_edges:
            in_triangle = any((min(i, v), max(i, v)) in g.edges
                              and (min(j, v), max(j, v)) in g.edges for v in range(n))
            cases.append((CutInequality(n, {(i, j): -1}, 0), not in_triangle))
        for cycle, edges in cycles:
            if g.edges.issuperset(edges):
                chords = [e for e in g.edges if set(e) <= set(cycle) and e not in edges]
                cases.append((_cycle_inequality(n, cycle), not chords))
        for ineq, facet in cases:
            rep = cut_facet_test(ineq, g)
            assert rep.is_facet == facet, (g, ineq)
            if rng.random() < 0.05:
                assert (rep.saturating_count, rep.saturating_affine_dim) == \
                    _facet_reference(ineq, g)
        done += len(cases)
    assert done == checks


# ------------------------------------------------------------ pentagonal gap

def test_pentagonal_contextuality_form():
    ineq = pentagonal_contextuality_inequality()
    assert isinstance(ineq, CorrelatorInequality)
    assert ineq.bound == 2
    assert ineq.single_coeffs == (1, 1, 1, -1)
    b = (1, 1, 1, -1, -1)
    for i in range(4):
        for j in range(i + 1, 4):
            assert ineq.pair_coeffs[(i, j)] == -b[i] * b[j]


def test_pentagonal_deterministic_maximum_is_bound():
    ineq = pentagonal_contextuality_inequality()
    g = Graph.complete(4)
    best = max(ineq.evaluate_behaviour(NCBehaviour.deterministic(g, signs))
               for signs in itertools.product((-1, 1), repeat=4))
    assert best == 2


def test_pentagonal_report_matches_separate_computations():
    rep = pentagonal_report()
    ineq = pentagonal_contextuality_inequality()
    g = Graph.complete(4)
    best = max(ineq.evaluate_behaviour(NCBehaviour.deterministic(g, signs))
               for signs in itertools.product((-1, 1), repeat=4))
    assert rep["deterministic_max"] == best
    assert rep["valid_on_k5"] == hypermetric_valid(rep["hypermetric_b"], Graph.complete(5))
    assert rep["facet"] == cut_facet_test(CutInequality.hypermetric(rep["hypermetric_b"]),
                                          Graph.complete(5))
    assert (rep["inequality"], rep["cut_form"]) == (ineq, ineq.to_cut_form())


def test_pentagonal_to_cut_form_is_pentagonal():
    ineq = pentagonal_contextuality_inequality().to_cut_form()
    b = (1, 1, 1, -1, -1)
    assert ineq.n == 5
    # exactly twice the hypermetric coefficients b_i * b_j, bound 0
    for i in range(5):
        for j in range(i + 1, 5):
            assert ineq.edge_coeffs[(i, j)] == 2 * b[i] * b[j]
    assert ineq.bound == 0


def test_ce_gap_certificate_values():
    b = ce_gap_certificate()
    assert b.pairwise_positivity_min() == 0
    pent = pentagonal_contextuality_inequality()
    assert pent.evaluate_behaviour(b) == F(10, 3)
    assert max(ineq.evaluate_behaviour(b) for ineq in ce1_inequalities(4)) == 1


def test_ce_gap_report():
    rep = ce_gap_report()
    assert rep["positivity_min"] == F(0)
    assert rep["ce1_count"] == 16
    assert rep["ce1_max"] == F(1)
    assert rep["pentagonal_value"] == F(10, 3)
    assert rep["pentagonal_bound"] == F(2)


def test_ce_gap_report_is_plain_data():
    def plain(v):
        if isinstance(v, (tuple, list)):
            return all(map(plain, v))
        if isinstance(v, dict):
            return all(map(plain, v)) and all(map(plain, v.values()))
        return type(v) in (F, int, str)
    rep = ce_gap_report()
    assert plain(rep)
    beh = ce_gap_certificate()
    assert (rep["singles"], dict(rep["fulls"])) == (beh.singles, beh.fulls)


def test_ce_gap_grid_search_peak():
    value, s, t = ce_gap_grid_search(steps=12)
    assert (value, s, t) == (F(10, 3), F(1, 3), F(1, 3))


def test_ce_gap_grid_search_coarse_grid_below_peak():
    value, _, _ = ce_gap_grid_search(steps=4)
    assert value <= F(10, 3)
