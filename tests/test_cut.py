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
    _maximal_cliques,
    behaviour_to_cut,
    ce1_from_triple_set,
    ce1_inequalities,
    ce_gap_certificate,
    ce_gap_grid_search,
    ce_gap_report,
    cut_facet_test,
    cut_to_behaviour,
    enumerate_cuts,
    hypermetric_valid,
    maximal_orthogonal_sets,
    pentagonal_contextuality_inequality,
    pentagonal_report,
    suspension,
)

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
    assert k4.is_complete
    assert len(k4.sorted_edges) == 6
    assert not Graph(3, [(0, 1)]).is_complete


def test_suspension_adds_apex_last():
    p3 = Graph(3, [(0, 1), (1, 2)])
    s = suspension(p3)
    assert s.n == 4
    assert set(s.sorted_edges) == {(0, 1), (1, 2), (0, 3), (1, 3), (2, 3)}
    assert suspension(Graph.complete(4)).is_complete


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
    assert all(type(b) is int for cv in cuts for b in cv.bits)
    assert all(CutVector(g, cv.subset).bits == cv.bits for cv in cuts)


def test_cut_vector_bits_on_a_graph_beyond_int64_bitmasks():
    g = Graph(70, [(0, 69), (1, 2), (5, 66), (66, 69)])
    for subset in ({69, 1}, {2}, {0, 66}, set(range(70))):
        cv = CutVector(g, subset)
        assert cv.bits == tuple(int((i in cv.subset) != (j in cv.subset))
                                for i, j in g.sorted_edges)
        assert all(type(b) is int for b in cv.bits)


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


def test_from_bits_round_trip():
    g = Graph.complete(4)
    for cv in enumerate_cuts(g):
        assert CutVector.from_bits(g, cv.bits) == cv


def test_from_bits_rejects_non_cut():
    with pytest.raises((VerificationError, ValueError)):
        CutVector.from_bits(Graph.complete(3), (1, 0, 0))


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
        found = [frozenset(c) for c in _maximal_cliques(adj)]
        assert len(found) == len(set(found))
        assert set(found) == _brute_force_maximal_cliques(adj)


def test_census_size_bounds():
    for n in (2, 7):
        with pytest.raises(BudgetExceededError):
            maximal_orthogonal_sets(n)


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
    from bellpoly.cut import _orthogonal
    assert _orthogonal(Event(0, 1, 1, 1), Event(0, 1, 1, -1))
    assert _orthogonal(Event(0, 1, 1, 1), Event(0, 2, -1, 1))
    assert not _orthogonal(Event(0, 1, 1, 1), Event(0, 2, 1, 1))
    assert not _orthogonal(Event(0, 1, 1, 1), Event(2, 3, 1, 1))


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


def test_facet_test_requires_complete_graph():
    ineq = CutInequality.hypermetric((1, 1, -1))
    with pytest.raises(ValueError):
        cut_facet_test(ineq, Graph(3, [(0, 1)]))


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
