"""Seeded soundness sweep of the game verdicts against the behaviour
reference.

Linear games with d <= 3 outputs and at most 4 inputs a side, some with an
input of zero weight (which the scan drops) and some carrying an NLC
construction, are drawn on a fixed seed. For each, `game_facet_test` on the
Bell and correlation polytopes must give the saturating count, affine
dimension and facet verdict of a full box scan (`box_values`), whose
affine dimension is the Bareiss rank of the saturating boxes' probability
vectors or correlator vectors. The decompositions must return a report
that the reference confirms, or say that their argument does not apply, or
exceed the budget; a VerificationError on valid input fails the sweep.
"""
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from bellpoly import (BudgetExceededError, DeterministicBox, LinearGame, NLCSpec, build_nlc2,
                      build_nlcd, game_facet_test, nlc2_decompose, nlcd_nonfacet_check,
                      ns_polytope_dimension)
from bellpoly.scenario import BellInequality
from tests.behaviour_reference import affine_dimension
from tests.classical_reference import box_values
from tests.test_facet_verdicts import bareiss_affine_rank

F = Fraction
BOX_LIMIT = 256  # d^(ma + mb): the reference ranks up to every box in pure Python
SWEEP = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                 suppress_health_check=[HealthCheck.too_slow])

weights = st.builds(F, st.integers(0, 3), st.sampled_from((1, 2, 3)))


@st.composite
def plain_games(draw, bits=st.sampled_from((True, False, False))):
    """A binary linear game on n = 2 input bits (4 inputs a side) when `bits`
    draws True, else one with 2 or 3 outputs on 1-4 inputs a side within the
    box limit; uniform weights a third of the time (as in CHSH), and one
    Alice or Bob input of zero weight half of the time."""
    n = 2 if draw(bits) else 1
    if n == 2:
        d, ma, mb = 2, 4, 4
    else:
        d = draw(st.sampled_from((2, 3)))
        ma = draw(st.integers(1, 4))
        mb = draw(st.integers(1, max(k for k in range(1, 5) if d ** (ma + k) <= BOX_LIMIT)))
    uniform = draw(st.sampled_from((True, False, False)))
    q = [[F(1) if uniform else draw(weights) for _ in range(mb)] for _ in range(ma)]
    zero = draw(st.sampled_from((None, None, "alice", "bob")))
    if zero == "alice":
        q[draw(st.integers(0, ma - 1))] = [F(0)] * mb
    elif zero == "bob":
        y = draw(st.integers(0, mb - 1))
        for row in q:
            row[y] = F(0)
    f = [[draw(st.integers(0, d - 1)) for _ in range(mb)] for _ in range(ma)]
    return LinearGame(d, ma, mb, q, f, n=n)


@st.composite
def nlc_games(draw):
    """A binary NLC game on n = 2 input bits: a full table (`build_nlc2`) or
    a product form (`build_nlcd`), with a distribution that may vanish."""
    size = draw(st.sampled_from((4, 2)))
    g = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    raw = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    assume(sum(raw))
    spec = NLCSpec(2, 2, g, [F(v, sum(raw)) for v in raw])
    return build_nlc2(spec) if size == 4 else build_nlcd(spec)


games = st.one_of(plain_games(), plain_games(), nlc_games())
decomposable = st.one_of(plain_games(bits=st.just(True)), nlc_games())
# CHSH, a Bell facet that random weights seldom give, and a weighted CHSH,
# which is not one
CHSH = LinearGame(2, 2, 2, ((1, 1), (1, 1)), ((0, 0), (0, 1)))
WEIGHTED_CHSH = LinearGame(2, 2, 2, ((F(9, 20), F(5, 20)), (F(5, 20), F(1, 20))),
                           ((0, 0), (0, 1)))


def correlators(box):
    s = box.scenario
    return [1 if box.a_map[x] == box.b_map[y] else -1 for x in range(s.ma) for y in range(s.mb)]


def saturating(ineq):
    """The boxes of largest value of ineq's functional (its bound aside),
    scored box by box, and that value."""
    s = ineq.scenario
    V, den, A, B = box_values(BellInequality(s, ineq.coeffs, F(1)))  # den: bound 1, scaled
    flat = V.ravel().tolist()
    top = max(flat)
    hits = [DeterministicBox(s, tuple(A[k // len(B)].tolist()), tuple(B[k % len(B)].tolist()))
            for k, v in enumerate(flat) if v == top]
    return hits, F(top, den)


def win_functional(g):
    """g's win functional q(x, y) [(a + b) mod d == f(x, y)], bound 0."""
    return BellInequality(g.scenario, tuple(
        tuple(tuple(tuple(g.q[x][y] if (a + b) % g.d == g.f[x][y] else F(0)
                          for b in range(g.d)) for a in range(g.d))
              for y in range(g.mb)) for x in range(g.ma)), F(0))


def reference_face(g, kind, hits):
    """(saturating count, affine dimension, is_facet) on the `kind` polytope."""
    if kind == "bell":
        ambient = ns_polytope_dimension(g.scenario)
        dim = affine_dimension(hits, rank=bareiss_affine_rank)
    else:
        ambient = g.ma * g.mb
        dim = bareiss_affine_rank([correlators(box) for box in hits])
    return len(hits), dim, dim == ambient - 1


def face(rep):
    return rep.saturating_count, rep.saturating_affine_dim, rep.is_facet


@SWEEP
@given(games)
@example(CHSH)
@example(WEIGHTED_CHSH)
def test_game_verdicts_match_the_box_reference(g):
    hits, value = saturating(win_functional(g))
    for kind in ("bell", "correlation") if g.d == 2 else ("bell",):
        rep, bound = game_facet_test(g, kind)
        assert face(rep) == reference_face(g, kind, hits)
        assert bound == (value if kind == "bell" else value - sum(map(sum, g.q), F(0)) / 2)


def decompositions(g):
    """The decompositions defined on a binary game on n = 2 bits: the
    first-bit split, and the product-form split of a product form."""
    if g.nlc is not None and g.nlc.is_product_form:
        return nlc2_decompose, nlcd_nonfacet_check
    return (nlc2_decompose,)


@SWEEP
@given(decomposable)
def test_decompositions_are_sound(g):
    game = win_functional(g)
    hits, value = saturating(game)
    for run in decompositions(g):
        try:
            rep = run(g)
        except BudgetExceededError:
            continue
        except ValueError as exc:
            assert "does not apply" in str(exc)
            continue
        assert not rep.is_facet
        assert face(rep) == reference_face(g, "bell", hits)
        # the certificate: valid fragments, each meeting its bound, that add
        # up to the game's functional and value, with faces not all equal
        # whose intersection is the game's face
        faces = []
        for fragment in rep.decomposition:
            frag_hits, top = saturating(fragment)
            assert top == fragment.bound
            faces.append(set(frag_hits))
        total = sum(np.array(fr.coeffs, dtype=object) for fr in rep.decomposition)
        assert total.tolist() == np.array(game.coeffs, dtype=object).tolist()
        assert sum(fr.bound for fr in rep.decomposition) == value
        assert len(faces) > 1 and any(f != faces[0] for f in faces)
        assert set.intersection(*faces) == set(hits)


def test_the_sweep_draws_every_kind_of_game():
    seen = set()

    @SWEEP
    @given(games)
    def draw(g):
        zero_x = any(not any(row) for row in g.q)
        zero_y = any(not any(col) for col in zip(*g.q))
        seen.add((g.d, g.n, g.nlc is not None, zero_x or zero_y))
    draw()
    assert {(2, 1, False, True), (3, 1, False, True), (2, 2, False, True),
            (2, 2, True, False), (2, 1, False, False), (3, 1, False, False)} <= seen
