import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from bellpoly import VerificationError
from bellpoly.chsh import (
    WeightedCHSH,
    canonicalize,
    face_condition,
    from_weights,
    qubit_value_estimate,
    sigma_lambda_certificate,
)
from tests.chsh_reference import canonicalize_by_images, relabel_images
from tests.qubit_reference import grid_estimate
from tests.sigma_lambda_reference import eigvals_rho

F = Fraction

UNIFORM = WeightedCHSH((F(1, 4),) * 4)
WEIGHTED = WeightedCHSH((F(9, 20), F(5, 20), F(5, 20), F(1, 20)))


# -------------------------------------------------------------- canonical form

def test_canonicalize_uniform():
    w = canonicalize(["1/4", "1/4", "1/4", "-1/4"])
    assert w.p == (F(1, 4),) * 4
    assert w.sign_cell == (1, 1)
    assert not w.trivial_even


def test_canonicalize_global_flip_same_class():
    w = canonicalize(["-1/4", "-1/4", "-1/4", "1/4"])
    assert w == canonicalize(["1/4", "1/4", "1/4", "-1/4"])


def test_canonicalize_normalizes_scale():
    w = canonicalize(["1", "1", "1", "-1"])
    assert w.p == (F(1, 4),) * 4


def test_canonicalize_all_positive_is_trivial_even():
    w = canonicalize(["1/4", "1/4", "1/4", "1/4"])
    assert w.trivial_even
    assert w.sign_cell is None


def test_canonicalize_two_negatives_is_even():
    w = canonicalize(["1/4", "-1/4", "-1/4", "1/4"])
    assert w.trivial_even


def test_canonicalize_zero_cell_counts_as_even():
    # a zero coefficient can absorb the sign, so the class is product-form
    w = canonicalize(["1/2", "1/4", "-1/4", "0"])
    assert w.trivial_even


def test_canonicalize_rejects_zero_vector():
    with pytest.raises(ValueError):
        canonicalize(["0", "0", "0", "0"])


def test_canonical_weights_put_minimum_last():
    w = canonicalize(["1/10", "-1/10", "3/10", "5/10"])
    assert w.p[3] == min(w.p)
    assert sum(w.p) == 1


def test_weighted_chsh_validation():
    with pytest.raises(ValueError):
        WeightedCHSH((F(1, 2), F(1, 4), F(1, 8), F(1, 8) - 1))  # negative
    with pytest.raises(ValueError):
        WeightedCHSH((F(1, 2), F(1, 4), F(1, 8), F(1, 16)))  # sum != 1
    with pytest.raises(ValueError):
        WeightedCHSH((F(1, 8), F(1, 4), F(1, 8), F(1, 2)))  # min not last


def test_relabel_group_size():
    images = relabel_images(((F(1), F(2)), (F(3), F(-4))))
    # orbit of a generic matrix under the signed relabeling group
    assert len(images) == 64
    assert len(set(images)) == len(images)


def test_recanonicalizing_any_image_is_stable():
    base = ((F(9, 20), F(5, 20)), (F(5, 20), F(-1, 20)))
    want = canonicalize([v for row in base for v in row])
    for img in relabel_images(base):
        again = canonicalize([v for row in img for v in row])
        assert again == want


def test_canonicalize_matches_the_image_search_on_small_integers():
    vectors = [v for v in itertools.product(range(-3, 4), repeat=4) if any(v)]
    assert len(vectors) == 2400
    for v in vectors:
        assert canonicalize(v) == canonicalize_by_images(v), v


def test_canonicalize_matches_the_image_search_on_seeded_rationals():
    # magnitudes drawn from a pool of five, so about half the vectors have
    # a tie, and a zero in about one vector in five; the small integers above
    # all have a zero or a tie
    rng = random.Random(1607)
    checked = zeros = ties = 0
    while checked < 5000:
        den = rng.randint(1, 60)
        pool = [F(rng.randint(1, 3 * den), den) for _ in range(5)]
        v = [rng.choice((1, -1)) * rng.choice(pool) for _ in range(4)]
        if rng.random() < 0.2:
            v[rng.randrange(4)] = F(0)
        zeros += 0 in v
        ties += len(set(map(abs, v))) < 4
        assert canonicalize(v) == canonicalize_by_images(v), v
        checked += 1
    assert zeros > 900 and ties > 2000 and checked - ties > 1000


def test_canonicalize_keeps_the_argument_errors():
    with pytest.raises(ValueError, match="four coefficients"):
        canonicalize(["1", "-1", "1"])
    with pytest.raises(ValueError, match="coefficient: bad rational"):
        canonicalize(["1", "-1", "1", "x"])


def test_the_image_search_is_a_test_reference():
    import bellpoly
    import bellpoly.chsh
    assert "relabel_images" not in bellpoly.__all__
    assert not {"relabel_images", "itertools"} & set(vars(bellpoly.chsh))


def test_from_weights_reads_nonnegative_weights_as_the_canonical_form():
    assert from_weights([F(1), F(5), F(5), F(9)]) == WEIGHTED
    assert from_weights([0, 0, 0, 4]) == WeightedCHSH((F(1), F(0), F(0), F(0)))
    with pytest.raises(ValueError, match="weights cannot all be zero"):
        from_weights([F(0)] * 4)


def test_from_weights_canonicalizes_signed_coefficients():
    signed = [F(2, 10), F(3, 10), F(4, 10), F(-1, 10)]
    assert from_weights(signed) == canonicalize(signed)
    assert from_weights([F(-1), F(-1), F(-1), F(1)]) == UNIFORM


# -------------------------------------------------------------- face condition

def test_uniform_is_quantum_violation():
    v = face_condition(UNIFORM)
    assert v.verdict == "QuantumViolation"
    assert v.lhs == F(1, 64)
    assert v.rhs == F(0)
    assert v.classical_game_value == F(3, 4)
    assert v.correlator_bound == F(1, 2)


def test_weighted_face_holds():
    v = face_condition(WEIGHTED)
    assert v.verdict == "NontrivialFace"
    assert v.lhs == F(289, 40000)
    assert v.rhs == F(49, 2500)
    assert v.lhs <= v.rhs
    assert v.classical_game_value == F(19, 20)
    assert not v.algebraically_trivial


def test_zero_minimum_face_is_algebraically_trivial():
    v = face_condition(WeightedCHSH((F(1, 3), F(1, 3), F(1, 3), F(0))))
    assert v.verdict == "NontrivialFace"
    assert v.algebraically_trivial
    assert v.classical_game_value == F(1)


def test_tied_minimum_forces_trivial():
    v = face_condition(WeightedCHSH((F(1, 2), F(1, 2), F(0), F(0))))
    assert v.verdict == "Trivial"


def test_trivial_even_class_short_circuits():
    w = canonicalize(["1/4", "1/4", "1/4", "1/4"])
    v = face_condition(w)
    assert v.verdict == "Trivial"
    assert v.classical_game_value == F(1)
    assert v.lhs is None and v.rhs is None


def test_correlator_bound_identity():
    for w in (UNIFORM, WEIGHTED):
        v = face_condition(w)
        assert v.correlator_bound == 2 * v.classical_game_value - 1
        assert v.correlator_bound == 1 - 2 * w.p[3]


def test_face_verdict_relabel_invariant():
    base = ((F(2, 10), F(3, 10)), (F(4, 10), F(-1, 10)))
    verdicts = set()
    for img in relabel_images(base):
        w = canonicalize([v for row in img for v in row])
        verdicts.add(face_condition(w).verdict)
    assert len(verdicts) == 1


def test_boundary_equality_counts_as_face():
    # p = (1/2, 1/4, 1/4, 0): lhs = (1/16)^2 = 1/256,
    # rhs = (3/4)(3/4)(1/4)(1/4) = 9/256, holds strictly; scale p2 to find
    # an exact boundary case instead: p = (a, a, a, a') solved for equality
    # is the uniform violation, so use the analytic family (t, t, 1/2 - t, 0).
    w = WeightedCHSH((F(1, 2), F(1, 4), F(1, 4), F(0)))
    v = face_condition(w)
    assert v.verdict == "NontrivialFace"


def test_supporting_tie_with_nonzero_weights_is_a_verification_failure():
    # weights outside the canonical (nonnegative) range reach the tie branch
    # with lhs == rhs == 9 and p4 == p1 == -2; the check must raise, not
    # rely on an assert that python -O strips
    w = SimpleNamespace(p=(F(-2), F(1), F(-1), F(-2)), trivial_even=False)
    with pytest.raises(VerificationError, match="-2"):
        face_condition(w)


# ----------------------------------------------------- sigma/lambda certificate

def test_uniform_certificate_indefinite():
    cert = sigma_lambda_certificate(UNIFORM)
    assert cert.verdict == "indefinite"
    assert math.isinf(cert.rho)


def test_weighted_certificate_no_advantage():
    cert = sigma_lambda_certificate(WEIGHTED)
    assert cert.verdict == "no-advantage"
    assert abs(cert.rho - 1) <= cert.tolerance
    assert cert.sigma == (0.7, 0.2)  # diagonal entries (p1+p2, p3-p4)
    assert cert.lambda_ == (0.7, 0.2)
    assert cert.phi == ((0.45, 0.25), (0.25, -0.05))


def test_violation_certificate_shows_advantage():
    w = canonicalize(["2/10", "3/10", "4/10", "-1/10"])
    assert face_condition(w).verdict == "QuantumViolation"
    cert = sigma_lambda_certificate(w)
    assert cert.verdict == "advantage"
    assert cert.rho > 1 + cert.tolerance


def test_p2_equals_p4_is_singular():
    # p2 == p4 makes Lambda singular
    w = WeightedCHSH((F(2, 5), F(1, 5), F(1, 5), F(1, 5)))
    cert = sigma_lambda_certificate(w)
    assert cert.verdict == "indefinite"


def test_certificate_rejects_trivial_even():
    w = canonicalize(["1/4", "1/4", "1/4", "1/4"])
    with pytest.raises(ValueError):
        sigma_lambda_certificate(w)


def test_certificate_agrees_with_face_on_random_weights():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(120):
        raw = sorted((rng.randint(1, 60) for _ in range(4)), reverse=True)
        total = sum(raw)
        w = WeightedCHSH(tuple(F(v, total) for v in raw))
        cert = sigma_lambda_certificate(w)
        if cert.verdict == "indefinite":
            continue
        face_holds = face_condition(w).verdict == "NontrivialFace"
        assert face_holds == (abs(cert.rho - 1) <= 1e-8)
        checked += 1
    assert checked > 60


def test_closed_form_rho_matches_the_eigenvalue_reference():
    # the reference is the numpy eigenvalue computation the closed form replaced
    rng = random.Random(16)
    checked = 0
    while checked < 2000:
        den = rng.randint(8, 64)
        raw = sorted((rng.randint(0, den) for _ in range(4)), reverse=True)
        if sum(raw) == 0:
            continue
        w = WeightedCHSH(tuple(F(v, sum(raw)) for v in raw))
        cert = sigma_lambda_certificate(w)
        if cert.verdict == "indefinite":
            continue
        reference = eigvals_rho(tuple(float(v) for v in w.p))
        assert abs(cert.rho - reference) <= 1e-12, w.p
        no_advantage = face_condition(w).verdict != "QuantumViolation"
        assert (abs(reference - 1) <= cert.tolerance) == no_advantage, w.p
        assert (cert.verdict == "no-advantage") == no_advantage, w.p
        checked += 1


def test_double_eigenvalue_on_the_face_boundary():
    # det m = 1: both eigenvalues of m are 1 and the face condition holds
    # with equality; a square root of the zero discriminant would be off by
    # about 1e-8
    w = WeightedCHSH((F(1, 2), F(1, 4), F(1, 6), F(1, 12)))
    verdict = face_condition(w)
    assert verdict.lhs == verdict.rhs and verdict.verdict == "NontrivialFace"
    cert = sigma_lambda_certificate(w)
    assert cert.verdict == "no-advantage"
    assert abs(cert.rho - 1) <= 1e-15


# ----------------------------------------------------------------- qubit oracle

def test_qubit_uniform_reaches_tsirelson():
    got = qubit_value_estimate(UNIFORM)
    assert abs(got - (2 + math.sqrt(2)) / 4) < 1e-4


def test_qubit_weighted_never_beats_classical():
    got = qubit_value_estimate(WEIGHTED)
    assert got <= 19 / 20 + 1e-4
    assert abs(got - 0.95) < 1e-4


def test_qubit_trivial_class_wins_outright():
    w = canonicalize(["1/4", "1/4", "1/4", "1/4"])
    assert qubit_value_estimate(w) == 1.0


def test_qubit_exceeds_classical_iff_violation():
    v = qubit_value_estimate(UNIFORM)
    assert v > float(face_condition(UNIFORM).classical_game_value) + 1e-6


def test_qubit_closed_form_matches_the_grid_search():
    # seeded canonical weights, about a third with zero weights
    rng = random.Random(1607)
    zeros = 0
    for _ in range(1200):
        raw = [0 if rng.random() < 0.1 else rng.randint(1, 60) for _ in range(4)]
        if sum(raw) == 0:
            continue
        raw.sort(reverse=True)
        first = raw[:3]
        rng.shuffle(first)
        w = WeightedCHSH(tuple(F(v, sum(raw)) for v in first + raw[3:]))
        zeros += 0 in raw
        ref = grid_estimate(tuple(float(v) for v in w.p))
        assert abs(qubit_value_estimate(w) - ref) <= 1e-12
    assert zeros > 300

