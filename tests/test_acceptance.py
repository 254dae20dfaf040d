"""End-to-end acceptance checks, one test (one pass/fail line) per criterion.

Each criterion runs under a wall-clock budget measured with a monotonic
clock; exceeding the budget fails the test even if every assertion holds.
Randomized suites run on fixed seeds so the outcome is reproducible.
"""
import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from bellpoly.chsh import (
    WeightedCHSH,
    face_condition,
    qubit_value_estimate,
    sigma_lambda_certificate,
)
from bellpoly.cut import (
    CutInequality,
    Graph,
    NCBehaviour,
    behaviour_to_cut,
    ce1_inequalities,
    ce_gap_report,
    cut_facet_test,
    enumerate_cuts,
    hypermetric_valid,
    maximal_orthogonal_sets,
    suspension,
)
from bellpoly.games import (
    NLCSpec,
    build_nlc2,
    build_nlcd,
    to_bell_inequality,
    to_correlator_inequality,
)
from bellpoly.tightness import (
    facet_test,
    hadamard_diagonal_check,
    nlc2_block_symmetry,
    nlc2_decompose,
    nlcd_classical_formula,
    nlcd_lambda,
    nlcd_nonfacet_check,
)
from bellpoly.values import (
    classical_value,
    norm_bound_linear,
    strategy_value,
    sufficient_no_advantage,
    value_report,
    verify_value_report,
)
from bellpoly import cli
from tests.conftest import (
    LAMBDA_PROFILES,
    make_corpus,
    make_nlc2_and,
    make_nlc3_game,
    make_phi_ex_game,
)

F = Fraction


@contextmanager
def runtime_budget(criterion: int, seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, (
        f"criterion {criterion}: FAIL, runtime {elapsed:.2f}s exceeds "
        f"the {seconds:g}s budget")
    print(f"criterion {criterion}: PASS ({elapsed:.2f}s < {seconds:g}s)")


def complete_graph(n):
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def test_criterion_01_ternary_game_values():
    with runtime_budget(1, 1.0):
        g = make_nlc3_game()
        assert classical_value(g).value == F(2, 3)
        bound = norm_bound_linear(g)
        assert abs(bound - (1 + 2 * math.sqrt(3) / 3) / 3) <= 1e-9
        assert bound > 2 / 3


def test_criterion_02_quaternary_no_advantage():
    with runtime_budget(2, 5.0):
        g = make_phi_ex_game()
        verdict = sufficient_no_advantage(g)
        assert verdict.holds
        wc = classical_value(g).value
        assert strategy_value(g, (1, 3, 0, 2), (3, 1, 0, 2)) == wc
        assert abs(float(wc) - norm_bound_linear(g)) <= 1e-9


def test_criterion_03_binary_and_game_decomposition():
    with runtime_budget(3, 10.0):
        g = make_nlc2_and()
        assert classical_value(g).value == F(3, 4)
        rep = nlc2_decompose(g)
        assert not rep.is_facet
        assert tuple(frag.bound for frag in rep.decomposition) == (F(3, 8), F(3, 8))
        bell = facet_test(to_bell_inequality(g), "bell")
        assert not bell.is_facet and bell.ambient_dim == 24
        corr = facet_test(to_correlator_inequality(g), "correlation")
        assert not corr.is_facet and corr.ambient_dim == 16


def test_criterion_04_hadamard_block_suite():
    with runtime_budget(4, 30.0):
        rng = random.Random(1004)
        for _ in range(100):
            n = rng.choice([2, 3])
            table = tuple(rng.randint(0, 1) for _ in range(2 ** n))
            raw = [rng.randint(1, 64) for _ in range(2 ** n)]
            p = tuple(F(v, sum(raw)) for v in raw)
            g = build_nlc2(NLCSpec(2, n, table, p))
            for j in (0, 1):
                for k in (0, 1):
                    assert hadamard_diagonal_check(g, j, k, tol=1e-12)
            assert nlc2_block_symmetry(g)


def test_criterion_05_ternary_formula_and_fragments():
    with runtime_budget(5, 60.0):
        seen = set()
        for table, p, lam, _ in LAMBDA_PROFILES:
            g = build_nlcd(NLCSpec(3, 2, table, p))
            prof = nlcd_lambda(g)
            assert prof.big_lambda == lam
            seen.add(lam)
            wc = classical_value(g).value
            assert nlcd_classical_formula(g) == wc
            if lam >= F(1, 2):
                rep = nlcd_nonfacet_check(g)
                assert not rep.is_facet
                assert len(rep.decomposition) == 3
                # each fragment carries exactly a 1/d share of the value
                assert all(frag.bound == wc / 3 for frag in rep.decomposition)
        assert seen == {F(1, 3), F(1, 2), F(2, 3), F(1)}


def test_criterion_06_weighted_chsh_certificates():
    with runtime_budget(6, 300.0):
        uniform = WeightedCHSH((F(1, 4),) * 4)
        assert face_condition(uniform).verdict == "QuantumViolation"
        assert abs(qubit_value_estimate(uniform) - (2 + math.sqrt(2)) / 4) <= 1e-4

        weighted = WeightedCHSH((F(9, 20), F(5, 20), F(5, 20), F(1, 20)))
        assert face_condition(weighted).verdict == "NontrivialFace"
        assert qubit_value_estimate(weighted) <= F(19, 20) + 1e-4

        rng = random.Random(1006)
        checked = indefinite = 0
        for _ in range(1000):
            while True:
                den = rng.randint(8, 64)
                raw = sorted((rng.randint(0, den) for _ in range(4)), reverse=True)
                if sum(raw) > 0:
                    break
            w = WeightedCHSH(tuple(F(v, sum(raw)) for v in raw))
            cert = sigma_lambda_certificate(w)
            if cert.verdict == "indefinite":
                # singular scaling: no certificate verdict, exact decision governs
                indefinite += 1
                continue
            exact_no_advantage = face_condition(w).verdict != "QuantumViolation"
            assert exact_no_advantage == (abs(cert.rho - 1) <= 1e-8)
            assert exact_no_advantage == (cert.verdict == "no-advantage")
            checked += 1
        assert checked == 928 and indefinite == 72


def test_criterion_07_cut_correspondence_and_census():
    with runtime_budget(7, 30.0):
        for n in range(3, 7):
            base = complete_graph(n)
            images = {behaviour_to_cut(NCBehaviour.deterministic(base, bits))
                      for bits in itertools.product((1, -1), repeat=n)}
            assert len(images) == 2 ** n
            assert images == set(enumerate_cuts(suspension(base)))
            assert len(ce1_inequalities(n)) == 4 * math.comb(n, 3)
        for n in (3, 4):
            census = maximal_orthogonal_sets(n)
            assert len(census.normalization) == math.comb(n, 2)
            assert len(census.protocol) == n * (n - 1) * (n - 2)
            assert len(census.triples) == 8 * math.comb(n, 3)


def test_criterion_08_pentagonal_facet_and_exclusivity_gap():
    with runtime_budget(8, 1.0):
        pent = CutInequality.hypermetric((1, 1, 1, -1, -1))
        k5 = complete_graph(5)
        values = [pent.evaluate_cut(cv) for cv in enumerate_cuts(k5)]
        assert len(values) == 16 and max(values) == 0
        rep = cut_facet_test(pent, k5)
        assert rep.is_facet
        assert rep.ambient_dim == 10 and rep.saturating_affine_dim == 9
        gap = ce_gap_report()
        assert gap["positivity_min"] == 0
        assert gap["ce1_count"] == 16 and gap["ce1_max"] == 1
        assert gap["pentagonal_value"] == F(10, 3)
        assert gap["pentagonal_value"] > gap["pentagonal_bound"] == 2


def test_criterion_09_hypermetric_family():
    with runtime_budget(9, 10.0):
        for n in range(5, 9):
            g = complete_graph(n)
            assert len(enumerate_cuts(g)) == 2 ** (n - 1)
            assert hypermetric_valid((1,) * (n - 2) + (-1, 4 - n), g)


def test_criterion_10_global_soundness_sweep(tmp_path, capsys, monkeypatch):
    with runtime_budget(10, 300.0):
        for g in make_corpus():
            rep = value_report(g)
            verify_value_report(rep)
            assert float(rep.classical) <= rep.quantum_upper_bound + 1e-9
            assert rep.quantum_upper_bound <= float(rep.no_signaling) + 1e-9
            assert rep.no_signaling == g.total_weight
        # a doctored bound must surface as exit code 4, not a silent report
        import bellpoly.values as values_module
        monkeypatch.setattr(values_module, "_linear_bound", lambda g, norms: 0.1)
        path = tmp_path / "game.json"
        path.write_text(cli.serialize_game(make_nlc3_game()))
        code = cli.main(["analyze-game", str(path)])
        capsys.readouterr()
        assert code == 4
