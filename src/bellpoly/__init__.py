"""Nonlocal games, exact polytope facet tests, and cut-polytope
contextuality, with norm-based quantum upper bounds.

Everything decision-grade is exact (fractions and integer linear algebra);
floating point appears only in spectral norms and numeric cross-checks, and
every float-derived claim is re-verified against an exact recomputation
where one exists.

`import bellpoly` loads no submodule. Each exported name is looked up in
its submodule on first use (PEP 562 `__getattr__`), so `from bellpoly
import WeightedCHSH` loads `bellpoly.chsh` alone, and numpy is imported
only by the submodules that compute with arrays (`exactrank`, `scenario`,
`games`, `values`, `tightness`, and the cut scan and cut facet test when
they run).
"""

import importlib

__version__ = "0.1.0"

# every exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "errors": ("DEFAULT_BOX_BUDGET", "BudgetExceededError", "ParseError", "VerificationError"),
    "rational": ("format_rational", "parse_rational"),
    "exactrank": ("affine_rank", "integer_rank"),
    "scenario": ("BellInequality", "DeterministicBox", "Scenario", "correlator_inequality",
                 "ns_polytope_dimension"),
    "games": ("PERMS", "REFLECTIONS", "ROTATIONS", "LinearGame", "NLCSpec", "UniqueGame3",
              "build_nlc", "build_nlc2", "build_nlcd", "dits_to_index", "ditwise_add",
              "fourier_blocks", "input_dits", "subgame_restrict", "to_bell_inequality",
              "to_correlator_inequality"),
    "values": ("ClassicalValue", "NoAdvantageVerdict", "NormBound", "ValueReport",
               "classical_value", "gen_norm_detailed", "norm_bound", "norm_bound_linear",
               "ns_value", "spectral_norm", "strategy_value", "sufficient_no_advantage",
               "value_report", "verify_value_report"),
    "tightness": ("FacetReport", "LambdaProfile", "facet_test", "game_facet_test",
                  "hadamard_diagonal_check", "nlc2_block_symmetry", "nlc2_decompose",
                  "nlcd_classical_formula", "nlcd_lambda", "nlcd_nonfacet_check",
                  "saturating_boxes"),
    "chsh": ("FaceVerdict", "SigmaLambdaCertificate", "WeightedCHSH", "canonicalize",
             "face_condition", "from_weights", "qubit_value_estimate",
             "sigma_lambda_certificate"),
    "cut": ("CorrelatorInequality", "CutInequality", "CutVector", "Graph", "NCBehaviour",
            "OrthogonalSetCensus", "behaviour_to_cut", "ce1_inequalities", "ce_gap_report",
            "cut_facet_test", "enumerate_cuts", "hypermetric_valid", "maximal_orthogonal_sets",
            "pentagonal_contextuality_inequality", "pentagonal_report", "suspension"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
