"""Nonlocal games, exact polytope facet tests, and cut-polytope
contextuality, with norm-based quantum upper bounds.

Everything decision-grade is exact (fractions and integer linear algebra);
floating point appears only in spectral norms and numeric cross-checks, and
every float-derived claim is re-verified against an exact recomputation
where one exists.
"""

__version__ = "0.1.0"

from .errors import BudgetExceededError, ParseError, VerificationError
from .rational import format_rational, parse_rational
from .exactrank import affine_rank, integer_rank, matrix_rank_exact
from .scenario import (
    DEFAULT_BOX_BUDGET,
    Behaviour,
    BellInequality,
    DeterministicBox,
    Scenario,
    affine_dimension,
    behaviour_from_box,
    correlator_inequality,
    enumerate_deterministic_boxes,
    evaluate,
    is_no_signaling,
    mix,
    ns_polytope_dimension,
)
from .games import (
    PERMS,
    REFLECTIONS,
    ROTATIONS,
    LinearGame,
    NLCSpec,
    UniqueGame3,
    build_nlc,
    build_nlc2,
    build_nlcd,
    dits_to_index,
    ditwise_add,
    fourier_blocks,
    input_dits,
    subgame_restrict,
    to_bell_inequality,
    to_correlator_inequality,
)
from .values import (
    ClassicalValue,
    NoAdvantageVerdict,
    NormBound,
    ValueReport,
    classical_value,
    gen_norm_detailed,
    norm_bound,
    norm_bound_linear,
    ns_value,
    spectral_norm,
    strategy_value,
    sufficient_no_advantage,
    value_report,
    verify_value_report,
)
from .tightness import (
    FacetReport,
    LambdaProfile,
    facet_test,
    game_facet_test,
    hadamard_diagonal_check,
    nlc2_block_symmetry,
    nlc2_decompose,
    nlcd_classical_formula,
    nlcd_lambda,
    nlcd_nonfacet_check,
    saturating_boxes,
)
from .chsh import (
    FaceVerdict,
    SigmaLambdaCertificate,
    WeightedCHSH,
    canonicalize,
    face_condition,
    qubit_value_estimate,
    relabel_images,
    sigma_lambda_certificate,
)
from .cut import (
    CorrelatorInequality,
    CutInequality,
    CutVector,
    Graph,
    NCBehaviour,
    OrthogonalSetCensus,
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

__all__ = [name for name in dir() if not name.startswith("_")]
