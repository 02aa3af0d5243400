"""Exact arithmetic for lacunary power series: continued-fraction
expansion over the Laurent field, closed-form convergent denominators
indexed by 2-adic integers, the extended Stern-Brocot sequence, and
finite automata for the mod-2 coefficient streams."""

from .rings import (
    NEG_INF,
    NotReducibleError,
    SeriesPrecisionError,
    SparsePoly,
    gf2_mul,
    poly_from_json,
    poly_to_json,
    reduce_mod2,
)
from .bits import (
    EpsilonSpec,
    LambdaRangeError,
    LambdaSpec,
    binom_parity,
    count_10_blocks,
    dominates,
    parse_epsilon_spec,
    parse_lambda_spec,
    term_exponent,
    term_sign,
)
from .dyadic import (
    Dyadic,
    NotTwoAdicError,
    OpaqueStreamError,
    StreamDepthError,
    binom_parity_dyadic,
    digit_pair_period,
    halfsum_binom,
    kernel_range,
    kernel_value,
    parse_omega,
)
from .periodic import InsufficientDataError, detect_ultimate_period
from .contfrac import (
    ContinuedFraction,
    Convergents,
    LaurentSeries,
    build_F,
    cf_expand,
    convergent_side,
    convergents,
    fold_expand,
    phi_oracle,
)
from .stern import (
    alpha,
    beta,
    carlitz_range,
    fold_v,
    fold_w,
    fold_z,
    gamma,
    parity_convolve,
    stern_carlitz,
    stern_range,
    stern_u,
    stern_v,
    thue_morse,
)
from .qseries import (
    ANumber,
    a_number,
    chebyshev_u_scaled,
    fibonacci_poly,
    is_polynomial,
    morgan_voyce,
    pell_check_mod2,
    q_omega_window,
    q_poly,
    q_support_flags,
    q_term_count_range,
)
from .automaton import (
    Dfao,
    OrbitError,
    Relation,
    build_dfao,
    find_algebraic_relation,
    minimize,
    orbit,
    signed_dfao,
    verify_relation,
)
from .oeis import CheckReport, check_oeis, parse_bfile
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "NEG_INF", "NotReducibleError", "SeriesPrecisionError", "SparsePoly",
    "gf2_mul", "poly_from_json", "poly_to_json", "reduce_mod2",
    "EpsilonSpec", "LambdaRangeError", "LambdaSpec", "binom_parity",
    "count_10_blocks", "dominates", "parse_epsilon_spec", "parse_lambda_spec",
    "term_exponent", "term_sign",
    "Dyadic", "NotTwoAdicError", "OpaqueStreamError", "StreamDepthError",
    "binom_parity_dyadic", "digit_pair_period", "halfsum_binom", "kernel_range",
    "kernel_value", "parse_omega",
    "InsufficientDataError", "detect_ultimate_period",
    "ContinuedFraction", "Convergents", "LaurentSeries", "build_F", "cf_expand",
    "convergent_side", "convergents", "fold_expand", "phi_oracle",
    "alpha", "beta", "carlitz_range", "fold_v", "fold_w", "fold_z", "gamma",
    "parity_convolve", "stern_carlitz", "stern_range", "stern_u", "stern_v",
    "thue_morse",
    "ANumber", "a_number", "chebyshev_u_scaled",
    "fibonacci_poly", "is_polynomial", "morgan_voyce", "pell_check_mod2",
    "q_omega_window", "q_poly", "q_support_flags", "q_term_count_range",
    "Dfao", "OrbitError", "Relation", "build_dfao", "find_algebraic_relation",
    "minimize", "orbit", "signed_dfao", "verify_relation",
    "CheckReport", "check_oeis", "parse_bfile",
    "CheckResult", "run_checks",
    "__version__",
]
