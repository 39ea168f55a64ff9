"""Discrete-time quantum walks on the integer line, computed three ways.

The same walk can be evaluated by direct position-space stepping
(:mod:`qwalk.direct`), momentum-space propagation (:mod:`qwalk.spectral`),
or closed-form combinatorial coefficients (:mod:`qwalk.closedform_pure`,
:mod:`qwalk.closedform_mixed`), and the methods cross-checked against each
other (:mod:`qwalk.verify`). Exact arithmetic over the ring Q(sqrt(2), i)
is available whenever the coin angles lie on the eighth-turn grid.
"""

from .arithmetic import Angle, SqrtTwo, SqrtTwoComplex
from .closedform_mixed import (
    MIXED_METHODS,
    distribution_mixed,
    prob_literal,
    prob_pipeline,
)
from .closedform_pure import MODES, amplitude, distribution
from .config import ConfigError, WalkConfig
from .core import (
    CoinParams,
    Distribution,
    MixedLocalizedState,
    PureState,
    coin_matrix,
    coin_matrix_exact,
    max_pointwise_difference,
    pauli_compose,
    pauli_decompose,
    total_variation,
    validate_state,
)
from .direct import distribution_of, evolve_mixed, evolve_pure, step
from .horner import (
    f_explicit,
    f_sequence,
    quad_coeffs,
    quartic_coeffs,
    superop,
    superop_power,
    u_k,
    u_k_power,
)
from .spectral import evolve_spectral, ring_size
from .spectral import simulate as simulate_spectral
from .verify import (
    ComparisonReport,
    Tolerances,
    compare_mixed,
    compare_pure,
    run_invariant_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "SqrtTwo",
    "SqrtTwoComplex",
    "CoinParams",
    "PureState",
    "MixedLocalizedState",
    "Distribution",
    "coin_matrix",
    "coin_matrix_exact",
    "pauli_decompose",
    "pauli_compose",
    "validate_state",
    "total_variation",
    "max_pointwise_difference",
    "step",
    "evolve_pure",
    "evolve_mixed",
    "distribution_of",
    "evolve_spectral",
    "simulate_spectral",
    "ring_size",
    "u_k",
    "u_k_power",
    "quad_coeffs",
    "quartic_coeffs",
    "f_explicit",
    "f_sequence",
    "superop",
    "superop_power",
    "amplitude",
    "distribution",
    "MODES",
    "distribution_mixed",
    "prob_pipeline",
    "prob_literal",
    "MIXED_METHODS",
    "compare_pure",
    "compare_mixed",
    "run_invariant_suite",
    "ComparisonReport",
    "Tolerances",
    "WalkConfig",
    "ConfigError",
    "__version__",
]
