"""Finite Hilbert transform on (-1, 1): evaluation, inversion, optimal domains.

The package evaluates T(f)(t) = (1/pi) pv int f(x)/(x-t) dx with quadrature
matched to each singular structure, inverts the airfoil equation T(f) = g in
both Boyd-index regimes, computes rearrangement-invariant norms
(L^p, Lorentz, weak-L^p) with Boyd index estimation, and realizes the
vector-measure view of the transform: scalar measures, semivariation and
optimal-domain norms.  ``python -m finhilbert`` or the ``finhilbert`` script
expose evaluation, solving and the verification suite.

All public objects are immutable and all operations are pure functions, so
every API here is safe for concurrent use without synchronization.
"""

from .airfoil import (
    AirfoilSolution,
    CriticalIndexError,
    HIGH_INDEX,
    LOW_INDEX,
    NotInRangeError,
    kernel_projection,
    left_inverse,
    range_defect,
    regime_of,
    right_inverse,
    rybakov_functional,
    semicircle_weight,
    solve_airfoil,
)
from .grid import (
    GridFunction,
    const_fn,
    from_callable,
    from_profile,
    indicator_fn,
    integrate,
    integrate_interval,
    inv_weight_fn,
    make_grid,
    pairing,
    poly_fn,
    restrict,
    sign_fn,
    weight_fn,
)
from .intervals import IntervalSet
from .measure import (
    ModulatingFunction,
    OptNormEstimate,
    blowup_witness,
    dual_dictionary,
    indefinite_integral,
    matched_dual,
    optdomain_norm,
    parseval_defect,
    random_interval_set,
    scalar_measure,
    semivariation,
    total_variation_scalar,
    vector_measure,
    weak_norm,
)
from .spaces import (
    DecayEstimate,
    NormInfo,
    Rearrangement,
    SpaceSpec,
    boyd_estimate,
    default_dilation_dictionary,
    dilate,
    dilation_opnorm,
    distribution,
    norm,
    norm_info,
    rearrangement,
    rearrangement_decay,
)
from .transform import (
    OracleConvergenceError,
    SingularEvaluationError,
    TransformDomainError,
    fht_grid,
    fht_indicator,
    fht_point,
    fht_product_indicator,
    pv_oracle,
)

__version__ = "0.1.0"
