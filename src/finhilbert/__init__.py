"""Finite Hilbert transform on (-1, 1): evaluation, inversion, optimal domains.

The package evaluates T(f)(t) = (1/pi) pv int f(x)/(x-t) dx with quadrature
matched to each singular structure, inverts the airfoil equation T(f) = g in
both Boyd-index regimes, computes rearrangement-invariant norms
(L^p, Lorentz, weak-L^p) with Boyd index estimation, and realizes the
vector-measure view of the transform: scalar measures, semivariation,
optimal-domain norms and membership diagnostics.  ``python -m finhilbert``
or the ``finhilbert`` script expose evaluation, solving and the verification
suite.

All public objects are immutable and all operations are pure functions, so
every API here is safe for concurrent use without synchronization.
"""

from .airfoil import (
    AirfoilSolution,
    CriticalIndexError,
    HIGH_INDEX,
    LOW_INDEX,
    NotInRangeError,
    inversion_residuals,
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
    ChebyshevSeries,
    GridFunction,
    cheb_eval,
    cheb_fit,
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
    MembershipReport,
    ModulatingFunction,
    OptNormEstimate,
    blowup_witness,
    dual_dictionary,
    indefinite_integral,
    invw_membership_evidence,
    lp_membership,
    matched_dual,
    membership_report,
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
    norms_batch,
    rearrangement,
    rearrangement_decay,
)
from .transform import (
    MethodError,
    PVConfig,
    SingularEvaluationError,
    TransformDomainError,
    fht_chebyshev,
    fht_grid,
    fht_indicator,
    fht_point,
    fht_product_indicator,
    fht_over_w_point,
    fht_times_w_point,
    pv_oracle,
)

__version__ = "0.1.0"
