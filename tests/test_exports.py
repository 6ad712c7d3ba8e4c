"""The package's public names, pinned: adding or removing an export is a
deliberate change to this list."""

import types

import finhilbert as fh

PUBLIC = (
    "AirfoilSolution", "CriticalIndexError", "DecayEstimate", "GridFunction", "HIGH_INDEX",
    "IntervalSet", "LOW_INDEX", "ModulatingFunction", "NormInfo", "NotInRangeError",
    "OptNormEstimate", "OracleConvergenceError", "Rearrangement",
    "SingularEvaluationError", "SpaceSpec", "TransformDomainError", "blowup_witness",
    "boyd_estimate", "const_fn", "default_dilation_dictionary", "dilate",
    "dilation_opnorm", "distribution", "dual_dictionary", "fht_grid", "fht_indicator",
    "fht_point", "fht_product_indicator", "from_callable", "from_profile",
    "indefinite_integral", "indicator_fn", "integrate", "integrate_interval",
    "inv_weight_fn", "kernel_projection", "left_inverse",
    "make_grid", "matched_dual", "norm", "norm_info", "optdomain_norm",
    "pairing", "parseval_defect", "poly_fn", "pv_oracle", "random_interval_set",
    "range_defect", "rearrangement", "rearrangement_decay", "regime_of", "restrict",
    "right_inverse", "rybakov_functional", "scalar_measure", "semicircle_weight",
    "semivariation", "sign_fn", "solve_airfoil", "total_variation_scalar",
    "vector_measure", "weak_norm", "weight_fn",
)


def test_public_names_are_pinned():
    # submodules appear as attributes once anything imports them, so they
    # are not part of the list
    names = [n for n in dir(fh)
             if not n.startswith("_") and not isinstance(getattr(fh, n), types.ModuleType)]
    assert names == sorted(PUBLIC)
