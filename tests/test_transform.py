"""Transform evaluators against closed forms and the exclusion oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finhilbert as fh


def ivals(*pairs):
    return fh.IntervalSet(tuple(pairs))


def test_pvconfig_validation():
    with pytest.raises(ValueError):
        fh.PVConfig(epsilon_floor=0.0)
    with pytest.raises(ValueError):
        fh.PVConfig(method="midpoint")


# -------------------------------------------------------------------- fht_point

def test_kernel_direction_vanishes(invw):
    assert abs(fh.fht_point(invw, 0.3)) <= 1e-6


def test_indicator_point_value():
    val = fh.fht_point(fh.indicator_fn(ivals((0.0, 1.0)), 256), -0.5)
    assert val.real == pytest.approx(math.log(3.0) / math.pi, abs=1e-12)


def test_semicircle_point_value(wfun):
    # T(w)(t) = -t; the profile route is exact, the quadrature route close
    assert fh.fht_point(wfun, 0.4).real == pytest.approx(-0.4, abs=1e-10)
    val = fh.fht_point(lambda x: np.sqrt(1 - x * x), 0.4)
    assert val.real == pytest.approx(-0.4, abs=1e-6)


def test_point_outside_domain_rejected(wfun):
    with pytest.raises(fh.TransformDomainError):
        fh.fht_point(wfun, 1.5)


def test_subtract_singularity_rejects_jumps():
    with pytest.raises(fh.MethodError):
        fh.fht_point(fh.sign_fn(64), 0.3,
                     fh.PVConfig(method="subtract-singularity"))


def test_oracle_agreement_for_polynomials(rng):
    # |fht_point - oracle| <= 1e-8 for degree <= 8 away from the endpoints
    coeffs = rng.normal(size=9)
    f = fh.poly_fn(coeffs, 256)
    fn = lambda x: np.polynomial.polynomial.polyval(x, coeffs)
    for t in (-0.9, -0.4, 0.05, 0.55, 0.95):
        assert abs(fh.fht_point(f, t) - fh.pv_oracle(fn, t)) <= 1e-8


# --------------------------------------------------------------------- fht_grid

def test_grid_of_zero_is_zero():
    img = fh.fht_grid(fh.const_fn(0.0, 64))
    assert np.all(img.values == 0)


def test_grid_kernel_sup(invw):
    img = fh.fht_grid(invw)
    mask = np.abs(img.nodes) <= 0.9
    assert np.abs(img.values[mask]).max() <= 1e-6


def test_grid_w_times_u1():
    # f = w U_1, U_1(x) = 2x: T(f)(t) = -T_2(t) = -(2t^2 - 1)
    f = fh.from_profile(
        __import__("finhilbert.profiles", fromlist=["PolyProfile"]).PolyProfile(
            (0.0, 2.0), wpow=1), 256)
    img = fh.fht_grid(f)
    want = -(2 * img.nodes**2 - 1)
    assert np.abs(img.values - want).max() <= 1e-6
    # independent oracle at a spot point
    orc = fh.pv_oracle(lambda x: 2 * x, 0.37, weight="times_w")
    assert orc == pytest.approx(-(2 * 0.37**2 - 1), abs=1e-7)


@settings(max_examples=10, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_grid_linearity(a, b):
    f = fh.poly_fn([0, 1], 64)
    g = fh.poly_fn([1, 0, 1], 64)
    lhs = fh.fht_grid(a * f + b * g)
    rhs = a * fh.fht_grid(f) + b * fh.fht_grid(g)
    scale = 1 + abs(a) + abs(b)
    assert np.abs(lhs.values - rhs.values).max() <= 1e-10 * scale


# ---------------------------------------------------------------- fht_indicator

def test_indicator_near_left_endpoint():
    val = fh.fht_indicator(ivals((0.0, 1.0)), -0.99)
    assert val.real == pytest.approx(math.log(1.99 / 0.99) / math.pi, abs=1e-12)


def test_indicator_full_interval_center():
    assert abs(fh.fht_indicator(ivals((-1.0, 1.0)), 0.0)) <= 1e-14


def test_indicator_right_of_interval():
    # (1/pi) ln|(b-x)/(a-x)| is negative for x to the right of (a, b)
    val = fh.fht_indicator(ivals((-0.5, 0.5)), 0.75)
    assert val.real == pytest.approx(-math.log(5.0) / math.pi, abs=1e-12)


def test_indicator_rejects_endpoint_evaluation():
    with pytest.raises(fh.SingularEvaluationError):
        fh.fht_indicator(ivals((0.0, 1.0)), 1.0 - 1e-16)
    with pytest.raises(fh.TransformDomainError):
        fh.fht_indicator(ivals((0.0, 0.5)), 1.5)


@settings(max_examples=30, deadline=None)
@given(st.floats(-0.95, -0.05), st.floats(0.05, 0.95), st.floats(-0.98, 0.98))
def test_indicator_additivity(a, b, x):
    if abs(x - a) < 1e-3 or abs(x - b) < 1e-3 or abs(x) < 1e-3 or b - a < 1e-3:
        return
    left, right = ivals((a, 0.0)), ivals((0.0, b))
    both = ivals((a, 0.0), (0.0, b))
    lhs = fh.fht_indicator(both, x)
    rhs = fh.fht_indicator(left, x) + fh.fht_indicator(right, x)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


# ------------------------------------------------------- fht_product_indicator

def test_product_indicator_of_constant(one):
    A = ivals((0.0, 1.0))
    img = fh.fht_product_indicator(one, A)
    pts = np.array([-0.5, 0.3, 0.9])
    want = np.array([fh.fht_indicator(A, float(x)) for x in pts])
    assert np.abs(img.eval_at(pts) - want).max() <= 1e-12


def test_product_indicator_empty(xfun):
    img = fh.fht_product_indicator(xfun, fh.IntervalSet.empty())
    assert np.all(img.values == 0)


def test_product_indicator_linear_closed_form(xfun):
    # (1/pi) int_0^1 y/(y + 0.5) dy = (1 - 0.5 ln 3)/pi at x = -0.5
    img = fh.fht_product_indicator(xfun, ivals((0.0, 1.0)))
    want = (1 - 0.5 * math.log(3.0)) / math.pi
    assert img.eval_at(np.array([-0.5]))[0].real == pytest.approx(want, abs=1e-12)


def test_product_indicator_finite_additivity(xfun):
    A, B = ivals((-0.7, -0.2)), ivals((0.1, 0.6))
    lhs = fh.fht_product_indicator(xfun, A.union(B))
    rhs = fh.fht_product_indicator(xfun, A) + fh.fht_product_indicator(xfun, B)
    assert np.abs(lhs.values - rhs.values).max() <= 1e-8


# ---------------------------------------------------------------- fht_chebyshev

def test_chebyshev_over_w_kernel():
    out = fh.fht_chebyshev(fh.ChebyshevSeries([1.0]), "over_w")
    assert np.abs(out.asarray()).max() <= 1e-10


def test_chebyshev_times_w_u1():
    out = fh.fht_chebyshev(fh.ChebyshevSeries([0.0, 2.0]), "times_w")
    coeffs = out.asarray()
    assert coeffs[2] == pytest.approx(-1.0, abs=1e-12)
    assert abs(coeffs[0]) + abs(coeffs[1]) <= 1e-12


def test_chebyshev_plain_zero():
    out = fh.fht_chebyshev(fh.ChebyshevSeries([0.0]), "plain")
    assert np.abs(out.asarray()).max() == 0.0


def test_chebyshev_plain_matches_point_evaluation():
    # smooth input vanishing at the endpoints keeps the image fit accurate
    coeffs = np.polynomial.chebyshev.poly2cheb([0.0, 1.0, 0.0, -1.0])  # x - x^3
    out = fh.fht_chebyshev(fh.ChebyshevSeries(coeffs), "plain")
    f = fh.poly_fn([0.0, 1.0, 0.0, -1.0], 256)
    for t in (-0.6, 0.0, 0.44):
        assert out(t).real == pytest.approx(fh.fht_point(f, t).real, abs=1e-6)


def test_chebyshev_rejects_bad_input():
    with pytest.raises(ValueError):
        fh.fht_chebyshev(fh.ChebyshevSeries([np.nan]), "plain")
    with pytest.raises(ValueError):
        fh.fht_chebyshev(fh.ChebyshevSeries([1.0]), "weird")


# --------------------------------------------------------------------- engines

def test_cos_theta_engines_match_classical_identities():
    # T(1/w) = 0 and T(T_2/w) = U_1 through the quadrature engine
    assert abs(fh.fht_over_w_point(lambda x: np.ones_like(x), 0.3)) <= 1e-12
    t = 0.3
    got = fh.fht_over_w_point(lambda x: 2 * x * x - 1, t)
    assert got.real == pytest.approx(2 * t, abs=1e-10)
    got = fh.fht_times_w_point(lambda x: np.ones_like(x), t)   # T(w) = -t
    assert got.real == pytest.approx(-t, abs=1e-10)


def test_oracle_on_known_value():
    # T(chi_(0,1))(-0.5) = ln(3)/pi with a jump declared at 0
    val = fh.pv_oracle(lambda y: (y > 0).astype(float), -0.5, singular=(0.0,))
    assert val == pytest.approx(math.log(3.0) / math.pi, abs=1e-10)
