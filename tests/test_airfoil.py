"""Inversion operators, regimes, range condition and the Rybakov functional."""

import math

import numpy as np
import pytest

from numpy.polynomial import chebyshev as C

import finhilbert as fh


def test_weight_values():
    assert fh.semicircle_weight(0.0) == 1.0
    assert fh.semicircle_weight(0.6) == pytest.approx(0.8)
    assert fh.semicircle_weight(-0.6) == pytest.approx(0.8)
    xs = np.linspace(-0.95, 0.95, 11)
    assert np.array_equal(fh.semicircle_weight(xs), fh.semicircle_weight(-xs))
    with pytest.raises(ValueError):
        fh.semicircle_weight(1.0)


def test_regimes():
    assert fh.regime_of(fh.SpaceSpec.lp(1.5)) == fh.HIGH_INDEX
    assert fh.regime_of(fh.SpaceSpec.lp(3)) == fh.LOW_INDEX
    assert fh.regime_of(fh.SpaceSpec.lorentz(4, 1)) == fh.LOW_INDEX
    with pytest.raises(fh.CriticalIndexError):
        fh.regime_of(fh.SpaceSpec.lp(2))


# ------------------------------------------------------------------- operators

def test_right_inverse_zero():
    out = fh.right_inverse(fh.const_fn(0.0, 64))
    assert np.all(out.values == 0)


def test_right_inverse_of_constant(one):
    # -T(w)/w = x/w
    out = fh.right_inverse(one)
    got = out.eval_at(np.array([0.5]))[0].real
    assert got == pytest.approx(0.5 / math.sqrt(0.75), abs=1e-12)


def test_right_inverse_is_right_inverse(xfun):
    # outer transform by quadrature, independent of the coefficient identity
    rinv = fh.right_inverse(fh.poly_fn([0, 0, 1], 256))
    q = rinv.profile.series(-1)
    for t in (-0.9, -0.3, 0.5, 0.9):
        outer = fh.fht_over_w_point(lambda x: C.chebval(x, q), t)
        assert outer.real == pytest.approx(t * t, abs=1e-6)


def test_left_inverse_kills_constant(one):
    # -w T(1/w) = 0
    out = fh.left_inverse(one)
    assert np.abs(out.values).max() <= 1e-10


def test_left_inverse_inverts(lp3):
    res = fh.inversion_residuals(fh.poly_fn([0, 1, 1], 256), lp3)
    assert res["leftinv o T - id"]["sup_interior"] <= 1e-5
    assert res["T o leftinv - id on range"]["sup_interior"] <= 1e-5


def test_projection_fixes_kernel(invw):
    out = fh.kernel_projection(invw)
    assert np.abs(out.values - invw.values).max() <= 1e-10


def test_projection_kills_odd(xfun):
    out = fh.kernel_projection(xfun)
    assert np.abs(out.values).max() <= 1e-12


def test_projection_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = fh.poly_fn(rng.normal(size=4), 256)
        once = fh.kernel_projection(f)
        twice = fh.kernel_projection(once)
        assert np.abs(once.values - twice.values).max() <= 1e-9


@pytest.mark.parametrize("n", [512, 2048])
def test_inverses_of_images_are_exact(n):
    # T(p) is a log-mix profile with ln(1 -+ x) terms; both inverses are closed
    # forms: left_inverse(T(p)) = p and right_inverse(T(p)) = p - P(p)
    rng = np.random.default_rng(n)
    for _ in range(3):
        f = fh.poly_fn(rng.uniform(-1, 1, 6), n)
        img = fh.fht_grid(f)
        assert img.profile.logs
        mask = np.abs(f.nodes) <= 0.9
        left = fh.left_inverse(img)
        right = fh.right_inverse(img)
        assert left.profile is None and right.profile is None
        want = f.values - fh.kernel_projection(f).values
        assert np.abs(left.values - f.values)[mask].max() <= 1e-12
        assert np.abs(right.values - want)[mask].max() <= 1e-12


def test_inverses_of_indicator_image():
    # T(chi_(a,b)) = (1/pi) ln|(b-x)/(a-x)| carries interior log terms
    a, b = -0.3, 0.45
    img = fh.fht_grid(fh.indicator_fn((a, b), 512))
    x = img.nodes
    left, right = fh.left_inverse(img), fh.right_inverse(img)
    chi = ((x > a) & (x < b)).astype(float)
    proj = (b - a) / math.pi / fh.semicircle_weight(x)
    mask = np.abs(x) <= 0.9
    assert np.abs(left.values - chi)[mask].max() <= 1e-12
    assert np.abs(right.values - (chi - proj))[mask].max() <= 1e-12
    # the retained theta-panel route, split at the log locations and graded
    # geometrically toward them as toward the endpoints; about 3e-10 here
    pts = x[3::23]
    pts = pts[(np.abs(pts - a) > 0.02) & (np.abs(pts - b) > 0.02)]
    idx = np.searchsorted(x, pts)
    w = fh.semicircle_weight(pts)
    quad_left = -w * np.array([fh.fht_over_w_point(img.eval_at, t, extra_splits=(a, b),
                                                   grade_endpoints=True) for t in pts])
    quad_right = -np.array([fh.fht_times_w_point(img.eval_at, t, extra_splits=(a, b),
                                                 grade_endpoints=True) for t in pts]) / w
    assert np.abs(left.values[idx] - quad_left).max() <= 1e-8
    assert np.abs(right.values[idx] - quad_right).max() <= 1e-8


# ---------------------------------------------------------------- range defect

def test_range_defect_of_images():
    img = fh.fht_grid(fh.poly_fn([0, 0, 1], 256))
    assert fh.range_defect(img) <= 1e-6


def test_range_defect_of_constant(one):
    assert fh.range_defect(one) == pytest.approx(math.pi, abs=1e-12)


def test_range_defect_odd(xfun):
    assert fh.range_defect(xfun) <= 1e-12


def test_range_defect_of_kernel_direction_diverges(invw):
    assert fh.range_defect(invw) == float("inf")


# --------------------------------------------------------------------- solving

def test_solve_high_index(xfun, lp15):
    sol = fh.solve_airfoil(xfun, lp15)
    assert sol.kernel_coefficient_free
    q = sol.particular.profile.series(-1)
    for t in (-0.8, 0.0, 0.8):
        outer = fh.fht_over_w_point(lambda x: C.chebval(x, q), t)
        assert outer.real == pytest.approx(t, abs=1e-6)
    # the kernel family: particular + c/w still solves
    shifted = sol.particular + 2.5 * fh.inv_weight_fn(len(sol.particular))
    for t in (0.3,):
        outer = fh.fht_point(shifted.eval_at, t)
        assert outer.real == pytest.approx(t, abs=1e-4)


def test_solve_low_index_not_in_range(one, lp3):
    with pytest.raises(fh.NotInRangeError) as err:
        fh.solve_airfoil(one, lp3)
    assert err.value.defect == pytest.approx(math.pi, abs=1e-10)


def test_solve_low_index_recovers(lp3):
    g = fh.fht_grid(fh.poly_fn([0, 0, 1], 512))
    sol = fh.solve_airfoil(g, lp3)
    assert not sol.kernel_coefficient_free
    mask = np.abs(sol.particular.nodes) <= 0.9
    want = sol.particular.nodes[mask] ** 2
    assert np.abs(sol.particular.values[mask] - want).max() <= 1e-5


def test_solve_zero_rhs(lp3):
    sol = fh.solve_airfoil(fh.const_fn(0.0, 128), lp3)
    assert np.abs(sol.particular.values).max() <= 1e-12


def test_solve_critical_index(one):
    with pytest.raises(fh.CriticalIndexError):
        fh.solve_airfoil(one, fh.SpaceSpec.lp(2))


def test_inversion_residuals_high_index(lp15):
    for coeffs in ([1], [0, 0, 1]):
        res = fh.inversion_residuals(fh.poly_fn(coeffs, 256), lp15)
        assert res["T o rightinv - id"]["sup_interior"] <= 1e-5
        assert res["rightinv o T - (id - P)"]["sup_interior"] <= 1e-5


def test_surjectivity_witness_in_lp(lp15):
    # right-inverse images transform back to g in the ambient Lp norm
    from finhilbert.checks import POLY_TEST_SET

    pts = np.linspace(-0.9, 0.9, 41)
    for coeffs in POLY_TEST_SET:
        g = fh.poly_fn(coeffs, 256)
        q = fh.right_inverse(g).profile.series(-1)
        outer = np.array([fh.fht_over_w_point(lambda x: C.chebval(x, q), float(t))
                          for t in pts])
        resid = np.abs(outer - g.eval_at(pts))
        lp_resid = (np.mean(resid ** lp15.p)) ** (1 / lp15.p) * 1.8 ** (1 / lp15.p)
        assert lp_resid <= 1e-5


def test_projection_complement_for_constant(one, lp15):
    # -T(T(1) w)/w must equal 1 - (2/pi)/w pointwise
    img = fh.fht_grid(one)
    pts = np.linspace(-0.9, 0.9, 13)
    vals = np.array([-fh.fht_times_w_point(img.eval_at, t, grade_endpoints=True)
                     for t in pts]) / fh.semicircle_weight(pts)
    want = 1 - (2 / math.pi) / fh.semicircle_weight(pts)
    assert np.abs(vals - want).max() <= 1e-5


# --------------------------------------------------------------------- Rybakov

def test_rybakov_transform_is_sign():
    g0 = fh.rybakov_functional(512)
    img = fh.fht_grid(g0)
    mask = (np.abs(img.nodes) >= 0.05) & (np.abs(img.nodes) <= 0.95)
    assert np.abs(img.values[mask] - np.sign(img.nodes[mask])).max() <= 1e-4


def test_rybakov_closed_form_value():
    g0 = fh.rybakov_functional(512)
    got = g0.eval_at(np.array([0.3]))[0].real
    want = -(2 / math.pi) * math.log((1 + math.sqrt(0.91)) / 0.3)
    assert got == pytest.approx(want, abs=1e-7)
    # independent exclusion oracle on -w T(sigma/w)
    orc = -math.sqrt(0.91) * fh.pv_oracle(
        lambda x: np.sign(x) / np.sqrt(1 - x * x), 0.3, singular=(0.0,))
    assert got == pytest.approx(orc, abs=1e-6)


def test_rybakov_is_even():
    # sigma odd and w even make T(sigma/w) even, so g0 = -w T(sigma/w) is even
    g0 = fh.rybakov_functional(256)
    xs = np.linspace(0.05, 0.9, 9)
    left = g0.eval_at(-xs)
    right = g0.eval_at(xs)
    assert np.abs(left - right).max() <= 1e-9


def test_rybakov_pairing_consistency():
    # <g0, sigma> = 0 by parity; the nontrivial pairing is against T(sigma),
    # where antisymmetry gives int g0 T(sigma) = -int sigma T(g0) = -2
    g0 = fh.rybakov_functional(512)
    sigma = fh.sign_fn(512)
    assert abs(fh.pairing(g0, sigma)) <= 1e-12
    direct = fh.pairing(g0, fh.fht_grid(sigma)).real
    via_scalar = -(fh.scalar_measure(g0, fh.IntervalSet(((0.0, 1.0),)))
                   - fh.scalar_measure(g0, fh.IntervalSet(((-1.0, 0.0),)))).real
    assert via_scalar == pytest.approx(2.0, abs=1e-3)
    # the raw weighted dot cannot resolve the ln^2 mass at the origin better
    assert direct == pytest.approx(-via_scalar, abs=0.05)
