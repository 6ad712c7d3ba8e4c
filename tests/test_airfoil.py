"""Inversion operators, regimes, range condition and the Rybakov functional."""

import functools
import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest

from numpy.polynomial import chebyshev as C

import finhilbert as fh
from finhilbert.profiles import Profile
from finhilbert.transform import fht_over_w_point


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
        outer = fht_over_w_point(lambda x: C.chebval(x, q), t)
        assert outer.real == pytest.approx(t * t, abs=1e-6)


def test_left_inverse_kills_constant(one):
    # -w T(1/w) = 0
    out = fh.left_inverse(one)
    assert np.abs(out.values).max() <= 1e-10


def test_left_inverse_inverts():
    # -w T(T(f)/w) = f, the outer transform by theta panels
    f = fh.poly_fn([0, 1, 1], 256)
    pts = np.linspace(-0.9, 0.9, 61)
    outer = -fh.semicircle_weight(pts) * fht_over_w_point(fh.fht_grid(f).eval_at, pts,
                                                          grade_endpoints=True)
    assert np.abs(outer - f.eval_at(pts)).max() <= 1e-5


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
    # the theta-panel reference, split at the log locations and graded
    # geometrically toward them as toward the endpoints; about 3e-10 here
    pts = x[3::23]
    pts = pts[(np.abs(pts - a) > 0.02) & (np.abs(pts - b) > 0.02)]
    idx = np.searchsorted(x, pts)
    w = fh.semicircle_weight(pts)
    quad_left = -w * np.array([fht_over_w_point(img.eval_at, t, extra_splits=(a, b),
                                                grade_endpoints=True) for t in pts])
    quad_right = -np.array([fht_over_w_point(lambda y: img.eval_at(y) * (1 - y * y), t,
                                             extra_splits=(a, b), grade_endpoints=True)
                            for t in pts]) / w
    assert np.abs(left.values[idx] - quad_left).max() <= 1e-8
    assert np.abs(right.values[idx] - quad_right).max() <= 1e-8


# --------------------------------------------------------------- exact routes

@functools.cache
def _benchmark_refs():
    """perfbench/refs.py: the benchmark's references, which share no code
    with the library (QUADPACK's Cauchy-weight rule for the solutions)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "refs.py"
    spec = importlib.util.spec_from_file_location("perfbench_refs", path)
    refs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = refs       # its dataclasses look the module up
    spec.loader.exec_module(refs)
    return refs


def _poly(x):
    return 0.3 + x - 0.5 * x**2


# inputs with a structure; the inverses of each take no theta panels
STRUCTURED = {
    "poly": lambda n: fh.poly_fn([0.3, 1.0, -0.5], n),
    "image": lambda n: fh.fht_grid(fh.poly_fn([0.3, 1.0, -0.5, 0.25], n)),
    "indicator": lambda n: fh.indicator_fn((-0.3, 0.45), n),
    "sigma": fh.sign_fn,
    "w": fh.weight_fn,
    "invw": fh.inv_weight_fn,
    "chebyshev-samples": lambda n: fh.from_callable(_poly, n),
    # the piecewise-linear interpolant np.interp reads
    "uniform-samples": lambda n: fh.from_callable(_poly, n, family="uniform"),
    # partial w^{-1} pieces: w chi_(-0.5, 0.5) is stored as (1 - x^2)/w
    "w-on-an-interval": lambda n: fh.from_profile(Profile(((-0.5, 0.5, (1.0,), 1),)), n),
    "restricted-invw": lambda n: fh.restrict(fh.inv_weight_fn(n),
                                             fh.IntervalSet(((-0.6, 0.3),))),
}


@pytest.mark.parametrize("kind", sorted(STRUCTURED))
def test_inverses_of_a_structure_take_no_theta_panels(kind, monkeypatch):
    from finhilbert import chebalg, transform

    def refuse(*args, **kwargs):
        raise AssertionError(f"{kind} input must not take theta panels")

    monkeypatch.setattr(transform, "fht_over_w_point", refuse)
    monkeypatch.setattr(chebalg, "integrate_panels", refuse)
    f = STRUCTURED[kind](64)
    assert np.all(np.isfinite(fh.right_inverse(f).values))
    if kind == "invw":
        # f/w = 1/w^2 is not integrable: refused
        with pytest.raises(ValueError, match="not integrable"):
            fh.left_inverse(f)
    else:
        assert np.all(np.isfinite(fh.left_inverse(f).values))


def test_left_inverse_of_w_pieces_sums_across_a_shared_end():
    # node 0 is the shared end of w chi_(-0.5, 0) and w chi_(0, 0.5): their
    # finite parts there sum to the value of w chi_(-0.5, 0.5)
    halves = Profile(((-0.5, 0.0, (1.0,), 1), (0.0, 0.5, (1.0,), 1)))
    whole = Profile(((-0.5, 0.5, (1.0,), 1),))
    split = fh.left_inverse(fh.from_profile(halves, 5, family="uniform"))
    joined = fh.left_inverse(fh.from_profile(whole, 5, family="uniform"))
    assert len(halves.pieces) == 2 and split.nodes[2] == 0.0
    assert np.abs(split.values - joined.values).max() <= 1e-14


@pytest.mark.parametrize("n", [17, 33])
@pytest.mark.parametrize("family", ["uniform", "custom"])
def test_inverses_of_samples_match_theta_panels_split_at_the_nodes(family, n):
    # the interpolant np.interp reads, its kinks at the nodes split the panels
    if family == "uniform":
        f = fh.from_callable(lambda x: np.exp(x) * np.cos(3 * x), n, family="uniform")
    else:
        x = np.linspace(-0.93, 0.96, n) + 0.01 * np.sin(7.0 * np.arange(n))
        f = fh.GridFunction(x, 0.2 + np.sin(4 * x), np.full(n, 2.0 / n), "custom")

    def h(t):
        return np.interp(t, f.nodes, f.values.real)

    w = np.sqrt(1.0 - f.nodes**2)
    right = -fht_over_w_point(lambda t: h(t) * (1 - t * t), f.nodes,
                              extra_splits=f.nodes) / w
    left = -w * fht_over_w_point(h, f.nodes, extra_splits=f.nodes)
    assert np.abs(fh.right_inverse(f).values - right).max() <= 1e-13
    assert np.abs(fh.left_inverse(f).values - left).max() <= 1e-13


def test_range_defect_of_samples_is_their_integral_over_w():
    # int g/w of the interpolant of odd samples vanishes; of the constant 1, pi
    odd = fh.from_callable(lambda x: x**3 - x, 33, family="uniform")
    assert fh.range_defect(odd) <= 1e-15
    one = fh.from_callable(lambda x: 1.0, 33, family="uniform")
    assert fh.range_defect(one) == pytest.approx(math.pi, abs=1e-14)


STEPS = (((0.0, 0.5, 1.0),),
         ((-1.0, 0.0, -1.0), (0.0, 1.0, 1.0)),
         ((-0.7, -0.2, 0.8), (0.1, 0.6, -1.3), (0.6, 0.9, 0.5)))


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("steps", STEPS)
def test_right_inverse_of_steps_matches_quadpack(steps, n):
    refs = _benchmark_refs()
    prof = Profile(tuple((a, b, (c,), 0) for a, b, c in steps))
    u = fh.right_inverse(fh.from_profile(prof, n))
    cuts = np.array(prof.breakpoints())
    keep = np.abs(u.nodes[:, None] - cuts[None, :]).min(axis=1) >= 0.02
    want = refs.right_inverse_pieces(steps, u.nodes[keep])
    assert refs.scaled_error(u.values[keep], want) <= 1e-10


@pytest.mark.parametrize("a, b", [(-0.3, 0.45), (0.0, 0.5), (-0.9, 0.2)])
def test_left_inverse_of_indicator_is_a_lambda_difference(a, b):
    # left_inverse(chi_(a,b)) = (Lambda_b - Lambda_a)/pi with x = cos(theta),
    # a = cos(alpha) and Lambda_a = ln|sin((theta + alpha)/2) / sin((theta - alpha)/2)|
    u = fh.left_inverse(fh.indicator_fn((a, b), 256))
    theta = np.arccos(u.nodes)

    def lam(end):
        alpha = math.acos(end)
        return np.log(np.abs(np.sin((theta + alpha) / 2) / np.sin((theta - alpha) / 2)))

    assert np.abs(u.values - (lam(b) - lam(a)) / math.pi).max() <= 1e-10


@pytest.mark.parametrize("n", [64, 512])
def test_solve_of_invw_is_exact(n, lp15):
    # -T((1/w) w)/w = -T(1)/w = -ln((1 - x)/(1 + x)) / (pi w)
    u = fh.solve_airfoil(fh.inv_weight_fn(n), lp15).particular
    x = u.nodes
    want = -np.log((1 - x) / (1 + x)) / (math.pi * np.sqrt(1 - x * x))
    assert np.abs(u.values - want).max() <= 1e-12 * (1 + np.abs(want).max())


def test_inverses_refuse_a_node_on_a_cut():
    f = fh.sign_fn(33)                  # the middle node is the jump at 0
    for inverse in (fh.right_inverse, fh.left_inverse):
        with pytest.raises(fh.SingularEvaluationError):
            inverse(f)


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
        outer = fht_over_w_point(lambda x: C.chebval(x, q), t)
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


def test_right_inverse_and_complement_identity_by_theta_panels():
    # T(-T(f w)/w) = f and -T(T(f) w)/w = f - P(f), the outer transforms by
    # theta panels
    pts = np.linspace(-0.9, 0.9, 61)
    for coeffs in ([1], [0, 0, 1]):
        f = fh.poly_fn(coeffs, 256)
        q = fh.right_inverse(f).profile.series(-1)
        outer = fht_over_w_point(lambda x: C.chebval(x, q), pts)
        assert np.abs(outer - f.eval_at(pts)).max() <= 1e-5
        img = fh.fht_grid(f)
        outer = -fht_over_w_point(lambda x: img.eval_at(x) * (1.0 - x * x), pts,
                                  grade_endpoints=True) / fh.semicircle_weight(pts)
        rest = f.eval_at(pts) - fh.kernel_projection(f).eval_at(pts)
        assert np.abs(outer - rest).max() <= 1e-5


@pytest.mark.parametrize("row, polys", [("left-inverse", 5), ("projection", 2)])
def test_inversion_rows_take_panels_only_for_what_they_report(row, polys, monkeypatch):
    # one graded chebalg.integrate_panels call at the 61 reported points per
    # polynomial; a graded table holds more shared panels than the one [0, pi]
    from finhilbert import chebalg, checks

    calls, inner = [], chebalg.integrate_panels

    def spy(f, g, lo, hi, rows, counts):
        calls.append((len(rows), len(lo) - 2 * len(rows) > 1))
        return inner(f, g, lo, hi, rows, counts)

    monkeypatch.setattr(chebalg, "integrate_panels", spy)
    check = {"left-inverse": checks.check_left_inverse,
             "projection": checks.check_projection}[row]
    assert all(r["pass"] for r in check(checks.RunConfig(nodes=512)))
    assert calls == [(61, True)] * polys


def test_surjectivity_witness_in_lp(lp15):
    # right-inverse images transform back to g in the ambient Lp norm
    from finhilbert.checks import POLY_TEST_SET

    pts = np.linspace(-0.9, 0.9, 41)
    for coeffs in POLY_TEST_SET:
        g = fh.poly_fn(coeffs, 256)
        q = fh.right_inverse(g).profile.series(-1)
        outer = np.array([fht_over_w_point(lambda x: C.chebval(x, q), float(t))
                          for t in pts])
        resid = np.abs(outer - g.eval_at(pts))
        lp_resid = (np.mean(resid ** lp15.p)) ** (1 / lp15.p) * 1.8 ** (1 / lp15.p)
        assert lp_resid <= 1e-5


def test_projection_complement_for_constant(one, lp15):
    # -T(T(1) w)/w must equal 1 - (2/pi)/w pointwise
    img = fh.fht_grid(one)
    pts = np.linspace(-0.9, 0.9, 13)
    vals = np.array([-fht_over_w_point(lambda x: img.eval_at(x) * (1 - x * x), t,
                                       grade_endpoints=True)
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


@pytest.mark.parametrize("n", [255, 257, 513])
def test_rybakov_at_odd_node_counts(n):
    # the middle first-kind node is 6.1e-17, not 0: the samples stay finite
    # and match -(2/pi) ln((1 + w)/|t|) there as elsewhere
    g0 = fh.rybakov_functional(n)
    x = g0.nodes
    want = -(2 / math.pi) * np.log((1 + np.sqrt(1 - x * x)) / np.abs(x))
    assert np.abs(g0.values - want).max() <= 1e-14
    mid = n // 2
    assert abs(g0.values[mid] - want[mid]) <= 2.2e-16 * abs(want[mid])


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
