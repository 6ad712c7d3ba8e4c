"""Transform evaluators against closed forms and the exclusion oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as C

import finhilbert as fh
from finhilbert import chebalg, checks, profiles, transform
from finhilbert.cli import parse_function_spec
from finhilbert.profiles import Profile
from finhilbert.transform import fht_over_w_point


def ivals(*pairs):
    return fh.IntervalSet(tuple(pairs))


# -------------------------------------------------------------------- fht_point

@pytest.mark.parametrize("scale", [1.0, 1j])
def test_callable_keeps_its_imaginary_part(scale):
    # h is 0 at t and on [-0.57, 0.61]; T(h)(0) = scale (0.3 - 0.7 ln(1/0.7)) / pi
    val = fh.fht_point(lambda x: scale * np.maximum(x - 0.7, 0.0), 0.0)
    assert val == pytest.approx(scale * (0.3 - 0.7 * math.log(1 / 0.7)) / math.pi, abs=1e-11)


def test_kernel_direction_vanishes(invw):
    assert abs(fh.fht_point(invw, 0.3)) <= 1e-6


def test_nan_points_are_outside_the_domain():
    # NaN fails both comparisons of a bounds check written as t <= -1 or t >= 1
    with pytest.raises(fh.TransformDomainError):
        fh.fht_point(fh.poly_fn([1], 16), math.nan)
    with pytest.raises(fh.TransformDomainError):
        fh.fht_point(np.cos, math.nan)
    with pytest.raises(fh.TransformDomainError):
        fh.fht_indicator(ivals((0.0, 0.5)), np.array([0.2, math.nan]))
    with pytest.raises(fh.TransformDomainError):
        fh.pv_oracle(np.cos, math.nan)


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


@pytest.mark.parametrize("n", [64, 512])
def test_grid_of_real_function_is_exactly_real(n):
    # the series route drops the FFT's imaginary roundoff for real
    # coefficients, so the searches can keep their bases real
    inputs = (fh.poly_fn([0.3, 1.0, -0.6, 0.8, 0.1], n),
              fh.from_callable(lambda x: 0.3 + x - 2 * x**3 + np.exp(x), n),
              fh.indicator_fn(ivals((-0.3, 0.4), (0.5, 0.9)), n),
              fh.rybakov_functional(n))
    for f in inputs:
        assert np.all(fh.fht_grid(f).values.imag == 0)


def test_grid_kernel_sup(invw):
    img = fh.fht_grid(invw)
    mask = np.abs(img.nodes) <= 0.9
    assert np.abs(img.values[mask]).max() <= 1e-6


def test_grid_w_times_u1():
    # f = w U_1, U_1(x) = 2x: T(f)(t) = -T_2(t) = -(2t^2 - 1)
    f = fh.from_profile(Profile.poly((0.0, 2.0), wpow=1), 256)
    img = fh.fht_grid(f)
    want = -(2 * img.nodes**2 - 1)
    assert np.abs(img.values - want).max() <= 1e-6
    # independent oracle at a spot point
    orc = fh.pv_oracle(lambda x: 2 * x * np.sqrt((1 - x) * (1 + x)), 0.37)
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


def _count_images(monkeypatch):
    calls = []
    fht_image = Profile.fht_image
    monkeypatch.setattr(Profile, "fht_image",
                        lambda self, x: calls.append(1) or fht_image(self, x))
    return calls


def test_grid_image_is_computed_once(monkeypatch):
    calls = _count_images(monkeypatch)
    f = fh.indicator_fn((-0.3, 0.45), 128)
    assert fh.fht_grid(f) is fh.fht_grid(f)
    assert len(calls) == 1
    fh.fht_grid(fh.indicator_fn((-0.3, 0.45), 128))     # another object: its own image
    assert len(calls) == 2


def test_grid_guard_runs_on_every_call():
    prof = Profile(((-0.2, 0.5, (1.0,), 0),))
    nodes = np.array([-0.6, 0.1, 0.3, 0.5 + 5e-13])
    f = fh.GridFunction(nodes, prof.eval(nodes), np.full(4, 0.5), "custom", prof)
    for _ in range(2):
        with pytest.raises(fh.SingularEvaluationError, match=r"\[0\.5\]"):
            fh.fht_grid(f)


@pytest.mark.parametrize("check, images", [
    ("check_parseval", 8),                  # 8 polynomials, 28 pairs
    ("check_rybakov", 1),                   # g0, read by five rows
    ("check_estimator_consistency", 74),    # 64 shared dual members, 10 matched duals
])
def test_checks_transform_each_grid_function_once(check, images, monkeypatch):
    calls = _count_images(monkeypatch)
    getattr(checks, check)(checks.RunConfig(nodes=512, seed=0))
    assert len(calls) == images


# ----------------------------------------------------------------------- routes

def _cubic(x):
    return x - x**3


def _csv_samples(tmp_path):
    path = tmp_path / "cubic.csv"
    fh.from_callable(_cubic, 9).to_csv(str(path))
    return parse_function_spec(f"file:{path}", 9)


# input -> the evaluators that must not run for it, and the tolerance
# against the cubic's transform.  Every grid function has a structure (a
# profile, or the interpolant of its samples) and runs the profile
# evaluator behind Profile.fht_values and Profile.fht_image;
# _fht_callable is left to callables.  Samples on 9 uniform or custom nodes
# are read as their piecewise-linear interpolant, which only approximates
# the cubic
ROUTES = {
    "profile": (lambda tmp: fh.weight_fn(64), ("_fht_callable", "fht_series"), 1e-12),
    "chebyshev-samples": (lambda tmp: fh.from_callable(_cubic, 64), ("_fht_callable",), 1e-12),
    "uniform-samples": (lambda tmp: fh.from_callable(_cubic, 9, family="uniform"),
                        ("_fht_callable",), 0.03),
    "file-csv": (_csv_samples, ("_fht_callable",), 0.03),
}


@pytest.mark.parametrize("kind", sorted(ROUTES))
def test_input_selects_the_route(kind, tmp_path, monkeypatch):
    build, forbidden, tol = ROUTES[kind]
    f = build(tmp_path)
    pts = (-0.55, 0.1, 0.7)
    if kind == "profile":
        want = [-t for t in pts]                              # T(w) = -t
    else:
        want = [fh.fht_point(fh.poly_fn([0, 1, 0, -1], 64), t).real for t in pts]

    def refuse(*args, **kwargs):
        raise AssertionError(f"{kind} input must not take this route")

    calls = []
    exact = profiles._fht_rows

    def counted_exact(profs, x):
        calls.append(x)
        return exact(profs, x)

    owners = {"_fht_callable": transform, "fht_series": chebalg}
    with monkeypatch.context() as m:
        for name in forbidden:
            m.setattr(owners[name], name, refuse)
        m.setattr(profiles, "_fht_rows", counted_exact)
        grid_values = fh.fht_grid(f).values
        got = [fh.fht_point(f, t).real for t in pts]
    assert len(grid_values) == len(f)
    # one call per fht_grid / fht_point call
    assert len(calls) == 1 + len(pts)
    assert np.abs(np.subtract(got, want)).max() <= tol


def _kink_form(x, v, t):
    """T of the piecewise-linear interpolant of samples v at nodes x, written
    as f = v_1 + sum_k dm_k (y - x_k)_+ with dm_k the slope change at x_k:

        pi T(f)(t) = v_1 ln((1 - t)/(1 + t))
                     + sum_k dm_k ((1 - x_k) + (t - x_k)(ln(1 - t) - ln|x_k - t|))

    and (t - x_k) ln|x_k - t| = 0 at t = x_k."""
    slopes = np.concatenate([[0.0], np.diff(v) / np.diff(x), [0.0]])
    d = t[:, None] - x[None, :]
    at = d == 0.0
    lnd = np.log(np.abs(np.where(at, 1.0, d)))
    terms = (1.0 - x)[None, :] + np.where(at, 0.0, d * (np.log1p(-t)[:, None] - lnd))
    return (v[0] * np.log((1.0 - t) / (1.0 + t)) + terms @ np.diff(slopes)) / math.pi


def _samples(family, n):
    if family == "uniform":
        return fh.from_callable(lambda x: np.cos(3 * x) + x, n, family="uniform")
    # custom: jittered Chebyshev-like nodes
    rng = np.random.default_rng(n)
    x = np.sort(np.cos(math.pi * (np.arange(n) + rng.uniform(0.1, 0.9, n)) / n))
    return fh.GridFunction(x, np.exp(x) * np.sin(5 * x), np.full(n, 2.0 / n), "custom")


@pytest.mark.parametrize("n", [9, 64, 512, 2048])
@pytest.mark.parametrize("family", ["uniform", "custom"])
def test_samples_transform_to_the_kink_form(family, n):
    f = _samples(family, n)
    x, v = f.nodes, f.values.real
    at_nodes = _kink_form(x, v, x)
    scale = np.abs(at_nodes).max()
    assert np.abs(fh.fht_grid(f).values - at_nodes).max() <= 1e-13 * scale
    mid = ((x[1:] + x[:-1]) / 2.0)[:: (n - 1) // 4]
    between = [fh.fht_point(f, t) for t in mid]
    want = _kink_form(x, v, mid)
    assert np.abs(np.subtract(between, want)).max() <= 1e-13 * scale


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
    # the end 1 of (0, 1) is no jump inside (-1, 1): the finite closed form,
    # as fht_point reads the same profile
    near_one = 1.0 - 1e-16
    val = fh.fht_indicator(ivals((0.0, 1.0)), near_one)
    assert val == fh.fht_point(fh.indicator_fn(ivals((0.0, 1.0)), 64), near_one)
    assert val.real == pytest.approx(math.log((1.0 - near_one) / near_one) / math.pi,
                                     rel=1e-12)
    # the interior end 0.5 of (0, 0.5) is a jump, refused within the 1e-12 guard
    for x in (0.5, 0.5 - 1e-13, 0.5 + 1e-13):
        with pytest.raises(fh.SingularEvaluationError, match="discontinuity"):
            fh.fht_indicator(ivals((0.0, 0.5)), x)
    with pytest.raises(fh.TransformDomainError):
        fh.fht_indicator(ivals((0.0, 0.5)), 1.5)


def test_indicator_of_touching_intervals_agrees_with_the_profile_route():
    # the logs of (-0.5, 0) and (0, 0.5) cancel at the end they share
    A = ivals((-0.5, 0.0), (0.0, 0.5))
    f = fh.indicator_fn(A, 64)
    assert abs(fh.fht_indicator(A, 0.0)) <= 1e-15
    assert abs(fh.fht_point(f, 0.0)) <= 1e-15
    assert fh.fht_indicator(A, 0.2) == pytest.approx(fh.fht_point(f, 0.2), abs=1e-14)
    for end in (-0.5, 0.5):
        with pytest.raises(fh.SingularEvaluationError):
            fh.fht_indicator(A, end)
        with pytest.raises(fh.SingularEvaluationError):
            fh.fht_point(f, end)


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


# --------------------------------------------------------------------- engines

def test_cos_theta_engines_match_classical_identities():
    # T(1/w) = 0 and T(T_2/w) = U_1 through the quadrature engine
    assert abs(fht_over_w_point(lambda x: np.ones_like(x), 0.3)) <= 1e-12
    t = 0.3
    got = fht_over_w_point(lambda x: 2 * x * x - 1, t)
    assert got.real == pytest.approx(2 * t, abs=1e-10)
    got = fht_over_w_point(lambda x: 1 - x * x, t)   # T(w) = T((1 - x^2)/w) = -t
    assert got.real == pytest.approx(-t, abs=1e-10)


# ------------------------------------------------------- array-form theta panels

_PANEL_PTS = np.concatenate([[-0.999], np.linspace(-0.9, 0.9, 13), [0.999]])
# on or within 1e-9 of an edge of the endpoint grading or of the grading
# toward the split at 0.4: the point is dropped onto an edge just below it,
# and an edge just above it moves onto it.  A quotient dividing by zero
# there would show as a non-finite sum, which fht_over_w_point refuses
_EDGE_PTS = np.array([math.cos(math.pi / 4), math.cos(3 * math.pi / 4),
                      math.cos(math.pi / 8) + 1e-10, math.cos(math.pi / 8) - 1e-10,
                      math.cos(math.acos(0.4) + math.pi / 16)])
# snap cases: splits 1.5e-9 apart in theta give pairs of shared edges
# (each split and each step of its grading) closer than 2e-9.  _SNAP lists
# (theta offset from the split at 0.4, how the point meets the shared
# edges): within 1e-9 above an edge it is dropped onto it, between the two
# edges of a pair or just above a pair; within 1e-9 below an edge the edge
# moves onto it; far from every edge it splits its panel
_SNAP_SPLITS = np.cos(math.acos(0.4) + np.array([0.0, 1.5e-9]))
_SNAP = [(0.75e-9, "dropped"), (1.5e-9 + 0.4e-9, "dropped"), (-0.6e-9, "moved"),
         (math.pi / 16 + 0.8e-9, "dropped"), (math.pi / 16 - 0.9e-9, "moved"), (0.3, "split")]
_SNAP_PTS = np.cos(math.acos(0.4) + np.array([d for d, _ in _SNAP]))
_Q = np.array([0.3, -1.2, 0.5, 0.25, -0.7])


def _panel_cases():
    img = fh.fht_grid(fh.indicator_fn((-0.2, 0.4), 128))     # log peaks at -0.2, 0.4
    splits = {"extra_splits": (-0.2, 0.4)}
    return [
        (lambda x: C.chebval(x, _Q), {}),
        (lambda x: (1 + 2j) * x**3 - 1j, {"grade_endpoints": True}),
        (img.eval_at, splits),
        # T(h w) as T((h (1 - x^2))/w)
        (lambda x: img.eval_at(x) * (1 - x * x), dict(splits, grade_endpoints=True)),
        (lambda x: 1j * C.chebval(x, _Q) * (1 - x * x), {}),
        (lambda x: C.chebval(x, _Q), {"extra_splits": _SNAP_SPLITS}),
    ]


def _rule_edges(theta, extra_splits=(), grade_endpoints=False):
    """One point's theta edges written out: the shared edges 0, pi, each
    split and its grading (and the endpoint grading), sorted; an edge within
    1e-9 of the last kept one is dropped, and the last is set to pi.  Then
    theta is dropped when it lies within 1e-9 above a shared edge, and
    otherwise replaces the shared edge within 1e-9 above it, if any."""
    steps = np.pi * 0.5 ** np.arange(2, 26)
    steps = steps[steps > 1e-7]
    edges = {0.0, np.pi}
    for s in extra_splits:
        split = np.arccos(s)
        edges |= {e for e in np.concatenate([split - steps, [split], split + steps])
                  if 0.0 <= e <= np.pi}
    if grade_endpoints:
        edges |= set(steps) | set(np.pi - steps)
    srt = sorted(edges)
    shared = [srt[0]]
    for e in srt[1:]:
        if e - shared[-1] > 1e-9:
            shared.append(e)
    shared[-1] = np.pi
    if theta - max(e for e in shared if e < theta) <= 1e-9:
        return np.array(shared)
    return np.array(sorted([e for e in shared if abs(e - theta) > 1e-9] + [theta]))


def _panel_rule(h, t, extra_splits=(), grade_endpoints=False):
    """The theta-panel rule for one point: 64-point Gauss-Legendre terms on
    its panels, summed in panel order."""
    edges = _rule_edges(np.arccos(t), extra_splits, grade_endpoints)
    lo, hi = edges[:-1, None], edges[1:, None]
    z, w = np.polynomial.legendre.leggauss(64)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    x = np.cos(mid + half * z)
    ht = np.asarray(h(np.array([t])), dtype=complex)
    total = np.sum(half * w * ((np.asarray(h(x.ravel())).reshape(x.shape) - ht) / (x - t)))
    return complex(total.real / np.pi, total.imag / np.pi)


def test_theta_panels_are_each_points_merged_edges():
    # a split 5e-10 rad from 3 pi / 4 puts a step of its grading 5e-10
    # below pi: the shared merge drops pi and moves that edge onto it
    off_pi = (math.cos(3 * math.pi / 4 - 5e-10),)
    assert np.pi - transform._shared_edges(off_pi, True)[-2] <= 1e-9
    cases = [((), False, np.arccos(_PANEL_PTS)),
             ((), True, np.arccos(_EDGE_PTS)),
             (_SNAP_SPLITS, True, np.arccos(_SNAP_PTS)),
             ((-0.2, 0.4, 0.4 + 5e-10), True, np.arccos(np.linspace(-0.99, 0.99, 301))),
             (off_pi, True, np.arccos([-1 + 2 ** -52, -0.99999, -0.5, 0.3]))]
    for splits, graded, theta in cases:
        lo, hi, rows, counts = transform._theta_panels(theta, splits, graded)
        m = len(lo) - 2 * len(theta)           # shared panels
        assert hi[m - 1] == np.pi
        for th, row, k in zip(theta, rows, counts):
            want = _rule_edges(th, splits, graded)
            assert np.array_equal(lo[row[:k]], want[:-1]) and np.array_equal(hi[row[:k]], want[1:])
            own = np.flatnonzero(row[:k] >= m)
            if len(own) == 0:                  # dropped onto the edge just below
                assert k == m and 0 < th - lo[row[np.searchsorted(lo[row[:k]], th) - 1]] <= 1e-9
            else:
                assert len(own) == 2 and own[1] == own[0] + 1
                assert hi[row[own[0]]] == th == lo[row[own[1]]]
    lo, hi, rows, counts = transform._theta_panels(np.arccos(_SNAP_PTS), _SNAP_SPLITS, True)
    m = len(lo) - 2 * len(_SNAP)
    kinds = {"dropped": (m, False), "moved": (m, True), "split": (m + 1, True)}
    assert [(k, bool(np.any(r[:k] >= m))) for r, k in zip(rows, counts)] == \
        [kinds[kind] for _, kind in _SNAP]


@pytest.mark.parametrize("block", [None, 500])
def test_theta_panels_array_form_matches_point_loop(block, monkeypatch):
    # 500 nodes hold at most two points' panels, so most calls span blocks;
    # every point's value is the one-point rule's, bit for bit
    if block is not None:
        monkeypatch.setattr(chebalg, "_PANEL_BLOCK", block)
    pts = np.concatenate([_PANEL_PTS, _EDGE_PTS, _SNAP_PTS])
    for h, kw in _panel_cases():
        rule = np.array([_panel_rule(h, t, **kw) for t in pts])
        loop = np.array([fht_over_w_point(h, float(t), **kw) for t in pts])
        got = fht_over_w_point(h, pts, **kw)
        assert got.shape == pts.shape and got.dtype == complex
        assert np.array_equal(got, loop) and np.array_equal(got, rule)
        grid = fht_over_w_point(h, pts.reshape(2, 13), **kw)
        assert grid.shape == (2, 13)
        assert np.array_equal(grid.ravel(), loop)


def test_theta_panels_batch_the_integrand_calls():
    calls = []

    def h(x):
        calls.append(len(x))
        return C.chebval(x, _Q)

    fht_over_w_point(h, _PANEL_PTS)
    assert len(calls) == 2          # h(t) at the points, then one block of panels
    assert calls[0] == len(_PANEL_PTS)


def test_theta_panels_share_the_integrand_nodes():
    # graded, no splits: 48 shared edges, 47 shared panels.  Each point's
    # theta cuts one of them into two panels of its own, so h sees the 61
    # points and (47 + 2 * 61) * 64 nodes, where 61 rules of 48 panels
    # would take 61 * 48 * 64
    calls = []

    def h(x):
        calls.append(len(x))
        return C.chebval(x, _Q)

    fht_over_w_point(h, np.linspace(-0.9, 0.9, 61), grade_endpoints=True)
    assert calls == [61, (47 + 2 * 61) * 64]


def test_theta_panels_refuse_an_integrand_not_finite_at_a_node():
    # nodes of the first graded panel round onto x = 1, where h = p/w of
    # this w^{-1} piece is 0/0; the exact T(h/w)(0.3) is 0.018872
    f = Profile(((0.0, 1.0, (0.5, -0.5), -1),))
    assert f.fht_over_w_values(np.array([0.3]))[0].real == pytest.approx(0.018872, abs=1e-6)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"endpoint x = \+1"):
        fht_over_w_point(f.eval, 0.3, grade_endpoints=True)


@pytest.mark.parametrize("graded", [False, True])
def test_theta_panels_refuse_a_point_whose_sum_is_not_finite(graded):
    # at t = 1 - 6.9e-14 nodes next to theta round onto t: the quotient is 0/0
    t = math.cos(math.pi * 2.0**-23)
    with pytest.raises(ValueError, match=re.escape(f"t = {t!r}")):
        fht_over_w_point(lambda x: C.chebval(x, _Q), np.array([0.3, t]), grade_endpoints=graded)


@pytest.mark.parametrize("t", [1.0, -1.0, 1.5, math.nan])
def test_theta_panels_refuse_points_outside_the_interval(t):
    with pytest.raises(fh.TransformDomainError):
        fht_over_w_point(lambda x: np.ones_like(x), t)
    with pytest.raises(fh.TransformDomainError):
        fht_over_w_point(lambda x: np.ones_like(x), np.array([0.3, t]))


def test_theta_panels_scalar_point_returns_complex():
    for h, kw in _panel_cases():
        val = fht_over_w_point(h, 0.3, **kw)
        assert type(val) is complex
        assert val == fht_over_w_point(h, np.array([0.3]), **kw)[0]
    assert fht_over_w_point(np.cos, np.array([])).shape == (0,)


def test_oracle_on_known_value():
    # T(chi_(0,1))(-0.5) = ln(3)/pi with a jump declared at 0
    val = fh.pv_oracle(lambda y: (y > 0).astype(float), -0.5, singular=(0.0,))
    assert val == pytest.approx(math.log(3.0) / math.pi, abs=1e-10)


# ----------------------------------------------------------- vectorized oracle

def _kernel_probe():
    nodes = fh.make_grid(512)[0]
    inner = nodes[np.abs(nodes) <= 0.9]
    return inner[:: max(1, len(inner) // 32)]


def _invw(x):
    return 1.0 / np.sqrt(1.0 - x * x)


def _monomial_transform(k, t):
    # x^k/(x - t) = t^k/(x - t) + sum_j t^j x^(k-1-j), and int x^m = 2/(m+1), m even
    regular = sum(t**j * 2.0 / (k - j) for j in range(k) if (k - 1 - j) % 2 == 0)
    return (t**k * np.log((1 - t) / (1 + t)) + regular) / math.pi


def test_oracle_keeps_imaginary_part():
    val = fh.pv_oracle(lambda x: 1j * x * x, 0.3)
    assert val == pytest.approx(0.17325176471291j, abs=1e-12)
    assert val == pytest.approx(fh.fht_point(lambda x: 1j * x * x, 0.3), abs=1e-10)
    g = fh.from_callable(lambda x: np.exp(1j * x) + x, 64)    # complex samples, no profile
    assert g.profile is None and np.abs(g.values.imag).max() > 0.5
    ts = np.array([-0.6, 0.1, 0.7])
    got = fh.pv_oracle(g, ts)
    want = np.array([fh.fht_point(g, t) for t in ts])
    assert np.abs(want.imag).min() > 0.1
    assert np.abs(got - want).max() <= 1e-10


def test_oracle_scalar_and_array_shapes():
    assert np.ndim(fh.pv_oracle(_invw, 0.2)) == 0
    ts = np.array([[-0.5, 0.1], [0.3, 0.8]])
    assert fh.pv_oracle(_invw, ts).shape == (2, 2)


@pytest.mark.parametrize("fn", [_invw, lambda x: 1 + x - 2 * x**3 + 0.5 * x**8,
                                lambda x: np.exp(1j * x)])
def test_oracle_array_matches_scalar_loop(fn):
    probe = _kernel_probe()
    got = fh.pv_oracle(fn, probe)
    loop = np.array([fh.pv_oracle(fn, float(t)) for t in probe])
    assert np.abs(got - loop).max() <= 1e-13


def test_oracle_kernel_sup():
    probe = _kernel_probe()
    assert len(probe) == 34
    assert np.abs(fh.pv_oracle(_invw, probe)).max() <= 1e-10


def test_oracle_weights():
    ts = np.array([-0.8, -0.2, 0.35, 0.9])
    # T(w) = -t and T(T_2/w) = U_1 = 2t
    got = fh.pv_oracle(lambda x: np.sqrt((1 - x) * (1 + x)), ts)
    assert np.abs(got + ts).max() <= 1e-12
    got = fh.pv_oracle(lambda x: (2 * x * x - 1) / np.sqrt((1 - x) * (1 + x)), ts)
    assert np.abs(got - 2 * ts).max() <= 1e-12


@pytest.mark.parametrize("k", range(9))
def test_oracle_monomials(k):
    ts = np.array([-0.95, -0.6, -0.05, 0.3, 0.7, 0.95])
    got = fh.pv_oracle(lambda x: x**k, ts)
    assert np.abs(got - _monomial_transform(k, ts)).max() <= 1e-12


def test_oracle_per_point_jumps():
    rng = np.random.default_rng(7)
    ts, xs = rng.uniform(-0.95, 0.95, (2, 400))
    keep = (np.abs(ts - xs) > 0.05) & (np.minimum(1 - np.abs(ts), 1 - np.abs(xs)) > 0.05)
    ts, xs = ts[keep][:100], xs[keep][:100]
    got = fh.pv_oracle(lambda y: (y > ts[:, None]).astype(float), xs, singular=ts[:, None])
    want = np.array([fh.fht_indicator(ivals((t, 1.0)), x).real for t, x in zip(ts, xs)])
    assert len(ts) == 100
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-3)) <= 1e-10


def test_oracle_graded_ends():
    # T(T_1/w) = U_0 = 1: 1/w is singular at the end each side's graded segment touches
    ts = np.array([-0.95, 0.95])
    got = fh.pv_oracle(lambda x: x / np.sqrt(1 - x * x), ts)
    assert np.abs(got - 1.0).max() <= 1e-10
    got = fh.pv_oracle(lambda x: np.sign(x) / np.sqrt((1 - x) * (1 + x)), ts,
                       singular=(0.0,))
    # T(sigma/w)(t) = (2/pi) ln((1 + w(t))/|t|) / w(t), the Rybakov closed form
    w = math.sqrt(1 - 0.95**2)
    want = 2 / math.pi * math.log((1 + w) / 0.95) / w
    assert np.abs(got - want).max() <= 1e-10


def test_oracle_raises_instead_of_returning_unconverged_values():
    with pytest.raises(fh.OracleConvergenceError, match="not reached"):
        fh.pv_oracle(lambda x: np.sin(1e4 * x), 0.1)
    with pytest.raises(fh.OracleConvergenceError, match="Non-finite"):
        fh.pv_oracle(lambda x: np.where(x > 0.5, np.nan, x), 0.0)
    with pytest.raises(ValueError, match="exclusion radius"):
        fh.pv_oracle(_invw, 0.9995)
    # a declared jump inside the exclusion radius would break the extrapolation
    with pytest.raises(ValueError, match="within eps"):
        fh.pv_oracle(lambda y: (y > 0).astype(float), np.array([0.3, 5e-4]), singular=(0.0,))


def test_oracle_is_independent_of_the_closed_forms(monkeypatch):
    from finhilbert import chebalg as ca

    f = fh.fht_grid(fh.indicator_fn((-0.3, 0.45), 256))    # log-mix image
    ts = np.array([-0.7, 0.1, 0.6])
    want = np.array([fh.fht_point(f, t) for t in ts])
    want_poly = fh.fht_point(fh.poly_fn([0.2, 1.0, 0.0, -1.0], 64), 0.4)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle used a library transform")

    monkeypatch.setattr(Profile, "fht_values", forbidden)
    monkeypatch.setattr(ca, "fht_series", forbidden)
    monkeypatch.setattr(ca, "fht_log_kernel", forbidden)
    got = fh.pv_oracle(f, ts, singular=(-0.3, 0.45))
    assert np.abs(got - want).max() <= 1e-8
    got = fh.pv_oracle(lambda x: 0.2 + x - x**3, 0.4)
    assert got == pytest.approx(want_poly, abs=1e-12)


# ------------------------------------------------------------------- cut guard

def test_cut_guard_lists_the_offending_cuts():
    prof = Profile(((-0.2, 0.5, (1.0,), 0),))
    nodes = np.array([-0.2 - 1e-15, 0.1, 0.3, 0.5 + 5e-15])
    f = fh.GridFunction(nodes, prof.eval(nodes), np.full(4, 0.5), "custom", prof)
    with pytest.raises(fh.SingularEvaluationError) as err:
        fh.fht_grid(f)
    assert str(err.value) == "evaluation at discontinuity point(s) [-0.2, 0.5]"
    with pytest.raises(fh.SingularEvaluationError, match=r"\[0\.5\]"):
        fh.fht_point(fh.indicator_fn((0.0, 0.5), 64), 0.5 - 1e-14)
    # just outside the cut guard (1e-12)
    val = fh.fht_point(fh.indicator_fn((0.0, 0.5), 64), 0.5 - 1e-11)
    assert val.real == pytest.approx(-math.log(0.5 / 1e-11) / math.pi, abs=1e-4)


def test_cut_guard_matches_the_pairwise_loop():
    from finhilbert.transform import _guard_cuts

    rng = np.random.default_rng(3)
    guard = 1e-12
    for trial in range(200):
        cuts = sorted(set(np.round(rng.uniform(-0.9, 0.9, rng.integers(1, 6)), 3).tolist()))
        # steps 1, 2, 3, ... between the cuts: every cut is a jump
        ends = [-1.0] + cuts + [1.0]
        steps = Profile(tuple((a, b, (k + 1.0,), 0) for k, (a, b) in enumerate(zip(ends, ends[1:]))))
        near = rng.choice(cuts, 2) + rng.uniform(-2, 2, 2) * guard
        pts = np.concatenate([rng.uniform(-0.99, 0.99, 5), near])
        want = sorted({p for p in cuts for x in pts if abs(x - p) < guard})
        if want:
            with pytest.raises(fh.SingularEvaluationError) as err:
                _guard_cuts(steps, pts, guard)
            assert str(err.value) == f"evaluation at discontinuity point(s) {want}"
        else:
            _guard_cuts(steps, pts, guard)


def test_cut_guard_refuses_jumps_and_reads_kinks():
    # |x| sampled at 3 uniform nodes has a kink at its node 0; chi_(0,1) jumps there
    kink = fh.from_callable(np.abs, 3, family="uniform")
    want = _kink_form(kink.nodes, kink.values.real, np.array([0.0]))[0]
    assert fh.fht_point(kink, 0.0) == pytest.approx(want, abs=1e-15)
    with pytest.raises(fh.SingularEvaluationError, match=r"\[0\.0\]"):
        fh.fht_point(fh.indicator_fn((0.0, 1.0), 3, "uniform"), 0.0)

