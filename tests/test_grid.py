"""Grid functions, interval sets, quadrature and serialization."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finhilbert as fh
from finhilbert.profiles import Profile


def ivals(*pairs):
    return fh.IntervalSet(tuple(pairs))


# ------------------------------------------------------------------ invariants

def test_nodes_must_be_interior():
    with pytest.raises(ValueError):
        fh.GridFunction(np.array([-1.0, 0.5]), np.zeros(2), np.ones(2))


def test_nodes_must_increase():
    with pytest.raises(ValueError):
        fh.GridFunction(np.array([0.5, 0.1]), np.zeros(2), np.ones(2))


def test_lengths_must_match():
    with pytest.raises(ValueError):
        fh.GridFunction(np.array([0.0, 0.5]), np.zeros(3), np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_samples_must_be_finite(bad):
    with pytest.raises(ValueError):
        fh.GridFunction(np.array([0.0, 0.5]), np.array([1.0, bad]), np.ones(2))
    with pytest.raises(ValueError):
        fh.from_callable(lambda x: np.where(x > 0, bad, 1.0), 16)


def test_eval_at_fits_the_interpolant_once(monkeypatch):
    from finhilbert import chebalg as ca

    f = fh.from_callable(np.exp, 64)
    calls = []
    fit = ca.fit_chebyshev
    monkeypatch.setattr(ca, "fit_chebyshev", lambda v: calls.append(1) or fit(v))
    for x in (0.1, -0.4, np.array([0.2, 0.3])):
        assert np.allclose(f.eval_at(x), np.exp(x), atol=1e-13)
    assert len(calls) == 1


def test_structure_is_what_eval_at_reads():
    import dataclasses

    prof = fh.poly_fn([0.2, -1.0, 0.5], 64)
    cheb = fh.from_callable(np.exp, 64)
    uniform = fh.from_callable(np.exp, 64, family="uniform")
    assert prof.structure is prof.profile
    assert cheb.structure is cheb.structure          # cached
    assert np.array_equal(cheb.structure.series(), cheb._interpolant)
    # uniform samples: their piecewise-linear interpolant, 63 linear pieces
    # between the nodes and a constant one out to each of -1 and 1
    assert isinstance(uniform.structure, Profile) and len(uniform.structure.pieces) == 65
    xs = np.linspace(-0.999, 0.999, 7)
    for f in (prof, cheb, uniform):
        assert np.array_equal(f.eval_at(xs), f.structure.eval(xs))
    linear = np.interp(xs, uniform.nodes, np.exp(uniform.nodes))
    assert np.abs(uniform.eval_at(xs) - linear).max() <= 1e-15 * np.abs(linear).max()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cheb.structure = None


def test_weights_nonnegative():
    with pytest.raises(ValueError):
        fh.GridFunction(np.array([0.0, 0.5]), np.zeros(2), np.array([0.5, -0.1]))


@pytest.mark.parametrize("n", [64, 256, 512])
def test_builtin_weights_sum_to_two(n):
    for family in ("chebyshev-gauss", "uniform"):
        _, w = fh.make_grid(n, family)
        assert abs(w.sum() - 2.0) <= 1e-10
        assert np.all(w >= 0)


@pytest.mark.parametrize("family", ["chebyshev-gauss", "uniform"])
def test_make_grid_returns_shared_read_only_arrays(family):
    from finhilbert import chebalg as ca

    nodes, weights = fh.make_grid(96, family)
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 1.0
    fresh = ((ca.chebyshev_nodes(96), ca.fejer1_weights(96)) if family == "chebyshev-gauss"
             else (ca.uniform_nodes(96), np.full(96, 2.0 / 96)))
    assert np.array_equal(nodes, fresh[0]) and np.array_equal(weights, fresh[1])
    again = fh.make_grid(96, family)
    assert again[0] is nodes and again[1] is weights
    with pytest.raises(ValueError):
        fh.make_grid(96, "legendre")


@pytest.mark.parametrize("family, least", [("chebyshev-gauss", 3), ("uniform", 1)])
def test_make_grid_refuses_too_few_nodes(family, least):
    # below 3 Chebyshev nodes the calibration in span{1, w} is singular
    for n in range(-1, least):
        with pytest.raises(ValueError, match=f"at least {least} nodes"):
            fh.make_grid(n, family)
    _, weights = fh.make_grid(least, family)
    assert abs(weights.sum() - 2.0) <= 1e-15
    assert np.abs(weights - weights[::-1]).max() <= 1e-15


def test_grid_function_on_cached_grid_takes_new_values():
    nodes, weights = fh.make_grid(64)
    f = fh.GridFunction(nodes, np.cos(nodes), weights)
    g = f.with_values(np.sin(nodes))
    assert g.nodes is nodes and g.weights is weights
    assert np.allclose(g.eval_at(np.array([0.3])), np.sin(0.3), atol=1e-13)
    # the weights are calibrated on w, which perturbs them by about 1e-6 at n = 64
    assert fh.integrate(f).real == pytest.approx(2 * math.sin(1.0), abs=1e-5)
    assert np.array_equal(fh.make_grid(64)[0], fh.poly_fn([0, 1], 64).values.real)


def test_values_are_immutable(one):
    with pytest.raises(ValueError):
        one.values[0] = 5.0


# ------------------------------------------------------------------- integrate

def test_integrate_constant(one):
    assert fh.integrate(one) == pytest.approx(2.0, abs=1e-14)


def test_integrate_odd(xfun):
    assert abs(fh.integrate(xfun)) <= 1e-14


def test_integrate_semicircle_at_256_nodes():
    w = fh.weight_fn(256)
    assert abs(fh.integrate(w) - math.pi / 2) <= 1e-8
    # the weighted-sample rule alone must reach the same tolerance
    assert abs(w.weights @ w.values.real - math.pi / 2) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_integrate_is_linear(a, b):
    f = fh.poly_fn([0.3, 1.0], 64)
    g = fh.poly_fn([1.0, 0, -2.0], 64)
    combo = a * f + b * g
    lhs = fh.integrate(combo)
    rhs = a * fh.integrate(f) + b * fh.integrate(g)
    scale = 1 + abs(a) + abs(b)
    assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("n", [9, 64, 512])
def test_integrate_uniform_samples_is_the_midpoint_rule(n):
    # the linear interpolant on midpoint nodes: end pieces of width 1/n at
    # the end values, trapezoids of width 2/n between, so (2/n) sum v
    f = fh.from_callable(lambda x: np.exp(x) * np.cos(4 * x) + 1j * x, n, family="uniform")
    want = 2.0 / n * np.sum(f.values)
    assert abs(fh.integrate(f) - want) <= 1e-15 * n * np.abs(f.values).max()


def test_integrate_custom_samples_is_the_trapezoid_sum_plus_the_end_pieces():
    x = np.array([-0.9, -0.41, 0.05, 0.3, 0.77])
    v = np.array([1.5, -0.2, 0.7, 2.0, -1.1])
    f = fh.GridFunction(x, v, np.full(5, 0.4), "custom")
    trapezoids = sum((v[k] + v[k + 1]) / 2 * (x[k + 1] - x[k]) for k in range(4))
    ends = v[0] * (x[0] + 1.0) + v[-1] * (1.0 - x[-1])
    assert fh.integrate(f) == pytest.approx(trapezoids + ends, abs=1e-15)


# -------------------------------------------------------------------- restrict

def test_restrict_full_is_identity(one):
    r = fh.restrict(one, ivals((-1.0, 1.0)))
    assert np.allclose(r.values, one.values)


def test_restrict_empty_is_zero(one):
    r = fh.restrict(one, fh.IntervalSet.empty())
    assert np.all(r.values == 0)


def test_restrict_then_integrate_measures(one):
    r = fh.restrict(one, ivals((0.0, 1.0)))
    assert fh.integrate(r).real == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-0.99, 0.99), min_size=2, max_size=6, unique=True))
def test_restrict_idempotent(points):
    pts = sorted(points)
    pairs = tuple((pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2))
    A = fh.IntervalSet(pairs)
    f = fh.poly_fn([1.0, 0.5], 64)
    once = fh.restrict(f, A)
    twice = fh.restrict(once, A)
    assert np.array_equal(once.values, twice.values)


def test_restrict_cuts_the_interpolant_of_log_terms():
    # the values stay the masked samples; log terms cannot be cut exactly, so
    # the profile is the interpolant of the samples, cut at A
    g0 = fh.rybakov_functional(64)
    assert g0.structure.logs
    r = fh.restrict(g0, (-0.3, 0.2))
    inside = (g0.nodes > -0.3) & (g0.nodes < 0.2)
    assert np.array_equal(r.values, np.where(inside, g0.values, 0.0))
    assert r.profile.breakpoints() == [-0.3, 0.2] and not r.profile.logs
    assert np.abs(r.profile.eval(g0.nodes) - r.values).max() <= 1e-13


# ----------------------------------------------------------------- IntervalSet

def test_interval_set_orders_and_validates():
    s = ivals((0.2, 0.5), (-0.5, 0.0))
    assert s.intervals == ((-0.5, 0.0), (0.2, 0.5))
    assert s.measure() == pytest.approx(0.8)
    with pytest.raises(ValueError):
        ivals((0.5, 0.2))
    with pytest.raises(ValueError):
        ivals((-1.5, 0.0))


def test_interval_set_complement_and_intersection():
    s = ivals((-0.5, 0.0), (0.25, 0.75))
    comp = s.complement()
    assert comp.measure() + s.measure() == pytest.approx(2.0)
    assert s.intersect(comp).measure() == pytest.approx(0.0)
    assert s.intersect(s).measure() == pytest.approx(s.measure())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-0.999, 0.999), min_size=2, max_size=8, unique=True),
       st.lists(st.floats(-0.999, 0.999), min_size=2, max_size=8, unique=True))
def test_interval_algebra_closed(p1, p2):
    def build(pts):
        pts = sorted(pts)
        return fh.IntervalSet(tuple((pts[i], pts[i + 1])
                                    for i in range(0, len(pts) - 1, 2)))
    a, b = build(p1), build(p2)
    for s in (a.complement(), a.intersect(b), a.union(b)):
        m = s.measure()
        assert 0.0 <= m <= 2.0 + 1e-12
        starts = [lo for lo, _ in s]
        assert starts == sorted(starts)


# --------------------------------------------------------------- from_callable

def test_from_callable_broadcasts_scalar():
    f = fh.from_callable(lambda x: 2.5 - 1j, 16)
    assert f.values.shape == (16,)
    assert np.all(f.values == 2.5 - 1j)


def test_from_callable_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        fh.from_callable(lambda x: x[:-1], 16)
    with pytest.raises(ValueError):
        fh.from_callable(lambda x: np.stack([x, x]), 16)


# ------------------------------------------------------------- Chebyshev series

def _fit(f):
    """Chebyshev coefficients of f's samples: the structure of the same
    samples without their profile."""
    return f.with_values(f.values).structure.series()


def test_cheb_fit_constant():
    coeffs = _fit(fh.const_fn(1.0, 32))
    assert coeffs[0] == pytest.approx(1.0, abs=1e-13)
    assert np.abs(coeffs[1:]).max() <= 1e-13


def test_cheb_fit_linear():
    coeffs = _fit(fh.poly_fn([0, 1], 32))
    assert coeffs[1] == pytest.approx(1.0, abs=1e-13)


def test_cheb_fit_t2():
    coeffs = _fit(fh.poly_fn([-1, 0, 2], 32))   # 2x^2 - 1 = T_2
    assert coeffs[2] == pytest.approx(1.0, abs=1e-13)
    assert abs(coeffs[0]) + abs(coeffs[1]) <= 1e-13


def test_cheb_roundtrip_polynomial():
    f = fh.poly_fn([0.2, -1.0, 0.0, 0.7, 0.1], 64)
    coeffs = _fit(f)
    xs = np.linspace(-0.99, 0.99, 40)
    truth = 0.2 - xs + 0.7 * xs**3 + 0.1 * xs**4
    assert np.abs(np.polynomial.chebyshev.chebval(xs, coeffs) - truth).max() <= 1e-12


# ---------------------------------------------------------------- serialization

def test_csv_roundtrip(tmp_path):
    f = fh.poly_fn([0.5, 1.0, -0.25], 64)
    path = tmp_path / "f.csv"
    f.to_csv(str(path))
    g = fh.GridFunction.from_csv(str(path))
    assert np.array_equal(f.nodes, g.nodes)
    assert np.array_equal(f.values, g.values)
    assert np.array_equal(f.weights, g.weights)


def test_csv_bytes_match_elementwise_writer(tmp_path):
    nodes = np.array([-0.75, -1e-300, 0.0, 0.3, 0.9])
    values = np.array([1.0 / 3.0 - 0.0j, -0.0 + 2.5e-17j, 1e300 - 1j, np.pi, -1e-320 + 0.1j])
    f = fh.GridFunction(nodes, values, np.array([0.1, 0.2, 0.0, 1.7, 2.0 / 7.0]), "custom")
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["node", "re", "im", "weight"])
    for row in zip(f.nodes, f.values.real, f.values.imag, f.weights):
        writer.writerow([repr(float(v)) for v in row])
    got = io.StringIO()
    f.to_csv(got)
    assert got.getvalue() == want.getvalue()
    path = tmp_path / "f.csv"
    f.to_csv(str(path))
    assert path.read_bytes() == want.getvalue().encode()
    g = fh.poly_fn([0.5, 1.0, -0.25], 64) * (1 - 2j)
    assert g.to_dict()["re"] == [float(v) for v in g.values.real]


def test_json_roundtrip():
    f = fh.from_callable(lambda x: np.exp(1j * x), 32)
    g = fh.GridFunction.from_json(f.to_json())
    assert np.array_equal(f.values, g.values)
    assert np.array_equal(f.weights, g.weights)


def test_json_file_roundtrip(tmp_path):
    f = fh.poly_fn([1, 2], 16)
    path = tmp_path / "f.json"
    f.to_json(str(path))
    g = fh.GridFunction.from_json(str(path))
    assert np.array_equal(f.values, g.values)
