"""Grid functions, interval sets, quadrature and serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finhilbert as fh


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


def test_weights_nonnegative():
    with pytest.raises(ValueError):
        fh.GridFunction(np.array([0.0, 0.5]), np.zeros(2), np.array([0.5, -0.1]))


@pytest.mark.parametrize("n", [64, 256, 512])
def test_builtin_weights_sum_to_two(n):
    for family in ("chebyshev-gauss", "uniform"):
        _, w = fh.make_grid(n, family)
        assert abs(w.sum() - 2.0) <= 1e-10
        assert np.all(w >= 0)


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

def test_cheb_fit_constant():
    series = fh.cheb_fit(fh.const_fn(1.0, 32))
    coeffs = series.asarray()
    assert coeffs[0] == pytest.approx(1.0, abs=1e-13)
    assert np.abs(coeffs[1:]).max() <= 1e-13


def test_cheb_fit_linear():
    series = fh.cheb_fit(fh.poly_fn([0, 1], 32))
    coeffs = series.asarray()
    assert coeffs[1] == pytest.approx(1.0, abs=1e-13)


def test_cheb_fit_t2():
    series = fh.cheb_fit(fh.poly_fn([-1, 0, 2], 32))   # 2x^2 - 1 = T_2
    coeffs = series.asarray()
    assert coeffs[2] == pytest.approx(1.0, abs=1e-13)
    assert abs(coeffs[0]) + abs(coeffs[1]) <= 1e-13


def test_cheb_roundtrip_polynomial():
    f = fh.poly_fn([0.2, -1.0, 0.0, 0.7, 0.1], 64)
    series = fh.cheb_fit(f)
    xs = np.linspace(-0.99, 0.99, 40)
    truth = 0.2 - xs + 0.7 * xs**3 + 0.1 * xs**4
    assert np.abs(fh.cheb_eval(series, xs) - truth).max() <= 1e-12


def test_cheb_fit_degree_guard():
    with pytest.raises(ValueError):
        fh.cheb_fit(fh.const_fn(1.0, 8), degree=20)


# ---------------------------------------------------------------- serialization

def test_csv_roundtrip(tmp_path):
    f = fh.poly_fn([0.5, 1.0, -0.25], 64)
    path = tmp_path / "f.csv"
    f.to_csv(str(path))
    g = fh.GridFunction.from_csv(str(path))
    assert np.array_equal(f.nodes, g.nodes)
    assert np.array_equal(f.values, g.values)
    assert np.array_equal(f.weights, g.weights)


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
