"""Finite Hilbert transform evaluators.

Convention, fixed throughout the library:

    T(f)(t) = (1/pi) pv int_{-1}^{1} f(x) / (x - t) dx .

Three families of evaluators, matched to the singular structure of the
integrand:

* closed forms / coefficient identities for polynomials, piecewise
  polynomials (indicators), w-weighted series and log-mix images;
* subtract-the-singularity adaptive quadrature for smooth callables, with
  cos(theta) substitution variants absorbing w / (1/w) factors exactly;
* an independent symmetric-exclusion principal-value rule with Richardson
  extrapolation (:func:`pv_oracle`) used as the cross-checking oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from . import chebalg as ca
from .grid import CHEBYSHEV, GridFunction, ChebyshevSeries, cheb_fit
from .intervals import IntervalSet
from .profiles import PiecewiseProfile, PolyProfile

SUBTRACT = "subtract-singularity"
SPECTRAL = "spectral"
AUTO = "closed-form-auto"


class TransformDomainError(ValueError):
    """Evaluation point outside the open interval (-1, 1)."""


class SingularEvaluationError(ValueError):
    """Evaluation at a point where the transform has a genuine singularity."""


class MethodError(ValueError):
    """Requested quadrature method cannot handle the integrand's structure."""


@dataclass(frozen=True)
class PVConfig:
    epsilon_floor: float = 1e-12
    method: str = AUTO

    def __post_init__(self):
        if self.epsilon_floor <= 0:
            raise ValueError("epsilon_floor must be positive")
        if self.method not in (SUBTRACT, SPECTRAL, AUTO):
            raise ValueError(f"unknown method: {self.method}")


_DEFAULT = PVConfig()


def _check_interior(t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t <= -1.0) or np.any(t >= 1.0):
        raise TransformDomainError("evaluation points must lie in (-1, 1)")
    return t


# ----------------------------------------------------------------- entry points

def fht_point(f, t, cfg=_DEFAULT):
    """Transform of a grid function or callable at a single point."""
    tt = float(np.asarray(t))
    _check_interior(tt)
    if isinstance(f, GridFunction):
        return complex(_grid_transform_values(f, np.array([tt]), cfg)[0])
    if cfg.method == SPECTRAL:
        from .grid import from_callable

        return fht_point(from_callable(f), tt, cfg)
    return complex(_fht_callable(f, tt))


def fht_grid(f, cfg=_DEFAULT):
    """Transform evaluated at every node of f; nodes and weights preserved."""
    values = _grid_transform_values(f, f.nodes, cfg)
    prof = None
    if cfg.method != SUBTRACT and f.profile is not None:
        prof = f.profile.fht_profile()
    return f.with_values(values, prof)


def _grid_transform_values(f, pts, cfg):
    if f.profile is not None:
        if cfg.method == SUBTRACT and isinstance(f.profile, PiecewiseProfile):
            raise MethodError(
                "integrand is discontinuous; use the closed-form interval splitting "
                "(method='closed-form-auto') instead of singularity subtraction"
            )
        if isinstance(f.profile, PiecewiseProfile):
            guard = max(cfg.epsilon_floor, 1e-14)
            bad = [p for p in f.profile.breakpoints() for x in pts if abs(x - p) < guard]
            if bad:
                raise SingularEvaluationError(
                    f"evaluation at discontinuity point(s) {sorted(set(bad))}"
                )
        if cfg.method != SUBTRACT:
            return f.profile.fht_values(pts)
        return np.array([_fht_callable(f.eval_at, float(x)) for x in pts])
    if cfg.method == SUBTRACT or f.node_family != CHEBYSHEV:
        return np.array([_fht_callable(f.eval_at, float(x)) for x in pts])
    # profile-free samples on the Chebyshev family: spectral via the interpolant
    return ca.fht_series(ca.fit_chebyshev(f.values), np.asarray(pts, dtype=float))


def fht_indicator(interval_set, x):
    """T(chi_A)(x) = (1/pi) sum over intervals (a,b) of ln|(b-x)/(a-x)|."""
    if isinstance(interval_set, tuple) and not isinstance(interval_set[0], tuple):
        interval_set = IntervalSet((interval_set,))
    xs = _check_interior(x)
    out = np.zeros(xs.shape)
    for a, b in interval_set:
        if np.any(np.abs(xs - a) < 1e-14) or np.any(np.abs(xs - b) < 1e-14):
            raise SingularEvaluationError(
                "transform of an indicator diverges at the interval endpoints"
            )
        out = out + np.log(np.abs((b - xs) / (a - xs)))
    out = out / np.pi
    return complex(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def fht_product_indicator(f, interval_set, cfg=_DEFAULT):
    """T(f * chi_A) on f's grid, with interval-split closed forms at the cuts."""
    if isinstance(interval_set, tuple) and not isinstance(interval_set[0], tuple):
        interval_set = IntervalSet((interval_set,))
    if interval_set.is_empty():
        return f.with_values(np.zeros(len(f), dtype=complex),
                             PiecewiseProfile(()))
    prof = f.profile.restricted(interval_set) if f.profile is not None else None
    if prof is None:
        base = PolyProfile(cheb_fit(f, degree=min(len(f) - 1, 48)).asarray(), 0)
        prof = base.restricted(interval_set)
    restricted = f.with_values(prof.eval(f.nodes), prof)
    return fht_grid(restricted, cfg)


def fht_chebyshev(series, weighted="plain"):
    """Transform in coefficient space.

    ``over_w`` and ``times_w`` are exact identities; ``plain`` refits the
    (non-polynomial) image on a finer grid, so its accuracy near the
    endpoints is limited by the logarithmic terms unless the input vanishes
    there.
    """
    c = series.asarray() if isinstance(series, ChebyshevSeries) else np.asarray(series, dtype=complex)
    if not np.all(np.isfinite(c)):
        raise ValueError("series coefficients must be finite")
    if weighted == "over_w":
        return ChebyshevSeries(ca.fht_over_w_series(c))
    if weighted == "times_w":
        return ChebyshevSeries(ca.fht_times_w_series(c))
    if weighted != "plain":
        raise ValueError(f"unknown weighting tag: {weighted}")
    n = max(2 * len(c), 64)
    xs = ca.chebyshev_nodes(n)
    return ChebyshevSeries(ca.fit_chebyshev(ca.fht_series(c, xs)))


# ------------------------------------------------------- quadrature evaluators

def _eval_vec(fn, x):
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    fv = np.asarray(fn(xv))
    if fv.ndim == 0:
        fv = np.full(xv.shape, complex(fv))
    return xv, fv


def _fht_callable(fn, t, singular=()):
    """Subtract-the-singularity adaptive quadrature for a smooth callable."""
    ft = complex(_eval_vec(fn, np.array([t]))[1][0])

    def quotient(x):
        xv, fv = _eval_vec(fn, x)
        return (fv - ft) / (xv - t)

    pts = sorted(p for p in set(singular) | {t} if -1.0 < p < 1.0)
    re = quad(lambda x: float(quotient(x).real[0]), -1.0, 1.0, points=pts, limit=300)[0]
    im = 0.0
    if ft.imag != 0.0 or _complexish(fn):
        im = quad(lambda x: float(quotient(x).imag[0]), -1.0, 1.0, points=pts, limit=300)[0]
    return (re + 1j * im + ft * ca.log_ratio(t)) / np.pi


def _complexish(fn):
    with np.errstate(all="ignore"):
        probe = np.asarray(fn(np.linspace(-0.57, 0.61, 5)))
    return np.iscomplexobj(probe) and bool(np.any(np.abs(np.nan_to_num(probe.imag)) > 0))


def _theta_edges(tt, extra_splits, grade_endpoints):
    edges = {0.0, tt, np.pi}
    edges |= {np.arccos(np.clip(s, -1.0, 1.0)) for s in extra_splits}
    if grade_endpoints:
        # geometric refinement toward theta = 0 and pi absorbs the mild
        # (logarithmic) endpoint behaviour of transform images; the floor
        # keeps cos(theta) strictly inside (-1, 1) in floating point
        steps = np.pi * 0.5 ** np.arange(2, 26)
        steps = steps[steps > 1e-7]
        edges |= set(steps)
        edges |= set(np.pi - steps)
    srt = sorted(edges)
    # merge near-coincident edges: a sliver panel would put quadrature
    # points within rounding distance of the Cauchy point
    out = [srt[0]]
    for e in srt[1:]:
        if e - out[-1] > 1e-9:
            out.append(e)
    out[-1] = np.pi
    return np.array(out)


def fht_over_w_point(h, t, extra_splits=(), order=64, grade_endpoints=False):
    """T(h/w)(t) for a callable h via the cos(theta) substitution.

    The substitution removes both the endpoint singularities of 1/w and the
    principal value: the identity pv int d(theta)/(cos(theta) - t) = 0 turns
    the integral into a regular one.
    """
    t = float(t)
    ht = complex(np.asarray(h(np.array([t]))).ravel()[0])

    def g(theta):
        x = np.cos(theta)
        return (np.asarray(h(x)) - ht) / (x - t)

    edges = _theta_edges(np.arccos(t), extra_splits, grade_endpoints)
    return complex(ca.integrate_panels(g, edges, order=order)) / np.pi


def fht_times_w_point(h, t, extra_splits=(), order=64, grade_endpoints=False):
    """T(h*w)(t) for a callable h via the cos(theta) substitution."""
    t = float(t)
    Ht = complex(np.asarray(h(np.array([t]))).ravel()[0]) * (1.0 - t * t)

    def g(theta):
        x = np.cos(theta)
        return (np.asarray(h(x)) * np.sin(theta) ** 2 - Ht) / (x - t)

    edges = _theta_edges(np.arccos(t), extra_splits, grade_endpoints)
    return complex(ca.integrate_panels(g, edges, order=order)) / np.pi


# ----------------------------------------------------------------------- oracle

def pv_oracle(f, t, eps=1e-3, singular=(), weight=None):
    """Independent check value: symmetric-exclusion PV quadrature with
    two-level Richardson extrapolation in the exclusion radius.

    ``f`` may be a callable or a GridFunction (its interpolant is used).
    ``weight`` in {None, "over_w", "times_w"} multiplies f by w^{-1} or w.
    Error is O(eps^5) for integrands smooth near t.
    """
    t = float(t)
    _check_interior(t)
    fn = f.eval_at if isinstance(f, GridFunction) else f

    if weight == "over_w":
        def integrand(x):
            return np.asarray(fn(x)) / (np.sqrt(1.0 - x * x) * (x - t))
    elif weight == "times_w":
        def integrand(x):
            return np.asarray(fn(x)) * np.sqrt(1.0 - x * x) / (x - t)
    else:
        def integrand(x):
            return np.asarray(fn(x)) / (x - t)

    def scalar(x):
        return float(np.asarray(integrand(np.atleast_1d(x))).real[0])

    pts = [p for p in singular if -1.0 < p < 1.0]

    def excluded(e):
        left = quad(scalar, -1.0, t - e, points=[p for p in pts if p < t - e], limit=400)[0]
        right = quad(scalar, t + e, 1.0, points=[p for p in pts if p > t + e], limit=400)[0]
        return left + right

    with warnings.catch_warnings():
        # endpoint-singular integrands make QUADPACK noisy; the Richardson
        # combination below is verified against closed forms in the tests
        warnings.simplefilter("ignore", IntegrationWarning)
        i0, i1, i2 = excluded(eps), excluded(eps / 2), excluded(eps / 4)
    r1, r2 = 2 * i1 - i0, 2 * i2 - i1          # kill the O(eps) term
    return (8 * r2 - r1) / 7 / np.pi           # kill the O(eps^3) term
