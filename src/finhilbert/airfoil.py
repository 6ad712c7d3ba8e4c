"""Explicit inversion of the finite Hilbert transform (the airfoil equation).

The Boyd index of the ambient space decides the Fredholm regime:

* high index (1/2 < index < 1, e.g. L^p with 1 < p < 2): T is surjective
  with one-dimensional kernel spanned by 1/w; a right inverse is
  f -> -T(f w)/w and solutions of T(f) = g form a line f + c/w.
* low index (0 < index < 1/2, e.g. L^p with p > 2): T is injective with
  range {h : integral of h/w = 0}; the left inverse is f -> -w T(f/w).

Index exactly 1/2 (p = 2) is outside both regimes and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from . import chebalg as ca
from .grid import GridFunction, integrate, sample_series
from .profiles import _W2, Profile
from .transform import _guard_cuts, fht_grid, fht_over_w_point, fht_times_w_point

HIGH_INDEX = "HighIndex"
LOW_INDEX = "LowIndex"

RESIDUAL_TOL = 1e-6        # range-membership tolerance for solve_airfoil

_W = Profile.poly((1.0,), wpow=1)


class CriticalIndexError(ValueError):
    """The space has Boyd index exactly 1/2 (p = 2); no inversion regime applies."""


class NotInRangeError(ValueError):
    """Right-hand side fails the low-index range condition int g/w = 0."""

    def __init__(self, defect):
        super().__init__(f"right-hand side is not in the range: |int g/w du| = {defect:.3e}")
        self.defect = defect


def semicircle_weight(x):
    """w(x) = sqrt(1 - x^2); even, vanishing at the endpoints."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("w is defined on the open interval (-1, 1)")
    out = np.sqrt(1.0 - x * x)
    return float(out) if out.ndim == 0 else out


def regime_of(space):
    """Inversion regime of a space, from its Boyd indices."""
    lo, hi = space.boyd_lower, space.boyd_upper
    if 0.5 < lo <= hi < 1.0:
        return HIGH_INDEX
    if 0.0 < lo <= hi < 0.5:
        return LOW_INDEX
    raise CriticalIndexError(
        f"{space.label()} has Boyd index {lo:g}; the inversion lemmas need it "
        "strictly on one side of 1/2"
    )


# --------------------------------------------------------------- the operators

def right_inverse(f):
    """-T(f w)/w.  Satisfies T(right_inverse(f)) = f in the high-index regime.

    Exact for every ``f.structure``, kinks included, refused at its jumps:
    pieces times w stay in the profile algebra (powers -1, 0, 1 become 0, 1,
    2), and log terms take T(c ln|. - a| w) = T((c w^2 ln|. - a|)/w).  A
    plain series p keeps a profile, T(p w)/w.
    """
    w, s = semicircle_weight(f.nodes), f.structure
    _guard_cuts(s, f.nodes)
    vals = (Profile(s.pieces) if s.logs else s).times(_W).fht_values(f.nodes)
    if s.logs:
        vals = vals + Profile((), s.logs).times(Profile.poly(_W2)).fht_over_w_values(f.nodes)
    p = s.series()
    prof = Profile.poly(-ca.fht_times_w_series(p), wpow=-1) if p is not None else None
    return f.with_values(-vals / w, prof)


def left_inverse(f):
    """-w T(f/w).  Satisfies left_inverse(T(f)) = f in the low-index regime.

    Exact for every ``f.structure`` by :meth:`Profile.fht_over_w_values`,
    kinks included, refused at its jumps; a plain series p keeps a profile,
    w T(p/w).  Only a w^{-1} piece (None there) takes cos(theta) panels; an
    f/w not integrable at -1 or 1 raises ValueError.
    """
    w, s = semicircle_weight(f.nodes), f.structure
    _guard_cuts(s, f.nodes)
    vals = s.fht_over_w_values(f.nodes)
    if vals is None:
        if not np.isfinite(s.integral_over_w()):
            raise ValueError("f/w is not integrable at -1 or 1: no left inverse")
        return f.with_values(-w * fht_over_w_point(f.eval_at, f.nodes, grade_endpoints=True))
    p = s.series()
    prof = Profile.poly(-ca.fht_over_w_series(p), wpow=1) if p is not None else None
    return f.with_values(-w * vals, prof)


def kernel_projection(f):
    """P(f) = ((1/pi) int f du) * (1/w); rank-one projection onto the kernel."""
    c = integrate(f) / np.pi
    w = semicircle_weight(f.nodes)
    return f.with_values(c / w, Profile.poly((c,), wpow=-1))


def range_defect(g):
    """|int g/w du| of ``g.structure``, the low-index range obstruction."""
    return abs(g.structure.integral_over_w())


# ------------------------------------------------------------------- solutions

@dataclass(frozen=True)
class AirfoilSolution:
    particular: GridFunction
    kernel_coefficient_free: bool
    range_defect: float = None


def solve_airfoil(g, space, tol=RESIDUAL_TOL):
    """Solve T(f) = g in the regime dictated by the space.

    High index: returns the right-inverse image; every f + c/w also solves.
    Low index: checks the range condition first and raises
    :class:`NotInRangeError` carrying the defect when it fails.
    """
    regime = regime_of(space)
    if regime == HIGH_INDEX:
        return AirfoilSolution(right_inverse(g), True, None)
    defect = range_defect(g)
    if not defect <= tol:
        raise NotInRangeError(defect)
    return AirfoilSolution(left_inverse(g), False, float(defect))


def inversion_residuals(f, space, sample_points=None):
    """Residual norms of the regime's inversion identities for a given f.

    High index: T(T^(f)) - f  and  T^(T(f)) - (f - P(f)).
    Low index:  Tˇ(T(f)) - f  and  T(Tˇ(h)) - h  for h = T(f), which lies in
    the range by construction.  The outer transforms are evaluated by the
    cos(theta) quadrature (not the coefficient identities), so the residuals
    measure the analytic identities rather than round-tripping the algebra.
    f is read by :func:`grid.sample_series`, which may raise ValueError.

    Returns a dict identity-name -> {"sup_interior": ..., "lp": ...} where
    the sup is over |x| <= 0.9.
    """
    regime = regime_of(space)
    if sample_points is None:
        sample_points = np.linspace(-0.9, 0.9, 61)
    series = sample_series(f)
    fvals = _cheb.chebval(sample_points, series)
    out = {}
    if regime == HIGH_INDEX:
        q = -ca.fht_times_w_series(series)   # right inverse is q/w
        tr = fht_over_w_point(lambda x: _cheb.chebval(x, q), sample_points)
        out["T o rightinv - id"] = _residual_report(tr - fvals)

        img = fht_grid(f)                    # T(f), log-mix image
        that_vals = -fht_times_w_point(img.eval_at, sample_points, grade_endpoints=True) \
            / semicircle_weight(sample_points)
        proj = kernel_projection(f)
        out["rightinv o T - (id - P)"] = _residual_report(
            that_vals - (fvals - proj.eval_at(sample_points))
        )
    else:
        img = fht_grid(f)                    # h = T(f) lies in the range
        tc_vals = -semicircle_weight(sample_points) * fht_over_w_point(
            img.eval_at, sample_points, grade_endpoints=True)
        out["leftinv o T - id"] = _residual_report(tc_vals - fvals)

        # T(leftinv(h)) - h with leftinv(h) recovered by quadrature, then
        # transformed exactly from its (polynomial) interpolant
        mid_nodes = ca.chebyshev_nodes(96)
        u_vals = -semicircle_weight(mid_nodes) * fht_over_w_point(
            img.eval_at, mid_nodes, grade_endpoints=True)
        u_series = ca.fit_chebyshev(u_vals)
        ttc = ca.fht_series(u_series, sample_points)
        out["T o leftinv - id on range"] = _residual_report(ttc - img.eval_at(sample_points))
    return out


def _residual_report(residual_values):
    res = np.abs(residual_values)
    return {
        "sup_interior": float(res.max()),
        "rms": float(np.sqrt(np.mean(res**2))),
    }


# ------------------------------------------------------------------- Rybakov

def rybakov_functional(n=None):
    """g0 = -w T(sigma/w) with sigma = -chi_(-1,0) + chi_(0,1).

    Split cos(theta) quadrature across the jump at 0 gives the closed form
    g0(t) = -(2/pi) ln((1 + w(t))/|t|): an even, negative function with an
    integrable logarithmic singularity at the origin, and T(g0) = sigma.
    """
    from .grid import DEFAULT_NODES, make_grid

    n = n or DEFAULT_NODES
    nodes, weights = make_grid(n)
    sigma_over_w = Profile(((-1.0, 0.0, (-1.0,), -1), (0.0, 1.0, (1.0,), -1)))
    t_vals = sigma_over_w.fht_values(nodes)
    w = semicircle_weight(nodes)
    vals = -w * t_vals
    # structural decomposition: g0 = smooth + (2/pi) ln|x|
    smooth_samples = vals - (2.0 / np.pi) * np.log(np.abs(nodes))
    profile = Profile(((-1.0, 1.0, ca.fit_chebyshev(smooth_samples), 0),),
                      ((0.0, (2.0 / np.pi,)),))
    return GridFunction(nodes, vals, weights, "chebyshev-gauss", profile)
