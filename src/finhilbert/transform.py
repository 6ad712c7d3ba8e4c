"""Finite Hilbert transform evaluators.

Convention, fixed throughout the library:

    T(f)(t) = (1/pi) pv int_{-1}^{1} f(x) / (x - t) dx .

The input alone selects the evaluator:

* a grid function: the exact transform of its ``GridFunction.structure``
  (a profile, or the interpolant of profile-free samples, piecewise linear
  on ``uniform`` and ``custom`` nodes) by :meth:`Profile.fht_values`'s
  coefficient identities and log kernels, refused within 1e-12 of a jump;
  at a kink the finite parts of the two pieces sum to the true value;
* a callable: subtract-the-singularity adaptive quadrature, point by point.

T(f chi_A) restricts :func:`grid.cell_structure`.  Two quadrature rules are
verification references, sharing no closed form with these evaluators:
cos(theta) panel quadrature of T(h/w) (:func:`fht_over_w_point`; T(h w) is
T((h (1 - x^2))/w)), and an independent symmetric-exclusion principal-value
rule with Richardson extrapolation (:func:`pv_oracle`), the cross-checking
oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad, quad_vec

from . import chebalg as ca
from .grid import GridFunction, cell_structure
from .intervals import as_interval_set
from .profiles import Profile

_CUT_GUARD = 1e-12     # evaluation this close to a jump of a profile is refused


class TransformDomainError(ValueError):
    """Evaluation point outside the open interval (-1, 1)."""


class SingularEvaluationError(ValueError):
    """Evaluation at a point where the transform has a genuine singularity."""


def _check_interior(t):
    """The points as a 1-D array, each strictly inside (-1, 1): NaN is refused."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((t > -1.0) & (t < 1.0)):
        raise TransformDomainError("evaluation points must lie in (-1, 1)")
    return t


# ----------------------------------------------------------------- entry points

def fht_point(f, t):
    """Transform of a grid function or callable at a single point."""
    tt = float(np.asarray(t))
    _check_interior(tt)
    if isinstance(f, GridFunction):
        return complex(_grid_transform_values(f, np.array([tt]))[0])
    return complex(_fht_callable(f, tt))


def fht_grid(f):
    """T(f) at every node of f, with the profile of T(f.structure) if any."""
    return f.with_values(_grid_transform_values(f, f.nodes), f.structure.fht_profile())


def _grid_transform_values(f, pts):
    _guard_cuts(f.structure, pts)
    return f.structure.fht_values(pts)


def _guard_cuts(prof, pts, guard=_CUT_GUARD):
    """Raise if a point lies within ``guard`` of a jump of the profile, a log
    singularity of the transforms of prof and prof * w^{+-1}.  Binary search
    finds the few cuts near the points; only those ask :meth:`Profile.jumps`."""
    cuts = prof.breakpoints()
    if not cuts:
        return
    x = np.asarray(pts, dtype=float)
    lo = np.searchsorted(cuts, x - 2 * guard)
    hi = np.searchsorted(cuts, x + 2 * guard, side="right")
    hit = sorted({p for k in np.flatnonzero(hi > lo) for p in cuts[lo[k]:hi[k]]
                  if abs(x[k] - p) < guard})
    if hit and (bad := [p for p, jump in zip(hit, prof.jumps(hit)) if jump]):
        raise SingularEvaluationError(f"evaluation at discontinuity point(s) {bad}")


def fht_indicator(interval_set, x):
    """T(chi_A)(x) = (1/pi) sum over intervals (a,b) of ln|(b-x)/(a-x)|."""
    interval_set = as_interval_set(interval_set)
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


def fht_product_indicator(f, interval_set):
    """T(f * chi_A) on f's grid: :func:`grid.cell_structure` cut at A, exactly."""
    interval_set = as_interval_set(interval_set)
    if interval_set.is_empty():
        return f.with_values(np.zeros(len(f), dtype=complex), Profile(()))
    prof = cell_structure(f).restricted(interval_set)
    return fht_grid(f.with_values(prof.eval(f.nodes), prof))


# ------------------------------------------------------- quadrature evaluators

def _eval_vec(fn, x):
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    fv = np.asarray(fn(xv))
    if fv.ndim == 0:
        fv = np.full(xv.shape, fv)
    return xv, fv


def _fht_callable(fn, t):
    """Subtract-the-singularity adaptive quadrature for a smooth callable.
    The imaginary part is integrated whenever ``fn`` returns complex values
    at t, even zero ones."""
    at_t = _eval_vec(fn, np.array([t]))[1]
    ft = complex(at_t[0])

    def quotient(x):
        xv, fv = _eval_vec(fn, x)
        return (fv - ft) / (xv - t)

    re = quad(lambda x: float(quotient(x).real[0]), -1.0, 1.0, points=[t], limit=300)[0]
    im = 0.0
    if np.iscomplexobj(at_t):
        im = quad(lambda x: float(quotient(x).imag[0]), -1.0, 1.0, points=[t], limit=300)[0]
    return (re + 1j * im + ft * ca.log_ratio(t)) / np.pi


_MERGE = 1e-9          # theta edges this close merge, see _theta_panels


def _shared_edges(extra_splits, grade_endpoints):
    """The theta edges of every point, sorted and unique: 0 and pi, the
    geometric grading toward each split and, when graded, toward 0 and pi.

    The grading absorbs the mild (logarithmic) endpoint behaviour of
    transform images and the interior log singularity at a split.  Its
    1e-7 floor does not keep cos(theta) inside (-1, 1): nodes of the first
    and last graded panels round onto x = +-1, where an integrand with a
    1/w factor is not finite (see :func:`fht_over_w_point`).
    """
    steps = np.pi * 0.5 ** np.arange(2, 26)
    steps = steps[steps > 1e-7]
    split = np.arccos(np.clip(np.asarray(extra_splits, dtype=float).ravel(), -1.0, 1.0))
    near = np.concatenate([split[:, None] - steps, split[:, None], split[:, None] + steps], axis=1)
    parts = [[0.0, np.pi], near[(near >= 0.0) & (near <= np.pi)]]
    if grade_endpoints:
        parts += [steps, np.pi - steps]
    return np.unique(np.concatenate(parts))


def _theta_panels(theta, extra_splits, grade_endpoints):
    """Each point's theta panels, as rows of one panel table.

    The shared edges are merged once, left to right: an edge within _MERGE
    of the last kept one is dropped (a sliver panel would put quadrature
    points within rounding distance of the Cauchy point), and the last kept
    edge is set to pi.  Take k with shared[k] < theta <= shared[k+1].  A
    point whose theta lies within _MERGE above shared[k] is dropped like an
    edge: it takes the shared panels alone.  Otherwise theta splits the
    shared panel it lies in, and shared[k+1] moves onto theta when it lies
    within _MERGE above: the point's two own panels are [shared[k], theta]
    and [theta, shared[j]] with j = k + 1 or k + 2, and it takes the shared
    panels below k and from j on.  theta lies in [1.49e-8, pi - 1.49e-8]
    and the shared edges are more than _MERGE apart, so k and j exist.

    Returns (lo, hi, rows, counts) for :func:`chebalg.integrate_panels`:
    the shared panels come first in the table, then two panels per point,
    which a point dropped onto an edge does not use.
    """
    kept = []
    for e in _shared_edges(extra_splits, grade_endpoints).tolist():
        if not kept or e - kept[-1] > _MERGE:
            kept.append(e)
    shared = np.array(kept)
    shared[-1] = np.pi
    m = len(shared) - 1                     # shared panels

    k = np.searchsorted(shared, theta) - 1  # shared[k] < theta <= shared[k + 1]
    own = theta - shared[k] > _MERGE
    j = np.where(shared[k + 1] - theta > _MERGE, k + 1, k + 2)
    b, e = np.where(own, k, m), np.where(own, j, m)
    counts = b + 2 * own + (m - e)
    col = np.arange(counts.max(initial=1))
    b, first_own = b[:, None], m + 2 * np.arange(len(theta))[:, None]
    rows = np.where(col < b, col,
                    np.where(col < b + 2, first_own + col - b, e[:, None] + col - b - 2))
    rows = np.where(col < counts[:, None], rows, rows[:, :1])
    lo = np.concatenate([shared[:-1], np.column_stack([shared[k], theta]).ravel()])
    hi = np.concatenate([shared[1:], np.column_stack([theta, shared[j]]).ravel()])
    return lo, hi, rows, counts


def fht_over_w_point(h, t, extra_splits=(), grade_endpoints=False):
    """T(h/w)(t) for a callable h by 64-point panels in theta, x = cos(theta).

    The substitution removes both the endpoint singularities of 1/w and the
    principal value: the identity pv int d(theta)/(cos(theta) - t) = 0 turns
    the integral into a regular one.  T(h w) is this rule applied to
    h (1 - x^2).

    ``t`` is a point of (-1, 1) or an array of them: a scalar returns a
    complex, an array a complex array of the same shape; a point outside
    (-1, 1) or NaN raises :class:`TransformDomainError`.  ``h`` receives 1-D
    arrays and must act elementwise.  The shared edges are 0, pi, each split
    with its geometric grading and, when ``grade_endpoints``, the grading
    toward 0 and pi, merged once; each point's theta splits the shared panel
    that holds it into two panels of its own, the shared edge above theta
    moving onto it when within 1e-9; a theta within 1e-9 above a shared
    edge takes the shared panels alone (see :func:`_theta_panels`).  So
    ``h`` is called
    once at the points and once at the nodes of the shared panels and of
    each point's two own panels, in calls of at most
    ``chebalg._PANEL_BLOCK`` nodes: a graded call costs about
    (47 + 2 P) * 64 values of ``h`` for P points, where a rule per point
    costs 48 * 64 P.  The quotients (h(x) - h(t)) / (x - t) are formed per
    point, in blocks of at most ``_PANEL_BLOCK`` nodes, and each point's
    terms are summed in its panel order, so its value is the one a call
    with that point alone returns.

    Raises ValueError when ``h`` is not finite at a panel node: the nodes
    of the first and last graded panels include x = +-1 in floating point,
    where an integrand with a 1/w factor is infinite.  Raises ValueError
    naming the point when a point's panel sum is not finite: within about
    1e-13 of +-1, nodes next to theta round onto t and the quotient is 0/0.
    """
    tt = _check_interior(t).ravel()
    ht = _eval_vec(h, tt)[1].astype(complex)

    def at_nodes(theta):
        x = np.cos(theta)
        hx = _eval_vec(h, x.ravel())[1].reshape(x.shape)
        if not np.all(np.isfinite(hx)):
            bad = x[~np.isfinite(hx)]
            outer = float(bad[np.argmax(np.abs(bad))])
            raise ValueError(f"the integrand is not finite at {bad.size} theta-panel node(s); "
                             f"the outermost, x = {outer!r}, is {1.0 - abs(outer):.3g} from "
                             f"the endpoint x = {np.copysign(1.0, outer):+.0f}")
        return x, hx

    def quotient(rows, x, hx):
        with np.errstate(divide="ignore", invalid="ignore"):   # refused below
            return (hx - ht[rows, None, None]) / (x - tt[rows, None, None])

    sums = ca.integrate_panels(at_nodes, quotient,
                               *_theta_panels(np.arccos(tt), extra_splits, grade_endpoints))
    if not np.all(np.isfinite(sums)):
        bad = tt[~np.isfinite(sums)]
        raise ValueError(f"the theta-panel sum is not finite at {bad.size} point(s), the first "
                         f"t = {float(bad[0])!r}: within about 1e-13 of +-1 panel nodes round "
                         f"onto t (or h(t) is not finite)")
    # componentwise, as complex / float divides: a complex numpy division
    # multiplies by 1/pi instead
    out = np.empty(sums.shape, dtype=complex)
    out.real, out.imag = sums.real / np.pi, sums.imag / np.pi
    return complex(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))


# ----------------------------------------------------------------------- oracle

class OracleConvergenceError(ValueError):
    """The oracle's adaptive quadrature did not reach its target precision."""


_ORACLE_LIMIT = 200     # subintervals; the verify suite and the tests need at most 21


def pv_oracle(f, t, eps=1e-3, singular=()):
    """Independent check value: symmetric-exclusion PV quadrature with
    two-level Richardson extrapolation in the exclusion radius.

    ``f`` may be a callable or a GridFunction (its interpolant or profile
    is evaluated); the oracle evaluates ``f`` and nothing else, so it shares
    no closed form, profile transform or :mod:`chebalg` routine with the
    evaluators it checks.  Complex values of ``f`` are kept.  Error is
    O(eps^5) for integrands smooth near t.

    A scalar ``t`` returns a scalar, an array ``t`` an array of the same
    shape.  ``singular`` lists the jumps of f: either one sequence shared by
    every point, or a 2-D array with one row per point (rows of unequal
    length padded with NaN), so that each point's sides are split at its own
    jumps.  Entries outside (-1, 1) are ignored; a jump within ``eps`` of its
    point raises ValueError.  ``f`` is called with arrays of shape
    (points, nodes), row i holding the nodes of point i, so a family of
    integrands, one per point, can broadcast its parameters as a column; an
    elementwise ``f`` needs no care.

    All points, the three exclusion radii eps, eps/2, eps/4 and both sides
    [-1, t - e] and [t + e, 1] form one vector integrand of a single
    ``scipy.integrate.quad_vec`` call.  Each side is cut at the point's
    jumps into a fixed number of segments (splits that fall outside a side
    give zero-length segments, which contribute 0), and each segment is
    mapped to u in [0, 1]: linearly in the interior, and by
    x = a + L u^2 (a = -1) or x = a - L u^2 (a = 1) on the segment that
    touches an endpoint, which absorbs endpoint singularities such as 1/w.
    The Jacobian of the graded map is computed from the rounded node,
    2 sqrt(L |x - a|), not as 2 L u: the integrand then is a function of
    the node actually evaluated, so an endpoint factor such as 1/sqrt(1 + x)
    cancels against the Jacobian consistently.  With 2 L u, the rounding of
    a + L u^2 near the endpoint is noise that the error estimate cannot
    shrink, and the quadrature stalls at its subdivision limit.

    Raises :class:`OracleConvergenceError` when the quadrature stops at its
    subdivision limit or meets non-finite values, instead of returning an
    unconverged value.
    """
    scalar = np.ndim(t) == 0
    tt = _check_interior(t).ravel()
    if np.any(np.abs(tt) + eps >= 1.0):
        raise ValueError("the exclusion radius must keep t - eps and t + eps inside (-1, 1)")
    fn = f
    if isinstance(f, GridFunction):
        def fn(x):
            return f.eval_at(x.ravel()).reshape(x.shape)

    n = len(tt)
    e = eps * np.array([1.0, 0.5, 0.25])
    # side ends, shape (n, 3 radii, 2 sides): left [-1, t - e], right [t + e, 1]
    lo_end = np.stack([np.full((n, 3), -1.0), tt[:, None] + e], axis=-1)
    hi_end = np.stack([tt[:, None] - e, np.ones((n, 3))], axis=-1)
    splits = _oracle_splits(singular, tt, eps)[:, None, None, :]
    cuts = np.sort(np.clip(splits, lo_end[..., None], hi_end[..., None]), axis=-1)
    edges = np.concatenate([lo_end[..., None], cuts, hi_end[..., None]], axis=-1)
    shape = edges[..., 1:].shape                              # (n, 3, 2, segments)
    length = (edges[..., 1:] - edges[..., :-1]).reshape(n, -1)
    graded = np.zeros(shape, dtype=bool)
    graded[:, :, 0, 0] = graded[:, :, 1, -1] = True           # touches -1 / +1
    anchor = edges[..., :-1].copy()
    anchor[:, :, 1, -1] = 1.0
    anchor, graded = anchor.reshape(n, -1), graded.reshape(n, -1)
    # x = anchor + lin u + sq u^2: linear inside, -1 + L u^2 and 1 - L u^2 at the ends
    lin = np.where(graded, 0.0, length)
    sq = np.where(graded, np.where(anchor < 0.0, length, -length), 0.0)
    pt = tt[:, None]

    def integrand(u):
        x = anchor + lin * u + sq * (u * u)
        # Jacobian from the rounded node, see the docstring
        jac = np.where(graded, 2.0 * np.sqrt(length * np.abs(x - anchor)), length)
        fv = np.broadcast_to(np.asarray(fn(x)), x.shape)
        return (fv * jac / (x - pt)).ravel()

    res, _, info = quad_vec(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12,
                            norm="max", limit=_ORACLE_LIMIT, full_output=True)
    if info.status in (1, 3):           # subdivision limit, non-finite values
        raise OracleConvergenceError(f"pv_oracle quadrature failed: {info.message}")
    i0, i1, i2 = np.moveaxis(res.reshape(shape).sum(axis=(-2, -1)), -1, 0)
    r1, r2 = 2 * i1 - i0, 2 * i2 - i1          # kill the O(eps) term
    out = (8 * r2 - r1) / 7 / np.pi            # kill the O(eps^3) term
    return out[0] if scalar else out.reshape(np.shape(t))


def _oracle_splits(singular, tt, eps):
    """Jumps as an (n, k) array, one row per point.  Entries outside (-1, 1)
    and NaN padding move to the point itself, where clipping to a side makes
    them zero-length segments.  A jump inside a point's exclusion radius
    breaks the extrapolation, so it is refused."""
    s = np.asarray(singular, dtype=float)
    if s.ndim == 2:
        if len(s) != len(tt):
            raise ValueError("per-point splits need one row per evaluation point")
    else:
        s = np.broadcast_to(s.reshape(1, -1), (len(tt), s.size))
    inside = np.abs(s) < 1.0
    if np.any(inside & (np.abs(s - tt[:, None]) <= eps)):
        raise ValueError("a jump lies within eps of an evaluation point")
    return np.where(inside, s, tt[:, None])
