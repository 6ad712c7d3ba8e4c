"""Rearrangement-invariant space toolkit for functions on (-1, 1).

Supported norms: Lebesgue L^p, Lorentz L^{p,q} (quasinorm convention
``( int_0^2 (t^{1/p} f*(t))^q dt/t )^{1/q}`` without renormalization) and
weak-L^p = L^{p,infinity}.  The decreasing rearrangement is computed from
the weighted samples; for piecewise-constant profiles it is exact.

Dilation operators E_s f(x) = f(sx) (zero when sx leaves the interval) give
dictionary lower bounds for operator norms; on these families
``||E_s||_op = s^{-1/p}`` exactly, attained by centred spikes, so the Boyd
index estimates land at 1/p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .grid import pairing  # noqa: F401  (re-exported: the dual pairing lives with the norms)
from .intervals import IntervalSet
from .profiles import PiecewiseProfile, PolyProfile

LP = "Lp"
LORENTZ = "Lorentz"
WEAK_LP = "WeakLp"


@dataclass(frozen=True)
class SpaceSpec:
    """Closed enumeration of target spaces: Lp(p), Lorentz(p, q), WeakLp(p)."""

    kind: str
    p: float
    q: float = None

    def __post_init__(self):
        if self.kind not in (LP, LORENTZ, WEAK_LP):
            raise ValueError(f"unknown space kind: {self.kind}")
        if not self.p > 1:
            raise ValueError("p must exceed 1")
        if self.kind == LORENTZ and not (self.q is not None and self.q >= 1):
            raise ValueError("Lorentz spaces need q >= 1")

    @staticmethod
    def lp(p):
        return SpaceSpec(LP, float(p))

    @staticmethod
    def lorentz(p, q):
        return SpaceSpec(LORENTZ, float(p), float(q))

    @staticmethod
    def weak_lp(p):
        return SpaceSpec(WEAK_LP, float(p))

    @property
    def boyd_lower(self):
        return 1.0 / self.p

    @property
    def boyd_upper(self):
        return 1.0 / self.p

    @property
    def order_continuous(self):
        return self.kind != WEAK_LP

    def associate_exponent(self):
        """Conjugate exponent p' = p/(p-1) (the associate space of Lp)."""
        return self.p / (self.p - 1.0)

    def label(self):
        if self.kind == LORENTZ:
            return f"Lorentz({self.p:g},{self.q:g})"
        return f"{self.kind}({self.p:g})"


# -------------------------------------------------------------- rearrangement

def distribution(f, lam):
    """mu{ |f| > lam }, approximated by the weight sum over exceeding nodes."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if isinstance(f.profile, PiecewiseProfile) and f.profile.is_constantwise():
        return float(sum(b - a for (a, b, c) in f.profile.pieces if abs(c[0]) > lam))
    return float(f.weights @ (np.abs(f.values) > lam))


@dataclass(frozen=True, eq=False)   # identity semantics: ndarray fields
class Rearrangement:
    """Decreasing rearrangement as a right-continuous staircase on (0, 2]."""

    breakpoints: np.ndarray      # increasing cumulative measures u_1..u_m (u_m ~ 2)
    plateaus: np.ndarray         # nonincreasing values on [u_{i-1}, u_i)

    def __post_init__(self):
        u = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.plateaus, dtype=float)
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "breakpoints", u)
        object.__setattr__(self, "plateaus", v)

    def value(self, t):
        """Staircase value f*(t) = inf{lam : mu(|f| > lam) <= t}."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right")
        idx = np.minimum(idx, len(self.plateaus) - 1)
        out = self.plateaus[idx]
        return float(out) if out.ndim == 0 else out

    def value_interp(self, t):
        """Continuum estimate of f*: interpolation anchored at the breakpoints
        with value-side averaging (second-order accurate for smooth data,
        where the raw staircase is only first-order)."""
        v = self.plateaus
        anchored = (v + np.concatenate([v[1:], v[-1:]])) / 2.0
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.breakpoints, anchored)
        return float(out) if out.ndim == 0 else out

    def distribution(self, lam):
        """Distribution function of the staircase itself (equimeasurability)."""
        total = 0.0
        prev = 0.0
        for u, v in zip(self.breakpoints, self.plateaus):
            if v > lam:
                total += u - prev
            prev = u
        return total

    def total_measure(self):
        return float(self.breakpoints[-1]) if len(self.breakpoints) else 0.0


def rearrangement(f):
    """Sort-based decreasing rearrangement of |f| with its quadrature weights."""
    if isinstance(f.profile, PiecewiseProfile) and f.profile.is_constantwise():
        vals = np.array([abs(c[0]) for _, _, c in f.profile.pieces])
        lens = np.array([b - a for a, b, _ in f.profile.pieces])
        covered = lens.sum()
        if covered < 2.0 - 1e-12:          # implicit zero outside the pieces
            vals = np.concatenate([vals, [0.0]])
            lens = np.concatenate([lens, [2.0 - covered]])
        order = np.argsort(-vals, kind="stable")
        return Rearrangement(np.cumsum(lens[order]), vals[order])
    mags = np.abs(f.values)
    order = np.argsort(-mags, kind="stable")
    return Rearrangement(np.cumsum(f.weights[order]), mags[order])


# ------------------------------------------------------------------------ norms

@dataclass(frozen=True)
class NormInfo:
    value: float
    resolution_limited: bool = False
    divergent: bool = False


def norm(f, space):
    """The space norm of f; +inf when the tail diagnosis says divergent."""
    return norm_info(f, space).value


def norm_info(f, space):
    """Norm plus resolution diagnostics.

    A power-law fit of |f| against the distance to the strongest peak
    estimates the local blow-up exponent beta; the norm is reported as +inf
    when the exponent makes the defining integral divergent (p*beta >= 1,
    strict inequality for weak-L^p where the boundary case is finite).
    Samples go through :func:`norms_batch` as a single row; a declared step
    function then takes its exact norm from the pieces.
    """
    vals, limited, divergent = norms_batch(f.values[None, :], f.nodes, f.weights, space)
    info = NormInfo(float(vals[0]), bool(limited[0]), bool(divergent[0]))
    if info.divergent or not (isinstance(f.profile, PiecewiseProfile)
                              and f.profile.is_constantwise()):
        return info
    return NormInfo(_stepwise_norm(f, space), info.resolution_limited, False)


class NormWorkspace:
    """Scratch arrays for :func:`norms_batch` blocks of up to ``rows`` rows of
    ``n`` samples.

    A search allocates one and passes it to every block, so its block loop
    reuses the same memory instead of allocating fresh block-sized
    temporaries, whose cost would depend on what the allocator last freed.
    """

    def __init__(self, rows, n):
        self.mags = np.empty((rows, n))
        self.positive = np.empty((rows, n), dtype=bool)
        self.ordered = np.empty((rows, n))
        self.gathered = np.empty((rows, n))
        self.breakpoints = np.empty((rows, n))
        self.scratch = np.empty((rows, n))


def norms_batch(values, nodes, weights, space, work=None):
    """Norms of the rows of ``values[P, N]``, each sampled at ``nodes``.

    Returns ``(value, resolution_limited, divergent)`` arrays of length P,
    row by row what :func:`norm_info` reports for profile-free samples.  One
    descending sort of the magnitudes per block (stable, so tied values keep
    their node order in the rearrangement) serves both the rearrangement and
    the nonzero-median gate of the blow-up diagnosis; the power-law fit runs
    only on the rows that gate engages.  Block-sized intermediates live in
    ``work``, a :class:`NormWorkspace` of at least P rows (a fresh one when
    omitted); the returned arrays are always new.
    """
    values = np.asarray(values)
    rows, n = values.shape
    beta = np.zeros(rows)
    if n == 0:
        flags = np.zeros(rows, dtype=bool)
        return beta, flags, flags.copy()
    if work is None:
        work = NormWorkspace(rows, n)
    mags = np.abs(values, out=work.mags[:rows])
    ordered = work.ordered[:rows]
    scratch = work.scratch[:rows]
    if space.kind == LP:
        np.copyto(ordered, mags)
        ordered.sort(axis=1)
        ordered = ordered[:, ::-1]
    else:
        order = np.argsort(np.negative(mags, out=scratch), axis=1, kind="stable")
        np.take(weights, order, out=work.gathered[:rows], mode="clip")
        order += (n * np.arange(rows))[:, None]
        np.take(mags.reshape(-1), order, out=ordered, mode="clip")

    # blow-up gate: the peak must dwarf the median of the nonzero magnitudes,
    # which sit first in the descending order
    nonzero = np.count_nonzero(np.greater(mags, 0, out=work.positive[:rows]), axis=1)
    r = np.arange(rows)
    median = (ordered[r, np.maximum(nonzero - 1, 0) // 2] + ordered[r, nonzero // 2]) / 2.0
    for i in np.flatnonzero((nonzero > 0) & (ordered[:, 0] > 30.0 * median)):
        beta[i] = _blowup_exponent(nodes, mags[i])
    pb = space.p * beta
    divergent = pb > 1.05 if space.kind == WEAK_LP else pb >= 0.99
    limited = divergent | (beta > 0.1)

    if space.kind == LP:
        vals = np.power(mags, space.p, out=scratch) @ weights
        vals **= 1.0 / space.p
    else:
        breakpoints = np.cumsum(work.gathered[:rows], axis=1, out=work.breakpoints[:rows])
        if space.kind == LORENTZ:
            vals = _lorentz_staircase(breakpoints, ordered, space, scratch)
        else:
            # conservative staircase pairing u_k with the next plateau value
            # (the raw staircase inflates the sup by up to 2^{1/p} at
            # sub-resolution t when singular values tie in symmetric pairs)
            np.power(breakpoints, 1.0 / space.p, out=scratch)
            scratch[:, :-1] *= ordered[:, 1:]
            scratch[:, -1] *= ordered[:, -1]
            vals = np.max(scratch, axis=1)
    vals[divergent] = np.inf
    return vals, limited, divergent


def _lorentz_staircase(breakpoints, plateaus, space, scratch=None):
    """Lorentz quasinorm of staircases given row-wise as (u_k, v_k) arrays.

    With ``scratch`` (an array shaped like ``breakpoints``), the chunk
    widths overwrite ``breakpoints`` and no block-sized array is allocated.
    """
    if scratch is None:
        breakpoints, scratch = breakpoints.copy(), np.empty(breakpoints.shape)
    powers = np.power(breakpoints, space.q / space.p, out=scratch)
    chunks = breakpoints
    chunks[:, 0] = powers[:, 0]
    np.subtract(powers[:, 1:], powers[:, :-1], out=chunks[:, 1:])
    chunks *= space.p / space.q
    summands = np.power(plateaus, space.q, out=scratch)
    summands *= chunks
    return np.sum(summands, axis=1) ** (1.0 / space.q)


def _stepwise_norm(f, space):
    """Exact norm of a declared step function, from its pieces."""
    if space.kind == LP:
        return float(sum(abs(c[0]) ** space.p * (b - a)
                         for a, b, c in f.profile.pieces) ** (1.0 / space.p))
    r = rearrangement(f)
    if space.kind == LORENTZ:
        return float(_lorentz_staircase(r.breakpoints[None, :], r.plateaus[None, :], space)[0])
    return float(np.max(r.breakpoints ** (1.0 / space.p) * r.plateaus))


def _blowup_exponent(nodes, mags):
    """Least-squares exponent of |f| ~ dist^{-beta} near its strongest peak.

    Called only when the peak dwarfs the bulk of the function (a genuine
    power singularity at grid resolution); an interior peak, which a local
    fit cannot tell from a mild singularity, reports beta = 0.
    """
    mmax = mags.max()
    x0 = nodes[int(np.argmax(mags))]
    if x0 > 0.9:
        dist = 1.0 - nodes
    elif x0 < -0.9:
        dist = 1.0 + nodes
    else:
        # interior peaks: the singular location falls between nodes, so a
        # power fit against node distances is unreliable; only endpoint
        # blow-up (where the node family clusters) is diagnosed
        return 0.0
    sel = (dist > 0) & (mags > 1e-14 * mmax)
    dist, m = dist[sel], mags[sel]
    order = np.argsort(dist)
    dist, m = dist[order[:24]], m[order[:24]]
    if len(dist) < 6:
        return 0.0
    slope = np.polyfit(np.log(dist), np.log(m), 1)[0]
    return max(0.0, -float(slope))


# -------------------------------------------------------------------- dilation

def dilate(f, t):
    """E_t(f)(x) = f(tx) when -1 < tx < 1, else 0; resampled on f's nodes."""
    if t <= 0:
        raise ValueError("dilation parameter must be positive")
    mask = np.abs(t * f.nodes) < 1.0
    vals = np.zeros(len(f), dtype=complex)
    if mask.any():
        vals[mask] = f.eval_at(t * f.nodes[mask])
    return f.with_values(vals, _dilate_profile(f.profile, t))


def _dilate_profile(profile, t):
    if profile is None:
        return None
    if isinstance(profile, PolyProfile) and profile.wpow == 0:
        pieces = ((-1.0, 1.0, profile.coeffs),)
        profile = PiecewiseProfile(pieces)
    if not isinstance(profile, PiecewiseProfile) or profile.wpow != 0:
        return None
    out = []
    for a, b, c in profile.pieces:
        lo, hi = max(-1.0, a / t), min(1.0, b / t)
        if lo < hi:
            out.append((lo, hi, _compose_linear(np.asarray(c, dtype=complex), t)))
    return PiecewiseProfile(tuple(out))


def _compose_linear(cheb_coeffs, t):
    """Chebyshev coefficients of p(t*x) from those of p(x)."""
    pw = _cheb.cheb2poly(cheb_coeffs)
    pw = pw * (t ** np.arange(len(pw)))
    return _cheb.poly2cheb(pw)


def dilation_opnorm(space, t, dictionary):
    """Dictionary lower bound for ||E_t||_op; satisfies <= max(1/t, 1) + eps."""
    if not dictionary:
        raise ValueError("dictionary must be nonempty")
    best = 0.0
    for f in dictionary:
        denom = norm(f, space)
        if not (denom > 0 and np.isfinite(denom)):
            raise ValueError("dictionary entries must have positive finite norm")
        best = max(best, norm(dilate(f, t), space) / denom)
    return best


def default_dilation_dictionary(n=None, widths=(0.75, 0.5, 0.25, 0.125, 0.0625, 0.03125)):
    """Centred indicator spikes chi_(-a,a).

    On L^p, Lorentz and weak-L^p these attain the dilation operator norm
    s^{-1/p} exactly whenever the support fits after dilation, and their
    norms are computed in closed form, so the Boyd estimates are exact up to
    the t-grid.
    """
    from .grid import DEFAULT_NODES, indicator_fn

    n = n or DEFAULT_NODES
    return tuple(indicator_fn(IntervalSet(((-a, a),)), n) for a in widths)


def boyd_estimate(space, t_grid=None, dictionary=None):
    """(lower, upper) Boyd index estimates from dilation-norm samples.

    lower = sup_{0<t<1} log||E_{1/t}|| / log t ;  upper is the infimum over
    t > 1 of the same quotient.  For the supported families both land at 1/p.
    """
    if t_grid is None:
        t_grid = (1 / 6, 1 / 4, 1 / 3, 1 / 2, 2.0, 3.0, 4.0, 6.0)
    ts = [float(t) for t in t_grid if t > 0 and t != 1.0]
    small = [t for t in ts if t < 1.0]
    large = [t for t in ts if t > 1.0]
    if not small or not large:
        raise ValueError("t_grid must contain points in (0,1) and in (1,oo)")
    if dictionary is None:
        dictionary = default_dilation_dictionary()
    lower = max(
        np.log(dilation_opnorm(space, 1.0 / t, dictionary)) / np.log(t) for t in small
    )
    upper = min(
        np.log(dilation_opnorm(space, 1.0 / t, dictionary)) / np.log(t) for t in large
    )
    return float(lower), float(upper)


# ----------------------------------------------------------------- decay probe

@dataclass(frozen=True)
class DecayEstimate:
    value: float
    slope: float
    resolved: bool
    t_min: float


def rearrangement_decay(f, p):
    """Estimate of lim sup_{t->0+} t^{1/p} f*(t), with a resolution marker.

    The probe evaluates g(t) = t^{1/p} f*(t) on a geometric grid down to the
    staircase resolution and fits the log-log slope of the tail: a clearly
    positive slope means g -> 0 (f belongs to the order-continuous part
    within resolution); a flat tail reports the plateau level.
    """
    if not p > 1:
        raise ValueError("p must exceed 1")
    r = rearrangement(f)
    if not len(r.breakpoints) or r.plateaus[0] == 0.0:
        return DecayEstimate(0.0, 0.0, True, 0.0)
    # stay above the staircase head, where symmetric value ties corrupt f*
    t_min = max(8.0 * r.breakpoints[0], 1e-6)
    t_min = min(t_min, 0.05)
    ts = np.geomspace(1.0, t_min, 30)
    g = ts ** (1.0 / p) * np.maximum(r.value_interp(ts), 1e-300)
    tail = slice(-10, None)
    slope = float(np.polyfit(np.log(ts[tail]), np.log(g[tail]), 1)[0])
    resolved = t_min <= 2e-3 or slope > 0.15
    if np.all(g[tail] < 1e-10):
        return DecayEstimate(0.0, slope, resolved, t_min)
    if slope > 0.05:
        return DecayEstimate(0.0, slope, resolved, t_min)
    if slope < -0.05:
        return DecayEstimate(float("inf"), slope, False, t_min)
    level = float(np.exp(np.mean(np.log(g[tail]))))
    return DecayEstimate(level, slope, resolved, t_min)
