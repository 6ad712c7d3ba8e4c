"""Rearrangement-invariant space toolkit for functions on (-1, 1).

Supported norms: Lebesgue L^p, Lorentz L^{p,q} (quasinorm convention
``( int_0^2 (t^{1/p} f*(t))^q dt/t )^{1/q}`` without renormalization) and
weak-L^p = L^{p,infinity}.  The decreasing rearrangement is computed from
the weighted samples; for a declared step function it is read from the
steps, and it and the norms are exact.

Dilation operators E_s f(x) = f(sx) (zero when sx leaves the interval) give
dictionary lower bounds for operator norms; on these families
``||E_s||_op = s^{-1/p}`` exactly, attained by centred spikes, so the Boyd
index estimates land at 1/p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .grid import DEFAULT_NODES, indicator_fn
from .intervals import IntervalSet
from .profiles import Profile

LP = "Lp"
LORENTZ = "Lorentz"
WEAK_LP = "WeakLp"


@dataclass(frozen=True)
class SpaceSpec:
    """Closed enumeration of target spaces: Lp(p), Lorentz(p, q), WeakLp(p),
    with a finite p > 1 and, for Lorentz, a finite q >= 1."""

    kind: str
    p: float
    q: float = None

    def __post_init__(self):
        if self.kind not in (LP, LORENTZ, WEAK_LP):
            raise ValueError(f"unknown space kind: {self.kind}")
        # the kernels take finite exponents only (Lp(inf) would read 1.0
        # for 1 + x/2, whose sup is 1.5), and p = inf has trivial Boyd indices
        if not 1 < self.p < np.inf:
            raise ValueError("p must be finite and exceed 1")
        if self.kind == LORENTZ and not (self.q is not None and 1 <= self.q < np.inf):
            raise ValueError("Lorentz spaces need a finite q >= 1 (for q = inf use WeakLp)")

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
    """mu{ |f| > lam }: the lengths of the exceeding steps of a declared step
    function, else the weight sum over the exceeding nodes."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    mags, masses = _masses(f)
    return float(masses @ (mags > lam))


def _masses(f):
    """``(|values|, masses)``: the steps and lengths of a declared step
    function, else the samples and their weights."""
    steps = f.profile.steps() if f.profile is not None else None
    if steps is None:
        return np.abs(f.values), f.weights
    values, lengths = steps
    return np.abs(values), lengths


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
        return float(np.diff(self.breakpoints, prepend=0.0) @ (self.plateaus > lam))


def rearrangement(f):
    """Sort-based decreasing rearrangement of :func:`_masses`: exact for a
    declared step function, else of |f| with its quadrature weights."""
    mags, masses = _masses(f)
    order = np.argsort(-mags, kind="stable")
    return Rearrangement(np.cumsum(masses[order]), mags[order])


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

    A declared step function (:meth:`Profile.steps`) has its exact staircase
    norm, which is finite and needs no flag.  Other samples are normed by
    the value kernel (:func:`_norm_values`) as a single row.  Where the
    row's peak dwarfs the bulk of its magnitudes, a power-law fit of |f|
    against the distance to the peak (:func:`_blowup_exponent`) estimates
    the local blow-up exponent beta, and the norm is reported as +inf when
    the exponent makes the defining integral divergent (p*beta >= 1, strict
    inequality for weak-L^p where the boundary case is finite).  Only
    endpoint peaks are fitted: an interior peak that dwarfs the bulk of the
    samples is flagged resolution-limited, and a milder one goes unflagged.
    """
    if f.profile is not None and f.profile.steps() is not None:
        return NormInfo(_staircase_norm(rearrangement(f), space))
    if not len(f):
        return NormInfo(0.0)
    work = NormWorkspace(1, len(f))
    value = float(_norm_values(f.values[None, :], f.weights, space, work)[0])
    mags = work.mags[0]
    # the blow-up gate: the peak must dwarf the median of the nonzero
    # magnitudes (exceed 30 times it), which sit first in the descending
    # order; L^p sorts, Lorentz and weak-L^p read the kernel's rank sort
    ordered = np.sort(mags)[::-1] if space.kind == LP else work.ordered[0]
    count = np.count_nonzero(mags)
    median = (ordered[max(count - 1, 0) // 2] + ordered[count // 2]) / 2.0
    beta, interior = 0.0, False
    if count and ordered[0] > 30.0 * median:
        beta, interior = _blowup_exponent(f.nodes, mags)
    pb = space.p * beta
    divergent = bool(pb > 1.05 if space.kind == WEAK_LP else pb >= 0.99)
    return NormInfo(np.inf if divergent else value,
                    bool(interior or divergent or beta > 0.1), divergent)


class NormWorkspace:
    """Scratch arrays for the value kernel :func:`_norm_values`, on blocks
    of up to ``rows`` rows of ``n`` samples.

    A search allocates one and passes it to every block, so its block loop
    reuses the same memory instead of allocating fresh block-sized
    temporaries, whose cost would depend on what the allocator last freed.
    ``keys`` holds the packed sort keys of the Lorentz and weak-L^p rank
    sort: the magnitude's bit pattern above the low ceil(log2 n) bits, which
    carry the node index.
    """

    def __init__(self, rows, n):
        self.mags = np.empty((rows, n))
        self.positive = np.empty((rows, n), dtype=bool)
        self.keys = np.empty((rows, n), dtype=np.uint64)
        self.ordered = np.empty((rows, n))
        self.gathered = np.empty((rows, n))
        self.breakpoints = np.empty((rows, n))
        self.scratch = np.empty((rows, n))


def _norm_values(values, weights, space, work):
    """The norms of the rows of ``values[P, N]`` with weights ``weights``,
    with no blow-up diagnosis: all a sign-pattern search needs (its rows
    are finite in every space here), and the value under :func:`norm_info`.

    L^p sums |v|^p w over each row on its own, so a row's value does not
    depend on its place in the block (a matrix-vector product's last bit
    can).  Lorentz and weak-L^p rank each row (:func:`_rank_sort`) into the
    stable descending rearrangement, tied values in node order, and norm
    its staircase.  Every power goes through :func:`_power`.  The
    magnitudes are left in ``work.mags``, and for Lorentz and weak-L^p the
    sorted ones in ``work.ordered``.
    """
    rows = len(values)
    mags = np.abs(values, out=work.mags[:rows])
    scratch = work.scratch[:rows]
    if space.kind == LP:
        terms = np.multiply(_power(mags, space.p, scratch), weights, out=scratch)
        return _power(terms.sum(axis=1), 1.0 / space.p)
    _rank_sort(mags, weights, work)
    ordered = work.ordered[:rows]
    breakpoints = np.cumsum(work.gathered[:rows], axis=1, out=work.breakpoints[:rows])
    if space.kind == LORENTZ:
        return _lorentz_staircase(breakpoints, ordered, space, scratch)
    # conservative staircase pairing u_k with the next plateau value (the
    # raw staircase inflates the sup by up to 2^{1/p} at sub-resolution t
    # when singular values tie in symmetric pairs)
    powers = _power(breakpoints, 1.0 / space.p, scratch)
    powers[:, :-1] *= ordered[:, 1:]
    powers[:, -1] *= ordered[:, -1]
    return np.max(powers, axis=1)


def _power(x, e, out=None):
    """``x ** e`` for nonnegative ``x``: a multiply or a square root where
    one gives the power, else ``np.power``.

    The exponent 1/2 (sqrt) has the bits of ``np.power``; 3 and 3/2
    (x*x*x, x*sqrt(x)) are within one ulp of it; for 1, ``x`` itself is
    returned and ``out`` is left alone.  ``out``, when given, must not
    share memory with ``x``.
    """
    if e == 1.0:
        return x
    if e == 0.5:
        return np.sqrt(x, out=out)
    if e == 3.0:
        out = np.multiply(x, x, out=out)
        out *= x
        return out
    if e == 1.5:
        out = np.sqrt(x, out=out)
        out *= x
        return out
    return np.power(x, e, out=out)


def _rank_sort(mags, weights, work):
    """Stable descending rearrangement of the rows of ``mags[P, N]``: the
    sorted magnitudes go to ``work.ordered`` and their weights to
    ``work.gathered``.

    Each key is the complemented bit pattern of a nonnegative magnitude
    (which orders like the value, reversed) with its low ceil(log2 N) bits
    replaced by the node index, so one in-place integer sort orders a row by
    value and then by node.  Dropping the low bits can merge nearly tied
    values, which then come out in node order; a row whose gathered
    magnitudes are not non-increasing (such a near tie out of order, or a
    NaN) is argsorted stably instead.  A single row (``norm_info``) is
    argsorted directly, which costs less than packing its keys.
    """
    rows, n = mags.shape
    gathered, ordered = work.gathered[:rows], work.ordered[:rows]
    if rows == 1:
        unsorted = [0]
    else:
        shift = (n - 1).bit_length()
        low = np.uint64((1 << shift) - 1)
        keys = np.invert(mags.view(np.uint64), out=work.keys[:rows])
        keys &= ~low
        keys |= np.arange(n, dtype=np.uint64)
        keys.sort(axis=1)
        keys &= low
        order = keys.view(np.int64)
        np.take(weights, order, out=gathered, mode="clip")
        order += (n * np.arange(rows))[:, None]
        np.take(mags.reshape(-1), order, out=ordered, mode="clip")
        descending = np.greater_equal(ordered[:, :-1], ordered[:, 1:],
                                      out=work.positive[:rows, :-1]).all(axis=1)
        unsorted = np.flatnonzero(~descending)
    for i in unsorted:
        exact = np.argsort(-mags[i], kind="stable")
        gathered[i] = weights[exact]
        ordered[i] = mags[i, exact]


def _lorentz_staircase(breakpoints, plateaus, space, scratch=None):
    """Lorentz quasinorm of staircases given row-wise as (u_k, v_k) arrays.

    With ``scratch`` (an array shaped like ``breakpoints``), the chunk
    widths overwrite ``breakpoints`` and no block-sized array is allocated.
    ``plateaus`` is only read.
    """
    if scratch is None:
        breakpoints, scratch = breakpoints.copy(), np.empty(breakpoints.shape)
    powers = _power(breakpoints, space.q / space.p, scratch)
    chunks = breakpoints
    chunks[:, 0] = powers[:, 0]
    np.subtract(powers[:, 1:], powers[:, :-1], out=chunks[:, 1:])
    chunks *= space.p / space.q
    summands = np.multiply(_power(plateaus, space.q, scratch), chunks, out=scratch)
    return _power(np.sum(summands, axis=1), 1.0 / space.q)


def _staircase_norm(r, space):
    """Exact norm of the staircase of a :class:`Rearrangement`."""
    if space.kind == LP:
        lengths = np.diff(r.breakpoints, prepend=0.0)
        return float((r.plateaus ** space.p @ lengths) ** (1.0 / space.p))
    if space.kind == LORENTZ:
        return float(_lorentz_staircase(r.breakpoints[None, :], r.plateaus[None, :], space)[0])
    return float(np.max(r.breakpoints ** (1.0 / space.p) * r.plateaus))


def _blowup_exponent(nodes, mags):
    """``(beta, interior)``: the least-squares exponent of |f| ~ dist^{-beta}
    near the strongest peak of the magnitudes ``mags`` sampled at ``nodes``,
    and whether that peak is interior.

    Called only where the peak dwarfs the bulk of the function (a genuine
    power singularity at grid resolution).  Interior peaks report beta = 0
    and True: the singular location falls between nodes, so a power fit
    against node distances is unreliable, and the norm is only
    resolution-limited; only endpoint blow-up (where the node family
    clusters) is diagnosed.  An endpoint peak fits log|f| against log dist
    over its 24 usable nodes nearest that endpoint (dist > 0 and |f| above
    1e-14 of the peak); with fewer than 6 it reports 0.
    """
    peak = np.argmax(mags)
    if -0.9 <= nodes[peak] <= 0.9:
        return 0.0, True
    dist = 1.0 - nodes if nodes[peak] > 0.9 else 1.0 + nodes
    near = np.argsort(dist, kind="stable")
    dist, m = dist[near], mags[near]
    usable = (dist > 0) & (m > 1e-14 * mags[peak])
    usable &= np.cumsum(usable) <= 24
    count = np.count_nonzero(usable)
    if count < 6:
        return 0.0, False
    # the sums run over all N columns; past the 24th usable one every
    # summand is zero
    logd = np.log(dist, where=dist > 0, out=np.zeros_like(dist))
    logm = np.log(m, where=usable, out=np.zeros_like(m))
    xc = np.where(usable, logd - (logd * usable).sum() / count, 0.0)
    slope = (xc * logm).sum() / max((xc * xc).sum(), 1e-300)
    return max(0.0, -slope), False


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
    if profile is None or profile.logs or any(s for *_, s in profile.pieces):
        return None
    return Profile(tuple((a / t, b / t, _compose_linear(c, t), 0)
                         for a, b, c, _ in profile.pieces))


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


_SPIKE_WIDTHS = (0.75, 0.5, 0.25, 0.125, 0.0625, 0.03125)
_BOYD_T_SMALL, _BOYD_T_LARGE = (1 / 6, 1 / 4, 1 / 3, 1 / 2), (2.0, 3.0, 4.0, 6.0)


def default_dilation_dictionary():
    """Centred indicator spikes chi_(-a,a), a in ``_SPIKE_WIDTHS``, on the
    default nodes.

    On L^p, Lorentz and weak-L^p these attain the dilation operator norm
    s^{-1/p} exactly whenever the support fits after dilation, and their
    norms are computed in closed form, so the Boyd estimates are exact up to
    the t-grid.
    """
    return tuple(indicator_fn(IntervalSet(((-a, a),)), DEFAULT_NODES) for a in _SPIKE_WIDTHS)


def boyd_estimate(space):
    """(lower, upper) Boyd index estimates from dilation-norm samples of
    :func:`default_dilation_dictionary`.

    lower = sup_{0<t<1} log||E_{1/t}|| / log t over ``_BOYD_T_SMALL``;  upper
    is the infimum of the same quotient over ``_BOYD_T_LARGE``, t > 1.  For
    the supported families both land at 1/p.
    """
    dictionary = default_dilation_dictionary()
    lower = max(
        np.log(dilation_opnorm(space, 1.0 / t, dictionary)) / np.log(t) for t in _BOYD_T_SMALL
    )
    upper = min(
        np.log(dilation_opnorm(space, 1.0 / t, dictionary)) / np.log(t) for t in _BOYD_T_LARGE
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
