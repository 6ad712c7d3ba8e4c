"""The exact structure a sampled function may carry: one profile algebra.

A :class:`Profile` describes

    f(x) = sum_j p_j(x) w(x)^{s_j} chi_(lo_j, hi_j)(x) + sum_i c_i(x) ln|x - a_i|

with Chebyshev series p_j and c_i, the endpoint weight w(x) = sqrt(1 - x^2)
and weight powers s_j in {-1, 0, 1}.  That one shape covers simple
functions, polynomials, the kernel direction 1/w, the transform images
T(p) and T(chi_A), and the Rybakov functional.

The constructor establishes one invariant, which every method relies on:

* pieces are sorted by (weight power, lo), and pieces of one power never
  overlap: overlapping ones are summed on the cells cut by all their ends;
* a w^{+1} piece that stops short of -1 or 1 is stored as
  (p (1 - x^2), -1), the form its transform takes;
* log terms are merged per location, and zero terms are dropped.

Each method is one loop over the pieces and the log terms.  Log terms use
the two log kernels of :mod:`chebalg`: the dilogarithm form of
T(ln|. - a|) for T(f), and the arccos form of T(ln|. - a| / w) for T(f/w),
which :meth:`Profile.fht_over_w_values` provides for the exact airfoil
inverses; there a w^{-1} piece gives p/(1 - y^2), split by partial fractions.
At a piece end :meth:`Profile.eval` reads the mean of the two one-sided
limits, and the transforms take the finite part: each piece drops
its p(end) ln 0 term, which at a kink cancels against the neighbour's.  At
a jump (:meth:`Profile.jumps`) they diverge, so the exact transforms
(:meth:`Profile.fht_values`, :meth:`Profile.fht_over_w_values`,
:meth:`Profile.fht_image` and :func:`fht_values_stacked`) refuse a point
within 1e-12 of a jump with :class:`SingularEvaluationError`; this is the
library's one jump guard.  Results that leave the algebra are None, and
callers fall back to sample-based rules:

* :meth:`Profile.fht_profile` with log terms or a partial w^{-1} piece;
* :meth:`Profile.restricted` with log terms;
* :meth:`Profile.times` for ln x ln, a log term times anything but a plain
  series on all of (-1, 1), and w^{-1} x w^{-1};
* the queries :meth:`Profile.series` and :meth:`Profile.steps` when the
  profile does not have the asked-for shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from . import chebalg as ca

#: Chebyshev coefficients of w(x)^2 = 1 - x^2.
_W2 = np.array([0.5, 0.0, -0.5])

_JUMP_TOL = 1e-12      # relative size below which two values count as equal
_CUT_GUARD = 1e-12     # evaluation this close to a jump of a profile is refused


class SingularEvaluationError(ValueError):
    """Evaluation at a point where the transform has a genuine singularity."""


def _coeffs(c):
    """Read-only complex coefficient array; such arrays are shared, not copied."""
    if isinstance(c, np.ndarray) and c.dtype == complex and not c.flags.writeable:
        return c
    a = np.array(c, dtype=complex, ndmin=1)
    a.setflags(write=False)
    return a


def _full(lo, hi):
    return lo == -1.0 and hi == 1.0


@dataclass(frozen=True, eq=False)   # identity semantics: ndarray fields
class Profile:
    """Weighted series pieces plus log terms; see the module docstring.

    ``pieces`` is ``((lo, hi, coeffs, wpow), ...)`` and ``logs`` is
    ``((a, coeffs), ...)``, coefficients in the first-kind Chebyshev basis.
    """

    pieces: tuple
    logs: tuple = ()

    def __init__(self, pieces=(), logs=()):
        out = []
        for lo, hi, c, s in pieces:
            if s not in (-1, 0, 1):
                raise ValueError("weight powers must be -1, 0 or 1")
            lo, hi = max(float(lo), -1.0), min(float(hi), 1.0)
            if not lo < hi:
                continue
            if s == 1 and not _full(lo, hi):
                c, s = _cheb.chebmul(c, _W2), -1
            out.append((lo, hi, _coeffs(c), int(s)))
        if len(out) > 1:
            out.sort(key=lambda p: (p[3], p[0], p[1]))
            if any(p[3] == q[3] and q[0] < p[1] for p, q in zip(out, out[1:])):
                out = _refine(out)
        terms = [(float(a), _coeffs(c)) for a, c in logs]
        if len({a for a, _ in terms}) < len(terms):
            terms = _merge(terms)
        object.__setattr__(self, "pieces", tuple(out))
        object.__setattr__(self, "logs", tuple(t for t in terms if t[1].any()))

    @classmethod
    def poly(cls, coeffs, wpow=0):
        """p(x) w(x)^wpow on all of (-1, 1)."""
        return cls(((-1.0, 1.0, coeffs, wpow),))

    @classmethod
    def linear(cls, x, v):
        """The np.interp interpolant of v at x: linear between nodes, constant beyond."""
        m = np.diff(v) / np.diff(x)
        inner = [(a, b, (va - ma * a, ma), 0) for a, b, va, ma in zip(x, x[1:], v, m)]
        return cls([(-1.0, x[0], v[:1], 0)] + inner + [(x[-1], 1.0, v[-1:], 0)])

    # --------------------------------------------------------------- queries
    def series(self, wpow=0):
        """The coefficients of p when the profile is p w^wpow on all of
        (-1, 1) with no log terms, else None."""
        if self.logs or len(self.pieces) != 1:
            return None
        lo, hi, c, s = self.pieces[0]
        return c if s == wpow and _full(lo, hi) else None

    def breakpoints(self):
        """The piece ends inside (-1, 1), sorted."""
        return sorted({e for lo, hi, _, _ in self.pieces for e in (lo, hi) if -1.0 < e < 1.0})

    def steps(self):
        """``(values, lengths)`` of a step function, the rest of (-1, 1) as one
        zero step; None unless every piece is an unweighted constant and
        there are no log terms."""
        if self.logs or any(s or len(c) > 1 for _, _, c, s in self.pieces):
            return None
        values = np.array([c[0] for _, _, c, _ in self.pieces], dtype=complex)
        lengths = np.array([hi - lo for lo, hi, _, _ in self.pieces])
        rest = 2.0 - lengths.sum()
        if rest > 1e-12:
            values, lengths = np.append(values, 0.0), np.append(lengths, rest)
        return values, lengths

    # ------------------------------------------------------------ evaluation
    def eval(self, x):
        """f at x; at a piece end, the mean of the one-sided limits."""
        x = np.asarray(x, dtype=float)
        out = _sides(self.pieces, x.ravel())[0].reshape(x.shape)
        for a, c in self.logs:
            # floor keeps quadrature nodes that round onto the singular
            # location finite; their panel weight is vanishing at that scale
            dist = np.maximum(np.abs(x - a), 1e-30)
            out += _cheb.chebval(x, c) * np.log(dist)
        return out

    def jumps(self, x):
        """Whether f(x-), f(x+) differ by over ``_JUMP_TOL`` of the pieces' sizes at x."""
        x = np.asarray(x, dtype=float).ravel()
        step = _sides(self.pieces, x)[1]
        size = _sides([(lo, hi, (np.abs(c).sum(),), s) for lo, hi, c, s in self.pieces], x)[0]
        return np.abs(step) > _JUMP_TOL * size.real

    def fht_values(self, x):
        """T(f) at x, exact."""
        return fht_values_stacked((self,), x)[0]

    def fht_over_w_values(self, x):
        """T(f/w) at x, exact; ValueError where f/w is not integrable, as 1/w^2.

        Each piece's power drops by one; a log term gives c(t) J_a(t) plus the
        regular remainder (1/pi) int (c(y) - c(t))/(y - t) ln|y - a| / w(y) dy.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        _guard_cuts(self, x)
        out = np.zeros(x.shape, dtype=complex)
        for lo, hi, c, s in self.pieces:
            _add_piece_fht(out, x, lo, hi, c, s - 1)
        for a, c in self.logs:
            out += _cheb.chebval(x, c) * ca.fht_log_over_w_kernel(a, x)
            out += _log_moments(ca.log_over_w_moments, c, a, x)
        return out

    def fht_profile(self):
        """Profile of T(f), or None with log terms or a partial w^{-1} piece.

        pi T(p chi_(lo,hi)) = D + p ln|hi - x| - p ln|lo - x| with D a series;
        T(p/w) and T(p w) on all of (-1, 1) are series.
        """
        return self._image()

    def fht_image(self, x):
        """``(fht_values(x), fht_profile())``, computing the smooth
        coefficients D of each unweighted piece once for both."""
        values, smooth = _fht_rows((self,), np.atleast_1d(np.asarray(x, dtype=float)))
        return values[0], self._image(smooth[0])

    def _image(self, smooth=None):
        """:meth:`fht_profile`, reading D of piece j from ``smooth[j]`` when
        given."""
        if self.logs:
            return None
        cauchy, weighted, logs = np.zeros(1, dtype=complex), np.zeros(1, dtype=complex), []
        for j, (lo, hi, c, s) in enumerate(self.pieces):
            if s == 0:
                d = ca.fht_smooth_coeffs(c, lo, hi) if smooth is None else smooth[j]
                cauchy = _padd(cauchy, d)
                logs += [(hi, c / np.pi), (lo, -c / np.pi)]
            elif _full(lo, hi):
                series = ca.fht_over_w_series(c) if s < 0 else ca.fht_times_w_series(c)
                weighted = _padd(weighted, series)
            else:
                return None
        return Profile(((-1.0, 1.0, _padd(cauchy / np.pi, weighted), 0),), logs)

    # ------------------------------------------------------------- integrals
    def integral(self, lo, hi):
        """Integral of f over (lo, hi)."""
        total = 0.0 + 0.0j
        for a, b, c, s in self.pieces:
            a2, b2 = max(a, lo), min(b, hi)
            if a2 >= b2:
                continue
            if s == 0:
                total += c @ ca.segment_integrals(len(c), a2, b2)
            elif s < 0:
                total += ca.integral_over_w(c, a2, b2)
            else:
                total += ca.integral_over_w(_cheb.chebmul(c, _W2), a2, b2)
        for a, c in self.logs:
            total += ca.integral_log(c, a, lo, hi)
        return complex(total)

    def integral_over_w(self):
        """Integral of f/w over (-1, 1); +inf when a w^{-1} piece reaches -1
        or 1 and its series does not vanish there."""
        total = 0.0 + 0.0j
        for lo, hi, c, s in self.pieces:
            if s == 0:
                total += ca.integral_over_w(c, lo, hi)
            elif s > 0:
                total += c @ ca.segment_integrals(len(c), lo, hi)
            elif (parts := _over_w2(c, lo, hi)) is None:
                return complex(np.inf)
            else:
                q, _, _, ia, ib = parts
                total += q @ ca.segment_integrals(len(q), lo, hi) + ia + ib
        for a, c in self.logs:
            total += ca.integral_log_over_w(c, a)
        return complex(total)

    # ------------------------------------------------------------- algebra
    def restricted(self, interval_set):
        """Profile of f chi_A, or None when f has log terms."""
        if self.logs:
            return None
        return Profile(tuple((max(a, lo), min(b, hi), c, s)
                             for a, b, c, s in self.pieces for lo, hi in interval_set))

    def scaled(self, k):
        return Profile(tuple((lo, hi, c * k, s) for lo, hi, c, s in self.pieces),
                       tuple((a, c * k) for a, c in self.logs))

    def plus(self, other):
        return Profile(self.pieces + other.pieces, self.logs + other.logs)

    def times(self, other):
        """Profile of the pointwise product, or None when it leaves the algebra."""
        pieces = []
        for lo, hi, c, s in self.pieces:
            for lo2, hi2, c2, s2 in other.pieces:
                a, b, wpow = max(lo, lo2), min(hi, hi2), s + s2
                if a >= b:
                    continue
                if wpow == -2:
                    return None
                prod = _cheb.chebmul(c, c2)
                if wpow == 2:
                    prod, wpow = _cheb.chebmul(prod, _W2), 0
                pieces.append((a, b, prod, wpow))
        logs = []
        for mine, theirs in ((self, other), (other, self)):
            if not mine.logs:
                continue
            if theirs.logs or any(s or not _full(lo, hi) for lo, hi, _, s in theirs.pieces):
                return None
            logs += [(a, _cheb.chebmul(cl, c)) for a, cl in mine.logs
                     for _, _, c, _ in theirs.pieces]
        return Profile(pieces, logs)


# ------------------------------------------------------- stacked transforms

#: complex entries in one block of stacked series rows (1 MiB)
_SERIES_BLOCK = 1 << 16


def fht_values_stacked(profiles, x):
    """T(f) at x for each profile f, one row each: row k has the bits of
    ``profiles[k].fht_values(x)``.  The unweighted pieces of all the
    profiles are transformed together, see :func:`_fht_rows`."""
    return _fht_rows(profiles, np.atleast_1d(np.asarray(x, dtype=float)))[0]


def _fht_rows(profiles, x):
    """``(values, smooth)``: row k of ``values`` is T(profiles[k]) at x, and
    ``smooth[k][j]`` the smooth coefficients D (:func:`chebalg.fht_smooth_coeffs`)
    of piece j of profiles[k], None for a weighted piece.

    The pieces are taken in their order, in blocks of at most
    ``_SERIES_BLOCK`` values.  Within a block the unweighted pieces of one
    coefficient length go to :func:`chebalg.fht_smooth_coeffs` and
    :func:`chebalg.fht_series_from_smooth` as stacked rows (zero padding
    would change the FFT length, and with it the bits); weighted pieces and
    log terms are transformed one by one.  Each row adds its pieces' values
    in piece order and then its log terms, as a profile alone does, so a
    row's bits do not depend on the others.  Each profile first passes
    :func:`_guard_cuts` at x.
    """
    for prof in profiles:
        _guard_cuts(prof, x)
    out = np.zeros((len(profiles), len(x)), dtype=complex)
    smooth = [[None] * len(prof.pieces) for prof in profiles]
    order = [(k, j) for k, prof in enumerate(profiles) for j in range(len(prof.pieces))]
    width = max([len(x)] + [2 * len(c) for prof in profiles for _, _, c, _ in prof.pieces])
    step = max(1, _SERIES_BLOCK // width)
    for b in range(0, len(order), step):
        block = order[b:b + step]
        groups, values = {}, {}
        for k, j in block:
            piece = profiles[k].pieces[j]
            if piece[3] == 0:
                groups.setdefault(len(piece[2]), []).append((k, j))
        for where in groups.values():
            lo, hi, c = _stack([profiles[k].pieces[j] for k, j in where])
            d = ca.fht_smooth_coeffs(c, lo, hi)
            values.update(zip(where, ca.fht_series_from_smooth(d, c, x, lo, hi)))
            for (k, j), row in zip(where, d):
                smooth[k][j] = row
        for k, j in block:
            lo, hi, c, s = profiles[k].pieces[j]
            if s == 0:
                out[k] += values[k, j]
            else:
                _add_piece_fht(out[k], x, lo, hi, c, s)
    for row, prof in zip(out, profiles):
        for a, c in prof.logs:
            row += _cheb.chebval(x, c) * ca.fht_log_kernel(a, x) / np.pi
            row += _log_moments(ca.log_moments, c, a, x)
    return out, smooth


def _stack(pieces):
    """``(lo, hi, coeffs)`` of pieces of one coefficient length, as arrays."""
    return (np.array([p[0] for p in pieces]), np.array([p[1] for p in pieces]),
            np.array([p[2] for p in pieces]))


# -------------------------------------------------------------------- helpers

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


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = np.array(a, dtype=complex)
    out[: len(b)] += b
    return out


def _refine(pieces):
    """Pieces of each power summed on the cells cut by all their ends."""
    out = []
    for wpow in sorted({p[3] for p in pieces}):
        group = [p for p in pieces if p[3] == wpow]
        ends = sorted({e for p in group for e in p[:2]})
        for a, b in zip(ends, ends[1:]):
            cover = [c for lo, hi, c, _ in group if lo <= a and b <= hi]
            if cover:
                out.append((a, b, _coeffs(reduce(_padd, cover)), wpow))
    return out


def _merge(terms):
    merged = {}
    for a, c in terms:
        merged[a] = _padd(merged[a], c) if a in merged else c
    return [(a, _coeffs(c)) for a, c in merged.items()]


def _add_piece_fht(out, x, lo, hi, c, s):
    """out += T(p w^s chi_(lo,hi))(x) for s in {-2, -1, 0, 1}; partial pieces
    have s <= 0."""
    if s == 0:
        out += ca.fht_series(c, x, lo, hi)
    elif s == -2:
        # pi T(a/(1 - y)) = (a L + ia)/(1 - x) and pi T(b/(1 + y)) = (b L - ib)/(1 + x)
        # on (lo, hi), with L = ln|(hi - x)/(lo - x)|
        if (parts := _over_w2(c, lo, hi)) is None:
            raise ValueError("f/w is not integrable at -1 or 1: no left inverse")
        q, a, b, ia, ib = parts
        log = ca.segment_log_ratio(x, lo, hi)
        out += ca.fht_series(q, x, lo, hi)
        out += ((a * log + ia) / (1.0 - x) + (b * log - ib) / (1.0 + x)) / np.pi
    elif _full(lo, hi):
        series = ca.fht_over_w_series(c) if s < 0 else ca.fht_times_w_series(c)
        out += _cheb.chebval(x, series)
    else:
        # (1/pi) int (p(y) - p(x))/(y - x) / w(y) dy + p(x) T(chi/w)(x)
        b = ca.difference_quotient(c, x)
        if b.shape[0]:
            out += ca.segment_integrals_over_w(b.shape[0], lo, hi) @ b / np.pi
        out += _cheb.chebval(x, c) * ca.fht_indicator_over_w(lo, hi, x)


def _sides(pieces, x):
    """Rows (f(x-) + f(x+))/2 and f(x+) - f(x-) of the pieces at 1-D x; each
    partial piece takes its run of the sorted points by binary search."""
    cut = not all(_full(lo, hi) for lo, hi, _, _ in pieces)
    order = np.argsort(x, kind="stable") if cut and not np.all(x[:-1] <= x[1:]) else None
    xs, out = x if order is None else x[order], np.zeros((2, len(x)), dtype=complex)
    for lo, hi, c, s in pieces:
        # points in [a, d) lie in [lo, hi]: those in [a, b) on lo, in [e, d) on hi
        a, e = (0, len(x)) if _full(lo, hi) else xs.searchsorted((lo, hi))
        b, d = (0, len(x)) if _full(lo, hi) else xs.searchsorted((lo, hi), "right")
        if a < d:
            xm = xs[a:d]
            term = _cheb.chebval(xm, c)
            if s:
                term = term * np.sqrt(1.0 - xm * xm) ** s
            if a < b or e < d:
                out[1, a:b] += term[:b - a]
                out[1, e:d] -= term[e - a:]
                term[:b - a] *= 0.5
                term[e - a:] *= 0.5
            out[0, a:d] += term
    if order is not None:
        out[:, order] = out.copy()
    return out


def _log_moments(moments, c, a, x):
    """(1/pi) sum_k b_k(x) moments(T_k, a) with b = difference_quotient(c, x):
    the regular part of a log term's transform once c(x) times the log
    kernel is split off."""
    b = ca.difference_quotient(c, x)
    if not b.shape[0]:
        return 0.0
    return moments(b.shape[0], a) @ b / np.pi


def _over_w2(c, lo, hi):
    """``(q, a, b, ia, ib)`` with p/(1 - y^2) = q + a/(1 - y) + b/(1 + y) on
    (lo, hi): q a series, a = p(1)/2, b = p(-1)/2, and ia, ib the integrals
    of the two poles over (lo, hi).  At an end the piece reaches, p must
    vanish (to ``_JUMP_TOL`` of its largest coefficient) and that pole is
    dropped; None where it does not, as p/(1 - y^2) is not integrable there.
    """
    q = _cheb.chebdiv(c, _W2)[0]
    tol = _JUMP_TOL * max(np.max(np.abs(c)), 1e-300)
    parts = []
    for value, near, far in ((_cheb.chebval(1.0, c), 1.0 - hi, 1.0 - lo),
                             (_cheb.chebval(-1.0, c), 1.0 + lo, 1.0 + hi)):
        if near > 0.0:
            parts.append((value / 2.0, value / 2.0 * np.log(far / near)))
        elif abs(value) > tol:
            return None
        else:
            parts.append((0.0, 0.0))
    (a, ia), (b, ib) = parts
    return q, a, b, ia, ib
