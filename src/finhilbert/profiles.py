"""Structural descriptions of grid functions that admit closed-form integrals.

A profile records what a sampled function *is* -- a Chebyshev series times a
power of the endpoint weight w, a piecewise series, or a series plus
logarithmic terms c(x) ln|x - a|.  Each profile knows how to evaluate
itself, integrate itself over subintervals, integrate itself against 1/w,
and apply the finite Hilbert transform in closed form.  Log terms use the
two log kernels of :mod:`chebalg`: the dilogarithm form of
T(ln|. - a|) for T(f), and the arccos form of T(ln|. - a| / w) for T(f/w),
which :meth:`LogMixProfile.fht_over_w_values` provides for the exact airfoil
inverses.  Operations that cannot preserve structure simply drop the
profile; all consumers fall back to sample-based rules in that case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chebalg as ca

#: Chebyshev coefficients of w(x)^2 = 1 - x^2.
_W2 = np.array([0.5, 0.0, -0.5])


def _aspoly(c):
    return np.atleast_1d(np.asarray(c, dtype=complex))


# --------------------------------------------------------------------- profiles

@dataclass(frozen=True)
class PolyProfile:
    """f(x) = p(x) * w(x)**wpow with p a Chebyshev series, wpow in {-1, 0, 1}."""

    coeffs: tuple
    wpow: int = 0

    def __init__(self, coeffs, wpow=0):
        if wpow not in (-1, 0, 1):
            raise ValueError("wpow must be -1, 0 or 1")
        object.__setattr__(self, "coeffs", tuple(_aspoly(coeffs)))
        object.__setattr__(self, "wpow", int(wpow))

    @property
    def _c(self):
        return np.asarray(self.coeffs, dtype=complex)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        out = ca.chebval(x, self._c)
        if self.wpow:
            out = out * np.sqrt(1.0 - x * x) ** self.wpow
        return out

    def fht_values(self, x):
        if self.wpow == 0:
            return ca.fht_series(self._c, x)
        if self.wpow == -1:
            return ca.chebval(np.asarray(x, dtype=float), ca.fht_over_w_series(self._c))
        return ca.chebval(np.asarray(x, dtype=float), ca.fht_times_w_series(self._c))

    def fht_profile(self):
        if self.wpow == -1:
            return PolyProfile(ca.fht_over_w_series(self._c), 0)
        if self.wpow == 1:
            return PolyProfile(ca.fht_times_w_series(self._c), 0)
        c = self._c
        # T(p)(x) = (1/pi) * [ D(x) + p(x) ln(1-x) - p(x) ln(1+x) ],  D poly
        return LogMixProfile(ca.fht_smooth_coeffs(c) / np.pi,
                             ((1.0, c / np.pi), (-1.0, -c / np.pi)))

    def integral(self, lo, hi):
        if self.wpow == 0:
            seg = ca.segment_integrals(len(self.coeffs), lo, hi)
            return complex(self._c @ seg)
        if self.wpow == 1:
            return ca.integral_over_w(ca.chebmul(self._c, _W2), lo, hi)
        return ca.integral_over_w(self._c, lo, hi)

    def integral_over_w(self):
        if self.wpow == 0:
            return ca.integral_over_w(self._c)
        if self.wpow == 1:
            seg = ca.segment_integrals(len(self.coeffs), -1.0, 1.0)
            return complex(self._c @ seg)
        # p / w^2 has non-integrable endpoint singularities unless p(+-1) = 0
        scale = max(np.max(np.abs(self._c)), 1e-300)
        if max(abs(ca.chebval(1.0, self._c)), abs(ca.chebval(-1.0, self._c))) > 1e-12 * scale:
            return complex(np.inf)
        q = _deflate_w2(self._c)
        return ca.integral_over_w(q)

    def restricted(self, interval_set):
        if self.wpow != 0:
            return None
        return PiecewiseProfile(tuple((a, b, self.coeffs) for a, b in interval_set))

    def times_poly(self, coeffs):
        return PolyProfile(ca.chebmul(self._c, _aspoly(coeffs)), self.wpow)

    def scaled(self, c):
        return PolyProfile(self._c * c, self.wpow)

    def plus(self, other):
        if isinstance(other, PolyProfile) and other.wpow == self.wpow:
            return PolyProfile(_padd(self._c, other._c), self.wpow)
        if self.wpow == 0 and isinstance(other, LogMixProfile):
            return other.plus(self)
        return None


@dataclass(frozen=True)
class PiecewiseProfile:
    """f(x) = sum over pieces (lo, hi, series) of p_j(x) chi_(lo,hi)(x) * w^wpow."""

    pieces: tuple
    wpow: int = 0

    def __init__(self, pieces, wpow=0):
        if wpow not in (-1, 0):
            raise ValueError("piecewise profiles support wpow in {-1, 0}")
        norm = tuple((float(a), float(b), tuple(_aspoly(c))) for a, b, c in pieces if a < b)
        object.__setattr__(self, "pieces", norm)
        object.__setattr__(self, "wpow", int(wpow))

    def breakpoints(self):
        pts = set()
        for a, b, _ in self.pieces:
            pts.update((a, b))
        return sorted(pts)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for a, b, c in self.pieces:
            m = (x > a) & (x < b)
            if m.any():
                out[m] += ca.chebval(x[m], np.asarray(c))
        if self.wpow:
            out = out * np.sqrt(1.0 - x * x) ** self.wpow
        return out

    def fht_values(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape, dtype=complex)
        for a, b, c in self.pieces:
            c = np.asarray(c, dtype=complex)
            if self.wpow == 0:
                out += ca.fht_series(c, x, a, b)
            else:
                bq = ca.difference_quotient(c, x)
                seg = _segment_integrals_over_w(bq.shape[0], a, b)
                out += (seg @ bq) / np.pi if bq.shape[0] else 0.0
                out += ca.chebval(x, c) * ca.fht_indicator_over_w(a, b, x)
        return out

    def fht_profile(self):
        if self.wpow != 0:
            return None
        smooth = np.zeros(1, dtype=complex)
        logs = {}
        for a, b, c in self.pieces:
            c = np.asarray(c, dtype=complex)
            smooth = _padd(smooth, ca.fht_smooth_coeffs(c, a, b))
            for loc, sgn in ((b, 1.0), (a, -1.0)):
                logs[loc] = _padd(logs.get(loc, np.zeros(1, dtype=complex)), sgn * c / np.pi)
        terms = tuple((loc, cc) for loc, cc in sorted(logs.items()) if np.any(np.abs(cc) > 0))
        return LogMixProfile(smooth / np.pi, terms)

    def integral(self, lo, hi):
        total = 0.0 + 0.0j
        for a, b, c in self.pieces:
            a2, b2 = max(a, lo), min(b, hi)
            if a2 >= b2:
                continue
            c = np.asarray(c, dtype=complex)
            if self.wpow == 0:
                total += c @ ca.segment_integrals(len(c), a2, b2)
            else:
                total += ca.integral_over_w(c, a2, b2)
        return complex(total)

    def integral_over_w(self):
        if self.wpow == -1:
            eps = 1e-12
            if any(a <= -1 + eps or b >= 1 - eps for a, b, _ in self.pieces):
                return complex(np.inf)
        total = 0.0 + 0.0j
        for a, b, c in self.pieces:
            c = np.asarray(c, dtype=complex)
            if self.wpow == 0:
                total += ca.integral_over_w(c, a, b)
            else:
                total += ca.integrate_panels(
                    lambda y: ca.chebval(y, c) / (1.0 - y * y), np.array([a, b]), order=48
                )
        return complex(total)

    def restricted(self, interval_set):
        out = []
        for a, b, c in self.pieces:
            for lo, hi in interval_set:
                a2, b2 = max(a, lo), min(b, hi)
                if a2 < b2:
                    out.append((a2, b2, c))
        return PiecewiseProfile(tuple(out), self.wpow)

    def times_poly(self, coeffs):
        q = _aspoly(coeffs)
        return PiecewiseProfile(
            tuple((a, b, ca.chebmul(np.asarray(c, dtype=complex), q)) for a, b, c in self.pieces),
            self.wpow,
        )

    def scaled(self, c):
        return PiecewiseProfile(
            tuple((a, b, np.asarray(cc, dtype=complex) * c) for a, b, cc in self.pieces),
            self.wpow,
        )

    def plus(self, other):
        # summed pieces may overlap: evaluation/integration always sums contributions
        if isinstance(other, PiecewiseProfile) and other.wpow == self.wpow:
            return PiecewiseProfile(self.pieces + other.pieces, self.wpow)
        if self.wpow == 0 and isinstance(other, PolyProfile) and other.wpow == 0:
            return PiecewiseProfile(self.pieces + ((-1.0, 1.0, other.coeffs),), self.wpow)
        return None

    def is_constantwise(self):
        return all(len(c) == 1 for _, _, c in self.pieces)


@dataclass(frozen=True)
class LogMixProfile:
    """f(x) = smooth(x) + sum_i c_i(x) ln|x - a_i| with Chebyshev smooth, c_i."""

    smooth: tuple
    logs: tuple          # ((location, coeffs), ...)

    def __init__(self, smooth, logs=()):
        object.__setattr__(self, "smooth", tuple(_aspoly(smooth)))
        object.__setattr__(
            self, "logs", tuple((float(a), tuple(_aspoly(c))) for a, c in logs)
        )

    @property
    def _s(self):
        return np.asarray(self.smooth, dtype=complex)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        out = ca.chebval(x, self._s).astype(complex)
        for a, c in self.logs:
            # floor keeps quadrature nodes that round onto the singular
            # location finite; their panel weight is vanishing at that scale
            dist = np.maximum(np.abs(x - a), 1e-30)
            out += ca.chebval(x, np.asarray(c)) * np.log(dist)
        return out

    def fht_values(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = ca.fht_series(self._s, x).astype(complex)
        for a, c in self.logs:
            c = np.asarray(c, dtype=complex)
            out += ca.chebval(x, c) * ca.fht_log_kernel(a, x) / np.pi
            out += _log_moments(ca.integral_log, c, a, x)
        return out

    def fht_over_w_values(self, x):
        """T(f/w) at x, exact: T(T_n/w) = U_{n-1} on the smooth part, and per
        log term c(t) J_a(t) plus the regular remainder
        (1/pi) int (c(y) - c(t))/(y - t) ln|y - a| / w(y) dy."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = ca.chebval(x, ca.fht_over_w_series(self._s)).astype(complex)
        for a, c in self.logs:
            c = np.asarray(c, dtype=complex)
            out += ca.chebval(x, c) * ca.fht_log_over_w_kernel(a, x)
            out += _log_moments(ca.integral_log_over_w, c, a, x)
        return out

    def fht_profile(self):
        return None

    def integral(self, lo, hi):
        total = complex(self._s @ ca.segment_integrals(len(self.smooth), lo, hi))
        for a, c in self.logs:
            total += ca.integral_log(np.asarray(c, dtype=complex), a, lo, hi)
        return total

    def integral_over_w(self):
        total = ca.integral_over_w(self._s)
        for a, c in self.logs:
            total += ca.integral_log_over_w(np.asarray(c, dtype=complex), a)
        return complex(total)

    def restricted(self, interval_set):
        return None

    def times_poly(self, coeffs):
        q = _aspoly(coeffs)
        return LogMixProfile(
            ca.chebmul(self._s, q),
            tuple((a, ca.chebmul(np.asarray(c, dtype=complex), q)) for a, c in self.logs),
        )

    def scaled(self, c):
        return LogMixProfile(self._s * c, tuple((a, np.asarray(cc) * c) for a, cc in self.logs))

    def plus(self, other):
        if isinstance(other, LogMixProfile):
            logs = {}
            for a, c in self.logs + other.logs:
                logs[a] = _padd(logs.get(a, np.zeros(1, dtype=complex)), np.asarray(c))
            terms = tuple((a, c) for a, c in sorted(logs.items()))
            return LogMixProfile(_padd(self._s, other._s), terms)
        if isinstance(other, PolyProfile) and other.wpow == 0:
            return LogMixProfile(_padd(self._s, np.asarray(other.coeffs)), self.logs)
        return None


# -------------------------------------------------------------------- helpers

def _padd(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return out


def _log_moments(moment, c, a, x):
    """(1/pi) sum_k b_k(x) moment(T_k, a) with b = difference_quotient(c, x):
    the regular part of a log term's transform once c(x) times the log
    kernel is split off."""
    b = ca.difference_quotient(c, x)
    if not b.shape[0]:
        return 0.0
    lam = np.array([moment(_unit(k, k + 1), a) for k in range(b.shape[0])])
    return (lam @ b) / np.pi


def _unit(k, n):
    c = np.zeros(n, dtype=complex)
    c[k] = 1.0
    return c[: k + 1]


def _deflate_w2(coeffs):
    """q with p = (1 - x^2) q, valid when p vanishes at both endpoints."""
    from numpy.polynomial import chebyshev as _c

    q, r = _c.chebdiv(np.asarray(coeffs, dtype=complex), _W2)
    return q


def _segment_integrals_over_w(d, lo, hi):
    """Vector of int_lo^hi T_k(y)/w(y) dy for k < d."""
    out = np.zeros(d, dtype=complex)
    for k in range(d):
        out[k] = ca.integral_over_w(_unit(k, k + 1), lo, hi)
    return out


def product_profile(pa, pb):
    """Profile of a pointwise product, or None when structure is lost."""
    if pa is None or pb is None:
        return None
    if isinstance(pa, PolyProfile) and isinstance(pb, PolyProfile):
        wp = pa.wpow + pb.wpow
        prod = ca.chebmul(np.asarray(pa.coeffs), np.asarray(pb.coeffs))
        if wp == 0:
            return PolyProfile(prod, 0)
        if wp in (-1, 1):
            return PolyProfile(prod, wp)
        if wp == 2:
            return PolyProfile(ca.chebmul(prod, _W2), 0)
        return None
    for first, second in ((pa, pb), (pb, pa)):
        if isinstance(first, PolyProfile) and first.wpow == 0:
            return second.times_poly(np.asarray(first.coeffs))
    return None
