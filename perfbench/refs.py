"""Independent references and tolerances for every benchmark operation.

Nothing here imports ``finhilbert``: each reference is a closed form or a
separate numerical route written against numpy/scipy directly, so a wrong
library result cannot also be the reference it is checked against.

A check returns a :class:`Verdict`: the largest ``error / tolerance`` over
its parts (a part passes when that ratio is at most 1) and the name of the
worst part.  ``digits`` turns the ratio into ``log10(tolerance / error)``,
capped so that round-off-level errors read the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import quad

CAP_DIGITS = 6.0

# Tolerances, one per reference.  Each is a claim about the library, stated
# relative to the scale of the reference (1 + max |reference|).
TOL_CLOSED_FORM = 1e-9     # fht_grid of polynomials, w, 1/w and indicators
TOL_SPECTRAL = 1e-9        # profile-free samples against the polynomial closed form
TOL_RYBAKOV = 1e-4         # T(c g0) = c sign away from 0 and +-1 (suite tolerance)
TOL_ROUND_TRIP = 1e-5      # quadrature inverses (suite left/right-inverse tolerance)
TOL_EXACT_SOLVE = 1e-8     # T(right_inverse(g)) = g for polynomial g
TOL_DISCONTINUOUS = 1e-3   # solve on indicator / sign data, away from the jumps
TOL_NORM = 1e-10           # norms against the discrete definitions / closed forms
TOL_SEARCH = 1e-9          # search value relations (witness, floor, two routes)


@dataclass(frozen=True)
class Verdict:
    ratio: float           # max error / tolerance over the parts; inf on a failure
    worst: str

    @property
    def ok(self):
        return bool(self.ratio <= 1.0)

    @property
    def digits(self):
        if self.ratio <= 0.0:
            return CAP_DIGITS
        return min(CAP_DIGITS, -math.log10(self.ratio))


def verdict(parts):
    """``parts`` is a list of (name, error, tolerance); non-finite errors fail."""
    worst_name, worst = "", 0.0
    for name, err, tol in parts:
        r = float(err) / float(tol) if np.isfinite(err) else math.inf
        if not r <= worst:
            worst_name, worst = name, r
    return Verdict(worst, worst_name)


def failure(reason):
    return Verdict(math.inf, reason)


def scaled_error(values, ref):
    """max |values - ref| / (1 + max |ref|); inf on a shape mismatch."""
    values, ref = np.asarray(values), np.asarray(ref)
    if values.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(values - ref)) / (1.0 + np.max(np.abs(ref))))


# ------------------------------------------------------------ closed forms

def power_poly(coeffs, x):
    return P.polyval(np.asarray(x, dtype=float), np.asarray(coeffs, dtype=float))


def fht_power_poly(coeffs, t):
    """T(p)(t) for p = sum c_k x^k, from the monomial difference quotient.

    (y^k - t^k)/(y - t) = sum_j y^j t^(k-1-j) and int_-1^1 y^j dy is 2/(j+1)
    for even j, 0 for odd j.
    """
    t = np.asarray(t, dtype=float)
    smooth = np.zeros_like(t)
    for k, c in enumerate(coeffs):
        for j in range(0, k, 2):
            smooth += c * t ** (k - 1 - j) * (2.0 / (j + 1))
    return (power_poly(coeffs, t) * np.log((1.0 - t) / (1.0 + t)) + smooth) / np.pi


def fht_indicator(intervals, t):
    """T(chi_A)(t) = (1/pi) sum over (a, b) of ln|(b - t)/(a - t)|."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for a, b in intervals:
        out += np.log(np.abs((b - t) / (a - t)))
    return out / np.pi


def fht_weight(kind, scale, t):
    """T(c w)(t) = -c t and T(c / w)(t) = 0."""
    t = np.asarray(t, dtype=float)
    return -scale * t if kind == "w" else np.zeros_like(t)


def fht_over_w(h, t, order=96):
    """T(h/w)(t) = (1/pi) int_0^pi (h(cos s) - h(t)) / (cos s - t) ds.

    The identity pv int_0^pi ds / (cos s - t) = 0 removes the principal
    value; the remaining integrand is regular, so Gauss-Legendre on [0, pi]
    is exact for polynomial h of degree below ``order``.
    """
    z, wts = np.polynomial.legendre.leggauss(order)
    s = (z + 1.0) * np.pi / 2.0
    xs = np.cos(s)
    t = np.asarray(t, dtype=float)
    hx = h(xs)[None, :]
    ht = h(t)[:, None]
    return ((hx - ht) / (xs[None, :] - t[:, None])) @ wts / 2.0


def right_inverse_pieces(pieces, t):
    """-T(g w)/w for g = sum c chi_(a,b), by QUADPACK's Cauchy-weight rule.

    This is the solution of T(f) = g that the library's right inverse
    claims for discontinuous right-hand sides.
    """
    def semicircle(y):
        return np.sqrt(1.0 - y * y)

    out = []
    for tt in np.asarray(t, dtype=float):
        total = 0.0
        for a, b, c in pieces:
            if a < tt < b:
                val = quad(semicircle, a, b, weight="cauchy", wvar=tt, limit=200)[0]
            else:
                val = quad(lambda y: semicircle(y) / (y - tt), a, b, limit=200)[0]
            total += c * val
        out.append(-total / (np.pi * math.sqrt(1.0 - tt * tt)))
    return np.array(out)


# --------------------------------------------------------------------- norms

def space_key(space):
    """('Lp', p) / ('Lorentz', p, q) / ('WeakLp', p) from a label like Lorentz(3,1)."""
    kind, _, rest = space.partition("(")
    return (kind,) + tuple(float(v) for v in rest.rstrip(")").split(","))


def discrete_norm(values, weights, space):
    """The library's discrete norm definitions, written out independently.

    Lp: (sum w |v|^p)^(1/p).  Lorentz(p, q) and weak-Lp use the decreasing
    rearrangement of |v| with the weights as cell measures u_k; weak-Lp pairs
    each u_k with the next plateau value.
    """
    key = space_key(space)
    mags = np.abs(np.asarray(values))
    weights = np.asarray(weights, dtype=float)
    p = key[1]
    if key[0] == "Lp":
        return float((weights @ mags**p) ** (1.0 / p))
    order = np.argsort(-mags, kind="stable")
    v = mags[order]
    u = np.cumsum(weights[order])
    if key[0] == "Lorentz":
        q = key[2]
        edges = np.concatenate([[0.0], u]) ** (q / p)
        return float((np.sum(v**q * np.diff(edges)) * (p / q)) ** (1.0 / q))
    vnext = np.concatenate([v[1:], v[-1:]])
    return float(np.max(u ** (1.0 / p) * vnext))


def indicator_norm(scale, measure, space):
    """Norm of c chi_A with |A| = measure, in closed form."""
    key = space_key(space)
    p = key[1]
    base = abs(scale) * measure ** (1.0 / p)
    if key[0] == "Lorentz":
        return base * (p / key[2]) ** (1.0 / key[2])
    return base


# ----------------------------------------------------------------- reports

def report_body(text):
    """A verification report without its ``generated_at`` timestamp."""
    payload = json.loads(text)
    payload.pop("generated_at", None)
    return payload


def report_rows(payload):
    """(name, error, tolerance) for every row with a numeric tolerance.

    Rows with tolerance 0 assert a strict inequality; their pass flag is
    checked separately.
    """
    parts = []
    for r in payload["checks"]:
        if r["tolerance"] > 0:
            parts.append((r["check_id"], abs(r["computed"] - r["expected"]), r["tolerance"]))
    return parts
