"""Chebyshev-series and log-kernel algebra underlying the transform evaluators.

Everything here works on plain numpy arrays of first-kind Chebyshev
coefficients (``f = sum a_n T_n``).  The central primitive is the Cauchy
kernel in coefficient space,

    (T_n(y) - T_n(x)) / (y - x) = 2 sum'_{k<n} T_k(x) U_{n-1-k}(y)

(the primed sum halves the k = 0 term), which turns every principal-value
integral of a series against the Cauchy kernel into a finite closed form:
the regular part of T(p chi_(lo,hi)) has coefficients
``d_k = 2 sum_j a_{k+1+j} int_lo^hi U_j``, one FFT correlation
(:func:`fht_smooth_coeffs`), evaluated at the first-kind nodes by one
DCT-III.  The classical identities used throughout:

    pv int_-1^1 T_n(y) / (w(y)(y-t)) dy = pi * U_{n-1}(t),       n >= 1 (0 for n=0)
    pv int_-1^1 w(y) U_{n-1}(y) / (y-t) dy = -pi * T_n(t),       n >= 1
    ln|y - a| = -ln 2 - 2 sum_{n>=1} T_n(a) T_n(y) / n,          a, y in [-1, 1]

with ``w(x) = sqrt(1 - x^2)``.  The pointwise synthetic division
:func:`difference_quotient` remains for the log and weighted pieces, whose
moments are not a correlation.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy.fft import dct, fft, ifft, next_fast_len
from scipy.special import spence


# ----------------------------------------------------------------- node families

def chebyshev_nodes(n):
    """First-kind Chebyshev points cos((2k-1)pi/2n), ascending, all interior."""
    k = np.arange(1, n + 1)
    return np.cos((2 * k - 1) * np.pi / (2 * n))[::-1].copy()


def fejer1_weights(n):
    """Fejer-1 weights on the first-kind nodes, calibrated to be exact on 1 and w.

    The raw Fejer rule integrates polynomials of degree < n exactly but picks
    up an O(n^-3) error on the endpoint weight w(x) = sqrt(1-x^2).  A minimal
    even correction in span{1, w} pins both  sum(weights) == 2  and
    ``integral of w == pi/2`` exactly; the perturbation of polynomial
    exactness is below 5e-8 for n >= 256.
    """
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    w = _fejer1_raw(n)
    wx = np.sin(theta)[::-1].copy()          # w(x_k) on ascending nodes
    s1, s2 = wx.sum(), (wx**2).sum()
    rhs = np.array([2.0 - w.sum(), np.pi / 2 - w @ wx])
    alpha, beta = np.linalg.solve(np.array([[n, s1], [s1, s2]]), rhs)
    return w + alpha + beta * wx


def _fejer1_raw(n):
    """Raw Fejer-1 weights (2/n)(1 - 2 sum_m cos(2 m theta_k)/(4m^2 - 1)), ascending.

    The sum is one DCT-III of c_0 = 1, c_2m = -1/(4m^2 - 1); its term with
    2m = n is cos((2k-1) pi/2) = 0 at every node, so stopping at 2m < n is
    exact.
    """
    c = np.zeros(n)
    c[0] = 1.0
    m = np.arange(1, (n - 1) // 2 + 1)
    c[2 * m] = -1.0 / (4 * m**2 - 1)
    return (2.0 / n) * dct(c, type=3)[::-1].copy()


def uniform_nodes(n):
    """Midpoint nodes on (-1,1); the matching weights are the constant 2/n."""
    k = np.arange(n)
    return -1.0 + (2 * k + 1.0) / n


# ---------------------------------------------------------------- series basics

def fit_chebyshev(values):
    """Chebyshev coefficients interpolating samples at the first-kind nodes.

    ``values`` must be ordered by ascending node (the layout produced by
    :func:`chebyshev_nodes`).  Complex data is fitted componentwise.
    """
    v = np.asarray(values)[::-1]             # DCT wants ascending theta
    n = len(v)
    if np.iscomplexobj(v):
        out = dct(v.real, type=2) + 1j * dct(v.imag, type=2)
    else:
        out = dct(v, type=2).astype(float)
    out = out / n
    out[0] /= 2.0
    return out


def difference_quotient(coeffs, x):
    """Coefficients b_k(x) of q(y) = (p(y) - p(x)) / (y - x), vectorized in x.

    Returns an array of shape (deg(p), len(x)); empty for constant p.
    """
    a = np.asarray(coeffs, dtype=complex)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = len(a) - 1
    if d <= 0:
        return np.zeros((0, len(x)), dtype=complex)
    b = np.zeros((d + 2, len(x)), dtype=complex)
    for n in range(d, 0, -1):
        b[n - 1] = 2 * a[n] + 2 * x * b[n] - b[n + 1]
    b[0] /= 2.0
    return b[:d]


def segment_integrals(d, lo, hi):
    """Vector of ``int_lo^hi T_k(y) dy`` for k = 0..d-1.

    Closed-form antiderivatives: y, y^2/2, and
    T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)) for k >= 2, with T_k = cos(k arccos y).
    Ends outside [-1, 1] are clipped to it, the domain of every series here.
    """
    if d <= 0:
        return np.zeros(0)
    k = np.arange(2, d)

    def antiderivatives(y):
        y = min(max(y, -1.0), 1.0)
        t = np.cos(np.arange(d + 1) * np.arccos(y))
        out = np.empty(d)
        out[0] = y
        out[1:2] = y * y / 2.0
        out[2:] = t[k + 1] / (2.0 * (k + 1)) - t[k - 1] / (2.0 * (k - 1))
        return out

    return antiderivatives(hi) - antiderivatives(lo)


# ------------------------------------------------------- transforms of series

def log_ratio(x):
    """L(x) = ln((1-x)/(1+x)), the transform of the constant 1 times pi."""
    x = np.asarray(x, dtype=float)
    return np.log1p(-x) - np.log1p(x)


def fht_smooth_coeffs(coeffs, lo=-1.0, hi=1.0):
    """Coefficients d of D = sum d_k T_k with pi T(p chi_(lo,hi)) = D + p ln|(hi-x)/(lo-x)|.

    D(x) = int_lo^hi (p(y) - p(x))/(y - x) dy, so by the Cauchy identity of
    the module docstring d_k = 2 sum_{j>=0} a_{k+1+j} I_j (d_0 halved) with
    I_j = int_lo^hi U_j = (T_{j+1}(hi) - T_{j+1}(lo))/(j+1): a correlation of
    the coefficient tail with I, computed by FFT.  Real coefficients give
    exactly real ones (the FFT's imaginary roundoff is dropped).  At least
    one coefficient.
    """
    a = np.asarray(coeffs, dtype=complex)
    d = len(a) - 1
    if d <= 0:
        return np.zeros(1, dtype=complex)
    j1 = np.arange(1, d + 1)
    seg_u = (np.cos(j1 * np.arccos(hi)) - np.cos(j1 * np.arccos(lo))) / j1
    size = next_fast_len(2 * d)
    out = 2.0 * ifft(fft(a[1:], size) * np.conj(fft(seg_u, size)))[:d]
    out[0] /= 2.0
    if not np.any(a.imag):
        out.imag = 0.0
    return out


def fht_series(coeffs, x, lo=-1.0, hi=1.0):
    """(1/pi) pv int_lo^hi p(y)/(y-x) dy for Chebyshev-coefficient p.

    Exact (to roundoff) for any x in (-1,1) away from {lo, hi}, whether or
    not x lies inside the segment; the principal value is built into the
    log term.  The result is (D(x) + p(x) ln|(hi-x)/(lo-x)|)/pi with D from
    :func:`fht_smooth_coeffs`; at x = lo or hi the finite part drops its
    p ln 0 term.  When x is exactly the first-kind node set
    ``chebyshev_nodes(len(x))`` with ``len(x) >= len(coeffs)``, D and p are
    evaluated there by one DCT-III; at other points by Clenshaw.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = np.asarray(coeffs, dtype=complex)
    d = fht_smooth_coeffs(c, lo, hi)
    n = len(x)
    if n >= len(c) and np.array_equal(x, chebyshev_nodes(n)):
        both = np.zeros((2, n), dtype=complex)
        both[0, : len(d)] = d
        both[1, : len(c)] = c
        # sum_k e_k cos(k theta_i) at theta_i = (2i+1) pi/2n, descending x
        dx, px = ((dct(both, type=3, axis=1) + both[:, :1]) / 2.0)[:, ::-1]
    else:
        dx, px = _cheb.chebval(x, d), _cheb.chebval(x, c)
    ratio = np.where(x == hi, 1.0, hi - x) / np.where(x == lo, 1.0, lo - x)
    return (dx + px * np.log(np.abs(ratio))) / np.pi


def t_to_u(coeffs):
    """Rewrite sum a_n T_n as sum b_k U_k (second-kind basis)."""
    a = np.asarray(coeffs, dtype=complex)
    d = len(a)
    b = np.zeros(d, dtype=complex)
    pad = np.concatenate([a, [0.0, 0.0]])
    b[0] = a[0] - pad[2] / 2.0
    for k in range(1, d):
        b[k] = (pad[k] - pad[k + 2]) / 2.0
    return b


def u_to_t(coeffs):
    """Rewrite sum b_k U_k as first-kind coefficients."""
    b = np.asarray(coeffs, dtype=complex)
    d = len(b)
    a = np.zeros(d, dtype=complex)
    # U_{2m} = T_0 + 2(T_2 + ... + T_{2m}); U_{2m+1} = 2(T_1 + T_3 + ...)
    for parity in (0, 1):
        idx = np.arange(parity, d, 2)
        if len(idx) == 0:
            continue
        tails = np.cumsum(b[idx][::-1])[::-1]      # sum of b_k for k >= j, same parity
        a[idx] = 2.0 * tails
    if d > 0:
        a[0] = np.sum(b[np.arange(0, d, 2)])       # T_0 enters U_{2m} with weight 1
    return a


def fht_over_w_series(coeffs):
    """Coefficients of T(p/w) for p = sum a_n T_n:  sum_{n>=1} a_n U_{n-1}."""
    a = np.asarray(coeffs, dtype=complex)
    if len(a) <= 1:
        return np.zeros(1, dtype=complex)
    return u_to_t(a[1:])


def fht_times_w_series(coeffs):
    """Coefficients of T(p*w) for p = sum a_n T_n:  -sum b_k T_{k+1}."""
    b = t_to_u(coeffs)
    out = np.zeros(len(b) + 1, dtype=complex)
    out[1:] = -b
    return out


# -------------------------------------------------- weighted / log closed forms

def segment_integrals_over_w(d, lo, hi):
    """Vector of ``int_lo^hi T_k(y)/w(y) dy`` for k = 0..d-1.

    With y = cos(theta): theta_lo - theta_hi for k = 0 and
    (sin(k theta_lo) - sin(k theta_hi))/k for k >= 1.
    """
    th_lo, th_hi = np.arccos(lo), np.arccos(hi)     # th_lo > th_hi
    k = np.arange(1, d)
    return np.concatenate([[th_lo - th_hi], (np.sin(k * th_lo) - np.sin(k * th_hi)) / k])[:d]


def integral_over_w(coeffs, lo=-1.0, hi=1.0):
    """int_lo^hi p(x)/w(x) dx via x = cos(theta); exact for series p."""
    a = np.asarray(coeffs, dtype=complex)
    return complex(a @ segment_integrals_over_w(len(a), lo, hi))


def log_over_w_moments(d, a_pt):
    """Vector of ``int_-1^1 T_k(x) ln|x - a| / w(x) dx`` for k = 0..d-1, a in [-1, 1].

    From the expansion of ln|x - a| in the module docstring: -pi ln 2 for
    k = 0 and -pi T_k(a)/k for k >= 1.
    """
    k = np.arange(1, d)
    out = np.concatenate([[-np.pi * np.log(2.0)],
                          -np.pi * (np.cos(k * np.arccos(a_pt)) / k)])
    return out[:d]


def integral_log_over_w(coeffs, a_pt):
    """int_-1^1 p(x) ln|x - a| / w(x) dx, a in [-1, 1]; fully closed form."""
    a = np.asarray(coeffs, dtype=complex)
    return complex(a @ log_over_w_moments(len(a), a_pt))


def log_moments(d, a_pt):
    """Vector of ``int_-1^1 T_k(x) ln|x - a| dx`` for k = 0..d-1, a in [-1, 1].

    Parts against the antiderivative A_k of T_k shifted to vanish at a:

        mu_k = [(A_k - A_k(a)) ln|x - a|]_-1^1 - int_-1^1 (A_k(x) - A_k(a))/(x - a) dx

    with A_0 = T_1, A_1 = T_2/4 and A_k = T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)).
    By the Cauchy identity of the module docstring,
    R_m = int_-1^1 (T_m(x) - T_m(a))/(x - a) dx = 2 sum'_{j<m} T_j(a) int U_{m-1-j},
    one convolution, as int_-1^1 U_i = 2/(i+1) for even i and 0 for odd i.
    A boundary term whose log vanishes (a = +-1) is exactly zero.
    """
    if d <= 0:
        return np.zeros(0)
    m = np.arange(d + 1)
    t = np.cos(m * np.arccos(a_pt))                  # T_m(a)
    head = t[:d].copy()
    head[0] = 0.5
    u = np.where(m[:d] % 2 == 0, 4.0 / (m[:d] + 1), 0.0)
    g = -np.concatenate([[0.0], np.convolve(head, u)[:d]])      # -R_m, m = 0..d
    if a_pt < 1.0:
        g += (1.0 - t) * np.log(1.0 - a_pt)
    if a_pt > -1.0:
        g -= ((-1.0) ** m - t) * np.log(1.0 + a_pt)
    out = np.empty(d)
    out[0] = g[1]
    out[1:2] = g[2:3] / 4.0
    k = np.arange(2, d)
    out[2:] = g[k + 1] / (2.0 * (k + 1)) - g[k - 1] / (2.0 * (k - 1))
    return out


def integral_log(coeffs, a_pt, lo=-1.0, hi=1.0):
    """int_lo^hi p(x) ln|x - a| dx with a anywhere in [-1, 1].

    Integration by parts against the antiderivative P of p normalized to
    P(a) = 0 removes the singularity: the remaining integrand
    (P(y) - P(a))/(y - a) is the regular difference quotient.
    """
    P = _cheb.chebint(np.asarray(coeffs, dtype=complex))
    P[0] -= _cheb.chebval(a_pt, P)
    bt = 0.0 + 0.0j
    for end, sign in ((hi, 1.0), (lo, -1.0)):
        if abs(end - a_pt) > 1e-300:
            bt += sign * _cheb.chebval(end, P) * np.log(abs(end - a_pt))
    q = difference_quotient(P, np.array([a_pt]))[:, 0]
    seg = segment_integrals(len(q), lo, hi)
    return complex(bt - q @ seg)


def fht_indicator_over_w(lo, hi, t):
    """(1/pi) pv int_lo^hi dy / (w(y)(y - t)) in theta; the finite part at lo, hi."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    wt = np.sqrt(1.0 - t * t)
    alpha = np.sqrt((1.0 - t) / (1.0 + t))

    def G(theta, end):
        if theta >= np.pi - 1e-14:
            return np.zeros_like(t)
        u = np.tan(theta / 2.0)
        return np.log(np.abs((alpha + u) / np.where(t == end, 1.0, alpha - u)))

    return (G(np.arccos(lo), lo) - G(np.arccos(hi), hi)) / (np.pi * wt)


def fht_log_kernel(a_pt, t):
    """K_a(t) = pv int_-1^1 ln|y - a| / (y - t) dy, a in [-1, 1], vectorized in t.

    Closed form in the dilogarithm Li2(z) = spence(1 - z):

        K_a(t) = ln|t-a| L(t) - Re Li2((1-t)/(a-t)) + Re Li2((1+t)/(t-a))

    with L = :func:`log_ratio`.  K_a jumps by pi^2 across t = a; there it
    takes the symmetric principal value (ln^2(1-a) - ln^2(1+a)) / 2, the
    mean of the two sides.
    """
    t = np.asarray(t, dtype=float)
    at = t == a_pt
    h = np.where(at, 1.0, t - a_pt)
    out = (np.log(np.abs(h)) * log_ratio(t)
           - _li2_real((1.0 - t) / -h) + _li2_real((1.0 + t) / h))
    if np.any(at):
        mid = (np.log1p(-a_pt) ** 2 - np.log1p(a_pt) ** 2) / 2.0
        out = np.where(at, mid, out)
    return out


def _li2_real(z):
    """Re Li2(z) for real z; complex evaluation covers the branch cut z > 1."""
    return spence(1.0 - np.asarray(z, dtype=complex)).real


def fht_log_over_w_kernel(a_pt, t):
    """J_a(t) = T(ln|. - a| / w)(t), a in [-1, 1], vectorized in t.

    From ln|y - a| = -ln 2 - 2 sum T_n(a) T_n(y) / n, T(T_n/w) = U_{n-1}
    and sum sin(n phi)/n = (pi - phi)/2 on (0, 2 pi), with theta = arccos t:

        J_a(t) = theta / w(t)           for t > a,
                 -(pi - theta) / w(t)   for t < a,

    and the mean (2 theta - pi) / (2 w(t)) at t = a.  Only the side of a
    enters.
    """
    t = np.asarray(t, dtype=float)
    theta = np.arccos(t)
    shift = np.where(t > a_pt, 0.0, np.where(t < a_pt, np.pi, np.pi / 2.0))
    return (theta - shift) / np.sqrt(1.0 - t * t)


# ----------------------------------------------------------- panel quadrature

@functools.lru_cache(maxsize=16)
def _gl_rule(n):
    return np.polynomial.legendre.leggauss(n)


_PANEL_BLOCK = 2 ** 16      # quadrature nodes per call of the integrand


def integrate_panels(f, edges, order=24):
    """Composite Gauss-Legendre quadrature over rows of panels.

    ``edges`` holds one increasing sequence of panel edges per row; the
    result holds one sum per row.  ``f(rows, theta)`` returns the integrand
    at nodes ``theta`` of shape (len of the slice ``rows``, panels, order),
    row i of ``theta`` belonging to row ``rows.start + i``.  Rows with fewer
    panels than the longest are padded with zero-length panels inside their
    first panel, evaluated but never summed.  Rows go to ``f`` in blocks of
    at most ``_PANEL_BLOCK`` nodes.  Each row's terms are summed on their
    own, in the order a one-row call sums them, so a row's value does not
    depend on the other rows.
    """
    z, w = _gl_rule(order)
    counts = [len(e) - 1 for e in edges]
    width = max(counts, default=1)
    lo, hi = np.empty((len(edges), width)), np.empty((len(edges), width))
    for i, e in enumerate(edges):
        e, k = np.asarray(e, dtype=float), counts[i]
        lo[i, :k], hi[i, :k] = e[:-1], e[1:]
        lo[i, k:] = hi[i, k:] = (e[0] + e[1]) / 2.0
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    sums = np.empty(len(edges), dtype=complex)
    step = max(1, _PANEL_BLOCK // (width * order))
    for b in range(0, len(edges), step):
        rows = slice(b, b + step)
        terms = half[rows, :, None] * w * f(rows, mid[rows, :, None] + half[rows, :, None] * z)
        for i, k in enumerate(counts[rows]):
            sums[b + i] = np.sum(terms[i, :k])
    return sums
