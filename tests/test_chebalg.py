"""Low-level series algebra against independent quadrature oracles."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import chebyshev as C
from scipy.fft import dct, fft, ifft, next_fast_len
from scipy.integrate import quad

from finhilbert import chebalg as ca
from finhilbert.transform import pv_oracle


def test_nodes_interior_and_sorted():
    x = ca.chebyshev_nodes(64)
    assert np.all(np.diff(x) > 0)
    assert -1 < x[0] and x[-1] < 1


def test_fejer_weights_calibration():
    for n in (128, 256, 512):
        x, w = ca.chebyshev_nodes(n), ca.fejer1_weights(n)
        assert abs(w.sum() - 2.0) <= 5e-15
        assert abs(w @ np.sqrt(1 - x * x) - np.pi / 2) <= 5e-15
        assert w.min() > 0
        # polynomial exactness survives the calibration: the perturbation
        # scales with the raw Fejer error on w, which decays like n^-3
        tol = 800.0 / n**3
        assert abs(w @ x**2 - 2.0 / 3.0) <= tol
        assert abs(w @ x**5) <= tol


def test_fit_chebyshev_interpolates():
    n = 48
    xs = ca.chebyshev_nodes(n)
    vals = np.exp(xs) * np.cos(2 * xs)
    coeffs = ca.fit_chebyshev(vals)
    assert np.abs(C.chebval(xs, coeffs) - vals).max() <= 1e-12


def test_difference_quotient_identity():
    coeffs = C.poly2cheb([0.3, -1.0, 0.0, 2.0, 0.5])
    p = C.Chebyshev(coeffs)
    for x0 in (0.31, -0.77):
        b = ca.difference_quotient(coeffs, np.array([x0]))[:, 0]
        for y in (0.1, -0.9, 0.55):
            want = (p(y) - p(x0)) / (y - x0)
            assert C.chebval(y, b) == pytest.approx(want, abs=1e-12)


def test_fht_series_matches_pv_quadrature():
    coeffs = C.poly2cheb([0.3, -1.0, 0.0, 2.0])
    f = lambda y: 0.3 - y + 2 * y**3

    def pv(t, eps=1e-6):
        def at(e):
            left = quad(lambda y: f(y) / (y - t), -1, t - e, limit=300)[0]
            right = quad(lambda y: f(y) / (y - t), t + e, 1, limit=300)[0]
            return left + right
        i0, i1 = at(eps), at(eps / 2)
        return (2 * i1 - i0) / np.pi

    for t in (0.3, -0.8, 0.05):
        got = ca.fht_series(coeffs, np.array([t]))[0].real
        assert got == pytest.approx(pv(t), abs=1e-7)


def test_fht_series_piece_inside_and_outside():
    coeffs = C.poly2cheb([0.0, -0.3, 1.0])
    f = lambda y: y * y - 0.3 * y
    lo, hi = 0.2, 0.9

    def pv_piece(t, eps=1e-7):
        if lo < t < hi:
            i0 = (quad(lambda y: f(y) / (y - t), lo, t - eps, limit=300)[0]
                  + quad(lambda y: f(y) / (y - t), t + eps, hi, limit=300)[0])
            i1 = (quad(lambda y: f(y) / (y - t), lo, t - eps / 2, limit=300)[0]
                  + quad(lambda y: f(y) / (y - t), t + eps / 2, hi, limit=300)[0])
            return (2 * i1 - i0) / np.pi
        return quad(lambda y: f(y) / (y - t), lo, hi, limit=300)[0] / np.pi

    for t in (0.5, -0.4, 0.95):
        got = ca.fht_series(coeffs, np.array([t]), lo, hi)[0].real
        assert got == pytest.approx(pv_piece(t), abs=1e-8)


def test_basis_conversions_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.normal(size=9)
    assert np.abs(ca.u_to_t(ca.t_to_u(a)) - a).max() <= 1e-12


def test_weighted_transform_identities():
    # T(T_n / w) = U_{n-1}; T(w U_{n-1}) = -T_n
    t0 = 0.37
    th = np.arccos(t0)
    for n in (1, 2, 3, 5):
        e = np.zeros(n + 1)
        e[n] = 1.0
        over = C.chebval(t0, ca.fht_over_w_series(e))
        assert over == pytest.approx(np.sin(n * th) / np.sin(th), abs=1e-12)
    # w U_1 = w * 2x: build U_1 in the T basis (U_1 = 2 T_1)
    u1 = np.array([0.0, 2.0])
    img = ca.fht_times_w_series(u1)
    assert C.chebval(t0, img) == pytest.approx(-np.cos(2 * th), abs=1e-12)


def test_integral_over_w_segment():
    coeffs = C.poly2cheb([0.1, 1.0, -0.4])
    f = lambda y: 0.1 + y - 0.4 * y * y
    got = ca.integral_over_w(coeffs, -0.3, 0.8)
    want = quad(lambda y: f(y) / np.sqrt(1 - y * y), -0.3, 0.8)[0]
    assert got.real == pytest.approx(want, abs=1e-12)


def test_integral_log_over_w_closed_form():
    for n, a in ((0, 0.3), (1, 0.3), (3, -0.7)):
        e = np.zeros(n + 1)
        e[n] = 1.0
        got = ca.integral_log_over_w(e, a)
        want = quad(lambda th: np.cos(n * th) * np.log(abs(np.cos(th) - a)),
                    0, np.pi, points=[np.arccos(a)], limit=300)[0]
        assert got.real == pytest.approx(want, abs=1e-10)


def test_integral_log_segment():
    coeffs = C.poly2cheb([0.5, 2.0, 1.0])
    f = lambda y: 0.5 + 2 * y + y * y
    for a, lo, hi in ((0.3, -1.0, 1.0), (0.3, -0.5, 0.8), (-0.9, 0.0, 1.0)):
        got = ca.integral_log(coeffs, a, lo, hi)
        want = quad(lambda y: f(y) * np.log(abs(y - a)), lo, hi,
                    points=[a] if lo < a < hi else None, limit=300)[0]
        assert got.real == pytest.approx(want, abs=1e-9)


def test_fht_indicator_over_w_closed_form():
    lo, hi, t = 0.0, 1.0, 0.4

    def oracle(eps):
        i = (quad(lambda y: 1 / (np.sqrt(1 - y * y) * (y - t)), lo, t - eps, limit=400)[0]
             + quad(lambda y: 1 / (np.sqrt(1 - y * y) * (y - t)), t + eps, hi, limit=400)[0])
        return i

    i0, i1 = oracle(1e-5), oracle(5e-6)
    want = (2 * i1 - i0) / np.pi
    got = ca.fht_indicator_over_w(lo, hi, np.array([t]))[0]
    assert got == pytest.approx(want, abs=1e-6)


def test_fht_log_kernel_against_pv():
    a, t = 0.25, -0.4

    def oracle(eps):
        f = lambda y: np.log(abs(y - a)) / (y - t)
        return (quad(f, -1, t - eps, limit=400)[0]
                + quad(f, t + eps, 1, points=[a], limit=400)[0])

    i0, i1 = oracle(1e-5), oracle(5e-6)
    want = 2 * i1 - i0
    assert ca.fht_log_kernel(a, t) == pytest.approx(want, abs=1e-7)


def test_fejer_weights_dct_matches_cosine_sum():
    # the raw rule, written out as the O(n^2) cosine sum over 2m <= n
    for n in list(range(1, 10)) + [64, 512, 2048]:
        theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
        m = np.arange(1, n // 2 + 1)
        raw = (2.0 / n) * (1 - 2 * np.sum(np.cos(2 * np.outer(theta, m)) / (4 * m**2 - 1),
                                          axis=1))
        assert np.abs(ca._fejer1_raw(n) - raw[::-1]).max() <= 4e-15 / n


# ------------------------------------------------------- log kernel oracles
# Both kernels are checked against adaptive quadrature of the regular
# integrand left after subtracting ln|t - a| (T(1) = L/pi, T(1/w) = 0), in
# the offset u = y - a so that the log singularity sits at u = 0 exactly.

def _log_quotient(u, h):
    """(ln|u| - ln|h|) / (u - h), evaluated stably near u = h."""
    x = (u - h) / h
    if abs(x) < 0.5:
        return np.log1p(x) / (x * h) if x else 1.0 / h
    return (np.log(abs(u)) - np.log(abs(h))) / (u - h)


def _quad_pieces(f, lo, hi, *cuts):
    pts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    return sum(quad(f, p, q, limit=200, epsabs=1e-15, epsrel=1e-13)[0]
               for p, q in zip(pts[:-1], pts[1:]))


def _log_kernel_quad(a, t):
    h = t - a
    reg = _quad_pieces(lambda u: _log_quotient(u, h), -1.0 - a, 1.0 - a, 0.0, h)
    return reg + np.log(abs(h)) * ca.log_ratio(t)


def _log_over_w_kernel_quad(a, t):
    # between a and t in u; outside in theta = alpha + v, where 1/w drops out
    h = t - a
    lo, hi = min(0.0, h), max(0.0, h)
    inner = _quad_pieces(
        lambda u: _log_quotient(u, h) / np.sqrt((1.0 - a - u) * (1.0 + a + u)), lo, hi)
    alpha = np.arccos(a)

    def outer(v):
        return _log_quotient(-2.0 * np.sin(alpha + v / 2) * np.sin(v / 2), h)

    total = inner
    if a + lo > -1.0:
        total += _quad_pieces(outer, np.arccos(a + lo) - alpha if lo else 0.0, np.pi - alpha)
    if a + hi < 1.0:
        total += _quad_pieces(outer, -alpha, np.arccos(a + hi) - alpha if hi else 0.0)
    return total / np.pi


LOG_LOCATIONS = (0.0, 0.25, -0.6, 1.0, -1.0, 0.999)


def _kernel_cases(a):
    """(t, near) pairs: spread points, and both sides of a at 1e-3 and 1e-6."""
    cases = [(t, False) for t in (-0.9, -0.3, 0.1, 0.5, 0.95) if t != a]
    cases += [(a + d, abs(d) < 1e-4) for d in (1e-3, -1e-3, 1e-6, -1e-6) if -1 < a + d < 1]
    return cases


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("a", LOG_LOCATIONS)
def test_log_kernel_closed_form_against_quadrature(a):
    ts = np.array([t for t, _ in _kernel_cases(a)])
    got = ca.fht_log_kernel(a, ts)            # vectorized in t
    for k, t in enumerate(ts):
        want = _log_kernel_quad(a, t)
        assert abs(got[k] - want) <= 1e-12, (a, t)
        assert ca.fht_log_kernel(a, float(t)) == got[k]


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("a", LOG_LOCATIONS)
def test_log_over_w_kernel_closed_form_against_quadrature(a):
    for t, near in _kernel_cases(a):
        want = _log_over_w_kernel_quad(a, t)
        got = ca.fht_log_over_w_kernel(a, np.array([t]))[0]
        # 1e-6 from a the quadrature itself is good to about 5e-11 relative
        assert abs(got - want) <= (1e-9 if near else 1e-12) * max(1.0, abs(want)), (a, t)


def test_log_kernels_at_the_log_location():
    # the principal value at t = a is the mean of the two one-sided limits
    for a in (0.0, 0.25, -0.6):
        d = 1e-9
        for kernel in (ca.fht_log_kernel, ca.fht_log_over_w_kernel):
            sides = kernel(a, np.array([a - d, a + d]))
            mid = kernel(a, np.array([a]))[0]
            assert mid == pytest.approx(sides.mean(), abs=1e-6)
    a = 0.25
    assert ca.fht_log_kernel(a, a) == pytest.approx(
        (np.log(1 - a) ** 2 - np.log(1 + a) ** 2) / 2, abs=1e-15)


# ------------------------------------------------------- FFT series transform

def test_segment_integrals_closed_form_matches_chebint():
    rng = np.random.default_rng(11)
    segments = [(-1.0, 1.0), (-1.0, -0.2), (0.35, 1.0)]
    segments += [tuple(np.sort(rng.uniform(-1.0, 1.0, 2))) for _ in range(6)]
    for d in (1, 2, 3, 5, 17, 64):
        for lo, hi in segments:
            want = np.array([C.chebval(hi, C.chebint(np.eye(d)[k]))
                             - C.chebval(lo, C.chebint(np.eye(d)[k])) for k in range(d)])
            assert np.abs(ca.segment_integrals(d, lo, hi) - want).max() <= 1e-14, (d, lo, hi)


def _fht_series_reference(coeffs, x, lo, hi):
    """The difference-quotient route, written out: b_k(x) of (p(y) - p(x))/(y - x)
    by synthetic division, integrated against int_lo^hi T_k, plus the log
    term with p(x) by Clenshaw.  Chunked over x to bound the (d, len(x))
    temporary."""
    a = np.asarray(coeffs, dtype=complex)
    d = len(a) - 1
    tab = C.chebint(np.eye(max(d, 1)), axis=0)          # column k: antiderivative of T_k
    seg = (C.chebval(hi, tab) - C.chebval(lo, tab))[:d]
    out = []
    for xs in np.array_split(x, max(1, len(x) // 256)):
        b = np.zeros((d + 2, len(xs)), dtype=complex)
        for n in range(d, 0, -1):
            b[n - 1] = 2 * a[n] + 2 * xs * b[n] - b[n + 1]
        b[0] /= 2.0
        smooth = seg @ b[:d]
        out.append((smooth + C.chebval(xs, a) * np.log(np.abs((hi - xs) / (lo - xs)))) / np.pi)
    return np.concatenate(out)


@pytest.mark.parametrize("deg", [0, 1, 2, 7, 64, 511, 2048])
def test_fht_series_matches_difference_quotient_route(deg):
    rng = np.random.default_rng(deg)
    coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    on_nodes = ca.chebyshev_nodes(max(deg + 1, 32))           # the DCT-III path
    off_nodes = np.linspace(-0.98, 0.98, 97) + 1e-3            # the Clenshaw path
    for lo, hi in ((-1.0, 1.0), (-0.3, 0.45), (0.2, 1.0)):
        for x in (on_nodes, off_nodes):
            got = ca.fht_series(coeffs, x, lo, hi)
            want = _fht_series_reference(coeffs, x, lo, hi)
            logs = np.abs(np.log(np.abs((hi - x) / (lo - x))))
            scale = np.sum(np.abs(coeffs)) * (1.0 + logs.max())
            assert np.abs(got - want).max() <= 1e-13 * scale, (deg, lo, hi, len(x))


@settings(max_examples=12, deadline=None)
@given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7),
       ends=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       t=st.floats(-0.95, 0.95))
def test_fht_series_against_pv_oracle(coeffs, ends, t):
    lo, hi = sorted(ends)
    assume(hi - lo > 0.05 and min(abs(t - lo), abs(t - hi)) > 0.02)

    def piece(y):
        y = np.asarray(y, dtype=float)
        return np.where((y > lo) & (y < hi), C.chebval(y, coeffs), 0.0)

    want = pv_oracle(piece, t, singular=(lo, hi))
    got = ca.fht_series(coeffs, np.array([t]), lo, hi)[0]
    assert abs(got - want) <= 1e-8 * max(1.0, np.sum(np.abs(coeffs)))


# ------------------------------------------------------------ stacked rows

def _row_values(coeffs, x, lo, hi):
    """fht_series one row at a time, stacked."""
    return np.array([ca.fht_series(c, x, a, b) for c, a, b in zip(coeffs, lo, hi)])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), length=st.integers(1, 41), rows=st.integers(1, 6),
       points=st.sampled_from(["nodes", "few nodes", "other", "ends"]))
def test_stacked_series_rows_equal_single_rows(data, length, rows, points):
    # real and complex rows mixed, any ends, and points on the first-kind
    # nodes (DCT-III), on too few of them for the series (Clenshaw), off
    # them, and exactly at the ends (the finite part)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(rows, length)) + 0j
    complex_rows = rng.random(rows) < 0.5
    coeffs[complex_rows] += 1j * rng.normal(size=(int(complex_rows.sum()), length))
    ends = np.sort(rng.uniform(-1.0, 1.0, (rows, 2)), axis=1)
    ends[rng.random(rows) < 0.3] = (-1.0, 1.0)
    lo, hi = ends[:, 0].copy(), ends[:, 1].copy()
    if points == "nodes":
        x = ca.chebyshev_nodes(length + int(rng.integers(0, 30)))
    elif points == "few nodes":
        x = ca.chebyshev_nodes(max(1, length - 1 - int(rng.integers(0, length))))
    else:
        x = np.sort(rng.uniform(-0.99, 0.99, int(rng.integers(1, 40))))
        if points == "ends":
            x = np.unique(np.concatenate([x, lo[np.abs(lo) < 1.0], hi[np.abs(hi) < 1.0]]))
    got = ca.fht_series(coeffs, x, lo, hi)
    assert got.shape == (rows, len(x))
    assert np.array_equal(got, _row_values(coeffs, x, lo, hi))
    smooth = ca.fht_smooth_coeffs(coeffs, lo, hi)
    assert np.array_equal(smooth, [ca.fht_smooth_coeffs(c, a, b)
                                   for c, a, b in zip(coeffs, lo, hi)])
    assert not smooth[~complex_rows].imag.any()


def test_node_test_reuses_one_read_only_node_set():
    # fht_series tests the node family against one cached array per n;
    # chebyshev_nodes still hands out a fresh, writable array
    a, b = ca.chebyshev_nodes(64), ca.chebyshev_nodes(64)
    assert a is not b and a.flags.writeable
    a[0] = 0.0
    assert ca.chebyshev_nodes(64)[0] == b[0]
    cached = ca._node_set(64)
    assert cached is ca._node_set(64) and not cached.flags.writeable
    assert np.array_equal(cached, b)
    coeffs = np.arange(1.0, 9.0)
    on_nodes = ca.fht_series(coeffs, b)
    assert np.array_equal(on_nodes, ca.fht_series(coeffs, b.copy()))


# ------------------------------------------------------- cosine transforms

@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 16, 511, 512, 2048])
def test_cosine_transforms_match_scipy(n):
    # real and complex data, 1-D and stacked rows, rows whose imaginary part
    # is zero (read through strided views), and DCT-III of short series
    # zero padded to n
    rng = np.random.default_rng(n)
    stacked = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    stacked[1] = stacked[1].real
    cases = [stacked[0].real, stacked[0], stacked[1], stacked.real, stacked,
             stacked[1:2], stacked.real + 0j]
    lengths = range(1, n + 1) if n <= 16 else (1, n // 2, n // 2 + 1, n - 1, n)
    for x in cases:
        want = dct(x, type=2)
        got = ca._dct2(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()
        for m in lengths:
            want = dct(x[..., :m], type=3, n=n)
            for short in (x[..., :m], x[..., :m].copy()):
                got = ca._dct3(short, n)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()


def test_fast_len_matches_scipy():
    assert [ca._fast_len(t) for t in range(1, 5001)] == [next_fast_len(t)
                                                         for t in range(1, 5001)]


def test_smooth_coefficients_keep_the_scipy_fft_bits():
    # the FFT correlation written with scipy.fft, as the library had it;
    # with numpy >= 2 both run the same pocketfft and agree to the bit
    def scipy_smooth(a, lo, hi):
        d = a.shape[-1] - 1
        j1 = np.arange(1, d + 1)
        seg_u = (np.cos(j1 * np.arccos(hi[:, None]))
                 - np.cos(j1 * np.arccos(lo[:, None]))) / j1
        size = next_fast_len(2 * d)
        out = 2.0 * ifft(fft(a[:, 1:], size) * np.conj(fft(seg_u, size)))[:, :d]
        out[:, 0] /= 2.0
        out.imag[~np.any(a.imag, axis=-1)] = 0.0
        return out

    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 97)) + 0j
    a[1] += 1j * rng.normal(size=97)
    lo, hi = np.array([-1.0, -0.3, 0.2]), np.array([1.0, 0.8, 0.5])
    got, want = ca.fht_smooth_coeffs(a, lo, hi), scipy_smooth(a, lo, hi)
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
