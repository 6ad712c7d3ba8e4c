"""The profile algebra: its invariant, exact integrals, and algebra properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as C
from scipy.integrate import quad

import finhilbert as fh
from finhilbert import chebalg as ca
from finhilbert.profiles import Profile
from finhilbert.transform import fht_over_w_point

W2 = np.array([0.5, 0.0, -0.5])       # 1 - x^2


# ------------------------------------------------------------------- invariant

def test_overlaps_are_summed_on_cells():
    prof = Profile(((-0.5, 0.5, (1.0,), 0), (0.0, 1.0, (1.0, 2.0), 0),
                    (-1.0, 1.0, (3.0,), -1)))
    assert [(lo, hi, s) for lo, hi, _, s in prof.pieces] == [
        (-1.0, 1.0, -1), (-0.5, 0.0, 0), (0.0, 0.5, 0), (0.5, 1.0, 0)]
    assert np.array_equal(prof.pieces[2][2], [2.0, 2.0])
    assert prof.breakpoints() == [-0.5, 0.0, 0.5]


def test_partial_w_piece_is_stored_over_w():
    prof = Profile(((-0.5, 0.5, (2.0,), 1), (-1.0, 1.0, (1.0,), 1)))
    (lo, hi, c, s), full = prof.pieces
    assert (lo, hi, s) == (-0.5, 0.5, -1)
    assert np.allclose(c, 2.0 * W2)
    assert full[3] == 1
    xs = np.array([-0.9, -0.2, 0.3])
    w = np.sqrt(1 - xs**2)
    assert np.allclose(prof.eval(xs), w + 2.0 * w * (np.abs(xs) < 0.5), atol=1e-15)


def test_logs_merge_per_location_and_drop_zeros():
    prof = Profile((), ((0.5, (1.0,)), (-0.2, (2.0,)), (0.5, (-1.0,)), (0.1, (0.0,))))
    assert [(a, tuple(c)) for a, c in prof.logs] == [(-0.2, (2.0,))]


def test_weight_power_is_validated():
    with pytest.raises(ValueError):
        Profile.poly((1.0,), wpow=2)


def test_queries():
    assert np.array_equal(Profile.poly((1.0, 2.0)).series(), [1.0, 2.0])
    assert Profile.poly((1.0, 2.0)).series(-1) is None
    assert np.array_equal(Profile.poly((3.0,), -1).series(-1), [3.0])
    assert Profile.poly((1.0,)).plus(Profile((), ((0.0, (1.0,)),))).series() is None
    values, lengths = Profile.poly((1.5,)).steps()
    assert np.array_equal(values, [1.5]) and np.array_equal(lengths, [2.0])
    assert Profile.poly((1.5, 1.0)).steps() is None
    assert Profile.poly((1.5,), -1).steps() is None


def test_eval_on_a_cut_reads_the_mean_of_the_two_sides():
    # indicator:0.25,0.75 on the 4 uniform nodes -0.75, -0.25, 0.25, 0.75
    nodes, _ = fh.make_grid(4, "uniform")
    assert fh.indicator_fn((0.25, 0.75), 4, "uniform").values.real.tolist() == [0, 0, 0.5, 0.5]
    assert Profile(((0.25, 0.75, (1.0,), 0),)).eval(nodes).real.tolist() == [0, 0, 0.5, 0.5]
    # a kink reads its sample, a jump the mean of its limits
    steps = Profile(((-1.0, 0.0, (2.0, 1.0), 0), (0.0, 0.5, (2.0, -3.0), 0),
                     (0.5, 1.0, (4.0,), 0)))
    assert steps.eval(np.array([0.0, 0.5])).real.tolist() == [2.0, 2.25]
    assert steps.jumps([0.0, 0.5, 0.25]).tolist() == [False, True, False]


# ------------------------------------------------- overlapping step functions

def staircase_norm(plateaus, widths, space):
    """Norm of f* = sum v_i chi_[u_{i-1}, u_i), written out per space."""
    u = np.cumsum(widths)
    prev = np.concatenate([[0.0], u[:-1]])
    v = np.asarray(plateaus, dtype=float)
    p = space.p
    if space.kind == "Lp":
        return float(np.sum(v**p * widths) ** (1 / p))
    if space.kind == "Lorentz":
        q = space.q
        return float(np.sum(v**q * (p / q) * (u ** (q / p) - prev ** (q / p))) ** (1 / q))
    return float(np.max(u ** (1 / p) * v))


SPACES = [fh.SpaceSpec.lp(2), fh.SpaceSpec.lp(1.5), fh.SpaceSpec.lorentz(3, 1),
          fh.SpaceSpec.weak_lp(2)]


def two_indicators():
    return fh.indicator_fn((-0.5, 0.5), 512) + fh.indicator_fn((0.0, 1.0), 512)


def indicator_plus_one():
    return fh.indicator_fn((-0.5, 0.5), 512) + fh.const_fn(1.0, 512)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
@pytest.mark.parametrize("build, plateaus, widths", [
    (two_indicators, [2.0, 1.0, 0.0], [0.5, 1.0, 0.5]),
    (indicator_plus_one, [2.0, 1.0], [1.0, 1.0]),
])
def test_norm_of_overlapping_steps(space, build, plateaus, widths):
    info = fh.norm_info(build(), space)
    assert not info.divergent
    assert info.value == pytest.approx(staircase_norm(plateaus, widths, space), abs=1e-12)


def test_lp2_norms_of_overlapping_steps():
    lp2 = fh.SpaceSpec.lp(2)
    assert fh.norm(two_indicators(), lp2) == pytest.approx(math.sqrt(3), abs=1e-12)
    assert fh.norm(indicator_plus_one(), lp2) == pytest.approx(math.sqrt(5), abs=1e-12)


def test_distribution_and_rearrangement_of_overlapping_steps():
    f = two_indicators()
    assert fh.distribution(f, 1.5) == 0.5
    r = fh.rearrangement(f)
    # one plateau per cell: the two cells of value 1 stay two equal plateaus
    assert list(dict.fromkeys(r.plateaus)) == [2.0, 1.0, 0.0]
    assert [r.value(t) for t in (0.25, 1.0, 1.75)] == [2.0, 1.0, 0.0]
    assert r.breakpoints[-1] == pytest.approx(2.0, abs=1e-15)


def test_constant_counts_as_step():
    lorentz = fh.SpaceSpec.lorentz(3, 1)
    got = fh.norm_info(fh.const_fn(2.0, 64), lorentz).value
    assert got == pytest.approx(staircase_norm([2.0], [2.0], lorentz), abs=1e-14)


# ---------------------------------------------------------- integral over w

def test_integral_over_w_of_w2_over_w():
    # (1 - x^2)/w / w = 1, integral 2 (not int 1/w = pi)
    assert Profile.poly(W2, wpow=-1).integral_over_w() == pytest.approx(2.0, abs=1e-14)
    g = fh.from_profile(Profile.poly(W2, wpow=-1), 128)
    assert fh.range_defect(g) == pytest.approx(2.0, abs=1e-14)


def test_integral_over_w_of_cubic_over_w():
    # (x + 3)(1 - x^2)/w / w = x + 3, integral 6
    p = C.chebmul(C.poly2cheb([3.0, 1.0]), W2)
    assert Profile.poly(p, wpow=-1).integral_over_w() == pytest.approx(6.0, abs=1e-13)


@pytest.mark.parametrize("lo, hi, power, quotient", [
    (-0.7, 0.4, [0.2, -1.0, 0.5], lambda y: (0.2 - y + 0.5 * y * y) / (1 - y * y)),
    # p = x^2 - 1 vanishes at 1
    (0.2, 1.0, [-1.0, 0.0, 1.0], lambda y: -1.0 + 0 * y),
    # p = (1 + x)(0.5 + x^2) vanishes at -1
    (-1.0, -0.1, [0.5, 0.5, 1.0, 1.0], lambda y: (0.5 + y * y) / (1 - y)),
])
def test_integral_over_w_of_partial_pieces(lo, hi, power, quotient):
    prof = Profile(((lo, hi, C.poly2cheb(power), -1),))
    want = quad(quotient, lo, hi, limit=200)[0]
    assert prof.integral_over_w().real == pytest.approx(want, abs=1e-12)


def test_integral_over_w_diverges_at_a_reached_end():
    assert Profile.poly((1.0,), wpow=-1).integral_over_w() == complex(np.inf)
    assert Profile(((0.2, 1.0, (1.0, 1.0), -1),)).integral_over_w() == complex(np.inf)
    # finite when the piece stops short of the end
    assert np.isfinite(Profile(((0.2, 0.9, (1.0, 1.0), -1),)).integral_over_w())


# ------------------------------------------------------------- chebalg moments

@pytest.mark.parametrize("a", [0.3, -0.7, 0.0, 1.0, -1.0, 0.999])
def test_log_moments_match_the_per_k_integrals(a):
    d = 24
    got = ca.log_moments(d, a)
    want = np.array([ca.integral_log(np.eye(d)[k][: k + 1], a).real for k in range(d)])
    assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("a", [0.3, -0.7, 1.0])
def test_log_over_w_moments_against_quadrature(a):
    got = ca.log_over_w_moments(5, a)
    for k in range(5):
        want = quad(lambda th: np.cos(k * th) * np.log(abs(np.cos(th) - a)),
                    0, np.pi, points=[np.arccos(a)], limit=300)[0]
        assert got[k] == pytest.approx(want, abs=1e-10)


def test_segment_integrals_over_w_against_quadrature():
    lo, hi = -0.3, 0.8
    got = ca.segment_integrals_over_w(6, lo, hi)
    for k in range(6):
        want = quad(lambda y: np.cos(k * np.arccos(y)) / np.sqrt(1 - y * y), lo, hi)[0]
        assert got[k] == pytest.approx(want, abs=1e-12)
    assert len(ca.segment_integrals_over_w(0, lo, hi)) == 0


# --------------------------------------------------- algebra properties

LATTICE = st.integers(0, 20).map(lambda k: -1.0 + k / 10.0)
COEFFS = st.lists(st.floats(-1, 1), min_size=1, max_size=3)
# lattice midpoints: 0.05 away from every piece end and log location
XS = -0.95 + 0.1 * np.arange(20)


@st.composite
def profiles(draw, logs=True):
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        lo, hi = sorted(draw(st.lists(LATTICE, min_size=2, max_size=2, unique=True)))
        pieces.append((lo, hi, draw(COEFFS), draw(st.sampled_from((-1, 0, 1)))))
    terms = []
    if logs:
        terms = [(draw(LATTICE), draw(COEFFS)) for _ in range(draw(st.integers(0, 2)))]
    return Profile(pieces, terms)


def close(got, want):
    return np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())


@settings(max_examples=40, deadline=None)
@given(profiles(), profiles(), st.floats(-3, 3))
def test_algebra_matches_pointwise_arithmetic(f, g, k):
    fx, gx = f.eval(XS), g.eval(XS)
    assert close(f.plus(g).eval(XS), fx + gx)
    assert close(g.plus(f).eval(XS), fx + gx)
    assert close(f.scaled(k).eval(XS), k * fx)
    prod = f.times(g)
    if prod is not None:
        assert close(prod.eval(XS), fx * gx)


@settings(max_examples=40, deadline=None)
@given(profiles(logs=False), st.lists(LATTICE, min_size=2, max_size=4, unique=True))
def test_restriction_matches_pointwise_masking(f, cuts):
    cuts = sorted(cuts)
    iset = fh.IntervalSet(tuple(zip(cuts[::2], cuts[1::2])))
    inside = np.array([any(a < x < b for a, b in iset) for x in XS])
    assert close(f.restricted(iset).eval(XS), np.where(inside, f.eval(XS), 0.0))


@settings(max_examples=40, deadline=None)
@given(profiles(logs=False))
def test_transform_profile_matches_transform_values(f):
    img = f.fht_profile()
    if img is not None:
        assert close(img.eval(XS), f.fht_values(XS))


_BELOW_ONE = np.nextafter(1.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(profiles(logs=False))
def test_transform_over_w_matches_the_product_with_inverse_weight(f):
    # where f/w leaves the algebra (a w^{-1} piece), against theta panels split
    # at the piece ends and graded; panel nodes that round onto +-1 are moved
    # just inside, where 1/w is finite
    over_w = f.times(Profile.poly((1.0,), -1))
    if over_w is not None:
        assert close(f.fht_over_w_values(XS), over_w.fht_values(XS))
    elif not np.isfinite(f.integral_over_w()):
        with pytest.raises(ValueError, match="not integrable"):
            f.fht_over_w_values(XS)
    else:
        def h(x):
            return f.eval(np.clip(x, -_BELOW_ONE, _BELOW_ONE))

        panels = fht_over_w_point(h, XS, extra_splits=f.breakpoints(), grade_endpoints=True)
        assert close(f.fht_over_w_values(XS), panels)


def test_ops_leaving_the_algebra_return_none():
    logmix = Profile.poly((1.0,)).plus(Profile((), ((0.2, (1.0,)),)))
    assert logmix.fht_profile() is None
    assert logmix.restricted(fh.IntervalSet(((0.0, 0.5),))) is None
    assert logmix.times(logmix) is None
    assert logmix.times(fh.indicator_fn((0.0, 0.5), 16).profile) is None
    assert Profile.poly((1.0,), -1).times(Profile.poly((1.0,), -1)) is None
    assert Profile(((0.0, 0.5, (1.0,), -1),)).fht_profile() is None


# ------------------------------------- structure kept where the parent dropped it

def _restricted(f, a, b):
    return fh.restrict(f, fh.IntervalSet(((a, b),)))


STRUCTURE_KEPT = {
    "summed-overlaps": (lambda: two_indicators(), (-0.5, 0.0, 0.5)),
    "constant-step": (lambda: fh.const_fn(1.5, 512), ()),
    "restricted-w": (lambda: _restricted(fh.weight_fn(512), -0.6, 0.3), (-0.6, 0.3)),
    "restricted-invw": (lambda: _restricted(fh.inv_weight_fn(512), -0.6, 0.3), (-0.6, 0.3)),
    "piecewise-product": (lambda: _restricted(fh.poly_fn([0.5, 1.0], 512), -0.5, 0.5)
                          * fh.indicator_fn((0.0, 0.8), 512), (0.0, 0.5)),
    "across-weight-powers": (lambda: fh.poly_fn([1.0, 0.0, 1.0], 512)
                             - fh.kernel_projection(fh.poly_fn([1.0, 0.0, 1.0], 512)), ()),
}


@pytest.mark.parametrize("case", sorted(STRUCTURE_KEPT))
def test_kept_structure_matches_the_oracle(case):
    build, singular = STRUCTURE_KEPT[case]
    f = build()
    assert f.profile is not None
    for t in (-0.71, 0.23, 0.62):
        got = fh.fht_point(f, t)
        want = fh.pv_oracle(f.eval_at, t, singular=singular)
        assert got == pytest.approx(want, abs=1e-7)


# ----------------------------------------------------------- stacked transforms

def _piece_by_piece(prof, x):
    """T(f) written out: each piece alone, summed in piece order, then the
    log terms, as a profile was transformed before stacked rows."""
    out = np.zeros(len(x), dtype=complex)
    for lo, hi, c, s in prof.pieces:
        if s == 0:
            out += ca.fht_series(c, x, lo, hi)
        else:
            one = np.zeros(len(x), dtype=complex)
            fh.profiles._add_piece_fht(one, x, lo, hi, c, s)
            out += one
    for a, c in prof.logs:
        out += C.chebval(x, c) * ca.fht_log_kernel(a, x) / np.pi
        out += fh.profiles._log_moments(ca.log_moments, c, a, x)
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), points=st.sampled_from(["nodes", "other"]))
def test_stacked_profiles_equal_piece_by_piece_transforms(seed, points):
    # pieces of degree 0..40 mixed in each profile, real and complex, with
    # weighted pieces and log terms; blocks of 7 rows force several blocks
    # per call, so one length group spans blocks
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fh.profiles, "_SERIES_BLOCK", 7 * 64)
        check_stacked_profiles(seed, points)


def check_stacked_profiles(seed, points):
    rng = np.random.default_rng(seed)
    x = ca.chebyshev_nodes(64) if points == "nodes" else np.sort(rng.uniform(-0.99, 0.99, 33))
    profiles = []
    for _ in range(int(rng.integers(1, 5))):
        cuts = np.sort(rng.uniform(-1.0, 1.0, int(rng.integers(1, 7))))
        edges = np.concatenate([[-1.0], cuts, [1.0]])
        pieces = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            c = rng.normal(size=int(rng.integers(1, 42))) + 0j
            if rng.random() < 0.5:
                c += 1j * rng.normal(size=len(c))
            pieces.append((lo, hi, c, 0))
        if rng.random() < 0.3:
            pieces.append((-1.0, 1.0, rng.normal(size=3), int(rng.choice([-1, 1]))))
        logs = [(float(rng.uniform(-0.5, 0.5)), rng.normal(size=2))] if rng.random() < 0.3 else []
        profiles.append(Profile(pieces, logs))
    profiles.append(Profile())
    got = fh.profiles.fht_values_stacked(profiles, x)
    for row, prof in zip(got, profiles):
        want = _piece_by_piece(prof, x)
        assert np.array_equal(row, want)
        assert np.array_equal(prof.fht_values(x), want)


def test_fht_image_computes_each_smooth_part_once(monkeypatch):
    # fht_grid reads the smooth coefficients D of every unweighted piece
    # once, for the image's values and for its profile alike
    rows = []
    real = ca.fht_smooth_coeffs

    def counting(coeffs, lo=-1.0, hi=1.0):
        rows.append(1 if np.ndim(coeffs) == 1 else len(coeffs))
        return real(coeffs, lo, hi)

    monkeypatch.setattr(ca, "fht_smooth_coeffs", counting)
    inputs = [fh.poly_fn([0.3, 1.0, -0.5], 64),
              fh.indicator_fn(((-0.5, 0.1), (0.3, 0.7)), 64),
              fh.from_callable(np.cos, 64),
              fh.from_callable(np.cos, 33, family="uniform")]
    for f in inputs:
        rows.clear()
        img = fh.fht_grid(f)
        unweighted = sum(1 for piece in f.structure.pieces if piece[3] == 0)
        assert sum(rows) == unweighted
        assert img.profile is not None
        want = f.with_values(_piece_by_piece(f.structure, f.nodes))
        assert np.array_equal(img.values, want.values)
