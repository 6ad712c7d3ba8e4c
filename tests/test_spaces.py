"""Rearrangements, norms, dilation operators and Boyd indices."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finhilbert as fh
from finhilbert.profiles import Profile
from finhilbert.spaces import NormWorkspace


def step_function(edges, vals, n=512):
    prof = Profile(tuple((edges[i], edges[i + 1], (vals[i],), 0) for i in range(len(vals))))
    return fh.from_profile(prof, n)


# -------------------------------------------------------------------- SpaceSpec

def test_spacespec_validation():
    with pytest.raises(ValueError):
        fh.SpaceSpec.lp(1.0)
    with pytest.raises(ValueError):
        fh.SpaceSpec.lorentz(2.0, 0.5)
    with pytest.raises(ValueError):
        fh.SpaceSpec("Orlicz", 2.0)
    # infinite exponents: for f = 1 + x/2 (sup 1.5) the kernels would read
    # 1.0 in Lp(inf) and Lorentz(3, inf), and NaN in Lorentz(inf, 2)
    for make in (lambda: fh.SpaceSpec.lp(math.inf), lambda: fh.SpaceSpec.weak_lp(math.inf),
                 lambda: fh.SpaceSpec.lorentz(math.inf, 2)):
        with pytest.raises(ValueError, match="finite"):
            make()
    with pytest.raises(ValueError, match="for q = inf use WeakLp"):
        fh.SpaceSpec.lorentz(3, math.inf)


def test_spacespec_derived_attributes():
    for sp in (fh.SpaceSpec.lp(2), fh.SpaceSpec.lorentz(2, 1), fh.SpaceSpec.weak_lp(2)):
        assert sp.boyd_lower == sp.boyd_upper == 0.5
    assert fh.SpaceSpec.lp(2).order_continuous
    assert fh.SpaceSpec.lorentz(3, 1).order_continuous
    assert not fh.SpaceSpec.weak_lp(2).order_continuous
    assert fh.SpaceSpec.lp(1.5).associate_exponent() == pytest.approx(3.0)


# ----------------------------------------------------------------- distribution

def test_distribution_of_constant(one):
    assert fh.distribution(one, 0.5) == pytest.approx(2.0, abs=1e-12)
    assert fh.distribution(one, 1.5) == 0.0


def test_distribution_of_invw(invw):
    want = 2.0 * (1.0 - math.sqrt(1 - 0.25))
    assert fh.distribution(invw, 2.0) == pytest.approx(want, abs=5e-3)


def test_distribution_rejects_negative(one):
    with pytest.raises(ValueError):
        fh.distribution(one, -0.1)


# ---------------------------------------------------------------- rearrangement

def test_rearrangement_two_step():
    f = step_function([-1.0, 0.0, 1.0], [2.0, 1.0])
    r = fh.rearrangement(f)
    assert np.allclose(r.breakpoints, [1.0, 2.0])
    assert np.allclose(r.plateaus, [2.0, 1.0])
    assert r.value(0.5) == 2.0
    assert r.value(1.5) == 1.0


def test_rearrangement_constant(one):
    r = fh.rearrangement(one)
    assert r.value(0.3) == pytest.approx(1.0)
    assert r.value(1.9) == pytest.approx(1.0)


def test_rearrangement_invw_closed_form(invw):
    r = fh.rearrangement(invw)
    for t in (0.1, 0.5, 1.0, 2.0):
        want = 2.0 / math.sqrt(t * (4 - t))
        assert r.value_interp(t) == pytest.approx(want, abs=1e-3)


def test_rearrangement_equimeasurable(invw):
    r = fh.rearrangement(invw)
    for lam in (0.5, 1.1, 2.0, 5.0):
        assert r.distribution(lam) == pytest.approx(fh.distribution(invw, lam),
                                                    abs=1e-9)


def test_rearrangement_nonincreasing(rng):
    vals = rng.uniform(0, 5, 64)
    f = fh.from_callable(lambda x: np.interp(x, np.linspace(-1, 1, 64), vals), 256)
    r = fh.rearrangement(f)
    assert np.all(np.diff(r.plateaus) <= 1e-15)


# ------------------------------------------------------------------------ norms

def test_lp_norm_of_constant(one):
    assert fh.norm(one, fh.SpaceSpec.lp(2)) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_lorentz_norm_of_indicator():
    chi = fh.indicator_fn(fh.IntervalSet(((0.0, 1.0),)), 256)
    assert fh.norm(chi, fh.SpaceSpec.lorentz(2, 1)) == pytest.approx(2.0, abs=1e-12)


def test_weak_norm_of_invw(invw):
    assert fh.norm(invw, fh.SpaceSpec.weak_lp(2)) == pytest.approx(
        math.sqrt(2), abs=1e-4)


def test_lorentz_pp_equals_lp(rng):
    for coeffs in ([1.0], [0, 1], [0.3, -1, 0.5]):
        f = fh.poly_fn(coeffs, 256)
        for p in (1.5, 2.0, 3.0):
            a = fh.norm(f, fh.SpaceSpec.lorentz(p, p))
            b = fh.norm(f, fh.SpaceSpec.lp(p))
            assert a == pytest.approx(b, abs=1e-8)


def test_norm_rearrangement_invariance(rng):
    # swap the two halves of a step function: a measure-preserving shuffle
    f = step_function([-1.0, -0.25, 0.5, 1.0], [3.0, 1.0, 2.0])
    g = step_function([-1.0, -0.5, 0.25, 1.0], [2.0, 3.0, 1.0])
    for sp in (fh.SpaceSpec.lp(2), fh.SpaceSpec.lorentz(3, 1), fh.SpaceSpec.weak_lp(2)):
        assert fh.norm(f, sp) == pytest.approx(fh.norm(g, sp), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=2, max_size=4),
       st.lists(st.floats(-2, 2), min_size=2, max_size=4))
def test_hoelder_inequality(c1, c2):
    f = fh.poly_fn(c1, 128)
    g = fh.poly_fn(c2, 128)
    p = 1.5
    q = p / (p - 1)
    lhs = abs(fh.pairing(f, g))
    rhs = fh.norm(f, fh.SpaceSpec.lp(p)) * fh.norm(g, fh.SpaceSpec.lp(q))
    assert lhs <= rhs + 1e-9


def test_norm_divergence_flags(invw):
    assert fh.norm_info(invw, fh.SpaceSpec.lp(1.9)).divergent is False
    info = fh.norm_info(invw, fh.SpaceSpec.lp(2.0))
    assert info.divergent and info.value == float("inf")
    assert fh.norm_info(invw, fh.SpaceSpec.weak_lp(2.0)).divergent is False
    blow = fh.from_callable(lambda x: 1.0 / (1.0 - x), 512)
    assert fh.norm_info(blow, fh.SpaceSpec.lp(1.5)).divergent


ENDPOINT_SPACES = (fh.SpaceSpec.lp(1.2), fh.SpaceSpec.lp(1.5), fh.SpaceSpec.lp(3),
                   fh.SpaceSpec.lorentz(3, 1), fh.SpaceSpec.lorentz(2, 3),
                   fh.SpaceSpec.weak_lp(2))


@settings(max_examples=150, deadline=None)
@given(st.integers(128, 2048), st.sampled_from(ENDPOINT_SPACES), st.sampled_from((1.0, -1.0)),
       st.booleans(), st.floats(0.0, 1.0, exclude_max=True))
def test_endpoint_power_singularities_are_diagnosed(n, space, side, divergent, u):
    # (1 -+ x)^-beta on Chebyshev nodes: finite and unflagged as divergent for
    # p*beta in [0.02, 0.85]; divergent, +inf and flagged for p*beta in
    # [1.15, 1.9] with beta < 0.97
    if divergent:
        top = min(1.9, 0.97 * space.p)
        pb = 1.15 + u * (top - 1.15)
    else:
        pb = 0.02 + u * 0.83
    beta = pb / space.p
    info = fh.norm_info(fh.from_callable(lambda x: (1.0 - side * x) ** -beta, n), space)
    if divergent:
        assert info.divergent and info.value == float("inf") and info.resolution_limited
    else:
        assert not info.divergent and np.isfinite(info.value)


# ------------------------------------------------------------ step functions

STEP_SPACES = (fh.SpaceSpec.lp(1.5), fh.SpaceSpec.lp(3),
               fh.SpaceSpec.lorentz(3, 1), fh.SpaceSpec.weak_lp(2))


def written_out_norm(values, lengths, space):
    """The norm of sum_j v_j chi_(I_j) over a partition, from its definition."""
    mags = np.abs(values).tolist()
    p = space.p
    if space.kind == "Lp":
        return sum(m**p * h for m, h in zip(mags, lengths)) ** (1 / p)
    if space.kind == "WeakLp":
        return max(m * sum(h for m2, h in zip(mags, lengths) if m2 >= m) ** (1 / p)
                   for m in mags)
    total, u = 0.0, 0.0
    for m, h in sorted(zip(mags, lengths), key=lambda mh: -mh[0]):
        total += m**space.q * ((u + h) ** (space.q / p) - u ** (space.q / p))
        u += h
    return (total * p / space.q) ** (1 / space.q)


@st.composite
def staircases(draw):
    """A geometric staircase toward -1 or 1: cut points 1 - 2 r^j with
    values growing or decaying geometrically, some steps zero, complex phases."""
    count = draw(st.integers(2, 30))
    r = draw(st.floats(0.3, 0.8))
    cuts = [1.0 - 2.0 * r**j for j in range(1, count)]
    ends = np.unique([-1.0] + [c for c in cuts if c < 1.0] + [1.0])
    growth = draw(st.floats(0.5, 3.0))
    values = [0.0 if draw(st.integers(0, 4)) == 0
              else growth**k * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
              for k in range(len(ends) - 1)]
    if draw(st.booleans()):                   # mirrored: toward -1
        ends, values = -ends[::-1], values[::-1]
    return ends, values


@settings(max_examples=40, deadline=None)
@given(staircases())
def test_step_norms_distribution_and_rearrangement_are_exact(stairs):
    ends, values = stairs
    f = step_function(ends, values, 64)
    lengths = [b - a for a, b in zip(ends, ends[1:])]
    mags = np.abs(values).tolist()
    for space in STEP_SPACES:
        info = fh.norm_info(f, space)
        assert np.isfinite(info.value)
        assert not (info.resolution_limited or info.divergent)
        want = written_out_norm(values, lengths, space)
        assert info.value == pytest.approx(want, rel=1e-14, abs=0.0)
    order = sorted(range(len(mags)), key=lambda k: -mags[k])     # stable
    r = fh.rearrangement(f)
    assert np.array_equal(r.plateaus, [mags[k] for k in order])
    assert np.array_equal(r.breakpoints, np.cumsum([lengths[k] for k in order]))
    for lam in {0.0, *mags}:
        exceeding = sum(h for m, h in zip(mags, lengths) if m > lam)
        assert fh.distribution(f, lam) == pytest.approx(exceeding, rel=1e-14, abs=1e-300)
        assert r.distribution(lam) == pytest.approx(exceeding, rel=1e-14, abs=1e-300)


def test_norm_of_a_steep_staircase_is_exact():
    # (1 - a)^-0.9 on (a, b) for the cuts 1 - 2^-k: the samples look like a
    # divergent endpoint blow-up, but the step function is bounded
    ends = [-1.0] + [1.0 - 2.0**-k for k in range(1, 30)] + [1.0]
    values = [(1.0 - a) ** -0.9 for a in ends[:-1]]
    f = step_function(ends, values, 512)
    lengths = np.diff(ends)
    for space in STEP_SPACES:
        info = fh.norm_info(f, space)
        assert not (info.resolution_limited or info.divergent)
        assert info.value == pytest.approx(written_out_norm(values, lengths, space),
                                           rel=1e-14)
    # 40-digit value of (sum_j v_j^1.5 h_j)^(2/3)
    assert fh.norm(f, fh.SpaceSpec.lp(1.5)) == pytest.approx(217.31574546199984623, rel=1e-14)


def test_norm_of_a_tall_end_step_is_unflagged():
    f = step_function([-1.0, 0.99, 1.0], [1.0, 1000.0], 512)
    for space in STEP_SPACES:
        info = fh.norm_info(f, space)
        assert not (info.resolution_limited or info.divergent)
        assert info.value == pytest.approx(
            written_out_norm([1.0, 1000.0], [1.99, 0.01], space), rel=1e-14)


# ---------------------------------------------------------------- batched norms

BATCH_SPACES = (fh.SpaceSpec.lp(1.5), fh.SpaceSpec.lp(3),
                fh.SpaceSpec.lorentz(3, 1), fh.SpaceSpec.weak_lp(2))


def batch_rows(x):
    """Bounded, zero-padded, endpoint-singular and log-peaked sample rows."""
    smooth = 0.3 + x - 2.0 * x**3 + 0.5j * x**2
    return np.array([
        smooth,
        np.where(x > 0.2, smooth, 0.0),          # exact zeros
        np.zeros_like(x),
        1.0 / (1.0 - x),                         # divergent endpoint blow-up
        (1.0 + x) ** -0.4,                       # divergent for p = 3 only
        np.log(np.abs(x - 0.3)),                 # interior logarithmic peak
        np.log((1.0 - x) / 2.0),                 # endpoint logarithmic peak
        np.cos(3 * x) ** 2,                      # ties at mirrored nodes
        np.where(x > 0.5, (1.0 - x) ** -0.25, 0.0),  # mild peak, zero-padded
    ], dtype=complex)


def staircase_norm(f, space):
    """The discrete norm definitions, written out from the rearrangement."""
    r = fh.rearrangement(f)
    u, v = r.breakpoints, r.plateaus
    if space.kind == "Lp":
        return float(f.weights @ np.abs(f.values) ** space.p) ** (1 / space.p)
    if space.kind == "Lorentz":
        du = np.diff(np.concatenate([[0.0], u]) ** (space.q / space.p))
        return float(np.sum(v**space.q * du) * space.p / space.q) ** (1 / space.q)
    return float(np.max(u ** (1 / space.p) * np.concatenate([v[1:], v[-1:]])))


# (divergent, resolution_limited) flags of norm_info on the batch_rows rows
# at 512 nodes: only the two endpoint power singularities engage the blow-up
# fit, and the zero-padded mild peak stays below the nonzero-median gate
BATCH_FLAGS = {
    "Lp(1.5)": ([0, 0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0, 0]),
    "Lp(3)": ([0, 0, 0, 1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0, 0]),
    "Lorentz(3,1)": ([0, 0, 0, 1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0, 0]),
    "WeakLp(2)": ([0, 0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("space", BATCH_SPACES, ids=lambda sp: sp.label())
def test_norms_batch_rows_equal_norm_info(space):
    # norm_info row by row: the flag table, +inf on the divergent rows and
    # the written-out staircase norm on the others
    f = fh.poly_fn([1.0], 512)
    rows = batch_rows(f.nodes)
    infos = [fh.norm_info(f.with_values(row), space) for row in rows]
    want_divergent, want_limited = BATCH_FLAGS[space.label()]
    assert [info.divergent for info in infos] == [bool(b) for b in want_divergent]
    assert [info.resolution_limited for info in infos] == [bool(b) for b in want_limited]
    for row, info in zip(rows, infos):
        if info.divergent:
            assert info.value == float("inf")
        else:
            want = staircase_norm(f.with_values(row), space)
            assert info.value == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_norms_batch_flags_differ_by_space():
    f = fh.poly_fn([1.0], 512)
    f = f.with_values(batch_rows(f.nodes)[4])
    flags = [fh.norm_info(f, sp).divergent for sp in BATCH_SPACES]
    assert flags == [False, True, True, False]


REUSE_SPACES = (fh.SpaceSpec.lp(3), fh.SpaceSpec.lorentz(3, 1), fh.SpaceSpec.weak_lp(2))


@pytest.mark.parametrize("space", REUSE_SPACES, ids=lambda sp: sp.label())
def test_norms_batch_shared_workspace_matches_fresh_calls(space):
    # blocks of varying height and magnitude through one workspace of the
    # value kernel, a short last block included: stale rows of an earlier,
    # larger block must not leak into any result, and earlier results must
    # not change afterwards
    f = fh.poly_fn([1.0], 256)
    rng = np.random.default_rng(17)
    peaks = batch_rows(f.nodes)
    work = NormWorkspace(16, len(f))
    results = []

    def fresh(block):
        return fh.spaces._norm_values(block, f.weights, space, NormWorkspace(len(block), len(f)))

    for count, scale in ((16, 1e6), (12, 0.0), (16, 1e-6), (1, 3.0), (5, 0.0), (3, 1.0)):
        # scale 0 leaves the bare peaked and zero rows
        block = scale * (rng.normal(size=(count, len(f))) + 1j * rng.normal(size=(count, len(f))))
        block += peaks[(np.arange(count) + count) % len(peaks)]
        got = fh.spaces._norm_values(block, f.weights, space, work)
        results.append((block, got))
        assert np.array_equal(got, fresh(block.copy()))
    for block, got in results:
        assert np.array_equal(got, fresh(block))


@pytest.mark.parametrize("space", REUSE_SPACES, ids=lambda sp: sp.label())
def test_norms_batch_is_the_value_kernel_plus_the_diagnosis(space):
    # rows the blow-up gate engages (the endpoint power peaks) and rows it
    # leaves alone, through norm_info one at a time: the diagnosis only sets
    # +inf, every other value has the bits of the value kernel on the whole
    # block, and the kernel's values are finite
    f = fh.poly_fn([1.0], 512)
    rng = np.random.default_rng(5)
    block = np.concatenate([batch_rows(f.nodes), rng.normal(size=(7, len(f)))])
    infos = [fh.norm_info(f.with_values(row), space) for row in block]
    vals = np.array([info.value for info in infos])
    limited = np.array([info.resolution_limited for info in infos])
    divergent = np.array([info.divergent for info in infos])
    kernel = fh.spaces._norm_values(block, f.weights, space, NormWorkspace(len(block), len(f)))
    assert divergent.any() and not divergent.all() and limited.any()
    assert np.isfinite(kernel).all()
    assert np.array_equal(vals[~divergent], kernel[~divergent])
    assert np.all(vals[divergent] == np.inf)


@pytest.mark.parametrize("e", [1.0, 0.5, 3.0, 1.5, 1.0 / 3.0])
def test_power_stays_within_an_ulp_of_np_power(e):
    # the multiply and square-root paths, on magnitudes over 250 decades
    # (results underflow to subnormals and zero) and on 0
    rng = np.random.default_rng(11)
    x = np.concatenate([[0.0], 10.0 ** rng.uniform(-150.0, 100.0, 10**6)])
    want = np.power(x, e)
    got = fh.spaces._power(x, e, np.empty_like(x))
    assert got[0] == 0.0
    assert np.all(np.abs(got - want) <= np.spacing(want))
    if e == 1.0:
        assert got is x


@pytest.mark.parametrize("space", REUSE_SPACES, ids=lambda sp: sp.label())
def test_a_row_norm_does_not_depend_on_its_place(space):
    # each row is summed on its own: its value kernel norm is the same bits
    # alone, at every place of a 128-row block, and through norm_info where
    # that does not report the row divergent
    f = fh.poly_fn([1.0], 512)
    rng = np.random.default_rng(23)
    block = rng.standard_cauchy((128, len(f))) * rng.uniform(0.1, 10.0, (128, 1))
    block[::7] += batch_rows(f.nodes)[3].real     # a few engage the blow-up fit
    alone = np.array([fh.spaces._norm_values(row[None, :], f.weights, space,
                                             NormWorkspace(1, len(f)))[0]
                      for row in block])
    for row, value in zip(block[::5], alone[::5]):
        info = fh.norm_info(f.with_values(row), space)
        assert info.value == (float("inf") if info.divergent else value)
    work = NormWorkspace(len(block), len(f))
    for shift in range(128):            # every row at every place
        placed = fh.spaces._norm_values(np.roll(block, shift, axis=0), f.weights, space, work)
        assert np.array_equal(placed, np.roll(alone, shift))


SORT_SPACES = (fh.SpaceSpec.lorentz(3, 1), fh.SpaceSpec.lorentz(2, 3), fh.SpaceSpec.weak_lp(2))
# spaces whose kernel powers have the bits of np.power (exponents 1/3, 1
# and 1/2); Lorentz(2,3) powers by x*x*x and x*sqrt(x), within an ulp
BITWISE_POWER_SPACES = (fh.SpaceSpec.lorentz(3, 1), fh.SpaceSpec.weak_lp(2))
SORT_SIZES = (1, 2, 3, 7, 64, 512, 2048)


def stable_staircase_norms(rows, weights, space):
    """The staircase norms from the stable descending argsort, in the
    kernel's order of operations."""
    mags = np.abs(rows)
    order = np.argsort(-mags, axis=1, kind="stable")
    v = np.take_along_axis(mags, order, axis=1)
    u = np.cumsum(weights[order], axis=1)
    if space.kind == "Lorentz":
        chunks = np.diff(np.power(u, space.q / space.p), axis=1, prepend=0.0)
        chunks *= space.p / space.q
        return np.sum(np.power(v, space.q) * chunks, axis=1) ** (1.0 / space.q)
    return np.max(np.power(u, 1.0 / space.p) * np.concatenate([v[:, 1:], v[:, -1:]], axis=1),
                  axis=1)


def rank_sort_rows(n, rng):
    """Rows the packed key orders exactly, and rows with one-ulp near ties
    placed ascending in node order, which the key truncation merges."""
    mirrored = rng.random((n + 1) // 2)
    exact = [np.round(rng.normal(size=n), 1),
             np.concatenate([mirrored, mirrored[::-1][n % 2:]]),
             np.where(rng.random(n) < 0.5, rng.normal(size=n), 0.0),
             np.zeros(n)]
    shift = (n - 1).bit_length()
    near = []
    for j in 2 * list(range(0, n - 1, max(1, n // 3))):   # blocks of 2+ rows
        row = rng.random(n) + 1.0
        row.view(np.uint64)[:] &= ~np.uint64((1 << shift) - 1)
        row[j + 1] = np.nextafter(row[j], np.inf)
        near.append(row)
    return np.array(exact), np.array(near).reshape(-1, n)


@pytest.mark.parametrize("space", SORT_SPACES, ids=lambda sp: sp.label())
def test_packed_rank_sort_matches_stable_argsort(space, monkeypatch):
    rng = np.random.default_rng(41)
    fallbacks = []
    argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_rank_sort":
            fallbacks.append(1)
        return argsort(*args, **kwargs)

    for n in SORT_SIZES:
        # distinct positive weights, so a misplaced row shows in the gather
        weights = rng.random(n) + 0.5
        for rows, near_ties in zip(rank_sort_rows(n, rng), (False, True)):
            want = stable_staircase_norms(rows, weights, space)
            work = NormWorkspace(len(rows), n)
            del fallbacks[:]
            monkeypatch.setattr(np, "argsort", counting_argsort)
            vals = fh.spaces._norm_values(rows, weights, space, work)
            monkeypatch.setattr(np, "argsort", argsort)
            assert len(fallbacks) == (len(rows) if near_ties else 0)
            if space in BITWISE_POWER_SPACES:
                assert np.array_equal(vals, want)
            else:
                assert np.all(np.abs(vals - want) <= 4 * np.spacing(want))
            mags = np.abs(rows)
            order = argsort(-mags, axis=1, kind="stable")
            assert np.array_equal(work.ordered[:len(rows)], np.take_along_axis(mags, order, 1))
            assert np.array_equal(work.gathered[:len(rows)], weights[order])


def sort_gate(mags):
    """The blow-up gate written out on fully sorted rows: the peak exceeds
    30 times the median of the nonzero magnitudes."""
    gated = []
    for k, row in enumerate(mags):
        ordered = np.sort(row)[::-1]
        nonzero = np.count_nonzero(row > 0)
        median = (ordered[max(nonzero - 1, 0) // 2] + ordered[nonzero // 2]) / 2.0
        if nonzero > 0 and ordered[0] > 30.0 * median:
            gated.append(k)
    return gated


def gate_rows(n, rng):
    """Rows on both sides of the gate: exact ties at peak/30 with half or
    more than half of the nonzero magnitudes there, values one ulp around
    peak/30, zeros, an all-zero row and heavy tails."""
    out = []
    for peak in (30.0, 1.0, 7.3):
        low = peak / 30.0
        for below, above in ((False, False), (True, False), (False, True), (True, True)):
            edge = np.nextafter(low, 0.0) if below else low
            for half in (n // 2, n // 2 + 1):
                row = np.full(n, low / 2.0)
                row[:half] = edge
                if above:
                    row[half - 1] = np.nextafter(edge, np.inf)
                row[0] = peak
                out.append(row)
        padded = np.where(rng.random(n) < 0.6, 0.0, low)
        padded[0] = peak
        out.append(padded)
    out.append(np.zeros(n))
    out.extend(rng.pareto(a, n) for a in (0.3, 0.6, 1.0, 3.0))
    return np.array(out)


@pytest.mark.parametrize("n", [3, 8, 64, 512])
def test_lp_count_gate_matches_the_sort_gate(n, monkeypatch):
    # norm_info fits (_blowup_exponent) exactly the rows the sort gate
    # picks, in every space: L^p sorts its row, Lorentz reads the kernel's
    # rank sort
    rng = np.random.default_rng(n)
    nodes = -np.cos(np.pi * (np.arange(n) + 0.5) / n)
    weights = rng.random(n) + 0.5
    rows = gate_rows(n, rng)
    want = sort_gate(rows)
    assert 0 < len(want) < len(rows)
    real = fh.spaces._blowup_exponent
    seen = []

    def recording(nodes, mags):
        seen.append(mags.copy())
        return real(nodes, mags)

    monkeypatch.setattr(fh.spaces, "_blowup_exponent", recording)
    for space in (fh.SpaceSpec.lp(3), fh.SpaceSpec.lp(1.5), fh.SpaceSpec.lorentz(3, 1)):
        del seen[:]
        for row in rows:
            fh.norm_info(fh.GridFunction(nodes, row, weights, "custom"), space)
        assert len(seen) == len(want)
        assert np.array_equal(np.array(seen), rows[want])


def polyfit_exponent(nodes, mags):
    """The power-law fit of the blow-up diagnosis, written out."""
    x0 = nodes[np.argmax(mags)]
    if x0 > 0.9:
        dist = 1.0 - nodes
    elif x0 < -0.9:
        dist = 1.0 + nodes
    else:
        return 0.0
    sel = (dist > 0) & (mags > 1e-14 * mags.max())
    dist, m = dist[sel], mags[sel]
    near = np.argsort(dist, kind="stable")[:24]
    if len(near) < 6:
        return 0.0
    return max(0.0, -float(np.polyfit(np.log(dist[near]), np.log(m[near]), 1)[0]))


@pytest.mark.parametrize("n", [64, 512, 2048])
def test_blowup_exponents_match_polyfit(n):
    x, _ = fh.make_grid(n)
    right = (1.0 - x) ** -0.7
    few = np.where(x >= np.sort(x)[-4], right, 0.0)      # 4 usable nodes
    faint = np.where(np.arange(n) % 2, right, 1e-16)     # half below 1e-14 max
    rows = np.array([
        right,
        (1.0 + x) ** -0.4,
        np.abs(x - 0.3) ** -0.5,                         # interior peak
        np.abs(np.log((1.0 - x) / 2.0)),                 # endpoint log peak
        few,
        faint,
        faint[::-1] * (1.0 + 0.1 * x),
        (1.0 - x) ** -1.2 + 3.0,
    ])
    got, interior = zip(*(fh.spaces._blowup_exponent(x, row) for row in rows))
    want = [polyfit_exponent(x, row) for row in rows]
    assert list(interior) == [False, False, True] + [False] * 5
    assert got[2] == 0.0 and got[4] == 0.0
    assert got[0] > 0.5 and got[1] > 0.3
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


def full_fit(nodes, mags):
    """The endpoint power fit over all N columns, written out for the rows
    of ``mags``; each row is gathered on its own, so numpy sums it pairwise,
    as the one-row fit does."""
    beta = np.zeros(len(mags))
    x0 = nodes[np.argmax(mags, axis=1)]
    for side, rows in ((1.0, np.flatnonzero(x0 > 0.9)), (-1.0, np.flatnonzero(x0 < -0.9))):
        dist = 1.0 - side * nodes
        near = np.argsort(dist, kind="stable")
        dist = dist[near]
        m = mags[rows[:, None], near]
        usable = (dist > 0) & (m > 1e-14 * m.max(axis=1, keepdims=True))
        usable &= np.cumsum(usable, axis=1) <= 24
        count = np.count_nonzero(usable, axis=1)
        logd = np.log(dist, where=dist > 0, out=np.zeros_like(dist))
        logm = np.log(m, where=usable, out=np.zeros_like(m))
        mean = (logd * usable).sum(axis=1) / np.maximum(count, 1)
        xc = np.where(usable, logd - mean[:, None], 0.0)
        slope = (xc * logm).sum(axis=1) / np.maximum((xc * xc).sum(axis=1), 1e-300)
        beta[rows] = np.where(count >= 6, np.maximum(0.0, -slope), 0.0)
    return beta


@pytest.mark.parametrize("n", [64, 65, 100, 512, 2048])
def test_nearest_node_fit_equals_the_full_fit(n):
    # rows with 24 usable nodes among the 64 nearest, and rows that must
    # read farther: zeros or faint values near the endpoint
    x, _ = fh.make_grid(n)
    rank = np.empty(n, dtype=int)
    rank[np.argsort(1.0 - x, kind="stable")] = np.arange(n)
    right = (1.0 - x) ** -0.7
    left = (1.0 + x) ** -0.4
    rows = np.array([
        right,
        left,
        (1.0 - x) ** -1.2 + 3.0,
        np.where((rank < 3) | (rank >= 60), right, 0.0),     # 3 usable of 64
        np.where((rank < 2) | (rank >= 62), right, 1e-17),   # faint prefix
        np.where(rank < 5, right, 0.0),                       # 5 usable at all
        np.where(rank[::-1] % 3 == 0, left, 0.0),
    ])
    beta, interior = zip(*(fh.spaces._blowup_exponent(x, row) for row in rows))
    assert np.array_equal(beta, full_fit(x, rows))
    assert not any(interior)
    assert beta[0] > 0.5 and beta[5] == 0.0


def test_interior_peaks_are_resolution_limited():
    # an interior power peak engages the gate but is not fitted: beta stays
    # 0, so the value and the divergence verdict are unchanged, and the
    # norm is flagged; |x - 0.3|^-0.5 stays below the gate (still open)
    lp15 = fh.SpaceSpec.lp(1.5)
    strong = fh.norm_info(fh.from_callable(lambda x: np.abs(x - 0.3) ** -0.8, 512), lp15)
    assert strong.resolution_limited and not strong.divergent
    assert strong.value == pytest.approx(13.047, abs=1e-3)
    mild = fh.norm_info(fh.from_callable(lambda x: np.abs(x - 0.3) ** -0.5, 512), lp15)
    assert not (mild.resolution_limited or mild.divergent)


# --------------------------------------------------------------------- dilation

def test_dilate_identity(one, xfun):
    assert np.allclose(fh.dilate(xfun, 1.0).values, xfun.values)


def test_dilate_shrinks_support(one):
    d = fh.dilate(one, 2.0)
    inside = np.abs(one.nodes) < 0.5
    assert np.all(d.values[inside] == 1.0)
    assert np.all(d.values[~inside] == 0.0)


def test_dilate_covers_domain(one):
    d = fh.dilate(one, 0.5)
    assert np.allclose(d.values, 1.0)


def test_dilate_rejects_nonpositive(one):
    with pytest.raises(ValueError):
        fh.dilate(one, 0.0)


def test_dilation_opnorm_identity():
    assert fh.dilation_opnorm(fh.SpaceSpec.lp(2), 1.0,
                              fh.default_dilation_dictionary()) == pytest.approx(1.0)


@pytest.mark.parametrize("p,want", [(2.0, 2 ** -0.5), (4.0, 2 ** -0.25)])
def test_dilation_opnorm_compression(p, want):
    got = fh.dilation_opnorm(fh.SpaceSpec.lp(p), 2.0, fh.default_dilation_dictionary())
    assert got == pytest.approx(want, abs=0.02)


def test_dilation_opnorm_respects_bound():
    d = fh.default_dilation_dictionary()
    for sp in (fh.SpaceSpec.lp(1.5), fh.SpaceSpec.lorentz(3, 1), fh.SpaceSpec.weak_lp(2)):
        for t in (0.25, 0.5, 2.0, 4.0):
            assert fh.dilation_opnorm(sp, t, d) <= max(1.0 / t, 1.0) + 1e-9


def test_dilation_opnorm_rejects_zero_entries(one):
    zero = fh.const_fn(0.0, 64)
    with pytest.raises(ValueError):
        fh.dilation_opnorm(fh.SpaceSpec.lp(2), 2.0, [zero])
    with pytest.raises(ValueError):
        fh.dilation_opnorm(fh.SpaceSpec.lp(2), 2.0, [])


# ------------------------------------------------------------------------- Boyd

@pytest.mark.parametrize("space,want", [
    (fh.SpaceSpec.lp(2), 0.5),
    (fh.SpaceSpec.lorentz(3, 1), 1 / 3),
    (fh.SpaceSpec.weak_lp(2), 0.5),
])
def test_boyd_estimates(space, want):
    lo, hi = fh.boyd_estimate(space)
    assert lo == pytest.approx(want, abs=0.05)
    assert hi == pytest.approx(want, abs=0.05)


def test_boyd_duality_spot_check():
    p = 1.5
    lo, hi = fh.boyd_estimate(fh.SpaceSpec.lp(p))
    lo2, hi2 = fh.boyd_estimate(fh.SpaceSpec.lp(p / (p - 1)))
    assert lo2 == pytest.approx(1 - hi, abs=0.05)
    assert hi2 == pytest.approx(1 - lo, abs=0.05)


# ------------------------------------------------------------------ decay probe

def test_decay_of_bounded_function(one):
    assert fh.rearrangement_decay(one, 2.0).value == 0.0


def test_decay_of_invw(invw):
    est = fh.rearrangement_decay(invw, 2.0)
    assert est.value == pytest.approx(1.0, abs=0.05)
    assert est.resolved


def test_decay_of_quarter_power():
    f = fh.from_callable(lambda x: np.abs(x) ** -0.25, 512)
    assert fh.rearrangement_decay(f, 2.0).value == 0.0


def test_decay_validates_exponent(one):
    with pytest.raises(ValueError):
        fh.rearrangement_decay(one, 1.0)


# ---------------------------------------------------------------------- pairing

def test_pairing_examples(one, xfun):
    chi = fh.indicator_fn(fh.IntervalSet(((0.0, 1.0),)), 512)
    assert fh.pairing(chi, chi).real == pytest.approx(1.0, abs=1e-12)
    assert abs(fh.pairing(xfun, one)) <= 1e-12
    assert fh.pairing(xfun, xfun).real == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_pairing_requires_same_nodes(one):
    other = fh.const_fn(1.0, 64)
    with pytest.raises(ValueError):
        fh.pairing(one, other)
