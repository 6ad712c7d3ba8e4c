"""Rearrangements, norms, dilation operators and Boyd indices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finhilbert as fh
from finhilbert.profiles import PiecewiseProfile
from finhilbert.spaces import NormWorkspace


def step_function(edges, vals, n=512):
    prof = PiecewiseProfile(tuple((edges[i], edges[i + 1], (vals[i],))
                                  for i in range(len(vals))))
    return fh.from_profile(prof, n)


# -------------------------------------------------------------------- SpaceSpec

def test_spacespec_validation():
    with pytest.raises(ValueError):
        fh.SpaceSpec.lp(1.0)
    with pytest.raises(ValueError):
        fh.SpaceSpec.lorentz(2.0, 0.5)
    with pytest.raises(ValueError):
        fh.SpaceSpec("Orlicz", 2.0)


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


# (divergent, resolution_limited) flags of the batch_rows rows at 512 nodes:
# only the two endpoint power singularities engage the blow-up fit, and the
# zero-padded mild peak stays below the nonzero-median gate
BATCH_FLAGS = {
    "Lp(1.5)": ([0, 0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0, 0]),
    "Lp(3)": ([0, 0, 0, 1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0, 0]),
    "Lorentz(3,1)": ([0, 0, 0, 1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0, 0]),
    "WeakLp(2)": ([0, 0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("space", BATCH_SPACES, ids=lambda sp: sp.label())
def test_norms_batch_rows_equal_norm_info(space):
    f = fh.poly_fn([1.0], 512)
    rows = batch_rows(f.nodes)
    vals, limited, divergent = fh.norms_batch(rows, f.nodes, f.weights, space)
    assert vals.shape == limited.shape == divergent.shape == (len(rows),)
    want_divergent, want_limited = BATCH_FLAGS[space.label()]
    assert divergent.tolist() == [bool(b) for b in want_divergent]
    assert limited.tolist() == [bool(b) for b in want_limited]
    for k, row in enumerate(rows):
        info = fh.norm_info(f.with_values(row), space)
        assert divergent[k] == info.divergent
        assert limited[k] == info.resolution_limited
        if info.divergent:
            assert vals[k] == float("inf")
        else:
            assert abs(vals[k] - info.value) <= 1e-13 * max(info.value, 1e-300)
            want = staircase_norm(f.with_values(row), space)
            assert vals[k] == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_norms_batch_flags_differ_by_space():
    f = fh.poly_fn([1.0], 512)
    rows = batch_rows(f.nodes)[4:5]
    flags = [bool(fh.norms_batch(rows, f.nodes, f.weights, sp)[2][0]) for sp in BATCH_SPACES]
    assert flags == [False, True, True, False]


REUSE_SPACES = (fh.SpaceSpec.lp(3), fh.SpaceSpec.lorentz(3, 1), fh.SpaceSpec.weak_lp(2))


@pytest.mark.parametrize("space", REUSE_SPACES, ids=lambda sp: sp.label())
def test_norms_batch_shared_workspace_matches_fresh_calls(space):
    # blocks of varying height and magnitude through one workspace, a short
    # last block included: stale rows of an earlier, larger block must not
    # leak into any result, and earlier results must not change afterwards
    f = fh.poly_fn([1.0], 256)
    rng = np.random.default_rng(17)
    peaks = batch_rows(f.nodes)
    work = NormWorkspace(16, len(f))
    results = []
    for count, scale in ((16, 1e6), (12, 0.0), (16, 1e-6), (1, 3.0), (5, 0.0), (3, 1.0)):
        # scale 0 leaves the bare peaked rows, whose flags hinge on the
        # blow-up gate (the mild zero-padded peak must stay unengaged)
        block = scale * (rng.normal(size=(count, len(f))) + 1j * rng.normal(size=(count, len(f))))
        block += peaks[(np.arange(count) + count) % len(peaks)]
        got = fh.norms_batch(block, f.nodes, f.weights, space, work)
        results.append((block, got))
        want = fh.norms_batch(block.copy(), f.nodes, f.weights, space)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    for block, got in results:
        want = fh.norms_batch(block, f.nodes, f.weights, space)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


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


def test_boyd_requires_spanning_grid():
    with pytest.raises(ValueError):
        fh.boyd_estimate(fh.SpaceSpec.lp(2), t_grid=(0.5, 0.25))


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
