"""Vector-measure machinery: scalar measures, supremum searches, diagnostics."""

import itertools
import math

import numpy as np
import pytest

import finhilbert as fh


def ivals(*pairs):
    return fh.IntervalSet(tuple(pairs))


LP15 = fh.SpaceSpec.lp(1.5)


# -------------------------------------------------------------- vector measure

def test_vector_measure_empty():
    m = fh.vector_measure(fh.IntervalSet.empty(), 128)
    assert np.all(m.values == 0)


def test_vector_measure_point_value():
    m = fh.vector_measure(ivals((0.0, 1.0)), 512)
    got = m.eval_at(np.array([-0.5]))[0].real
    assert got == pytest.approx(math.log(3.0) / math.pi, abs=1e-12)


def test_vector_measure_additive(rng):
    for _ in range(5):
        pts = np.sort(rng.uniform(-0.95, 0.95, 4))
        A, B = ivals((pts[0], pts[1])), ivals((pts[2], pts[3]))
        lhs = fh.vector_measure(A.union(B), 128)
        rhs = fh.vector_measure(A, 128) + fh.vector_measure(B, 128)
        assert np.abs(lhs.values - rhs.values).max() <= 1e-10


# -------------------------------------------------------------- scalar measure

def test_scalar_measure_zero_function():
    z = fh.const_fn(0.0, 128)
    assert fh.scalar_measure(z, ivals((0.0, 0.5))) == 0


def test_scalar_measure_cross_check(rng):
    # <m(A), g> computed by pairing must match -int_A T(g)
    for coeffs in ([1.0], [0, 1], [0.5, -1, 2]):
        g = fh.poly_fn(coeffs, 512)
        for _ in range(4):
            A = fh.random_interval_set(rng)
            via_pairing = fh.pairing(fh.vector_measure(A, 512), g)
            via_scalar = fh.scalar_measure(g, A)
            assert abs(via_pairing - via_scalar) <= 1e-6


def test_scalar_measure_rybakov():
    g0 = fh.rybakov_functional(512)
    for b in (0.25, 0.5, 0.75):
        val = fh.scalar_measure(g0, ivals((0.0, b))).real
        assert val == pytest.approx(-b, abs=1e-4)


# -------------------------------------------------------------- total variation

def test_total_variation_of_rybakov():
    g0 = fh.rybakov_functional(512)
    levels = fh.total_variation_scalar(g0, levels=(4, 16, 64, 256))
    values = [v for _, v in levels]
    assert values[-1] == pytest.approx(2.0, abs=1e-3)
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-10


def test_total_variation_of_zero():
    z = fh.const_fn(0.0, 128)
    assert fh.total_variation_scalar(z, levels=(8,))[0][1] == 0


# ---------------------------------------------------------- indefinite integral

def test_indefinite_integral_of_indicator():
    B = ivals((-0.5, 0.25))
    A = ivals((0.0, 1.0))
    chi = fh.indicator_fn(B, 256)
    lhs = fh.indefinite_integral(chi, A)
    rhs = fh.vector_measure(A.intersect(B), 256)
    assert np.abs(lhs.values - rhs.values).max() <= 1e-10


def test_indefinite_integral_full_is_transform():
    f = fh.poly_fn([0, 0, 1], 256)
    lhs = fh.indefinite_integral(f, ivals((-1.0, 1.0)))
    rhs = fh.fht_grid(f)
    assert np.abs(lhs.values - rhs.values).max() <= 1e-9


def test_indefinite_integral_linear_piece():
    f = fh.poly_fn([0, 1], 256)
    img = fh.indefinite_integral(f, ivals((0.0, 1.0)))
    want = (1 - 0.5 * math.log(3.0)) / math.pi
    assert img.eval_at(np.array([-0.5]))[0].real == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------------------ modulation

def test_modulating_function_validation():
    with pytest.raises(ValueError):
        fh.ModulatingFunction((0.0, 1.0), (1.0, -1.0))
    with pytest.raises(ValueError):
        fh.ModulatingFunction((0.0, 0.5, 1.0), (2.0, 1.0))
    with pytest.raises(ValueError):
        fh.ModulatingFunction((0.0, 0.5, 0.25), (1.0, 1.0))
    m = fh.ModulatingFunction((-1.0, 0.0, 1.0), (1.0, -1.0))
    assert np.array_equal(m.eval(np.array([-0.5, 0.5])), [1.0, -1.0])


# -------------------------------------------------------------- optdomain norm

def test_optdomain_zero():
    est = fh.optdomain_norm(fh.const_fn(0.0, 128), LP15, cells=6)
    assert est.value == 0.0


def test_optdomain_dominates_transform_norm():
    for coeffs in ([1.0], [0, 1], [0.3, 1, 1]):
        f = fh.poly_fn(coeffs, 256)
        est = fh.optdomain_norm(f, LP15, cells=8)
        assert est.value >= fh.norm(fh.fht_grid(f), LP15) - 1e-9


def test_optdomain_exhaustive_matches_greedy(one):
    ex = fh.optdomain_norm(one, LP15, cells=8, search="exhaustive")
    gr = fh.optdomain_norm(one, LP15, cells=8, search="greedy-flip", seed=11)
    assert gr.value == pytest.approx(ex.value, rel=1e-9)
    assert ex.witness.coefficients is not None


def test_optdomain_refuses_large_exhaustive(one):
    with pytest.raises(ValueError):
        fh.optdomain_norm(one, LP15, cells=21, search="exhaustive")


def test_optdomain_complex_phases_report_gap():
    # complex unit-circle coefficients widen the searched class, so the
    # estimate can only grow; the relative gap is the reported quantity
    # (measured ~3% here: frustrated sign interactions relax at complex
    # phases, so real signs do NOT always attain the complex supremum)
    f = fh.poly_fn([0.3, 1, 1], 256)
    real = fh.optdomain_norm(f, LP15, cells=6, phases=2)
    quad = fh.optdomain_norm(f, LP15, cells=6, phases=4)
    assert quad.value >= real.value - 1e-12
    gap = (quad.value - real.value) / real.value
    assert gap <= 0.10
    with pytest.raises(ValueError):
        fh.optdomain_norm(f, LP15, cells=6, phases=4, search="greedy-flip")
    with pytest.raises(ValueError):
        fh.optdomain_norm(f, LP15, cells=6, phases=1)


# --------------------------------------------------------------- semivariation

def test_semivariation_empty(one):
    est = fh.semivariation(one, fh.IntervalSet.empty(), LP15)
    assert est.value == 0.0


def test_semivariation_matches_restricted_optdomain(rng):
    for coeffs in ([1.0], [0, 1], [0.3, 1, 1]):
        f = fh.poly_fn(coeffs, 256)
        A = fh.random_interval_set(rng)
        sv = fh.semivariation(f, A, LP15, cells=8, search="exhaustive")
        od = fh.optdomain_norm(fh.restrict(f, A), LP15, cells=8,
                               search="exhaustive")
        assert sv.value == pytest.approx(od.value, rel=1e-6)


def test_semivariation_monotone(one):
    inner = ivals((0.0, 0.5))
    outer = ivals((-0.25, 0.75))
    sv_in = fh.semivariation(one, inner, LP15, cells=8)
    sv_out = fh.semivariation(one, outer, LP15, cells=8)
    assert sv_in.value <= sv_out.value + 1e-9


def test_simple_function_norm_routes_coincide():
    # for a simple function the semivariation over the full interval and the
    # optimal-domain norm are the same supremum over the same patterns
    f = fh.sign_fn(256)
    sv = fh.semivariation(f, ivals((-1.0, 1.0)), LP15, cells=8)
    od = fh.optdomain_norm(f, LP15, cells=8)
    assert sv.value == pytest.approx(od.value, rel=1e-12)


# ------------------------------------------- batched searches vs brute force

SEARCH_SPACES = (fh.SpaceSpec.lorentz(3, 1), fh.SpaceSpec.weak_lp(2))
FULL = ivals((-1.0, 1.0))


def cell_basis(f, A, cells):
    """T(f chi_{A and cell}) for the cells that meet A, and their indices."""
    edges = np.linspace(-1.0, 1.0, cells + 1)
    rows, idx = [], []
    for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        part = A.intersect(ivals((a, b)))
        if not part.is_empty():
            rows.append(fh.fht_product_indicator(f, part).values)
            idx.append(j)
    return np.array(rows), idx


def pattern_norm(f, basis, signs, space):
    return fh.norm_info(f.with_values(np.asarray(signs) @ basis), space).value


def brute_exhaustive(f, basis, space):
    best, arg = -1.0, None
    for code in itertools.product([1.0, -1.0], repeat=len(basis) - 1):
        signs = (1.0,) + code
        val = pattern_norm(f, basis, signs, space)
        if val > best:
            best, arg = val, signs
    return best, np.array(arg)


def brute_greedy(f, basis, space, restarts, seed):
    cells = len(basis)
    rng = np.random.default_rng(seed)
    starts = [np.ones(cells)] + [rng.choice([-1.0, 1.0], cells) for _ in range(restarts)]
    best, arg = -1.0, None
    for s in starts:
        cur = pattern_norm(f, basis, s, space)
        while True:
            gains = [pattern_norm(f, basis, s * np.where(np.arange(cells) == j, -1.0, 1.0),
                                  space) for j in range(cells)]
            j = int(np.argmax(gains))
            if not gains[j] > cur + 1e-15:
                break
            s = s.copy()
            s[j] = -s[j]
            cur = gains[j]
        if cur > best:
            best, arg = cur, s
    return best, arg


@pytest.mark.parametrize("space", SEARCH_SPACES, ids=lambda sp: sp.label())
def test_optdomain_searches_match_brute_force(space):
    # 512 patterns and 33 starts x 9 flips both span two 256-row blocks at
    # 256 nodes, so the first-strict-maximum rule runs across blocks
    f = fh.poly_fn([0.3, 1.0, -0.6, 0.8], 256)
    basis, _ = cell_basis(f, FULL, 10)
    est = fh.optdomain_norm(f, space, cells=10, search="exhaustive")
    want, signs = brute_exhaustive(f, basis, space)
    assert est.value == pytest.approx(want, rel=1e-12)
    assert np.array_equal(np.real(est.witness.coefficients), signs)
    basis, _ = cell_basis(f, FULL, 9)
    est = fh.optdomain_norm(f, space, cells=9, search="greedy-flip", restarts=32, seed=3)
    want, signs = brute_greedy(f, basis, space, 32, 3)
    assert est.value == pytest.approx(want, rel=1e-12)
    assert np.array_equal(np.real(est.witness.coefficients), signs)


@pytest.mark.parametrize("space", SEARCH_SPACES, ids=lambda sp: sp.label())
def test_semivariation_matches_brute_force(space, monkeypatch):
    # blocks of 5 patterns: many block boundaries inside each search
    monkeypatch.setattr(fh.measure, "BLOCK_BYTES", 5 * 16 * 256)
    f = fh.poly_fn([0.3, 1.0, -0.6, 0.8], 256)
    A = ivals((-0.8, -0.2), (0.1, 0.7))
    basis, idx = cell_basis(f, A, 8)
    for search, (want, signs) in (("exhaustive", brute_exhaustive(f, basis, space)),
                                  ("greedy-flip", brute_greedy(f, basis, space, 4, 5))):
        sv = fh.semivariation(f, A, space, cells=8, search=search, restarts=4, seed=5)
        assert sv.value == pytest.approx(want, rel=1e-12)
        full = np.ones(8)
        full[idx] = signs
        assert np.array_equal(np.real(sv.witness.coefficients), full)


def test_exhaustive_keeps_first_of_tied_maxima_across_blocks(monkeypatch):
    # a zero cell makes each pattern tie exactly with its last-sign partner,
    # the next pattern in the enumeration; one pattern per block puts every
    # tied pair in two blocks
    monkeypatch.setattr(fh.measure, "BLOCK_BYTES", 16 * 64)
    f = fh.poly_fn([0.3, 1.0, -0.6, 0.8], 64)
    basis, _ = cell_basis(f, FULL, 4)
    basis = np.vstack([basis, np.zeros_like(basis[:1])])
    space = fh.SpaceSpec.lorentz(3, 1)
    value, signs = fh.measure._exhaustive_best(basis, f.nodes, f.weights, space)
    want, want_signs = brute_exhaustive(f, basis, space)
    assert value == pytest.approx(want, rel=1e-12)
    assert np.array_equal(signs, want_signs) and signs[-1] == 1.0


def test_semivariation_rejects_unknown_search(one):
    with pytest.raises(ValueError):
        fh.semivariation(one, ivals((0.0, 0.5)), fh.SpaceSpec.lp(2), search="bogus")


# ------------------------------------------------------------------- weak norm

def test_weak_norm_zero():
    duals = fh.dual_dictionary(LP15, size=8, n=128)
    assert fh.weak_norm(fh.const_fn(0.0, 128), LP15, duals) == 0.0


def test_weak_norm_homogeneous():
    duals = fh.dual_dictionary(LP15, size=8, n=128)
    f = fh.poly_fn([0.5, 1], 128)
    a = fh.weak_norm(2.0 * f, LP15, duals)
    b = fh.weak_norm(f, LP15, duals)
    assert a == pytest.approx(2.0 * b, abs=1e-10 * (1 + a))


def test_weak_norm_requires_dictionary(one):
    with pytest.raises(ValueError):
        fh.weak_norm(one, LP15, ())


def test_estimator_consistency_sample():
    f = fh.poly_fn([0.3, 1, 1, 0, 1], 512)
    duals = fh.dual_dictionary(LP15, size=64, n=512) + (
        fh.matched_dual(f, LP15, cells=12),)
    wn = fh.weak_norm(f, LP15, duals)
    on = fh.optdomain_norm(f, LP15, cells=12).value
    assert abs(wn - on) / max(wn, on) <= 0.25


# -------------------------------------------------------------------- parseval

def test_parseval_examples(xfun):
    x2 = fh.poly_fn([0, 0, 1], 512)
    assert fh.parseval_defect(xfun, x2) <= 1e-7
    assert fh.parseval_defect(xfun, xfun) <= 1e-7
    zero = fh.const_fn(0.0, 512)
    assert fh.parseval_defect(zero, zero) == 0.0


def test_parseval_dictionary():
    fs = [fh.poly_fn(np.eye(8)[k][: k + 1], 256) for k in range(8)]
    worst = max(fh.parseval_defect(fs[i], fs[j])
                for i in range(8) for j in range(i + 1, 8))
    assert worst <= 1e-6


# ------------------------------------------------------------------ membership

def test_membership_of_polynomial():
    rep = fh.membership_report(fh.poly_fn([1, 0, 2], 256), LP15, samples=6)
    assert rep.verdict == "member"
    assert rep.in_l1


def test_membership_of_blowup():
    f = fh.from_callable(lambda x: 1.0 / (1.0 - x), 512)
    rep = fh.membership_report(f, LP15, samples=6)
    assert rep.verdict in ("non-member", "inconclusive")


def test_membership_of_zero():
    rep = fh.membership_report(fh.const_fn(0.0, 128), LP15, samples=3)
    assert rep.verdict == "member"


def test_membership_finite_for_finite_optdomain():
    for coeffs in ([1.0], [0, 1, 1]):
        f = fh.poly_fn(coeffs, 256)
        est = fh.optdomain_norm(f, LP15, cells=6)
        rep = fh.membership_report(f, LP15, samples=4)
        assert np.isfinite(est.value)
        assert rep.verdict == "member"


# --------------------------------------------------------------------- blow-up

@pytest.mark.parametrize("t,M", [(0.0, 1.0), (0.5, 2.0), (-0.3, 3.0)])
def test_blowup_witness_attains(t, M):
    interval, x, attained = fh.blowup_witness(t, M)
    assert interval[0] < x < interval[1]
    assert attained > 2 * M
    # direct closed-form confirmation
    direct = abs(fh.fht_indicator(ivals((t, 1.0)), x))
    assert direct == pytest.approx(attained, rel=1e-12)


def test_blowup_small_bound_gives_wide_interval():
    interval, x, attained = fh.blowup_witness(0.0, 0.01)
    assert interval[1] - interval[0] > 0.4
    assert attained > 0.02


def test_blowup_validates_input():
    with pytest.raises(ValueError):
        fh.blowup_witness(1.5, 1.0)
    with pytest.raises(ValueError):
        fh.blowup_witness(0.0, 0.0)


# ------------------------------------------------------------- L^p membership

def test_lp_membership_of_constant(one):
    out = fh.lp_membership(one, [1.5, 2.0, 3.0])
    for p, info in out.items():
        assert info.value == pytest.approx(2.0 ** (1.0 / p), abs=1e-10)


def test_lp_membership_of_invw(invw):
    out = fh.lp_membership(invw, [1.5, 1.9, 2.0])
    assert not out[1.5].divergent
    assert not out[1.9].divergent
    assert out[2.0].divergent


def test_lp_membership_hoelder_monotone():
    f = fh.poly_fn([0.2, 1, -1], 256)
    out = fh.lp_membership(f, [1.5, 2.0, 4.0])
    ps = sorted(out)
    for p, q in zip(ps, ps[1:]):
        scale = 2.0 ** (1.0 / p - 1.0 / q)
        assert out[p].value <= scale * out[q].value + 1e-9


def test_lp_membership_validates():
    with pytest.raises(ValueError):
        fh.lp_membership(fh.const_fn(1.0, 64), [])
    with pytest.raises(ValueError):
        fh.lp_membership(fh.const_fn(1.0, 64), [0.5])


# ------------------------------------------------------------ sigma additivity

def test_vector_measure_vanishes_on_shrinking_sets():
    prev = None
    for eps in (1e-2, 1e-4, 1e-6):
        m = fh.vector_measure(ivals((0.0, eps)), 512)
        val = fh.norm(m, LP15)
        if prev is not None:
            assert val <= prev + 1e-12
        prev = val
    assert prev < 1e-3


# ------------------------------------------------------------------ miscellany

def test_random_interval_set_deterministic():
    a = fh.random_interval_set(np.random.default_rng(9))
    b = fh.random_interval_set(np.random.default_rng(9))
    assert a.intervals == b.intervals


def test_invw_evidence_is_labelled():
    out = fh.invw_membership_evidence(samples=2, n=256)
    assert out["label"] == "heuristic evidence"
    assert len(out["rows"]) == 2
    for r in out["rows"]:
        assert "decay" in r and "resolved" in r
