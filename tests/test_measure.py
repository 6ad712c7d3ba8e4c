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
    # profile-free samples: both routes cut the same interpolant
    f = fh.from_callable(lambda x: 0.3 + x + x**2, 256)
    A = ivals((-0.6, 0.1), (0.3, 0.8))
    sv = fh.semivariation(f, A, LP15, cells=8, search="exhaustive")
    od = fh.optdomain_norm(fh.restrict(f, A), LP15, cells=8, search="exhaustive")
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


def test_block_norms_shared_buffers_match_fresh_blocks():
    # greedy steps pass patterns of differing counts through one set of
    # block buffers; each block must equal a fresh norms_batch of its samples
    f = fh.poly_fn([0.3, 1.0, -0.6, 0.8], 128)
    basis, _ = cell_basis(f, FULL, 6)
    rng = np.random.default_rng(2)
    for space in SEARCH_SPACES + (fh.SpaceSpec.lp(3),):
        pattern_norms = fh.measure._BlockNorms(7, basis, f.nodes, f.weights, space)
        for count in (20, 3, 7, 15):
            patterns = rng.choice([-1.0, 1.0], (count, len(basis)))
            want = np.concatenate([
                fh.norms_batch(patterns[i:i + 7] @ basis, f.nodes, f.weights, space)[0]
                for i in range(0, count, 7)])
            assert np.array_equal(pattern_norms(patterns), want)


def test_sign_search_keeps_the_fast_path(monkeypatch):
    # the transform basis of a real polynomial is exactly real, and a
    # quarter of the 2^11 patterns on x^4 engage the endpoint blow-up fit,
    # which must run batched, without a per-row polyfit
    f = fh.poly_fn([0.0, 0.0, 0.0, 0.0, 1.0], 512)
    space = fh.SpaceSpec.lorentz(3, 1)
    made = []

    class Recording(fh.measure._BlockNorms):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def no_polyfit(*args, **kwargs):
        raise AssertionError("per-row polyfit in the sign search")

    monkeypatch.setattr(fh.measure, "_BlockNorms", Recording)
    monkeypatch.setattr(np, "polyfit", no_polyfit)
    est = fh.optdomain_norm(f, space, cells=12)
    assert est.value == pytest.approx(2.6805983362690506, rel=1e-12)
    assert [b.basis.dtype for b in made] == [np.dtype(float)]
    # complex phases combine the same real basis into complex samples
    est4 = fh.optdomain_norm(f, space, cells=6, phases=4)
    assert est4.value == pytest.approx(2.2874183316983183, rel=1e-12)
    assert made[-1].samples.dtype == np.dtype(complex)


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


def test_matched_dual_reuses_a_given_estimate():
    f = fh.poly_fn([0.3, 1, 1, 0, 1], 256)
    est = fh.optdomain_norm(f, LP15, cells=12)
    given = fh.matched_dual(f, LP15, cells=12, estimate=est)
    assert np.array_equal(given.values, fh.matched_dual(f, LP15, cells=12).values)
    with pytest.raises(ValueError):
        fh.matched_dual(f, LP15, cells=10, estimate=est)


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


# ------------------------------------------------------- interval-set arguments

_SET = ivals((-0.6, 0.1), (0.3, 0.8))

# each entry point that takes a set, as a function of the set
SET_READERS = {
    "fht_indicator": lambda A: fh.fht_indicator(A, np.array([-0.9, 0.2, 0.45])),
    "fht_product_indicator": lambda A: fh.fht_product_indicator(fh.poly_fn([0.5, 1.0], 64),
                                                                A).values,
    "vector_measure": lambda A: fh.vector_measure(A, 64).values,
    "scalar_measure": lambda A: fh.scalar_measure(fh.poly_fn([0.5, 1.0], 64), A),
    "semivariation": lambda A: fh.semivariation(fh.const_fn(1.0, 64), A, LP15, cells=4).value,
    "indicator_fn": lambda A: fh.indicator_fn(A, 64).values,
}


@pytest.mark.parametrize("reader", sorted(SET_READERS))
def test_set_arguments_read_one_way(reader):
    # an IntervalSet, one pair and a sequence of pairs name the same set,
    # and () is the empty set
    read = SET_READERS[reader]
    cases = [(ivals((0.0, 0.5)), [(0.0, 0.5), [0.0, 0.5], ((0.0, 0.5),), [(0.0, 0.5)]]),
             (_SET, [((-0.6, 0.1), (0.3, 0.8)), [[-0.6, 0.1], (0.3, 0.8)]]),
             (fh.IntervalSet.empty(), [(), []])]
    for iset, forms in cases:
        want = np.asarray(read(iset))
        for form in forms:
            assert np.array_equal(np.asarray(read(form)), want), form


# ------------------------------------------------------------ sample readers

_COEFFS = [0.3, 1.0, 0.0, -0.5, 0.25]

# each reader of a function cut into cells or read as one series
READERS = {
    "optdomain_norm": lambda f: fh.optdomain_norm(f, LP15, cells=8).value,
    "semivariation": lambda f: fh.semivariation(f, _SET, LP15, cells=8).value,
    "fht_product_indicator": lambda f: fh.fht_product_indicator(f, _SET).values,
    "inversion_residuals-high": lambda f: [
        r["sup_interior"] for r in fh.inversion_residuals(f, LP15).values()],
    "inversion_residuals-low": lambda f: [
        r["sup_interior"] for r in fh.inversion_residuals(f, fh.SpaceSpec.lp(3)).values()],
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_refuse_uniform_samples(reader):
    # the series readers refuse them: a Chebyshev fit would read them as if
    # they sat on Chebyshev nodes.  The cell readers cut their piecewise-linear
    # interpolant, within its O(h^2) distance of the sampled polynomial
    f = fh.from_callable(lambda x: np.polynomial.polynomial.polyval(x, _COEFFS), 64,
                         family="uniform")
    if reader.startswith("inversion_residuals"):
        with pytest.raises(ValueError, match="uniform samples"):
            READERS[reader](f)
        return
    got = np.asarray(READERS[reader](f))
    want = np.asarray(READERS[reader](fh.poly_fn(_COEFFS, 64, family="uniform")))
    assert np.all(np.isfinite(got))
    assert np.abs(got - want).max() <= 1e-3 * np.abs(want).max()


def test_search_refuses_nodes_on_cell_edges():
    # 8 of 24 uniform nodes lie on edges of 16 cells, where T(f chi_cell)
    # diverges; -0.875 = -1 + 3/24 = -1 + 1/8 is the first
    with pytest.raises(fh.SingularEvaluationError, match=r"edge\(s\) \[-0\.875, -0\.625"):
        fh.optdomain_norm(fh.poly_fn([1], 24, family="uniform"), LP15, cells=16)
    # odd Chebyshev grids put a node 6.1e-17 from the edge 0: no exact hit
    est = fh.optdomain_norm(fh.poly_fn([1], 25), LP15, cells=16)
    assert est.value == pytest.approx(6.63, abs=0.005)


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_of_chebyshev_samples_match_the_profile(reader, n):
    f = fh.poly_fn(_COEFFS, n)
    samples = f.with_values(f.values)            # the same samples, no profile
    assert samples.profile is None
    got, want = READERS[reader](samples), READERS[reader](f)
    assert np.abs(np.subtract(got, want)).max() <= 1e-12
