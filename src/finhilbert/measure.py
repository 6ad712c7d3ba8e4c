"""Optimal-domain machinery: the transform as a vector measure.

The set function A -> T(chi_A) is a sigma-additive measure with values in
the ambient space; integrating simple functions against it reproduces
T(s chi_A).  This module provides the induced scalar measures and their
variation, the optimal-domain norm sup_{|h| <= |f|} ||T(h)||, its
semivariation counterpart, the dual (scalarly-integrable) norm estimate,
membership diagnostics, and the order-bound blow-up witness.

Supremum searches run over sign patterns on cell partitions: exhaustive
enumeration (the exact oracle, 2^cells patterns) or greedy single-flip
local search with seeded random restarts.  All randomized pieces are
deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DEFAULT_NODES,
    GridFunction,
    cheb_fit,
    from_profile,
    indicator_fn,
    integrate,
    integrate_interval,
    make_grid,
    pairing,
)
from .intervals import IntervalSet
from .profiles import PiecewiseProfile, PolyProfile
from .spaces import SpaceSpec, norm, norm_info, norms_batch, rearrangement_decay
from .transform import PVConfig, fht_grid, fht_indicator, fht_product_indicator
from .airfoil import rybakov_functional

EXHAUSTIVE = "exhaustive"
GREEDY = "greedy-flip"
RANDOM_RESTART = "random-restart"

MAX_EXHAUSTIVE_CELLS = 20

# bytes of combined samples per block of sign patterns; the norm kernel's
# temporaries add a few times this
BLOCK_BYTES = 1 << 20


# ------------------------------------------------------------- vector measure

def vector_measure(interval_set, n=None):
    """m(A) = T(chi_A) on the standard grid; additive with closed-form values."""
    n = n or DEFAULT_NODES
    if isinstance(interval_set, tuple) and not isinstance(interval_set[0], tuple):
        interval_set = IntervalSet((interval_set,))
    if interval_set.is_empty():
        nodes, weights = make_grid(n)
        return GridFunction(nodes, np.zeros(n, dtype=complex), weights,
                            "chebyshev-gauss", PolyProfile((0.0,)))
    return fht_grid(indicator_fn(interval_set, n))


def scalar_measure(g, interval_set):
    """<m, g>(A) = -int_A T(g) du, the scalar measure induced by g.

    The transform image is integrated over A through its structural profile
    (closed forms for polynomial and log-mix images); for profile-free g the
    subinterval integrals use clipped node cells.
    """
    if isinstance(interval_set, tuple) and not isinstance(interval_set[0], tuple):
        interval_set = IntervalSet((interval_set,))
    img = fht_grid(g)
    total = 0.0 + 0.0j
    for a, b in interval_set:
        total += integrate_interval(img, a, b)
    return -total


def total_variation_scalar(g, levels=(4, 16, 64, 256), interval=(-1.0, 1.0)):
    """Variation of the scalar measure over dyadic partitions, per level.

    Returns a list of (cells, variation); the sequence increases with
    refinement and converges to the true variation |<m, g>|(interval).
    """
    img = fht_grid(g)
    lo, hi = interval
    out = []
    for cells in levels:
        edges = np.linspace(lo, hi, int(cells) + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            total += abs(integrate_interval(img, a, b))
        out.append((int(cells), float(total)))
    return out


def indefinite_integral(f, interval_set, cfg=None):
    """Integral of f over A against the vector measure: equals T(f chi_A)."""
    cfg = cfg or PVConfig()
    return fht_product_indicator(f, interval_set, cfg)


# ----------------------------------------------------- modulation sign search

@dataclass(frozen=True)
class ModulatingFunction:
    """Piecewise-constant multiplier with coefficients in the closed unit disk."""

    edges: tuple
    coefficients: tuple

    def __init__(self, edges, coefficients):
        edges = tuple(float(e) for e in edges)
        coeffs = tuple(complex(c) for c in coefficients)
        if len(edges) != len(coeffs) + 1:
            raise ValueError("need one more edge than coefficients")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("edges must increase")
        if any(abs(c) > 1 + 1e-12 for c in coeffs):
            raise ValueError("coefficients must lie in the closed unit disk")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "coefficients", coeffs)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1,
                      0, len(self.coefficients) - 1)
        return np.asarray(self.coefficients)[idx]


@dataclass(frozen=True)
class OptNormEstimate:
    value: float
    witness: ModulatingFunction
    search: str
    cells: int


def _transform_basis(f, edges):
    """T(f chi_cell) stacked per cell, evaluated on f's own grid.

    Respects a piecewise structure of f itself (its pieces are intersected
    with each cell), so restricted functions keep their exact cuts.
    """
    rows = []
    if isinstance(f.profile, PiecewiseProfile) and f.profile.wpow == 0:
        for a, b in zip(edges[:-1], edges[1:]):
            prof = f.profile.restricted(IntervalSet(((a, b),)))
            rows.append(prof.fht_values(f.nodes))
        return np.array(rows)
    series = _series_for_search(f)
    for a, b in zip(edges[:-1], edges[1:]):
        prof = PiecewiseProfile(((a, b, tuple(series)),))
        rows.append(prof.fht_values(f.nodes))
    return np.array(rows)


def _series_for_search(f):
    if isinstance(f.profile, PolyProfile) and f.profile.wpow == 0:
        return np.asarray(f.profile.coeffs, dtype=complex)
    return cheb_fit(f, degree=min(len(f) - 1, 32)).asarray()


def _block_rows(n):
    """Patterns per block: the combined samples of a block fill BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (16 * max(n, 1)))


def _pattern_norms(patterns, basis, nodes, weights, space):
    """||sum_j s_j basis_j|| for every row s of patterns, a block at a time."""
    step = _block_rows(basis.shape[1])
    out = np.empty(len(patterns))
    for i in range(0, len(patterns), step):
        out[i:i + step] = norms_batch(patterns[i:i + step] @ basis, nodes, weights, space)[0]
    return out


def _exhaustive_best(basis, nodes, weights, space, phases=2):
    """Exact maximum over coefficient patterns from the phases-th roots of
    unity (phases = 2 is the real sign search).  A global phase leaves the
    norm unchanged, so the first cell is pinned to 1.  Patterns run in
    lexicographic order of their digits, a block at a time, and the first
    strict maximum wins."""
    unit = np.exp(2j * np.pi * np.arange(phases) / phases)
    if phases == 2:
        unit = np.array([1.0, -1.0])
    cells = len(basis)
    total = phases ** (cells - 1)
    place = phases ** np.arange(cells - 2, -1, -1)
    step = _block_rows(basis.shape[1])
    best, best_signs = -1.0, None
    for start in range(0, total, step):
        codes = np.arange(start, min(start + step, total))
        patterns = np.ones((len(codes), cells), dtype=unit.dtype)
        patterns[:, 1:] = unit[codes[:, None] // place % phases]
        vals = norms_batch(patterns @ basis, nodes, weights, space)[0]
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_signs = vals[k], patterns[k]
    return best, best_signs


def _greedy_best(basis, nodes, weights, space, restarts, seed):
    """Single-cell sign flips from the all-ones pattern and seeded random
    starts.  All starts advance together: each step norms every flip of
    every start still improving in one batch; a start takes its best flip
    when that gains more than 1e-15 and stops otherwise.  The first start
    with the largest value gives the witness."""
    cells = len(basis)
    rng = np.random.default_rng(seed)
    starts = [np.ones(cells)]
    starts += [rng.choice([-1.0, 1.0], cells) for _ in range(restarts)]
    signs = np.array(starts)
    cur = _pattern_norms(signs, basis, nodes, weights, space)
    flips = 1.0 - 2.0 * np.eye(cells)
    active = np.arange(len(signs))
    while len(active):
        trials = (signs[active, None, :] * flips).reshape(-1, cells)
        gains = _pattern_norms(trials, basis, nodes, weights, space).reshape(-1, cells)
        jbest = np.argmax(gains, axis=1)
        gain = gains[np.arange(len(active)), jbest]
        up = gain > cur[active] + 1e-15
        active, jbest = active[up], jbest[up]
        signs[active, jbest] = -signs[active, jbest]
        cur[active] = gain[up]
    k = int(np.argmax(cur))
    return cur[k], signs[k]


def _search_best(basis, f, space, search, restarts, seed, phases=2):
    if search == EXHAUSTIVE:
        return _exhaustive_best(basis, f.nodes, f.weights, space, phases)
    if search in (GREEDY, RANDOM_RESTART):
        return _greedy_best(basis, f.nodes, f.weights, space, restarts, seed)
    raise ValueError(f"unknown search tag: {search}")


def optdomain_norm(f, space, cells=12, search=EXHAUSTIVE, restarts=32, seed=7,
                   phases=2):
    """Lower bound for sup_{|h| <= |f|} ||T(h)|| over patterns on cells.

    ``exhaustive`` enumerates every coefficient pattern drawn from the
    ``phases``-th roots of unity (default real signs; the exact maximum over
    the searched class, refused above 20 cells).  The heuristics are greedy
    single-cell sign flips from seeded random starts.  The all-ones pattern
    is always admissible, so the estimate dominates ||T(f)||.  Real signs
    need not attain the supremum over complex phases: for 0.3 + x + x^2 on
    6 cells in L^1.5, phases=4 exceeds phases=2 by about 3%; compare the
    two to see the gap.  Patterns are combined and normed a block at a time
    (``spaces.norms_batch``).
    """
    cells = int(cells)
    if cells < 1:
        raise ValueError("cells must be positive")
    if phases < 2:
        raise ValueError("phases must be at least 2")
    if phases != 2 and search != EXHAUSTIVE:
        raise ValueError("complex phases are only searched exhaustively")
    if search == EXHAUSTIVE and phases ** min(cells, 64) > 2 ** MAX_EXHAUSTIVE_CELLS:
        raise ValueError(
            f"exhaustive search above {MAX_EXHAUSTIVE_CELLS} sign-pattern bits "
            "is refused (cost)"
        )
    edges = np.linspace(-1.0, 1.0, cells + 1)
    if not np.any(np.abs(f.values) > 0):
        witness = ModulatingFunction(edges, np.ones(cells))
        return OptNormEstimate(0.0, witness, search, cells)
    basis = _transform_basis(f, edges)
    best, signs = _search_best(basis, f, space, search, restarts, seed, phases)
    witness = ModulatingFunction(edges, signs)
    return OptNormEstimate(float(best), witness, search, cells)


def semivariation(f, interval_set, space, cells=12, search=EXHAUSTIVE,
                  restarts=32, seed=7):
    """sup over modulations supported in A of ||T(s f chi_A)||.

    The candidates are signed sums of the vector-measure values
    T(f chi_{A and cell}), computed here independently of the transform
    basis ``optdomain_norm`` builds for the restriction; the block search and
    the norm kernel are shared with it.
    """
    if isinstance(interval_set, tuple) and not isinstance(interval_set[0], tuple):
        interval_set = IntervalSet((interval_set,))
    if interval_set.is_empty():
        witness = ModulatingFunction((-1.0, 1.0), (1.0,))
        return OptNormEstimate(0.0, witness, search, 1)
    cells = int(cells)
    if search == EXHAUSTIVE and cells > MAX_EXHAUSTIVE_CELLS:
        raise ValueError(
            f"exhaustive search above {MAX_EXHAUSTIVE_CELLS} cells is refused (cost)"
        )
    edges = np.linspace(-1.0, 1.0, cells + 1)
    rows, piece_cells = [], []
    for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        part = interval_set.intersect(IntervalSet(((a, b),)))
        if not part.is_empty():
            rows.append(fht_product_indicator(f, part).values)
            piece_cells.append(j)
    basis = np.array(rows)
    if not rows or not np.any(np.abs(basis) > 0):
        witness = ModulatingFunction(edges, np.ones(cells))
        return OptNormEstimate(0.0, witness, search, cells)
    best, best_signs = _search_best(basis, f, space, search, restarts, seed)
    full_signs = np.ones(cells)
    full_signs[np.asarray(piece_cells, dtype=int)] = best_signs
    witness = ModulatingFunction(edges, full_signs)
    return OptNormEstimate(float(best), witness, search, cells)


# ---------------------------------------------------------------- dual bounds

_image_cache = None


def _cached_image(g):
    """Transform image memo keyed by object identity (weakly referenced)."""
    global _image_cache
    import weakref

    if _image_cache is None:
        _image_cache = weakref.WeakKeyDictionary()
    img = _image_cache.get(g)
    if img is None:
        img = fht_grid(g)
        _image_cache[g] = img
    return img


def weak_norm(f, space, dual_dictionary):
    """Dictionary lower bound for sup_{||g||_X' <= 1} int |f| |T(g)| du."""
    if not dual_dictionary:
        raise ValueError("dual dictionary must be nonempty")
    fabs = np.abs(f.values)
    best = 0.0
    for g in dual_dictionary:
        img = _cached_image(g)
        best = max(best, float(f.weights @ (fabs * np.abs(img.values))))
    return best


def dual_dictionary(space, size=64, n=None, seed=0):
    """Unit ball members of the associate space L^{p'}: normalized Chebyshev
    polynomials, scaled indicators, and the Rybakov functional."""
    n = n or DEFAULT_NODES
    dual_space = SpaceSpec.lp(space.associate_exponent())
    out = []

    def normalized(g):
        nv = norm(g, dual_space)
        if np.isfinite(nv) and nv > 1e-12:
            out.append(g * (1.0 / nv))

    for k in range(min(16, size)):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        normalized(from_profile(PolyProfile(coeffs), n))
    normalized(rybakov_functional(n))
    rng = np.random.default_rng(seed)
    while len(out) < size:
        a, b = np.sort(rng.uniform(-1.0, 1.0, 2))
        if b - a < 1e-3:
            continue
        normalized(indicator_fn(IntervalSet(((float(a), float(b)),)), n))
    return tuple(out)


def matched_dual(f, space, cells=12):
    """Norming function of T(h*) for the best sign-pattern witness h* of f.

    Adding it to a dual dictionary guarantees the scalar-measure estimate
    dominates the sign-search estimate, up to transform quadrature error.
    """
    est = optdomain_norm(f, space, cells=cells, search=EXHAUSTIVE)
    edges = np.linspace(-1.0, 1.0, est.cells + 1)
    basis = _transform_basis(f, edges)
    img_vals = np.asarray(est.witness.coefficients) @ basis
    dual_vals = np.abs(img_vals) ** (space.p - 1) * np.sign(img_vals.real)
    g = f.with_values(dual_vals.astype(complex), None)
    nv = norm(g, SpaceSpec.lp(space.associate_exponent()))
    return g * (1.0 / nv)


# ------------------------------------------------------------------ membership

@dataclass(frozen=True)
class MembershipReport:
    in_l1: bool
    indicator_checks: tuple      # ((interval_set, norm_value, finite), ...)
    dual_checks: tuple           # ((label, integral_value, finite), ...)
    verdict: str                 # member | non-member | inconclusive
    flags: tuple = field(default_factory=tuple)


def membership_report(f, space, samples=12, seed=0, n_duals=8):
    """Spot-check the optimal-domain membership criteria for f.

    Samples random interval unions A and tests norm-finiteness of T(f chi_A),
    plus integrability of f T(g) against dictionary duals.  The verdict is
    "member" only when every sampled check is finite.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    flags = []
    info_l1 = norm_info(f, SpaceSpec.lp(1.000001))
    in_l1 = not info_l1.divergent
    if info_l1.resolution_limited:
        flags.append("L1 norm is resolution limited")

    rng = np.random.default_rng(seed)
    indicator_checks = []
    all_finite = in_l1
    for _ in range(samples):
        A = random_interval_set(rng)
        img = fht_product_indicator(f, A)
        ninfo = norm_info(img, space)
        finite = not ninfo.divergent and np.isfinite(ninfo.value)
        indicator_checks.append((A, ninfo.value, finite))
        all_finite &= finite

    duals = dual_dictionary(space, size=n_duals, n=len(f), seed=seed)[:n_duals]
    dual_checks = []
    for i, g in enumerate(duals):
        img = fht_grid(g)
        prod = f.with_values(np.abs(f.values * img.values))
        ninfo = norm_info(prod, SpaceSpec.lp(1.000001))
        finite = not ninfo.divergent
        dual_checks.append((f"dual[{i}]", float(np.real(integrate(prod))), finite))
        all_finite &= finite

    if all_finite:
        verdict = "member"
    elif not in_l1:
        verdict = "non-member"
    else:
        verdict = "inconclusive"
        flags.append("some sampled checks diverged at this resolution")
    return MembershipReport(in_l1, tuple(indicator_checks), tuple(dual_checks),
                            verdict, tuple(flags))


def random_interval_set(rng, max_intervals=8, lattice=400):
    """Seeded random union of up to 8 disjoint intervals on a fixed lattice."""
    k = int(rng.integers(1, max_intervals + 1))
    cuts = np.sort(rng.choice(np.arange(1, lattice), size=2 * k, replace=False))
    pts = -1.0 + 2.0 * cuts / lattice
    return IntervalSet(tuple((pts[2 * i], pts[2 * i + 1]) for i in range(k)))


# ----------------------------------------------------------- further checks

def parseval_defect(f, g):
    """| <f, T(g)> + <g, T(f)> |; zero by the antisymmetry of the transform."""
    return abs(pairing(f, fht_grid(g)) + pairing(g, fht_grid(f)))


def blowup_witness(t, bound):
    """Interval U around t on which |T(chi_(t,1))| exceeds 2*bound, plus a
    sample point achieving it.

    Inverting (1/pi) ln|(1-x)/(t-x)| > 2M gives the radius
    (1-t)/(1 + exp(2 pi M)); the returned sample sits at half that distance
    on the right of t.
    """
    if not -1.0 < t < 1.0:
        raise ValueError("t must lie in (-1, 1)")
    if bound <= 0:
        raise ValueError("the bound must be positive")
    radius = (1.0 - t) / (1.0 + np.exp(2.0 * np.pi * bound))
    lo, hi = max(-1.0, t - radius), min(1.0, t + radius)
    x = t + radius / 2.0
    attained = abs(fht_indicator(IntervalSet(((t, 1.0),)), x))
    return (lo, hi), x, float(attained)


def lp_membership(f, p_list):
    """L^p norms with divergence flags for each requested exponent.

    f belongs to the intersection of the listed Lebesgue spaces exactly when
    every reported norm is finite.
    """
    if not p_list:
        raise ValueError("p_list must be nonempty")
    out = {}
    for p in p_list:
        if not p > 1:
            raise ValueError("exponents must exceed 1")
        info = norm_info(f, SpaceSpec.lp(p))
        out[float(p)] = info
    return out


def invw_membership_evidence(samples=6, seed=3, n=None):
    """Heuristic evidence (never a verdict) on the open endpoint question of
    whether 1/w integrates against the weak-L^2 vector measure: rearrangement
    decay of T(chi_A / w) for sampled A."""
    n = n or DEFAULT_NODES
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(samples):
        A = random_interval_set(rng)
        prof = PiecewiseProfile(tuple((a, b, (1.0,)) for a, b in A), wpow=-1)
        img_vals = prof.fht_values(make_grid(n)[0])
        nodes, weights = make_grid(n)
        img = GridFunction(nodes, img_vals, weights)
        est = rearrangement_decay(img, 2.0)
        rows.append({"measure": A.measure(), "decay": est.value, "resolved": est.resolved})
    return {"label": "heuristic evidence", "rows": rows}
