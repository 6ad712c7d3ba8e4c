"""Optimal-domain machinery: the transform as a vector measure.

The set function A -> T(chi_A) is a sigma-additive measure with values in
the ambient space; integrating simple functions against it reproduces
T(s chi_A).  This module provides the induced scalar measures and their
variation, the optimal-domain norm sup_{|h| <= |f|} ||T(h)||, its
semivariation counterpart, the dual (scalarly-integrable) norm estimate,
and the order-bound blow-up witness.

Supremum searches run over sign patterns on cell partitions: exhaustive
enumeration (the exact oracle, 2^cells patterns) or greedy single-flip
local search with seeded random restarts.  All randomized pieces are
deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    DEFAULT_NODES,
    GridFunction,
    cell_structure,
    from_profile,
    indicator_fn,
    integrate_interval,
    make_grid,
    pairing,
)
from .intervals import IntervalSet, as_interval_set
from .profiles import Profile
from .spaces import NormWorkspace, SpaceSpec, norm, norms_batch
from .transform import SingularEvaluationError, fht_grid, fht_indicator, fht_product_indicator
from .airfoil import rybakov_functional

EXHAUSTIVE = "exhaustive"
GREEDY = "greedy-flip"

MAX_EXHAUSTIVE_CELLS = 20

# bytes of combined samples per block of sign patterns; the norm kernel's
# workspace adds about 2.6 times this, allocated once per search
BLOCK_BYTES = 1 << 20


# ------------------------------------------------------------- vector measure

def vector_measure(interval_set, n=None):
    """m(A) = T(chi_A) on the standard grid; additive with closed-form values."""
    n = n or DEFAULT_NODES
    interval_set = as_interval_set(interval_set)
    if interval_set.is_empty():
        nodes, weights = make_grid(n)
        return GridFunction(nodes, np.zeros(n, dtype=complex), weights,
                            "chebyshev-gauss", Profile.poly((0.0,)))
    return fht_grid(indicator_fn(interval_set, n))


def scalar_measure(g, interval_set):
    """<m, g>(A) = -int_A T(g) du, the scalar measure induced by g.

    The transform image is integrated over A through its structural profile
    (closed forms for polynomial and log-mix images); for profile-free g the
    subinterval integrals use clipped node cells.
    """
    interval_set = as_interval_set(interval_set)
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


def indefinite_integral(f, interval_set):
    """Integral of f over A against the vector measure: equals T(f chi_A)."""
    return fht_product_indicator(f, interval_set)


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

    :func:`grid.cell_structure` of f is restricted to each cell, so
    piecewise inputs keep their exact cuts; a structure with log terms is
    read as the full-degree interpolant of its samples.  A node exactly on
    an inner cell edge raises :class:`SingularEvaluationError`.
    """
    if len(hit := np.intersect1d(edges[1:-1], f.nodes)):
        raise SingularEvaluationError(f"nodes on search cell edge(s) {hit.tolist()}")
    prof = cell_structure(f)
    return np.array([prof.restricted(IntervalSet(((a, b),))).fht_values(f.nodes)
                     for a, b in zip(edges[:-1], edges[1:])])


def _block_rows(n):
    """Patterns per block: the combined samples of a block fill BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (16 * max(n, 1)))


class _BlockNorms:
    """||sum_j s_j basis_j|| for rows s of sign patterns, in blocks of up to
    ``rows`` patterns.  The combined samples and the norm kernel's workspace
    are allocated once, when a search starts, and reused by every block.
    A basis whose imaginary part is exactly zero is kept real, so real sign
    patterns combine by a real product; the samples take the type of
    patterns times basis."""

    def __init__(self, rows, basis, nodes, weights, space):
        if not np.any(np.imag(basis)):
            basis = np.ascontiguousarray(np.real(basis))
        self.rows, self.basis = rows, basis
        self.nodes, self.weights, self.space = nodes, weights, space
        self.samples = np.empty((rows, basis.shape[1]), dtype=basis.dtype)
        self.work = NormWorkspace(rows, basis.shape[1])

    def __call__(self, patterns):
        dtype = np.result_type(patterns, self.basis)
        if self.samples.dtype != dtype:
            self.samples = np.empty(self.samples.shape, dtype=dtype)
        out = np.empty(len(patterns))
        for i in range(0, len(patterns), self.rows):
            block = patterns[i:i + self.rows]
            combined = np.matmul(block, self.basis, out=self.samples[:len(block)])
            out[i:i + len(block)] = norms_batch(combined, self.nodes, self.weights,
                                                self.space, self.work)[0]
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
    pattern_norms = _BlockNorms(min(step, total), basis, nodes, weights, space)
    best, best_signs = -1.0, None
    for start in range(0, total, step):
        codes = np.arange(start, min(start + step, total))
        patterns = np.ones((len(codes), cells), dtype=unit.dtype)
        patterns[:, 1:] = unit[codes[:, None] // place % phases]
        vals = pattern_norms(patterns)
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
    rows = min(_block_rows(basis.shape[1]), len(signs) * cells)
    pattern_norms = _BlockNorms(rows, basis, nodes, weights, space)
    cur = pattern_norms(signs)
    flips = 1.0 - 2.0 * np.eye(cells)
    active = np.arange(len(signs))
    while len(active):
        trials = (signs[active, None, :] * flips).reshape(-1, cells)
        gains = pattern_norms(trials).reshape(-1, cells)
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
    if search == GREEDY:
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
    interval_set = as_interval_set(interval_set)
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
        normalized(from_profile(Profile.poly(coeffs), n))
    normalized(rybakov_functional(n))
    rng = np.random.default_rng(seed)
    while len(out) < size:
        a, b = np.sort(rng.uniform(-1.0, 1.0, 2))
        if b - a < 1e-3:
            continue
        normalized(indicator_fn(IntervalSet(((float(a), float(b)),)), n))
    return tuple(out)


def matched_dual(f, space, cells=12, estimate=None):
    """Norming function of T(h*) for the best sign-pattern witness h* of f.

    Adding it to a dual dictionary guarantees the scalar-measure estimate
    dominates the sign-search estimate, up to transform quadrature error.
    ``estimate`` is the exhaustive ``optdomain_norm(f, space, cells)`` when
    the caller already has it; otherwise it is computed here.
    """
    est = estimate
    if est is None:
        est = optdomain_norm(f, space, cells=cells, search=EXHAUSTIVE)
    elif est.cells != int(cells):
        raise ValueError("the estimate was searched on a different number of cells")
    edges = np.linspace(-1.0, 1.0, est.cells + 1)
    basis = _transform_basis(f, edges)
    img_vals = np.asarray(est.witness.coefficients) @ basis
    dual_vals = np.abs(img_vals) ** (space.p - 1) * np.sign(img_vals.real)
    g = f.with_values(dual_vals.astype(complex), None)
    nv = norm(g, SpaceSpec.lp(space.associate_exponent()))
    return g * (1.0 / nv)


# ------------------------------------------------------------ random sets

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
