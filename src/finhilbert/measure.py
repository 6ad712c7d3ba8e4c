"""Optimal-domain machinery: the transform as a vector measure.

The set function A -> T(chi_A) is a sigma-additive measure with values in
the ambient space; integrating simple functions against it reproduces
T(s chi_A).  This module provides the induced scalar measures and their
variation, the optimal-domain norm sup_{|h| <= |f|} ||T(h)||, its
semivariation counterpart, the dual (scalarly-integrable) norm estimate,
and the order-bound blow-up witness.

Supremum searches run over sign patterns on cell partitions: exhaustive
enumeration (the exact oracle, 2^(live-1) patterns, where the live cells
are those on which f does not vanish) or greedy single-flip local search
with seeded random restarts.  A cell where f vanishes cannot change a
value, so neither search varies its sign, and the greedy search norms
each distinct pattern once (a pattern and its negation are one).  The
values T(f chi_B) that patterns combine are computed for all parts B in one
call, by stacked profile transforms, behind the jump guard of
:func:`transform.fht_grid`: a node within 1e-12 of a cell edge where f
jumps raises.  All randomized pieces are
deterministic given the seed.

Patterns are normed a block at a time by the value kernel
``spaces._norm_values``, without the blow-up diagnosis of
``spaces.norm_info``.  A pattern's samples are a signed sum of
T(f chi_cell), and the cell structure of f is bounded or made of w^{-1}
pieces, so the sum's only singularities are logarithms at the cell edges,
which are finite in every space here (a w^{-1} piece reaching +-1 stays
bounded: T(chi_(0.5,1)/w) is 0.5513 at x = 0.9999997).  A power-law fit
could only misread such a logarithm as divergent, so a search value is
always finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    DEFAULT_NODES,
    cell_structure,
    from_profile,
    indicator_fn,
    integrate_interval,
    pairing,
)
from .intervals import IntervalSet, as_interval_set
from .profiles import Profile, fht_values_stacked
from .spaces import LP, NormWorkspace, SpaceSpec, _norm_values, norm
from .transform import (
    _guard_cuts,
    fht_grid,
    fht_indicator,
    fht_product_indicator,
)
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


def total_variation_scalar(g, levels=(4, 16, 64, 256)):
    """Variation of the scalar measure over dyadic partitions, per level.

    Returns a list of (cells, variation); the sequence increases with
    refinement and converges to the true variation |<m, g>|(-1, 1).
    """
    img = fht_grid(g)
    out = []
    for cells in levels:
        edges = np.linspace(-1.0, 1.0, int(cells) + 1)
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


def _cells(cells):
    """Edges of ``cells`` equal cells of (-1, 1), and the cells as parts."""
    edges = np.linspace(-1.0, 1.0, cells + 1)
    return edges, [IntervalSet(((a, b),)) for a, b in zip(edges[:-1], edges[1:])]


def _part_transforms(f, parts):
    """T(f chi_B) on f's nodes for each of the disjoint ``parts`` B, one row
    each, with the bits of ``fht_product_indicator(f, B).values``.

    :func:`grid.cell_structure` of f is cut at every part (a structure with
    log terms is read as the interpolant of its samples), and the cuts are
    transformed together (:func:`profiles.fht_values_stacked`); no
    restricted grid function or image profile is built.  A part that
    misses f gives exact zeros.  A node within 1e-12 of a jump of a cut
    raises :class:`SingularEvaluationError`, as in
    :func:`transform.fht_grid`; a part end where f vanishes is no jump.
    """
    prof = cell_structure(f)
    cuts = [prof.restricted(part) for part in parts]
    for cut in cuts:
        _guard_cuts(cut, f.nodes)
    return fht_values_stacked(cuts, f.nodes)


def _block_rows(n):
    """Patterns per block: the combined samples of a block fill BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (16 * max(n, 1)))


class _BlockNorms:
    """||sum_j s_j basis_j|| for rows s of sign patterns, in blocks of up to
    ``rows`` patterns, by the value kernel with no blow-up diagnosis (see
    the module docstring).  The combined samples and the kernel's workspace
    are allocated once, when a search starts, and reused by every block.
    A basis whose imaginary part is exactly zero is kept real, so real sign
    patterns combine by a real product; the samples take the type of
    patterns times basis.  A block of one pattern is combined as two equal
    rows and normed as one: numpy takes a one-row product as a
    matrix-vector product, whose sums run in another order.  So a sign
    pattern's samples, like its norm, do not depend on the block it lands
    in."""

    def __init__(self, rows, basis, weights, space):
        if not np.any(np.imag(basis)):
            basis = np.ascontiguousarray(np.real(basis))
        rows = max(rows, 2)
        self.rows, self.basis = rows, basis
        self.weights, self.space = weights, space
        self.samples = np.empty((rows, basis.shape[1]), dtype=basis.dtype)
        self.work = NormWorkspace(rows, basis.shape[1])

    def __call__(self, patterns):
        dtype = np.result_type(patterns, self.basis)
        if self.samples.dtype != dtype:
            self.samples = np.empty(self.samples.shape, dtype=dtype)
        out = np.empty(len(patterns))
        for i in range(0, len(patterns), self.rows):
            block = patterns[i:i + self.rows]
            count = len(block)
            if count == 1:
                block = np.repeat(block, 2, axis=0)
            combined = np.matmul(block, self.basis, out=self.samples[:len(block)])
            out[i:i + count] = _norm_values(combined[:count], self.weights, self.space,
                                            self.work)
        return out


class _PatternMemo:
    """The norms of :class:`_BlockNorms` with each distinct pattern normed
    once, for the life of one search.

    A pattern's key is its signs on the ``live`` cells times its first live
    sign: a dead cell's row is exactly zero, and -v has the magnitudes of v
    bit for bit, so neither changes a norm.  The keys are packed sign bits,
    kept sorted with their norms; a call finds the distinct keys of its
    patterns, looks them up by binary search, and passes only the unseen
    ones (the first pattern of each) to the block norms.
    """

    def __init__(self, norms, live):
        self.norms, self.live = norms, live
        self.keys = np.empty(0, dtype=np.dtype((np.void, (len(live) + 7) // 8)))
        self.values = np.empty(0)

    def __call__(self, patterns):
        signs = patterns[:, self.live]
        bits = np.ascontiguousarray(np.packbits(signs * signs[:, :1] < 0, axis=1))
        keys = bits.view(np.dtype((np.void, bits.shape[1])))[:, 0]
        distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        at = np.searchsorted(self.keys, distinct)
        seen = at < len(self.keys)
        seen[seen] = self.keys[at[seen]] == distinct[seen]
        values = np.empty(len(distinct))
        values[seen] = self.values[at[seen]]
        fresh = ~seen
        values[fresh] = self.norms(patterns[first[fresh]])
        self.keys = np.insert(self.keys, at[fresh], distinct[fresh])
        self.values = np.insert(self.values, at[fresh], values[fresh])
        return values[inverse.ravel()]


def _exhaustive_best(basis, weights, space, phases=2):
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
    pattern_norms = _BlockNorms(min(step, total), basis, weights, space)
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


def _greedy_best(basis, live, weights, space, restarts, seed):
    """Single-cell sign flips from the all-ones pattern and seeded random
    starts, flipping only the ``live`` cells of ``basis``; a dead cell keeps
    its start's sign.  All starts advance together: each step norms every
    flip of every start still improving in one batch; a start takes its best
    flip when that gains more than 1e-15 and stops otherwise.  The first
    start with the largest value gives the witness.  Each distinct pattern
    is normed once (:class:`_PatternMemo`)."""
    cells = len(basis)
    rng = np.random.default_rng(seed)
    starts = [np.ones(cells)]
    starts += [rng.choice([-1.0, 1.0], cells) for _ in range(restarts)]
    signs = np.array(starts)
    rows = min(_block_rows(basis.shape[1]), len(signs) * len(live))
    pattern_norms = _PatternMemo(_BlockNorms(rows, basis, weights, space), live)
    cur = pattern_norms(signs)
    flips = (1.0 - 2.0 * np.eye(cells))[live]
    active = np.arange(len(signs))
    while len(active):
        trials = (signs[active, None, :] * flips).reshape(-1, cells)
        gains = pattern_norms(trials).reshape(-1, len(live))
        jbest = np.argmax(gains, axis=1)
        gain = gains[np.arange(len(active)), jbest]
        up = gain > cur[active] + 1e-15
        active, jbest = active[up], live[jbest[up]]
        signs[active, jbest] = -signs[active, jbest]
        cur[active] = gain[up]
    k = int(np.argmax(cur))
    return cur[k], signs[k]


def _search_best(basis, f, space, search, restarts, seed, phases=2):
    """Best pattern of the rows of ``basis``, searched over its live cells
    only: the rows that are not exactly zero.  A dead cell adds exact zeros
    to every combination, so its sign cannot change a value.  The exhaustive
    search enumerates the live cells alone and gives a dead cell +1; the
    greedy search draws its seeded starts on every cell, so the stream does
    not depend on which cells are live, and flips only live ones.  With no
    live cell the value is 0 and every sign +1."""
    live = np.flatnonzero(np.any(basis != 0, axis=1))
    if not len(live):
        return 0.0, np.ones(len(basis))
    if search == GREEDY:
        return _greedy_best(basis, live, f.weights, space, restarts, seed)
    best, live_signs = _exhaustive_best(basis[live], f.weights, space, phases)
    signs = np.ones(len(basis), dtype=live_signs.dtype)
    signs[live] = live_signs
    return best, signs


def _check_search(cells, search, restarts, phases=2):
    """The number of cells, after the argument checks both searches share."""
    if search not in (EXHAUSTIVE, GREEDY):
        raise ValueError(f"unknown search tag: {search}")
    cells = int(cells)
    if cells < 1:
        raise ValueError("cells must be positive")
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")
    if phases < 2:
        raise ValueError("phases must be at least 2")
    if phases != 2 and search != EXHAUSTIVE:
        raise ValueError("complex phases are only searched exhaustively")
    if search == EXHAUSTIVE and phases ** min(cells, 64) > 2 ** MAX_EXHAUSTIVE_CELLS:
        raise ValueError(
            f"exhaustive search above {MAX_EXHAUSTIVE_CELLS} sign-pattern bits "
            "is refused (cost)"
        )
    return cells


def optdomain_norm(f, space, cells=12, search=EXHAUSTIVE, restarts=32, seed=7,
                   phases=2):
    """Lower bound for sup_{|h| <= |f|} ||T(h)|| over patterns on cells.

    ``exhaustive`` enumerates every coefficient pattern drawn from the
    ``phases``-th roots of unity (default real signs; the exact maximum over
    the searched class, refused above 20 requested cells).  The heuristics
    are greedy single-cell sign flips from seeded random starts.  Both search
    only the live cells, those where T(f chi_cell) is not exactly zero (f
    vanishes on the others, and their signs cannot change a value): the
    exhaustive search pins the first live cell, norms phases^(live-1)
    patterns and gives a dead cell +1; the greedy search flips live cells
    only, a dead cell keeps its start's sign, and each distinct pattern is
    normed once.  ``cells`` must be positive and ``restarts`` nonnegative.
    The all-ones pattern
    is always admissible, so the estimate dominates ||T(f)||.  Real signs
    need not attain the supremum over complex phases: for 0.3 + x + x^2 on
    6 cells in L^1.5, phases=4 exceeds phases=2 by about 3%; compare the
    two to see the gap.  Patterns are combined and normed a block at a time
    by the value kernel ``spaces._norm_values``, with no blow-up
    diagnosis, so the value is always finite.

    The cell values T(f chi_cell) pass the jump guard of
    :func:`transform.fht_grid`, as in ``semivariation``: a node within
    1e-12 of a cell edge where f jumps raises
    :class:`SingularEvaluationError`.  So does an odd number of Chebyshev
    nodes with an even number of cells when f(0) != 0: the middle node,
    6.1e-17, lies on the edge 0, where the value would be inflated by the
    log of that distance.  An edge on a node where f vanishes is no jump.
    """
    cells = _check_search(cells, search, restarts, phases)
    edges, parts = _cells(cells)
    basis = _part_transforms(f, parts)
    best, signs = _search_best(basis, f, space, search, restarts, seed, phases)
    witness = ModulatingFunction(edges, signs)
    return OptNormEstimate(float(best), witness, search, cells)


def semivariation(f, interval_set, space, cells=12, search=EXHAUSTIVE,
                  restarts=32, seed=7):
    """sup over modulations supported in A of ||T(s f chi_A)||.

    The candidates are signed sums of the vector-measure values
    T(f chi_{A and cell}), assembled here from the parts A and cell of f's
    cell structure (in one call, :func:`_part_transforms`), independently
    of the transform basis ``optdomain_norm`` builds for the restriction,
    so the two remain two routes; the block search and the norm kernel are
    shared with it.  A node within 1e-12 of a jump of f chi_{A and cell}
    raises :class:`SingularEvaluationError`, as ``fht_product_indicator``
    and ``optdomain_norm`` do.  A cell that misses A, or on which f
    vanishes, has an exactly zero value and is dead, as in
    ``optdomain_norm``: an exhaustive search norms 2^(live-1) patterns, and
    a greedy one draws its random starts on all cells, keeps their signs on
    dead cells and norms each distinct pattern once.  The arguments are checked as ``optdomain_norm`` checks
    them, an empty A included, which gives 0 and all signs +1.
    """
    cells = _check_search(cells, search, restarts)
    interval_set = as_interval_set(interval_set)
    edges, cell_sets = _cells(cells)
    basis = _part_transforms(f, [interval_set.intersect(cell) for cell in cell_sets])
    best, signs = _search_best(basis, f, space, search, restarts, seed)
    witness = ModulatingFunction(edges, signs)
    return OptNormEstimate(float(best), witness, search, cells)


# ---------------------------------------------------------------- dual bounds

def weak_norm(f, space, dual_dictionary):
    """Dictionary lower bound for sup_{||g||_X' <= 1} int |f| |T(g)| du."""
    if not dual_dictionary:
        raise ValueError("dual dictionary must be nonempty")
    fabs = np.abs(f.values)
    best = 0.0
    for g in dual_dictionary:
        best = max(best, float(f.weights @ (fabs * np.abs(fht_grid(g).values))))
    return best


def _require_lp(space):
    """Refuse a space other than L^p, whose associate L^{p'} norms the duals."""
    if space.kind != LP:
        raise ValueError(f"the dual dictionary is normed in L^p' and needs an Lp space, "
                         f"not {space.label()}")


def dual_dictionary(space, size=64, n=None, seed=0):
    """``size`` unit ball members of L^{p'} for an L^p ``space``: the normalized
    T_k for k < min(16, size - 1), the Rybakov functional, then seeded random
    indicators.  Another space, or a ``size`` below 1, raises ValueError."""
    _require_lp(space)
    if size < 1:
        raise ValueError("the dual dictionary needs at least one member")
    n = n or DEFAULT_NODES
    dual_space = SpaceSpec.lp(space.associate_exponent())
    out = []

    def normalized(g):
        nv = norm(g, dual_space)
        if np.isfinite(nv) and nv > 1e-12:
            out.append(g * (1.0 / nv))

    for k in range(min(16, size - 1)):
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
    The cell values are those of ``optdomain_norm``, with its jump guard.
    ``estimate`` is the exhaustive ``optdomain_norm(f, space, cells)`` when
    the caller already has it; otherwise it is computed here.  Another
    space than L^p raises ValueError, as in :func:`dual_dictionary`.
    """
    _require_lp(space)
    est = estimate
    if est is None:
        est = optdomain_norm(f, space, cells=cells, search=EXHAUSTIVE)
    elif est.cells != int(cells):
        raise ValueError("the estimate was searched on a different number of cells")
    basis = _part_transforms(f, _cells(est.cells)[1])
    img_vals = np.asarray(est.witness.coefficients) @ basis
    dual_vals = np.abs(img_vals) ** (space.p - 1) * np.sign(img_vals.real)
    g = f.with_values(dual_vals.astype(complex), None)
    nv = norm(g, SpaceSpec.lp(space.associate_exponent()))
    return g * (1.0 / nv)


# ------------------------------------------------------------ random sets

def random_interval_set(rng):
    """Seeded random union of up to 8 disjoint intervals with ends on the
    lattice -1 + j/200."""
    k = int(rng.integers(1, 9))
    cuts = np.sort(rng.choice(np.arange(1, 400), size=2 * k, replace=False))
    pts = -1.0 + cuts / 200.0
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
    on the right of t.  The sample is evaluated by ``fht_indicator``, which
    refuses a point within 1e-12 of the jump at t: a bound whose sample
    falls that close (M above about 4.3 at t = 0) raises
    :class:`SingularEvaluationError`.
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
