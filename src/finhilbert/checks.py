"""Verification suite: every identity the library claims, checked at desk scale.

Each check produces rows ``{check_id, claim, computed, expected, tolerance,
pass}``; a check may emit several rows (sub-checks carry ``id/subname``).
Suites group the checks: ``identities`` (kernel, closed forms, inversion,
Parseval, Tricomi), ``measure`` (vector-measure machinery) and ``norms``
(rearrangement / Boyd).  Everything is deterministic for a fixed
(nodes, seed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .airfoil import (
    kernel_projection,
    range_defect,
    right_inverse,
    rybakov_functional,
    semicircle_weight,
)
from .grid import const_fn, from_profile, inv_weight_fn, poly_fn, restrict
from .intervals import IntervalSet
from .measure import (
    blowup_witness,
    dual_dictionary,
    matched_dual,
    optdomain_norm,
    parseval_defect,
    random_interval_set,
    scalar_measure,
    semivariation,
    total_variation_scalar,
    vector_measure,
    weak_norm,
)
from .profiles import Profile
from .spaces import (
    SpaceSpec,
    boyd_estimate,
    norm,
    rearrangement,
    rearrangement_decay,
)
from .transform import fht_grid, fht_indicator, fht_over_w_point, pv_oracle


@dataclass(frozen=True)
class RunConfig:
    nodes: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 16:
            raise ValueError("nodes must be at least 16")


def row(check_id, claim, computed, expected, tolerance):
    """Row asserting |computed - expected| <= tolerance."""
    return {
        "check_id": check_id,
        "claim": claim,
        "computed": float(computed),
        "expected": float(expected),
        "tolerance": float(tolerance),
        "pass": bool(abs(computed - expected) <= tolerance),
    }


def _bound_row(check_id, claim, computed, bound):
    """Row asserting computed <= bound (expected field carries the bound)."""
    return {
        "check_id": check_id,
        "claim": claim,
        "computed": float(computed),
        "expected": 0.0,
        "tolerance": float(bound),
        "pass": bool(computed <= bound),
    }


POLY_TEST_SET = ([1], [0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1],
                 [1, -0.5, 0, 2], [0.3, 1, 1, 0, 1], [0.5, 0, -1, 0, 0, 1],
                 [2, 1], [-1, 0, 3, 0, 1])


# --------------------------------------------------------------------- checks

def check_kernel(cfg):
    """sup over |t| <= 0.9 of |T(1/w)(t)| at the configured node count."""
    t0 = time.perf_counter()
    tol = 1e-6
    f = inv_weight_fn(cfg.nodes)
    img = fht_grid(f)
    mask = np.abs(img.nodes) <= 0.9
    sup_spec = float(np.abs(img.values[mask]).max())
    rows = [_bound_row("kernel/spectral", "T(1/w) = 0 on (-1,1): spectral route",
                       sup_spec, tol)]
    probe = img.nodes[mask][:: max(1, mask.sum() // 32)]
    sup_orc = float(np.abs(pv_oracle(lambda x: 1.0 / np.sqrt(1.0 - x * x), probe)).max())
    rows.append(_bound_row("kernel/oracle",
                           "T(1/w) = 0 on (-1,1): symmetric-exclusion oracle",
                           sup_orc, tol))
    elapsed = time.perf_counter() - t0
    rows.append(_runtime_row("kernel/runtime", "kernel check runs in under 5 s",
                             elapsed, 5.0))
    return rows


def _runtime_row(check_id, claim, elapsed, budget):
    # binarized so reports stay byte-identical across runs
    return row(check_id, claim, 1.0 if elapsed <= budget else 0.0, 1.0, 0.5)


def check_indicator_closed_form(cfg):
    """Closed form (1/pi) ln|(1-x)/(t-x)| against PV quadrature at random (t,x)."""
    tol = 1e-8
    rng = np.random.default_rng(cfg.seed + 1)
    ts, xs, closed = [], [], []
    while len(ts) < 100:
        t, x = rng.uniform(-0.95, 0.95, 2)
        if abs(t - x) < 0.05 or min(1 - t, 1 - x, x + 1) < 0.05:
            continue
        value = fht_indicator(IntervalSet(((t, 1.0),)), float(x)).real
        if abs(value) < 1e-3:        # relative error ill-posed on the zero curve
            continue
        ts.append(t)
        xs.append(x)
        closed.append(value)
    ts, closed = np.array(ts), np.array(closed)
    # one oracle call: row i of the integrand's nodes belongs to the pair (t_i, x_i)
    oracle = pv_oracle(lambda y: (y > ts[:, None]).astype(float), np.array(xs),
                       singular=ts[:, None])
    worst = float(np.max(np.abs(closed - oracle) / np.abs(closed)))
    return [_bound_row("indicator-closed-form",
                       "T(chi_(t,1))(x) = (1/pi) ln|(1-x)/(t-x)|, relative error "
                       "over 100 random pairs", worst, tol)]


def check_right_inverse(cfg):
    """T(rightinverse(f)) = f on Lp(1.5) for f in {1, x, x^2, x^3, x^4}."""
    tol = 1e-5
    pts = np.linspace(-0.9, 0.9, 61)
    worst = 0.0
    for coeffs in POLY_TEST_SET[:5]:
        f = poly_fn(coeffs, cfg.nodes)
        rinv = right_inverse(f)
        q = rinv.profile.series(-1)
        outer = fht_over_w_point(lambda x: _cheb.chebval(x, q), pts)
        worst = max(worst, float(np.abs(outer - f.eval_at(pts)).max()))
    return [_bound_row("right-inverse",
                       "surjectivity: T(-T(f w)/w) = f in the high-index regime",
                       worst, tol)]


def check_left_inverse(cfg):
    """leftinverse(T(f)) = f on Lp(3) for the same polynomial set."""
    tol = 1e-5
    pts = np.linspace(-0.9, 0.9, 61)
    worst = 0.0
    for coeffs in POLY_TEST_SET[:5]:
        f = poly_fn(coeffs, cfg.nodes)
        outer = -semicircle_weight(pts) * fht_over_w_point(fht_grid(f).eval_at, pts,
                                                           grade_endpoints=True)
        worst = max(worst, float(np.abs(outer - f.eval_at(pts)).max()))
    return [_bound_row("left-inverse",
                       "injectivity: -w T(T(f)/w) = f in the low-index regime",
                       worst, tol)]


def check_projection(cfg):
    """rightinverse(T(f)) = f - P(f) with P the rank-one kernel projection."""
    tol = 1e-5
    pts = np.linspace(-0.9, 0.9, 61)
    rows = []
    for name, coeffs in (("const", [1]), ("x^2", [0, 0, 1])):
        f = poly_fn(coeffs, cfg.nodes)
        img = fht_grid(f)
        outer = -fht_over_w_point(lambda x: img.eval_at(x) * (1.0 - x * x), pts,
                                  grade_endpoints=True) / semicircle_weight(pts)
        rest = f.eval_at(pts) - kernel_projection(f).eval_at(pts)
        rows.append(_bound_row(
            f"projection/{name}",
            "complement identity: -T(T(f) w)/w = f - ((1/pi) int f) / w",
            float(np.abs(outer - rest).max()), tol))
    return rows


def check_range_condition(cfg):
    """int T(f)/w du = 0 for polynomials; int 1/w du = pi puts 1 outside."""
    tol = 1e-6
    worst = 0.0
    for coeffs in POLY_TEST_SET:
        img = fht_grid(poly_fn(coeffs, cfg.nodes))
        worst = max(worst, float(range_defect(img)))
    rows = [_bound_row("range-condition/images",
                       "transform images satisfy the range condition int h/w = 0",
                       worst, tol)]
    rows.append(row("range-condition/constant",
                    "range defect of the constant 1 equals pi",
                    range_defect(const_fn(1.0, cfg.nodes)), np.pi, tol))
    return rows


def check_parseval(cfg):
    """<f, T(g)> = -<g, T(f)> over all pairs from an 8-polynomial dictionary."""
    tol = 1e-6
    fs = [poly_fn(np.eye(8)[k][: k + 1], cfg.nodes) for k in range(8)]
    worst = 0.0
    for i in range(8):
        for j in range(i + 1, 8):
            worst = max(worst, parseval_defect(fs[i], fs[j]))
    return [_bound_row("parseval",
                       "antisymmetry pairing: int f T(g) = -int g T(f), 28 pairs",
                       worst, tol)]


def check_tricomi(cfg):
    """Tricomi's product identity T(f Tg + g Tf) = Tf Tg - f g on polynomial pairs.

    Both sides come from the exact profile algebra, so the row reads roundoff
    and reaches the dilogarithm kernel of T(ln) without any quadrature.
    """
    tol = 1e-13
    x = np.linspace(-0.95, 0.95, 39)
    worst = 0.0
    for cf, cg in zip(POLY_TEST_SET[:8], POLY_TEST_SET[1:9]):
        f, g = Profile.poly(cf), Profile.poly(cg)
        tf, tg = f.fht_profile(), g.fht_profile()
        left = f.times(tg).plus(g.times(tf)).fht_values(x)
        right = tf.eval(x) * tg.eval(x) - f.eval(x) * g.eval(x)
        worst = max(worst, float(np.abs(left - right).max() / (1.0 + np.abs(right).max())))
    return [_bound_row("tricomi/poly",
                       "product identity T(f T(g) + g T(f)) = T(f) T(g) - f g, "
                       "scope 1/p + 1/q < 1; 8 polynomial pairs, relative to "
                       "1 + max|right|", worst, tol)]


def check_rybakov(cfg):
    """The functional g0 with T(g0) = sign and |<m, g0>| = Lebesgue measure."""
    g0 = rybakov_functional(cfg.nodes)
    img = fht_grid(g0)
    mask = (np.abs(img.nodes) >= 0.05) & (np.abs(img.nodes) <= 0.95)
    sigma = np.sign(img.nodes[mask])
    dev = float(np.abs(img.values[mask] - sigma).max())
    rows = [_bound_row("rybakov/transform",
                       "T(g0) equals the sign function away from 0 and +-1",
                       dev, 1e-4)]
    levels = total_variation_scalar(g0, levels=(256,))
    rows.append(row("rybakov/variation",
                    "total variation of <m, g0> over (-1,1) equals 2",
                    levels[-1][1], 2.0, 1e-3))
    tol_b = 1e-4
    for b in (0.25, 0.5, 0.75):
        val = scalar_measure(g0, IntervalSet(((0.0, b),))).real
        rows.append(row(f"rybakov/scalar-measure-{b}",
                        "<m, g0>(0,b) = -b", val, -b, tol_b))
    return rows


def check_boyd(cfg):
    """Boyd index estimates land within 0.05 of 1/p for all supported families."""
    t0 = time.perf_counter()
    tol = 0.05
    cases = ((SpaceSpec.lp(1.5), "Lp(1.5)"), (SpaceSpec.lp(3), "Lp(3)"),
             (SpaceSpec.lorentz(3, 1), "Lorentz(3,1)"), (SpaceSpec.weak_lp(2), "WeakLp(2)"))
    rows = []
    for space, name in cases:
        lo, hi = boyd_estimate(space)
        want = 1.0 / space.p
        rows.append(row(f"boyd/{name}-lower",
                        "lower Boyd index equals 1/p", lo, want, tol))
        rows.append(row(f"boyd/{name}-upper",
                        "upper Boyd index equals 1/p", hi, want, tol))
    elapsed = time.perf_counter() - t0
    rows.append(_runtime_row("boyd/runtime", "Boyd check runs in under 30 s",
                             elapsed, 30.0))
    return rows


def check_rearrangement(cfg):
    """Sort-based oracle, the closed-form rearrangement of 1/w, and its decay."""
    rng = np.random.default_rng(cfg.seed + 2)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 9))
        edges = np.concatenate([[-1.0], np.sort(rng.uniform(-1, 1, k - 1)), [1.0]])
        vals = rng.uniform(0, 3, k)
        prof = Profile(tuple((edges[i], edges[i + 1], (vals[i],), 0) for i in range(k)))
        f = from_profile(prof, cfg.nodes)
        r = rearrangement(f)
        # independent oracle: sort the (value, length) pairs directly
        order = np.argsort(-vals, kind="stable")
        lens = np.diff(edges)[order]
        dev = max(
            float(np.abs(np.cumsum(lens) - r.breakpoints).max()),
            float(np.abs(vals[order] - r.plateaus).max()),
        )
        worst = max(worst, dev)
    rows = [_bound_row("rearrangement/sort-oracle",
                       "decreasing rearrangement of step functions matches the "
                       "sort oracle exactly", worst, 1e-12)]

    r = rearrangement(inv_weight_fn(cfg.nodes))
    dev = max(abs(r.value_interp(t) - 2.0 / np.sqrt(t * (4 - t)))
              for t in (0.1, 0.5, 1.0, 2.0))
    rows.append(_bound_row("rearrangement/invw-closed-form",
                           "rearrangement of 1/w equals 2/sqrt(t(4-t))",
                           dev, 1e-3))
    dec = rearrangement_decay(inv_weight_fn(cfg.nodes), 2.0)
    rows.append(row("rearrangement/invw-decay",
                    "lim t^{1/2} (1/w)*(t) = 1: 1/w is outside the "
                    "order-continuous part of weak-L^2",
                    dec.value, 1.0, 0.05))
    return rows


def check_optdomain_search(cfg):
    """Exhaustive enumeration equals greedy flips; estimate dominates ||T f||."""
    space = SpaceSpec.lp(1.5)
    tol = 1e-9
    worst_gap, floor_ok = 0.0, True
    for coeffs in POLY_TEST_SET:
        f = poly_fn(coeffs, cfg.nodes)
        ex = optdomain_norm(f, space, cells=10, search="exhaustive")
        gr = optdomain_norm(f, space, cells=10, search="greedy-flip",
                            restarts=32, seed=cfg.seed)
        worst_gap = max(worst_gap, abs(ex.value - gr.value) / max(ex.value, 1e-30))
        floor_ok &= ex.value >= norm(fht_grid(f), space) - 1e-9
    rows = [_bound_row("optdomain-search/heuristic",
                       "greedy flips with 32 restarts reach the exhaustive "
                       "maximum over sign patterns", worst_gap, tol)]
    rows.append(row("optdomain-search/floor",
                    "the all-ones pattern makes the estimate dominate ||T(f)||",
                    float(floor_ok), 1.0, 0.5))
    return rows


def check_semivariation(cfg):
    """Semivariation equals the optimal-domain norm of the restriction."""
    space = SpaceSpec.lp(1.5)
    tol = 1e-6
    rng = np.random.default_rng(cfg.seed + 3)
    pool = POLY_TEST_SET[:6]
    worst = 0.0
    for _ in range(20):
        coeffs = pool[int(rng.integers(0, len(pool)))]
        f = poly_fn(coeffs, cfg.nodes)
        A = random_interval_set(rng)
        sv = semivariation(f, A, space, cells=10, search="exhaustive")
        od = optdomain_norm(restrict(f, A), space, cells=10, search="exhaustive")
        denom = max(sv.value, od.value, 1e-30)
        worst = max(worst, abs(sv.value - od.value) / denom)
    return [_bound_row("semivariation",
                       "norm of the restriction equals the semivariation of the "
                       "induced set function (vector-measure basis T(f chi_{A and "
                       "cell}) computed independently; shared norm kernel)", worst, tol)]


def check_blowup(cfg):
    """Explicit neighbourhoods where |T(chi_(t,1))| exceeds any bound."""
    rows = []
    for t, M in ((0.0, 1.0), (0.5, 2.0), (-0.3, 3.0)):
        interval, x, attained = blowup_witness(t, M)
        rows.append({
            "check_id": f"blowup/t={t:g},M={M:g}",
            "claim": "an explicit point near t where |T(chi_(t,1))| > 2M "
                     "(transform images are never order bounded)",
            "computed": attained,
            "expected": 2.0 * M,
            "tolerance": 0.0,
            "pass": bool(attained > 2.0 * M),
        })
    return rows


def check_estimator_consistency(cfg):
    """Dual-dictionary and sign-pattern estimators of the same norm agree.

    Both are lower-bound estimators of quantities that coincide exactly; the
    check documents estimator consistency (bounded mutual gap), not exact
    norm equality.
    """
    space = SpaceSpec.lp(1.5)
    tol = 0.25
    base = dual_dictionary(space, size=64, n=cfg.nodes, seed=cfg.seed)
    worst = 0.0
    for coeffs in POLY_TEST_SET:
        f = poly_fn(coeffs, cfg.nodes)
        est = optdomain_norm(f, space, cells=12, search="exhaustive")
        duals = base + (matched_dual(f, space, cells=12, estimate=est),)
        wn = weak_norm(f, space, duals)
        on = est.value
        worst = max(worst, abs(wn - on) / max(wn, on))
    return [_bound_row("estimator-consistency",
                       "scalar-measure norm estimate and sign-pattern norm "
                       "estimate agree (estimator consistency, not exact norm "
                       "equality)", worst, tol)]


def check_sigma_additivity(cfg):
    """||T(chi_(0,eps))|| decreases with eps and vanishes at the proxy scale."""
    space = SpaceSpec.lp(1.5)
    eps_list = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    norms = []
    for eps in eps_list:
        m = vector_measure(IntervalSet(((0.0, eps),)), cfg.nodes)
        norms.append(norm(m, space))
    decreasing = all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    rows = [row("sigma-additivity/monotone",
                "||m(0,eps)|| decreases as the interval shrinks",
                float(decreasing), 1.0, 0.5)]
    rows.append(_bound_row("sigma-additivity/limit",
                           "||m(0,eps)||_{L^1.5} below 1e-3 at eps = 1e-6",
                           norms[-1], 1e-3))
    return rows


SUITES = {
    "identities": (
        check_kernel, check_indicator_closed_form, check_right_inverse,
        check_left_inverse, check_projection, check_range_condition,
        check_parseval, check_tricomi,
    ),
    "measure": (
        check_rybakov, check_optdomain_search, check_semivariation,
        check_blowup, check_estimator_consistency, check_sigma_additivity,
    ),
    "norms": (check_boyd, check_rearrangement),
}


def run_suite(suite="all", cfg=None):
    """Run a named suite (or all of them); returns the list of check rows."""
    cfg = cfg or RunConfig()
    if suite == "all":
        checks = [fn for name in ("identities", "measure", "norms")
                  for fn in SUITES[name]]
    else:
        if suite not in SUITES:
            raise ValueError(f"unknown suite: {suite}")
        checks = list(SUITES[suite])
    rows = []
    for fn in checks:
        rows.extend(fn(cfg))
    return rows
