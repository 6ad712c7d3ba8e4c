"""The benchmark's workloads: seeded inputs, the timed operations, their checks.

Each workload produces *rounds*: fixed-composition lists of operations whose
parameters (coefficients, intervals, scales, search seeds) are drawn from a
seeded generator.  The runner executes whole rounds in a closed loop, so
every run sees the same mix of operation classes and sizes and only the
drawn values differ between seeds.  An operation's ``execute`` is the timed
call into the library; ``check`` runs afterwards, untimed, against
:mod:`refs`.

All library calls go through module attributes (``lib.transform.fht_grid``)
so that the traced mode's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import refs

SIZES = (512, 2048)
SEARCH_NODES = 512
SEARCH_SPACES = ("Lorentz(3,1)", "WeakLp(2)", "Lp(3)")
NORM_SPACES = ("Lp(3)", "Lorentz(3,1)", "WeakLp(2)")


@dataclass
class Op:
    kind: str
    params: dict
    index: int = -1            # position in the run, set by the runner
    group: int = -1            # ops checked against each other share a group


@dataclass
class Record:
    op: Op
    latency_s: float = 0.0
    output: object = None
    error: str = ""
    verdict: refs.Verdict = None


def op_class(op):
    """Operation class label: kind plus the size parameters that set its cost."""
    return "/".join([op.kind] + [str(op.params[k]) for k in ("n", "space", "cells")
                                  if k in op.params])


def quiet_main(lib, argv):
    """``cli.main`` with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return lib.cli.main(argv)


def space_of(lib, label):
    """The library's SpaceSpec for a label like Lorentz(3,1)."""
    kind, *params = refs.space_key(label)
    make = {"Lp": lib.spaces.SpaceSpec.lp, "Lorentz": lib.spaces.SpaceSpec.lorentz,
            "WeakLp": lib.spaces.SpaceSpec.weak_lp}[kind]
    return make(*params)


def draw_coeffs(rng, lo=2, hi=6):
    return [float(c) for c in rng.uniform(-1.0, 1.0, int(rng.integers(lo, hi + 1)) + 1)]


def draw_scale(rng):
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))


def draw_intervals(rng, lo=-0.9, hi=0.9, grid=64, max_count=3):
    """Disjoint intervals with endpoints on the lattice j/grid, gaps between them."""
    count = int(rng.integers(1, max_count + 1))
    pts = np.arange(int(np.ceil(lo * grid)), int(np.floor(hi * grid)) + 1)
    cuts = np.sort(rng.choice(pts, size=2 * count, replace=False)) / grid
    return [(float(cuts[2 * i]), float(cuts[2 * i + 1])) for i in range(count)]


def cells_hit(intervals, cells):
    edges = np.linspace(-1.0, 1.0, cells + 1)
    return sum(any(a < hi and b > lo for a, b in intervals)
               for lo, hi in zip(edges[:-1], edges[1:]))


def draw_search_set(rng, cells, hit=8):
    """Intervals meeting exactly ``hit`` of the ``cells`` cells, so that every
    semivariation search enumerates the same 2^(hit-1) patterns."""
    while True:
        iv = draw_intervals(rng, -0.95, 0.95, grid=96, max_count=3)
        if cells_hit(iv, cells) == hit:
            return iv


class Workload:
    """Seeded rounds of operations, their execution and their checks."""

    name = ""

    def __init__(self, lib, tmpdir):
        self.lib = lib
        self.tmpdir = tmpdir

    def tmp_path(self, op):
        return os.path.join(self.tmpdir, f"{self.name}-{op.index}.json")

    def make_round(self, rng, index):
        raise NotImplementedError

    def trace_round(self, rng):
        """The fixed work of a traced run."""
        return self.make_round(rng, 0)

    def warmup_ops(self, rng):
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, record, records):
        raise NotImplementedError


# ------------------------------------------------------------- verify-suite

class VerifySuite(Workload):
    """One operation is one in-process ``finhilbert verify --suite all``.

    Every pass runs at the suite's defaults, seed 0 included.  The suite's
    seed picks its random spot checks, and with them how many sign patterns
    the semivariation check enumerates: one pass costs 4.7 s to 7.8 s in that
    check alone depending on the seed, which would swamp a code change.  A
    round is two passes, and each must write the other's report.
    """

    name = "verify-suite"
    suite_seed = 0

    def make_round(self, rng, index):
        return [Op("verify", {"seed": self.suite_seed}), Op("verify", {"seed": self.suite_seed})]

    def trace_round(self, rng):
        # one pass: the traced run's passes of it pair with each other by seed
        return self.make_round(rng, 0)[:1]

    def warmup_ops(self, rng):
        return [Op("warm-checks", {})]

    def execute(self, op):
        if op.kind == "warm-checks":
            return self._warm()
        path = self.tmp_path(op)
        rc = quiet_main(self.lib, ["verify", "--suite", "all", "--seed",
                                   str(op.params["seed"]), "--out", path])
        return {"rc": rc, "path": path}

    def _warm(self):
        """Every check's code path once, with the three search checks cut down."""
        lib = self.lib
        cfg = lib.checks.RunConfig()
        heavy = {"check_optdomain_search", "check_semivariation",
                 "check_estimator_consistency"}
        for fns in lib.checks.SUITES.values():
            for fn in fns:
                if fn.__name__ not in heavy:
                    fn(cfg)
        lp = lib.spaces.SpaceSpec.lp(1.5)
        f = lib.grid.poly_fn([0.3, 1.0, 0.0, 1.0], cfg.nodes)
        lib.measure.optdomain_norm(f, lp, cells=6)
        lib.measure.optdomain_norm(f, lp, cells=6, search="greedy-flip", restarts=2)
        lib.measure.semivariation(f, lib.intervals.IntervalSet(((-0.5, 0.2),)), lp, cells=6)
        duals = lib.measure.dual_dictionary(lp, size=20, n=cfg.nodes)
        lib.measure.weak_norm(f, lp, duals + (lib.measure.matched_dual(f, lp, cells=6),))
        return None

    def check(self, record, records):
        out = record.output
        if out["rc"] != 0:
            return refs.failure(f"exit code {out['rc']}")
        with open(out["path"]) as fh:
            body = refs.report_body(fh.read())
        if not body["passed"] or not all(r["pass"] for r in body["checks"]):
            bad = [r["check_id"] for r in body["checks"] if not r["pass"]]
            return refs.failure(f"failed rows {bad}")
        partners = [r for r in records if r is not record and r.op.kind == "verify"
                    and r.op.params["seed"] == record.op.params["seed"] and not r.error]
        if not partners:
            return refs.failure("no second pass with the same seed")
        for other in partners:
            with open(other.output["path"]) as fh:
                if refs.report_body(fh.read()) != body:
                    return refs.failure("report differs from a same-seed pass")
        return refs.verdict(refs.report_rows(body))


# ----------------------------------------------------------- transform-solve

TS_CLASSES = ("fht_poly", "fht_weight", "fht_indicator", "fht_spectral", "fht_logmix",
              "solve_lp15_poly", "solve_lp15_image", "solve_lp3_image",
              "norms_image", "norms_indicator", "cli_solve_poly")
# the quadrature inverses at the large size run twice a round, so the slowest
# class fills the top sixth of the latencies and op_p90_s falls inside it
TS_REPEATED_LARGE = ("solve_lp15_image", "solve_lp3_image")


class TransformSolve(Workload):
    """Evaluate and solve requests at N in {512, 2048}."""

    name = "transform-solve"

    def _params(self, rng, kind, n):
        p = {"n": n}
        if kind in ("fht_poly", "fht_spectral", "solve_lp15_poly", "cli_solve_poly"):
            p["coeffs"] = draw_coeffs(rng, 2, 7 if kind == "fht_spectral" else 6)
        elif kind in ("solve_lp15_image", "solve_lp3_image", "norms_image"):
            p["coeffs"] = draw_coeffs(rng, 2, 5)
        elif kind == "fht_weight":
            p["weight"] = str(rng.choice(["w", "invw"]))
            p["scale"] = draw_scale(rng)
        elif kind in ("fht_indicator", "norms_indicator"):
            p["intervals"] = draw_intervals(rng)
            p["scale"] = draw_scale(rng)
        elif kind == "fht_logmix":
            p["scale"] = draw_scale(rng)
        return p

    def make_round(self, rng, index):
        ops = [Op(kind, self._params(rng, kind, n)) for n in SIZES for kind in TS_CLASSES]
        ops += [Op(kind, self._params(rng, kind, SIZES[-1])) for kind in TS_REPEATED_LARGE]
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup_ops(self, rng):
        return [Op(kind, self._params(rng, kind, n)) for n in SIZES for kind in TS_CLASSES]

    def execute(self, op):
        lib, p = self.lib, op.params
        g, tr, air, sp = lib.grid, lib.transform, lib.airfoil, lib.spaces
        n = p["n"]
        k = op.kind
        if k == "fht_poly":
            return tr.fht_grid(g.poly_fn(p["coeffs"], n))
        if k == "fht_weight":
            base = g.weight_fn(n) if p["weight"] == "w" else g.inv_weight_fn(n)
            return tr.fht_grid(base * p["scale"])
        if k == "fht_indicator":
            return tr.fht_grid(g.indicator_fn(lib.intervals.IntervalSet(tuple(p["intervals"])), n)
                               * p["scale"])
        if k == "fht_spectral":
            coeffs = np.asarray(p["coeffs"])
            return tr.fht_grid(g.from_callable(lambda x: refs.power_poly(coeffs, x), n))
        if k == "fht_logmix":
            return tr.fht_grid(air.rybakov_functional(n) * p["scale"])
        if k == "solve_lp15_poly":
            return air.solve_airfoil(g.poly_fn(p["coeffs"], n), sp.SpaceSpec.lp(1.5))
        if k in ("solve_lp15_image", "solve_lp3_image"):
            image = tr.fht_grid(g.poly_fn(p["coeffs"], n))
            space = sp.SpaceSpec.lp(1.5 if k == "solve_lp15_image" else 3.0)
            return air.solve_airfoil(image, space)
        if k == "norms_image":
            f = tr.fht_grid(g.poly_fn(p["coeffs"], n))
            return f, [sp.norm_info(f, space_of(lib, s)) for s in NORM_SPACES]
        if k == "norms_indicator":
            f = g.indicator_fn(lib.intervals.IntervalSet(tuple(p["intervals"])), n) * p["scale"]
            return f, [sp.norm_info(f, space_of(lib, s)) for s in NORM_SPACES]
        if k == "cli_solve_poly":
            path = self.tmp_path(op)
            spec = "poly:" + ",".join(repr(c) for c in p["coeffs"])
            rc = quiet_main(lib, ["solve", "--g", spec, "--space", "Lp:1.5",
                                  "--nodes", str(n), "--out", path])
            return {"rc": rc, "path": path}
        raise ValueError(f"unknown operation {k}")

    def check(self, record, records):
        p, out, k = record.op.params, record.output, record.op.kind
        if k in ("fht_poly", "fht_spectral"):
            tol = refs.TOL_CLOSED_FORM if k == "fht_poly" else refs.TOL_SPECTRAL
            ref = refs.fht_power_poly(p["coeffs"], out.nodes)
            return refs.verdict([(k, refs.scaled_error(out.values, ref), tol)])
        if k == "fht_weight":
            ref = refs.fht_weight(p["weight"], p["scale"], out.nodes)
            return refs.verdict([(k, refs.scaled_error(out.values, ref), refs.TOL_CLOSED_FORM)])
        if k == "fht_indicator":
            ref = p["scale"] * refs.fht_indicator(p["intervals"], out.nodes)
            return refs.verdict([(k, refs.scaled_error(out.values, ref), refs.TOL_CLOSED_FORM)])
        if k == "fht_logmix":
            x = out.nodes
            mask = (np.abs(x) >= 0.05) & (np.abs(x) <= 0.95)
            ref = p["scale"] * np.sign(x[mask])
            return refs.verdict([(k, refs.scaled_error(out.values[mask], ref), refs.TOL_RYBAKOV)])
        if k == "solve_lp15_poly":
            u = out.particular
            return self._check_over_w_solution(p["coeffs"], u.nodes, u.values, [])
        if k in ("solve_lp15_image", "solve_lp3_image"):
            u = out.particular
            x = u.nodes
            mask = np.abs(x) <= 0.9
            want = refs.power_poly(p["coeffs"], x[mask])
            if k == "solve_lp15_image":
                # right inverse of T(f) is f minus the kernel part (1/pi int f)/w
                anti = np.polynomial.polynomial.polyint(p["coeffs"])
                integral = refs.power_poly(anti, 1.0) - refs.power_poly(anti, -1.0)
                want = want - integral / (np.pi * np.sqrt(1.0 - x[mask] ** 2))
            return refs.verdict([(k, refs.scaled_error(u.values[mask], want),
                                  refs.TOL_ROUND_TRIP)])
        if k == "norms_image":
            f, infos = out
            parts = [(f"{k}/closed-form", refs.scaled_error(
                f.values, refs.fht_power_poly(p["coeffs"], f.nodes)), refs.TOL_CLOSED_FORM)]
            for label, info in zip(NORM_SPACES, infos):
                ref = refs.discrete_norm(f.values, f.weights, label)
                parts.append((f"{k}/{label}", abs(info.value - ref) / ref, refs.TOL_NORM))
            return refs.verdict(parts)
        if k == "norms_indicator":
            f, infos = out
            measure = sum(b - a for a, b in p["intervals"])
            parts = []
            for label, info in zip(NORM_SPACES, infos):
                ref = refs.indicator_norm(p["scale"], measure, label)
                parts.append((f"{k}/{label}", abs(info.value - ref) / ref, refs.TOL_NORM))
            return refs.verdict(parts)
        if k == "cli_solve_poly":
            if out["rc"] != 0:
                return refs.failure(f"exit code {out['rc']}")
            with open(out["path"]) as fh:
                art = json.load(fh)
            sol = art["solution"]
            x = np.asarray(sol["node"])
            u = np.asarray(sol["re"]) + 1j * np.asarray(sol["im"])
            extra = [("reported residual", art["residual_sup_interior"], refs.TOL_EXACT_SOLVE)]
            return self._check_over_w_solution(p["coeffs"], x, u, extra)
        raise ValueError(f"unknown operation {k}")

    @staticmethod
    def _check_over_w_solution(coeffs, x, u, extra):
        """u = h/w with h a polynomial, and T(u) = g: the inversion round trip."""
        h_samples = u * np.sqrt(1.0 - x * x)
        deg = len(coeffs) + 1
        hc = np.polynomial.chebyshev.chebfit(x, h_samples.real, deg)
        fit = refs.scaled_error(h_samples, np.polynomial.chebyshev.chebval(x, hc))
        t = np.linspace(-0.9, 0.9, 21)
        image = refs.fht_over_w(lambda y: np.polynomial.chebyshev.chebval(y, hc), t)
        trip = refs.scaled_error(image, refs.power_poly(coeffs, t))
        return refs.verdict([("solution is poly/w", fit, refs.TOL_EXACT_SOLVE),
                             ("T(solution) = g", trip, refs.TOL_EXACT_SOLVE)] + extra)


# ----------------------------------------------------------------- search-ri

SEARCH_KINDS = ("poly", "indicator", "samples")
EXHAUSTIVE_CELLS = (12, 13, 14)
# greedy searches stop at 18 cells: from 20 cells up the library returns +inf
# in the p = 3 spaces (see DEFECTS.md)
GREEDY_CELLS = (16, 17, 18)


class SearchRI(Workload):
    """Supremum searches over sign patterns in three rearrangement-invariant spaces."""

    name = "search-ri"

    def _input(self, rng, kind):
        if kind == "indicator":
            return {"kind": kind, "intervals": draw_intervals(rng), "scale": draw_scale(rng)}
        return {"kind": kind, "coeffs": draw_coeffs(rng, 2, 5)}

    def make_round(self, rng, index):
        """Per space and rotation: one exhaustive, one greedy and one
        semivariation pair; per space a second exhaustive search at the
        largest size.

        Sizes and input kinds rotate three times within a round, so every
        round gives each space every size and kind once; only the drawn
        values and the order depend on the seed.  With the second search at
        the largest size, the slowest 9 of the 39 operations are the exact
        2^13-pattern enumerations, so op_p90_s falls among them and not on
        the edge between them and the greedy searches, whose cost depends on
        the drawn input.
        """
        ops = []
        for turn in range(3):
            for i, space in enumerate(SEARCH_SPACES):
                ex = Op("exhaustive", dict(self._input(rng, SEARCH_KINDS[(i + 2 * turn) % 3]),
                                           space=space, cells=EXHAUSTIVE_CELLS[(i + turn) % 3]))
                gr = Op("greedy", dict(self._input(rng, SEARCH_KINDS[(i + 2 * turn + 1) % 3]),
                                       space=space, cells=GREEDY_CELLS[(i + turn) % 3],
                                       seed=int(rng.integers(0, 2**31 - 1))))
                cells = EXHAUSTIVE_CELLS[(i + turn + 1) % 3]
                shared = dict(self._input_on_set(rng, SEARCH_KINDS[(i + turn) % 2],
                                                 draw_search_set(rng, cells)),
                              space=space, cells=cells)
                group = (3 * index + turn) * len(SEARCH_SPACES) + i
                ops += [ex, gr, Op("semivariation", dict(shared), group=group),
                        Op("optdomain_restricted", dict(shared), group=group)]
        for i, space in enumerate(SEARCH_SPACES):
            ops.append(Op("exhaustive", dict(self._input(rng, SEARCH_KINDS[(2 - i) % 3]),
                                             space=space, cells=EXHAUSTIVE_CELLS[-1])))
        return [ops[i] for i in rng.permutation(len(ops))]

    def _input_on_set(self, rng, kind, search_set):
        """An input that does not vanish on the search set."""
        while True:
            p = self._input(rng, kind)
            overlap = sum(max(0.0, min(b, d) - max(a, c)) for a, b in p.get("intervals", ())
                          for c, d in search_set)
            if kind != "indicator" or overlap >= 0.1:
                return dict(p, set=search_set)

    def warmup_ops(self, rng):
        """Every space, search and input kind once, at the smallest sizes."""
        ops = []
        for i, space in enumerate(SEARCH_SPACES):
            ops.append(Op("exhaustive", dict(self._input(rng, SEARCH_KINDS[i]), space=space,
                                             cells=EXHAUSTIVE_CELLS[0])))
            ops.append(Op("greedy", dict(self._input(rng, SEARCH_KINDS[i]), space=space,
                                         cells=GREEDY_CELLS[0], seed=1)))
            shared = dict(self._input_on_set(rng, SEARCH_KINDS[i % 2],
                                             draw_search_set(rng, EXHAUSTIVE_CELLS[0])),
                          space=space, cells=EXHAUSTIVE_CELLS[0])
            ops += [Op("semivariation", dict(shared)), Op("optdomain_restricted", dict(shared))]
        return ops

    def build(self, p):
        g = self.lib.grid
        if p["kind"] == "indicator":
            iset = self.lib.intervals.IntervalSet(tuple(p["intervals"]))
            return g.indicator_fn(iset, SEARCH_NODES) * p["scale"]
        coeffs = np.asarray(p["coeffs"])
        if p["kind"] == "poly":
            return g.poly_fn(coeffs, SEARCH_NODES)
        return g.from_callable(lambda x: refs.power_poly(coeffs, x), SEARCH_NODES)

    def execute(self, op):
        lib, p = self.lib, op.params
        f = self.build(p)
        space = space_of(lib, p["space"])
        m = lib.measure
        if op.kind == "exhaustive":
            return m.optdomain_norm(f, space, cells=p["cells"], search="exhaustive")
        if op.kind == "greedy":
            return m.optdomain_norm(f, space, cells=p["cells"], search="greedy-flip",
                                    restarts=32, seed=p["seed"])
        iset = lib.intervals.IntervalSet(tuple(p["set"]))
        if op.kind == "semivariation":
            return m.semivariation(f, iset, space, cells=p["cells"], search="exhaustive")
        if op.kind == "optdomain_restricted":
            return m.optdomain_norm(lib.grid.restrict(f, iset), space, cells=p["cells"],
                                    search="exhaustive")
        raise ValueError(f"unknown operation {op.kind}")

    def witness_value(self, f, est, label):
        """Norm of T(s f) for the witness s, assembled cell by cell and normed
        by the benchmark's own discrete definition."""
        edges = est.witness.edges
        total = np.zeros(len(f), dtype=complex)
        for a, b, s in zip(edges[:-1], edges[1:], est.witness.coefficients):
            piece = self.lib.transform.fht_product_indicator(
                f, self.lib.intervals.IntervalSet(((a, b),)))
            total += s * piece.values
        return refs.discrete_norm(total, f.weights, label)

    def check(self, record, records):
        p, est, k = record.op.params, record.output, record.op.kind
        value = est.value
        if not np.isfinite(value) or value <= 0:
            return refs.failure(f"search value {value}")
        if k in ("semivariation", "optdomain_restricted"):
            other = [r for r in records if r is not record and r.op.group == record.op.group]
            if len(other) != 1 or other[0].error:
                return refs.failure("missing the other route")
            gap = abs(value - other[0].output.value) / value
            return refs.verdict([("semivariation = optdomain of restriction", gap,
                                  refs.TOL_SEARCH)])
        f = self.build(p)
        label = p["space"]
        floor = refs.discrete_norm(self.lib.transform.fht_grid(f).values, f.weights, label)
        parts = [
            ("witness attains the value",
             abs(self.witness_value(f, est, label) - value) / value, refs.TOL_SEARCH),
            ("estimate >= ||T f||", max(0.0, floor - value) / floor, refs.TOL_SEARCH),
        ]
        if k == "exhaustive":
            greedy = self.lib.measure.optdomain_norm(
                f, space_of(self.lib, label), cells=p["cells"], search="greedy-flip",
                restarts=2, seed=0).value
            parts.append(("exhaustive >= greedy", max(0.0, greedy - value) / value,
                          refs.TOL_SEARCH))
        return refs.verdict(parts)


WORKLOADS = {w.name: w for w in (VerifySuite, TransformSolve, SearchRI)}
