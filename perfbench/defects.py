"""Measure the defects the benchmark's baseline surfaces, with their numbers.

The timed workloads must run without failing operations, so operations that
fail their checks today are measured here instead, with the same references
(``refs.py``) the benchmark uses:

1. ``finhilbert solve`` on discontinuous right-hand sides (``indicator:a,b``,
   ``sigma``) in Lp(1.5) exits 0 while its solution is wrong away from the
   jumps and its reported residual is about 0.5 (1.0 for ``sigma``).
2. The cost of those solves grows steeply with the node count: every
   ``GridFunction.eval_at`` call made inside QUADPACK refits the interpolant.
3. Grid weights (``chebalg.fejer1_weights``) are rebuilt on every grid build.
4. ``measure.optdomain_norm`` returns +inf for bounded polynomial inputs in
   the p = 3 spaces once greedy searches reach 20 cells: ``spaces.norm_info``
   reads the endpoint logarithm of a sign-modulated image as a power
   singularity with p * beta >= 0.99.

Run from the repository root (under a minute):

    python3 perfbench/defects.py
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

import run


def solve_discontinuous(lib, workloads, refs, tmpdir):
    import numpy as np

    from tracer import Tracer

    pieces_of = {"indicator:0,0.5": [(0.0, 0.5, 1.0)],
                 "sigma": [(-1.0, 0.0, -1.0), (0.0, 1.0, 1.0)]}
    rows = []
    for spec, pieces in pieces_of.items():
        for nodes in (16, 32, 64):
            path = os.path.join(tmpdir, "solve.json")
            argv = ["solve", "--g", spec, "--space", "Lp:1.5", "--nodes", str(nodes),
                    "--out", path]
            t0 = time.perf_counter()
            rc = workloads.quiet_main(lib, argv)
            seconds = time.perf_counter() - t0
            with open(path) as fh:
                art = json.load(fh)
            x = np.asarray(art["solution"]["node"])
            u = np.asarray(art["solution"]["re"])
            jumps = [p for a, b, _ in pieces for p in (a, b) if -1.0 < p < 1.0]
            mask = (np.abs(x) <= 0.9) & np.all([np.abs(x - p) > 0.1 for p in jumps], axis=0)
            ref = refs.right_inverse_pieces(pieces, x[mask])
            err = refs.scaled_error(u[mask], ref)
            tracer = Tracer(lib.fh, [getattr(lib, m) for m in run.MODULES])
            tracer.install()
            try:
                workloads.quiet_main(lib, argv)
            finally:
                tracer.uninstall()
            stats = tracer.summary()[0]
            row = {"g": spec, "nodes": nodes, "seconds": round(seconds, 3), "exit": rc,
                   "reported_residual": art["residual_sup_interior"],
                   "solution_error": err, "tolerance": refs.TOL_DISCONTINUOUS,
                   "eval_at_calls": stats["grid.GridFunction.eval_at"][0],
                   "fit_chebyshev_calls": stats["chebalg.fit_chebyshev"][0]}
            print(f"solve --g {spec:16s} nodes={nodes:3d}: {seconds:7.3f} s, exit {rc}, "
                  f"residual {row['reported_residual']:.3g}, solution error {err:.3g} "
                  f"(tolerance {refs.TOL_DISCONTINUOUS:g}), eval_at calls "
                  f"{row['eval_at_calls']}", flush=True)
            rows.append(row)
    return rows


def grid_weights(lib):
    out = {}
    for n in (512, 2048):
        builds = []
        for _ in range(5):
            t0 = time.perf_counter()
            lib.grid.make_grid(n)
            builds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        lib.chebalg.fejer1_weights(n)
        weights = time.perf_counter() - t0
        t0 = time.perf_counter()
        lib.grid.poly_fn([1.0, 2.0, 3.0], n)
        poly = time.perf_counter() - t0
        out[n] = {"make_grid_s": statistics.median(builds), "fejer1_weights_s": weights,
                  "poly_fn_s": poly}
        print(f"N={n}: each of 5 grid builds {statistics.median(builds) * 1e3:.1f} ms "
              f"(no reuse); fejer1_weights alone {weights * 1e3:.1f} ms; poly_fn "
              f"{poly * 1e3:.1f} ms", flush=True)
    return out


def search_infinity(lib, workloads, refs):
    import numpy as np

    rng = np.random.default_rng(2024)
    counts = {}
    for _ in range(6):
        f = lib.grid.poly_fn(workloads.draw_coeffs(rng, 2, 5), workloads.SEARCH_NODES)
        for label in ("Lorentz(3,1)", "Lp(3)", "WeakLp(2)"):
            for cells in (16, 20):
                est = lib.measure.optdomain_norm(
                    f, workloads.space_of(lib, label), cells=cells, search="greedy-flip",
                    restarts=32, seed=int(rng.integers(0, 2**31 - 1)))
                key = f"{label} greedy cells={cells}"
                hits, tries = counts.get(key, (0, 0))
                counts[key] = (hits + (not np.isfinite(est.value)), tries + 1)
    for key, (hits, tries) in counts.items():
        print(f"optdomain_norm {key}: {hits}/{tries} results are +inf", flush=True)

    # one sign pattern the norm calls divergent, against its finite discrete norm
    f = lib.grid.poly_fn([0.0763, -0.3405, 0.5769, -0.3936, -0.0930, -0.7319],
                         workloads.SEARCH_NODES)
    cells = 24
    edges = np.linspace(-1.0, 1.0, cells + 1)
    basis = np.array([lib.transform.fht_product_indicator(
        f, lib.intervals.IntervalSet(((a, b),))).values for a, b in zip(edges[:-1], edges[1:])])
    space = workloads.space_of(lib, "Lorentz(3,1)")
    for _ in range(5000):
        signs = rng.choice([-1.0, 1.0], cells)
        img = f.with_values(signs @ basis)
        info = lib.spaces.norm_info(img, space)
        if info.divergent:
            finite = refs.discrete_norm(img.values, img.weights, "Lorentz(3,1)")
            print(f"a pattern with norm_info divergent=True, value {info.value}; its discrete "
                  f"Lorentz(3,1) norm is {finite:.6g} and max |T(s f)| is "
                  f"{np.abs(img.values).max():.4g}", flush=True)
            return {"counts": counts, "pattern_norm": finite}
    return {"counts": counts}


def main():
    package, mods = run.load_library()
    import refs
    import workloads

    lib = SimpleNamespace(fh=package, **mods)
    tmpdir = run.OUT / f"defects-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        result = {"solve_discontinuous": solve_discontinuous(lib, workloads, refs, str(tmpdir)),
                  "grid_weights": grid_weights(lib),
                  "search_infinity": search_infinity(lib, workloads, refs)}
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
