"""finhilbert benchmark: one named workload from a seed, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload transform-solve --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then a warm-up, then whole rounds of operations in a closed
loop with a single client until about ``--seconds`` seconds have been spent
in operations.  ``--trace 1``
runs one fixed round twice untraced and once more with spans around every
public function of the library's layers, and reports the per-layer metrics;
it does a fixed amount of work so its call counts repeat exactly.
Every operation's output is checked against an independent reference
afterwards (see ``refs.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` next to this directory; the run stops
with exit code 2 when it is not there.  BLAS/OpenMP threads are capped at
the number of usable CPUs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MODULES = ("chebalg", "grid", "intervals", "profiles", "transform", "spaces",
           "airfoil", "measure", "checks", "cli", "report")

# Import plus first use: the first grid builds at both sizes and the
# lru_cache tables behind the closed-form transform.  Run in a fresh
# interpreter; prints its own elapsed seconds.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import finhilbert
from finhilbert import grid, spaces, transform
for n in (512, 2048):
    f = grid.poly_fn([0.5, 1.0, -1.0, 0.25], n)
    spaces.norm_info(transform.fht_grid(f), spaces.SpaceSpec.lorentz(3, 1))
print(time.perf_counter() - t0)
"""

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
    ("ok_rate", "fraction"), ("accuracy_digits", "log10"), ("peak_rss_mb", "MB"),
)
CHECK_IDS = ("kernel", "indicator-closed-form", "right-inverse", "left-inverse",
             "projection", "range-condition", "parseval", "rybakov", "optdomain-search",
             "semivariation", "blowup", "estimator-consistency", "sigma-additivity",
             "boyd", "rearrangement")
PER_LAYER = (
    "spaces.norm_info.calls", "spaces.norm_info.self_s",
    "grid.GridFunction.init.calls", "grid.GridFunction.init.self_s",
    "measure.optdomain_norm.self_s", "measure.semivariation.self_s",
    "profiles.plus.calls", "measure.patterns_per_s",
    "spaces.rearrangement.calls", "spaces.rearrangement.self_s",
    "chebalg.difference_quotient.calls", "chebalg.difference_quotient.self_s",
    "chebalg.fht_log_kernel.calls", "chebalg.fht_log_kernel.self_s",
    "chebalg.integrate_panels.calls", "chebalg.integrate_panels.self_s",
    "chebalg.fit_chebyshev.calls", "profiles.LogMixProfile.fht_values.self_s",
    "transform.fht_grid.calls", "transform.fht_grid.self_s",
    "chebalg.fejer1_weights.calls", "chebalg.fejer1_weights.self_s", "grid.make_grid.calls",
    "grid.GridFunction.eval_at.calls", "grid.GridFunction.eval_at.self_s",
    "transform.fht_point.calls", "transform.fht_point.self_s",
    "airfoil.left_inverse.self_s", "airfoil.right_inverse.self_s",
    "transform.fht_over_w_point.calls", "transform.fht_over_w_point.self_s",
    "transform.fht_times_w_point.calls",
    "transform.pv_oracle.calls", "transform.pv_oracle.self_s",
) + tuple(f"checks.{c}.wall_s" for c in CHECK_IDS) + (
    "cli.main.self_s", "report.write_report.self_s", "trace.overhead_ratio",
)


def unit_of(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "s"


def note(text):
    print(f"# {text}", flush=True)


def time_setup():
    """Median set-up seconds over fresh interpreters, and every sample."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def load_library():
    sys.path.insert(0, str(SRC))
    import importlib

    package = importlib.import_module("finhilbert")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"finhilbert imported from {package.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"finhilbert.{name}") for name in MODULES}
    return package, mods


def run_ops(workload, ops, records, tracer=None):
    """Execute ops back to back; one Record each, latency measured per op."""
    from workloads import Record

    for op in ops:
        op.index = len(records)
        rec = Record(op)
        if tracer is not None:
            tracer.op_id = op.index
        t0 = time.perf_counter()
        try:
            rec.output = workload.execute(op)
        except Exception as exc:           # a failed operation, counted below
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.latency_s = time.perf_counter() - t0
        records.append(rec)


def check_all(workload, records):
    import refs

    for rec in records:
        if rec.error:
            rec.verdict = refs.failure(rec.error)
            continue
        try:
            rec.verdict = workload.check(rec, records)
        except Exception as exc:           # a check that cannot run is a failure
            rec.verdict = refs.failure(f"check raised {type(exc).__name__}: {exc}")


def summarize_checks(records):
    import refs

    failed = [r for r in records if not r.verdict.ok]
    passed = [r for r in records if r.verdict.ok]
    digits = min((r.verdict.digits for r in passed), default=refs.CAP_DIGITS)
    for r in failed[:10]:
        note(f"FAILED op {r.op.index} {r.op.kind} {json.dumps(r.op.params)}: "
             f"{r.verdict.worst} (error/tolerance = {r.verdict.ratio:.3g})")
    return failed, digits


def latency_quantiles(latencies):
    """Median and 90th percentile by the Harrell-Davis estimator.

    It weights every order statistic by its chance of being the quantile,
    instead of reading one or two of them.  A mix of operation classes puts
    gaps between the latencies, and a single order statistic jumps across a
    gap when one input-dependent search changes rank; over ten seeds of
    search-ri this estimator spread the median half as much, measured
    against each run's mean latency.
    """
    from scipy.stats.mstats import hdquantiles

    return tuple(float(q) for q in hdquantiles(latencies, prob=[0.5, 0.9]))


def timed_run(workload, seed, seconds):
    """Whole rounds, as many as bring operation time nearest to ``seconds``.

    Every round has the same mix, so the number of rounds changes how long
    a run measures but not what its percentiles are taken over.  Each round
    is checked as soon as it ends, outside the timing, and its outputs are
    dropped, so memory does not grow with the number of rounds.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    records, rounds, busy = [], 0, 0.0
    while True:
        start = len(records)
        run_ops(workload, workload.make_round(rng, rounds), records)
        batch = records[start:]
        check_all(workload, batch)
        for rec in batch:
            rec.output = None
        rounds += 1
        busy += sum(r.latency_s for r in batch)
        if busy + busy / rounds / 2 >= seconds:
            return records, rounds, busy


def traced_run(workload, seed, package, mods):
    """The trace round twice untraced, then traced; per-layer metrics."""
    import numpy as np
    from tracer import Tracer

    ops = workload.trace_round(np.random.default_rng(seed))
    records = []

    def one_pass(k, tracer=None):
        """The round again; each pass pairs its checked ops among themselves."""
        copies = [dataclasses.replace(op, group=op.group + k * 10**6 if op.group >= 0 else -1)
                  for op in ops]
        t0 = time.perf_counter()
        run_ops(workload, copies, records, tracer)
        return time.perf_counter() - t0

    one_pass(0)                    # settles the round's own sizes
    untraced = one_pass(1)
    tracer = Tracer(package, [mods[name] for name in MODULES])
    tracer.install()
    try:
        traced = one_pass(2, tracer)
    finally:
        tracer.uninstall()
    stats, patterns, search_s = tracer.summary()
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.npz"
    tracer.save(spans_path)
    note(f"{len(tracer.name_id)} spans over {len(ops)} ops written to "
         f"{spans_path.relative_to(ROOT)}; untraced {untraced:.3f} s, traced {traced:.3f} s")

    def stat(name, field):
        return stats.get(name, (0, 0.0, 0.0))[field]

    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = traced / untraced
        elif name == "measure.patterns_per_s":
            value = patterns / search_s if search_s > 0 else 0.0
        elif name == "profiles.plus.calls":
            value = sum(c for n, (c, _, _) in stats.items()
                        if n.startswith("profiles.") and n.endswith(".plus"))
        elif name.startswith("checks."):
            fn = "check_" + name.split(".")[1].replace("-", "_")
            value = stat(f"checks.{fn}", 1)
        elif name.endswith(".calls"):
            value = stat(name[: -len(".calls")], 0)
        else:
            value = stat(name[: -len(".self_s")], 2)
        metrics[name] = value
    return records, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "finhilbert" / "__init__.py").is_file():
        print(f"perfbench: no finhilbert sources under {SRC}", file=sys.stderr)
        return 2
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:                # before numpy loads; children inherit it
        os.environ[var] = str(cap)
    import numpy as np
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_s, setup_samples = (None, []) if args.trace else time_setup()

    t0 = time.perf_counter()
    package, mods = load_library()
    OUT.mkdir(exist_ok=True)
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir(exist_ok=True)
    try:
        lib = SimpleNamespace(fh=package, **mods)
        workload = workloads.WORKLOADS[args.workload](lib, str(tmpdir))
        for i, op in enumerate(workload.warmup_ops(np.random.default_rng([args.seed, 1]))):
            op.index = -1 - i
            workload.execute(op)
        warm_s = time.perf_counter() - t0

        note(f"workload={args.workload} seed={args.seed} trace={args.trace} "
             f"threads={cap} nproc={cap} cpus={os.cpu_count()} numpy={np.__version__} "
             f"scipy={scipy.__version__} python={sys.version.split()[0]}")
        note(f"in-process import and warm-up {warm_s:.3f} s; set-up samples "
             f"{[round(s, 4) for s in setup_samples]}")
        if args.trace:
            records, metrics = traced_run(workload, args.seed, package, mods)
            check_all(workload, records)
            failed, _ = summarize_checks(records)
            out = {name: {"value": metrics[name], "unit": unit_of(name)} for name in PER_LAYER}
        else:
            records, rounds, busy = timed_run(workload, args.seed, args.seconds)
            failed, digits = summarize_checks(records)
            lat = sorted(r.latency_s for r in records)
            p50, p90 = latency_quantiles(lat)
            beyond = sum(v > p90 for v in lat)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            note(f"{rounds} rounds, {len(records)} ops, {busy:.3f} s in operations; "
                 f"error_rate={len(failed) / len(records):.4g}; {beyond} samples beyond "
                 f"op_p90_s" + ("" if beyond >= 10 else " (fewer than 10: p90 unresolved)"))
            classes = {}
            for r in records:
                classes.setdefault(workloads.op_class(r.op), []).append(r.latency_s)
            for label, ks in sorted(classes.items()):
                note(f"  {label:36s} x{len(ks):4d} median {statistics.median(ks):.5f} s")
            values = {
                "setup_s": setup_s,
                "ops_per_s": len(records) / busy,
                "op_p50_s": p50,
                "op_p90_s": p90,
                "ok_rate": 1.0 - len(failed) / len(records),
                "accuracy_digits": digits,
                "peak_rss_mb": peak,
            }
            out = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
