"""Self-test of the benchmark's checks: a perturbed result must count as a failure.

For every operation class of every workload it runs one real operation,
confirms the check passes on it, then perturbs the result (a sample, a norm
value, a search value, a report row, an exit code) and confirms the check
fails.  It also confirms that BENCHMARK.json names exactly the metrics
``run.py`` prints.  Run from the repository root; exits 1 on any miss:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from types import SimpleNamespace

import run


def bump(values, mask=None, rel=1e-3):
    """Copy of ``values`` with one sample (inside ``mask``) moved by rel * scale."""
    out = values.copy()
    where = mask.nonzero()[0] if mask is not None else range(out.size)
    out[where[len(where) // 2]] += rel * (1.0 + abs(out).max())
    return out


def perturbations(kind, rec):
    """(label, perturbed output) pairs for one record."""
    import numpy as np

    out = rec.output
    if kind.startswith("fht_"):
        mask = (np.abs(out.nodes) >= 0.05) & (np.abs(out.nodes) <= 0.9)
        return [("sample", out.with_values(bump(out.values, mask), out.profile))]
    if kind.startswith("solve_"):
        u = out.particular
        moved = u.with_values(bump(u.values, np.abs(u.nodes) <= 0.9), None)
        return [("sample", dataclasses.replace(out, particular=moved))]
    if kind.startswith("norms_"):
        f, infos = out
        res = []
        for i in range(len(infos)):
            bad = list(infos)
            bad[i] = dataclasses.replace(infos[i], value=infos[i].value * (1 + 1e-6))
            res.append((f"norm {i}", (f, bad)))
        return res
    if kind == "cli_solve_poly":
        with open(out["path"]) as fh:
            art = json.load(fh)
        art["solution"]["re"][len(art["solution"]["re"]) // 2] += 1e-3
        path = out["path"] + ".bad.json"
        with open(path, "w") as fh:
            json.dump(art, fh)
        return [("sample", {"rc": 0, "path": path}), ("exit code", {"rc": 3, "path": out["path"]})]
    if kind in ("exhaustive", "greedy", "semivariation", "optdomain_restricted"):
        return [("value", dataclasses.replace(out, value=out.value * (1 + 1e-6))),
                ("infinite", dataclasses.replace(out, value=float("inf")))]
    if kind == "verify":
        with open(out["path"]) as fh:
            rep = json.load(fh)
        res = [("exit code", {"rc": 5, "path": out["path"]})]
        for label, edit in (("row pass", lambda r: r.update({"pass": False})),
                            ("row value", lambda r: r.update({"computed": r["computed"] + 1e-9}))):
            bad = json.loads(json.dumps(rep))
            edit(bad["checks"][0])
            path = out["path"] + f".{label.replace(' ', '-')}.json"
            with open(path, "w") as fh:
                json.dump(bad, fh)
            res.append((label, {"rc": 0, "path": path}))
        return res
    raise ValueError(kind)


def representative_ops(workload, rng):
    """One cheap operation of every class of a workload."""
    from workloads import Op

    if workload.name == "verify-suite":
        return [Op("verify", {"suite": "norms", "seed": 1}) for _ in range(2)]
    ops = workload.warmup_ops(rng)
    group = -1
    for op in ops:                  # warm-up pairs: semivariation, then its partner
        if op.kind == "semivariation":
            group += 1
        if op.kind in ("semivariation", "optdomain_restricted"):
            op.group = group
    seen, picked = set(), []
    for op in ops:
        key = (op.kind, op.params.get("kind"))
        if key not in seen or op.group >= 0:
            seen.add(key)
            picked.append(op)
    return picked


def main():
    package, mods = run.load_library()
    import numpy as np

    import workloads

    lib = SimpleNamespace(fh=package, **mods)
    tmpdir = run.OUT / f"selftest-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    misses, tried = [], 0
    try:
        for cls in workloads.WORKLOADS.values():
            wl = cls(lib, str(tmpdir))
            if cls is workloads.VerifySuite:
                # the norms suite keeps the self-test quick; the check is the same
                def execute(op, wl=wl):
                    path = wl.tmp_path(op)
                    rc = workloads.quiet_main(lib, ["verify", "--suite", op.params["suite"],
                                                    "--seed", "1", "--out", path])
                    return {"rc": rc, "path": path}
                wl.execute = execute
            records = []
            run.run_ops(wl, representative_ops(wl, np.random.default_rng(3)), records)
            run.check_all(wl, records)
            for rec in records:
                tried += 1
                if not rec.verdict.ok:
                    misses.append(f"{cls.name}/{rec.op.kind}: real result failed "
                                  f"({rec.verdict.worst}, {rec.verdict.ratio:.3g})")
                    continue
                for label, bad in perturbations(rec.op.kind, rec):
                    tried += 1
                    original = rec.output
                    rec.output = bad
                    try:
                        verdict = wl.check(rec, records)
                    except Exception as exc:     # a check that raises also rejects
                        verdict = None
                        print(f"  {cls.name}/{rec.op.kind} [{label}] check raised {exc!r}")
                    rec.output = original
                    if verdict is not None and verdict.ok:
                        misses.append(f"{cls.name}/{rec.op.kind}: perturbed {label} passed")
            print(f"{cls.name}: {len(records)} operations checked and perturbed")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in run.END_TO_END]:
        misses.append("BENCHMARK.json end_to_end names differ from run.END_TO_END")
    if [m["name"] for m in spec["per_layer"]] != list(run.PER_LAYER):
        misses.append("BENCHMARK.json per_layer names differ from run.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        misses.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for m in misses:
        print("MISS", m)
    print(f"{tried} results tried, {len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
