"""Command-line front end: evaluate transforms, solve the airfoil equation,
run the verification suite.

Exit codes: 0 success, 2 usage error, 3 right-hand side not in range,
4 critical index (p = 2), 5 verification failures.

Function specs are a tiny grammar rather than an expression parser:

    poly:a0,a1,...        polynomial a0 + a1 x + ...
    indicator:a,b[;c,d]   indicator of a union of intervals
    w                     sqrt(1 - x^2)
    invw                  1 / sqrt(1 - x^2)
    sigma                 sign function
    file:PATH             grid function from CSV or JSON
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from . import __version__
from .airfoil import CriticalIndexError, NotInRangeError, solve_airfoil
from .checks import RunConfig, run_suite
from .grid import (
    GridFunction,
    indicator_fn,
    inv_weight_fn,
    poly_fn,
    sign_fn,
    weight_fn,
)
from .intervals import IntervalSet
from .report import write_report
from .spaces import SpaceSpec
from .transform import (
    SingularEvaluationError,
    TransformDomainError,
    fht_over_w_point,
    fht_point,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_IN_RANGE = 3
EXIT_CRITICAL_INDEX = 4
EXIT_CHECK_FAILURES = 5


class UsageError(ValueError):
    pass


def parse_function_spec(spec, nodes):
    """Build a grid function from a CLI spec string."""
    if spec == "w":
        return weight_fn(nodes)
    if spec == "invw":
        return inv_weight_fn(nodes)
    if spec == "sigma":
        return sign_fn(nodes)
    if ":" not in spec:
        # bare numeric list means a polynomial, e.g. "0,1" or "0"
        try:
            coeffs = [float(tok) for tok in spec.split(",")]
        except ValueError:
            raise UsageError(f"unrecognized function spec: {spec!r}")
        return poly_fn(coeffs, nodes)
    head, _, body = spec.partition(":")
    if head == "poly":
        try:
            coeffs = [float(tok) for tok in body.split(",")]
        except ValueError:
            raise UsageError(f"bad polynomial coefficients at {spec!r}")
        return poly_fn(coeffs, nodes)
    if head == "indicator":
        pieces = []
        for i, chunk in enumerate(body.split(";")):
            toks = chunk.split(",")
            if len(toks) != 2:
                raise UsageError(
                    f"bad indicator interval at position {i} in {spec!r}")
            try:
                a, b = float(toks[0]), float(toks[1])
            except ValueError:
                raise UsageError(
                    f"bad indicator endpoints at position {i} in {spec!r}")
            pieces.append((a, b))
        try:
            return indicator_fn(IntervalSet(tuple(pieces)), nodes)
        except ValueError as exc:
            raise UsageError(str(exc))
    if head == "file":
        if body.endswith(".json"):
            return GridFunction.from_json(body)
        return GridFunction.from_csv(body)
    raise UsageError(f"unrecognized function spec: {spec!r}")


def parse_space(text):
    """Space specs like Lp:1.5, Lorentz:3,1, WeakLp:2."""
    head, _, body = text.partition(":")
    try:
        if head == "Lp":
            return SpaceSpec.lp(float(body))
        if head == "Lorentz":
            p, q = body.split(",")
            return SpaceSpec.lorentz(float(p), float(q))
        if head == "WeakLp":
            return SpaceSpec.weak_lp(float(body))
    except ValueError as exc:
        raise UsageError(f"bad space spec {text!r}: {exc}")
    raise UsageError(f"unrecognized space kind in {text!r}")


def _load_config_file(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


# config keys: the flags a file may set, with their types and defaults
_CONFIG_KEYS = {"nodes": (int, 512), "seed": (int, 0), "suite": (str, None),
                "out": (str, None), "format": (str, None)}


def _merge_config(args, parser):
    """Config file mirrors the command's flags; explicit flags win.  A key
    that is not a flag of the command is a usage error."""
    cfg = _load_config_file(args.config) if args.config else {}
    keys = {name: spec for name, spec in _CONFIG_KEYS.items() if hasattr(args, name)}
    if unknown := sorted(set(cfg) - set(keys)):
        parser.error(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
    for name, (cast, default) in keys.items():
        if getattr(args, name) is not None:
            continue
        value = default
        if name in cfg:
            try:
                value = cast(cfg[name])
            except ValueError:
                parser.error(f"bad config value for {name}: {cfg[name]!r}")
        setattr(args, name, value)
    return args


# ------------------------------------------------------------------- commands

def cmd_eval(args, parser):
    f = parse_function_spec(args.f, args.nodes)
    try:
        points = [float(tok) for tok in args.x.split(",") if tok]
    except ValueError:
        parser.error(f"bad evaluation points: {args.x!r}")
    if not points:
        points = list(f.nodes[:: max(1, len(f) // 16)])
    print(f"{'x':>12}  {'re T(f)(x)':>14}  {'im T(f)(x)':>14}")
    for x in points:
        try:
            val = fht_point(f, x)
            print(f"{x:>12.6f}  {val.real:>14.8f}  {val.imag:>14.8f}")
        except (SingularEvaluationError, TransformDomainError) as exc:
            print(f"{x:>12.6f}  error: {exc}")
    return EXIT_OK


def cmd_solve(args, parser):
    g = parse_function_spec(args.g, args.nodes)
    space = parse_space(args.space)
    try:
        sol = solve_airfoil(g, space)
    except CriticalIndexError as exc:
        print(f"critical index: {exc}", file=sys.stderr)
        return EXIT_CRITICAL_INDEX
    except NotInRangeError as exc:
        print(f"not in range: defect = {exc.defect:.6e}", file=sys.stderr)
        return EXIT_NOT_IN_RANGE

    residual = _solution_residual(sol.particular, g)
    note = ("solutions form a line f + c/w; the kernel coefficient is free"
            if sol.kernel_coefficient_free
            else f"unique solution; range defect {sol.range_defect:.3e}")
    if (args.format or "json") == "csv":
        if not args.out:
            parser.error("--format csv requires --out")
        sol.particular.to_csv(args.out)
        print(f"wrote solution samples to {args.out} (residual {residual:.3e}; {note})")
        return EXIT_OK
    artifact = {
        "space": space.label(),
        "kernel_note": note,
        "residual_sup_interior": residual,
        "solution": sol.particular.to_dict(),
    }
    # compact, so the C encoder writes it; json.dump would take the Python one
    text = json.dumps(artifact, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote solution artifact to {args.out} (residual {residual:.3e})")
    else:
        print(text)
    return EXIT_OK


def _solution_residual(particular, g):
    """sup |T(u) - g| over 41 points of [-0.9, 0.9], by theta panels.

    A polynomial solution q/w is transformed as T(q/w); any other u as
    T((u w)/w), graded toward the endpoints and toward g's jumps, where u
    has log peaks.
    """
    pts = np.linspace(-0.9, 0.9, 41)
    q = particular.profile.series(-1) if particular.profile is not None else None
    if q is not None:
        outer = fht_over_w_point(lambda x: _cheb.chebval(x, q), pts)
    else:
        cuts = g.profile.breakpoints() if g.profile is not None else ()
        outer = fht_over_w_point(
            lambda x: particular.eval_at(x) * np.sqrt(np.maximum(1.0 - x * x, 0.0)),
            pts, extra_splits=cuts, grade_endpoints=True)
    return float(np.abs(outer - g.eval_at(pts)).max())


def cmd_verify(args, parser):
    cfg = RunConfig(nodes=args.nodes, seed=args.seed)
    rows = run_suite(args.suite or "all", cfg)
    meta = {"suite": args.suite or "all", "nodes": cfg.nodes, "seed": cfg.seed,
            "version": __version__}
    for r in sorted(rows, key=lambda r: r["check_id"]):
        mark = "PASS" if r["pass"] else "FAIL"
        print(f"[{mark}] {r['check_id']}: computed {r['computed']:.6g} "
              f"(expected {r['expected']:.6g}, tol {r['tolerance']:.2g})")
    n_fail = sum(not r["pass"] for r in rows)
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    if args.out:
        fmt = args.format or ("csv" if args.out.endswith(".csv") else "json")
        write_report(rows, args.out, fmt, meta)
        print(f"wrote report to {args.out}")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILURES


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call of :func:`main` shares it."""
    parser = argparse.ArgumentParser(
        prog="finhilbert",
        description="Finite Hilbert transform: evaluation, airfoil inversion, "
                    "verification suite",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--nodes", type=int, default=None,
                        help="grid size (default 512)")
    common.add_argument("--config", default=None,
                        help="key=value file mirroring the flags; flags win")

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate T(f) at points")
    p_eval.add_argument("--f", required=True, help="function spec")
    p_eval.add_argument("--x", default="", help="comma-separated points")

    p_solve = sub.add_parser("solve", parents=[common],
                             help="solve the airfoil equation T(f) = g")
    p_solve.add_argument("--g", required=True, help="right-hand side spec")
    p_solve.add_argument("--space", required=True, help="e.g. Lp:1.5")
    p_solve.add_argument("--out", default=None, help="artifact path (JSON)")
    p_solve.add_argument("--format", default=None, choices=("json", "csv"))

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the verification suite")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed for randomized spot checks (default 0)")
    p_verify.add_argument("--suite", default=None,
                          choices=("identities", "measure", "norms", "all"))
    p_verify.add_argument("--out", default=None, help="report path")
    p_verify.add_argument("--format", default=None, choices=("json", "csv"))
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # argparse reads "-0.5,0.3" as an option token; fold point lists into
    # the =-form so negative evaluation points parse
    argv = list(argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--x" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--x={argv[i + 1]}"]
            break
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser)
        if args.command == "eval":
            return cmd_eval(args, parser)
        if args.command == "solve":
            return cmd_solve(args, parser)
        return cmd_verify(args, parser)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
