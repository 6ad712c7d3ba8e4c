"""Command-line interface: specs, commands, exit codes, reports."""

import json
import math

import numpy as np
import pytest

import finhilbert as fh
from finhilbert.cli import (
    EXIT_CHECK_FAILURES,
    EXIT_CRITICAL_INDEX,
    EXIT_NOT_IN_RANGE,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    main,
    parse_function_spec,
    parse_space,
)


# ---------------------------------------------------------------- spec parsing

def test_parse_poly_spec():
    f = parse_function_spec("poly:1,0,2", 64)
    xs = np.array([0.3, -0.5])
    assert np.allclose(f.eval_at(xs).real, 1 + 2 * xs**2)


def test_parse_builtin_specs():
    assert np.allclose(parse_function_spec("w", 64).values.real,
                       np.sqrt(1 - parse_function_spec("w", 64).nodes ** 2))
    assert parse_function_spec("invw", 64).values.real.min() >= 1.0
    sig = parse_function_spec("sigma", 64)
    assert set(np.unique(sig.values.real)) == {-1.0, 1.0}


def test_parse_indicator_spec():
    f = parse_function_spec("indicator:-0.5,0;0.25,0.75", 64)
    assert f.eval_at(np.array([-0.25]))[0].real == 1.0
    assert f.eval_at(np.array([0.1]))[0].real == 0.0


def test_parse_file_spec(tmp_path):
    f = fh.poly_fn([0, 1], 32)
    path = tmp_path / "f.csv"
    f.to_csv(str(path))
    g = parse_function_spec(f"file:{path}", 32)
    assert np.allclose(g.values, f.values)


def test_parse_errors_carry_position():
    with pytest.raises(UsageError, match="position 1"):
        parse_function_spec("indicator:0,1;bad", 64)
    with pytest.raises(UsageError):
        parse_function_spec("poly:1,abc", 64)
    with pytest.raises(UsageError):
        parse_function_spec("mystery:1", 64)


def test_parse_space():
    assert parse_space("Lp:1.5").p == 1.5
    assert parse_space("Lorentz:3,1").q == 1.0
    assert parse_space("WeakLp:2").kind == "WeakLp"
    with pytest.raises(UsageError):
        parse_space("Sobolev:1")
    with pytest.raises(UsageError):
        parse_space("Lp:abc")


# -------------------------------------------------------------------- commands

def test_eval_indicator(capsys):
    code = main(["eval", "--f", "indicator:0,1", "--x", "-0.5", "--nodes", "128"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert f"{math.log(3.0) / math.pi:.8f}"[:8] in out


def test_eval_kernel_direction(capsys):
    code = main(["eval", "--f", "invw", "--x", "0.3", "--nodes", "128"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "0.00000000" in out


def test_eval_zero_function(capsys):
    code = main(["eval", "--f", "0", "--x", "0.1,0.7", "--nodes", "64"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.count("0.00000000") >= 4


def test_eval_flags_singular_rows(capsys):
    code = main(["eval", "--f", "indicator:0,1", "--x", "0.5,1.5", "--nodes", "64"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "error" in out


def test_eval_usage_error(capsys):
    code = main(["eval", "--f", "nope:1", "--x", "0.0"])
    assert code == EXIT_USAGE


def test_eval_has_no_method_flag(capsys):
    # the input picks the evaluator; a route flag is an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--f", "poly:0,1", "--x", "0.3", "--method", "spectral"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --method" in capsys.readouterr().err


def test_eval_accepts_negative_point_lists(capsys):
    code = main(["eval", "--f", "w", "--x", "-0.5,0.3", "--nodes", "64"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "0.50000000" in out and "-0.30000000" in out  # T(w)(t) = -t


def test_solve_high_index_writes_artifact(tmp_path, capsys):
    out_path = tmp_path / "sol.json"
    code = main(["solve", "--g", "poly:0,1", "--space", "Lp:1.5",
                 "--out", str(out_path), "--nodes", "256"])
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["residual_sup_interior"] <= 1e-5
    assert "free" in payload["kernel_note"]
    sol = fh.GridFunction.from_json(json.dumps(payload["solution"]))
    assert len(sol) == 256


def _elementwise_payload(f):
    # the solution payload as it was written float by float from numpy scalars
    return {"node_family": f.node_family,
            "node": [float(x) for x in f.nodes],
            "re": [float(v) for v in f.values.real],
            "im": [float(v) for v in f.values.imag],
            "weight": [float(w) for w in f.weights]}


def _point_loop_residual(sol, g):
    q = sol.particular.profile.series(-1)
    pts = np.linspace(-0.9, 0.9, 41)
    outer = np.array([fh.fht_over_w_point(lambda x: np.polynomial.chebyshev.chebval(x, q),
                                          float(t)) for t in pts])
    return float(np.abs(outer - g.eval_at(pts)).max())


@pytest.mark.parametrize("nodes", [64, 2048])
@pytest.mark.parametrize("spec", ["poly:0.3,1,-0.5,0.25", "poly:1,0,2,0,-1,0.5,0.2"])
def test_solve_artifact_content(spec, nodes, tmp_path, capsys):
    out_path = tmp_path / "sol.json"
    assert main(["solve", "--g", spec, "--space", "Lp:1.5", "--nodes", str(nodes),
                 "--out", str(out_path)]) == EXIT_OK
    text = out_path.read_text()
    payload = json.loads(text)
    assert sorted(payload) == ["kernel_note", "residual_sup_interior", "solution", "space"]
    assert "\n" not in text and json.dumps(payload, sort_keys=True) == text
    g = parse_function_spec(spec, nodes)
    sol = fh.solve_airfoil(g, fh.SpaceSpec.lp(1.5))
    assert payload["solution"] == json.loads(sol.particular.to_json())
    assert payload["solution"] == _elementwise_payload(sol.particular)
    back = fh.GridFunction.from_json(json.dumps(payload["solution"]))
    assert np.array_equal(back.nodes, sol.particular.nodes)
    assert np.array_equal(back.values, sol.particular.values)
    assert np.array_equal(back.weights, sol.particular.weights)
    assert abs(payload["residual_sup_interior"] - _point_loop_residual(sol, g)) <= 1e-15


@pytest.mark.parametrize("spec", ["poly:0.3,1,-0.5,0.25", "indicator:0,0.5"])
def test_solve_parses_no_json_and_runs_one_panel_call(spec, tmp_path, monkeypatch, capsys):
    from finhilbert import cli, transform

    calls = []
    panels = transform.fht_over_w_point

    def counted(*args, **kwargs):
        calls.append(args[1])
        return panels(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("solve must not call this")

    out_path = tmp_path / "sol.json"
    with monkeypatch.context() as m:
        m.setattr(json, "loads", refuse)
        m.setattr(transform, "fht_over_w_point", counted)
        m.setattr(cli, "fht_over_w_point", counted)
        m.setattr(cli, "fht_point", refuse)
        assert main(["solve", "--g", spec, "--space", "Lp:1.5", "--nodes", "32",
                     "--out", str(out_path)]) == EXIT_OK
    assert len(calls) == 1 and np.shape(calls[0]) == (41,)
    assert json.loads(out_path.read_text())["residual_sup_interior"] >= 0.0


@pytest.mark.parametrize("spec", ["indicator:0,0.5", "sigma", "w"])
def test_profile_free_solution_residual_matches_quadpack_route(spec):
    # T(u) for a profile-free u: theta panels on (u w)/w against the
    # subtract-singularity route, point by point
    from finhilbert.cli import _solution_residual

    g = parse_function_spec(spec, 16)
    u = fh.solve_airfoil(g, fh.SpaceSpec.lp(1.5)).particular
    assert u.profile is None
    pts = np.linspace(-0.9, 0.9, 41)
    quadpack = np.array([fh.fht_point(u.eval_at, float(t)) for t in pts])
    want = float(np.abs(quadpack - g.eval_at(pts)).max())
    got = _solution_residual(u, g)
    assert abs(got - want) <= 1e-12 * want
    if spec != "w":
        # the solution is exact at the nodes, but the residual transforms its
        # interpolant, which cannot resolve the log peaks at the jumps
        assert got > 0.1


def test_eval_reads_a_solve_artifact(tmp_path, capsys):
    path = tmp_path / "sol.json"
    assert main(["solve", "--g", "poly:0,1", "--space", "Lp:1.5", "--nodes", "32",
                 "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--f", f"file:{path}", "--x", "-0.5,0.1,0.6"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    u = fh.GridFunction.from_json(json.dumps(json.loads(path.read_text())["solution"]))
    for row, x in zip(rows, (-0.5, 0.1, 0.6), strict=True):
        assert float(row.split()[1]) == pytest.approx(fh.fht_point(u, x).real, abs=1e-8)


def test_eval_of_a_uniform_csv_reads_its_interpolant(tmp_path, capsys, recwarn):
    # 33 uniform rows, read as their piecewise-linear interpolant; its
    # transform in kink form, with s_k the slope change at node x_k:
    # pi T(f)(t) = v_1 ln((1 - t)/(1 + t))
    #              + sum_k s_k ((1 - x_k) + (t - x_k)(ln(1 - t) - ln|x_k - t|))
    path = tmp_path / "f.csv"
    fh.from_callable(lambda x: np.cos(3 * x) + x, 33, family="uniform").to_csv(str(path))
    f = parse_function_spec(f"file:{path}", 33)
    x, v = f.nodes, f.values.real
    pts = np.concatenate([x[::8], [-0.5, 0.1, 0.6]])
    slopes = np.diff(np.concatenate([[0.0], np.diff(v) / np.diff(x), [0.0]]))
    d = pts[:, None] - x[None, :]
    tail = np.where(d == 0.0, 0.0, d * (np.log1p(-pts)[:, None]
                                        - np.log(np.abs(np.where(d == 0.0, 1.0, d)))))
    want = (v[0] * np.log((1 - pts) / (1 + pts)) + ((1 - x) + tail) @ slopes) / math.pi
    got = np.array([fh.fht_point(f, t).real for t in pts])
    assert np.abs(got - want).max() <= 1e-13
    spec = ",".join(repr(float(t)) for t in pts)
    assert main(["eval", "--f", f"file:{path}", "--x", spec]) == EXIT_OK
    out, err = capsys.readouterr()
    printed = [float(row.split()[1]) for row in out.splitlines()[1:]]
    assert np.abs(np.subtract(printed, want)).max() <= 5e-9     # printed to 8 places
    assert err == "" and len(recwarn) == 0


def test_solve_of_invw_exits_ok(tmp_path, capsys):
    # 1/w has no plain series; its solution -T(1)/w is exact and finite
    path = tmp_path / "sol.json"
    assert main(["solve", "--g", "invw", "--space", "Lp:1.5", "--nodes", "64",
                 "--out", str(path)]) == EXIT_OK
    sol = json.loads(path.read_text())["solution"]
    x = np.array(sol["node"])
    want = -np.log((1 - x) / (1 + x)) / (math.pi * np.sqrt(1 - x * x))
    assert np.abs(np.array(sol["re"]) - want).max() <= 1e-12 * (1 + np.abs(want).max())


def test_solve_refuses_a_node_on_a_jump(capsys):
    # 33 Chebyshev nodes put one on the jump of sigma, where the solution is infinite
    assert main(["solve", "--g", "sigma", "--space", "Lp:1.5", "--nodes", "33"]) == EXIT_USAGE
    assert "discontinuity" in capsys.readouterr().err


def test_solve_not_in_range(capsys):
    code = main(["solve", "--g", "poly:1", "--space", "Lp:3", "--nodes", "128"])
    err = capsys.readouterr().err
    assert code == EXIT_NOT_IN_RANGE
    assert "3.14159" in err


def test_solve_zero(tmp_path):
    out_path = tmp_path / "zero.json"
    code = main(["solve", "--g", "0", "--space", "Lp:3", "--nodes", "64",
                 "--out", str(out_path)])
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert max(abs(v) for v in payload["solution"]["re"]) <= 1e-12


def test_solve_critical_index(capsys):
    code = main(["solve", "--g", "poly:0,1", "--space", "Lp:2", "--nodes", "64"])
    assert code == EXIT_CRITICAL_INDEX


# ---------------------------------------------------------------------- verify

def test_verify_identities_passes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["verify", "--suite", "identities", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "[PASS]" in out and "[FAIL]" not in out
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    for row in payload["checks"]:
        assert set(row) == {"check_id", "claim", "computed", "expected",
                            "tolerance", "pass"}
        assert row["claim"]


def test_verify_reports_are_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        assert main(["verify", "--suite", "identities", "--out", str(p)]) == EXIT_OK
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    a.pop("generated_at"), b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_verify_csv_report(tmp_path):
    out_path = tmp_path / "report.csv"
    code = main(["verify", "--suite", "identities", "--out", str(out_path),
                 "--format", "csv"])
    assert code == EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "check_id,claim,computed,expected,tolerance,pass"
    assert len(lines) > 5


def test_verify_tolerance_override_forces_failure(capsys):
    code = main(["verify", "--suite", "identities", "--tol",
                 "left-inverse=1e-15"])
    assert code == EXIT_CHECK_FAILURES
    assert "[FAIL] left-inverse" in capsys.readouterr().out


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch):
    # the shared parser must not carry a flag or a config value to the next call
    from finhilbert import cli

    seen = []
    monkeypatch.setattr(cli, "run_suite", lambda suite, cfg: seen.append(cfg) or [])
    conf = tmp_path / "run.cfg"
    conf.write_text("seed=5\ncells=3\n")
    assert main(["verify", "--tol", "kernel=1", "--config", str(conf)]) == EXIT_OK
    assert main(["verify"]) == EXIT_OK
    assert (seen[0].tolerances, seen[0].seed, seen[0].cells) == ({"kernel": 1.0}, 5, 3)
    assert (seen[1].tolerances, seen[1].seed, seen[1].cells) == ({}, 0, 12)
    assert cli.build_parser() is cli.build_parser()


def test_verify_config_file_merges(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\ntol=left-inverse=1e-15\n")
    code = main(["verify", "--suite", "identities", "--config", str(cfg)])
    assert code == EXIT_CHECK_FAILURES
    # flags win over the config file
    code = main(["verify", "--suite", "identities", "--config", str(cfg),
                 "--tol", "left-inverse=1.0"])
    assert code == EXIT_OK
