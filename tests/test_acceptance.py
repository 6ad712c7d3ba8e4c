"""Acceptance suite: the library's headline identities at their stated
tolerances, one criterion per test, with a printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; the whole
suite also runs through the CLI as ``finhilbert verify --suite all``.
"""

import time

from finhilbert.checks import (
    RunConfig,
    check_boyd,
    check_estimator_consistency,
    check_indicator_closed_form,
    check_kernel,
    check_left_inverse,
    check_optdomain_search,
    check_parseval,
    check_projection,
    check_range_condition,
    check_rearrangement,
    check_right_inverse,
    check_rybakov,
    check_semivariation,
    check_sigma_additivity,
    run_suite,
)

CFG = RunConfig(nodes=512, seed=0)


def report(name, rows, extra=""):
    ok = all(r["pass"] for r in rows)
    worst = max((r["computed"] for r in rows), default=0.0)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{extra}")
    assert ok, rows
    return worst


def test_criterion_01_kernel_identity():
    t0 = time.perf_counter()
    rows = check_kernel(CFG)
    elapsed = time.perf_counter() - t0
    report("1. kernel identity: sup |T(1/w)| <= 1e-6 on |t| <= 0.9", rows,
           f" ({elapsed:.2f}s)")
    assert elapsed < 5.0


def test_criterion_02_indicator_closed_form():
    rows = check_indicator_closed_form(CFG)
    report("2. indicator closed form vs PV quadrature, rel err <= 1e-8", rows)


def test_criterion_03_right_inverse():
    rows = check_right_inverse(CFG)
    report("3. right inverse: ||T(T^ f) - f||_sup <= 1e-5 on Lp(1.5)", rows)


def test_criterion_04_left_inverse():
    rows = check_left_inverse(CFG)
    report("4. left inverse: ||Tv(T f) - f||_sup <= 1e-5 on Lp(3)", rows)


def test_criterion_05_projection_identity():
    rows = check_projection(CFG)
    report("5. projection identity: ||T^(T f) - (f - P f)||_sup <= 1e-5", rows)


def test_criterion_06_range_condition():
    rows = check_range_condition(CFG)
    report("6. range condition: defect(T f) <= 1e-6; defect(1) = pi +- 1e-6", rows)


def test_criterion_07_parseval():
    rows = check_parseval(CFG)
    report("7. antisymmetry pairing over 28 polynomial pairs <= 1e-6", rows)


def test_criterion_08_rybakov():
    rows = check_rybakov(CFG)
    report("8. Rybakov functional: T(g0) = sigma (1e-4), variation 2 (1e-3), "
           "scalar measure -b (1e-4)", rows)


def test_criterion_09_boyd_indices():
    t0 = time.perf_counter()
    rows = check_boyd(CFG)
    elapsed = time.perf_counter() - t0
    report("9. Boyd indices within 0.05 of 1/p for Lp(1.5), Lp(3), "
           "Lorentz(3,1), WeakLp(2)", rows, f" ({elapsed:.2f}s)")
    assert elapsed < 30.0


def test_criterion_10_rearrangement_oracle():
    rows = check_rearrangement(CFG)
    report("10. rearrangement sort oracle exact; (1/w)* = 2/sqrt(t(4-t)) "
           "(1e-3); decay limit 1 (0.05)", rows)


def test_criterion_11_optdomain_search():
    rows = check_optdomain_search(CFG)
    report("11. exhaustive sign search equals greedy flips (1e-9) and "
           "dominates ||T f||", rows)


def test_criterion_12_semivariation_equality():
    rows = check_semivariation(CFG)
    report("12. semivariation equals restricted optimal-domain norm (1e-6, "
           "20 random pairs)", rows)


def test_criterion_13_blowup_witness():
    from finhilbert.checks import check_blowup

    rows = check_blowup(CFG)
    report("13. blow-up witness exceeds 2M for (t,M) in {(0,1),(0.5,2),"
           "(-0.3,3)}", rows)


def test_criterion_14_estimator_consistency():
    rows = check_estimator_consistency(CFG)
    report("14. dual and sign-pattern norm estimators agree within 25% "
           "(estimator consistency, not exact norm equality)", rows)


def test_criterion_15_sigma_additivity():
    rows = check_sigma_additivity(CFG)
    report("15. ||m(0,eps)||_{L^1.5} decreasing and < 1e-3 at eps = 1e-6", rows)


def test_full_suite_runs_in_budget():
    t0 = time.perf_counter()
    rows = run_suite("all", CFG)
    elapsed = time.perf_counter() - t0
    ok = all(r["pass"] for r in rows)
    print(f"[{'PASS' if ok else 'FAIL'}] full verification suite: "
          f"{len(rows)} rows in {elapsed:.1f}s (< 180s)")
    assert ok
    assert elapsed < 180.0
