"""The acceptance slate: one check per shipped guarantee.

Each test records a single PASS/FAIL line; the terminal-summary hook in
conftest prints the whole slate at the end of the run so the result is
visible even under output capture.  Tolerances here are the shipped
contract, not the (much smaller) residuals we typically observe.
"""

import math
import random
import time
from fractions import Fraction

from acceptance_log import record_acceptance

from theta_forge.arith import GaussianRational, pairing_coeff
from theta_forge.jacobi_like import (
    completed_theta,
    cusp_combination,
    e2_exponential,
    theta_generating,
    verify_root_identity,
)
from theta_forge.lattice import (
    InsertionVector,
    catalog_form,
    unit_insertion_vector,
)
from theta_forge.modforms import ThetaSpec, eisenstein_e2, eisenstein_e2k, theta_expand
from theta_forge.verify import (
    GRID_TAU,
    check_gauss_closed_form,
    check_gauss_orthogonality,
    check_inversion_law,
    check_poisson_inversion,
    run_campaign,
    sample_gamma0,
)


def _record(ok: bool, label: str, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    record_acceptance(f"{'PASS' if ok else 'FAIL'}  {label}{tail}")


def test_01_root_identity_exact_and_fast():
    t0 = time.perf_counter()
    bad = []
    for name in ("A2", "D4", "E8"):
        ok, residual = verify_root_identity(catalog_form(name), 21)
        if not (ok and residual.is_zero()):
            bad.append(name)
    elapsed = time.perf_counter() - t0
    passed = not bad and elapsed < 10.0
    _record(
        passed,
        "root identity exactly zero through q^20 on A2, D4, E8",
        f"{elapsed:.2f}s, budget 10s",
    )
    assert not bad, bad
    assert elapsed < 10.0


def test_02_completed_series_structure():
    a2 = catalog_form("A2")
    v = unit_insertion_vector(a2)
    e2 = eisenstein_e2(12)
    expect = (
        theta_expand(ThetaSpec(a2, v, 4), 12)
        + theta_expand(ThetaSpec(a2, v, 2), 12) * e2 * 6
        + theta_expand(ThetaSpec.plain(a2), 12) * (e2 * e2) * 3
    )
    passed = completed_theta(a2, v, 4, 12) == expect
    _record(passed, "completed index-4 series = theta4 + 6 E2 theta2 + 3 E2^2 theta0, exact")
    assert passed


def test_03_cusp_combination_constant_term():
    bad = []
    for name in ("A2", "A1A1", "2A2", "D4", "E8"):
        form = catalog_form(name)
        v = unit_insertion_vector(form)
        prec = 3 if name == "E8" else 6
        for k in (2, 3):
            c = cusp_combination(form, v, k, prec).coefficient(Fraction(0))
            if c != GaussianRational(0):
                bad.append((name, k))
    _record(not bad, "cusp combination has exact zero constant term, all lattices, k = 2, 3")
    assert not bad, bad


def test_04_product_relation():
    bad = []
    for name, q_prec in (("A2", 8), ("D4", 5)):
        form = catalog_form(name)
        v = unit_insertion_vector(form)
        prod = e2_exponential(5, q_prec, sign=-1) * theta_generating(form, v, 5, q_prec)
        for k in range(5):
            expect = completed_theta(form, v, 2 * k, q_prec) * Fraction(
                2 ** k, math.factorial(2 * k)
            )
            if prod.ycoeff(k) != expect:
                bad.append((name, k))
    _record(not bad, "product series matches 2^k/(2k)! completed series, k <= 4, A2 and D4, exact")
    assert not bad, bad


def test_05_pairing_coefficient_identities():
    rec_bad = [
        (i, k)
        for k in range(40)
        for i in range(1, (k + 1) // 2 + 1)
        if pairing_coeff(i, k + 1)
        != (k + 2 - 2 * i) * pairing_coeff(i - 1, k) + pairing_coeff(i, k)
    ]
    alt_bad = [
        (u, k)
        for k in range(2, 41)
        for u in range(1, k // 2 + 1)
        if sum(
            (-1) ** j * pairing_coeff(j, k) * pairing_coeff(u - j, k - 2 * j)
            for j in range(u + 1)
        )
        != 0
    ]
    passed = not rec_bad and not alt_bad
    _record(passed, "pairing recursion and alternating cancellation, exact for k <= 40")
    assert not rec_bad, rec_bad
    assert not alt_bad, alt_bad


def test_06_generating_function_law():
    t0 = time.perf_counter()
    a2 = catalog_form("A2")
    r1, _ = run_campaign(a2, ("generating",), 20, seed=101, tol=1e-8)
    a11 = catalog_form("A1A1")
    vnull = InsertionVector((GaussianRational(1), GaussianRational(0, 1)), 1)
    r2, _ = run_campaign(a11, ("generating",), 20, seed=102, tol=1e-8, v=vnull)
    elapsed = time.perf_counter() - t0
    worst = max(r.residual for r in r1 + r2)
    passed = (
        len(r1) == 20
        and len(r2) == 20
        and all(r.passed for r in r1 + r2)
        and elapsed < 60.0
    )
    _record(
        passed,
        "generating-series law < 1e-8 per Y coefficient, 20 matrices each on A2 and on "
        "the split form with a null vector",
        f"worst {worst:.2e}, {elapsed:.1f}s, budget 60s",
    )
    assert passed


def test_07_inversion_law():
    a2 = catalog_form("A2")
    v = unit_insertion_vector(a2)
    taus = (0.4 + 0.9j, -0.37 + 0.8j, 0.1 + 1.1j)
    residuals = [
        check_inversion_law(a2, h, v, k, tau, 1e-8).residual
        for h in a2.congruence_classes()
        for k in (0, 2, 4)
        for tau in taus
    ]
    worst = max(residuals)
    _record(
        worst < 1e-8,
        "inversion law < 1e-8, all three A2 classes, k in {0, 2, 4}, three tau points",
        f"worst {worst:.2e}",
    )
    assert worst < 1e-8


def test_08_congruence_law():
    a2 = catalog_form("A2")
    reports, _ = run_campaign(a2, ("congruence",), 12, seed=103, tol=1e-8)
    gammas = {tuple(r.inputs["gamma"]) for r in reports}
    ks = {r.inputs["k"] for r in reports}
    hs = {tuple(r.inputs["h"]) for r in reports}
    worst = max(r.residual for r in reports)
    passed = (
        len(reports) == 12
        and all(r.passed for r in reports)
        and len(gammas) >= 10
        and {0, 2, 4} <= ks
        and any(h == (0, 0) for h in hs)
        and any(h != (0, 0) for h in hs)
    )
    _record(
        passed,
        "congruence-class law < 1e-8 on A2, 12 matrices, k in {0, 2, 4}, zero and "
        "nonzero classes",
        f"worst {worst:.2e}, {len(gammas)} distinct matrices",
    )
    assert passed


def test_09_gauss_sums():
    bad = []
    for name in ("A2", "A1A1"):
        form = catalog_form(name)
        for g in sample_gamma0(form.level, 10, seed=104):
            if check_gauss_orthogonality(form, g, 1e-10).residual >= 1e-10:
                bad.append((name, "orthogonality", g.as_list()))
            for h in form.congruence_classes():
                if check_gauss_closed_form(form, g, h, 1e-10).residual >= 1e-10:
                    bad.append((name, "closed form", g.as_list(), h.rep))
    _record(
        not bad,
        "Gauss-sum orthogonality and closed form < 1e-10, A2 and split form, 10 "
        "matrices each",
    )
    assert not bad, bad


def test_10_e2_law_and_offset_inversion():
    a2 = catalog_form("A2")
    e2_reports, _ = run_campaign(a2, ("e2",), 16, seed=105, tol=1e-9)
    e2_worst = max(r.residual for r in e2_reports)
    rng = random.Random(106)
    poisson_res = []
    for i in range(8):
        x = tuple(
            Fraction(rng.randrange(den), den)
            for den in (rng.choice((2, 3, 5, 7)), rng.choice((2, 3, 5, 7)))
        )
        tau = GRID_TAU[i % len(GRID_TAU)]
        poisson_res.append(check_poisson_inversion(a2, x, tau, 1e-8).residual)
    p_worst = max(poisson_res)
    passed = len(e2_reports) == 16 and e2_worst < 1e-9 and p_worst < 1e-8
    _record(
        passed,
        "weight-2 Eisenstein law < 1e-9 over the tau grid; offset inversion < 1e-8 at "
        "random rational offsets",
        f"worst {e2_worst:.2e} and {p_worst:.2e}",
    )
    assert passed


def test_11_rank_eight_theta_is_eisenstein():
    e8 = catalog_form("E8")
    passed = theta_expand(ThetaSpec.plain(e8), 11) == eisenstein_e2k(2, 11)
    _record(passed, "rank-8 even unimodular theta equals the weight-4 Eisenstein series "
                    "through q^10, exact")
    assert passed
