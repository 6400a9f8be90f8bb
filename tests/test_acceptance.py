"""Acceptance criteria, one test per criterion, each printing a single
pass/fail line (run with -s to see them on success).  Every check is an
exact equality; there are no tolerances anywhere."""

import random
import subprocess
import sys
import time
from fractions import Fraction

from degenbern import (
    CoeffTable,
    EvaluatedDomain,
    HigherOrderContext,
    SYMBOLIC,
    bell_partial,
    bell_scaling_check,
    classical_row,
    coeff_limit_at_zero,
    coeff_triangle,
    poly_eval,
    render_poly_text,
    scaled_degenerate_stirling,
    stirling1_signed,
    verify_classical_derivative,
    verify_convolution,
    verify_higher_order,
    verify_ode,
    verify_route_agreement_a,
    verify_route_agreement_b,
    verify_singular,
)
from degenbern import bernoulli, verify


def _report(num, name, ok, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_triangle_reproduction():
    t0 = time.time()
    t = coeff_triangle(3, SYMBOLIC)
    ok = (
        [render_poly_text(v) for v in t.row(1)] == ["λ", "1"]
        and [render_poly_text(v) for v in t.row(2)] == ["λ+λ^2", "1+3*λ", "2"]
        and [render_poly_text(v) for v in t.row(3)]
        == ["2*λ+3*λ^2+λ^3", "2+9*λ+7*λ^2", "6+12*λ", "6"]
    )
    _report(1, "triangle-rows-1-to-3-byte-exact", ok, t0)


def test_criterion_02_four_route_coefficient_agreement():
    t0 = time.time()
    ok = verify_route_agreement_a(14, SYMBOLIC).verdict
    _report(2, "four-route-coefficients-N<=14-symbolic", ok, t0)


def test_criterion_03_derivative_family_residuals():
    t0 = time.time()
    coeffs = coeff_triangle(10, SYMBOLIC)
    ok = all(verify_ode(N, 30, SYMBOLIC, coeffs).verdict for N in range(1, 11))
    _report(3, "derivative-family-residual-zero-N<=10-order-30", ok, t0)


def test_criterion_04_four_route_bernoulli_agreement():
    t0 = time.time()
    ok = verify_route_agreement_b(12, SYMBOLIC).verdict
    for lam in (Fraction(1, 2), Fraction(-1, 3), Fraction(2)):
        dom = EvaluatedDomain(lam)
        ok = ok and verify_route_agreement_b(22, dom).verdict
        # b_routes walks the compositions to n = 14; here to n = 22
        ok = ok and (bernoulli.row_via_multinomial(22, dom).values
                     == bernoulli.row_via_series(22, dom).values)
    _report(4, "four-route-bernoulli-n<=12-sym-and-n<=22-evaluated", ok, t0)


def test_criterion_05_limit_theorems():
    t0 = time.time()
    s1 = stirling1_signed(12)
    ok = all(
        poly_eval(scaled_degenerate_stirling(N, k, SYMBOLIC), Fraction(0))
        == s1.value(N, k)
        for N in range(13)
        for k in range(N + 1)
    )
    triangle = coeff_triangle(12, SYMBOLIC)
    ok = ok and all(
        poly_eval(triangle.value(N, i), Fraction(0)) == coeff_limit_at_zero(N, i, s1)
        for N in range(1, 13)
        for i in range(N + 1)
    )
    limit = classical_row(15, route="limit")
    stirling = classical_row(15, route="stirling")
    # independent inversion oracle of the classical log-over-t series
    v = [Fraction((-1) ** m, m + 1) for m in range(16)]
    u = [Fraction(1)]
    for n in range(1, 16):
        u.append(-sum(v[k] * u[n - k] for k in range(1, n + 1)))
    fact = 1
    oracle = []
    for n in range(16):
        if n:
            fact *= n
        oracle.append(u[n] * fact)
    ok = ok and limit == stirling == oracle
    ok = ok and limit[:3] == [Fraction(1), Fraction(1, 2), Fraction(-1, 6)]
    _report(5, "limit-theorems-stirling-and-classical", ok, t0)


def test_criterion_06_convolution_identity():
    t0 = time.time()
    coeffs = coeff_triangle(12, SYMBOLIC)
    ok = all(verify_convolution(n, SYMBOLIC, coeffs).verdict for n in range(1, 13))
    _report(6, "convolution-identity-1<=j<=n<=12", ok, t0)


def test_criterion_07_classical_derivative_expansions():
    t0 = time.time()
    ok = all(
        verify_classical_derivative(N, 30, "eq41").verdict for N in range(1, 11)
    ) and all(verify_classical_derivative(n, 30, "eq42").verdict for n in range(1, 11))
    _report(7, "classical-derivative-expansions-order-30", ok, t0)


def test_criterion_08_reconstruction_and_singular_part():
    t0 = time.time()
    ctx = HigherOrderContext(SYMBOLIC, 8, 13)
    ok = all(
        verify_higher_order(j, N, SYMBOLIC, ctx).verdict
        for N in range(1, 6)
        for j in range(9)
    )
    ok = ok and all(
        verify_singular(j, N, SYMBOLIC, ctx).verdict
        for N in range(2, 9)
        for j in range(-(N - 1), 0)
    )
    _report(8, "reconstruction-j<=8-N<=5-and-singular-N<=8", ok, t0)


def test_criterion_09_property_suites():
    t0 = time.time()
    lam = SYMBOLIC.lam
    ok = True
    # Bell route agreement through n = 12 on an exercising argument family
    xs_full = [SYMBOLIC.one]
    acc = SYMBOLIC.one
    for i in range(1, 13):
        acc = acc * (lam - i)
        xs_full.append(acc)
    for n in range(13):
        for k in range(n + 1):
            xs = xs_full[: max(n - k + 1, 0)]
            ok = ok and bell_partial(n, k, xs, via="partition_sum") == bell_partial(
                n, k, xs, via="generating_function"
            )
    # scaling identity on 100 seeded random instances
    rng = random.Random(20260816)
    for _ in range(100):
        n = rng.randrange(0, 9)
        k = rng.randrange(0, n + 1) if n else 0
        a = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        b = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        xs = [
            Fraction(rng.randrange(-8, 9), rng.randrange(1, 6))
            for _ in range(max(n - k + 1, 1))
        ]
        ok = ok and bell_scaling_check(n, k, a, b, xs)
    # fault injection: each corruption must produce a failing report
    base = coeff_triangle(4, SYMBOLIC)
    rows = [list(r) for r in base.rows]
    rows[3][1] = rows[3][1] + 1
    bad_table = CoeffTable(domain=SYMBOLIC, rows=tuple(tuple(r) for r in rows))
    ok = ok and not verify_ode(3, 12, SYMBOLIC, bad_table).verdict
    ok = ok and not verify_convolution(4, SYMBOLIC, bad_table).verdict
    ctx = HigherOrderContext(SYMBOLIC, 2, 5)
    row2 = list(ctx._rows[2])
    row2[1] = row2[1] + lam
    ctx._rows[2] = tuple(row2)
    ok = ok and not verify_higher_order(1, 1, SYMBOLIC, ctx).verdict
    ok = ok and not verify_singular(-1, 2, SYMBOLIC, ctx).verdict
    real = bernoulli.row_via_multinomial

    def tampered_row(n_max, domain):
        row = real(n_max, domain)
        values = list(row.values)
        values[3] = values[3] + 1
        return bernoulli.BernoulliRow(domain, 1, "multinomial", tuple(values))

    try:
        bernoulli.row_via_multinomial = tampered_row
        ok = ok and not verify.verify_route_agreement_b(5).verdict
    finally:
        bernoulli.row_via_multinomial = real
    _report(9, "bell-routes-scaling-and-fault-injection", ok, t0)


def test_criterion_10_cli_determinism():
    t0 = time.time()

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "degenbern", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    commands = [
        ["b", "--max-n", "8", "--lambda", "sym", "--route", "all"],
        ["a", "--max-N", "5", "--route", "all", "--format", "csv"],
        ["stirling", "--kind", "scaled-deg2", "--max-n", "6", "--format", "latex"],
        ["classical", "--max-n", "10"],
        ["verify", "--suite", "thm41", "--max-N", "3", "--max-j", "4"],
    ]
    ok = True
    for argv in commands:
        first = run(argv)
        ok = ok and first == run(argv)
    _report(10, "cli-byte-determinism-runs", ok, t0)
