"""Identity verifiers: pass cases at moderate bounds, fault-injection
sensitivity (corrupt inputs must yield failing reports with witnesses),
and the regression pinning the third-sum factorial-weight discrepancy."""

import dataclasses
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from degenbern import (
    EvaluatedDomain,
    HigherOrderContext,
    LAMBDA,
    LambdaPoly,
    LaurentSeries,
    SYMBOLIC,
    coeff_triangle,
    degenerate_stirling2,
    scaled_stirling_triangle,
    stirling1_signed,
    verify_all,
    verify_classical_derivative,
    verify_convolution,
    verify_higher_order,
    verify_ode,
    verify_route_agreement_a,
    verify_route_agreement_b,
    verify_route_agreement_bell,
    verify_route_agreement_stirling,
    verify_singular,
    verify_stirling_limit,
)
from degenbern import bernoulli, ode_coeffs, scalars, series
from degenbern import verify as verify_module


def bumped_rows(table, n, k, delta=1):
    """A copy of a triangle (coefficient or Stirling) with entry k of row
    n moved by delta."""
    rows = [list(r) for r in table.rows]
    rows[n][k] = rows[n][k] + delta
    return dataclasses.replace(table, rows=tuple(tuple(r) for r in rows))


def corrupted_triangle(n_max, domain, i, N, delta=1):
    return bumped_rows(coeff_triangle(n_max, domain), N, i, delta)


def test_ode_passes_and_reports_window():
    r = verify_ode(3, 14)
    assert r.verdict
    assert r.identity == "ode_family"
    assert r.parameters == {"N": 3, "order": 14, "lambda": "sym"}
    assert r.compared["exponent_low"] == -4
    assert r.compared["exponent_high"] > 0
    assert r.witness is None


def test_ode_passes_evaluated_domain():
    dom = EvaluatedDomain(Fraction(2, 3))
    for N in (1, 2, 4):
        assert verify_ode(N, 12, dom).verdict


def test_ode_fault_injection():
    bad = corrupted_triangle(2, SYMBOLIC, 1, 2)
    r = verify_ode(2, 10, SYMBOLIC, bad)
    assert not r.verdict
    assert r.witness is not None
    assert "exponent" in r.witness
    assert r.witness["lhs"] != r.witness["rhs"]


def test_ode_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_ode(0, 10)
    with pytest.raises(ValueError):
        verify_ode(2, 1)


def test_convolution_passes():
    for n in range(1, 9):
        r = verify_convolution(n)
        assert r.verdict
        assert r.identity == "cor_3_4"
        assert r.compared == {"j_low": 1, "j_high": n}


def test_convolution_fault_injection():
    bad = corrupted_triangle(5, SYMBOLIC, 2, 4)
    r = verify_convolution(5, SYMBOLIC, bad)
    assert not r.verdict
    assert r.witness["j"] >= 1
    assert r.witness["lhs"] != r.witness["rhs"]


@pytest.mark.parametrize("n", range(2, 7))
def test_convolution_window(n):
    seen = [(i, n) for i in range(1, n)] + [(i, n - 1) for i in range(n)]
    for i, N in seen:
        bad = corrupted_triangle(n, SYMBOLIC, i, N)
        assert not verify_convolution(n, SYMBOLIC, bad).verdict
    # the documented blind spot: (0, n) cancels and (n, n) is never read
    for i in (0, n):
        blind = corrupted_triangle(n, SYMBOLIC, i, n)
        assert verify_convolution(n, SYMBOLIC, blind).verdict


def test_classical_derivative_passes():
    for N in range(1, 7):
        assert verify_classical_derivative(N, 14, "eq41").verdict
        assert verify_classical_derivative(N, 14, "eq42").verdict
    r = verify_classical_derivative(2, 14, "eq41")
    assert r.identity == "eq_41"
    assert r.parameters["lambda"] == "0"


def plant_off_by_one(monkeypatch, owner, name):
    """Rebind owner.name, an integer convolution, so that output 2 of
    every product long enough to have one moves by 1."""
    real = getattr(owner, name)

    def off_by_one(a, b):
        out = real(a, b)
        if len(out) > 2:
            out[2] += 1
        return out

    monkeypatch.setattr(owner, name, off_by_one)


def test_evaluated_product_fault_fails_the_product_checks(monkeypatch):
    # at a rational λ a series product is one integer convolution in
    # series._kronecker_product; moving one of its outputs by 1 must
    # fail every verifier built on evaluated products, while Q[λ]
    # products, which convolve in scalars, are untouched
    evaluated = [
        lambda: verify_classical_derivative(3, 10, "eq41"),
        lambda: verify_classical_derivative(3, 10, "eq42"),
        lambda: verify_ode(2, 8, EvaluatedDomain(Fraction(7, 3))),
    ]
    assert all(check().verdict for check in evaluated)
    plant_off_by_one(monkeypatch, series, "_kronecker_product")
    for check in evaluated:
        r = check()
        assert not r.verdict
        assert r.witness["lhs"] != r.witness["rhs"]
    assert verify_ode(2, 8, SYMBOLIC).verdict


def evaluated_products_pass():
    return (verify_ode(2, 8, EvaluatedDomain(Fraction(7, 3))).verdict
            and verify_classical_derivative(3, 10, "eq41").verdict)


def assert_fails_with_witness(report):
    assert not report.verdict
    assert report.witness


def test_short_symbolic_product_fault_fails_the_symbolic_checks(monkeypatch):
    # a λ-polynomial product with a short operand convolves term by term
    # in scalars._schoolbook_product; every symbolic family reads such
    # products, and no evaluated check does
    plant_off_by_one(monkeypatch, scalars, "_schoolbook_product")
    for report in (
        verify_ode(2, 8, SYMBOLIC),
        verify_convolution(5),
        verify_higher_order(2, 3),
        verify_route_agreement_a(4),
        verify_route_agreement_b(6),
        verify_route_agreement_stirling(6),
    ):
        assert_fails_with_witness(report)
    assert evaluated_products_pass()


def test_long_symbolic_product_fault_fails_the_symbolic_checks(monkeypatch):
    # λ-polynomial products whose shorter operand is long pack in
    # scalars._kronecker_product; the explicit forms of the Bernoulli
    # rows past n = 12 reach them
    plant_off_by_one(monkeypatch, scalars, "_kronecker_product")
    assert_fails_with_witness(verify_route_agreement_b(14))
    assert evaluated_products_pass()


def plant_in_packed_run(monkeypatch):
    """Rebind the packed dot-product kernel, PackedRun.dots, which every
    one-shot sum of products over Q[λ] and every step of a symbolic
    reciprocal or recurrence run goes through, so that coefficient 2 of
    every sum of degree 2 or more moves by 1 over the sum's reduced
    denominator."""
    real = scalars.PackedRun.dots

    def off_by_one(run, lefts, rights, rows):
        return [p + LAMBDA**2 * Fraction(1, p.denominator) if p.degree >= 2 else p
                for p in real(run, lefts, rights, rows)]

    monkeypatch.setattr(scalars.PackedRun, "dots", off_by_one)


def test_packed_dot_fault_fails_the_symbolic_checks(monkeypatch):
    # the Q[λ] series product (through scalars.rational_dots), the
    # symbolic reciprocal and the symbolic Bernoulli recurrence sum their
    # products in scalars.PackedRun.dots; evaluated sums never reach it
    F = series.degenerate_log_over_t_series(SYMBOLIC, 8)
    square = F * F
    rows = {(route, domain): getattr(bernoulli, route)(8, domain).values
            for route in ("row_via_series", "row_via_recurrence")
            for domain in (SYMBOLIC, EvaluatedDomain(Fraction(7, 3)))}
    plant_in_packed_run(monkeypatch)
    assert F * F != square
    for (route, domain), values in rows.items():
        planted = getattr(bernoulli, route)(8, domain).values
        assert (planted != values) == domain.is_symbolic, (route, domain)
    for report in (
        verify_ode(4, 16, SYMBOLIC),
        verify_ode(2, 8, SYMBOLIC),
        verify_route_agreement_b(14),
    ):
        assert_fails_with_witness(report)
    assert evaluated_products_pass()


def test_symbolic_series_products_sum_in_packed_dots(monkeypatch):
    # a Q[λ] series product is one packed dot-product call for all its
    # output coefficients, and so are the weighted sum of the powers of F
    # and each symbolic reciprocal step, instead of a λ-polynomial product
    # per term: the counts of verify_ode(4, 12) are pinned, 15 reciprocal
    # steps of one row and six calls of 16 rows (1130 λ-polynomial
    # products when each term was one, 296 when the weighted sum scaled
    # each power and the derivative took four passes, 104 when the
    # series constructors divided each coefficient by a Fraction)
    real_mul, real_dots = LambdaPoly.__mul__, scalars.PackedRun.dots
    products, rows = [], []

    def counted(self, other):
        products.append(None)
        return real_mul(self, other)

    def counted_dots(run, lefts, rights, batch):
        rows.append(len(batch))
        return real_dots(run, lefts, rights, batch)

    monkeypatch.setattr(LambdaPoly, "__mul__", counted)
    monkeypatch.setattr(LambdaPoly, "__rmul__", counted)
    monkeypatch.setattr(scalars.PackedRun, "dots", counted_dots)
    assert verify_ode(4, 12, SYMBOLIC).verdict
    assert (len(products), len(rows), sum(rows)) == (73, 21, 111)


def plant_in_rational_dots(monkeypatch):
    """Rebind rational_dots in every module that calls it so that the
    first output of every call moves by 1."""
    real = scalars.rational_dots

    def off_by_one(domain, lefts, rights, rows):
        out = real(domain, lefts, rights, rows)
        if out:
            out[0] += 1
        return out

    for owner in (series, verify_module):
        monkeypatch.setattr(owner, "rational_dots", off_by_one)


def test_rational_dot_fault_fails_the_checks_that_sum_through_it(monkeypatch):
    # Theorem 4.1's reconstruction and its singular part, the weighted
    # sums of powers and the Q[λ] series product all sum in
    # scalars.rational_dots, in both domains
    plant_in_rational_dots(monkeypatch)
    for report in (
        verify_higher_order(2, 3),
        verify_higher_order(1, 2, EvaluatedDomain(Fraction(7, 3))),
        verify_singular(-1, 3),
        verify_singular(-2, 4, EvaluatedDomain(Fraction(-2, 5))),
        verify_ode(4, 12, SYMBOLIC),
        verify_ode(2, 8, EvaluatedDomain(Fraction(7, 3))),
        verify_classical_derivative(3, 10, "eq41"),
    ):
        assert_fails_with_witness(report)


def corrupt_power(mp, owner, index=1, hit=lambda base: True, table="powers"):
    """Rebind the power table owner.<table> so that body coefficient
    index of the square it returns moves by 1 wherever hit(base) holds."""
    real = getattr(owner, table)

    def tampered(base, count):
        out = real(base, count)
        if count > 1 and hit(base):
            square = out[1]
            body = square.body if isinstance(square, LaurentSeries) else square
            coeffs = list(body.coeffs)
            coeffs[index] += 1
            bumped = series.TruncatedSeries(body.domain, coeffs)
            out[1] = LaurentSeries(square.pole, bumped) if body is not square else bumped
        return out

    mp.setattr(owner, table, tampered)


def test_corrupted_power_fails_every_report_that_reads_it(monkeypatch):
    # every ode, eq41 and eq42 report weighs the square of its series
    # with a nonzero entry, so one wrong coefficient of it fails them all
    corrupt_power(monkeypatch, verify_module)
    reports = verify_module.suite_reports(("ode", "eq41", "eq42"), SYMBOLIC, 4, 4, 8, 0)
    reports.append(verify_ode(2, 8, EvaluatedDomain(Fraction(7, 3))))
    identities = ["ode_family"] * 4 + ["eq_41"] * 4 + ["eq_42"] * 4 + ["ode_family"]
    assert [r.identity for r in reports] == identities
    for r in reports:
        assert not r.verdict
        assert r.witness["lhs"] != r.witness["rhs"]


@pytest.mark.parametrize("triangle, index, position", [
    ("scaled", 1, {"N": 3, "k": 2}),
    ("degenerate_second", 0, {"n": 2, "k": 2}),
])
@pytest.mark.parametrize("dom", [SYMBOLIC, EvaluatedDomain(Fraction(-2, 5))], ids=["sym", "-2/5"])
def test_corrupted_power_fails_the_stirling_triangle_that_reads_it(
    triangle, index, position, dom, monkeypatch
):
    # the generating-function triangles read column k = 2 off the square
    # of their base: entry (N, 2) of the scaled one from coefficient N-2
    # of s^2, entry (n, 2) of the deformed one from coefficient n-2 of
    # ((e_λ(t) - 1)/t)^2.  Both bases start with 1; their t coefficients
    # are (λ-1)/2 for s and (1-λ)/2 for (e_λ(t) - 1)/t.
    from degenbern import combinatorics

    assert verify_route_agreement_stirling(4, dom).verdict
    scaled = triangle == "scaled"
    corrupt_power(monkeypatch, combinatorics, index,
                  lambda s: (s[1] == (s.domain.lam - 1) / 2) == scaled, "truncated_powers")
    r = verify_route_agreement_stirling(4, dom)
    assert not r.verdict
    assert {key: r.witness[key] for key in (*position, "triangle")} == {
        **position, "triangle": triangle}
    assert r.witness["generating_function"] != r.witness["bell_formula"]
    if scaled:
        assert not verify_stirling_limit(4).verdict


@pytest.mark.parametrize("dom", [SYMBOLIC, EvaluatedDomain(Fraction(-2, 5))], ids=["sym", "-2/5"])
def test_corrupted_stirling_row_fails_both_routes_that_read_it(dom, monkeypatch):
    # the triangle's Stirling route and the Stirling form of the
    # Bernoulli values read the same integer rows, so one wrong entry of
    # row 3 fails a_routes at (1, 3) and b_routes at n = 3
    real = ode_coeffs.scaled_stirling_row

    def tampered(N, domain, xs):
        row = real(N, domain, xs)
        if N == 3:
            row[1] += 1
        return row

    for owner in (ode_coeffs, bernoulli):
        monkeypatch.setattr(owner, "scaled_stirling_row", tampered)
    a = verify_route_agreement_a(4, dom)
    b = verify_route_agreement_b(4, dom)
    assert not a.verdict and not b.verdict
    assert (a.witness["i"], a.witness["N"], a.witness["route"]) == (1, 3, "stirling")
    assert (b.witness["n"], b.witness["route"]) == (3, "stirling_form")
    for r in (a, b):
        assert r.witness["reference"] != r.witness["value"]


@pytest.mark.parametrize("dom", [SYMBOLIC, EvaluatedDomain(Fraction(-2, 5))], ids=["sym", "-2/5"])
def test_corrupted_alternating_sum_fails_every_route_that_reads_it(dom, monkeypatch):
    # the triangle's falling route, the falling form of the Bernoulli
    # values and the Bell-formula deformed Stirling triangle read the same
    # alternating falling sums; D_0 at n = 3 enters only c_0(3), b_3 (and
    # b_4) and S(3, 0), so a +1 there fails a_routes at (0, 3), b_routes at
    # n = 3 and stirling_routes at (3, 0)
    from degenbern import combinatorics

    def reports():
        return (verify_route_agreement_a(3, dom), verify_route_agreement_b(4, dom),
                verify_route_agreement_stirling(3, dom))

    assert all(r.verdict for r in reports())
    real = combinatorics.alternating_falling_sums

    def tampered(a, b, n, one):
        sums = real(a, b, n, one)
        if n == 3:
            sums[0] += 1
        return sums

    for owner in (ode_coeffs, combinatorics):
        monkeypatch.setattr(owner, "alternating_falling_sums", tampered)
    a, b, s = reports()
    assert not (a.verdict or b.verdict or s.verdict)
    assert (a.witness["i"], a.witness["N"], a.witness["route"]) == (0, 3, "falling")
    assert (b.witness["n"], b.witness["route"]) == (3, "falling_form")
    assert (s.witness["n"], s.witness["k"], s.witness["triangle"]) == (3, 0, "degenerate_second")
    for r in (a, b):
        assert r.witness["reference"] != r.witness["value"]
    assert s.witness["generating_function"] != s.witness["bell_formula"]


@pytest.mark.parametrize("dom", [SYMBOLIC, EvaluatedDomain(Fraction(-2, 5))], ids=["sym", "-2/5"])
def test_corrupted_exp_coefficient_fails_both_identities_that_read_it(dom, monkeypatch):
    # the convolution identity weighs with the coefficients of the
    # deformed exponential, and the generating-function deformed Stirling
    # triangle reads the powers of the same series: a +1 at t^2 fails
    # cor_3_4 at j = 2 and stirling_routes at (2, 1)
    from degenbern import combinatorics

    assert verify_convolution(5, dom).verdict
    assert verify_route_agreement_stirling(5, dom).verdict
    real = series.degenerate_exp_series

    def tampered(domain, order):
        coeffs = list(real(domain, order).coeffs)
        if order > 2:
            coeffs[2] += 1
        return series.TruncatedSeries(domain, coeffs)

    for owner in (verify_module, combinatorics):
        monkeypatch.setattr(owner, "degenerate_exp_series", tampered)
    c = verify_convolution(5, dom)
    s = verify_route_agreement_stirling(5, dom)
    assert not c.verdict and not s.verdict
    assert c.witness["j"] == 2
    assert c.witness["lhs"] != c.witness["rhs"]
    assert (s.witness["n"], s.witness["k"], s.witness["triangle"]) == (2, 1, "degenerate_second")
    assert s.witness["generating_function"] != s.witness["bell_formula"]


def test_classical_derivative_rejects_unknown():
    with pytest.raises(ValueError):
        verify_classical_derivative(2, 10, "eq99")


def test_higher_order_reconstruction_grid():
    ctx = HigherOrderContext(SYMBOLIC, 4, 9)
    for N in range(1, 5):
        for j in range(6):
            r = verify_higher_order(j, N, SYMBOLIC, ctx)
            assert r.verdict, (j, N)
            assert r.details["third_sum_weight"] == "j!/(l+i)!"


def test_printed_weight_variant_regression():
    # the printed statement's third-sum weight only coincides at two
    # small grid points; (j, N) = (1, 1) is the first counterexample
    ctx = HigherOrderContext(SYMBOLIC, 2, 6)
    assert verify_higher_order(0, 1, SYMBOLIC, ctx).details[
        "printed_weight_variant_matches"
    ]
    assert verify_higher_order(0, 2, SYMBOLIC, ctx).details[
        "printed_weight_variant_matches"
    ]
    for j, N in ((1, 1), (2, 1), (1, 2), (3, 2)):
        r = verify_higher_order(j, N, SYMBOLIC, ctx)
        assert r.verdict
        assert not r.details["printed_weight_variant_matches"], (j, N)


def recip_factorial(m):
    return Fraction(1, factorial(m)) if m >= 0 else Fraction(0)


def theorem_4_1_sums(j, N, ctx, printed):
    """The three sums of Theorem 4.1 for coefficient index j, as printed,
    in plain Fractions from the context's rows:

        sum_{l=-N}^{j} (-1)^(N+j+l) C(N+j-l-1, j-l) w
            [ sum_i c_i(N) b^(i+1)_(l+i) / (l+i)!
              - N sum_i c_i(N-1) b^(i+1)_(l+i+1) / (l+i+1)!
              - N sum_i c_i(N-1) b^(i+1)_(l+i) / (l+i)! ],

    with w = j! (1 for j < 0), the last weight read as 1/(l+1)! when
    ``printed``, and 1/m! = 0 for m < 0."""
    w = factorial(j) if j >= 0 else 1
    a, a1 = ctx.coeffs.row(N), ctx.coeffs.row(N - 1)

    def b(r, idx):
        return ctx.b(r, idx) if idx >= 0 else Fraction(0)

    total = Fraction(0)
    for l in range(-N, j + 1):
        outer = (-1) ** (N + j + l) * comb(N + j - l - 1, j - l) * w
        first = sum(a[i] * b(i + 1, l + i) * recip_factorial(l + i) for i in range(N + 1))
        second = sum(a1[i] * b(i + 1, l + i + 1) * recip_factorial(l + i + 1) for i in range(N))
        third = sum(a1[i] * b(i + 1, l + i) * recip_factorial(l + 1 if printed else l + i)
                    for i in range(N))
        total += outer * (first - N * second - N * third)
    return total


@pytest.mark.parametrize("lam", [Fraction(7, 3), Fraction(-2, 5)], ids=["7/3", "-2/5"])
def test_reconstruction_matches_the_sums_as_printed(lam):
    # both readings of the one-pass reconstruction against the three sums
    # written out term by term; the printed weight reproduces b_(j+N)
    # only at (j, N) = (0, 1) and (0, 2), as in the symbolic regression
    dom = EvaluatedDomain(lam)
    ctx = HigherOrderContext(dom, 4, 9)
    for N in range(1, 5):
        for j in range(6):
            rhs = theorem_4_1_sums(j, N, ctx, printed=False)
            printed = theorem_4_1_sums(j, N, ctx, printed=True)
            assert verify_module._reconstruction(j, N, ctx, dom) == (rhs, printed)
            assert rhs == ctx.b(1, j + N)
            r = verify_higher_order(j, N, dom, ctx)
            assert r.verdict
            assert r.details["printed_weight_variant_matches"] is (printed == rhs)
            assert (printed == rhs) is ((j, N) in ((0, 1), (0, 2))), (j, N)
        for j in range(-(N - 1), 0):
            value = theorem_4_1_sums(j, N, ctx, printed=False)
            assert value == 0
            assert verify_module._reconstruction(j, N, ctx, dom)[0] == value
            assert verify_singular(j, N, dom, ctx).verdict


def test_higher_order_fault_injection():
    ctx = HigherOrderContext(SYMBOLIC, 2, 5)
    row = list(ctx._rows[2])
    row[3] = row[3] + 1
    ctx._rows[2] = tuple(row)
    r = verify_higher_order(2, 2, SYMBOLIC, ctx)
    assert not r.verdict
    assert r.witness["index"] == 4


@pytest.mark.parametrize("domain", [SYMBOLIC, EvaluatedDomain(Fraction(7, 3)),
                                    EvaluatedDomain(Fraction(-2, 5))], ids=["sym", "7/3", "-2/5"])
def test_context_rows_are_the_order_r_rows(domain):
    # the context keeps the series coefficients b^(r)_idx / idx! and b
    # multiplies idx! back on read; convolution_row convolves the
    # recurrence row and shares no code with the reciprocal's powers
    ctx = HigherOrderContext(domain, 4, 9)
    for r in range(1, 6):
        expected = bernoulli.convolution_row(r, 9, domain).values
        assert [ctx.b(r, idx) for idx in range(10)] == list(expected), r


def test_higher_order_context_validation():
    ctx = HigherOrderContext(SYMBOLIC, 2, 4)
    with pytest.raises(ValueError):
        verify_higher_order(5, 2, SYMBOLIC, ctx)
    with pytest.raises(ValueError):
        verify_higher_order(1, 1, EvaluatedDomain(Fraction(1, 2)), ctx)
    with pytest.raises(ValueError):
        verify_higher_order(-1, 1)


def test_route_reports_take_a_given_triangle(monkeypatch):
    # a triangle of another domain is a usage error, not a failed identity
    half, third = EvaluatedDomain(Fraction(1, 2)), EvaluatedDomain(Fraction(1, 3))
    with pytest.raises(ValueError):
        verify_ode(2, 8, SYMBOLIC, coeff_triangle(2, half))
    with pytest.raises(ValueError):
        verify_ode(3, 8, half, coeff_triangle(2, half))
    with pytest.raises(ValueError):
        verify_convolution(3, half, coeff_triangle(3, third))
    with pytest.raises(ValueError):
        verify_convolution(3, half, coeff_triangle(2, half))
    assert verify_ode(2, 8, half, coeff_triangle(4, half)).verdict
    assert verify_convolution(3, half, coeff_triangle(4, half)).verdict
    # the a-route agreement and the limit build their own reference
    # triangle: a corrupted entry in it fails the report
    bump_triangle(monkeypatch, "coeff_triangle", 2, 1, lambda *a: True)
    assert not verify_route_agreement_a(3, EvaluatedDomain(Fraction(-2, 3))).verdict
    assert not verify_stirling_limit(3).verdict


def test_singular_part_vanishes():
    ctx = HigherOrderContext(SYMBOLIC, 5, 4)
    for N in range(2, 6):
        for j in range(-(N - 1), 0):
            r = verify_singular(j, N, SYMBOLIC, ctx)
            assert r.verdict, (j, N)
            assert r.identity == "cor_4_2"


def test_singular_band_validation():
    with pytest.raises(ValueError):
        verify_singular(0, 2)
    with pytest.raises(ValueError):
        verify_singular(-2, 2)
    with pytest.raises(ValueError):
        verify_singular(-1, 1)


def test_singular_fault_injection():
    # b^(2)_1 enters the (j, N) = (-1, 2) cancellation exactly once
    ctx = HigherOrderContext(SYMBOLIC, 3, 2)
    row = list(ctx._rows[2])
    row[1] = row[1] + LambdaPoly((0, 1))
    ctx._rows[2] = tuple(row)
    r = verify_singular(-1, 2, SYMBOLIC, ctx)
    assert not r.verdict
    assert r.witness["value"] != ["0"]


def test_route_agreement_suites_pass():
    assert verify_route_agreement_a(6).verdict
    assert verify_route_agreement_b(8).verdict
    assert verify_route_agreement_bell(7).verdict
    assert verify_route_agreement_stirling(7).verdict
    assert verify_stirling_limit(8).verdict


def test_route_agreement_at_lambda_zero_skips_falling():
    dom = EvaluatedDomain(Fraction(0))
    r = verify_route_agreement_a(5, dom)
    assert r.verdict
    assert r.details == {"skipped_routes": ["falling"]}


def test_route_agreement_fault_injection(monkeypatch):
    real = bernoulli.row_via_multinomial

    def tampered(n_max, domain):
        row = real(n_max, domain)
        values = list(row.values)
        values[4] = values[4] + 1
        return bernoulli.BernoulliRow(domain, 1, "multinomial", tuple(values))

    monkeypatch.setattr(bernoulli, "row_via_multinomial", tampered)
    r = verify_route_agreement_b(6)
    assert not r.verdict
    assert r.witness["route"] == "multinomial"
    assert r.witness["n"] == 4


def test_route_agreement_catches_a_walk_product_past_the_head(monkeypatch):
    # +1 in the last node product of the symbolic walk, which the
    # depth-first part past _WALK_HEAD takes; LambdaPoly.__mul__ is
    # wrapped only while row_via_multinomial runs
    real_row, real_mul = bernoulli.row_via_multinomial, scalars.LambdaPoly.__mul__

    def tampered(n_max, domain):
        last = 2**n_max - 1 + n_max * (n_max + 1) // 2 + n_max
        calls = []

        def mul(a, b):
            calls.append(None)
            product = real_mul(a, b)
            return product + 1 if len(calls) == last else product

        scalars.LambdaPoly.__mul__ = mul
        try:
            return real_row(n_max, domain)
        finally:
            scalars.LambdaPoly.__mul__ = real_mul

    monkeypatch.setattr(bernoulli, "row_via_multinomial", tampered)
    r = verify_route_agreement_b(14)
    assert not r.verdict
    assert r.witness["route"] == "multinomial"
    assert r.witness["n"] > bernoulli._WALK_HEAD


def test_agreement_stops_at_the_first_disagreement(monkeypatch):
    # a route that disagrees ends the report: no later route is computed
    bump_row(monkeypatch, "row_via_recurrence", 2)
    later = []
    for name in ("row_via_multinomial", "row_via_explicit", "row_higher_order"):
        monkeypatch.setattr(bernoulli, name, lambda *a, name=name: later.append(name))
    report = verify_route_agreement_b(4)
    assert report.witness["route"] == "recurrence"
    assert later == []


def test_a_routes_stop_at_the_first_failing_row(monkeypatch):
    # the rows of N = 2 disagree: no route computes row 3 or later
    calls = []
    for name in ("coeff_explicit_stirling", "coeff_explicit_falling", "coeff_unrolled_recurrence"):
        real = getattr(verify_module, name)

        def logged(N, d, real=real, name=name):
            calls.append((name, N))
            row = real(N, d)
            return row[:-1] + (row[-1] + 1,) if N == 2 and "stirling" in name else row

        monkeypatch.setattr(verify_module, name, logged)
    report = verify_route_agreement_a(5)
    assert report.witness == {"i": 2, "N": 2, "route": "stirling", "reference": ["2"], "value": ["3"]}
    assert max(N for _, N in calls) == 2


def test_verify_all_small():
    reports = verify_all(N_max=3, n_max=4, order=12, max_j=2)
    assert all(r.verdict for r in reports)
    idents = [r.identity for r in reports]
    assert idents.count("ode_family") == 3
    assert idents.count("cor_3_4") == 4
    assert idents.count("eq_41") == 3
    assert idents.count("eq_42") == 4
    assert idents.count("thm_4_1") == 9
    assert idents.count("cor_4_2") == 1 + 2
    for token in ("a_routes", "b_routes", "bell_routes", "stirling_routes", "stirling_limit"):
        assert idents.count(token) == 1
    # deterministic ordering: families appear as contiguous blocks
    assert idents == sorted(idents, key=idents.index)


def test_verify_all_default_order():
    reports = verify_all(2, 3, max_j=1)
    # 2 max(N_max, n_max) + 8
    assert {r.parameters["order"] for r in reports if "order" in r.parameters} == {14}
    assert all(r.verdict for r in reports)


# builders and reports given a size that computes nothing
SIZE_ERRORS = {
    "row_via_recurrence": lambda: bernoulli.row_via_recurrence(-1, SYMBOLIC),
    "convolution_row": lambda: bernoulli.convolution_row(2, -1, SYMBOLIC),
    "classical_row": lambda: bernoulli.classical_row(-1, "stirling"),
    "stirling1_signed": lambda: stirling1_signed(-1),
    **{f"{builder.__name__}.{via}": (lambda builder=builder, via=via:
                                     builder(-1, SYMBOLIC, via=via))
       for builder in (degenerate_stirling2, scaled_stirling_triangle)
       for via in ("generating_function", "bell_formula")},
    "bell_routes": lambda: verify_route_agreement_bell(-1),
    "stirling_routes": lambda: verify_route_agreement_stirling(-1),
    "a_routes": lambda: verify_route_agreement_a(0),
}


@pytest.mark.parametrize("case", SIZE_ERRORS)
def test_sizes_that_compute_nothing_are_rejected(case):
    with pytest.raises(ValueError):
        SIZE_ERRORS[case]()


# suite runs (suites, N_max, n_max, order, max_j) that would compare nothing
EMPTY_SUITE_RUNS = {
    "ode at N_max 0": (("ode",), 0, 2, 8, 2),
    "thm41 at max_j -1": (("thm41",), 2, 2, 8, -1),
    "thm41 at order 1": (("thm41",), 2, 2, 1, 2),
    "cor42 at N_max 1": (("cor42",), 1, 1, 8, 2),
    "cor34 at n_max 0": (("cor34",), 2, 0, 8, 2),
}


@pytest.mark.parametrize("case", EMPTY_SUITE_RUNS)
def test_suite_runs_that_compare_nothing_are_rejected(case):
    suites, N_max, n_max, order, max_j = EMPTY_SUITE_RUNS[case]
    with pytest.raises(ValueError):
        verify_module.suite_reports(suites, SYMBOLIC, N_max, n_max, order, max_j)


def test_verify_all_runs_where_one_suite_is_empty():
    # cor42 yields nothing at N_max = 1, but the other families do
    reports = verify_all(1, 1)
    idents = {r.identity for r in reports}
    assert "cor_4_2" not in idents and "thm_4_1" in idents
    assert all(r.verdict for r in reports)


def test_verify_all_builds_four_coefficient_triangles(monkeypatch):
    real = verify_module.coeff_triangle
    calls = []

    def logged(n_max, domain):
        calls.append(n_max)
        return real(n_max, domain)

    monkeypatch.setattr(verify_module, "coeff_triangle", logged)
    reports = verify_all(4, 4, order=14, max_j=2)
    assert all(r.verdict for r in reports)
    # one triangle for the ode/cor34 suites, one that the reconstruction
    # context builds itself, then one each for the a-route agreement and
    # the limit
    assert calls == [4, 4, 4, 4]


def test_verify_all_builds_one_power_table_per_family(monkeypatch):
    calls = []

    def logged(name):
        real = getattr(verify_module, name)

        def build(*args):
            calls.append((name, args[-1]))
            return real(*args)

        monkeypatch.setattr(verify_module, name, build)

    for name in ("degenerate_log_reciprocal", "classical_log_reciprocal",
                 "degenerate_log_over_t_series"):
        logged(name)
    reports = verify_all(4, 4, order=14, max_j=2)
    assert all(r.verdict for r in reports)
    # F at order 14 + 4 for the ode suite, F0 at the same order for eq41
    # and eq42 together, and the reconstruction context's own base
    # through index max_j + N_max
    assert sorted(calls) == [("classical_log_reciprocal", 18),
                             ("degenerate_log_over_t_series", 7),
                             ("degenerate_log_reciprocal", 18)]


SUITE_DOMAINS = [SYMBOLIC, EvaluatedDomain(Fraction(7, 3)),
                 EvaluatedDomain(Fraction(-2, 5)), EvaluatedDomain(1)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.integers(2, 20), st.sampled_from(SUITE_DOMAINS))
def test_suite_reports_equal_the_standalone_reports(N_max, n_max, order, dom):
    # each report of a suite run cuts the run's power table to the order
    # a standalone call builds, so the two are the same document
    got = verify_module.suite_reports(("ode", "eq41", "eq42"), dom, N_max, n_max, order, 0)
    expected = (
        [verify_ode(N, order, dom) for N in range(1, N_max + 1)]
        + [verify_classical_derivative(N, order, "eq41") for N in range(1, N_max + 1)]
        + [verify_classical_derivative(n, order, "eq42") for n in range(1, n_max + 1)]
    )
    assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in expected]


def bumped_power(p, index):
    """A copy of the Laurent series p with body coefficient index moved
    by 1."""
    coeffs = list(p.body.coeffs)
    coeffs[index] += 1
    return LaurentSeries(p.pole, series.TruncatedSeries(p.domain, coeffs))


@pytest.mark.parametrize("suites, table, failing", [
    (("ode",), "ode_powers", "ode_family"),
    # eq42 reads its F0 body one coefficient less far than eq41
    (("eq41", "eq42"), "classical_powers", "eq_41"),
])
@pytest.mark.parametrize("dom", [SYMBOLIC, EvaluatedDomain(Fraction(7, 3))], ids=["sym", "7/3"])
def test_a_fault_at_the_cut_fails_only_the_largest_report(suites, table, failing, dom):
    # report N cuts the run's F to order + N and reads all of it, so the
    # last body coefficient of the shared F, at order + N_max - 1, is
    # read by the N = N_max report alone.  Report N reads F**k only
    # through body index order - 2 + k, so the same coefficient of the
    # square is read by no report.
    N_max, order = 4, 10

    def failures(power):
        run = verify_module._SuiteRun(suites, dom, N_max, N_max, order, 0)
        pows = list(getattr(run, table))
        pows[power] = bumped_power(pows[power], order + N_max - 1)
        setattr(run, table, pows)
        return [(r.identity, r.parameters["N"]) for r in run.reports() if not r.verdict]

    assert failures(0) == [(failing, N_max)]
    assert failures(1) == []


def test_a_given_power_table_is_checked():
    # a table too short, with too few powers or of another domain is a
    # usage error, not a failed identity; a larger one is cut to size
    sevens = EvaluatedDomain(Fraction(7, 3))
    table = series.powers(series.degenerate_log_reciprocal(SYMBOLIC, 12), 4)
    for args in [(3, 10, SYMBOLIC), (4, 8, SYMBOLIC), (2, 8, sevens)]:
        with pytest.raises(ValueError):
            verify_ode(*args, table=table)
    assert verify_ode(3, 9, table=table) == verify_ode(3, 9)
    classical = series.powers(series.classical_log_reciprocal(12), 4)
    for N, order, t in [(3, 10, classical), (4, 8, classical), (2, 8, table)]:
        with pytest.raises(ValueError):
            verify_classical_derivative(N, order, "eq42", table=t)
    assert (verify_classical_derivative(3, 9, "eq42", table=classical)
            == verify_classical_derivative(3, 9, "eq42"))


def test_verify_all_builds_one_scaled_stirling_triangle(monkeypatch):
    real = verify_module.scaled_stirling_triangle
    calls = []

    def logged(n_max, domain, via="generating_function"):
        calls.append((n_max, via))
        return real(n_max, domain, via=via)

    monkeypatch.setattr(verify_module, "scaled_stirling_triangle", logged)
    reports = verify_all(4, 4, order=14, max_j=2)
    assert all(r.verdict for r in reports)
    # one generating-function table each for the route agreement and the
    # Stirling limit, and one Bell-formula table for the route agreement
    assert calls == [(4, "bell_formula"), (4, "generating_function"),
                     (4, "generating_function")]
    # standalone, a failing deformed pair still builds no scaled table
    calls.clear()
    bump_triangle(monkeypatch, "degenerate_stirling2", 3, 2,
                  lambda n, d, via="generating_function": via == "bell_formula")
    assert not verify_route_agreement_stirling(4).verdict
    assert calls == []


def test_report_json_shape():
    r = verify_ode(2, 10)
    d = r.to_json_dict()
    assert list(d.keys()) == [
        "identity",
        "parameters",
        "verdict",
        "compared",
        "witness",
        "details",
    ]
    assert d["verdict"] == "pass"
    bad = verify_ode(2, 10, SYMBOLIC, corrupted_triangle(2, SYMBOLIC, 0, 2))
    d2 = bad.to_json_dict()
    assert d2["verdict"] == "fail"
    assert isinstance(d2["witness"]["exponent"], int)


# ---------------------------------------------------------------------------
# the witness of every verifier, pinned: keys, key order and rendering

DOMAINS = {"sym": SYMBOLIC, "-2/5": EvaluatedDomain(Fraction(-2, 5)), "0": EvaluatedDomain(0)}


def bump_where(mp, owner, name, hit):
    """Rebind owner.name so that its value moves by 1 wherever
    hit(*args) holds."""
    real = getattr(owner, name)
    mp.setattr(owner, name, lambda *a, **kw: real(*a, **kw) + (1 if hit(*a, **kw) else 0))


def bump_row(mp, name, n, hit=lambda *a: True):
    """Rebind bernoulli.name so that value n of the rows it returns moves
    by 1 wherever hit(*args) holds."""
    real = getattr(bernoulli, name)

    def tampered(*a, **kw):
        row = real(*a, **kw)
        if not hit(*a, **kw):
            return row
        values = list(row.values)
        values[n] = values[n] + 1
        return dataclasses.replace(row, values=tuple(values))

    mp.setattr(bernoulli, name, tampered)


def bump_triangle(mp, name, n, k, hit):
    """Rebind verify.name so that entry k of row n of the triangles
    (coefficient or Stirling) it returns moves by 1 wherever hit(*args)
    holds."""
    real = getattr(verify_module, name)
    mp.setattr(verify_module, name, lambda *a, **kw: (
        bumped_rows(real(*a, **kw), n, k) if hit(*a, **kw) else real(*a, **kw)))


def fault_a(route):
    name = {"stirling": "coeff_explicit_stirling", "falling": "coeff_explicit_falling",
            "unrolled": "coeff_unrolled_recurrence"}[route]

    def run(mp, dom):
        real = getattr(verify_module, name)

        def tampered(N, d):
            row = real(N, d)
            return row[:1] + (row[1] + 1,) + row[2:] if N == 3 else row

        mp.setattr(verify_module, name, tampered)
        return verify_route_agreement_a(3, dom)
    return run


def fault_b(route):
    def run(mp, dom):
        if route in bernoulli.EXPLICIT_FORMS:
            bump_row(mp, "row_via_explicit", 3, lambda n, d, form="a_form": form == route)
        else:
            bump_row(mp, "row_via_" + route, 3)
        return verify_route_agreement_b(4, dom)
    return run


def fault_order_r(name, r):
    def run(mp, dom):
        bump_row(mp, name, 2, lambda order, n, d: order == r)
        return verify_route_agreement_b(4, dom)
    return run


def fault_series(mp, dom):
    # +1 in the u^3 coefficient of the series the reference row inverts
    real = bernoulli.degenerate_log_over_t_series_in_u

    def tampered(d, order):
        cs = list(real(d, order).coeffs)
        cs[3] += 1
        return series.TruncatedSeries(d, cs, order)

    mp.setattr(bernoulli, "degenerate_log_over_t_series_in_u", tampered)
    return verify_route_agreement_b(4, dom)


def fault_classical(which):
    def run(mp, dom):
        bump_triangle(mp, "stirling1_signed", 2, 1, lambda *a: True)
        return verify_classical_derivative(2, 4, which)
    return run


def fault_bell(family):
    def hit(n, k, xs, via="partition_sum"):
        deformed = isinstance(xs[0], LambdaPoly)
        return (n, k, via, deformed) == (4, 2, "generating_function", family == "deformed")

    def run(mp, dom):
        bump_where(mp, verify_module, "bell_partial", hit)
        return verify_route_agreement_bell(4)
    return run


def fault_stirling_triangle(mp, dom):
    bump_triangle(mp, "degenerate_stirling2", 3, 2,
                  lambda n, d, via="generating_function": via == "bell_formula")
    return verify_route_agreement_stirling(3, dom)


def fault_stirling_scaled(mp, dom):
    bump_triangle(mp, "scaled_stirling_triangle", 3, 1,
                  lambda n, d, via="generating_function": via == "generating_function")
    return verify_route_agreement_stirling(3, dom)


def fault_limit_scaled(mp, dom):
    bump_triangle(mp, "scaled_stirling_triangle", 3, 1, lambda *a, **kw: True)
    return verify_stirling_limit(3)


def fault_limit_coeffs(mp, dom):
    bump_triangle(mp, "coeff_triangle", 2, 1, lambda *a: True)
    return verify_stirling_limit(3)


def _ctx(dom, max_index):
    ctx = HigherOrderContext(dom, 2, max_index)
    ctx.coeffs = corrupted_triangle(2, dom, 1, 2)
    return ctx


A13 = {"i": 1, "N": 3}
B3 = {"n": 3}
B3_SYM = {"reference": ["1/4", "0", "-1/4"], "value": ["5/4", "0", "-1/4"]}
B3_NEG = {"reference": "21/100", "value": "121/100"}

# identity and planted fault -> (report with the fault, {λ: witness});
# λ = 0 is listed where the verifier accepts it, and None means a pass
WITNESS_CASES = {
    "ode_family": (
        lambda mp, d: verify_ode(2, 4, d, corrupted_triangle(2, d, 1, 2)),
        {"sym": {"exponent": -2, "lhs": ["4"], "rhs": ["5"]},
         "-2/5": {"exponent": -2, "lhs": "4", "rhs": "5"}},
    ),
    "eq_41": (fault_classical("eq41"), {"0": {"exponent": -2, "lhs": "0", "rhs": "-1"}}),
    "eq_42": (fault_classical("eq42"), {"0": {"exponent": -1, "lhs": "0", "rhs": "-1"}}),
    "cor_3_4": (
        lambda mp, d: verify_convolution(3, d, corrupted_triangle(3, d, 1, 2)),
        {"sym": {"j": 2, "lhs": ["-4", "12", "7"], "rhs": ["-1", "12", "7"]},
         "-2/5": {"j": 2, "lhs": "-192/25", "rhs": "-117/25"},
         "0": {"j": 2, "lhs": "-4", "rhs": "-1"}},
    ),
    "thm_4_1": (
        lambda mp, d: verify_higher_order(1, 2, d, _ctx(d, 3)),
        {"sym": {"index": 3, "lhs": ["1/4", "0", "-1/4"], "rhs": ["4/3", "3/2", "1/6"]},
         "-2/5": {"index": 3, "lhs": "21/100", "rhs": "19/25"}},
    ),
    "cor_4_2": (
        lambda mp, d: verify_singular(-1, 2, d, _ctx(d, 1)),
        {"sym": {"j": -1, "value": ["1"]}, "-2/5": {"j": -1, "value": "1"}},
    ),
    **{
        f"a_routes.{route}": (fault_a(route), {
            "sym": {**A13, "route": route, "reference": ["2", "9", "7"], "value": ["3", "9", "7"]},
            "-2/5": {**A13, "route": route, "reference": "-12/25", "value": "13/25"},
            # at λ = 0 the falling route is skipped
            "0": None if route == "falling" else
                 {**A13, "route": route, "reference": "2", "value": "3"},
        })
        for route in ("stirling", "falling", "unrolled")
    },
    **{
        f"b_routes.{route}": (fault_b(route), {
            "sym": {**B3, "route": route, **B3_SYM}, "-2/5": {**B3, "route": route, **B3_NEG}})
        for route in ("recurrence", "multinomial", *bernoulli.EXPLICIT_FORMS)
    },
    # b_3 moves by -3!/q^3: the reference is wrong, the recurrence is not
    "b_routes.series": (fault_series, {
        "sym": {**B3, "route": "recurrence",
                "reference": ["-23/4", "0", "-1/4"], "value": ["1/4", "0", "-1/4"]},
        "-2/5": {**B3, "route": "recurrence", "reference": "81/500", "value": "21/100"}}),
    "b_routes.order_2_reference": (
        fault_order_r("row_higher_order", 2),
        {"sym": {"n": 2, "route": "order_2_convolution",
                 "reference": ["7/6", "-1", "5/6"], "value": ["1/6", "-1", "5/6"]},
         "-2/5": {"n": 2, "route": "order_2_convolution", "reference": "17/10", "value": "7/10"}},
    ),
    "b_routes.order_3_convolution": (
        fault_order_r("convolution_row", 3),
        {"sym": {"n": 2, "route": "order_3_convolution",
                 "reference": ["1", "-3", "2"], "value": ["2", "-3", "2"]},
         "-2/5": {"n": 2, "route": "order_3_convolution", "reference": "63/25", "value": "88/25"}},
    ),
    # Bell values are rendered through the symbolic domain, integers too
    "bell_routes.integers": (fault_bell("integers"), {"sym": {
        "n": 4, "k": 2, "family": "integers",
        "partition_sum": ["24"], "generating_function": ["25"]}}),
    "bell_routes.deformed": (fault_bell("deformed"), {"sym": {
        "n": 4, "k": 2, "family": "deformed",
        "partition_sum": ["11", "-18", "7"], "generating_function": ["12", "-18", "7"]}}),
    "stirling_routes.degenerate_second": (fault_stirling_triangle, {
        "sym": {"n": 3, "k": 2, "triangle": "degenerate_second",
                "generating_function": ["3", "-3"], "bell_formula": ["4", "-3"]},
        "-2/5": {"n": 3, "k": 2, "triangle": "degenerate_second",
                 "generating_function": "21/5", "bell_formula": "26/5"},
        "0": {"n": 3, "k": 2, "triangle": "degenerate_second",
              "generating_function": "3", "bell_formula": "4"},
    }),
    "stirling_routes.scaled": (fault_stirling_scaled, {
        "sym": {"N": 3, "k": 1, "triangle": "scaled",
                "bell_formula": ["2", "-3", "1"], "generating_function": ["3", "-3", "1"]},
        "-2/5": {"N": 3, "k": 1, "triangle": "scaled",
                 "bell_formula": "84/25", "generating_function": "109/25"},
        # at λ = 0 the scaled generating-function route is skipped
        "0": None,
    }),
    # the λ -> 0 limits render as plain rationals
    "stirling_limit.scaled_to_first": (fault_limit_scaled, {"sym": {
        "N": 3, "k": 1, "kind": "scaled_to_first", "limit": "3", "expected": "2"}}),
    "stirling_limit.coeff_constant_term": (
        fault_limit_coeffs,
        {"sym": {"N": 2, "i": 1, "kind": "coeff_constant_term", "limit": "2", "expected": "1"}},
    ),
}


@pytest.mark.parametrize(
    "case, lam",
    [(case, lam) for case, (_, by_lam) in WITNESS_CASES.items() for lam in by_lam],
)
def test_planted_fault_witness(case, lam, monkeypatch):
    run, by_lam = WITNESS_CASES[case]
    expected = by_lam[lam]
    report = run(monkeypatch, DOMAINS[lam])
    assert report.identity == case.split(".")[0]
    assert report.verdict is (expected is None)
    witness = report.to_json_dict()["witness"]
    assert witness == expected
    assert list(witness or ()) == list(expected or ())
