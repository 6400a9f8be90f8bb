"""Coefficient triangle of the closed derivative family: recurrence
construction, the three row routes, boundary entries, degree
shape, and the λ -> 0 constant terms."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from degenbern import (
    CoeffTable,
    DomainError,
    EvaluatedDomain,
    SYMBOLIC,
    Triangle,
    coeff_explicit_falling,
    coeff_explicit_stirling,
    coeff_limit_at_zero,
    coeff_triangle,
    coeff_unrolled_recurrence,
    degenerate_stirling2,
    falling_factorial,
    poly_eval,
    render_poly_text,
    row_via_explicit,
    stirling1_signed,
)
from degenbern.ode_coeffs import scaled_triangle_rows


def test_rows_one_to_three_canonical():
    t = coeff_triangle(3, SYMBOLIC)
    assert [render_poly_text(v) for v in t.row(1)] == ["λ", "1"]
    assert [render_poly_text(v) for v in t.row(2)] == ["λ+λ^2", "1+3*λ", "2"]
    assert [render_poly_text(v) for v in t.row(3)] == [
        "2*λ+3*λ^2+λ^3",
        "2+9*λ+7*λ^2",
        "6+12*λ",
        "6",
    ]


def plain_triangle(n_max, lam):
    """Rows 0..n_max by the triangle recurrence, in plain Fractions."""
    rows = [[Fraction(1)]]
    for N in range(n_max):
        row = rows[-1] + [Fraction(0)]
        rows.append([(N + (i + 1) * lam) * row[i] + i * row[i - 1] for i in range(N + 2)])
    return rows


# λ of both signs, numerators up to 24 bits, denominators up to 20 bits
wide_lambdas = st.builds(
    lambda sign, p, q: Fraction(sign * p, q),
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=(1 << 24) - 1),
    st.integers(min_value=1, max_value=(1 << 20) - 1),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=16), wide_lambdas)
@example(16, Fraction(1))
@example(16, Fraction(2))
@example(16, Fraction(3))
def test_scaled_triangle_rows_match_plain_fractions(n_max, lam):
    dom = EvaluatedDomain(lam)
    expected = plain_triangle(n_max, lam)
    scaled = scaled_triangle_rows(n_max, dom)
    table = coeff_triangle(n_max, dom)
    q = lam.denominator
    for N in range(n_max + 1):
        assert all(type(v) is int for v in scaled[N])
        assert [Fraction(v, q ** (N - i)) for i, v in enumerate(scaled[N])] == expected[N]
        assert list(table.row(N)) == expected[N]
        assert all(type(v) is Fraction for v in table.row(N))


def plain_deformed_stirling2(n_max, lam):
    """Rows 0..n_max of the deformed second-kind Stirling triangle by
    S(n+1, k) = S(n, k-1) + (k - nλ) S(n, k), in plain Fractions."""
    rows = [[Fraction(1)]]
    for n in range(n_max):
        row = rows[-1] + [Fraction(0)]
        rows.append([(row[k - 1] if k else 0) + (k - n * lam) * row[k] for k in range(n + 2)])
    return rows


def plain_bernoulli_row(n_max, lam):
    """b_0..b_n_max as n! times the coefficients of the reciprocal of
    log-deformed(1+t) / t = sum_m (λ-1)...(λ-m) t^m / (m+1)!, in plain
    Fractions."""
    series, fall = [], Fraction(1)
    for m in range(n_max + 1):
        series.append(fall / factorial(m + 1))
        fall *= lam - m - 1
    inverse = [Fraction(1)]
    for n in range(1, n_max + 1):
        inverse.append(-sum(series[m] * inverse[n - m] for m in range(1, n + 1)))
    return [factorial(n) * h for n, h in enumerate(inverse)]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=14), wide_lambdas)
# at λ = 1, 2, 3 some falling factors vanish
@example(14, Fraction(1))
@example(14, Fraction(2))
@example(14, Fraction(3))
def test_falling_closed_forms_match_plain_fractions(n, lam):
    # the integer alternating falling sums behind the triangle's falling
    # route, the Bell-formula Stirling triangle and the falling form
    dom = EvaluatedDomain(lam)
    triangle = plain_triangle(n, lam)
    for N in range(1, n + 1):
        row = coeff_explicit_falling(N, dom)
        assert list(row) == triangle[N]
        assert all(type(v) is Fraction for v in row)
    stirling = degenerate_stirling2(n, dom, via="bell_formula").rows
    assert [list(row) for row in stirling] == plain_deformed_stirling2(n, lam)
    assert all(type(v) is Fraction for row in stirling for v in row)
    values = row_via_explicit(n, dom, "falling_form").values
    assert list(values) == plain_bernoulli_row(n, lam)
    assert all(type(v) is Fraction for v in values)


def plain_unrolled_row(N, lam):
    """Row N by the recurrence unrolled in N, in plain Fractions:
    c_i(M) = i! P(i, M) + i sum_{l<M-i} P(M-l, M) c_(i-1)(M-l-1), with
    P(a, M) = prod_{a<=M'<M} (M' + (i+1)λ) taken afresh each time."""
    c = {}
    for i in range(N + 1):
        def P(a, M):
            out = Fraction(1)
            for m in range(a, M):
                out *= m + (i + 1) * lam
            return out

        for M in range(i, N + 1):
            c[i, M] = factorial(i) * P(i, M)
            if i:
                c[i, M] += i * sum(P(M - l, M) * c[i - 1, M - l - 1] for l in range(M - i))
    return [c[i, N] for i in range(N + 1)]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=14), wide_lambdas)
# at an integer λ the sweep's scale q^(M-i) is 1
@example(14, Fraction(1))
@example(14, Fraction(2))
@example(14, Fraction(3))
def test_unrolled_rows_match_plain_fractions(N, lam):
    # the integer column sweep against the unrolled sums taken in
    # Fractions, and against the recurrence
    row = coeff_unrolled_recurrence(N, EvaluatedDomain(lam))
    assert list(row) == plain_unrolled_row(N, lam)
    assert list(row) == plain_triangle(N, lam)[N]
    assert all(type(v) is Fraction for v in row)


def test_boundary_entries():
    t = coeff_triangle(8, SYMBOLIC)
    lam = SYMBOLIC.lam
    fact = 1
    for N in range(1, 9):
        fact *= N
        assert t.value(N, N) == Fraction(fact)
        assert t.value(N, 0) == falling_factorial(N + lam - 1, N)


def test_coeff_table_is_the_triangle_type():
    # the coefficient triangle's former type name is an alias
    assert CoeffTable is Triangle


def test_degree_shape():
    t = coeff_triangle(10, SYMBOLIC)
    for N in range(1, 11):
        for i in range(N + 1):
            assert t.value(N, i).degree == N - i


ROW_ROUTES = (coeff_explicit_stirling, coeff_explicit_falling, coeff_unrolled_recurrence)


def test_explicit_routes_match_recurrence():
    # whole rows, edges included; at λ = 1 and 2 some falling factors vanish
    for dom in (SYMBOLIC, *map(EvaluatedDomain, (Fraction(-2, 5), Fraction(1), Fraction(2)))):
        t = coeff_triangle(7, dom)
        for N in range(1, 8):
            for route in ROW_ROUTES:
                row = route(N, dom)
                assert len(row) == N + 1
                assert row == t.row(N), (dom, route.__name__, N)


def test_row_routes_start_at_row_one():
    for route in ROW_ROUTES:
        with pytest.raises(ValueError):
            route(0, SYMBOLIC)


def test_evaluated_domain_matches_symbolic_eval():
    lam = Fraction(5, 3)
    dom = EvaluatedDomain(lam)
    t_eval = coeff_triangle(6, dom)
    t_sym = coeff_triangle(6, SYMBOLIC)
    for N in range(1, 7):
        for i in range(N + 1):
            assert t_eval.value(N, i) == poly_eval(t_sym.value(N, i), lam)


def test_falling_route_rejects_lambda_zero():
    dom = EvaluatedDomain(Fraction(0))
    with pytest.raises(DomainError):
        coeff_explicit_falling(3, dom)
    # the stirling route handles λ = 0 fine and lands on the limit values
    assert coeff_explicit_stirling(3, dom) == (0, 2, 6, 6)


def test_constant_terms_are_signed_first_kind():
    t = coeff_triangle(9, SYMBOLIC)
    s1 = stirling1_signed(9)
    for N in range(1, 10):
        for i in range(N + 1):
            expected = coeff_limit_at_zero(N, i, s1)
            assert poly_eval(t.value(N, i), Fraction(0)) == expected
            sign = -1 if (N + i) % 2 else 1
            fact = 1
            for m in range(1, i + 1):
                fact *= m
            assert expected == sign * fact * s1.value(N, i)
            # without a table the function builds its own
            assert coeff_limit_at_zero(N, i) == expected


def test_limit_at_zero_needs_a_covering_first_kind_table():
    with pytest.raises(ValueError):
        coeff_limit_at_zero(3, 1, stirling1_signed(2))
    with pytest.raises(ValueError):
        coeff_limit_at_zero(3, 1, degenerate_stirling2(3, SYMBOLIC))
