"""Deformed Bernoulli rows of the second kind: all four routes, the
higher-order rows, the classical limit, and the λ = 0 exclusions."""

import gc
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from degenbern import bernoulli, scalars
from degenbern.series import degenerate_log_over_t_series
from degenbern import (
    DomainError,
    EvaluatedDomain,
    MULTINOMIAL_CAP,
    SYMBOLIC,
    bell_partial,
    classical_row,
    classical_series_row,
    convolution_row,
    poly_eval,
    render_poly_text,
    row_higher_order,
    row_via_explicit,
    row_via_multinomial,
    row_via_recurrence,
    row_via_series,
    value_via_explicit,
    value_via_multinomial,
)


@pytest.mark.parametrize("route", ["row_via_series", "row_via_recurrence"])
def test_symbolic_routes_pack_each_operand_about_once(monkeypatch, route):
    # the symbolic reciprocal and recurrence keep one PackedRun per row:
    # each operand is packed when it enters and again only when the slot
    # width regrows, where packing every operand at every step took
    # n**2 + 2n packs (4224 at n = 64)
    real = scalars._pack
    packs = []
    monkeypatch.setattr(scalars, "_pack", lambda v, w: packs.append(None) or real(v, w))
    for n in (16, 32, 64):
        packs.clear()
        getattr(bernoulli, route)(n, SYMBOLIC)
        assert len(packs) <= 12 * n, (n, len(packs))


def test_symbolic_row_frozen_values():
    row = row_via_series(4, SYMBOLIC)
    assert [render_poly_text(v) for v in row.values] == [
        "1",
        "1/2-1/2*λ",
        "-1/6+1/6*λ^2",
        "1/4-1/4*λ^2",
        "-19/30+2/3*λ^2-1/30*λ^4",
    ]


def test_low_values_by_hand():
    lam = SYMBOLIC.lam
    row = row_via_recurrence(2, SYMBOLIC)
    assert row.value(1) == (SYMBOLIC.one - lam) / Fraction(2)
    assert row.value(2) == (lam * lam - 1) / Fraction(6)
    assert value_via_multinomial(1, SYMBOLIC) == (SYMBOLIC.one - lam) / Fraction(2)
    assert value_via_multinomial(2, SYMBOLIC) == (lam * lam - 1) / Fraction(6)


# the six order-1 row routes
ROUTES = {
    "series": row_via_series,
    "recurrence": row_via_recurrence,
    "multinomial": row_via_multinomial,
    **{form: lambda n, d, form=form: row_via_explicit(n, d, form)
       for form in ("a_form", "stirling_form", "falling_form")},
}


def test_four_routes_agree_symbolic():
    n_max = 8
    ref = row_via_series(n_max, SYMBOLIC).values
    assert row_via_recurrence(n_max, SYMBOLIC).values == ref
    assert row_via_multinomial(n_max, SYMBOLIC).values == ref
    for form in ("a_form", "stirling_form", "falling_form"):
        assert row_via_explicit(n_max, SYMBOLIC, form).values == ref


def test_four_routes_agree_evaluated():
    dom = EvaluatedDomain(Fraction(-2, 5))
    n_max = 10
    ref = row_via_series(n_max, dom).values
    assert row_via_recurrence(n_max, dom).values == ref
    assert row_via_multinomial(n_max, dom).values == ref
    for form in ("a_form", "stirling_form", "falling_form"):
        assert row_via_explicit(n_max, dom, form).values == ref


# λ of both signs, numerators up to 24 bits, denominators up to 20 bits
wide_lambdas = st.builds(
    lambda sign, p, q: Fraction(sign * p, q),
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=(1 << 24) - 1),
    st.integers(min_value=1, max_value=(1 << 20) - 1),
)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=15), wide_lambdas)
# at λ = 1, 2, 3 the falling products (λ-1)_m vanish from m = λ on
@example(12, Fraction(1))
@example(12, Fraction(2))
@example(12, Fraction(3))
def test_integer_scaled_walk_matches_series(n, lam):
    dom = EvaluatedDomain(lam)
    values = row_via_multinomial(n, dom).values
    assert values == row_via_series(n, dom).values
    assert all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(2), Fraction(7, 3), Fraction(-123457, 98765)])
def test_walk_matches_series_across_its_head(lam):
    # the walk lists every composition up to _WALK_HEAD and goes
    # depth-first past it; at λ = 1 and 2 the step factors vanish, so
    # the node lists hold zeros
    dom = EvaluatedDomain(lam)
    head = bernoulli._WALK_HEAD
    for n in (0, 1, *range(head - 1, head + 5)):
        assert row_via_multinomial(n, dom).values == row_via_series(n, dom).values, n


@pytest.mark.parametrize("n", [0, 1, 2, 6, 11, 12, 13, 14])
def test_walk_takes_one_product_per_composition(monkeypatch, n):
    # every composition of every total <= n is its parent's product times
    # one step factor: 2^n - 1 node products, after the n(n+1)/2 step
    # factors and the n Bell arguments.  A walk that summed siblings
    # before multiplying would collapse into the O(n^2) recurrence
    real = scalars.LambdaPoly.__mul__
    calls = []
    monkeypatch.setattr(scalars.LambdaPoly, "__mul__",
                        lambda a, b: calls.append(None) or real(a, b))
    row_via_multinomial(n, SYMBOLIC)
    assert len(calls) == 2**n - 1 + n * (n + 1) // 2 + n


def plain_recurrence_row(n_max, lam):
    """b_0..b_n_max by the triangular recurrence, in plain Fractions."""
    fall = [Fraction(1)]
    for m in range(1, n_max + 1):
        fall.append(fall[-1] * (lam - m))
    row = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for l in range(n):
            acc += comb(n, l) * fall[n - l] * row[l] / (n - l + 1)
        row.append(-acc)
    return row


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=16), wide_lambdas)
@example(16, Fraction(1))
@example(16, Fraction(2))
@example(16, Fraction(3))
def test_integer_scaled_recurrence_matches_plain_fractions(n, lam):
    values = row_via_recurrence(n, EvaluatedDomain(lam)).values
    assert list(values) == plain_recurrence_row(n, lam)
    assert all(type(v) is Fraction for v in values)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=16), wide_lambdas)
@example(16, Fraction(1))
@example(16, Fraction(2))
@example(16, Fraction(3))
def test_integer_scaled_explicit_forms_match_plain_fractions(n, lam):
    expected = plain_recurrence_row(n, lam)[n]
    for form in ("a_form", "falling_form", "stirling_form"):
        value = value_via_explicit(n, EvaluatedDomain(lam), form)
        assert value == expected, form
        assert type(value) is Fraction


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=16), wide_lambdas)
@example(16, Fraction(1))
@example(16, Fraction(2))
@example(16, Fraction(3))
def test_integer_scaled_explicit_rows_match_plain_fractions(n, lam):
    # whole rows: the a-form shares one set of triangle rows and the
    # Stirling form hands each Bell row on to the next value
    expected = plain_recurrence_row(n, lam)
    for form in ("a_form", "falling_form", "stirling_form"):
        values = row_via_explicit(n, EvaluatedDomain(lam), form).values
        assert list(values) == expected, form
        assert all(type(v) is Fraction for v in values)


def test_stirling_form_rows_share_nothing_across_calls():
    # a Bell row kept from the first call would corrupt the second
    for lam in (Fraction(-7, 3), Fraction(5, 11)):
        dom = EvaluatedDomain(lam)
        values = row_via_explicit(9, dom, "stirling_form").values
        for n in range(1, 10):
            assert values[n] == value_via_explicit(n, dom, "stirling_form"), (lam, n)


def test_walks_leave_no_reference_cycles():
    # the composition walk and the partition walk hold no
    # self-referencing closures, so their tables are freed on return
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        row_via_multinomial(10, EvaluatedDomain(Fraction(-7, 3)))
        bell_partial(8, 3, [Fraction(i + 1, 3) for i in range(6)])
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_symbolic_row_specializes_to_evaluated():
    lam = Fraction(3, 7)
    sym = row_via_series(6, SYMBOLIC).values
    ev = row_via_series(6, EvaluatedDomain(lam)).values
    assert [poly_eval(v, lam) for v in sym] == list(ev)


def test_lambda_one_collapses_to_delta():
    # the deformed log of 1+t at λ = 1 is t itself
    dom = EvaluatedDomain(Fraction(1))
    for route, row_of in ROUTES.items():
        assert row_of(14, dom).values == (1,) + (0,) * 14, route


def test_lambda_minus_one_stops_after_b1():
    # at λ = -1 the deformed log of 1+t is t/(1+t), so t over it is 1+t
    dom = EvaluatedDomain(Fraction(-1))
    for route, row_of in ROUTES.items():
        assert row_of(14, dom).values == (1, 1) + (0,) * 13, route


@pytest.mark.parametrize("route", ROUTES)
def test_symbolic_rows_have_no_odd_power_of_lambda_past_the_first(route):
    # order 1 only: order 2 already has a λ^3 term at n = 3
    # (test_higher_order_rows); the composition walk is exponential, so
    # it stops at the b_routes cap of 14
    n_max = 14 if route == "multinomial" else 20
    for n, value in enumerate(ROUTES[route](n_max, SYMBOLIC).values):
        assert not any(c for k, c in enumerate(value.coeffs) if k >= 3 and k % 2), n


@pytest.mark.parametrize("route", ["series", "recurrence", "a_form"])
def test_symbolic_rows_have_the_shape_of_the_generating_function(route):
    # properties of b_n(λ) itself, read off the symbolic rows up to n = 30
    # without comparing two routes: the degree is at most n; λ^k has a
    # zero coefficient for odd k >= 3, because b_n(λ) = Σ_k B_k λ^k (...)
    # with B_k = 0 there; at λ = 1, t / log_1(1+t) = 1; at λ = -1,
    # t / log_(-1)(1+t) = 1 + t.  Order 1 only: orders 2 and 3 have odd
    # powers (test_higher_order_rows)
    values = ROUTES[route](30, SYMBOLIC).values
    for n, value in enumerate(values):
        assert value.degree <= n, n
        assert not any(value.coefficient(k) for k in range(3, n + 1, 2)), n
    assert [v.evaluate(1) for v in values] == [1] + [0] * 30
    assert [v.evaluate(-1) for v in values] == [1, 1] + [0] * 29


def test_higher_order_rows():
    r2 = row_higher_order(2, 3, SYMBOLIC)
    assert [render_poly_text(v) for v in r2.values] == [
        "1",
        "1-λ",
        "1/6-λ+5/6*λ^2",
        "1/2*λ-1/2*λ^3",
    ]
    assert r2.order_r == 2
    assert convolution_row(2, 3, SYMBOLIC).values == r2.values
    r3 = row_higher_order(3, 6, SYMBOLIC)
    assert convolution_row(3, 6, SYMBOLIC).values == r3.values
    with pytest.raises(ValueError):
        row_higher_order(0, 3, SYMBOLIC)


def row_in_t(r, n_max, domain):
    """n! [t^n] of the r-th power of the reciprocal of the deformed
    log-over-t series in t: the reference values, read without the
    substitution u = t/q that the series rows work in."""
    body = degenerate_log_over_t_series(domain, n_max + 1).reciprocal() ** r
    return tuple([body[n] * factorial(n) for n in range(n_max + 1)])


@pytest.mark.parametrize("n", [0, 1, 2, 30, 60])
@pytest.mark.parametrize("lam", [Fraction(7, 3), Fraction(-2, 5), Fraction(1), Fraction(2),
                                 Fraction(12345677, 1048573), Fraction(-123457, 98765)])
def test_series_rows_in_u_equal_the_rows_in_t(lam, n):
    dom = EvaluatedDomain(lam)
    got = row_via_series(n, dom).values
    assert got == row_in_t(1, n, dom) and {type(v) for v in got} == {Fraction}
    for r in (1, 2, 3):
        assert row_higher_order(r, n, dom).values == row_in_t(r, n, dom), r


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=24), wide_lambdas, st.integers(min_value=1, max_value=3))
def test_series_rows_in_u_equal_the_rows_in_t_at_any_height(n, lam, r):
    dom = EvaluatedDomain(lam)
    assert row_via_series(n, dom).values == row_in_t(1, n, dom)
    assert row_higher_order(r, n, dom).values == row_in_t(r, n, dom)


def test_symbolic_series_rows_are_the_rows_in_t_byte_for_byte():
    # symbolically q = 1, so the series in u is the series in t
    def parts(values):
        return [(v._nums, v._den) for v in values]

    assert parts(row_via_series(32, SYMBOLIC).values) == parts(row_in_t(1, 32, SYMBOLIC))
    for r, n in ((1, 32), (2, 16), (3, 16)):
        assert parts(row_higher_order(r, n, SYMBOLIC).values) == parts(row_in_t(r, n, SYMBOLIC))


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=9).filter(bool),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=12),
)
@example(Fraction(-123457, 98765), 3, 12)
@example(Fraction(1), 3, 12)
@example(Fraction(2), 3, 12)
def test_convolution_row_matches_a_plain_fraction_convolution(lam, r, n_max):
    # the r-fold binomial convolution of the order-1 row, summed term by
    # term in Fractions; the symbolic row evaluated at λ gives it too
    dom = EvaluatedDomain(lam)
    base = [Fraction(v) for v in row_via_recurrence(n_max, dom).values]
    want = base
    for _ in range(r - 1):
        want = [sum((comb(n, m) * want[m] * base[n - m] for m in range(n + 1)), Fraction(0))
                for n in range(n_max + 1)]
    got = convolution_row(r, n_max, dom).values
    assert list(got) == want and {type(v) for v in got} == {Fraction}
    sym = convolution_row(r, n_max, SYMBOLIC).values
    assert [poly_eval(v, lam) for v in sym] == want


def test_multinomial_cap():
    assert MULTINOMIAL_CAP == 24
    with pytest.raises(ValueError):
        value_via_multinomial(MULTINOMIAL_CAP + 1, SYMBOLIC)


def test_explicit_value_needs_positive_index():
    with pytest.raises(ValueError):
        value_via_explicit(0, SYMBOLIC, "a_form")
    with pytest.raises(ValueError):
        value_via_explicit(2, SYMBOLIC, "no_such_form")


def test_lambda_zero_is_rejected_everywhere():
    dom = EvaluatedDomain(Fraction(0))
    with pytest.raises(DomainError):
        row_via_series(3, dom)
    with pytest.raises(DomainError):
        row_via_recurrence(3, dom)
    with pytest.raises(DomainError):
        value_via_multinomial(3, dom)
    for form in ("a_form", "stirling_form", "falling_form"):
        with pytest.raises(DomainError):
            row_via_explicit(3, dom, form)
    with pytest.raises(DomainError):
        row_higher_order(2, 3, dom)
    with pytest.raises(DomainError):
        convolution_row(2, 3, dom)


def test_classical_rows():
    limit = classical_row(6, route="limit")
    stirling = classical_row(6, route="stirling")
    assert limit == stirling
    assert limit[:5] == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(-1, 6),
        Fraction(1, 4),
        Fraction(-19, 30),
    ]
    assert classical_series_row(6) == limit
    with pytest.raises(ValueError):
        classical_row(3, route="bogus")


def test_classical_against_independent_inversion_oracle():
    # invert log(1+t)/t from scratch: v_m = (-1)^m/(m+1), u solves u*v = 1
    n_max = 15
    v = [Fraction((-1) ** m, m + 1) for m in range(n_max + 1)]
    u = [Fraction(1)]
    for n in range(1, n_max + 1):
        u.append(-sum(v[k] * u[n - k] for k in range(1, n + 1)))
    fact = 1
    expected = []
    for n in range(n_max + 1):
        if n:
            fact *= n
        expected.append(u[n] * fact)
    assert classical_row(n_max, route="limit") == expected
    assert classical_row(n_max, route="stirling") == expected


def test_classical_row_against_sympy_cauchy_numbers():
    # Cauchy numbers of the first kind, n! [t^n] t/log(1+t), from sympy's
    # own series expansion
    import sympy as sp

    n_max = 20
    t = sp.symbols("t")
    body = sp.series(t / sp.log(1 + t), t, 0, n_max + 1).removeO()
    expected = []
    for n in range(n_max + 1):
        c = sp.factorial(n) * body.coeff(t, n)
        expected.append(Fraction(int(c.p), int(c.q)))
    assert expected[:4] == [1, Fraction(1, 2), Fraction(-1, 6), Fraction(1, 4)]
    assert classical_row(n_max, route="limit") == expected
    assert classical_row(n_max, route="stirling") == expected


def test_row_object_accessors():
    row = row_via_series(3, SYMBOLIC)
    assert row.n_max == 3
    assert row.value(0) == SYMBOLIC.one
    with pytest.raises(ValueError):
        row.value(4)
