"""Truncated power series and Laurent windows: exact arithmetic,
reciprocals, derivatives, and the precision bookkeeping rules."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from degenbern import (
    DomainError,
    EvaluatedDomain,
    LambdaPoly,
    LaurentSeries,
    NonInvertibleConstantTerm,
    SYMBOLIC,
    TruncatedSeries,
    classical_log_over_t_series,
    classical_log_reciprocal,
    degenerate_exp_series,
    degenerate_log_over_t_series,
    degenerate_log_reciprocal,
    one_plus_t_power,
    one_series,
    powers,
    truncated_powers,
)
from degenbern.series import degenerate_log_over_t_series_in_u, weighted_sum, window
from test_scalars import wide_coeff_lists

Q = EvaluatedDomain(Fraction(0))
HALF = EvaluatedDomain(Fraction(1, 2))


def test_construction_and_padding():
    s = TruncatedSeries(Q, (1, 2), order=5)
    assert s.order == 5
    assert s[3] == 0
    with pytest.raises(IndexError):
        s[5]
    with pytest.raises(ValueError):
        TruncatedSeries(Q, (1, 2, 3), order=2)
    assert one_series(Q, 4)[0] == 1


def test_add_mul_truncate_to_min_order():
    a = TruncatedSeries(Q, (1, 1), 6)
    b = TruncatedSeries(Q, (1, -1), 4)
    assert (a + b).order == 4
    assert (a * b).order == 4
    assert (a * b)[2] == -1
    assert (a - b)[1] == 2


def test_geometric_reciprocal():
    s = TruncatedSeries(Q, (1, -1), 8).reciprocal()
    assert [s[k] for k in range(8)] == [1] * 8


def test_reciprocal_of_three_term():
    # 1/(1+t+t^2) = (1-t)/(1-t^3): pattern 1, -1, 0 repeating
    s = TruncatedSeries(Q, (1, 1, 1), 9).reciprocal()
    assert [s[k] for k in range(9)] == [1, -1, 0, 1, -1, 0, 1, -1, 0]


def test_reciprocal_is_two_sided_inverse():
    f = degenerate_log_over_t_series(SYMBOLIC, 10)
    g = f.reciprocal()
    prod = f * g
    assert prod == one_series(SYMBOLIC, 10)


@pytest.mark.parametrize("lam", [Fraction(7, 3), Fraction(-2, 5), Fraction(12345677, 1048573)])
def test_log_series_in_u_is_the_series_in_t_at_t_equal_q_u(lam):
    # coefficient m in u is q^m times coefficient m in t, with a denominator
    # that divides (m+1)!
    dom = EvaluatedDomain(lam)
    in_t = degenerate_log_over_t_series(dom, 12)
    in_u = degenerate_log_over_t_series_in_u(dom, 12)
    q = lam.denominator
    assert [c * q**m for m, c in enumerate(in_t.coeffs)] == list(in_u.coeffs)
    assert all(factorial(m + 1) % c.denominator == 0 for m, c in enumerate(in_u.coeffs))
    # so is coefficient n of the reciprocal
    assert [c * q**n for n, c in enumerate(in_t.reciprocal().coeffs)] == list(
        in_u.reciprocal().coeffs)


def test_log_series_in_u_is_the_series_in_t_symbolically():
    in_t = degenerate_log_over_t_series(SYMBOLIC, 16).coeffs
    in_u = degenerate_log_over_t_series_in_u(SYMBOLIC, 16).coeffs
    assert [(c._nums, c._den) for c in in_u] == [(c._nums, c._den) for c in in_t]
    with pytest.raises(DomainError):
        degenerate_log_over_t_series_in_u(EvaluatedDomain(0), 4)


def test_reciprocal_requires_invertible_constant():
    with pytest.raises(NonInvertibleConstantTerm):
        TruncatedSeries(Q, (0, 1), 4).reciprocal()
    lam_head = TruncatedSeries(SYMBOLIC, (LambdaPoly((0, 1)), SYMBOLIC.one), order=4)
    with pytest.raises(NonInvertibleConstantTerm):
        lam_head.reciprocal()


def test_derivative_loses_one_order():
    s = TruncatedSeries(Q, (5, 4, 3, 2), 7)
    d = s.derivative()
    assert d.order == 6
    assert [d[k] for k in range(4)] == [4, 6, 6, 0]


def test_one_plus_t_power_negative_exponent():
    s = one_plus_t_power(Q, -2, 6)
    assert [s[m] for m in range(6)] == [1, -2, 3, -4, 5, -6]
    p = one_plus_t_power(Q, 3, 6)
    assert [p[m] for m in range(6)] == [1, 3, 3, 1, 0, 0]
    assert one_plus_t_power(Q, -2, 6) * one_plus_t_power(Q, 2, 6) == one_series(Q, 6)


def test_degenerate_exp_series():
    lam = SYMBOLIC.lam
    e = degenerate_exp_series(SYMBOLIC, 4)
    assert e[0] == SYMBOLIC.one
    assert e[1] == SYMBOLIC.one
    assert e[2] == (SYMBOLIC.one - lam) / Fraction(2)


def test_deformed_log_over_t_coefficients():
    f = degenerate_log_over_t_series(SYMBOLIC, 4)
    lam = SYMBOLIC.lam
    assert f[0] == SYMBOLIC.one
    assert f[1] == (lam - 1) / Fraction(2)
    assert f[2] == (lam - 1) * (lam - 2) / Fraction(6)
    # at λ = 1 the deformed log is t itself, so the quotient is 1
    g = degenerate_log_over_t_series(EvaluatedDomain(Fraction(1)), 6)
    assert g == one_series(EvaluatedDomain(Fraction(1)), 6)


def fraction_product_exp(domain, order):
    """(1+λt)**(1/λ) by its definition: running products of (1 - (n-1)λ)
    in the domain, each divided by the rational n!."""
    acc, out = domain.one, []
    for n in range(order):
        if n:
            acc = acc * (domain.one - (n - 1) * domain.lam)
        out.append(acc / Fraction(factorial(n)))
    return out


def fraction_product_log_over_t(domain, order):
    """((1+t)**λ - 1)/(λ t) by its definition: running products of
    (λ - m), each divided by the rational (m+1) m!."""
    acc, out = domain.one, []
    for m in range(order):
        if m:
            acc = acc * (domain.lam - m)
        out.append(acc / Fraction((m + 1) * factorial(m)))
    return out


@pytest.mark.parametrize("domain", [SYMBOLIC] + [
    EvaluatedDomain(x) for x in (Fraction(7, 3), Fraction(-123457, 98765), Fraction(1),
                                 Fraction(2), Fraction(1, 2))])
def test_series_constructors_equal_their_fraction_product_definitions(domain):
    # at λ = 1 and 2 factors λ - m vanish, at λ = 1 and 1/2 factors 1 - (n-1)λ
    for order in range(21):
        for build, ref in ((degenerate_exp_series, fraction_product_exp),
                           (degenerate_log_over_t_series, fraction_product_log_over_t)):
            got = build(domain, order)
            want = ref(domain, order)
            assert got.order == order
            assert [got[i] for i in range(order)] == want
            assert [type(got[i]) for i in range(order)] == [type(c) for c in want]


def test_deformed_routes_reject_lambda_zero():
    with pytest.raises(DomainError):
        degenerate_log_over_t_series(Q, 5)
    with pytest.raises(DomainError):
        degenerate_log_reciprocal(Q, 5)


def test_classical_log_over_t():
    f = classical_log_over_t_series(5)
    assert [f[m] for m in range(5)] == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 3),
        Fraction(-1, 4),
        Fraction(1, 5),
    ]


def test_series_equality_common_prefix():
    a = TruncatedSeries(Q, (1, 2, 3), 6)
    b = TruncatedSeries(Q, (1, 2, 3), 4)
    assert a == b
    c = TruncatedSeries(Q, (1, 2, 4), 4)
    assert a != c
    assert a != TruncatedSeries(HALF, (1, 2, 3), 6)


def test_laurent_constructor_strips_known_zeros():
    body = TruncatedSeries(Q, (0, 0, 1, 5), 6)
    L = LaurentSeries(2, body)
    assert L.pole == 0
    assert L.coefficient(0) == 1
    assert L.coefficient(1) == 5
    assert L.coefficient(-3) == 0
    with pytest.raises(IndexError):
        L.coefficient(4)


def test_laurent_pole_arithmetic():
    F = degenerate_log_reciprocal(HALF, 8)
    assert F.pole == 1
    assert F.coefficient(-1) == 1
    G = F * F
    assert G.pole == 2
    assert G.coefficient(-2) == 1
    S = weighted_sum([1, -1], [F, F])
    assert all(not S.coefficient(e) for e in range(-S.pole, S.top_exponent + 1))


def test_laurent_derivative_bookkeeping():
    F = degenerate_log_reciprocal(HALF, 8)
    top_before = F.top_exponent
    D = F.derivative()
    assert D.pole == F.pole + 1
    assert D.top_exponent == top_before - 1
    # d/dt t^-1 = -t^-2 on the pure pole part
    assert D.coefficient(-2) == -F.coefficient(-1)


def test_laurent_derivative_matches_series_on_polynomials():
    body = TruncatedSeries(Q, (3, 1, 4), 5)
    L = LaurentSeries(0, body).derivative()
    d = body.derivative()
    assert all(L.coefficient(k) == d[k] for k in range(d.order))


def derivative_steps(L, n):
    for _ in range(n):
        L = L.derivative()
    return L


@pytest.mark.parametrize("domain", [SYMBOLIC, EvaluatedDomain(Fraction(-7, 3))],
                         ids=["sym", "-7/3"])
def test_nth_derivative_equals_n_first_derivatives(domain):
    # poles 0 to 3, and the pole-0 body of eq42, t/log(1+t), whose
    # leading zeros the canonical form strips at every step
    F = degenerate_log_reciprocal(domain, 12)
    cases = [F.shifted(1), F, F**2, F**3, classical_log_reciprocal(12).shifted(1)]
    assert [L.pole for L in cases] == [0, 1, 2, 3, 0]
    for L in cases:
        for n in range(1, 7):
            one, steps = L.derivative(n), derivative_steps(L, n)
            assert (one.pole, one.top_exponent) == (steps.pole, steps.top_exponent)
            assert one.body.coeffs == steps.body.coeffs


def test_nth_derivative_needs_what_n_first_derivatives_need():
    # a pole-0 body of three coefficients takes three steps, not four;
    # a pole keeps its body's length, so one coefficient is enough
    body = LaurentSeries(0, TruncatedSeries(Q, (3, 1, 4), 3))
    assert body.derivative(3) == derivative_steps(body, 3)
    assert body.derivative(3).top_exponent == -1
    for differentiate in (lambda: body.derivative(4), lambda: derivative_steps(body, 4)):
        with pytest.raises(ValueError):
            differentiate()
    pole = LaurentSeries(2, TruncatedSeries(Q, (5,), 1))
    assert pole.derivative(6) == derivative_steps(pole, 6)
    with pytest.raises(ValueError):
        pole.derivative(0)


def test_laurent_mul_scale_shift():
    F = classical_log_reciprocal(7)
    t = F.shifted(1)
    assert t.pole == 0
    assert t.coefficient(0) == 1
    half = weighted_sum([Fraction(1, 2)], [F])
    assert half.coefficient(-1) == Fraction(1, 2)
    sq = F**2
    assert sq.pole == 2
    assert sq.coefficient(-2) == 1


def test_laurent_equality_common_window():
    F = classical_log_reciprocal(9)
    G = classical_log_reciprocal(5)
    assert F == G
    H = weighted_sum([1, 1], [G, LaurentSeries(0, TruncatedSeries(Q, (0, 0, 1), 4))])
    assert F != H


def bumped(L, k):
    """L with 1 added to its body coefficient k."""
    cs = list(L.body.coeffs)
    cs[k] = cs[k] + 1
    return LaurentSeries(L.pole, TruncatedSeries(L.domain, cs))


@pytest.mark.parametrize("domain", [SYMBOLIC, EvaluatedDomain(Fraction(-5, 7))], ids=["sym", "-5/7"])
def test_weighted_sum_is_the_ring_sum_on_the_window(domain):
    # poles 0 to 3; the pole-3 body is the shortest, so the window's top
    # is its top exponent
    F = degenerate_log_reciprocal(domain, 10)
    series = [F.shifted(1), F, F**2, LaurentSeries(3, degenerate_exp_series(domain, 7))]
    assert [s.pole for s in series] == [0, 1, 2, 3]
    assert [s.top_exponent for s in series] == [9, 8, 7, 3]
    lam = domain.lam
    weights = [domain.coerce(w) for w in (0, -1, Fraction(7, 3))]
    weights.append(domain.one - lam / Fraction(2) + 3 * lam * lam)
    assert window(series) == (-3, 3)

    def ring_sums(terms):
        return [sum((w * s.coefficient(e) for w, s in zip(weights, terms)), domain.zero)
                for e in range(-3, 4)]

    def known(L):
        return [L.coefficient(e) for e in range(-3, L.top_exponent + 1)]

    got = weighted_sum(weights, series)
    assert (got.pole, got.top_exponent) == (3, 3)
    assert known(got) == ring_sums(series)
    # a +1 at exponent e of one term moves the sum at e by that term's
    # weight when e is in the window, and moves nothing above it
    for i, s in enumerate(series):
        for k in range(s.body.order):
            e = k - s.pole
            terms = series[:i] + [bumped(s, k)] + series[i + 1:]
            moved = weighted_sum(weights, terms)
            assert moved.top_exponent == 3
            delta = [b - a for a, b in zip(known(got), known(moved))]
            assert delta == [weights[i] if x == e else domain.zero for x in range(-3, 4)]


def test_weighted_sum_rejects_series_of_two_domains():
    F = degenerate_log_reciprocal(HALF, 6)
    G = degenerate_log_reciprocal(EvaluatedDomain(Fraction(1, 3)), 6)
    with pytest.raises(DomainError):
        weighted_sum([1, 1], [F, G])


@pytest.mark.parametrize("weights, count", [([1, 5, 7], 1), ([1], 2)])
def test_weighted_sum_needs_one_weight_per_series(weights, count):
    F = degenerate_log_reciprocal(HALF, 6)
    with pytest.raises(ValueError) as info:
        weighted_sum(weights, [F] * count)
    assert str(info.value) == f"one weight per series: {len(weights)} weights, {count} series"


def test_shifted_keeps_every_known_coefficient():
    # each case: series, k, and the pole of the series times t**k
    F = degenerate_log_reciprocal(HALF, 8)
    empty = LaurentSeries(2, TruncatedSeries(HALF, (), 0))
    cases = [(F, 3, 0), (F, 1, 0), (F, 0, 1), (F, -2, 3),
             (empty, 3, 0), (empty, 2, 0), (empty, -1, 3)]
    for L, k, pole in cases:
        S = L.shifted(k)
        assert (S.pole, S.top_exponent) == (pole, L.top_exponent + k)
        assert all(S.coefficient(e) == L.coefficient(e - k)
                   for e in range(-S.pole - 2, S.top_exponent + 1))
        with pytest.raises(IndexError):
            S.coefficient(S.top_exponent + 1)


def test_independent_triangular_inversion_oracle():
    # solve u * v = 1 by hand at λ = 1/2 and compare with reciprocal()
    lam = Fraction(1, 2)
    order = 12
    v = [Fraction(1)]
    acc = Fraction(1)
    fact = 1
    for m in range(1, order):
        acc *= lam - m
        fact *= m
        v.append(acc / ((m + 1) * fact))
    u = [Fraction(1)]
    for n in range(1, order):
        u.append(-sum(v[k] * u[n - k] for k in range(1, n + 1)))
    lib = degenerate_log_over_t_series(EvaluatedDomain(lam), order).reciprocal()
    assert [lib[n] for n in range(order)] == u


# coefficients of both signs, numerators up to 24 bits, denominators up
# to 20 bits
wide_coefficients = st.builds(
    lambda sign, p, q: Fraction(sign * p, q),
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=(1 << 24) - 1),
    st.integers(min_value=1, max_value=(1 << 20) - 1),
)


@st.composite
def series_with_zero_runs(draw):
    """a_0 != 0, 1, then nonzero coefficients each followed by a run of
    up to five exact zeros, cut to an order of at most 24."""
    coeffs = [draw(wide_coefficients.filter(lambda a: a != 1))]
    for value, run in draw(st.lists(st.tuples(wide_coefficients, st.integers(0, 5)), max_size=12)):
        coeffs += [Fraction(0)] * run + [value]
    return coeffs[:draw(st.integers(min_value=1, max_value=24))]


def plain_reciprocal(coeffs, a0):
    """b = 1/a by b_0 = 1/a_0, b_n = -(sum_k a_k b_(n-k)) / a_0, for a
    rational constant term a0."""
    out = [coeffs[0] * 0 + 1 / a0]
    for n in range(1, len(coeffs)):
        acc = sum((coeffs[k] * out[n - k] for k in range(1, n + 1)), start=coeffs[0] * 0)
        out.append(-acc / a0)
    return out


@settings(max_examples=80, deadline=None)
@given(series_with_zero_runs())
def test_integer_scaled_reciprocal_matches_plain_recurrence(coeffs):
    dom = EvaluatedDomain(Fraction(-5, 7))
    inv = TruncatedSeries(dom, coeffs).reciprocal()
    assert list(inv.coeffs) == plain_reciprocal(coeffs, coeffs[0])
    assert all(type(c) is Fraction for c in inv.coeffs)
    # symbolically the same numbers with λ powers attached
    polys = [coeffs[0] * LambdaPoly.constant(1)] + [
        c * LambdaPoly([0] * (k % 3) + [1]) for k, c in enumerate(coeffs) if k
    ]
    inv = TruncatedSeries(SYMBOLIC, polys).reciprocal()
    assert list(inv.coeffs) == plain_reciprocal(polys, coeffs[0])


# Differential test of the evaluated series product against a plain
# Fraction schoolbook: the wide numerators of the λ-polynomial ring test
# (both signs, all-zero runs, interior zero runs, runs of one repeated
# value), orders 0-41 drawn independently for the two operands.
EVAL_LAMBDAS = [Fraction(0), Fraction(-5, 7), Fraction(-123457, 98765)]


@st.composite
def evaluated_operand(draw):
    coeffs = draw(wide_coeff_lists)
    order = draw(st.integers(min_value=0, max_value=41))
    return coeffs[:order], order


def plain_product(a, b):
    """Cauchy product of two Fraction lists cut to min(len)."""
    m = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(m)]


def padded(coeffs, order):
    return [Fraction(c) for c in coeffs] + [Fraction(0)] * (order - len(coeffs))


def assert_reduced_fractions(coeffs):
    assert all(type(c) is Fraction and c.denominator > 0
               and gcd(c.numerator, c.denominator) == 1 for c in coeffs)


@settings(max_examples=60, deadline=None)
@given(evaluated_operand(), evaluated_operand(), st.sampled_from(EVAL_LAMBDAS),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_evaluated_product_matches_fraction_schoolbook(x, y, lam, pa, pb, power):
    dom = EvaluatedDomain(lam)
    (ca, oa), (cb, ob) = x, y
    a, b = TruncatedSeries(dom, ca, oa), TruncatedSeries(dom, cb, ob)
    ref = plain_product(padded(ca, oa), padded(cb, ob))
    for prod in (a * b, b * a):
        assert list(prod.coeffs) == ref
        assert_reduced_fractions(prod.coeffs)

    # poles: t^-pa A times t^-pb B, whichever leading zeros each drops
    la, lb = LaurentSeries(pa, a), LaurentSeries(pb, b)
    lp = la * lb
    ref = plain_product(list(la.body.coeffs), list(lb.body.coeffs))
    pole = la.pole + lb.pole
    assert lp.top_exponent == len(ref) - 1 - pole
    assert [lp.coefficient(e) for e in range(-pole, len(ref) - pole)] == ref
    assert_reduced_fractions(lp.body.coeffs)

    # powers against repeated schoolbook products
    ref = padded([1] if oa else [], oa)
    for _ in range(power):
        ref = plain_product(ref, padded(ca, oa))
    apow = a ** power
    assert list(apow.coeffs) == ref
    assert_reduced_fractions(apow.coeffs)
    lpow, pole = la ** power, la.pole * power
    ref = padded([1] if la.body.order else [], la.body.order)
    for _ in range(power):
        ref = plain_product(ref, list(la.body.coeffs))
    assert lpow.pole == pole
    assert [lpow.coefficient(e) for e in range(-pole, len(ref) - pole)] == ref


@pytest.mark.parametrize("exponent, products", [(0, 0), (1, 0), (2, 1), (3, 2), (5, 3)])
def test_powers_start_from_the_lowest_set_bit(exponent, products):
    body = TruncatedSeries(SYMBOLIC, (1, LambdaPoly((0, 1)), Fraction(1, 3), 2), 5)
    for base in (LambdaPoly((1, Fraction(1, 2), 3)), body, LaurentSeries(1, body)):
        cls, want = type(base), base ** 0
        for _ in range(exponent):
            want = want * base
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            real = cls.__mul__
            mp.setattr(cls, "__mul__", lambda a, b: calls.append(1) or real(a, b))
            got = base ** exponent
        assert (got == want, len(calls)) == (True, products), cls.__name__


@pytest.mark.parametrize("domain", [SYMBOLIC, EvaluatedDomain(Fraction(-5, 7))], ids=["sym", "-5/7"])
def test_powers_match_pow(domain):
    # entry e-1 of powers(s, count) is s**e with the same coefficients
    # and the same known window, for both series classes
    one = one_series(domain, 9)
    bases = [
        degenerate_log_over_t_series(domain, 9),
        degenerate_exp_series(domain, 9) - one,
        degenerate_log_reciprocal(domain, 9),
        LaurentSeries(2, TruncatedSeries(domain, (3, 0, -1), 7)),
    ]
    for base in bases:
        for count in range(7):
            got = powers(base, count)
            assert len(got) == count
            for e, power in enumerate(got, 1):
                expected = base**e
                assert type(power) is type(base)
                if isinstance(base, LaurentSeries):
                    assert power.pole == expected.pole
                    power, expected = power.body, expected.body
                assert power.coeffs == expected.coeffs


@pytest.mark.parametrize("domain", [SYMBOLIC, EvaluatedDomain(Fraction(-5, 7))], ids=["sym", "-5/7"])
def test_truncated_powers_are_the_powers_cut_one_order_per_power(domain):
    # entry k-1 of truncated_powers(s, count) is s**k known below order
    # M + 1 - k, with the coefficients of s**k there
    base = degenerate_log_over_t_series(domain, 8)
    full = powers(base, 9)
    for count in range(10):
        got = truncated_powers(base, count)
        assert [p.order for p in got] == [9 - k for k in range(1, count + 1)]
        assert [p.coeffs for p in got] == [f.truncated(9 - k).coeffs
                                           for k, f in enumerate(full[:count], 1)]
    with pytest.raises(ValueError):
        truncated_powers(base, 10)


@pytest.mark.parametrize("domain", [SYMBOLIC, EvaluatedDomain(Fraction(7, 3))], ids=["sym", "7/3"])
def test_a_cut_power_is_the_power_built_at_the_lower_order(domain):
    # a truncated series is exact below its order: cutting the powers of
    # the reciprocal log from order 14 gives the powers built at order 9
    # coefficient for coefficient, and a cut cannot add known order
    high = powers(degenerate_log_reciprocal(domain, 14), 4)
    low = powers(degenerate_log_reciprocal(domain, 9), 4)
    for cut, built in zip(high, low):
        assert cut.body.truncated(9).coeffs == built.body.coeffs
    s = high[0].body
    assert s.truncated(s.order).coeffs == s.coeffs
    assert s.truncated(0).order == 0
    with pytest.raises(ValueError):
        s.truncated(s.order + 1)
    with pytest.raises(ValueError):
        s.truncated(-1)
