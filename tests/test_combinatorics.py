"""Combinatorial layer: binomials, falling products, both Stirling-type
triangles, partial Bell polynomials, and the scaled bridge triangle."""

from fractions import Fraction
from functools import partial
from math import perm

import pytest
from hypothesis import example, given, settings, strategies as st

from degenbern import (
    DomainError,
    EvaluatedDomain,
    LAMBDA,
    LambdaPoly,
    SYMBOLIC,
    Triangle,
    TruncatedSeries,
    bell_partial,
    bell_scaling_check,
    binomial,
    coeff_triangle,
    degenerate_exp_series,
    degenerate_log_over_t_series,
    degenerate_stirling2,
    falling_factorial,
    generalized_falling,
    multinomial,
    one_series,
    poly_eval,
    powers,
    render_poly_text,
    scaled_degenerate_stirling,
    scaled_stirling_triangle,
    stirling1_signed,
)


def test_binomial_edges():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_multinomial():
    assert multinomial(5, (2, 2, 1)) == 30
    assert multinomial(0, ()) == 1
    assert multinomial(4, (4,)) == 1


def test_falling_factorials():
    x = Fraction(7, 2)
    assert falling_factorial(x, 0) == 1
    assert falling_factorial(x, 3) == x * (x - 1) * (x - 2)
    lam = LAMBDA
    assert falling_factorial(lam - 1, 2) == (lam - 1) * (lam - 2)
    assert generalized_falling(Fraction(1), 3, Fraction(1, 2)) == Fraction(1) * Fraction(
        1, 2
    ) * Fraction(0)
    one = SYMBOLIC.one
    assert generalized_falling(one, 3, lam) == one * (one - lam) * (one - 2 * lam)


wide_fractions = st.builds(
    lambda sign, p, q: Fraction(sign * p, q),
    st.sampled_from([1, -1]),
    st.integers(min_value=0, max_value=(1 << 24) - 1),
    st.integers(min_value=1, max_value=(1 << 20) - 1),
)


def left_to_right_product(x, n, step):
    acc = Fraction(1)
    for j in range(n):
        acc = acc * (x - j * step)
    return acc


@settings(max_examples=100, deadline=None)
@given(
    wide_fractions,
    st.integers(min_value=0, max_value=16),
    st.one_of(wide_fractions, st.integers(min_value=-4, max_value=4)),
)
@example(Fraction(3), 5, Fraction(1))
@example(Fraction(-7, 3), 6, Fraction(-1, 3))
def test_integer_falling_products_match_plain_product(x, n, lam):
    falling = falling_factorial(x, n)
    assert type(falling) is Fraction
    assert falling == left_to_right_product(x, n, 1)
    general = generalized_falling(x, n, lam)
    assert type(general) is Fraction
    assert general == left_to_right_product(x, n, lam)


def first_block_bell(n_max, xs, zero):
    """B_{n,k}(xs) for k <= n <= n_max by the recurrence over the size i
    of the block holding the first element, starting from a zero of the
    arguments' ring."""
    B = [[zero] * (n_max + 1) for _ in range(n_max + 1)]
    B[0][0] = zero + 1
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            acc = zero
            for i in range(1, n - k + 2):
                acc = acc + binomial(n - 1, i - 1) * xs[i - 1] * B[n - i][k - 1]
            B[n][k] = acc
    return B


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=16),
    wide_fractions,
)
@example(16, Fraction(1))
@example(16, Fraction(2))
@example(16, Fraction(3))
def test_integer_scaled_stirling_matches_plain_bell(N, lam):
    # the Bell route evaluates B_{N,k} at 1, (λ-1), (λ-1)(λ-2), ...
    xs = [Fraction(1)]
    for i in range(1, N + 1):
        xs.append(xs[-1] * (lam - i))
    B = first_block_bell(N, xs, Fraction(0))
    dom = EvaluatedDomain(lam)
    for k in range(N + 1):
        value = scaled_degenerate_stirling(N, k, dom)
        assert value == B[N][k], k
        assert type(value) is Fraction
        if k and N <= 10:
            assert bell_partial(N, k, xs) == B[N][k]


@settings(max_examples=12, deadline=None)
@given(st.randoms(use_true_random=False))
def test_partition_walk_matches_first_block_recurrence(rng):
    n_max = 14
    lam = LAMBDA
    argument_lists = [
        ([rng.randint(-30, 30) for _ in range(n_max)], 0),
        ([Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(n_max)],
         Fraction(0)),
        ([SYMBOLIC.one * rng.randint(-5, 5) + lam * rng.randint(-5, 5) for _ in range(n_max)],
         SYMBOLIC.zero),
    ]
    for xs, zero in argument_lists:
        B = first_block_bell(n_max, xs, zero)
        for n in range(n_max + 1):
            for k in range(n + 1):
                assert bell_partial(n, k, xs, via="partition_sum") == B[n][k], (n, k)


def test_stirling_first_against_expansion_oracle():
    # expand x(x-1)...(x-n+1) by convolution; coefficients are s(n, k)
    n_max = 10
    table = stirling1_signed(n_max)
    coeffs = [Fraction(1)]
    for j in range(n_max):
        # multiply by (x - j)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= j * c
        coeffs = nxt
        for k in range(j + 2):
            assert table.value(j + 1, k) == coeffs[k]
    assert table.value(4, 2) == 11
    assert table.value(4, 1) == -6
    assert table.value(3, 2) == -3
    assert table.value(6, 0) == 0


# every triangle builder, route by route, with the kind it stamps
TRIANGLE_BUILDERS = {
    "first_signed": ("first_signed", lambda n, domain: stirling1_signed(n)),
    "deg2_gf": ("degenerate_second", partial(degenerate_stirling2, via="generating_function")),
    "deg2_bell": ("degenerate_second", partial(degenerate_stirling2, via="bell_formula")),
    "scaled_gf": ("scaled_second", partial(scaled_stirling_triangle, via="generating_function")),
    "scaled_bell": ("scaled_second", partial(scaled_stirling_triangle, via="bell_formula")),
    "coefficients": ("derivative_coefficients", coeff_triangle),
}


@pytest.mark.parametrize("domain", [SYMBOLIC, EvaluatedDomain(Fraction(7, 3))], ids=["sym", "7/3"])
@pytest.mark.parametrize("builder", TRIANGLE_BUILDERS)
def test_triangle_bounds(builder, domain):
    # one rule for every triangle: a row outside 0..n_max raises, an
    # entry outside its row is 0
    kind, build = TRIANGLE_BUILDERS[builder]
    n_max = 4
    t = build(n_max, domain)
    assert type(t) is Triangle and t.kind == kind and t.n_max == n_max
    assert t.domain == (None if kind == "first_signed" else domain)
    for bad in (n_max + 1, -1):
        with pytest.raises(ValueError):
            t.row(bad)
    with pytest.raises(ValueError):
        t.value(n_max + 1, 0)
    for n in range(n_max + 1):
        assert len(t.row(n)) == n + 1
        assert t.value(n, n + 1) == 0
        assert t.value(n, -1) == 0


def test_degenerate_stirling2_values():
    t = degenerate_stirling2(4, SYMBOLIC)
    lam = LAMBDA
    assert t.value(0, 0) == SYMBOLIC.one
    assert t.value(2, 1) == SYMBOLIC.one - lam
    assert t.value(3, 3) == SYMBOLIC.one
    assert render_poly_text(t.value(4, 2)) == "7-18*λ+11*λ^2"
    both = degenerate_stirling2(4, SYMBOLIC, via="bell_formula")
    for n in range(5):
        for k in range(n + 1):
            assert t.value(n, k) == both.value(n, k)


def test_degenerate_stirling2_limit_is_classical():
    # classical second kind via its own recurrence, written here from scratch
    n_max = 8
    classic = [[Fraction(1)]]
    for n in range(1, n_max + 1):
        row = [Fraction(0)]
        for k in range(1, n + 1):
            prev_k = classic[n - 1][k] if k < n else Fraction(0)
            row.append(k * prev_k + classic[n - 1][k - 1])
        classic.append(row)
    t = degenerate_stirling2(n_max, SYMBOLIC)
    for n in range(n_max + 1):
        for k in range(n + 1):
            assert poly_eval(t.value(n, k), Fraction(0)) == classic[n][k]


def test_degenerate_stirling2_evaluated_domain():
    dom = EvaluatedDomain(Fraction(1, 3))
    t = degenerate_stirling2(3, dom)
    sym = degenerate_stirling2(3, SYMBOLIC)
    for n in range(4):
        for k in range(n + 1):
            assert t.value(n, k) == poly_eval(sym.value(n, k), Fraction(1, 3))


def test_bell_partial_known_values():
    x = [Fraction(2), Fraction(5)]
    assert bell_partial(3, 2, x) == 3 * x[0] * x[1]
    assert bell_partial(4, 2, [Fraction(1), Fraction(2), Fraction(3)]) == 24
    assert bell_partial(0, 0, []) == 1
    assert bell_partial(3, 0, [Fraction(1), Fraction(1)]) == 0
    assert bell_partial(5, 1, [Fraction(0)] * 4 + [Fraction(7)]) == 7
    # k > n reads no argument and gives the zero of their ring
    for xs, zero in (([LAMBDA], SYMBOLIC.zero), ([Fraction(3)], Fraction(0)), ([], Fraction(0))):
        value = bell_partial(2, 3, xs)
        assert value == zero and type(value) is type(zero)
    with pytest.raises(ValueError):
        bell_partial(4, 2, [Fraction(1)])


def test_bell_routes_agree_on_poly_arguments():
    lam = LAMBDA
    xs = [SYMBOLIC.one, lam, lam * lam, lam - 1, SYMBOLIC.one + lam]
    for n in range(6):
        for k in range(n + 1):
            a = bell_partial(n, k, xs[: max(n - k + 1, 0)], via="partition_sum")
            b = bell_partial(n, k, xs[: max(n - k + 1, 0)], via="generating_function")
            assert a == b


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
        min_size=8,
        max_size=8,
    ),
)
def test_bell_scaling_property(n, k, a, b, xs):
    if k > n:
        k = n
    assert bell_scaling_check(n, k, a, b, [Fraction(v) for v in xs])


def test_scaled_bridge_values():
    lam = LAMBDA
    assert scaled_degenerate_stirling(0, 0, SYMBOLIC) == SYMBOLIC.one
    assert scaled_degenerate_stirling(3, 3, SYMBOLIC) == SYMBOLIC.one
    assert render_poly_text(scaled_degenerate_stirling(3, 1, SYMBOLIC)) == "2-3*λ+λ^2"
    assert render_poly_text(scaled_degenerate_stirling(4, 2, SYMBOLIC)) == "11-18*λ+7*λ^2"
    assert scaled_degenerate_stirling(4, 6, SYMBOLIC) == SYMBOLIC.zero
    # Bell route: arguments 1, (λ-1), (λ-1)(λ-2), ...
    direct = bell_partial(
        4,
        2,
        [SYMBOLIC.one, lam - 1, (lam - 1) * (lam - 2)],
        via="partition_sum",
    )
    assert scaled_degenerate_stirling(4, 2, SYMBOLIC) == direct


def test_scaled_bridge_routes_agree():
    for dom in (SYMBOLIC, EvaluatedDomain(Fraction(7, 3))):
        gf = scaled_stirling_triangle(6, dom)
        bell = scaled_stirling_triangle(6, dom, via="bell_formula")
        assert gf.kind == bell.kind == "scaled_second"
        assert gf.n_max == bell.n_max == 6
        assert gf.rows == bell.rows
        assert bell.rows[6] == tuple([scaled_degenerate_stirling(6, k, dom) for k in range(7)])
    # the generating function is undefined at λ = 0; the Bell formula is not
    with pytest.raises(DomainError):
        scaled_stirling_triangle(3, EvaluatedDomain(0))
    assert scaled_stirling_triangle(3, EvaluatedDomain(0), via="bell_formula").rows[3] == (0, 2, -3, 1)
    with pytest.raises(ValueError):
        scaled_stirling_triangle(3, SYMBOLIC, via="series")


def test_scaled_bridge_limit_is_first_kind():
    table = stirling1_signed(8)
    for N in range(9):
        for k in range(N + 1):
            v = scaled_degenerate_stirling(N, k, SYMBOLIC)
            assert poly_eval(v, Fraction(0)) == table.value(N, k)


def test_reversal_symmetry_between_triangles():
    # scaled entry is the λ-reversal of the deformed second-kind entry
    deg2 = degenerate_stirling2(6, SYMBOLIC)
    for N in range(7):
        for k in range(N + 1):
            d = deg2.value(N, k)
            s = scaled_degenerate_stirling(N, k, SYMBOLIC)
            dc = list(d.coeffs) + [Fraction(0)] * (N - k + 1 - len(d.coeffs))
            sc = list(s.coeffs) + [Fraction(0)] * (N - k + 1 - len(s.coeffs))
            assert sc == dc[::-1]


# at λ = 1 and 2 some factors of the series coefficients vanish
TRIANGLE_DOMAINS = [SYMBOLIC] + [EvaluatedDomain(Fraction(x)) for x in ("-2/5", "7/3", "1", "2")]
TRIANGLE_IDS = ["sym", "-2/5", "7/3", "1", "2"]


def full_order_triangles(n_max, dom):
    """Both generating-function triangles read off the powers of their
    series all taken at the full order n_max + 1: entry (n, k) is
    n!/k! [t^n] (e_λ(t) - 1)^k and N!/k! [t^(N-k)] of the k-th power of
    the deformed log over t."""
    order = n_max + 1
    one = one_series(dom, order)
    deformed = [one] + powers(degenerate_exp_series(dom, order) - one, n_max)
    scaled = [one] + powers(degenerate_log_over_t_series(dom, order), n_max)
    return (
        tuple([tuple([deformed[k][n] * perm(n, n - k) for k in range(n + 1)])
               for n in range(order)]),
        tuple([tuple([scaled[k][n - k] * perm(n, n - k) for k in range(n + 1)])
               for n in range(order)]),
    )


@pytest.mark.parametrize("dom", TRIANGLE_DOMAINS, ids=TRIANGLE_IDS)
def test_truncated_triangles_match_the_full_order_powers(dom):
    for n_max in range(13):
        deformed, scaled = full_order_triangles(n_max, dom)
        assert degenerate_stirling2(n_max, dom).rows == deformed, n_max
        assert scaled_stirling_triangle(n_max, dom).rows == scaled, n_max


@pytest.mark.parametrize("triangle", [degenerate_stirling2, scaled_stirling_triangle])
@pytest.mark.parametrize("dom", [SYMBOLIC, EvaluatedDomain(Fraction(7, 3))], ids=["sym", "7/3"])
@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 12])
def test_triangle_multiplies_each_power_at_the_order_its_column_reads(
    triangle, dom, n_max, monkeypatch
):
    # base^k is taken below order n_max + 1 - k, for k = 2 .. n_max
    orders = []
    real = TruncatedSeries.__mul__

    def counted(a, b):
        out = real(a, b)
        orders.append(out.order)
        return out

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    triangle(n_max, dom)
    assert orders == list(range(n_max - 1, 0, -1))
