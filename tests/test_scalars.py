"""Exact scalar layer: rational parsing/serialization, the λ-polynomial
ring, domains, and the canonical renderers."""

from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings, strategies as st

from degenbern import (
    DomainError,
    EvaluatedDomain,
    LAMBDA,
    LambdaPoly,
    Rational,
    SYMBOLIC,
    SymbolicDomain,
    domain_from_string,
    poly_eval,
    rational_from_string,
    rational_to_string,
    render_poly_latex,
    render_poly_text,
    scalar_from_json,
    scalar_to_json,
    scalar_to_latex,
    scalar_to_text,
)
from degenbern import scalars
from degenbern.scalars import _SCHOOLBOOK_MAX as T


def test_rational_parse_and_render():
    assert rational_from_string("3/4") == Fraction(3, 4)
    assert rational_from_string("-19/30") == Fraction(-19, 30)
    assert rational_from_string("7") == Fraction(7)
    assert rational_from_string("+2/6") == Fraction(1, 3)
    assert rational_to_string(Fraction(1, 3)) == "1/3"
    assert rational_to_string(Fraction(-4)) == "-4"
    assert rational_to_string(Fraction(2, 6)) == "1/3"


@pytest.mark.parametrize("bad", ["", "1.5", "a/b", "1/0", "1//2", "1 / 2", "2/-3"])
def test_rational_parse_rejects(bad):
    with pytest.raises(ValueError):
        rational_from_string(bad)


def test_rational_roundtrip_is_identity():
    for num in range(-12, 13):
        for den in range(1, 9):
            q = Fraction(num, den)
            assert rational_from_string(rational_to_string(q)) == q


def test_lambda_poly_basics():
    p = LambdaPoly((1, 3))
    assert p.degree == 1
    assert p.coefficient(0) == 1
    assert p.coefficient(1) == 3
    assert p.coefficient(5) == 0
    assert LambdaPoly().degree == -1
    assert not LambdaPoly()
    assert LambdaPoly((0, 0)) == LambdaPoly()
    assert LambdaPoly.constant(Fraction(2, 4)).constant_term == Fraction(1, 2)
    assert LAMBDA == LambdaPoly((0, 1))


def test_lambda_poly_ring_ops():
    lam = LAMBDA
    one = LambdaPoly.constant(1)
    assert (lam + one) * (lam - one) == lam * lam - one
    assert (one + lam) ** 3 == LambdaPoly((1, 3, 3, 1))
    assert lam**0 == one
    assert 2 * lam == lam + lam
    assert lam - lam == LambdaPoly()
    assert (lam * 6) / Fraction(3) == 2 * lam
    assert -(lam - one) == one - lam


def test_lambda_poly_constant_equality_with_rationals():
    assert LambdaPoly.constant(Fraction(5, 3)) == Fraction(5, 3)
    assert LambdaPoly((Fraction(5, 3), 1)) != Fraction(5, 3)
    assert hash(LambdaPoly.constant(Fraction(5, 3))) == hash(Fraction(5, 3))


def test_shifted_down():
    p = LambdaPoly((0, 0, 3, 1))
    assert p.shifted_down(2) == LambdaPoly((3, 1))
    assert p.shifted_down(0) == p
    with pytest.raises(ArithmeticError):
        LambdaPoly((1, 2)).shifted_down(1)


def test_poly_eval():
    p = LambdaPoly((Fraction(-1, 6), 0, Fraction(1, 6)))
    assert poly_eval(p, Fraction(0)) == Fraction(-1, 6)
    assert poly_eval(p, Fraction(1)) == 0
    assert poly_eval(p, Fraction(1, 2)) == Fraction(-1, 8)
    assert poly_eval(Fraction(3, 7), Fraction(9)) == Fraction(3, 7)


small_rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
small_polys = st.lists(small_rationals, min_size=0, max_size=5).map(
    lambda cs: LambdaPoly(tuple(cs))
)


@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys, small_rationals)
def test_eval_is_ring_homomorphism(p, x):
    q = LambdaPoly((1, 2, 1))
    assert poly_eval(p * q, x) == poly_eval(p, x) * poly_eval(q, x)
    assert poly_eval(p + q, x) == poly_eval(p, x) + poly_eval(q, x)


# Differential test of the λ-polynomial ring against a plain-Fraction
# schoolbook reference: wide numerators of both signs, uneven lengths up
# to degree 40, runs of interior zeros and zero polynomials, and runs of
# one repeated value, whose products come closest to the packed slot
# width.
wide_rationals = st.one_of(
    small_rationals,
    st.builds(
        Fraction,
        st.integers(min_value=-(1 << 200), max_value=1 << 200),
        st.integers(min_value=1, max_value=1 << 64),
    ),
)
coeff_runs = st.one_of(
    st.lists(st.just(Fraction(0)), min_size=1, max_size=12),
    st.lists(wide_rationals, min_size=1, max_size=12),
    st.builds(lambda c, n: [c] * n, wide_rationals, st.integers(min_value=1, max_value=41)),
)
wide_coeff_lists = st.lists(coeff_runs, max_size=10).map(
    lambda runs: [c for run in runs for c in run][:41]
)


def ref_strip(cs):
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    return ref_strip(x + y for x, y in zip_longest(a, b, fillvalue=Fraction(0)))


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_strip(out)


def assert_matches(p, ref):
    """p holds exactly the reference coefficients, as reduced Fractions,
    and hashes as the coefficient tuple (or the constant) does."""
    ref = ref_strip(ref)
    assert p.coeffs == ref
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p == LambdaPoly(ref)
    assert p.degree == len(ref) - 1
    if len(ref) > 1:
        assert hash(p) == hash(p.coeffs) == hash(ref)
    else:
        assert hash(p) == hash(p.constant_term) == hash(ref[0] if ref else Fraction(0))


def numerators(n, bits=20, den=1):
    """n nonzero coefficients of alternating sign, each of about ``bits``
    bits, over ``den``."""
    return [Fraction((-1) ** i * ((1 << bits) - 3 * i - 1), den) for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(wide_coeff_lists, wide_coeff_lists, wide_coeff_lists, wide_rationals)
# operand lengths on both sides of the direct/packed crossover at T
@example(numerators(T), numerators(T, den=7), numerators(T - 1), Fraction(3, 5))
@example(numerators(T + 1), numerators(T + 1, den=7), numerators(T), Fraction(-2))
@example(numerators(1), numerators(41, 60), numerators(40), Fraction(1, 3))
@example(numerators(41, 60), numerators(T), numerators(T - 1), Fraction(5))
@example(numerators(T + 1, 60), numerators(41, den=9), numerators(40), Fraction(-1, 7))
# short operands with 200-bit coefficients
@example(numerators(2, 200), numerators(3, 200, den=(1 << 64) - 59), numerators(2, 200),
         Fraction((1 << 200) + 1, 3))
@example(numerators(T, 200, den=5), numerators(1, 200), [], Fraction(0))
def test_ring_matches_fraction_schoolbook(ca, cb, cd, x):
    a, b = LambdaPoly(ca), LambdaPoly(cb)
    ra, rb = ref_strip(ca), ref_strip(cb)
    assert_matches(a, ra)
    assert_matches(a * b, ref_mul(ra, rb))
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, [-c for c in rb]))
    assert_matches(-a, [-c for c in ra])
    assert_matches(a * x, [c * x for c in ra])
    assert_matches(x * a, [c * x for c in ra])
    if x:
        assert_matches(a / x, [c / x for c in ra])
    assert a.evaluate(x) == sum((c * x**i for i, c in enumerate(ra)), Fraction(0))
    # d has lower degree than b, so a*b and a*(d - b) cancel at the top
    rd = ref_strip(cd)[:max(len(rb) - 1, 0)]
    assert_matches(a * b + a * (LambdaPoly(rd) - b), ref_mul(ra, rd))


@pytest.mark.parametrize("short", [1, T, T + 1])
def test_product_packs_only_long_operands(short, monkeypatch):
    # a product convolves term by term while its shorter operand has at
    # most T numerators, and packs once beyond that, in either order
    real = scalars._kronecker_product
    calls = []
    monkeypatch.setattr(scalars, "_kronecker_product",
                        lambda a, b: calls.append(None) or real(a, b))
    ca, cb = numerators(short), numerators(41, 60, den=3)
    a, b = LambdaPoly(ca), LambdaPoly(cb)
    for x, y in ((a, b), (b, a)):
        calls.clear()
        assert_matches(x * y, ref_mul(ca, cb))
        assert len(calls) == (0 if short <= T else 1)


# integer-coefficient operands for PackedRun.dots: zero polynomials,
# negative entries, up to 40 numerators of up to 400 bits
wide_ints = st.integers(min_value=-(1 << 400), max_value=1 << 400)
int_polys = st.one_of(
    st.lists(st.integers(min_value=-9, max_value=9), max_size=40),
    st.lists(wide_ints, max_size=40),
).map(LambdaPoly)


@st.composite
def dot_batches(draw):
    """(lefts, rights, rows) for PackedRun.dots: up to four rows of 1 to 40
    terms over shared operand lists, factors zero, negative or wide."""
    lefts = draw(st.lists(int_polys, min_size=1, max_size=6))
    rights = draw(st.lists(int_polys, min_size=1, max_size=6))
    term = st.tuples(
        st.one_of(st.integers(min_value=-5, max_value=5), wide_ints),
        st.integers(min_value=0, max_value=len(lefts) - 1),
        st.integers(min_value=0, max_value=len(rights) - 1),
    )
    dens = st.one_of(st.just(1), st.integers(min_value=1, max_value=1 << 80))
    rows = draw(st.lists(st.tuples(st.lists(term, min_size=1, max_size=40), dens),
                         min_size=1, max_size=4))
    return lefts, rights, rows


def ref_dots(lefts, rights, rows):
    """The rows of PackedRun.dots in plain λ-polynomial arithmetic."""
    return [sum((f * lefts[i] * rights[j] for f, i, j in terms), LambdaPoly()) / den
            for terms, den in rows]


def full_slot(bits, length, sign):
    """One term whose product has a coefficient of size exactly
    S = |f| * min(len) * max|a| * max|b| = 2**bits - 1, the bound the
    slot width is chosen from: the largest value a slot then holds."""
    assert (2**bits - 1) % length == 0
    a = LambdaPoly([1] * length)
    b = LambdaPoly([sign] * length)
    return [a], [b], [([((2**bits - 1) // length, 0, 0)], 1)]


@settings(max_examples=120, deadline=None)
@given(dot_batches())
@example(full_slot(400, 1, -1))
@example(full_slot(400, 3, 1))
@example(full_slot(400, 5, -1))
@example(full_slot(64, 15, -1))
def test_packed_dots_match_ring_arithmetic(batch):
    lefts, rights, rows = batch
    assert scalars.PackedRun().dots(lefts, rights, rows) == ref_dots(lefts, rights, rows)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(min_value=-5, max_value=5), wide_ints),
                          wide_ints, wide_ints), min_size=1, max_size=40))
def test_packed_dots_of_constants_are_int_sums(terms):
    # on constant polynomials each slot is one int: the sum must be the
    # plain int sum of f * a * b
    lefts = [LambdaPoly.constant(a) for _, a, _ in terms]
    rights = [LambdaPoly.constant(b) for _, _, b in terms]
    rows = [([(f, k, k) for k, (f, _, _) in enumerate(terms)], 1)]
    assert scalars.PackedRun().dots(lefts, rights, rows) == [
        LambdaPoly.constant(sum(f * a * b for f, a, b in terms))]


def test_packed_dots_at_the_slot_bound_among_smaller_rows():
    # the slot width is that of the largest row; a full slot in one row
    # must not spill into the next coefficient, and the small rows read
    # back exactly at the wide slots
    lefts, rights, rows = full_slot(200, 5, -1)
    lefts.append(LambdaPoly([-1, 2, -3]))
    rights.append(LambdaPoly([0, 0, 7]))
    rows += [([(-2, 1, 1), (1, 0, 1)], 3), ([(0, 0, 0)], 1), ([], 1)]
    out = scalars.PackedRun().dots(lefts, rights, rows)
    assert out == ref_dots(lefts, rights, rows)
    assert out[0].coeffs[4] == -(2**200 - 1)
    assert out[2] == out[3] == LambdaPoly()


def growing_polys(draw, count):
    """``count`` integer-coefficient polynomials whose coefficient
    heights grow by orders of magnitude along the list (up to 4096
    bits), zero polynomials and interior zeros among them."""
    out = []
    for k in range(count):
        bits = draw(st.sampled_from([1, 4])) * 4 ** min(k, 5)
        coeff = st.one_of(st.just(0), st.integers(min_value=-(1 << bits), max_value=1 << bits))
        out.append(LambdaPoly(draw(st.lists(coeff, max_size=12))))
    return out


@st.composite
def packed_runs(draw):
    """(lefts, rights, calls) for a PackedRun: each call (nl, nr, rows)
    reads the first nl lefts and nr rights, never fewer than the call
    before, so operands enter between dots, several at once before the
    first, and the later, taller ones make the slot width regrow."""
    lefts = growing_polys(draw, draw(st.integers(min_value=1, max_value=8)))
    rights = growing_polys(draw, draw(st.integers(min_value=1, max_value=8)))
    dens = st.one_of(st.just(1), st.integers(min_value=1, max_value=1 << 80))
    calls, nl, nr = [], 1, 1
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        nl = draw(st.integers(min_value=nl, max_value=len(lefts)))
        nr = draw(st.integers(min_value=nr, max_value=len(rights)))
        term = st.tuples(st.one_of(st.integers(min_value=-5, max_value=5), wide_ints),
                         st.integers(min_value=0, max_value=nl - 1),
                         st.integers(min_value=0, max_value=nr - 1))
        rows = draw(st.lists(st.tuples(st.lists(term, max_size=12), dens),
                             min_size=1, max_size=3))
        calls.append((nl, nr, rows))
    return lefts, rights, calls


# a run whose first call fills a slot of its width exactly, whose second
# brings new operands and reads small rows and a full slot at that width,
# and whose third needs one bit more
FULL = 2**200 - 1
FULL_SLOT_RUN = (
    [LambdaPoly([1] * 5), LambdaPoly([-1, 0, -3]), LambdaPoly([1])],
    [LambdaPoly([-1] * 5), LambdaPoly([0, 0, 7]), LambdaPoly([1])],
    [(1, 1, [([(FULL // 5, 0, 0)], 1)]),
     (2, 2, [([(-2, 1, 1), (1, 0, 1)], 3), ([(FULL // 5, 0, 0)], 1), ([], 1)]),
     (3, 3, [([(FULL + 1, 2, 2)], 1), ([(FULL // 5, 0, 0), (1, 1, 1)], 7)])],
)


@settings(max_examples=100, deadline=None)
@given(packed_runs())
@example(FULL_SLOT_RUN)
def test_packed_run_matches_ring_arithmetic(batch):
    # every call of one run, whatever the width it inherited, against
    # plain λ-polynomial arithmetic
    lefts, rights, calls = batch
    run = scalars.PackedRun()
    for nl, nr, rows in calls:
        assert run.dots(lefts[:nl], rights[:nr], rows) == ref_dots(lefts, rights, rows)


def test_packed_run_packs_each_operand_once_until_it_regrows(monkeypatch):
    # an operand is packed when it first enters; a row that fits the
    # width packs nothing else, and a row past it repacks every operand
    # held, once, at headroom over the width it needs
    real = scalars._pack
    widths = []
    monkeypatch.setattr(scalars, "_pack", lambda v, w: widths.append(w) or real(v, w))
    lefts, rights, calls = FULL_SLOT_RUN
    wide = int(202 * scalars._RUN_HEADROOM)
    run = scalars.PackedRun()
    for (nl, nr, rows), packed in zip(calls, ([201, 201], [201, 201], [wide] * 6)):
        widths.clear()
        assert run.dots(lefts[:nl], rights[:nr], rows) == ref_dots(lefts, rights, rows)
        assert widths == packed


@st.composite
def rational_dot_batches(draw):
    """(domain, lefts, rights, rows) for rational_dots: operands of one
    domain with mixed denominators, zero and negative ones among them,
    and up to five rows (terms, den) of 0 to 3 or 30 to 50 terms with
    zero, negative and wide factors f, each row over a divisor den."""
    domain = draw(st.sampled_from([SYMBOLIC, EvaluatedDomain(Fraction(7, 3))]))
    scalar = st.one_of(st.just(Fraction(0)), wide_rationals)
    if domain.is_symbolic:
        scalar = st.lists(scalar, max_size=12).map(LambdaPoly)
    operands = st.lists(scalar, min_size=1, max_size=6)
    lefts, rights = draw(operands), draw(operands)
    term = st.tuples(
        st.one_of(st.integers(min_value=-5, max_value=5), wide_ints),
        st.integers(min_value=0, max_value=len(lefts) - 1),
        st.integers(min_value=0, max_value=len(rights) - 1),
    )
    sizes = st.one_of(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=30, max_value=50))
    dens = st.one_of(st.integers(min_value=1, max_value=720),
                     st.integers(min_value=1, max_value=1 << 90))
    rows = draw(st.lists(st.tuples(sizes.flatmap(lambda n: st.lists(term, min_size=n, max_size=n)),
                                   dens), max_size=5))
    return domain, lefts, rights, rows


@settings(max_examples=80, deadline=None)
@given(rational_dot_batches())
def test_rational_dots_match_ring_arithmetic(batch):
    # each row against sum(f * a * b) / den in the domain's own arithmetic
    domain, lefts, rights, rows = batch
    expected = [sum((f * lefts[i] * rights[j] for f, i, j in terms), domain.zero) / den
                for terms, den in rows]
    got = scalars.rational_dots(domain, lefts, rights, rows)
    assert got == expected
    assert all(isinstance(v, type(domain.zero)) for v in got)


def test_rational_dots_of_rows_of_very_different_sizes():
    # an empty row, a one-term row and a long row in one call, in both
    # domains, with the long row's terms cancelling to zero
    for domain, x, y in (
        (SYMBOLIC, LambdaPoly([Fraction(1, 3), -2]), LambdaPoly([5, Fraction(-7, 4)])),
        (EvaluatedDomain(Fraction(-2, 5)), Fraction(1, 3), Fraction(-7, 4)),
    ):
        rows = [([], 7), ([(3, 0, 0)], 2), ([(k, 0, 0) for k in range(40)]
                                            + [(-k, 0, 0) for k in range(40)], 41)]
        assert scalars.rational_dots(domain, [x], [y], rows) == [
            domain.zero, Fraction(3, 2) * x * y, domain.zero]


def test_render_text_canonical():
    assert render_poly_text(LambdaPoly()) == "0"
    assert render_poly_text(LambdaPoly.constant(5)) == "5"
    assert render_poly_text(LAMBDA) == "λ"
    assert render_poly_text(-LAMBDA) == "-λ"
    assert render_poly_text(LambdaPoly((1, 3))) == "1+3*λ"
    assert render_poly_text(LambdaPoly((2, 9, 7))) == "2+9*λ+7*λ^2"
    assert render_poly_text(LambdaPoly((0, 1, 1))) == "λ+λ^2"
    p = LambdaPoly((Fraction(-1, 6), 0, Fraction(1, 6)))
    assert render_poly_text(p) == "-1/6+1/6*λ^2"
    assert render_poly_text(LambdaPoly((0, 0, Fraction(3, 4)))) == "3/4*λ^2"


def test_render_latex_canonical():
    assert render_poly_latex(LambdaPoly((2, 9, 7))) == r"2+9\lambda+7\lambda^{2}"
    assert render_poly_latex(LAMBDA) == r"\lambda"
    p = LambdaPoly((Fraction(-1, 6), 0, Fraction(1, 6)))
    assert render_poly_latex(p) == r"-\frac{1}{6}+\frac{1}{6}\lambda^{2}"
    assert scalar_to_latex(Fraction(-2, 3)) == r"-\frac{2}{3}"
    assert scalar_to_latex(Fraction(4)) == "4"


@settings(max_examples=60, deadline=None)
@given(wide_coeff_lists, st.one_of(st.integers(min_value=-5, max_value=5), wide_ints))
def test_int_operands_act_as_their_fractions(cs, k):
    a, ra = LambdaPoly(cs), ref_strip(cs)
    assert_matches(a * k, [c * k for c in ra])
    assert_matches(k * a, [c * k for c in ra])
    assert_matches(a + k, ref_add(ra, [Fraction(k)]))
    assert_matches(a - k, ref_add(ra, [Fraction(-k)]))
    assert_matches(k - a, ref_add([Fraction(k)], [-c for c in ra]))
    assert_matches(LambdaPoly.constant(k), [Fraction(k)])


@settings(max_examples=120, deadline=None)
@given(st.one_of(int_polys, wide_coeff_lists.map(LambdaPoly)),
       st.one_of(st.integers(min_value=-5, max_value=5), wide_ints),
       st.one_of(st.integers(min_value=1, max_value=720), st.integers(min_value=1, max_value=1 << 90)))
@example(LambdaPoly([3, 0, -6]), 2, 2)
@example(LambdaPoly([3, 0, -6]), 0, 7)
@example(LambdaPoly([4, 0, -6]), -3, 12)
def test_scaled_value_is_the_product_with_the_rational(value, num, den):
    before = (list(value._nums), value._den)
    got, want = SYMBOLIC.scaled(value, num, den), value * Rational(num, den)
    assert type(got) is LambdaPoly
    assert (got._nums, got._den) == (want._nums, want._den)
    assert (value._nums, value._den) == before
    k, dom = sum(value._nums), EvaluatedDomain(Fraction(7, 3))
    assert dom.scaled(k, num, den) == Fraction(k * num, den)
    assert type(dom.scaled(k, num, den)) is Fraction


# The rendering contract as it read when the renderers formatted the
# reduced Fraction coefficients: the integer renderers must print the
# same bytes.
def ref_render_text(cs):
    parts = []
    for i, c in enumerate(cs):
        if not c:
            continue
        if i == 0:
            mag = str(abs(c))
        else:
            lam = "λ" if i == 1 else f"λ^{i}"
            mag = lam if abs(c) == 1 else f"{abs(c)}*{lam}"
        parts.append(("-" if c < 0 else "+", mag))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(sign + mag for sign, mag in parts[1:])


def ref_latex_rational(q, strip_one=False):
    sign = "-" if q < 0 else ""
    q = abs(q)
    if strip_one and q == 1:
        return sign
    if q.denominator == 1:
        return f"{sign}{q.numerator}"
    return f"{sign}\\frac{{{q.numerator}}}{{{q.denominator}}}"


def ref_render_latex(cs):
    terms = [ref_latex_rational(c) if i == 0 else
             ref_latex_rational(c, True) + ("\\lambda" if i == 1 else f"\\lambda^{{{i}}}")
             for i, c in enumerate(cs) if c]
    if not terms:
        return "0"
    return terms[0] + "".join(t if t.startswith("-") else "+" + t for t in terms[1:])


@st.composite
def render_coeff_lists(draw):
    """Coefficients over one shared denominator, up to 80 bits: zeros
    (interior ones too), ±1 (numerator ±den), small and wide values of
    both signs."""
    den = draw(st.one_of(st.just(1), st.integers(min_value=2, max_value=1 << 80)))
    nums = st.one_of(st.sampled_from([0, 0, 1, -1, den, -den]),
                     st.integers(min_value=-50, max_value=50), wide_ints)
    return [Fraction(c, den) for c in draw(st.lists(nums, max_size=14))]


@settings(max_examples=300, deadline=None)
@given(render_coeff_lists())
@example([])
@example([Fraction(0), Fraction(-1), Fraction(0), Fraction(1)])
@example([Fraction(-1, 6), Fraction(0), Fraction(1, 6)])
@example([Fraction(n, (1 << 64) - 59) for n in (-((1 << 64) - 59), 0, 3, (1 << 64) - 59)])
def test_integer_renderers_print_the_fraction_renderers_bytes(cs):
    ref = ref_strip(cs)
    p = LambdaPoly(cs)
    # the renderers read the numerators; none builds the Fraction tuple
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LambdaPoly, "coeffs", property(lambda _: pytest.fail("coeffs was read")))
        assert render_poly_text(p) == scalar_to_text(p) == str(p) == ref_render_text(ref)
        assert render_poly_latex(p) == scalar_to_latex(p) == ref_render_latex(ref)
        assert scalar_to_json(p) == [str(c) for c in ref]
    for c in cs:
        assert scalar_to_text(c) == str(c)
        assert scalar_to_latex(c) == ref_latex_rational(c)
        assert scalar_to_json(c) == str(c)


def test_scalar_json_roundtrip():
    assert scalar_to_json(Fraction(-7, 2)) == "-7/2"
    assert scalar_to_json(LambdaPoly((1, 3))) == ["1", "3"]
    assert scalar_from_json("-7/2") == Fraction(-7, 2)
    assert scalar_from_json(["1", "3"]) == LambdaPoly((1, 3))
    p = LambdaPoly((Fraction(2, 3), 0, Fraction(-1, 6)))
    assert scalar_from_json(scalar_to_json(p)) == p
    assert scalar_to_text(p) == render_poly_text(p)
    assert scalar_to_text(Fraction(1, 3)) == "1/3"


def test_domains():
    assert SYMBOLIC.describe() == "sym"
    assert SYMBOLIC.coerce(Fraction(1, 2)) == LambdaPoly.constant(Fraction(1, 2))
    dom = EvaluatedDomain(Fraction(1, 2))
    assert dom.describe() == "1/2"
    assert dom.lam == Fraction(1, 2)
    with pytest.raises(DomainError):
        dom.coerce(LAMBDA)
    assert domain_from_string("sym") == SYMBOLIC
    assert domain_from_string("-1/3") == EvaluatedDomain(Fraction(-1, 3))
    assert domain_from_string("1/2") != domain_from_string("1/3")


def test_domains_are_values():
    assert EvaluatedDomain(Fraction(2, 4)) == EvaluatedDomain(Fraction(1, 2))
    assert hash(EvaluatedDomain(Fraction(2, 4))) == hash(EvaluatedDomain(Fraction(1, 2)))
    assert EvaluatedDomain(0) != SYMBOLIC and SYMBOLIC != EvaluatedDomain(0)
    assert SymbolicDomain() == SYMBOLIC and hash(SymbolicDomain()) == hash(SYMBOLIC)
    assert EvaluatedDomain(Fraction(1, 2)) != EvaluatedDomain(Fraction(1, 3))
    for dom, name in [(SYMBOLIC, "lam"), (EvaluatedDomain(2), "lam"), (EvaluatedDomain(2), "parts"),
                      (SYMBOLIC, "zero")]:
        with pytest.raises(FrozenInstanceError):
            setattr(dom, name, Fraction(3))


def test_domain_parts_split_lambda():
    parts = EvaluatedDomain(Fraction(-123457, 98765)).parts
    assert parts == (-123457, 98765, 0, 1)
    assert [type(x) for x in parts] == [int] * 4
    assert SYMBOLIC.parts == (LAMBDA, 1, LambdaPoly(), LambdaPoly.constant(1))
    assert SYMBOLIC.parts[2:] == (SYMBOLIC.zero, SYMBOLIC.one)
    assert [type(x) for x in SYMBOLIC.parts] == [LambdaPoly, int, LambdaPoly, LambdaPoly]


def test_domain_scaled_is_a_value_of_the_domain():
    got = EvaluatedDomain(Fraction(7, 3)).scaled(6, 2, 4)
    assert got == 3 and type(got) is Fraction
    got = SYMBOLIC.scaled(LambdaPoly([2, 4]), 3, 6)
    assert type(got) is LambdaPoly and (got._nums, got._den) == ([1, 2], 1)
    got = SYMBOLIC.scaled(LambdaPoly([2, 4]), 1, 12)
    assert (got._nums, got._den) == ([1, 2], 6)


inexact = pytest.mark.parametrize(
    "bad", [0.1, 0.5, "0.5", "1/2", float("nan"), Decimal("0.5")],
    ids=["float", "binary_float", "str", "ratio_str", "nan", "Decimal"])


@inexact
def test_inexact_lambda_and_coefficients_are_rejected(bad):
    with pytest.raises(DomainError):
        EvaluatedDomain(bad)
    with pytest.raises(DomainError):
        LambdaPoly((bad, 1))
    with pytest.raises(DomainError):
        LambdaPoly((1, bad))


@inexact
def test_inexact_constant_is_rejected(bad):
    with pytest.raises(DomainError):
        LambdaPoly.constant(bad)
    # the int fast path and exact rationals still build constants
    assert (LambdaPoly.constant(3)._nums, LambdaPoly.constant(3)._den) == ([3], 1)
    assert LambdaPoly.constant(Fraction(-2, 6)) == Fraction(-1, 3)


@inexact
def test_inexact_evaluation_point_is_rejected(bad):
    with pytest.raises(DomainError):
        (1 + LAMBDA).evaluate(bad)
    assert (1 + LAMBDA).evaluate(Fraction(1, 3)) == Fraction(4, 3)


@inexact
def test_inexact_poly_eval_point_is_rejected(bad):
    # a rational value passes through, but only at an exact point
    for value in (1 + LAMBDA, Fraction(3, 7)):
        with pytest.raises(DomainError):
            poly_eval(value, bad)
    assert poly_eval(1 + LAMBDA, 2) == 3


def test_rational_alias_is_exact():
    assert Rational(1, 3) + Rational(1, 6) == Rational(1, 2)
