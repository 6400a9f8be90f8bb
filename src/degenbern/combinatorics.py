"""Combinatorial building blocks: factorial products, the one triangle
type, Stirling triangles, and exponential partial Bell polynomials.

Where downstream identity checks need a cross-check, two genuinely
independent computation routes are provided (a closed summation formula
and a generating-function coefficient extraction); the tests and the
verify module insist the routes agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .scalars import (
    Domain,
    Rational,
    Scalar,
    exact_quotient,
)
from .series import (
    TruncatedSeries,
    degenerate_exp_series,
    degenerate_log_over_t_series,
    one_series,
    truncated_powers,
)


def binomial(n: int, k: int) -> int:
    """C(n, k) with the usual convention of 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial needs n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (m_1! m_2! ... m_k!) for parts summing to n."""
    if any(m < 0 for m in parts):
        raise ValueError("multinomial parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"parts {list(parts)} do not sum to {n}")
    out = math.factorial(n)
    for m in parts:
        out //= math.factorial(m)
    return out


def falling_factorial(x, n: int):
    """x (x-1) (x-2) ... (x-n+1); empty product 1 for n = 0.

    Works for any ring scalar: ints, rationals, λ-polynomials.  For a
    rational x = a/b the product is (a)(a-b)...(a-(n-1)b) / b^n, taken
    over the integers with one reduction at the end.
    """
    return _falling_product(x, n, 1)


def generalized_falling(x, n: int, lam):
    """x (x-λ) (x-2λ) ... (x-(n-1)λ), the λ-deformed falling factorial.

    For rationals x = a/b and λ = c/d the product is
    prod_j (ad - jcb) / (bd)^n, taken over the integers with one
    reduction at the end.
    """
    return _falling_product(x, n, lam)


def _falling_product(x, n: int, step):
    """x (x-step) ... (x-(n-1) step), the body of both falling factorials."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    if isinstance(x, Rational) and isinstance(step, (int, Rational)):
        a, b = x.numerator, x.denominator
        c, d = step.numerator, step.denominator
        ad, cb = a * d, c * b
        num = 1
        for j in range(n):
            num *= ad - j * cb
        return Rational(num, (b * d) ** n)
    acc = None
    for j in range(n):
        term = x - j * step
        acc = term if acc is None else acc * term
    return acc if acc is not None else 1


def alternating_falling_sums(a, b, n: int, one) -> list:
    """D_0..D_n with D_k = sum_{l<=k} (-1)^l C(k,l) prod_{j<n} (la - jb).

    The products are taken once for l = 0..n, and D_k is the first entry
    of their k-th row of differences x_l - x_(l+1), taken in place, so no
    binomial is needed.  Integers a, b (or integer-coefficient
    λ-polynomials with the ring unit one) give integer sums.
    """
    steps = [j * b for j in range(n)]
    row = []
    for l in range(n + 1):
        la = l * a
        acc = one
        for step in steps:
            acc *= la - step
        row.append(acc)
    sums = []
    for k in range(n + 1):
        sums.append(row[0])
        for l in range(n - k):
            row[l] -= row[l + 1]
    return sums


# ---------------------------------------------------------------------------
# Stirling triangles


@dataclass(frozen=True)
class Triangle:
    """Rows 0..n_max of a triangle, row n holding entries k = 0..n, read
    row first as value(n, k).  A row outside 0..n_max raises; an entry
    outside its row is 0, the convention the summation formulas rely on.

    kind is "first_signed" (integer entries, no domain),
    "degenerate_second", "scaled_second" or "derivative_coefficients"
    (entries in the domain).
    """

    domain: Domain | None
    rows: tuple[tuple[Scalar, ...], ...]
    kind: str = "derivative_coefficients"

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> tuple[Scalar, ...]:
        if n < 0 or n > self.n_max:
            raise ValueError(f"row {n} outside table (n_max={self.n_max})")
        return self.rows[n]

    def value(self, n: int, k: int) -> Scalar:
        row = self.row(n)
        return row[k] if 0 <= k <= n else 0


def stirling1_signed(n_max: int) -> Triangle:
    """Signed Stirling numbers of the first kind.

    Built from s(n+1, k) = s(n, k-1) - n s(n, k); row n lists the
    coefficients of the falling factorial x(x-1)...(x-n+1) in x.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rows = [(1,)]
    for n in range(n_max):
        prev = rows[-1]

        def at(k: int) -> int:
            return prev[k] if 0 <= k <= n else 0

        rows.append(tuple([at(k - 1) - n * at(k) for k in range(n + 2)]))
    return Triangle(None, tuple(rows), "first_signed")


def degenerate_stirling2(
    n_max: int, domain: Domain, via: str = "generating_function"
) -> Triangle:
    """λ-deformed Stirling triangle of the second kind.

    Route "generating_function" reads n! [t^n] (e_λ(t) - 1)^k / k! off
    the deformed exponential, as n!/k! [t^(n-k)] of the k-th power of
    (e_λ(t) - 1)/t, with that power taken only below order n_max + 1 - k
    (:func:`_power_table_triangle`); route "bell_formula" takes the
    alternating sum (-1)^k/k! sum_l (-1)^l C(k,l) (l|λ)_n over the
    deformed falling factorials (l|λ)_n = l(l-λ)...(l-(n-1)λ).  At
    λ = p/q (p = λ, q = 1 symbolically) q^n (l|λ)_n = prod_j (lq - jp),
    so the sum over l is D_k / q^n for the integers D_k of
    :func:`alternating_falling_sums` at (a, b) = (q, p), and entry
    (n, k) is the one reduced value (-1)^k D_k / (k! q^n).  Both routes
    give the same polynomials; verify and the tests compare them.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if via == "generating_function":
        # e_λ(t) has constant term 1, so (e_λ(t) - 1)/t is its tail
        e = degenerate_exp_series(domain, n_max + 1)
        base = TruncatedSeries(domain, e.coeffs[1:])
        return _power_table_triangle("degenerate_second", n_max, base)
    if via == "bell_formula":
        p, q, _, one = domain.parts
        return Triangle(domain, tuple([
            tuple([domain.scaled(d, (-1) ** k, math.factorial(k) * q**n)
                   for k, d in enumerate(alternating_falling_sums(q, p, n, one))])
            for n in range(n_max + 1)
        ]), "degenerate_second")
    raise ValueError(f"unknown route {via!r}")


def _power_table_triangle(kind: str, n_max: int, base) -> Triangle:
    """Entry (n, k) is n!/k! [t^(n-k)] base^k, for a base known below
    order n_max.  Column k reads base^k only below order n_max + 1 - k,
    so each power is taken only that far (:func:`truncated_powers`):
    base^0 = 1 below order n_max + 1, base itself below n_max, and the
    last power, base^n_max, as its constant term alone."""
    cols = [one_series(base.domain, n_max + 1)] + truncated_powers(base, n_max)
    return Triangle(base.domain, tuple([
        tuple([cols[k][n - k] * math.perm(n, n - k)
               for k in range(n + 1)])
        for n in range(n_max + 1)
    ]), kind)


# ---------------------------------------------------------------------------
# partial Bell polynomials


def bell_partial(n: int, k: int, xs: Sequence, via: str = "partition_sum"):
    """Partial Bell polynomial B_{n,k} at the argument list xs.

    xs supplies x_1 .. x_{n-k+1} (ring scalars of any one domain).
    Route "partition_sum" sums over the block types directly;
    route "generating_function" extracts n! [t^n] (sum x_i t^i/i!)^k / k!.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    # the k = 0 and k > n values reference no arguments at all
    zero = xs[0] * 0 if len(xs) else Rational(0)
    if k == 0:
        return zero + 1 if n == 0 else zero
    if k > n:
        return zero
    need = n - k + 1
    if len(xs) < need:
        raise ValueError(f"need {need} arguments, got {len(xs)}")
    if via == "partition_sum":
        return _bell_partition_sum(n, k, xs)
    if via == "generating_function":
        return _bell_generating_function(n, k, xs)
    raise ValueError(f"unknown route {via!r}")


def _bell_partition_sum(n: int, k: int, xs: Sequence):
    """Sum over block types of n! / prod_s (i_s! (s!)^(i_s)) prod_s x_s^(i_s).

    The weight of a block type is the number of set partitions of n
    elements with i_s blocks of size s, an integer, so it is taken as an
    exact integer quotient of n! by the block-type denominator; the sum
    stays in the ring of the arguments (ints stay ints).

    One explicit-stack walk picks the counts i_s from the largest size
    s = n-k+1 down.  A frame holds the elements and blocks left for the
    sizes below s; it keeps only counts with which those blocks can
    still hold the elements, at least one and at most s-1 each, so no
    branch dies.  Once the sizes 1 and 2 are left the counts are forced:
    left - blocks pairs and the rest singletons; 0 < k <= n."""
    fact = [1]
    for j in range(1, n + 1):
        fact.append(fact[-1] * j)
    total = None
    # frame: (size, elements left, blocks left, denominator, product)
    stack = [(n - k + 1, n, k, 1, None)]
    while stack:
        size, left, blocks, denom, prod = stack.pop()
        if size <= 2:
            pairs = left - blocks
            singles = blocks - pairs
            denom *= fact[pairs] * 2**pairs * fact[singles]
            if pairs:
                prod = _times_power(prod, xs[1], pairs)
            prod = _times_power(prod, xs[0], singles)
            term = exact_quotient(fact[n], denom)
            if prod is not None:
                term = prod * term
            total = term if total is None else total + term
            continue
        x, block = xs[size - 1], fact[size]
        lo = max(left - (size - 1) * blocks, 0)
        hi = (left - blocks) // (size - 1)
        for i in range(lo, hi + 1):
            stack.append((size - 1, left - size * i, blocks - i,
                          denom * fact[i] * block**i, _times_power(prod, x, i)))
    return total


def _times_power(prod, x, i: int):
    """prod * x^i, with None standing for the empty product."""
    if not i:
        return prod
    power = x if i == 1 else x**i
    return power if prod is None else prod * power


def _bell_generating_function(n: int, k: int, xs: Sequence):
    # the exponents below k and above n never contribute, but building the
    # full series keeps this route visibly independent of the other one
    order = n + 1
    coeffs = [Rational(0)]
    for i in range(1, order):
        if i <= len(xs):
            coeffs.append(xs[i - 1] * Rational(1, math.factorial(i)))
        else:
            coeffs.append(Rational(0))
    inner_pow_k = _power_of_list(coeffs, k, order)
    return inner_pow_k[n] * Rational(math.factorial(n), math.factorial(k))


def _power_of_list(coeffs: list, k: int, order: int) -> list:
    """k-th power of a coefficient list, truncated; plain convolution so
    this route shares nothing with the TruncatedSeries implementation."""
    result = [Rational(0)] * order
    result[0] = Rational(1)
    for _ in range(k):
        nxt = [Rational(0)] * order
        for i, c in enumerate(result):
            if not c:
                continue
            for j in range(order - i):
                d = coeffs[j]
                if d:
                    nxt[i + j] = nxt[i + j] + c * d
        result = nxt
    return result


def bell_scaling_check(n: int, k: int, a, b, xs: Sequence) -> bool:
    """Does B_{n,k}(a b x_1, a b^2 x_2, ...) = a^k b^n B_{n,k}(x_1, x_2, ...)
    hold for these arguments?  Both sides are computed by partition sums."""
    scaled = [xs[i] * (a * b ** (i + 1)) for i in range(len(xs))]
    lhs = bell_partial(n, k, scaled)
    rhs = bell_partial(n, k, xs) * (a**k) * (b**n)
    return lhs == rhs


def stirling_bell_arguments(count: int, domain: Domain) -> list:
    """The first count Bell arguments of the scaled Stirling values,
    scaled to integers.

    The values are B_{N,k} at 1, (λ-1), (λ-1)(λ-2), ...  B_{N,k} is
    homogeneous: scaling x_i by q^(i-1) scales it by q^(N-k), so at
    λ = p/q (p = λ, q = 1 symbolically) the arguments are the integers
    x_i = (p-q)(p-2q)...(p-(i-1)q) and B_{N,k} of them is
    T(N,k) = q^(N-k) λ^(N-k) S-deformed(N,k).
    """
    p, q, _, one = domain.parts
    xs = [one]
    for i in range(1, count):
        xs.append(xs[-1] * (p - i * q))
    return xs


def scaled_degenerate_stirling(N: int, k: int, domain: Domain):
    """λ^(N-k) times the 1/λ-deformed Stirling number of the second kind,
    realized without ever leaving Q[λ]: the partial Bell polynomial
    B_{N,k} at 1, (λ-1), (λ-1)(λ-2), ...  At λ = 0 the values are the
    signed first-kind Stirling numbers.
    """
    if k < 0 or N < 0 or k > N:
        return domain.zero
    xs = stirling_bell_arguments(N - k + 1, domain)
    value = bell_partial(N, k, xs, via="partition_sum")
    return domain.scaled(value, 1, domain.parts[1] ** (N - k))


def scaled_stirling_triangle(
    n_max: int, domain: Domain, via: str = "generating_function"
) -> Triangle:
    """Triangle of the scaled values of :func:`scaled_degenerate_stirling`.

    Route "generating_function" reads N!/k! [t^(N-k)] of the k-th power
    of the deformed log-over-t series, where the λ powers cancel exactly,
    with that power taken only below order n_max + 1 - k
    (:func:`_power_table_triangle`; undefined at λ = 0); route
    "bell_formula" takes every value from the Bell formula.  Both give
    the same values; verify and the tests compare them.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if via == "generating_function":
        base = degenerate_log_over_t_series(domain, n_max)
        return _power_table_triangle("scaled_second", n_max, base)
    if via == "bell_formula":
        return Triangle(domain, tuple([
            tuple([scaled_degenerate_stirling(N, k, domain) for k in range(N + 1)])
            for N in range(n_max + 1)
        ]), "scaled_second")
    raise ValueError(f"unknown route {via!r}")
