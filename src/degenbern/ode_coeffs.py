"""The triangle of coefficients that closes the derivative family of the
reciprocal deformed logarithm.

Row N holds the N+1 scalars c_0..c_N with

    (-1)^N (1+t)^N F^(N) = sum_i c_i F^(i+1),     F = 1/log-deformed(1+t).

Entry (N, i) is an integer-coefficient λ-polynomial of degree N - i whose
constant term is (-1)^(N+i) i! times the signed first-kind Stirling
number s(N, i), so at λ = p/q (p = λ, q = 1 symbolically) the scaled
entry C_i(N) = q^(N-i) c_i(N) is an integer.  Three routes build whole
rows at that scale and divide back once per entry: the two-term
recurrence of :func:`coeff_triangle` (the reference), the Stirling
closed form over integer Bell values, and the falling-factorial closed
form over alternating sums of q^N (λl)_N = prod_j (lp - jq), whose one
division, by p^i, is exact because C_i(N) is an integer.  A fourth
route unrolls the recurrence in N alone.  The verify module and the
tests force all four to agree.
"""

from __future__ import annotations

import math

from .scalars import Domain, DomainError, PackedRun, Rational, Scalar, exact_quotient
from .combinatorics import (
    Triangle,
    alternating_falling_sums,
    bell_partial,
    stirling1_signed,
    stirling_bell_arguments,
)


# the coefficient triangle's former name, kept as an alias
CoeffTable = Triangle


def scaled_triangle_rows(n_max: int, domain: Domain) -> list[list]:
    """Rows 0..n_max of the triangle scaled to integers.

    At λ = p/q (p = λ, q = 1 symbolically) entry (N, i) is an
    integer-coefficient polynomial of degree N - i, so
    C_i(N) = q^(N-i) c_i(N) is an integer (an integer-coefficient
    λ-polynomial symbolically).  Scaled, the recurrence of
    :func:`coeff_triangle` reads

        C_i(N+1) = (Nq + (i+1)p) C_i(N) + i C_(i-1)(N),

    with left edge C_0(N+1) = (Nq + p) C_0(N) and right edge
    C_(N+1)(N+1) = (N+1) C_N(N); no step divides.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    p, q, _, one = domain.parts
    rows = [[one]]
    for N in range(n_max):
        row = rows[-1]
        new = [(N * q + p) * row[0]]
        for i in range(1, N + 1):
            new.append((N * q + (i + 1) * p) * row[i] + i * row[i - 1])
        new.append((N + 1) * row[N])
        rows.append(new)
    return rows


def coeff_triangle(n_max: int, domain: Domain) -> Triangle:
    """Reference route: grow the triangle row by row.

    From row N to row N+1: the left edge picks up a factor N + λ, the
    right edge a factor N + 1, and interior entry i is
    (N + (i+1) λ) row[i] + i row[i-1].  The rows grow in integers at
    the scale C_i(N) = q^(N-i) c_i(N) of :func:`scaled_triangle_rows`,
    where no step divides, and each entry is one reduced value
    C_i(N) / q^(N-i).  Row 0 is the convention row (1,) that the
    summation identities rely on.
    """
    rows = scaled_triangle_rows(n_max, domain)
    return Triangle(domain, tuple([_unscaled(N, row, domain) for N, row in enumerate(rows)]))


def scaled_stirling_row(N: int, domain: Domain, xs: list) -> list:
    """Row N scaled to integers, by the Stirling closed form

        c_i(N) = (-1)^N sum_{k=i}^{N} (-1)^k k! C(k,i) λ^(k-i) s(N,k),

    s(N,k) = λ^(N-k) S-deformed(N,k).  At λ = p/q (p = λ, q = 1
    symbolically) the Bell row T(N,k) = B_{N,k}(xs) = q^(N-k) s(N,k) of
    the integer arguments xs of :func:`stirling_bell_arguments` (at least
    N of them) gives C_i(N) = q^(N-i) c_i(N), the scale of
    :func:`scaled_triangle_rows`, as the integer
    (-1)^N sum_k (-1)^k k! C(k,i) p^(k-i) T(N,k); no step divides.  At a
    rational λ the sums add int products; over Q[λ] the N+1 sums are one
    call of a fresh :class:`PackedRun`.
    """
    p, _, zero, one = domain.parts
    signed = [bell_partial(N, k, xs) * ((-1) ** (N + k) * math.factorial(k))
              for k in range(N + 1)]
    powers = [one]
    for _ in range(N):
        powers.append(powers[-1] * p)
    if domain.is_symbolic:
        rows = [([(math.comb(k, i), k - i, k) for k in range(i, N + 1)], 1) for i in range(N + 1)]
        return PackedRun().dots(powers, signed, rows)
    row = []
    for i in range(N + 1):
        acc = zero
        for k in range(i, N + 1):
            acc += math.comb(k, i) * powers[k - i] * signed[k]
        row.append(acc)
    return row


def _unscaled(N: int, row: list, domain: Domain) -> tuple[Scalar, ...]:
    """Row N from its integer scale: entry i is C_i(N) / q^(N-i)."""
    q = domain.parts[1]
    return tuple([domain.scaled(v, 1, q ** (N - i)) for i, v in enumerate(row)])


def scaled_falling_row(N: int, domain: Domain) -> list:
    """Row N scaled to integers, by the falling-factorial closed form

        c_i(N) = (-1)^N λ^(-i) sum_{k=i}^{N} C(k,i) sum_{l=0}^{k} (-1)^l C(k,l) (λl)_N,

    with (x)_N the plain falling factorial.  At λ = p/q (p = λ, q = 1
    symbolically) the scale is q^N (λl)_N = prod_j (lp - jq); with the
    sign (-1)^N spread over the N factors, (-1)^N q^N times inner sum k
    is the integer D_k of :func:`alternating_falling_sums` at
    (a, b) = (-p, -q).  So C_i(N) = q^(N-i) c_i(N), the scale of
    :func:`scaled_triangle_rows`, is sum_k C(k,i) D_k / p^i, exact because
    C_i(N) is an integer: symbolically a verified coefficient shift, at a
    rational λ a checked integer division.  At λ = 0 it is 0/0, so that
    point must go through another route.
    """
    if domain.lam_is_zero:
        raise DomainError(
            "the alternating-sum route divides by λ^i and has no value at "
            "λ = 0; use the recurrence or Stirling route there"
        )
    p, q, zero, one = domain.parts
    sums = alternating_falling_sums(-p, -q, N, one)
    row = []
    for i in range(N + 1):
        acc = zero
        for k in range(i, N + 1):
            acc += math.comb(k, i) * sums[k]
        row.append(acc.shifted_down(i) if domain.is_symbolic else exact_quotient(acc, p**i))
    return row


def coeff_explicit_falling(N: int, domain: Domain) -> tuple[Scalar, ...]:
    """Row N through double alternating sums over falling factorials (no
    value at λ = 0): the integer row of :func:`scaled_falling_row`, which
    the falling form of the Bernoulli values also reads, divided back."""
    _check_row(N)
    return _unscaled(N, scaled_falling_row(N, domain), domain)


def coeff_explicit_stirling(N: int, domain: Domain) -> tuple[Scalar, ...]:
    """Row N through scaled second-kind Stirling values: the integer row
    of :func:`scaled_stirling_row`, which the Stirling form of the
    Bernoulli values also reads, divided back to c_0(N)..c_N(N)."""
    _check_row(N)
    xs = stirling_bell_arguments(N + 1, domain)
    return _unscaled(N, scaled_stirling_row(N, domain, xs), domain)


def coeff_unrolled_recurrence(N: int, domain: Domain) -> tuple[Scalar, ...]:
    """Row N by unrolling the triangle recurrence in N only.

    From the diagonal c_i(i) = i!, the recurrence in N unrolls to

        c_i(M) = i! P_(M-i) + i sum_{l<M-i} P_l c_(i-1)(M-l-1),
        P_l = prod_{M'=M-l}^{M-1} (M' + (i+1)λ),

    so column i needs only column i-1, and column 0 is the closed
    left-edge product λ(λ+1)...(λ+M-1); the route never touches
    :func:`coeff_triangle`.  The columns are swept for rows M = i..N at
    the scale C_i(M) = q^(M-i) c_i(M) of :func:`scaled_triangle_rows`
    (λ = p/q; p = λ, q = 1 symbolically), where the factors of P_l are
    the integers M'q + (i+1)p, P_l grows by one of them per l and no step
    divides; row N is divided back once.
    """
    _check_row(N)
    p, q, zero, one = domain.parts
    row = []
    below = []  # column i-1: C_(i-1)(M) at index M - i + 1
    for i in range(N + 1):
        factors = [m * q + (i + 1) * p for m in range(N)]
        column = []
        for M in range(i, N + 1):
            tail, P = zero, one
            for l in range(M - i):
                if i:
                    tail += P * below[M - l - i]
                P *= factors[M - l - 1]
            column.append(math.factorial(i) * P + i * tail)
        row.append(column[-1])
        below = column
    return _unscaled(N, row, domain)


def coeff_limit_at_zero(N: int, i: int, table: Triangle | None = None) -> Rational:
    """The λ -> 0 value of entry (N, i): (-1)^(N+i) i! s(N, i)."""
    _check_row(N)
    if not 0 <= i <= N:
        raise ValueError(f"entry {i} outside row {N}")
    if table is None:
        table = stirling1_signed(N)
    if table.kind != "first_signed" or table.n_max < N:
        raise ValueError("need a signed first-kind table covering row N")
    sign = -1 if (N + i) % 2 else 1
    return Rational(sign * math.factorial(i) * table.value(N, i))


def _check_row(N: int):
    if N < 1:
        raise ValueError("rows start at N = 1 (row 0 is the convention row)")


