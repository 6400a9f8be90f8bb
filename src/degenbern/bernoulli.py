"""Second-kind Bernoulli values for the λ-deformation, by four
independent routes, plus their higher-order generalization and the
classical λ -> 0 numbers.

The defining generating function is t / deformed-log(1+t): value n is
n! times its t^n coefficient and is a λ-polynomial of degree at most n.
The first values are 1, (1-λ)/2, (λ²-1)/6.  Every route refuses an
evaluated domain with λ = 0; the classical numbers 1, 1/2, -1/6, 1/4...
are reached through :func:`classical_row` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scalars import (
    Domain,
    PackedRun,
    Rational,
    Scalar,
    SYMBOLIC,
    cancel_common,
    exact_quotient,
    poly_eval,
    rational_dots,
)
from .series import (
    classical_log_over_t_series,
    degenerate_log_over_t_series_in_u,
    require_deformed,
)
from .combinatorics import (
    stirling1_signed,
    stirling_bell_arguments,
)
from .ode_coeffs import scaled_falling_row, scaled_stirling_row, scaled_triangle_rows

MULTINOMIAL_CAP = 24

# The composition walk lists the products of every composition of each
# total up to this head, 2^head - 1 of them, and walks depth-first only
# past it.  row_via_multinomial(14) at λ = -12345677/1048573 (best of 20
# runs on a 2-core Xeon, Python 3.11) took 4.2 ms node by node, 6.0 ms
# with a head of 4, 2.6 ms at 8 and 1.9-2.0 ms from 10 to 12; heads of
# 14 and 16 raised the peak RSS of the process from 17 MB to 20 and 29 MB.
_WALK_HEAD = 11

EXPLICIT_FORMS = ("a_form", "stirling_form", "falling_form")


def _check_route(n_max: int, domain: Domain) -> None:
    """The guard of every route: a deformed domain and n_max >= 0."""
    require_deformed(domain, "a second-kind Bernoulli route")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")


def check_cap(route: str, n_max: int, cap: int) -> None:
    """The guard of a route whose cost is exponential in n_max."""
    if n_max > cap:
        raise ValueError(f"{route} route is exponential; n = {n_max} exceeds the cap of {cap}")


@dataclass(frozen=True)
class BernoulliRow:
    """Values 0..n of one computation route, tagged with where they came
    from so mixed-provenance comparisons stay visible."""

    domain: Domain
    order_r: int
    provenance: str
    values: tuple[Scalar, ...]

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def value(self, n: int) -> Scalar:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"row holds n = 0..{self.n_max}, got {n}")
        return self.values[n]


def row_via_series(n_max: int, domain: Domain) -> BernoulliRow:
    """n! times the coefficients of the reciprocal of the deformed
    log-over-t series, the reference route.  At λ = p/q the series is
    inverted in u = t/q and value n is n! [u^n] / q^n; symbolically q = 1."""
    _check_route(n_max, domain)
    return BernoulliRow(domain, 1, "series", _series_values(1, n_max, domain))


def _series_values(r: int, n_max: int, domain: Domain) -> tuple:
    """n! [t^n] of the r-th power of the reciprocal deformed log-over-t
    series, read in u = t/q as n! [u^n] / q^n, each one reduced value."""
    body = degenerate_log_over_t_series_in_u(domain, n_max + 1).reciprocal() ** r
    q = domain.parts[1]
    return tuple([domain.scaled(c.numerator, math.factorial(n), c.denominator * q**n)
                  for n, c in enumerate(body.coeffs)])


def row_via_recurrence(n_max: int, domain: Domain) -> BernoulliRow:
    """Triangular inversion of the defining series, value by value:

    b_0 = 1,   b_n = - sum_{l<n} C(n,l) (λ-1)_(n-l) b_l / (n-l+1).

    The sums run in integers (λ-polynomials with integer coefficients in
    the symbolic domain).  Write λ = p/q (p = λ, q = 1 symbolically),
    num_m = (p-q)(p-2q)...(p-mq) = q^m (λ-1)_m, D_0 = 1 and
    D_n = lcm over 1 <= m <= n of (m+1) D_(n-m).  Then
    γ_n = q^n D_n b_n satisfies

        γ_n = - sum_{l<n} C(n,l) num_(n-l) (D_n / ((n-l+1) D_l)) γ_l,

    and each quotient is an integer because (n-l+1) D_l is one of the
    terms whose lcm is D_n.  The binomials cancel most of this scale:
    built without cancelling, D_60 has 303 bits while the coefficients
    of b_60 have a 31-bit common denominator.  So γ_n and D_n are divided
    by their common factor before later values use them, which keeps
    γ_n = q^n D_n b_n.  Value n is γ_n / (q^n D_n).  At a rational λ the
    sum adds int products.  Over Q[λ] it is one packed dot product, and
    all steps share one :class:`PackedRun`: num_n is packed when step n
    first reads it and γ_n when step n + 1 does, and the run repacks
    every num_m and γ_l, with headroom, only when a step's bound
    outgrows its slot width.
    """
    _check_route(n_max, domain)
    _, q, zero, one = domain.parts
    num = stirling_bell_arguments(n_max + 1, domain)
    gamma, scale = [one], [1]
    run = PackedRun()
    for n in range(1, n_max + 1):
        top = 1
        for l in range(n):
            top = math.lcm(top, (n - l + 1) * scale[l])
        if domain.is_symbolic:
            row = [(math.comb(n, l) * exact_quotient(top, (n - l + 1) * scale[l]), n - l, l)
                   for l in range(n)]
            acc = run.dots(num[:n + 1], gamma, [(row, 1)])[0]
        else:
            acc = zero
            for l in range(n):
                factor = math.comb(n, l) * exact_quotient(top, (n - l + 1) * scale[l])
                acc += num[n - l] * factor * gamma[l]
        acc, top = cancel_common(acc, top)
        gamma.append(-acc)
        scale.append(top)
    values = tuple([domain.scaled(g, 1, q**n * scale[n]) for n, g in enumerate(gamma)])
    return BernoulliRow(domain, 1, "recurrence", values)


def value_via_multinomial(n: int, domain: Domain) -> Scalar:
    """Alternating sum over all compositions of n.

    Expanding the reciprocal geometrically gives, for each composition
    (m_1..m_k) of n into positive parts, the term
    (-1)^k n! prod_j (λ-1)_(m_j) / ((m_j + 1) m_j!).
    Value n of :func:`row_via_multinomial`; cost is Theta(2^n), capped to
    keep the CLI honest.
    """
    return row_via_multinomial(n, domain).values[n]


def row_via_multinomial(n_max: int, domain: Domain) -> BernoulliRow:
    """Whole row from one walk of the shared composition tree.

    Every part sequence with sum <= n_max is a composition of its own
    running total, so one walk of the tree takes the product of each
    composition of each n exactly once, as its parent's product times
    one step factor, and adds it to bucket n.  The subtree under a node
    depends only on its total, so the walk goes by lists of nodes: the
    products of all compositions of each total t <= _WALK_HEAD are built
    level by level, each from the lists of totals t - m.  Past the head
    a depth-first stack holds (total, parent list, step factor); an
    entry makes its children as one list and adds them to its bucket in
    one sum.  No node sums before it multiplies, so the 2^n_max - 1
    products stay separate and the route shares no step with the
    recurrence.

    A part m has weight w_m = -(λ-1)_m / (m+1)!; the sign folds in
    (-1)^k.  The walk multiplies integers (λ-polynomials with integer
    coefficients in the symbolic domain) and divides once per value.
    Write λ = p/q (p = λ, q = 1 symbolically) and let
    num_m = (p-q)(p-2q)...(p-mq) = q^m (λ-1)_m, L_0 = 1 and
    L_t = lcm over 1 <= m <= t of (m+1)! L_(t-m), the least common
    denominator of 1 / prod_j (m_j+1)! over the compositions of t.  A
    node at total t carries its product times the scale q^t L_t.  A
    step by part m from total t multiplies by

        step[t][m] = -num_m L_(t+m) / (L_t (m+1)!),

    which is an integer because (m+1)! L_t is one of the terms whose lcm
    is L_(t+m).  Bucket t is divided by q^t L_t and multiplied by t! at
    the end.
    """
    _check_route(n_max, domain)
    check_cap("multinomial", n_max, MULTINOMIAL_CAP)
    _, q, zero, one = domain.parts
    fact = [math.factorial(m) for m in range(n_max + 2)]
    scale = [1]
    for t in range(1, n_max + 1):
        top = 1
        for m in range(1, t + 1):
            top = math.lcm(top, fact[m + 1] * scale[t - m])
        scale.append(top)
    num = stirling_bell_arguments(n_max + 1, domain)
    # step[t][m - 1] for the parts m = 1..n_max-t; step[n_max] is empty
    step = [
        [num[m] * -exact_quotient(scale[t + m], scale[t] * fact[m + 1])
         for m in range(1, n_max - t + 1)]
        for t in range(n_max + 1)
    ]
    head = min(n_max, _WALK_HEAD)
    # level[t]: the products of the compositions of t, 2^(t-1) of them for t >= 1
    level = [[one]]
    for t in range(1, head + 1):
        level.append([acc * step[t - m][m - 1]
                      for m in range(1, t + 1) for acc in level[t - m]])
    buckets = [sum(nodes, zero) for nodes in level] + [zero] * (n_max - head)
    # (total, parent list, step factor): the children of a list of
    # nodes, entering the stack only for totals past the head
    stack = [(t + m, level[t], step[t][m - 1])
             for t in range(head + 1) for m in range(head + 1 - t, n_max - t + 1)]
    while stack:
        total, parents, factor = stack.pop()
        nodes = [acc * factor for acc in parents]
        buckets[total] += sum(nodes, zero)
        stack.extend([(total + m, nodes, f) for m, f in enumerate(step[total], 1)])
    values = tuple([domain.scaled(buckets[t], fact[t], q**t * scale[t])
                    for t in range(n_max + 1)])
    return BernoulliRow(domain, 1, "multinomial", values)


def value_via_explicit(n: int, domain: Domain, form: str = "a_form") -> Scalar:
    """One value from the closed forms that couple the Bernoulli row to
    the derivative-family coefficient triangle (n >= 1): value n of
    :func:`row_via_explicit`.
    """
    if n < 1:
        raise ValueError("explicit forms start at n = 1")
    return row_via_explicit(n, domain, form).values[n]


def row_via_explicit(n_max: int, domain: Domain, form: str = "a_form") -> BernoulliRow:
    """Values 0..n_max of one explicit form: the closing sum of
    :func:`_explicit_a_form` over integer triangle rows 0..n_max at the
    scale C_i(N) = q^(N-i) c_i(N), each form with rows of its own closed
    form.  "a_form" takes the recurrence rows of
    :func:`scaled_triangle_rows`, "stirling_form" the rows of
    :func:`scaled_stirling_row` from one list of Bell arguments, and
    "falling_form" the rows of :func:`scaled_falling_row`, alternating
    sums of q^N (λl)_N = prod_j (lp - jq) divided by p^i, exactly because
    C_i(N) is an integer.
    """
    _check_route(n_max, domain)
    if form not in EXPLICIT_FORMS:
        raise ValueError(f"unknown form {form!r}")
    if form == "a_form":
        rows = scaled_triangle_rows(n_max, domain)
    elif form == "stirling_form":
        xs = stirling_bell_arguments(n_max + 1, domain)
        rows = [scaled_stirling_row(N, domain, xs) for N in range(n_max + 1)]
    else:
        rows = [scaled_falling_row(N, domain) for N in range(n_max + 1)]
    deformed = _deformed_products(n_max, domain)
    values = [_explicit_a_form(n, domain, rows, deformed) for n in range(1, n_max + 1)]
    return BernoulliRow(domain, 1, "explicit", tuple([domain.one] + values))


def _deformed_products(n: int, domain: Domain) -> list:
    """G_0..G_n with G_i = prod_{j<=i} (q - jp) = q^(i+1) (1)(1-λ)...(1-iλ)
    at λ = p/q (p = λ, q = 1 symbolically), integers."""
    p, q, _, _ = domain.parts
    deformed = [q]
    for i in range(1, n + 1):
        deformed.append(deformed[-1] * (q - i * p))
    return deformed


def _explicit_a_form(n: int, domain: Domain, rows: list, deformed: list) -> Scalar:
    """Value n from triangle rows n and n-1, taken in integers at λ = p/q
    (p = λ, q = 1 symbolically):

        b_n = (-1)^n (1)(1-λ)...(1-nλ) / (n+1)
              + (-1)^n sum_{i<n} (1)(1-λ)...(1-iλ) / (i+1)! (c_i(n) - n c_i(n-1)).

    With the scaled rows C_i(N) = q^(N-i) c_i(N) (recurrence or Stirling
    rows) and G_i = q^(i+1) (1)(1-λ)...(1-iλ) (:func:`_deformed_products`),
    the value times the scale (n+1)! q^(n+1) is the integer

        (-1)^n (n! G_n + sum_{i<n} (n+1)!/(i+1)! G_i (C_i(n) - nq C_i(n-1))),

    where (n+1)!/(i+1)! is an integer because i < n; no step divides
    before the one reduced value at the end.
    """
    q = domain.parts[1]
    cur, prev = rows[n], rows[n - 1]
    nq = n * q
    out = math.factorial(n) * deformed[n]
    for i in range(n):
        out += math.perm(n + 1, n - i) * deformed[i] * (cur[i] - nq * prev[i])
    if n % 2:
        out = -out
    return domain.scaled(out, 1, math.factorial(n + 1) * q ** (n + 1))


def row_higher_order(r: int, n_max: int, domain: Domain) -> BernoulliRow:
    """Values of order r: n! times the coefficients of the r-th power of
    the reciprocal deformed log-over-t series, taken in u = t/q as in
    :func:`row_via_series`; symbolically q = 1."""
    _check_route(n_max, domain)
    if r < 1:
        raise ValueError("order r must be >= 1")
    return BernoulliRow(domain, r, "series", _series_values(r, n_max, domain))


def convolution_row(r: int, n_max: int, domain: Domain) -> BernoulliRow:
    """Order-r values as the r-fold binomial convolution of the order-1
    row; independent cross-check for :func:`row_higher_order`.

    Value n of each convolution is the sum of C(n, m) acc_m base_(n-m)
    over m <= n; the rows of these terms are built once, and each
    convolution is one call of :func:`rational_dots`, which clears each
    value's sum over one lcm and reduces it once."""
    _check_route(n_max, domain)
    if r < 1:
        raise ValueError("order r must be >= 1")
    base = row_via_recurrence(n_max, domain).values
    rows = [([(math.comb(n, m), m, n - m) for m in range(n + 1)], 1)
            for n in range(n_max + 1)]
    acc = base
    for _ in range(r - 1):
        acc = tuple(rational_dots(domain, acc, base, rows))
    return BernoulliRow(domain, r, "convolution", acc)


# ---------------------------------------------------------------------------
# classical values


def classical_row(n_max: int, route: str = "limit") -> list[Rational]:
    """Classical second-kind Bernoulli numbers 1, 1/2, -1/6, 1/4, ...

    Route "limit" evaluates the symbolic deformation at λ = 0; route
    "stirling" uses the closed sum over signed first-kind Stirling
    numbers, sum_i (-1)^i (s(n,i) + n s(n-1,i)) / (i+1).
    """
    if route == "limit":
        sym = row_via_series(n_max, SYMBOLIC)
        return [poly_eval(v, Rational(0)) for v in sym.values]
    if route == "stirling":
        table = stirling1_signed(n_max)
        out = []
        for n in range(n_max + 1):
            acc = Rational(0)
            for i in range(n + 1):
                combo = table.value(n, i)
                if n:
                    combo += n * table.value(n - 1, i)
                term = Rational(combo, i + 1)
                acc = acc + term if i % 2 == 0 else acc - term
            out.append(acc)
        return out
    raise ValueError(f"unknown route {route!r}")


def classical_series_row(n_max: int) -> list[Rational]:
    """Same numbers straight from 1/log(1+t) at pole distance one; mostly
    useful as yet another cross-check in tests."""
    body = classical_log_over_t_series(n_max + 1).reciprocal()
    return [body[n] * math.factorial(n) for n in range(n_max + 1)]
