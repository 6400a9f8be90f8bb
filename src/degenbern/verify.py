"""Mechanical verification of the identity families tying everything
together: the closed derivative family of F = 1/deformed-log(1+t), its
λ -> 0 derivative expansions, the convolution identity of the
coefficient triangle, the higher-order reconstruction of the Bernoulli
row, the cancellation of its singular part, and the cross-route
agreement suites.

Every check is an exact coefficient comparison of truncated series or
λ-polynomials; there are no tolerances.  Each verifier returns an
:class:`IdentityReport` whose ``compared`` field pins down the exact
window that was checked, so a "pass" is a precise finite statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .scalars import (
    Domain,
    EvaluatedDomain,
    Rational,
    SYMBOLIC,
    poly_eval,
    rational_dots,
    scalar_to_json,
)
from .series import (
    LaurentSeries,
    classical_log_reciprocal,
    degenerate_exp_series,
    degenerate_log_over_t_series,
    degenerate_log_reciprocal,
    one_plus_t_power,
    powers,
    weighted_sum,
    window,
)
from .combinatorics import (
    Triangle,
    bell_partial,
    degenerate_stirling2,
    scaled_stirling_triangle,
    stirling1_signed,
    stirling_bell_arguments,
)
from .ode_coeffs import (
    coeff_explicit_falling,
    coeff_explicit_stirling,
    coeff_limit_at_zero,
    coeff_triangle,
    coeff_unrolled_recurrence,
)
from . import bernoulli


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact identity check.

    ``witness`` holds the first offending position and both side values
    when the check fails (the singular part, which has one side, holds
    its value); ``compared`` records what was actually compared;
    ``details`` carries per-identity extras (for the higher-order
    reconstruction: how the two readings of the third-sum factorial
    weight fared).
    """

    identity: str
    parameters: dict
    verdict: bool
    witness: dict | None = None
    compared: dict | None = None
    details: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "parameters": self.parameters,
            "verdict": "pass" if self.verdict else "fail",
            "compared": self.compared,
            "witness": self.witness,
            "details": self.details,
        }


def _first_disagreement(checks, domain: Domain | None) -> tuple[bool, dict | None]:
    """(True, None) when both sides of every check agree, else (False,
    witness) for the first check whose sides differ.

    A check is ``(position, name_a, a, name_b, b)``; the witness is the
    position dict followed by both sides under their names, rendered by
    scalar_to_json after coercion into ``domain`` when one is given.
    Checks are drawn one at a time, so nothing after the first
    disagreement is computed, and a pass renders nothing."""
    for position, name_a, a, name_b, b in checks:
        if a != b:
            if domain is not None:
                a, b = domain.coerce(a), domain.coerce(b)
            return False, {**position, name_a: scalar_to_json(a), name_b: scalar_to_json(b)}
    return True, None


def _laurent_report(
    identity: str, params: dict, lhs: LaurentSeries, rhs: LaurentSeries
) -> IdentityReport:
    lo, hi = window((lhs, rhs))
    checks = (
        ({"exponent": e}, "lhs", lhs.coefficient(e), "rhs", rhs.coefficient(e))
        for e in range(lo, hi + 1)
    )
    ok, witness = _first_disagreement(checks, None)
    compared = {"exponent_low": lo, "exponent_high": hi}
    return IdentityReport(identity, params, ok, witness, compared)


# ---------------------------------------------------------------------------
# the closed derivative family


def verify_ode(
    N: int,
    order: int,
    domain: Domain = SYMBOLIC,
    coeffs: Triangle | None = None,
    table: list | None = None,
) -> IdentityReport:
    """Check (-1)^N (1+t)^N F^(N) = sum_i c_i(N) F^(i+1) exactly, where
    the c_i(N) are the coefficient-triangle entries.

    F is built at truncation order ``order + N`` so that after N
    derivative applications the comparison still covers ``order``
    meaningful coefficients starting at exponent -(N+1).  ``table``, the
    powers of F at a larger order (see :func:`_power_table`), is cut to
    that order instead.
    """
    if N < 1:
        raise ValueError("the derivative family starts at N = 1")
    if order < 2:
        raise ValueError("order too small to compare anything")
    pows = _power_table(
        table, N, order, domain, lambda m: degenerate_log_reciprocal(domain, m))
    deriv = pows[0].derivative(N)
    lhs = deriv * LaurentSeries(0, one_plus_t_power(domain, N, deriv.body.order))
    if N % 2:
        lhs = -lhs
    rhs = weighted_sum(_triangle(coeffs, N, domain).row(N), pows)
    params = {"N": N, "order": order, "lambda": domain.describe()}
    return _laurent_report("ode_family", params, lhs, rhs)


def verify_convolution(
    n: int, domain: Domain = SYMBOLIC, coeffs: Triangle | None = None
) -> IdentityReport:
    """Check, for every 1 <= j <= n, the convolution identity

    sum_{i=1}^{j} w_{j-i} (c_{n-i}(n) - n c_{n-i}(n-1))
        = c_{n-j}(n) - n! w_j,

    with weights w_m = (1)(1-λ)...(1-(m-1)λ)/m!, the coefficients of the
    deformed exponential (1+λt)^(1/λ).

    Of row n of the table the check sees entries 1..n-1 only: entry
    (n, 0) enters both sides with weight 1 and cancels, and (n, n) is
    never read, so a table wrong at either still passes (for n = 1, all
    of row 1).  Row n-1 is read in full.
    """
    if n < 1:
        raise ValueError("the convolution identity starts at n = 1")
    table = _triangle(coeffs, n, domain)
    weights = degenerate_exp_series(domain, n + 1).coeffs
    bracket = {i: table.value(n, n - i) - n * table.value(n - 1, n - i)
               for i in range(1, n + 1)}
    checks = (
        ({"j": j},
         "lhs", sum((weights[j - i] * bracket[i] for i in range(1, j + 1)), domain.zero),
         "rhs", table.value(n, n - j) - math.factorial(n) * weights[j])
        for j in range(1, n + 1)
    )
    ok, witness = _first_disagreement(checks, domain)
    params = {"n": n, "lambda": domain.describe()}
    compared = {"j_low": 1, "j_high": n}
    return IdentityReport("cor_3_4", params, ok, witness, compared)


# ---------------------------------------------------------------------------
# classical derivative expansions (λ = 0)


def verify_classical_derivative(
    N: int, order: int, which: str = "eq41", table: list | None = None
) -> IdentityReport:
    """Check the N-th derivative expansion of 1/log(1+t) ("eq41") or of
    t/log(1+t) ("eq42") against its first-kind-Stirling closed form.
    F0 = 1/log(1+t) is built at order ``order + N``, or cut to it from
    ``table``, the powers of F0 at a larger order."""
    if N < 1:
        raise ValueError("derivative expansions start at N = 1")
    if order < 2:
        raise ValueError("order too small to compare anything")
    if which not in ("eq41", "eq42"):
        raise ValueError(f"unknown identity {which!r}")
    pows = _power_table(table, N, order, EvaluatedDomain(0), classical_log_reciprocal)
    F0 = pows[0]
    s1 = stirling1_signed(N)
    inv = LaurentSeries(0, one_plus_t_power(F0.domain, -N, F0.body.order))

    lhs = (F0 if which == "eq41" else F0.shifted(1)).derivative(N)

    signs = [(-1) ** k * math.factorial(k) for k in range(N + 1)]
    here = [w * s1.value(N, k) for k, w in enumerate(signs)]
    if which == "eq41":
        rhs = weighted_sum(here, pows)
    else:
        # F0^(k+1) times (-1)^k k! (N s(N-1,k) + (s(N,k) + N s(N-1,k)) t)
        low = [w * N * s1.value(N - 1, k) for k, w in enumerate(signs)]
        high = [h + w for h, w in zip(here, low)]
        rhs = weighted_sum(low + high, pows + [p.shifted(1) for p in pows])
    rhs = rhs * inv
    identity = "eq_41" if which == "eq41" else "eq_42"
    params = {"N": N, "order": order, "lambda": "0"}
    return _laurent_report(identity, params, lhs, rhs)


# ---------------------------------------------------------------------------
# higher-order reconstruction and its singular part


class HigherOrderContext:
    """Shared tables for the reconstruction sums: the coefficient
    triangle through row max_N and, for every 1 <= r <= max_N + 1, the
    series coefficients b^(r)_idx / idx! of (t / log_λ(1+t))**r through
    index max_index; :meth:`b` reads the value b^(r)_idx."""

    def __init__(self, domain: Domain, max_N: int, max_index: int):
        if max_N < 1:
            raise ValueError("need max_N >= 1")
        self.domain = domain
        self.coeffs = coeff_triangle(max_N, domain)
        base = degenerate_log_over_t_series(domain, max_index + 1).reciprocal()
        self._rows = {r: power.coeffs for r, power in enumerate(powers(base, max_N + 1), 1)}
        self.max_N = max_N
        self.max_index = max_index

    def b(self, r: int, idx: int):
        return self._rows[r][idx] * math.factorial(idx)


def _triangle(coeffs: Triangle | None, n_max: int, domain: Domain) -> Triangle:
    """The given triangle after a size and domain check, or a new one."""
    if coeffs is None:
        return coeff_triangle(n_max, domain)
    if coeffs.n_max < n_max or coeffs.domain != domain:
        raise ValueError("coefficient triangle too small or of another domain")
    return coeffs


def _power_table(table: list | None, N: int, order: int, domain: Domain, build) -> list:
    """F, F**2, ..., F**(N+1) with bodies of order ``order + N``: the
    powers of F = ``build(order + N)``, or the first N + 1 of ``table``
    cut to that order, since a truncated series is exact below its
    order.  A table with too few powers, of another domain or too short
    to cut is a ValueError."""
    if table is None:
        return powers(build(order + N), N + 1)
    if len(table) < N + 1 or table[0].domain != domain:
        raise ValueError("power table too small or of another domain")
    return [LaurentSeries(p.pole, p.body.truncated(order + N)) for p in table[:N + 1]]


def _ensure_ctx(ctx, domain, N, top_index):
    if ctx is None:
        return HigherOrderContext(domain, N, top_index)
    if ctx.max_N < N or ctx.max_index < top_index or ctx.domain != domain:
        raise ValueError("context too small for the requested parameters")
    return ctx


def _reconstruction(j: int, N: int, ctx: HigherOrderContext, domain: Domain) -> tuple:
    """The three reconstruction sums for coefficient index j, under both
    readings of the third sum's factorial weight: (rhs, rhs_printed).

    For j >= 0 the smooth-part weight j!/(...)! applies, for j < 0 the
    weight is 1/(...)! (the singular-part normalization).  ``rhs`` reads
    the third sum's weight as j!/(l+i)!, which the derivation produces;
    ``rhs_printed`` reads it as j!/(l+1)!, the variant in the final
    printed statement, with the reciprocal factorial of a negative
    integer read as zero; its third sum is taken for j >= 0 only, where
    it is read.  The sums read the context's series coefficients
    b^(r)_idx / idx!, so the weights of the first two sums and of the
    derived third sum are integers; the printed reading weighs a
    coefficient by (l+i)!/(l+1)!, an integer for i >= 1 and 1/(l+1) for
    i = 0, so its row is an integer row over lcm(1..j+1).  One call of
    :func:`rational_dots` takes the first two sums as one row and each
    reading of the third sum as another, so each product is taken once,
    over the entries of triangle rows N and N-1 and the coefficients of
    order r through idx = j + min(r, N), each entered once.
    """
    jw = math.factorial(j) if j >= 0 else 1
    den = math.lcm(*range(1, j + 2))
    lefts = ctx.coeffs.row(N) + ctx.coeffs.row(N - 1)
    rights, start = [], {}
    for r in range(1, N + 2):
        start[r] = len(rights)
        rights.extend(ctx._rows[r][:j + min(r, N) + 1])
    s12, derived, printed = [], [], []
    for l in range(-N, j + 1):
        sign = -1 if (N + j + l) % 2 else 1
        cs = math.comb(N + j - l - 1, j - l) * sign * jw
        for i in range(max(0, -l), N + 1):
            s12.append((cs, i, start[i + 1] + l + i))
        for i in range(max(0, -l - 1), N):
            s12.append((-cs * N, N + 1 + i, start[i + 1] + l + i + 1))
        # the third sum: empty at l = -N, where i would start at N
        for i in range(max(0, -l), N):
            derived.append((-cs * N, N + 1 + i, start[i + 1] + l + i))
            if j >= 0 and l >= -1:
                scale = den * math.factorial(l + i) // math.factorial(l + 1)
                printed.append((-cs * N * scale, N + 1 + i, start[i + 1] + l + i))
    rows = [(s12, 1), (derived, 1), (printed, den)]
    first_two, third, third_printed = rational_dots(domain, lefts, rights, rows)
    return first_two + third, first_two + third_printed


def verify_higher_order(
    j: int, N: int, domain: Domain = SYMBOLIC, ctx: HigherOrderContext | None = None
) -> IdentityReport:
    """Check that the three reconstruction sums rebuild value j+N of the
    order-1 row from rows of order up to N+1 (j >= 0, N >= 1).

    The third sum's factorial weight is read as j!/(l+i)!, which is what
    the underlying expansion produces; the report's details record
    whether the weaker printed reading j!/(l+1)! also reproduces the
    value, so the discrepancy between the two stays visible.
    """
    if j < 0 or N < 1:
        raise ValueError("need j >= 0 and N >= 1")
    ctx = _ensure_ctx(ctx, domain, N, j + N)
    expected = ctx.b(1, j + N)
    rhs, rhs_printed = _reconstruction(j, N, ctx, domain)
    check = ({"index": j + N}, "lhs", expected, "rhs", rhs)
    ok, witness = _first_disagreement([check], domain)
    params = {"j": j, "N": N, "lambda": domain.describe()}
    details = {
        "third_sum_weight": "j!/(l+i)!",
        "printed_weight_variant_matches": bool(rhs_printed == expected),
    }
    return IdentityReport("thm_4_1", params, ok, witness, None, details)


def verify_singular(
    j: int, N: int, domain: Domain = SYMBOLIC, ctx: HigherOrderContext | None = None
) -> IdentityReport:
    """Check that the full singular part at exponent j vanishes:
    N >= 2, -(N-1) <= j <= -1."""
    if N < 2 or not (-(N - 1) <= j <= -1):
        raise ValueError("singular exponents are -(N-1) <= j <= -1 for N >= 2")
    ctx = _ensure_ctx(ctx, domain, N, j + N)
    value = _reconstruction(j, N, ctx, domain)[0]
    ok = not value
    witness = None
    if not ok:
        witness = {"j": j, "value": scalar_to_json(domain.coerce(value))}
    params = {"j": j, "N": N, "lambda": domain.describe()}
    return IdentityReport("cor_4_2", params, ok, witness, None)


# ---------------------------------------------------------------------------
# cross-route agreement suites


def verify_route_agreement_a(N_max: int, domain: Domain = SYMBOLIC) -> IdentityReport:
    """All row routes of the coefficient triangle agree with the
    recurrence reference."""
    if N_max < 1:
        raise ValueError("the route agreement starts at N = 1")
    table = coeff_triangle(N_max, domain)
    skip_falling = domain.lam_is_zero
    routes = {"stirling": coeff_explicit_stirling}
    if not skip_falling:
        routes["falling"] = coeff_explicit_falling
    routes["unrolled"] = coeff_unrolled_recurrence

    def checks():
        # every route's row N, then its entries in the order i -> route
        for N in range(1, N_max + 1):
            rows = [(route, row_of(N, domain)) for route, row_of in routes.items()]
            for i, reference in enumerate(table.row(N)):
                for route, row in rows:
                    yield {"i": i, "N": N, "route": route}, "reference", reference, "value", row[i]

    ok, witness = _first_disagreement(checks(), domain)
    params = {"max_N": N_max, "lambda": domain.describe()}
    details = {"skipped_routes": ["falling"]} if skip_falling else None
    return IdentityReport("a_routes", params, ok, witness, None, details)


def verify_route_agreement_b(n_max: int, domain: Domain = SYMBOLIC) -> IdentityReport:
    """All Bernoulli-row routes agree with the series reference, and the
    higher-order rows match their convolution cross-check."""
    ref = bernoulli.row_via_series(n_max, domain).values
    multi_top = min(n_max, 14)
    higher_top = min(n_max, 10)

    def rows():
        # (route, reference row, route row, top index compared), each
        # route computed only once the ones before it agree
        yield "recurrence", ref, bernoulli.row_via_recurrence(n_max, domain).values, n_max
        multi = bernoulli.row_via_multinomial(multi_top, domain).values
        yield "multinomial", ref, multi, multi_top
        for form in bernoulli.EXPLICIT_FORMS:
            yield form, ref, bernoulli.row_via_explicit(n_max, domain, form).values, n_max
        for r in (2, 3):
            direct = bernoulli.row_higher_order(r, higher_top, domain).values
            conv = bernoulli.convolution_row(r, higher_top, domain).values
            yield f"order_{r}_convolution", direct, conv, higher_top

    checks = (
        ({"n": n, "route": route}, "reference", reference[n], "value", values[n])
        for route, reference, values, top in rows()
        for n in range(top + 1)
    )
    ok, witness = _first_disagreement(checks, domain)
    params = {"max_n": n_max, "multinomial_max_n": multi_top, "lambda": domain.describe()}
    return IdentityReport("b_routes", params, ok, witness, None)


def verify_route_agreement_bell(n_max: int = 10) -> IdentityReport:
    """Partition-sum and generating-function Bell values agree, both on
    an integer argument family and on the λ-polynomial family
    1, (λ-1), (λ-1)(λ-2), ... of the scaled Stirling values
    (:func:`stirling_bell_arguments`)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")

    families = {
        "integers": [Rational(i + 1) for i in range(n_max + 1)],
        "deformed": stirling_bell_arguments(n_max + 1, SYMBOLIC),
    }
    checks = (
        ({"n": n, "k": k, "family": fam},
         "partition_sum", bell_partial(n, k, xs[:n - k + 1], via="partition_sum"),
         "generating_function", bell_partial(n, k, xs[:n - k + 1], via="generating_function"))
        for n in range(n_max + 1)
        for k in range(n + 1)
        for fam, xs in families.items()
    )
    ok, witness = _first_disagreement(checks, SYMBOLIC)
    return IdentityReport("bell_routes", {"max_n": n_max}, ok, witness, None)


def verify_route_agreement_stirling(n_max: int, domain: Domain = SYMBOLIC) -> IdentityReport:
    """Both deformed second-kind triangle routes agree, and both scaled
    triangle routes agree."""
    skip_gf_scaled = domain.lam_is_zero

    def pairs():
        # (triangle, row index name, two (route, triangle) pairs), the
        # scaled pair built only once the deformed pair agrees
        yield "degenerate_second", "n", [
            (via, degenerate_stirling2(n_max, domain, via=via))
            for via in ("generating_function", "bell_formula")]
        if not skip_gf_scaled:
            yield "scaled", "N", [
                ("bell_formula", scaled_stirling_triangle(n_max, domain, via="bell_formula")),
                ("generating_function", scaled_stirling_triangle(n_max, domain))]

    checks = (
        ({index: n, "k": k, "triangle": triangle},
         name_a, a.value(n, k), name_b, b.value(n, k))
        for triangle, index, ((name_a, a), (name_b, b)) in pairs()
        for n in range(n_max + 1)
        for k in range(n + 1)
    )
    ok, witness = _first_disagreement(checks, domain)
    params = {"max_n": n_max, "lambda": domain.describe()}
    details = {"skipped_routes": ["scaled generating_function"]} if skip_gf_scaled else None
    return IdentityReport("stirling_routes", params, ok, witness, None, details)


def verify_stirling_limit(n_max: int) -> IdentityReport:
    """λ -> 0 bridges: scaled second-kind values land on the signed
    first-kind triangle, and the coefficient triangle's constant terms
    are (-1)^(N+i) i! s(N, i).  Both sides are plain rationals."""
    s1 = stirling1_signed(n_max)
    table = coeff_triangle(n_max, SYMBOLIC)
    scaled_table = scaled_stirling_triangle(n_max, SYMBOLIC)
    zero = Rational(0)
    to_first = (
        ({"N": N, "k": k, "kind": "scaled_to_first"},
         "limit", poly_eval(scaled_table.value(N, k), zero),
         "expected", s1.value(N, k))
        for N in range(n_max + 1)
        for k in range(N + 1)
    )
    constants = (
        ({"N": N, "i": i, "kind": "coeff_constant_term"},
         "limit", poly_eval(table.value(N, i), zero),
         "expected", coeff_limit_at_zero(N, i, s1))
        for N in range(1, n_max + 1)
        for i in range(N + 1)
    )
    ok, witness = _first_disagreement(chain(to_first, constants), None)
    return IdentityReport("stirling_limit", {"max_n": n_max}, ok, witness, None)


# ---------------------------------------------------------------------------
# the identity suites and the whole battery


@dataclass
class _SuiteRun:
    """Parameters of one run of the identity suites, checked on
    construction, plus the tables the suites share: the coefficient
    triangle, the powers of F (ode) and of F0 (eq41, eq42), and the
    reconstruction context.  Each is built on first use, sized for every
    suite in ``suites``."""

    suites: tuple
    domain: Domain
    N_max: int
    n_max: int
    order: int
    max_j: int

    def __post_init__(self):
        if self.N_max < 1:
            raise ValueError("need N_max >= 1")
        if self.max_j < 0 and "thm41" in self.suites:
            raise ValueError("need max_j >= 0")
        if self.order < 2:
            raise ValueError("order too small to compare anything")

    def _size(self, top: dict) -> int:
        """The largest size that a suite of this run asks of a table,
        from ``top``, the size each suite that reads it needs."""
        return max(top[s] for s in self.suites if s in top)

    @cached_property
    def coeffs(self) -> Triangle:
        return coeff_triangle(self._size({"ode": self.N_max, "cor34": self.n_max}), self.domain)

    @cached_property
    def ode_powers(self) -> list:
        F = degenerate_log_reciprocal(self.domain, self.order + self.N_max)
        return powers(F, self.N_max + 1)

    @cached_property
    def classical_powers(self) -> list:
        size = self._size({"eq41": self.N_max, "eq42": self.n_max})
        return powers(classical_log_reciprocal(self.order + size), size + 1)

    @cached_property
    def ctx(self) -> HigherOrderContext:
        size = self._size({"thm41": self.max_j + self.N_max, "cor42": self.N_max - 1})
        return HigherOrderContext(self.domain, self.N_max, size)

    def reports(self) -> list:
        reports = [report for suite in self.suites for report in SUITES[suite](self)]
        if not reports:
            raise ValueError(f"{'/'.join(self.suites)} compares nothing at these sizes")
        return reports


# suite token -> the reports of its family, in order; verifiers are
# looked up by module-global name at call time so rebinding one (for
# tracing or in a test) reaches every suite
SUITES = {
    "ode": lambda run: [
        verify_ode(N, run.order, run.domain, run.coeffs, table=run.ode_powers)
        for N in range(1, run.N_max + 1)
    ],
    "cor34": lambda run: [
        verify_convolution(n, run.domain, run.coeffs)
        for n in range(1, run.n_max + 1)
    ],
    "eq41": lambda run: [
        verify_classical_derivative(N, run.order, "eq41", table=run.classical_powers)
        for N in range(1, run.N_max + 1)
    ],
    "eq42": lambda run: [
        verify_classical_derivative(n, run.order, "eq42", table=run.classical_powers)
        for n in range(1, run.n_max + 1)
    ],
    "thm41": lambda run: [
        verify_higher_order(j, N, run.domain, run.ctx)
        for N in range(1, run.N_max + 1)
        for j in range(run.max_j + 1)
    ],
    "cor42": lambda run: [
        verify_singular(j, N, run.domain, run.ctx)
        for N in range(2, run.N_max + 1)
        for j in range(-(N - 1), 0)
    ],
}


def default_order(N_max: int, n_max: int) -> int:
    """Truncation order of a suite run when none is given."""
    return 2 * max(N_max, n_max) + 8


def suite_reports(
    suites, domain: Domain, N_max: int, n_max: int, order: int, max_j: int
) -> list[IdentityReport]:
    """Reports of the named identity suites, in the order named.  N_max
    bounds the ode, eq41, thm41 and cor42 families, n_max the cor34 and
    eq42 ones, and max_j the thm41 one only.  Sizes that compare nothing
    raise ValueError."""
    return _SuiteRun(tuple(suites), domain, N_max, n_max, order, max_j).reports()


def verify_all(
    N_max: int = 8,
    n_max: int = 12,
    order: int | None = None,
    domain: Domain = SYMBOLIC,
    max_j: int = 8,
) -> list[IdentityReport]:
    """Run every identity family and agreement suite; deterministic
    report order.  ``order`` defaults to :func:`default_order`."""
    order = default_order(N_max, n_max) if order is None else order
    return _SuiteRun(tuple(SUITES), domain, N_max, n_max, order, max_j).reports() + [
        verify_route_agreement_a(min(N_max, 10), domain),
        verify_route_agreement_b(min(n_max, 12), domain),
        verify_route_agreement_bell(min(n_max, 10)),
        verify_route_agreement_stirling(min(n_max, 12), domain),
        verify_stirling_limit(min(n_max, 12)),
    ]
