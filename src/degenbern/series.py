"""Truncated formal power series and Laurent series over an exact domain.

A :class:`TruncatedSeries` knows its coefficients exactly for all
exponents below an explicit order M and knows nothing beyond.  Every
operation propagates the smallest justified order rather than silently
claiming precision, and differentiation always costs exactly one known
exponent.  A :class:`LaurentSeries` is t**(-pole) times a truncated
series body and follows the same bookkeeping.

Products are exact in both domains but computed two ways.  At a
rational λ a product scales both operands to integer numerators over
one denominator each and convolves them with a single packed integer
multiplication.  Over Q[λ], whose series have common denominators that
grow like factorials, each output coefficient is instead one packed dot
product of integer-coefficient λ-polynomials over the lcm of its own
terms' denominators (:func:`rational_dots`), with every operand packed
once per product.  The symbolic reciprocal sums its steps in the same
kernel, through one :class:`PackedRun` that packs each operand once per
reciprocal.

Laurent series combine linearly in one place, :func:`weighted_sum`.
Its result is known on the :func:`window` of its terms, from minus the
largest pole through the smallest top exponent, and Laurent equality
compares on the same window.

The named constructors at the bottom build the generating functions the
rest of the package feeds on: the binomial series (1+t)**λ, the
λ-deformed exponential, the λ-deformed logarithm divided by t, and the
reciprocal-logarithm Laurent series whose body coefficients carry the
second-kind Bernoulli values.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import factorial, lcm, perm
from operator import mul
from typing import Iterable

from .scalars import (
    Domain,
    DomainError,
    EvaluatedDomain,
    LambdaPoly,
    PackedRun,
    Rational,
    Scalar,
    _kronecker_product,
    exact_quotient,
    power_by_squaring,
    rational_dots,
)


class NonInvertibleConstantTerm(ArithmeticError):
    """Constant term is zero (or not a unit): the reciprocal is not a
    power series.  Callers that expect a pole should use LaurentSeries."""


class TruncatedSeries:
    """Power series known exactly through order-1.

    ``coeffs`` shorter than ``order`` are padded with exact zeros, which
    is the right reading for polynomial input; passing more coefficients
    than the order claims is an error.
    """

    __slots__ = ("_domain", "_coeffs")

    def __init__(self, domain: Domain, coeffs: Iterable = (), order: int | None = None):
        cs = [domain.coerce(c) for c in coeffs]
        if order is not None:
            if len(cs) > order:
                raise ValueError(
                    f"{len(cs)} coefficients claim more than order {order}"
                )
            cs.extend(domain.zero for _ in range(order - len(cs)))
        self._domain = domain
        self._coeffs = tuple(cs)

    @classmethod
    def _raw(cls, domain: Domain, coeffs: tuple) -> "TruncatedSeries":
        s = object.__new__(cls)
        s._domain = domain
        s._coeffs = coeffs
        return s

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def order(self) -> int:
        return len(self._coeffs)

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def __getitem__(self, n: int) -> Scalar:
        if 0 <= n < len(self._coeffs):
            return self._coeffs[n]
        raise IndexError(
            f"coefficient of t^{n} is beyond truncation order {self.order}"
        )

    def _check(self, other: "TruncatedSeries"):
        if self._domain != other._domain:
            raise DomainError("series from different λ-domains")

    # arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            m = min(self.order, other.order)
            return TruncatedSeries._raw(
                self._domain,
                tuple([self._coeffs[i] + other._coeffs[i] for i in range(m)]),
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return TruncatedSeries._raw(self._domain, tuple([-c for c in self._coeffs]))

    def __mul__(self, other):
        """Cauchy product truncated to the smaller order.

        At a rational λ both operands, cut to m = min(order), are written
        as integer numerators over the lcm of their denominators, and one
        Kronecker-packed integer product convolves the two numerator
        vectors; coefficient k is its k-th output over the product of the
        two lcms, reduced once.  Over Q[λ] the common denominators of a
        series grow like factorials, and packing whole Q[λ] series over
        one denominator each lost in every form tried, so the fork by
        domain is deliberate.  There coefficient k is the sum of a_i b_j
        over i + j = k, and all m of these sums are one call of
        :func:`rational_dots`, which clears each sum over the lcm of its
        own terms' denominators and adds it as one packed integer dot
        product: each numerator is packed once, each term is one integer
        product, and each coefficient is reduced once.
        """
        if isinstance(other, TruncatedSeries):
            self._check(other)
            m = min(self.order, other.order)
            if m and not self._domain.is_symbolic:
                a, b = self._coeffs[:m], other._coeffs[:m]
                da = lcm(*[c.denominator for c in a])
                db = lcm(*[c.denominator for c in b])
                z = _kronecker_product(
                    [c.numerator * (da // c.denominator) for c in a],
                    [c.numerator * (db // c.denominator) for c in b],
                )
                d = da * db
                return TruncatedSeries._raw(
                    self._domain, tuple([Rational(c, d) for c in z[:m]])
                )
            rows = [([(1, i, k - i) for i in range(k + 1)], 1) for k in range(m)]
            out = rational_dots(self._domain, self._coeffs[:m], other._coeffs[:m], rows)
            return TruncatedSeries._raw(self._domain, tuple(out))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers need a nonnegative integer")
        return power_by_squaring(one_series(self._domain, self.order), self, exponent)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; needs an invertible constant term.

        The recurrence c_0 = 1, c_n = -sum_k r_k c_(n-k) for c = a_0 / a,
        with r_k = a_k / a_0, runs in integers (λ-polynomials with integer
        coefficients in the symbolic domain).  Write r_k = s_k / w_k with
        w_k the positive denominator, E_0 = 1 and E_n = lcm of w_k E_(n-k)
        over the k <= n with a_k != 0.  Then Γ_n = E_n c_n satisfies

            Γ_0 = 1,   Γ_n = -sum_k s_k (E_n / (w_k E_(n-k))) Γ_(n-k),

        and each quotient is an integer because w_k E_(n-k) is one of the
        terms whose lcm is E_n.  Coefficient n is Γ_n / (E_n a_0).  At a
        rational λ the sum for Γ_n adds int products.  Over Q[λ] it is
        one packed dot product, so no term builds a λ-polynomial of its
        own, and all steps share one :class:`PackedRun`: s_n is packed
        when step n first reads it and Γ_n when step n + 1 does, and the
        run repacks every s_k and Γ_l, with headroom, only when a step's
        bound outgrows its slot width.
        """
        if self.order == 0:
            raise ValueError("cannot invert a series of order 0")
        domain = self._domain
        inv0 = _invert_constant(self._coeffs[0])
        ratios = [c * inv0 for c in self._coeffs]
        s = [r.numerator for r in ratios]
        w = [r.denominator for r in ratios]
        nonzero = [k for k in range(1, self.order) if s[k]]
        _, _, zero, one = domain.parts
        gamma, scale = [one], [1]
        run = PackedRun()
        for n in range(1, self.order):
            terms = []
            top = 1
            for k in nonzero:
                if k > n:
                    break
                d = w[k] * scale[n - k]
                terms.append((k, d))
                top = lcm(top, d)
            if domain.is_symbolic:
                row = [(exact_quotient(top, d), k, n - k) for k, d in terms]
                acc = run.dots(s[:n + 1], gamma, [(row, 1)])[0]
            else:
                acc = zero
                for k, d in terms:
                    acc += s[k] * exact_quotient(top, d) * gamma[n - k]
            gamma.append(-acc)
            scale.append(top)
        a, b = inv0.numerator, inv0.denominator
        out = [domain.scaled(g, a, b * e) for g, e in zip(gamma, scale)]
        return TruncatedSeries._raw(domain, tuple(out))

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/dt; the result order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate a series of order 0")
        return TruncatedSeries._raw(
            self._domain,
            tuple([(n + 1) * self._coeffs[n + 1] for n in range(self.order - 1)]),
        )

    def truncated(self, order: int) -> "TruncatedSeries":
        """The same series known only below ``order``; a cut above the
        known order, or below 0, is an error."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot cut order {self.order} to {order}")
        return TruncatedSeries._raw(self._domain, self._coeffs[:order])

    def __eq__(self, other):
        """Coefficientwise equality over the common known range."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self._domain != other._domain:
            return False
        m = min(self.order, other.order)
        return self._coeffs[:m] == other._coeffs[:m]

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(str(c) for c in self._coeffs[:6])
        if self.order > 6:
            shown += ", ..."
        return f"TruncatedSeries[order={self.order}]({shown})"


def _invert_constant(a0) -> Rational:
    if isinstance(a0, LambdaPoly):
        if not a0.is_constant or not a0:
            raise NonInvertibleConstantTerm(
                f"constant term {a0} is not an invertible constant"
            )
        return Rational(1) / a0.constant_term
    if not a0:
        raise NonInvertibleConstantTerm("constant term is zero")
    return Rational(1) / a0


class LaurentSeries:
    """t**(-pole) times a truncated series body, pole >= 0.

    Canonical form: either the pole is 0 or the body has a nonzero
    constant term; the constructor renormalizes.  Coefficients are known
    for every exponent e with -pole <= e <= top_exponent, and exponents
    below -pole are exact zeros.  Equality compares the overlap of the
    two known windows.
    """

    __slots__ = ("_pole", "_body")

    def __init__(self, pole: int, body: TruncatedSeries):
        if pole < 0:
            raise ValueError("pole order must be nonnegative")
        cs = body.coeffs
        # strip known zero leading coefficients into the pole; afterwards
        # either pole == 0, or the body leads with a nonzero, or the body
        # is empty (an object about which nothing nonzero is known)
        k = 0
        while k < pole and k < len(cs) and not cs[k]:
            k += 1
        if k:
            pole -= k
            cs = cs[k:]
        self._pole = pole
        self._body = TruncatedSeries._raw(body.domain, cs)

    @property
    def pole(self) -> int:
        return self._pole

    @property
    def body(self) -> TruncatedSeries:
        return self._body

    @property
    def domain(self) -> Domain:
        return self._body.domain

    @property
    def top_exponent(self) -> int:
        """Largest exponent whose coefficient is known."""
        return self._body.order - 1 - self._pole

    def coefficient(self, e: int) -> Scalar:
        """Coefficient of t**e; exact zero below the pole, error above
        the known window."""
        idx = e + self._pole
        if idx < 0:
            return self.domain.zero
        if idx < self._body.order:
            return self._body.coeffs[idx]
        raise IndexError(
            f"coefficient of t^{e} is beyond the known window "
            f"(top {self.top_exponent})"
        )

    def _check(self, other: "LaurentSeries"):
        if self.domain != other.domain:
            raise DomainError("Laurent series from different λ-domains")

    # arithmetic -------------------------------------------------------

    def __neg__(self):
        return LaurentSeries(self._pole, -self._body)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            self._check(other)
            return LaurentSeries(self._pole + other._pole, self._body * other._body)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("Laurent powers need a nonnegative integer")
        one = LaurentSeries(0, one_series(self.domain, self._body.order))
        return power_by_squaring(one, self, exponent)

    def shifted(self, k: int) -> "LaurentSeries":
        """Multiply by t**k (k may be negative)."""
        if k <= self._pole:
            return LaurentSeries(self._pole - k, self._body)
        # the exponents below k - pole are exact zeros
        zeros = (self.domain.zero,) * (k - self._pole)
        return LaurentSeries(0, TruncatedSeries._raw(self.domain, zeros + self._body.coeffs))

    def derivative(self, n: int = 1) -> "LaurentSeries":
        """The n-th derivative of t**(-p) G in one pass.

        d^n/dt^n takes c t**e to e(e-1)...(e-n+1) c t**(e-n), so the
        result is t**(-(p+n)) times the body whose coefficient k is
        multiplied by the integer falling factorial of e = k - p.  Every
        coefficient is known through the body order, so the known window
        shrinks by exactly n exponents, as after n first derivatives.  At
        pole 0 each of those steps strips the constant term's zero
        derivative from the body, so a pole-0 body needs at least n
        coefficients.
        """
        if n < 1:
            raise ValueError("derivative order must be positive")
        g = self._body.coeffs
        p = self._pole
        if len(g) < (n if p == 0 else 1):
            raise ValueError("cannot differentiate an order-0 body")
        body = tuple([_falling(k - p, n) * c for k, c in enumerate(g)])
        return LaurentSeries(p + n, TruncatedSeries._raw(self.domain, body))

    # comparison -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.domain != other.domain:
            return False
        lo, hi = window((self, other))
        return all(
            self.coefficient(e) == other.coefficient(e) for e in range(lo, hi + 1)
        )

    __hash__ = None

    def __repr__(self):
        return f"LaurentSeries[pole={self._pole}, top={self.top_exponent}]"


def _falling(e: int, n: int) -> int:
    """The falling factorial e(e-1)...(e-n+1) of an integer e."""
    return perm(e, n) if e >= 0 else (-1) ** n * perm(n - 1 - e, n)


def window(series) -> tuple[int, int]:
    """The exponents (low, high) at which every one of the Laurent
    ``series`` is known: from minus the largest pole through the
    smallest top exponent."""
    return -max(s.pole for s in series), min(s.top_exponent for s in series)


def weighted_sum(weights, series) -> LaurentSeries:
    """sum_i weights[i] series[i] of Laurent series of one domain (a
    DomainError otherwise), with weights that are values of that domain,
    known on the :func:`window` of the series.  The coefficient at each exponent is one row of
    :func:`rational_dots`, and each series coefficient in that window is
    one operand.  Weights and series differ in number: a ValueError."""
    if len(weights) != len(series):
        raise ValueError(f"one weight per series: {len(weights)} weights, {len(series)} series")
    domain = series[0].domain
    if any(s.domain != domain for s in series):
        raise DomainError("Laurent series from different λ-domains")
    low, top = window(series)
    rights, origins = [], []
    for s in series:
        # where this series' coefficient of t**0 sits among the operands
        origins.append(len(rights) + s.pole)
        rights.extend(s.body.coeffs[:top + s.pole + 1])
    rows = [([(1, i, at + e) for i, (s, at) in enumerate(zip(series, origins)) if e >= -s.pole], 1)
            for e in range(low, top + 1)]
    body = rational_dots(domain, weights, rights, rows)
    return LaurentSeries(-low, TruncatedSeries._raw(domain, tuple(body)))


def powers(s, count: int) -> list:
    """[s, s**2, ..., s**count] of a truncated or Laurent series, each
    power the one before times s; empty for count 0."""
    return list(accumulate(repeat(s, count), mul))


def truncated_powers(s: TruncatedSeries, count: int) -> list:
    """[s, s**2, ..., s**count] of a truncated series of order M, with
    s**k known only below order M + 1 - k: each power is the one before,
    cut to that order, times s, so the products shrink by one order per
    power.  These are the powers a triangle reads when column k takes
    s**k below order M + 1 - k.  Empty for count 0; a count above M + 1
    is a ValueError."""
    out = [s][:count]
    for k in range(2, count + 1):
        out.append(out[-1].truncated(s.order + 1 - k) * s)
    return out


# ---------------------------------------------------------------------------
# named constructors


def one_series(domain: Domain, order: int) -> TruncatedSeries:
    if order == 0:
        return TruncatedSeries._raw(domain, ())
    return TruncatedSeries._raw(domain, (domain.one,) + (domain.zero,) * (order - 1))


def one_plus_t_power(domain: Domain, exponent: int, order: int) -> TruncatedSeries:
    """(1+t)**exponent for any integer exponent, exactly known."""
    return TruncatedSeries(
        domain, (_falling(exponent, j) // factorial(j) for j in range(order)), order
    )


def degenerate_exp_series(domain: Domain, order: int) -> TruncatedSeries:
    """(1+λt)**(1/λ): coefficient of t^n is (1)(1-λ)(1-2λ)...(1-(n-1)λ)/n!,
    which stays polynomial in λ."""
    # at λ = p/q: the integer product q(q-p)...(q-(n-1)p) over q^n n!
    p, q, _, acc = domain.parts
    coeffs = []
    for n in range(order):
        if n:
            acc = acc * (q - (n - 1) * p)
        coeffs.append(domain.scaled(acc, 1, q**n * factorial(n)))
    return TruncatedSeries._raw(domain, tuple(coeffs))


def require_deformed(domain: Domain, what: str):
    if domain.lam_is_zero:
        raise DomainError(
            f"{what} is undefined at λ = 0; classical values come from the "
            "dedicated classical routes or from evaluating symbolic results"
        )


def degenerate_log_over_t_series(domain: Domain, order: int) -> TruncatedSeries:
    """((1+t)**λ - 1)/(λ t), the λ-deformed log of (1+t) divided by t.

    Coefficient of t^m is (λ-1)(λ-2)...(λ-m) / ((m+1) m!); the division
    by λ cancels symbolically, so coefficients are polynomial in λ.
    The λ = 0 point is excluded by definition of the deformation.
    """
    return _log_over_t_in_steps(domain, order, domain.parts[1])


def degenerate_log_over_t_series_in_u(domain: Domain, order: int) -> TruncatedSeries:
    """:func:`degenerate_log_over_t_series` in u = t/q at λ = p/q, so the
    u^n coefficient of a series built from it is q^n times the t^n one:
    coefficient m is num_m / (m+1)! with num_m = (p-q)(p-2q)...(p-mq), no
    denominator depends on λ.  Symbolically q = 1 and the series are one."""
    return _log_over_t_in_steps(domain, order, 1)


def _log_over_t_in_steps(domain: Domain, order: int, step) -> TruncatedSeries:
    require_deformed(domain, "the deformed logarithm series")
    # at λ = p/q: (p-q)...(p-mq) over step^m (m+1)!, in t at step q, in u at 1
    p, q, _, acc = domain.parts
    coeffs, den = [], 1
    for m in range(order):
        if m:
            acc = acc * (p - m * q)
            den *= step * (m + 1)
        coeffs.append(domain.scaled(acc, 1, den))
    return TruncatedSeries._raw(domain, tuple(coeffs))


def classical_log_over_t_series(order: int) -> TruncatedSeries:
    """log(1+t)/t: coefficient of t^m is (-1)^m/(m+1)."""
    return TruncatedSeries(
        EvaluatedDomain(0),
        (Rational(-1 if m % 2 else 1, m + 1) for m in range(order)),
        order,
    )


def degenerate_log_reciprocal(domain: Domain, order: int) -> LaurentSeries:
    """1 / deformed-log(1+t) as a Laurent series with a simple pole.

    The body is the reciprocal of :func:`degenerate_log_over_t_series`,
    so n! times body coefficient n is the n-th second-kind Bernoulli
    value for the domain's λ.
    """
    return LaurentSeries(1, degenerate_log_over_t_series(domain, order).reciprocal())


def classical_log_reciprocal(order: int) -> LaurentSeries:
    """1 / log(1+t), the λ = 0 counterpart, with a simple pole."""
    return LaurentSeries(1, classical_log_over_t_series(order).reciprocal())
