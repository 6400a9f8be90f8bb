"""Exact scalars: arbitrary-precision rationals and polynomials in λ.

Everything in this package is computed over one of two coefficient
domains: plain rationals with λ fixed to a rational value, or the
polynomial ring Q[λ] with λ kept symbolic.  A frozen :class:`Domain`
value pins that choice, with the integer parts of λ = p/q that the
routes scale by, and is threaded through every series and table
constructor.  Values from different domains never meet inside one
computation; trying to mix them raises :class:`DomainError`.

No floats anywhere: rationals are :class:`fractions.Fraction`, and an
inexact λ or coefficient raises :class:`DomainError`.  A polynomial in
λ keeps integer numerators over one common denominator, in a canonical
form, and does its ring arithmetic in integers: a sum cross-scales the
two denominators, a product convolves the two numerator vectors, and
each operation divides out one gcd at its end.  A product picks its
convolution by the shorter operand's length: up to a few numerators it
multiplies term by term, and beyond that it packs both vectors into
one integer each and multiplies once (Kronecker substitution).  A
whole sum of products of integer-coefficient polynomials, the inner
loop of the symbolic series product, reciprocal and Bernoulli
recurrence, is one packed integer dot product with one reduction at its
end.  A :class:`PackedRun` holds the packed operands of such sums from
one call to the next: the reciprocal and the recurrence each keep one
run for all their steps, so each operand is packed once, when it
enters, and all of them are packed again only when a step needs wider
slots than the run has, at headroom over that need; a one-shot sum is
one call of a fresh run.  Sums of products of rational scalars in
either domain take the same rows, clear their denominators over one lcm
per sum and take the same route (:func:`rational_dots`).  The renderers
print each reduced coefficient from its numerator and the common
denominator by one gcd.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


class DomainError(ValueError):
    """A value was used in a coefficient domain it does not belong to."""


def rational_from_string(s: str) -> Rational:
    """Parse ``"p"`` or ``"p/q"`` into an exact reduced rational.

    Only decimal integers and integer ratios are accepted; the float and
    decimal notations that :class:`fractions.Fraction` would otherwise
    parse are rejected so no approximate value can slip in.

    >>> rational_from_string("2/4")
    Fraction(1, 2)
    >>> rational_from_string("-3")
    Fraction(-3, 1)
    """
    text = s.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an integer or integer ratio: {s!r}")
    if "/" in text and text.split("/", 1)[1].lstrip("0") == "":
        raise ValueError(f"zero denominator in {s!r}")
    return Rational(text)


def rational_to_string(q) -> str:
    """Render a rational as ``p/q``, or just ``p`` when the denominator is 1."""
    q = Rational(q)
    return str(q)


def _is_rational(value) -> bool:
    return type(value) is int or type(value) is Fraction or isinstance(value, numbers.Rational)


def _exact(value) -> Rational:
    """An exact rational as a Fraction; a float, a string or any other
    value raises :class:`DomainError` instead of being read as one."""
    if not _is_rational(value):
        raise DomainError(f"not an exact rational: {value!r}")
    return Rational(value)


# A product whose shorter operand has at most this many numerators is
# convolved term by term, a longer one is packed.  Timed per product,
# packing wins from about 8 or 9 numerators on 20- and 60-bit entries
# and not up to 12 on 200-bit ones; most numerators in the symbolic
# routes are under 32 bits.
_SCHOOLBOOK_MAX = 7


def _schoolbook_product(a: list, b: list) -> list:
    """Convolution of two nonempty integer vectors, one row of products
    per entry of ``a``; cheapest when ``a`` is the shorter."""
    x = a[0]
    out = [x * y for y in b]
    for i in range(1, len(a)):
        x = a[i]
        out.append(0)
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def _pack(v: list, w: int) -> int:
    """An integer vector packed into one int: its polynomial's value at
    ``2**w``, lowest coefficient in the lowest ``w`` bits."""
    x = 0
    for c in reversed(v):
        x = (x << w) + c
    return x


def _unpack(z: int, w: int, size: int) -> list:
    """The ``size`` lowest ``w``-bit slots of ``z`` as signed integers,
    for slots each known to hold a value under ``2**(w-1)`` in size.  A
    negative value borrows from the slot above; each slot is read as a
    signed value and subtracted before shifting, which returns the
    borrow."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    out = []
    for _ in range(size):
        c = ((z + half) & mask) - half
        out.append(c)
        z = (z - c) >> w
    return out


def _kronecker_product(a: list, b: list) -> list:
    """Convolution of two nonempty integer vectors by one integer product.

    Each vector is packed into one Python int as its polynomial's value
    at ``2**w`` (Kronecker substitution), the two ints are multiplied
    once, so CPython's Karatsuba multiplication does the convolution,
    and the product is cut back into ``w``-bit slots.  The slot width
    ``w = bits(max|a|) + bits(max|b|) + bits(min(len)) + 1`` bounds every
    product coefficient ``c`` by ``|c| < 2**(w-1)``, so each slot holds
    one signed coefficient.
    """
    w = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
         + min(len(a), len(b)).bit_length() + 1)
    return _unpack(_pack(a, w) * _pack(b, w), w, len(a) + len(b) - 1)


# A run whose step outgrows its slot width repacks every operand it holds
# at this many times the width the step needs.  The symbolic reciprocal
# and Bernoulli recurrence widen by a few bits a step.  Symbolic
# row_via_series at n = 32 and 60 (best of 45 and of 9 runs on a 2-core
# Xeon, Python 3.11) took 4.7 / 62 ms with no headroom (a repack at
# almost every step), 3.7-3.8 / 47-53 ms from 9/8 to 3/2, and 4.1 / 68 ms
# at 2, whose wider slots cost more than the repacks they save;
# row_via_recurrence read the same way.
_RUN_HEADROOM = Rational(5, 4)


class PackedRun:
    """Sums of products of integer-coefficient λ-polynomials
    (denominator 1) over a run of calls whose operand lists only grow.

    Each call's ``lefts`` and ``rights`` must extend those of the call
    before (same leading entries, possibly more after them).  The run
    keeps each operand's numerators, coefficient height and packed int,
    so an operand is read and packed once, when it first enters, and a
    call's cost is its new operands and its own terms.  The slot width
    only grows: the first call takes the width its largest row needs,
    and a later call whose rows need more repacks every operand held at
    ``_RUN_HEADROOM`` times the width needed, so a run that widens step
    by step repacks only now and then.  A one-shot sum is one call of a
    fresh run.
    """

    __slots__ = ("_a", "_b", "_ha", "_hb", "_pa", "_pb", "_w")

    def __init__(self):
        self._a, self._b = [], []  # numerator vectors
        self._ha, self._hb = [], []  # their heights max|c|
        self._pa, self._pb = [], []  # their values at 2**w, a prefix
        self._w = 0

    def dots(self, lefts: list, rights: list, rows: list) -> list:
        """One reduced λ-polynomial per row: row ``(terms, den)`` gives
        the sum of ``f * lefts[i] * rights[j]`` over the triples
        ``(f, i, j)`` of ``terms``, for int factors ``f``, divided by the
        positive int ``den``.

        Every operand is packed at ``2**w``, for one slot width ``w``
        shared by all rows, as in :func:`_kronecker_product`, so each
        term is one big-integer product; the products of a row add as
        ints, and each row is cut back into ``w``-bit slots and reduced
        once.  With ``S = sum |f| * min(len a_i, len b_j) * max|a_i| *
        max|b_j|`` over the terms of a row, every coefficient of that
        row's sum is at most ``S`` in size, and the slot width
        ``w = bits(max S) + 1`` gives ``S < 2**(w-1)``, so each slot
        holds one signed coefficient.  A wider slot decodes the same
        integers, which is what lets a run keep a width with headroom.
        """
        a, b, ha, hb = self._a, self._b, self._ha, self._hb
        for ops, vs, hs in ((lefts, a, ha), (rights, b, hb)):
            for p in ops[len(vs):]:
                v = p._nums
                vs.append(v)
                hs.append(max(map(abs, v)) if v else 0)
        bound = max([sum([abs(f) * min(len(a[i]), len(b[j])) * ha[i] * hb[j] for f, i, j in terms])
                     for terms, _ in rows] + [0])
        need = bound.bit_length() + 1
        w = self._w
        if need > w:
            w = int(need * _RUN_HEADROOM) if w else need
            self._w, self._pa, self._pb = w, [], []
        pa, pb = self._pa, self._pb
        pa += [_pack(v, w) for v in a[len(pa):]]
        pb += [_pack(v, w) for v in b[len(pb):]]
        out = []
        for terms, den in rows:
            z = 0
            for f, i, j in terms:
                z += f * pa[i] * pb[j]
            # a top slot t holding a nonzero value puts |z| at 2**(t*w - 1) or above
            out.append(LambdaPoly._reduced(_unpack(z, w, z.bit_length() // w + 1), den))
        return out


def rational_dots(domain: Domain, lefts, rights, rows: list) -> list:
    """Sums of products of values of ``domain``, one reduced value per
    row, in the rows of :meth:`PackedRun.dots`: row ``(terms, den)``
    gives the sum of ``f * lefts[i] * rights[j]`` over the triples
    ``(f, i, j)`` of ``terms``, divided by the positive int ``den``; an
    empty row gives zero.

    Each row is cleared of denominators over one lcm: with ``d`` the
    product of the two operands' denominators and ``L`` the lcm of the
    ``d`` of its terms, a term is the integer factor ``f * L / d`` times
    the two numerators, and the row is their sum over ``L * den``.  Over
    Q[λ] all rows are one call of a fresh :class:`PackedRun`; at a
    rational λ each row is a plain int sum, reduced once.
    """
    na = [x.numerator for x in lefts]
    nb = [x.numerator for x in rights]
    da = [x.denominator for x in lefts]
    db = [x.denominator for x in rights]
    cleared = []
    for terms, den in rows:
        ds = [da[i] * db[j] for _, i, j in terms]
        top = lcm(*ds)
        cleared.append(([(f * (top // d), i, j) for (f, i, j), d in zip(terms, ds)], top * den))
    if domain.is_symbolic:
        return PackedRun().dots(na, nb, cleared)
    return [Rational(sum([f * na[i] * nb[j] for f, i, j in terms]), top)
            for terms, top in cleared]


class LambdaPoly:
    """A polynomial in λ with exact rational coefficients.

    The coefficients are stored as a list of integer numerators,
    ascending by power, over one positive common denominator.  The form
    is canonical: trailing zero numerators are stripped (the zero
    polynomial is the empty list over 1) and the denominator shares no
    factor with all the numerators, so two polynomials are equal exactly
    when their numerator lists and denominators are.  Every operation
    works on integers and reduces by one gcd at its end (see the module
    notes for products and sums of products).  :attr:`coeffs` builds the
    reduced rational coefficients on each read.

    No list is changed once a polynomial holds it.  Lists rather than
    tuples: CPython keeps up to 2000 freed tuples of each small length
    for reuse until a full garbage collection, and with tuples the many
    short-lived numerator vectors raised the peak memory of the
    ``verify_battery`` benchmark workload by about 9%.

    Instances are immutable and support ring arithmetic with each other
    and with rational constants.  Division is allowed only by nonzero
    rational constants.

    >>> p = 1 + 3 * LAMBDA
    >>> str(p)
    '1+3*λ'
    >>> p.evaluate(Rational(0))
    Fraction(1, 1)
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_exact(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # over the lcm of reduced denominators no common factor is left
        den = lcm(*[c.denominator for c in cs])
        self._nums = [c.numerator * (den // c.denominator) for c in cs]
        self._den = den

    @classmethod
    def _make(cls, nums: list, den: int) -> "LambdaPoly":
        """Wrap numerators and a denominator already in canonical form."""
        p = object.__new__(cls)
        p._nums = nums
        p._den = den
        return p

    @classmethod
    def _reduced(cls, nums: list, den: int) -> "LambdaPoly":
        """``nums`` over ``den`` in canonical form."""
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            return cls._make([], 1)
        if den != 1:
            t = gcd(den, *nums)
            if t != 1:
                nums = [c // t for c in nums]
                den //= t
        return cls._make(nums, den)

    @classmethod
    def constant(cls, value) -> "LambdaPoly":
        if type(value) is int:
            return cls._make([value] if value else [], 1)
        q = _exact(value)
        return cls._make([q.numerator] if q else [], q.denominator)

    @property
    def coeffs(self) -> tuple:
        den = self._den
        return tuple([Rational(c, den) for c in self._nums])

    @property
    def numerator(self) -> "LambdaPoly":
        """The polynomial times its denominator: integer coefficients.

        With :attr:`denominator` this mirrors ``Fraction``, so code that
        splits a scalar into an integer part over a positive integer
        scale serves both domains."""
        return LambdaPoly._make(self._nums, 1)

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def degree(self) -> int:
        """Degree in λ; the zero polynomial reports -1."""
        return len(self._nums) - 1

    @property
    def constant_term(self) -> Rational:
        return Rational(self._nums[0], self._den) if self._nums else Rational(0)

    @property
    def is_constant(self) -> bool:
        return len(self._nums) <= 1

    def coefficient(self, i: int) -> Rational:
        if 0 <= i < len(self._nums):
            return Rational(self._nums[i], self._den)
        return Rational(0)

    def evaluate(self, x) -> Rational:
        """Evaluate at an exact rational point by Horner's rule on integers.

        At ``x = p/q`` the sum ``sum c_i p^i q^(d-i)`` is accumulated in
        integers and divided by ``den * q^d`` once.  An inexact point
        raises :class:`DomainError`.
        """
        x = _exact(x)
        if not self._nums:
            return Rational(0)
        p, q = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self._nums):
            acc = acc * p + c * scale
            scale *= q
        return Rational(acc, self._den * (scale // q))

    def shifted_down(self, i: int) -> "LambdaPoly":
        """Divide by λ**i, requiring the lowest i coefficients to vanish.

        This is the only way the package ever realizes a λ-power in a
        denominator: the division must be exact, anything else is a bug
        in the caller's formula and raises ArithmeticError.
        """
        if i < 0:
            raise ValueError("negative shift")
        if i == 0:
            return self
        if any(self._nums[:i]):
            raise ArithmeticError(
                f"polynomial {self} is not divisible by λ^{i}"
            )
        return LambdaPoly._make(self._nums[i:], self._den)

    # ring arithmetic ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, LambdaPoly):
            a, da = self._nums, self._den
            b, db = other._nums, other._den
            g = gcd(da, db)
            sa, sb = db // g, da // g
            den = da * sa
            if len(a) < len(b):
                a, sa, b, sb = b, sb, a, sa
            out = [c * sa for c in a] if sa != 1 else list(a)
            for i, c in enumerate(b):
                out[i] += c * sb
            return LambdaPoly._reduced(out, den)
        if _is_rational(other):
            return self + LambdaPoly.constant(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LambdaPoly._make([-c for c in self._nums], self._den)

    def __sub__(self, other):
        if isinstance(other, LambdaPoly) or _is_rational(other):
            return self + (-other if isinstance(other, LambdaPoly)
                           else LambdaPoly.constant(-other))
        return NotImplemented

    def __rsub__(self, other):
        if _is_rational(other):
            return LambdaPoly.constant(other) + (-self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, LambdaPoly):
            a, b = self._nums, other._nums
            if not a or not b:
                return LambdaPoly()
            if len(a) > len(b):
                a, b = b, a
            den = self._den * other._den
            if len(a) <= _SCHOOLBOOK_MAX:
                return LambdaPoly._reduced(_schoolbook_product(a, b), den)
            return LambdaPoly._reduced(_kronecker_product(a, b), den)
        if type(other) is int:
            return LambdaPoly._reduced([c * other for c in self._nums], self._den)
        if _is_rational(other):
            if not other:
                return LambdaPoly()
            p, q = other.numerator, other.denominator
            den = self._den * q
            return LambdaPoly._reduced([c * p for c in self._nums], den)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        # constraint from the arithmetic contract: polynomials divide
        # only by nonzero rational constants
        if _is_rational(other):
            if not other:
                raise ZeroDivisionError("division of λ-polynomial by zero")
            return self * (Rational(1) / Rational(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers need a nonnegative integer")
        return power_by_squaring(LambdaPoly.constant(1), self, exponent)

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if isinstance(other, LambdaPoly):
            return self._den == other._den and self._nums == other._nums
        if _is_rational(other):
            return self.is_constant and self.constant_term == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant:
            return hash(self.constant_term)
        return hash(self.coeffs)

    # rendering ------------------------------------------------------

    def __str__(self):
        return render_poly_text(self)

    def __repr__(self):
        return f"LambdaPoly<{render_poly_text(self)}>"


LAMBDA = LambdaPoly((0, 1))


def power_by_squaring(one, base, exponent: int):
    """base ** exponent by square-and-multiply from the lowest set bit:
    one square per higher bit and one product per higher set bit, so
    exponent 1 takes none; the unit one is only the zeroth power."""
    if not exponent:
        return one
    while not exponent & 1:
        base = base * base
        exponent >>= 1
    result = base
    exponent >>= 1
    while exponent:
        base = base * base
        if exponent & 1:
            result = result * base
        exponent >>= 1
    return result


def poly_eval(p, x) -> Rational:
    """Evaluate a LambdaPoly at an exact rational point.

    Rational scalars pass through unchanged so code that is generic over
    the two domains can evaluate whatever it holds; the point must be
    exact in both cases, or :class:`DomainError` is raised.
    """
    x = _exact(x)
    if isinstance(p, LambdaPoly):
        return p.evaluate(x)
    if _is_rational(p):
        return Rational(p)
    raise TypeError(f"cannot evaluate {type(p).__name__} at a point")


Scalar = Union[Rational, LambdaPoly]


def exact_quotient(a: int, b: int) -> int:
    """a / b for an integer b that must divide a.

    Integer-scaled routes divide only where a scale guarantees an exact
    quotient; a remainder means a wrong scale and raises ArithmeticError
    instead of being floored away.
    """
    quo, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"{b} does not divide {a}")
    return quo


def cancel_common(value, den: int):
    """(value / g, den / g) for g the gcd of a positive den and the
    content of value, an int or an integer-coefficient λ-polynomial: a
    scaled value and its scale with their common factor taken out."""
    if isinstance(value, LambdaPoly):
        g = gcd(den, *value._nums)
        if g == 1:
            return value, den
        return LambdaPoly._make([c // g for c in value._nums], 1), den // g
    g = gcd(value, den)
    return value // g, den // g


# ---------------------------------------------------------------------------
# domains


class Domain:
    """The active coefficient domain, a frozen value that owns λ = p/q.

    ``lam`` is λ in the domain, ``zero``/``one`` its units, and ``parts``
    is ``(p, q, zero, one)`` for the integer-scaled routes: ints at a
    rational λ; p = λ, q = 1 and λ-polynomial units symbolically.
    :meth:`scaled` turns such an integer times num/den into one reduced
    value of the domain; :meth:`coerce` embeds raw inputs or raises
    :class:`DomainError`.
    """

    is_symbolic: bool
    lam: Scalar
    zero: Scalar
    one: Scalar
    parts: tuple

    @property
    def lam_is_zero(self) -> bool:
        """True for the evaluated domain at λ = 0, where the deformation
        degenerates to the classical case."""
        return not self.is_symbolic and not self.lam


@dataclass(frozen=True)
class SymbolicDomain(Domain):
    """Coefficients in Q[λ], λ kept symbolic."""

    is_symbolic = True
    lam = LAMBDA
    zero = LambdaPoly()
    one = LambdaPoly.constant(1)
    parts = (LAMBDA, 1, zero, one)

    def scaled(self, value: LambdaPoly, num: int, den: int) -> LambdaPoly:
        if num == den:
            return value
        return LambdaPoly._reduced([c * num for c in value._nums], value._den * den)

    def coerce(self, value) -> LambdaPoly:
        if isinstance(value, LambdaPoly):
            return value
        if _is_rational(value):
            return LambdaPoly.constant(value)
        raise DomainError(
            f"cannot use {type(value).__name__} in the symbolic domain"
        )

    def describe(self) -> str:
        return "sym"


@dataclass(frozen=True)
class EvaluatedDomain(Domain):
    """Coefficients in Q, with λ fixed to a rational value."""

    lam: Rational
    parts: tuple = field(init=False, repr=False, compare=False)
    is_symbolic = False
    zero = Rational(0)
    one = Rational(1)

    def __post_init__(self):
        lam = _exact(self.lam)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "parts", (lam.numerator, lam.denominator, 0, 1))

    def scaled(self, value: int, num: int, den: int) -> Rational:
        return Rational(value * num, den)

    def coerce(self, value) -> Rational:
        if isinstance(value, LambdaPoly):
            raise DomainError(
                "symbolic polynomial used in an evaluated domain; "
                "evaluate it explicitly first"
            )
        if _is_rational(value):
            return Rational(value)
        raise DomainError(
            f"cannot use {type(value).__name__} in an evaluated domain"
        )

    def describe(self) -> str:
        return rational_to_string(self.lam)


SYMBOLIC = SymbolicDomain()


def domain_from_string(s: str) -> Domain:
    """``"sym"`` gives the symbolic domain, ``"p/q"`` an evaluated one."""
    if s.strip() == "sym":
        return SYMBOLIC
    return EvaluatedDomain(rational_from_string(s))


# ---------------------------------------------------------------------------
# canonical rendering and serialization
#
# Wire forms are part of the output contract: a rational is the string
# "p/q" (just "p" for denominator 1), a polynomial is the ascending list
# of such strings.  Text and LaTeX renderings are canonical so emitted
# documents are byte-reproducible.


def _ratio_text(c: int, den: int) -> str:
    """``c/den`` in lowest terms: ``p/q``, or ``p`` for q = 1."""
    g = gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


def render_poly_text(p: LambdaPoly) -> str:
    """Canonical plain-text form, ascending powers: ``-1/6+1/6*λ^2``."""
    den, out = p._den, ""
    for i, c in enumerate(p._nums):
        if not c:
            continue
        mag = _ratio_text(abs(c), den)
        if i:
            lam = "λ" if i == 1 else f"λ^{i}"
            mag = lam if mag == "1" else f"{mag}*{lam}"
        out += ("-" if c < 0 else "+" if out else "") + mag
    return out or "0"


def _latex_rational(c: int, den: int, strip_one: bool = False) -> str:
    """``c/den`` in lowest terms; ``strip_one`` prints ±1 as its sign."""
    g = gcd(c, den)
    sign, a, b = "-" if c < 0 else "", abs(c) // g, den // g
    if b == 1:
        return sign if strip_one and a == 1 else f"{sign}{a}"
    return f"{sign}\\frac{{{a}}}{{{b}}}"


def render_poly_latex(p: LambdaPoly) -> str:
    """Canonical LaTeX form, ascending powers: ``2+9\\lambda+7\\lambda^{2}``."""
    den, out = p._den, ""
    for i, c in enumerate(p._nums):
        if not c:
            continue
        if i:
            lam = "\\lambda" if i == 1 else f"\\lambda^{{{i}}}"
            t = _latex_rational(c, den, strip_one=True) + lam
        else:
            t = _latex_rational(c, den)
        out += t if not out or t.startswith("-") else "+" + t
    return out or "0"


def scalar_to_text(v) -> str:
    if isinstance(v, LambdaPoly):
        return render_poly_text(v)
    return rational_to_string(v)


def scalar_to_latex(v) -> str:
    if isinstance(v, LambdaPoly):
        return render_poly_latex(v)
    q = Rational(v)
    return _latex_rational(q.numerator, q.denominator)


def scalar_to_json(v):
    """JSON form: ``"p/q"`` for rationals, ascending string list for polys."""
    if isinstance(v, LambdaPoly):
        den = v._den
        return [_ratio_text(c, den) for c in v._nums]
    return rational_to_string(v)


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, str):
        return rational_from_string(obj)
    if isinstance(obj, list):
        return LambdaPoly(rational_from_string(c) for c in obj)
    raise ValueError(f"not a serialized scalar: {obj!r}")
