"""The calibration kernel: a fixed piece of exact arithmetic whose run
time tracks the speed of the machine at the moment it runs.

It uses only ``fractions.Fraction`` and ``int`` on fixed inputs and
shares no code with degenbern.  The mix mirrors the program's hot
paths: a product of two rational-coefficient polynomials (gcd-heavy
``Fraction`` multiply-adds, like a λ-polynomial product) and a chain of
multi-limb integer products (like the growing numerators of large rows).
The benchmark runs it before every timed operation and divides each
time by the mean kernel duration in a window around it, so a machine
that drifts in speed moves both numerator and denominator.
"""

from __future__ import annotations

from fractions import Fraction

_P = tuple(Fraction((-1) ** k * (2 * k + 1), k * k + 3) for k in range(16))
_Q = tuple(Fraction(k + 2, (-1) ** k * (3 * k + 1)) for k in range(16))
_BIG = tuple(3 ** (200 + 17 * k) + 5 ** (150 + 11 * k) for k in range(8))
_MOD = (1 << 127) - 1


def kernel() -> tuple[Fraction, int]:
    """One calibration unit of work; the result is compared with
    :data:`EXPECTED` so the work cannot be skipped."""
    prod = [Fraction(0)] * (len(_P) + len(_Q) - 1)
    for i, a in enumerate(_P):
        for j, b in enumerate(_Q):
            prod[i + j] += a * b
    acc = 1
    for _ in range(6):
        for x in _BIG:
            acc = (acc * x) % (_MOD * x + 1)
    return sum(prod, Fraction(0)), acc


EXPECTED = kernel()
