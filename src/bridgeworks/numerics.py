"""Numeric backend helpers.

Two regimes coexist: exact rational arithmetic (int / fractions.Fraction) and
IEEE doubles. Values stay exact as long as every operation on them is exact;
the first inexact operand degrades the result to float, which is the intended
behavior. Comparisons between mixed operands are well defined because Python
compares Fraction and float exactly.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from numbers import Rational

TOLERANCE = 1e-9

Number = int | float | Fraction


def backend_override() -> str | None:
    """Read BRIDGEWORKS_BACKEND. Returns 'rational', 'double', or None."""
    val = os.environ.get("BRIDGEWORKS_BACKEND")
    if val is None or val == "":
        return None
    val = val.strip().lower()
    if val not in ("rational", "double"):
        raise ValueError(
            f"BRIDGEWORKS_BACKEND must be 'rational' or 'double', got {val!r}"
        )
    return val


def is_exact(x: Number) -> bool:
    return isinstance(x, Rational)


def exact_sqrt(x: Number) -> Fraction | None:
    """Square root of a nonnegative rational if it is rational, else None.

    sqrt(p/q) is rational iff p*q is a perfect square (for p/q in lowest
    terms, iff p and q both are).
    """
    if not is_exact(x):
        return None
    f = Fraction(x)
    if f < 0:
        raise ValueError("exact_sqrt of negative value")
    if f == 0:
        return Fraction(0)
    pn = math.isqrt(f.numerator)
    if pn * pn != f.numerator:
        return None
    pd = math.isqrt(f.denominator)
    if pd * pd != f.denominator:
        return None
    return Fraction(pn, pd)


def values_equal(a: Number, b: Number) -> bool:
    """Equality: exact when both operands are exact, else relative TOLERANCE."""
    if is_exact(a) and is_exact(b):
        return a == b
    fa, fb = float(a), float(b)
    if fa == fb:
        return True
    return abs(fa - fb) <= TOLERANCE * max(1.0, abs(fa), abs(fb))


def definitely_less(a: Number, b: Number) -> bool:
    """a < b with headroom: exact < for exact pairs, TOLERANCE margin otherwise."""
    if is_exact(a) and is_exact(b):
        return a < b
    fa, fb = float(a), float(b)
    return fa < fb - TOLERANCE * max(1.0, abs(fa), abs(fb))
