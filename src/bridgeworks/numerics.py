"""Numeric backend helpers, and the one rule that picks a solver's backend.

Two regimes coexist: exact rational arithmetic (int / fractions.Fraction) and
IEEE doubles. Values stay exact as long as every operation on them is exact;
the first inexact operand degrades the result to float, which is the intended
behavior. Comparisons between mixed operands are well defined because Python
compares Fraction and float exactly.

Every solver takes its regime from resolve_backend, which reads
WeightedTree.exact and BRIDGEWORKS_BACKEND; reported and backend_of shape
what the solver returns to match.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .geometry import WeightedTree

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


def resolve_backend(*trees: WeightedTree) -> str:
    """The backend of a solver over these trees: 'rational' when every tree
    is exact, else 'double'. BRIDGEWORKS_BACKEND=double forces 'double';
    BRIDGEWORKS_BACKEND=rational on an inexact tree raises ValueError
    naming the first such tree's 1-based position."""
    ov = backend_override()
    if ov == "double":
        return "double"
    bad = next((i for i, t in enumerate(trees, 1) if not t.exact), None)
    if bad is not None and ov == "rational":
        raise ValueError("BRIDGEWORKS_BACKEND=rational requires exact coordinates/weights;"
                         f" tree {bad} has an inexact one")
    return "double" if bad else "rational"


def backend_of(value: Number) -> str:
    return "rational" if is_exact(value) else "double"


def reported(x: Number) -> Number:
    """x as a solver reports it: a float under BRIDGEWORKS_BACKEND=double,
    which may otherwise leave exact values (a dominating tree diameter,
    exact eccentricities) in the report."""
    return float(x) if backend_override() == "double" else x


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
