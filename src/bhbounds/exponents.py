"""Interpolation exponents for the mixed-norm machinery.

The two-parameter exponents

    w(x, y) = (q^2 (x + y) - 2 q x y) / (q^2 - x y)
    f(x, y) = (q^2 x - q x y) / (q^2 (x + y) - 2 q x y)

are defined for q > max(x, y) with q, x, y >= 1 and satisfy
f(x, y) + f(y, x) = 1.  Everything here is plain arithmetic, so feeding
``fractions.Fraction`` values keeps results exact; floats pass through
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = ["Scalar", "BleiParams", "blei_w", "blei_f", "bh_exponent"]

Scalar = Union[int, float, Fraction]


@dataclass(frozen=True)
class BleiParams:
    """Exponent triple (q, s1, s2) with q, s1, s2 >= 1 and finite q > max(s1, s2)."""

    q: Scalar
    s1: Scalar
    s2: Scalar

    def __post_init__(self) -> None:
        if not (self.q >= 1 and self.s1 >= 1 and self.s2 >= 1):
            raise ValueError(f"exponents must be >= 1, got {self}")
        if not (self.q > self.s1 and self.q > self.s2):
            raise ValueError(f"q must exceed max(s1, s2), got {self}")
        if not self.q < math.inf:  # then so are s1 and s2
            raise ValueError(f"exponents must be finite, got {self}")


def blei_w(params: BleiParams) -> Scalar:
    """Mixed-sum exponent w(s1, s2); symmetric, with 1 <= w < q."""
    q, x, y = params.q, params.s1, params.s2
    return (q * q * (x + y) - 2 * q * x * y) / (q * q - x * y)


def blei_f(params: BleiParams, reverse: bool = False) -> Scalar:
    """Outer exponent f(s1, s2), or f(s2, s1) when ``reverse`` is set.

    The two orders sum to 1, which is what makes the two-factor bound
    homogeneous of degree one.
    """
    q = params.q
    x, y = (params.s2, params.s1) if reverse else (params.s1, params.s2)
    return (q * q * x - q * x * y) / (q * q * (x + y) - 2 * q * x * y)


def bh_exponent(m: int) -> Fraction:
    """Coefficient-sum exponent 2m/(m+1) for m-linear forms."""
    if m < 1:
        raise ValueError(f"arity must be >= 1, got {m}")
    return Fraction(2 * m, m + 1)

