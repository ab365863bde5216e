"""Optimal Khinchine constants and the Gamma machinery behind them.

The lower constant A_p (0 < p <= 2) follows Haagerup's two-regime formula

    A_p = 2^(1/2 - 1/p)                                   for p <= p0,
    A_p = sqrt(2) * (Gamma((p+1)/2) / sqrt(pi))^(1/p)     for p0 < p <= 2,

where p0 = 1.847416336076342, the double nearest the root below 2 of
Gamma((p+1)/2) = sqrt(pi)/2: there the two expressions agree.  The
equation's other root, p = 2, is why both give A_2 = 1.
The upper constant B_p equals 1 for every p <= 2 (Jensen), and

    A_{2,r} <= A_r^{-1} B_2 = A_r^{-1}

transfers an L^r average of a Rademacher sum up to L^2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Branch",
    "KhinchineConstant",
    "ln_gamma",
    "power_branch",
    "gamma_branch",
    "haagerup_crossover",
    "khinchine_A",
    "khinchine_B",
    "khinchine_A2r",
]


class Branch(Enum):
    """Which of the two A_p formulas produced a value."""

    POWER_OF_TWO = "power-of-two"
    GAMMA_FORMULA = "gamma-formula"


@dataclass(frozen=True)
class KhinchineConstant:
    """Lower Khinchine constant A_p together with its formula branch."""

    p: float
    value: float
    branch: Branch


_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def ln_gamma(x: float) -> float:
    """Natural logarithm of Gamma(x) for x > 0, via ``math.lgamma``."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def power_branch(p: float) -> float:
    """A_p candidate 2^(1/2 - 1/p)."""
    return 2.0 ** (0.5 - 1.0 / p)


def gamma_branch(p: float) -> float:
    """A_p candidate sqrt(2) * (Gamma((p+1)/2) / sqrt(pi))^(1/p)."""
    return math.sqrt(2.0) * math.exp((ln_gamma((p + 1.0) / 2.0) - _LOG_SQRT_PI) / p)


# The root below 2 of Gamma((p+1)/2) = sqrt(pi)/2, rounded to the nearest double.
_P0 = 1.847416336076342


def haagerup_crossover() -> float:
    """p0, where the A_p formulas agree: the root below 2 of Gamma((p+1)/2) =
    sqrt(pi)/2, correctly rounded (the other root, p = 2, gives A_2 = 1)."""
    return _P0


def khinchine_A(p: float) -> KhinchineConstant:
    """Optimal lower Khinchine constant A_p for 0 < p <= 2, refused where it
    is not a normal float (p below about 9.78e-4)."""
    if not 0.0 < p <= 2.0:
        raise ValueError(f"khinchine_A requires 0 < p <= 2, got {p}")
    if p > _P0:
        return KhinchineConstant(p=p, value=gamma_branch(p), branch=Branch.GAMMA_FORMULA)
    if (value := power_branch(p)) < sys.float_info.min:
        raise ValueError(f"khinchine_A({p}) = 2^(1/2 - 1/p) is below the smallest normal float")
    return KhinchineConstant(p=p, value=value, branch=Branch.POWER_OF_TWO)


def khinchine_B(p: float) -> float:
    """Optimal upper Khinchine constant B_p; equal to 1 on 0 < p <= 2.

    Exponents above 2 are rejected rather than extended: the constant is
    no longer 1 there and nothing in this package needs it.
    """
    if not p > 0.0:
        raise ValueError(f"khinchine_B requires p > 0, got {p}")
    if p > 2.0:
        raise ValueError(f"khinchine_B is only provided for p <= 2, got {p}")
    return 1.0


def khinchine_A2r(r: float) -> float:
    """Constant A_{2,r} = A_r^{-1} (since B_2 = 1), for 1 <= r <= 2."""
    if not 1.0 <= r <= 2.0:
        raise ValueError(f"khinchine_A2r requires 1 <= r <= 2, got {r}")
    return 1.0 / khinchine_A(r).value
