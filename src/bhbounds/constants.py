"""Upper-bound schemes for the coefficient-norm constants of m-linear forms.

Five schemes are tracked:

* ``CLASSIC``        2^((m-1)/2).
* ``DSP_COMPLEX``    (2/sqrt(pi))^(m-1), complex scalars.
* ``COR52_REAL``     one-step recurrence
                     C_m = 2^((m-1)/(2m)) (C_{m-1} / A_{(2m-2)/m})^(1-1/m),
                     base C_2 = sqrt(2).
* ``COR52_COMPLEX``  the same recurrence with base C_2 = K_G = 1.40491.
* ``NEW_REAL``       two-step recurrence
                     C_m = sqrt(2) (C_{m-2} / A_{(2m-4)/(m-1)}^2)^((m-2)/m),
                     bases C_2 = sqrt(2) and C_3 = 2^(5/6).

All recurrences are evaluated in the log2 domain and exponentiated only at
the boundary, so long chains accumulate no multiplicative drift and the
claims of exactness stay testable.  An exact rational log2 exponent is
carried for as long as every Khinchine constant on the recurrence path sits
on the power-of-two branch: m <= 14 for NEW_REAL and m <= 13 for the COR52
schemes.  Past that point values are float-only, driven by the Gamma
formula for A_p.

Branch convention for the COR52 schemes: power-of-two steps (m <= 13)
divide by a single power of A, Gamma-branch steps (m >= 14) divide by A
squared.  Under this convention m = 14 evaluates to ~13.457; a single power
there would give ~13.127 instead.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .khinchine import gamma_branch, haagerup_crossover

__all__ = [
    "SchemeId",
    "Log2Constant",
    "ConstantsTable",
    "K_GROTHENDIECK",
    "constant",
    "closed_form_new",
    "closed_form_cor52",
    "table",
    "asymptotic_ratio",
]


class SchemeId(Enum):
    """Identifier of one constant scheme."""

    CLASSIC = "classic"
    DSP_COMPLEX = "dsp-complex"
    COR52_REAL = "cor52"
    COR52_COMPLEX = "cor52-complex"
    NEW_REAL = "new"


#: Upper bound on the complex Grothendieck constant used as the
#: COR52_COMPLEX base case.
K_GROTHENDIECK = 1.40491

_LOG2_KG = math.log2(K_GROTHENDIECK)
_LOG2_DSP_STEP = math.log2(2.0 / math.sqrt(math.pi))


@dataclass(frozen=True)
class Log2Constant:
    """One scheme constant, held primarily as a log2 exponent.

    ``value`` is 2**log2_value (times ``prefactor`` when present, already
    folded in) and overflows to ``inf`` for very large m; downstream ratio
    work should use ``log2_value``.  ``exact_exponent`` is populated when
    the whole recurrence path was power-of-two exact, in which case

        |value - 2**exact_exponent * prefactor| <= 1e-13 relative

    with ``prefactor`` read as 1 when absent.
    """

    scheme: SchemeId
    m: int
    value: float
    log2_value: float
    exact_exponent: Optional[Fraction] = None
    prefactor: Optional[float] = None


@dataclass(frozen=True)
class ConstantsTable:
    """Rows (m, one Log2Constant per scheme), strictly increasing in m."""

    schemes: tuple[SchemeId, ...]
    rows: tuple[tuple[int, tuple[Log2Constant, ...]], ...]
    precision: int = 3


# (scheme, m) -> (exact rational log2 part or None, float log2 value).
# For COR52_COMPLEX the float includes the K_G^(2/m) contribution while the
# exact part tracks only the dyadic exponent.
_cache: dict[tuple[SchemeId, int], tuple[Optional[Fraction], float]] = {}
# Highest m filled per recurrence chain: (scheme, m mod the chain's stride).
_frontier: dict[tuple[SchemeId, int], int] = {}
_cache_lock = threading.Lock()


def _log2_A(p: Fraction) -> tuple[Optional[Fraction], float]:
    """log2 of A_p as (exact-if-power-of-two, float)."""
    if float(p) <= haagerup_crossover():
        exact = Fraction(1, 2) - 1 / p
        return exact, float(exact)
    return None, math.log2(gamma_branch(float(p)))


def _cor52_step(k: int) -> tuple[Fraction, Fraction, Fraction]:
    return Fraction(2 * k - 2, k), Fraction(k - 1, 2 * k), 1 - Fraction(1, k)


def _new_step(k: int) -> tuple[Fraction, Fraction, Fraction]:
    return Fraction(2 * k - 4, k - 1), Fraction(1, 2), Fraction(k - 2, k)


# scheme -> (stride in m, exact log2 bases by m, k -> (p, step, weight),
# power of A on exact steps, log2 K_G of the K_G^(2/m) factor that only the
# float carries).  Each step is
#     log2 C_k = step + weight * (log2 C_{k-stride} - power * log2 A_p).
_CHAINS = {
    SchemeId.COR52_REAL: (1, {2: Fraction(1, 2)}, _cor52_step, 1, 0.0),
    SchemeId.COR52_COMPLEX: (1, {2: Fraction(0)}, _cor52_step, 1, _LOG2_KG),
    SchemeId.NEW_REAL: (2, {2: Fraction(1, 2), 3: Fraction(5, 6)}, _new_step, 2, 0.0),
}


def _fill(scheme: SchemeId, m: int) -> None:
    stride, bases, step_at, a_power, log2_kg = _CHAINS[scheme]
    chain = (scheme, m % stride)
    start = _frontier.get(chain)
    if start is None:
        start = next(b for b in bases if b % stride == m % stride)
        base = bases[start]
        _cache[(scheme, start)] = (base, float(base) + 2.0 / start * log2_kg)
    exact, log2v = _cache[(scheme, start)]
    for k in range(start + stride, m + 1, stride):
        p, step, weight = step_at(k)
        exact_a, log2_a = _log2_A(p)
        if exact is not None and exact_a is not None:
            exact = step + weight * (exact - a_power * exact_a)
            log2v = float(exact) + 2.0 / k * log2_kg
        else:
            # Gamma-branch steps divide by A^2 in every chain.
            exact = None
            log2v = float(step) + float(weight) * (log2v - 2.0 * log2_a)
        _cache[(scheme, k)] = (exact, log2v)
    _frontier[chain] = max(start, m)


def _log2_parts(scheme: SchemeId, m: int) -> tuple[Optional[Fraction], float]:
    if m < 2:
        raise ValueError(f"constants are defined for m >= 2, got m={m}")
    if scheme is SchemeId.CLASSIC:
        exact = Fraction(m - 1, 2)
        return exact, float(exact)
    if scheme is SchemeId.DSP_COMPLEX:
        return None, (m - 1) * _LOG2_DSP_STEP
    key = (scheme, m)
    if key not in _cache:
        with _cache_lock:
            if key not in _cache:
                _fill(scheme, m)
    return _cache[key]


def _pow2(log2v: float) -> float:
    try:
        return 2.0 ** log2v
    except OverflowError:
        return math.inf


def constant(scheme: SchemeId, m: int) -> Log2Constant:
    """The scheme's constant at arity m >= 2, recurrences memoized."""
    exact, log2v = _log2_parts(scheme, m)
    prefactor = None
    if scheme is SchemeId.COR52_COMPLEX:
        prefactor = K_GROTHENDIECK ** (2.0 / m)
    return Log2Constant(
        scheme=scheme,
        m=m,
        value=_pow2(log2v),
        log2_value=log2v,
        exact_exponent=exact,
        prefactor=prefactor,
    )


def closed_form_new(m: int) -> Log2Constant:
    """Parity closed form 2^((m^2+6m-8)/(8m)) / 2^((m^2+6m-7)/(8m)).

    Stated only for 2 <= m <= 14, where every Khinchine constant on the
    two-step recurrence path is a power of two.
    """
    if not 2 <= m <= 14:
        raise ValueError(f"closed_form_new is valid for 2 <= m <= 14, got m={m}")
    numerator = m * m + 6 * m - 8 if m % 2 == 0 else m * m + 6 * m - 7
    exact = Fraction(numerator, 8 * m)
    return Log2Constant(
        scheme=SchemeId.NEW_REAL,
        m=m,
        value=2.0 ** float(exact),
        log2_value=float(exact),
        exact_exponent=exact,
    )


def closed_form_cor52(m: int, field: str = "real") -> Log2Constant:
    """One-step closed forms, valid for 2 <= m <= 13.

    Real: 2^((m^2+m-2)/(4m)).  Complex: 2^((m^2+m-6)/(4m)) * K_G^(2/m).
    """
    if not 2 <= m <= 13:
        raise ValueError(f"closed_form_cor52 is valid for 2 <= m <= 13, got m={m}")
    if field == "real":
        exact = Fraction(m * m + m - 2, 4 * m)
        return Log2Constant(
            scheme=SchemeId.COR52_REAL,
            m=m,
            value=2.0 ** float(exact),
            log2_value=float(exact),
            exact_exponent=exact,
        )
    if field == "complex":
        exact = Fraction(m * m + m - 6, 4 * m)
        prefactor = K_GROTHENDIECK ** (2.0 / m)
        log2v = float(exact) + 2.0 / m * _LOG2_KG
        return Log2Constant(
            scheme=SchemeId.COR52_COMPLEX,
            m=m,
            value=_pow2(log2v),
            log2_value=log2v,
            exact_exponent=exact,
            prefactor=prefactor,
        )
    raise ValueError(f"field must be 'real' or 'complex', got {field!r}")


_DEFAULT_SCHEMES = (SchemeId.NEW_REAL, SchemeId.COR52_REAL, SchemeId.CLASSIC)


def table(
    m_min: int = 3,
    m_max: int = 14,
    schemes: Sequence[SchemeId] = _DEFAULT_SCHEMES,
    precision: int = 3,
) -> ConstantsTable:
    """Comparison table of the requested schemes over m_min..m_max."""
    if m_min < 2:
        raise ValueError(f"table rows start at m = 2, got m_min={m_min}")
    if m_max < m_min:
        raise ValueError(f"empty range: m_min={m_min} > m_max={m_max}")
    if precision < 0:
        raise ValueError(f"precision must be >= 0, got {precision}")
    schemes = tuple(schemes)
    if not schemes:
        raise ValueError("at least one scheme is required")
    rows = tuple(
        (m, tuple(constant(s, m) for s in schemes)) for m in range(m_min, m_max + 1)
    )
    return ConstantsTable(schemes=schemes, rows=rows, precision=precision)


def asymptotic_ratio(scheme: SchemeId, m: int) -> float:
    """The two-step growth ratio C_m / C_{m-2}^((m-2)/m).

    Computed in the log2 domain so arbitrarily large m stays finite.
    Limits: 4 for CLASSIC, 2 for COR52_REAL, sqrt(2) for NEW_REAL.
    """
    if m < 4:
        raise ValueError(f"asymptotic_ratio requires m >= 4, got m={m}")
    _, log2_m = _log2_parts(scheme, m)
    _, log2_prev = _log2_parts(scheme, m - 2)
    return 2.0 ** (log2_m - (m - 2) / m * log2_prev)
