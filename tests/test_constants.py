import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest

import bhbounds.constants as constants
from bhbounds.constants import (
    K_GROTHENDIECK,
    SchemeId,
    asymptotic_ratio,
    closed_form_cor52,
    closed_form_new,
    constant,
    table,
)
from bhbounds.khinchine import Branch, khinchine_A

F = Fraction
ALL_SCHEMES = tuple(SchemeId)


class TestConstant:
    def test_new_real_m5(self):
        c = constant(SchemeId.NEW_REAL, 5)
        assert c.exact_exponent == F(48, 40)
        assert c.value == pytest.approx(2.298, abs=1e-3)

    def test_classic_m2(self):
        c = constant(SchemeId.CLASSIC, 2)
        assert c.exact_exponent == F(1, 2)
        assert c.value == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_cor52_real_m10(self):
        c = constant(SchemeId.COR52_REAL, 10)
        assert c.exact_exponent == F(108, 40)
        assert c.value == pytest.approx(6.498, abs=1e-3)

    def test_cor52_complex_base(self):
        c = constant(SchemeId.COR52_COMPLEX, 2)
        assert c.value == pytest.approx(1.40491, abs=1e-10)
        assert c.exact_exponent == F(0)
        assert c.prefactor == pytest.approx(K_GROTHENDIECK, rel=1e-15)

    def test_new_real_gamma_tail(self):
        # One Gamma-branch step past the exact range; reference values from
        # a 40-digit evaluation of the recurrence.
        c15 = constant(SchemeId.NEW_REAL, 15)
        c16 = constant(SchemeId.NEW_REAL, 16)
        assert c15.exact_exponent is None
        assert c16.exact_exponent is None
        assert c15.value == pytest.approx(5.925329197484892, rel=1e-12)
        assert c16.value == pytest.approx(6.443853121582891, rel=1e-12)

    def test_cor52_real_m14_printed_value(self):
        c = constant(SchemeId.COR52_REAL, 14)
        assert c.exact_exponent is None
        assert c.value == pytest.approx(13.457, abs=1e-3)

    def test_dsp_complex(self):
        c = constant(SchemeId.DSP_COMPLEX, 4)
        assert c.exact_exponent is None
        assert c.value == pytest.approx((2.0 / math.sqrt(math.pi)) ** 3, rel=1e-14)

    def test_rejects_small_m(self):
        for scheme in ALL_SCHEMES:
            with pytest.raises(ValueError):
                constant(scheme, 1)

    def test_exactness_range(self):
        for m in range(2, 15):
            assert constant(SchemeId.NEW_REAL, m).exact_exponent is not None
        for m in range(2, 14):
            assert constant(SchemeId.COR52_REAL, m).exact_exponent is not None
            assert constant(SchemeId.COR52_COMPLEX, m).exact_exponent is not None
        assert constant(SchemeId.COR52_COMPLEX, 14).exact_exponent is None

    def test_value_consistent_with_exact_exponent(self):
        for scheme in ALL_SCHEMES:
            for m in range(2, 20):
                c = constant(scheme, m)
                if c.exact_exponent is None:
                    continue
                reconstructed = 2.0 ** float(c.exact_exponent)
                if c.prefactor is not None:
                    reconstructed *= c.prefactor
                assert c.value == pytest.approx(reconstructed, rel=1e-13)

    def test_value_at_least_one(self):
        for scheme in ALL_SCHEMES:
            for m in range(2, 51):
                assert constant(scheme, m).value >= 1.0


class TestClosedForms:
    def test_new_even(self):
        c = closed_form_new(4)
        assert c.exact_exponent == F(32, 32)
        assert c.value == 2.0

    def test_new_base(self):
        assert closed_form_new(2).value == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_new_m13(self):
        c = closed_form_new(13)
        assert c.exact_exponent == F(240, 104)
        assert c.value == pytest.approx(4.951, abs=1e-3)

    def test_new_validity(self):
        for m in (1, 15, 30):
            with pytest.raises(ValueError):
                closed_form_new(m)

    def test_cor52_real(self):
        assert closed_form_cor52(3).exact_exponent == F(10, 12)
        assert closed_form_cor52(3).value == pytest.approx(1.782, abs=1e-3)
        assert closed_form_cor52(13).value == pytest.approx(11.016, abs=1e-3)
        assert closed_form_cor52(2).value == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_cor52_complex(self):
        c = closed_form_cor52(2, "complex")
        assert c.exact_exponent == F(0)
        assert c.value == pytest.approx(K_GROTHENDIECK, rel=1e-14)

    def test_cor52_validity(self):
        with pytest.raises(ValueError):
            closed_form_cor52(14)
        with pytest.raises(ValueError):
            closed_form_cor52(5, "quaternionic")


class TestRecurrenceClosedFormIdentity:
    def test_new_real_exact_equality(self):
        for m in range(2, 15):
            assert constant(SchemeId.NEW_REAL, m).exact_exponent == closed_form_new(m).exact_exponent

    def test_new_real_two_step_shape(self):
        # E_m = (m+2)/(2m) + (1 - 2/m) E_{m-2}, independently of the
        # Khinchine-explicit form used by the implementation.
        for m in range(4, 15):
            e_m = constant(SchemeId.NEW_REAL, m).exact_exponent
            e_prev = constant(SchemeId.NEW_REAL, m - 2).exact_exponent
            assert e_m == F(m + 2, 2 * m) + (1 - F(2, m)) * e_prev

    def test_cor52_exact_equality(self):
        for m in range(2, 14):
            assert constant(SchemeId.COR52_REAL, m).exact_exponent == closed_form_cor52(m).exact_exponent
            assert (
                constant(SchemeId.COR52_COMPLEX, m).exact_exponent
                == closed_form_cor52(m, "complex").exact_exponent
            )


class TestOrderings:
    def test_dominance(self):
        for m in range(3, 15):
            new = constant(SchemeId.NEW_REAL, m).value
            cor = constant(SchemeId.COR52_REAL, m).value
            classic = constant(SchemeId.CLASSIC, m).value
            assert new <= cor * (1 + 1e-12)
            assert cor <= classic * (1 + 1e-12)

    def test_monotone_in_m(self):
        for scheme in ALL_SCHEMES:
            values = [constant(scheme, m).log2_value for m in range(2, 51)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestTable:
    def test_row_structure(self):
        tab = table(3, 14)
        assert [m for m, _ in tab.rows] == list(range(3, 15))
        assert tab.schemes == (SchemeId.NEW_REAL, SchemeId.COR52_REAL, SchemeId.CLASSIC)
        for _, row in tab.rows:
            for c in row:
                assert math.isfinite(c.value) and c.value > 0

    def test_matches_constant(self):
        tab = table(3, 8, (SchemeId.NEW_REAL,))
        for m, row in tab.rows:
            assert row[0].value == constant(SchemeId.NEW_REAL, m).value

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            table(1, 5)
        with pytest.raises(ValueError):
            table(6, 5)
        with pytest.raises(ValueError):
            table(3, 5, ())


class TestAsymptoticRatio:
    def test_classic_closed_form(self):
        for m in (4, 5, 10, 100):
            expected = 2.0 ** ((2 * m - 3) / m)
            assert asymptotic_ratio(SchemeId.CLASSIC, m) == pytest.approx(expected, rel=1e-12)

    def test_classic_limit(self):
        assert asymptotic_ratio(SchemeId.CLASSIC, 10**6) == pytest.approx(4.0, abs=1e-4)

    def test_new_real_bounded_and_decreasing(self):
        ratios = [asymptotic_ratio(SchemeId.NEW_REAL, m) for m in range(5, 200)]
        assert all(r >= math.sqrt(2) - 1e-15 for r in ratios)
        evens = ratios[1::2]
        odds = ratios[0::2]
        assert all(b < a for a, b in zip(evens, evens[1:]))
        assert all(b < a for a, b in zip(odds, odds[1:]))

    def test_new_real_matches_khinchine_expression(self):
        # ratio(m) = sqrt(2) * A_{(2m-4)/(m-1)}^(-2(m-2)/m) by construction.
        from bhbounds.khinchine import khinchine_A

        for m in (6, 9, 14, 16, 25):
            a = khinchine_A((2 * m - 4) / (m - 1)).value
            expected = math.sqrt(2) * a ** (-2 * (m - 2) / m)
            assert asymptotic_ratio(SchemeId.NEW_REAL, m) == pytest.approx(expected, rel=1e-10)

    def test_cor52_real_approaches_two(self):
        assert asymptotic_ratio(SchemeId.COR52_REAL, 10**4) == pytest.approx(2.0, abs=1e-3)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            asymptotic_ratio(SchemeId.CLASSIC, 3)


@lru_cache(maxsize=None)
def _mp_log2_chain(scheme: SchemeId, m_max: int) -> dict:
    """log2 C_m for m = 2..m_max, the recurrence redone at 50 digits.

    The branch of A_p is decided against an mpmath root of the two
    Haagerup formulas; COR52 divides by A on power-of-two steps and by A^2
    on Gamma steps, NEW_REAL by A^2 on every step.
    """
    with mpmath.workdps(50):
        def power(p):
            return mpmath.mpf(2) ** (mpmath.mpf(1) / 2 - 1 / p)

        def gamma(p):
            return mpmath.sqrt(2) * (mpmath.gamma((p + 1) / 2) / mpmath.sqrt(mpmath.pi)) ** (1 / p)

        p0 = mpmath.findroot(lambda p: power(p) - gamma(p), mpmath.mpf("1.85"))
        log2 = {2: mpmath.mpf(1) / 2}
        if scheme is SchemeId.NEW_REAL:
            log2[3] = mpmath.mpf(5) / 6
        for k in range(max(log2) + 1, m_max + 1):
            if scheme is SchemeId.NEW_REAL:
                p = mpmath.mpf(2 * k - 4) / (k - 1)
                step, weight, prev, a_power = mpmath.mpf(1) / 2, mpmath.mpf(k - 2) / k, log2[k - 2], 2
            else:
                p = mpmath.mpf(2 * k - 2) / k
                step, weight, prev = mpmath.mpf(k - 1) / (2 * k), 1 - mpmath.mpf(1) / k, log2[k - 1]
                a_power = 1 if p <= p0 else 2
            a = power(p) if p <= p0 else gamma(p)
            log2[k] = step + weight * (prev - a_power * mpmath.log(a, 2))
        return log2


class TestLongChainAccuracy:
    @pytest.mark.parametrize("scheme", [SchemeId.NEW_REAL, SchemeId.COR52_REAL])
    @pytest.mark.parametrize("m", [15, 100, 2000])
    def test_log2_against_mpmath(self, scheme, m):
        expected = float(_mp_log2_chain(scheme, 2000)[m])
        assert constant(scheme, m).log2_value == pytest.approx(expected, rel=1e-14, abs=0.0)


def _reference_log2_A(p: Fraction):
    a = khinchine_A(float(p))
    if a.branch is Branch.POWER_OF_TWO:
        exact = F(1, 2) - 1 / p
        return exact, float(exact)
    return None, math.log2(a.value)


def _reference_parts(scheme: SchemeId, m_max: int) -> dict:
    """(exact exponent, log2 value) for m = 2..m_max, every step in Fractions.

    Fraction arithmetic with a float converts the Fraction to float first,
    so the float phase rounds each step, weight and p exactly once.
    """
    log2_kg = math.log2(K_GROTHENDIECK) if scheme is SchemeId.COR52_COMPLEX else 0.0
    if scheme is SchemeId.NEW_REAL:
        bases, a_power = (F(1, 2), F(5, 6)), 2
    else:
        bases, a_power = (F(0) if log2_kg else F(1, 2),), 1
    stride = len(bases)
    parts = {m: (b, float(b) + 2.0 / m * log2_kg) for m, b in enumerate(bases, 2)}
    for k in range(2 + stride, m_max + 1):
        if scheme is SchemeId.NEW_REAL:
            p, step, weight = F(2 * k - 4, k - 1), F(1, 2), F(k - 2, k)
        else:
            p, step, weight = F(2 * k - 2, k), F(k - 1, 2 * k), 1 - F(1, k)
        exact, log2v = parts[k - stride]
        exact_a, log2_a = _reference_log2_A(p)
        if exact is not None and exact_a is not None:
            exact = step + weight * (exact - a_power * exact_a)
            log2v = float(exact) + 2.0 / k * log2_kg
        else:
            exact = None
            log2v = step + weight * (log2v - 2.0 * log2_a)
        parts[k] = (exact, log2v)
    return parts


class TestRecurrenceFormulation:
    # m = 5000 spans each chain's exact phase, its first Gamma step (14 for
    # COR52, 15 and 16 for NEW_REAL) and a long float phase.  Asking for
    # m = 5000 first fills the whole memo in one call, both parities at once.
    @pytest.mark.parametrize("scheme, first", [
        pytest.param(scheme, first, id=str(scheme) + ("-m5000-first" if first else ""))
        for scheme in (SchemeId.COR52_REAL, SchemeId.COR52_COMPLEX, SchemeId.NEW_REAL)
        for first in (None, 5000)
    ])
    def test_bit_identical_to_fraction_steps(self, scheme, first, monkeypatch):
        monkeypatch.setattr(constants, "_chains", {})
        reference = _reference_parts(scheme, 5000)
        if first is not None:
            constant(scheme, first)
        for m in range(2, 5001):
            got = constant(scheme, m)
            assert got.log2_value == reference[m][1], m
            assert got.exact_exponent == reference[m][0], m

    def test_no_fraction_past_the_exact_phase(self, monkeypatch):
        monkeypatch.setattr(constants, "_chains", {})
        # (scheme, last exact m of the chain, m deep in its float phase)
        fills = [(SchemeId.NEW_REAL, 13, 300), (SchemeId.NEW_REAL, 14, 301),
                 (SchemeId.COR52_REAL, 13, 300)]
        for scheme, m_exact, _ in fills:
            constant(scheme, m_exact)
        built = []

        def counting(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(constants, "Fraction", counting)
        for scheme, _, m_float in fills:
            constant(scheme, m_float)
        assert len(built) == 0
