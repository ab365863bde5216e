import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from bhbounds import cli, constants
from bhbounds.khinchine import (
    Branch,
    gamma_branch,
    haagerup_crossover,
    khinchine_A,
    khinchine_A2r,
    khinchine_B,
    ln_gamma,
    power_branch,
)


class TestLnGamma:
    def test_at_one(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_at_half(self):
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)

    def test_at_ten_sevenths_vs_high_precision(self):
        # 40-digit series evaluation of log Gamma(10/7).
        mpmath.mp.dps = 40
        expected = float(mpmath.log(mpmath.gamma(mpmath.mpf(10) / 7)))
        assert ln_gamma(10.0 / 7.0) == pytest.approx(expected, abs=1e-13)

    def test_against_scipy_grid(self):
        # Relative error of exp(ln_gamma) <= 1e-13 translates to an
        # absolute log-scale error of the same size.
        for x in np.linspace(0.5, 20.0, 391):
            assert ln_gamma(float(x)) == pytest.approx(float(gammaln(x)), abs=1e-13)

    def test_recurrence(self):
        # Gamma(x+1) = x Gamma(x), i.e. ln_gamma(x+1) - ln_gamma(x) = ln x.
        for x in np.linspace(0.5, 10.0, 96):
            lhs = ln_gamma(float(x) + 1.0) - ln_gamma(float(x))
            assert lhs == pytest.approx(math.log(x), rel=1e-12, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ln_gamma(0.0)
        with pytest.raises(ValueError):
            ln_gamma(-1.3)
        with pytest.raises(ValueError, match="ln_gamma requires x > 0, got nan"):
            ln_gamma(math.nan)


class TestCrossover:
    def test_value_bracket(self):
        p0 = haagerup_crossover()
        assert 1.84 < p0 < 1.85
        assert round(p0, 3) == 1.847

    def test_against_brentq(self):
        from scipy.optimize import brentq

        # Independent root-finder on an independent Gamma implementation.
        def gap(p):
            return 2.0 ** (0.5 - 1.0 / p) - math.sqrt(2.0) * math.exp(
                (gammaln((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)) / p
            )

        root = brentq(gap, 1.8, 1.9, xtol=1e-13)
        assert haagerup_crossover() == pytest.approx(root, abs=1e-9)

    def test_branch_difference_changes_sign(self):
        assert gamma_branch(1.5) - power_branch(1.5) > 0.0
        assert gamma_branch(1.9) - power_branch(1.9) < 0.0

    def test_branch_continuity(self):
        p0 = haagerup_crossover()
        assert power_branch(p0) == pytest.approx(gamma_branch(p0), rel=1e-10)

    def test_is_the_correctly_rounded_root(self):
        # The two formulas agree where Gamma((p+1)/2) = sqrt(pi)/2; its root
        # near 1.85, at 50 digits, must be nearer p0 than either neighbour.
        with mpmath.workdps(50):
            root = mpmath.findroot(
                lambda p: mpmath.gamma((p + 1) / 2) - mpmath.sqrt(mpmath.pi) / 2, mpmath.mpf("1.85")
            )
        man, exp = root.man_exp
        exact = Fraction(man) * Fraction(2) ** exp
        p0 = haagerup_crossover()
        assert p0 == 1.847416336076342
        candidates = (math.nextafter(p0, 0.0), p0, math.nextafter(p0, 2.0))
        assert min(candidates, key=lambda c: abs(Fraction(c) - exact)) == p0


class TestBranchMargins:
    def test_no_package_exponent_is_near_the_crossover(self):
        # Every exponent the package passes to khinchine_A, built as the code
        # builds it: the recurrence steps up to the table's m cap, then the
        # suites' fixed exponents (kcc's pairs whole, though p only reaches
        # khinchine_B; tensor's r through khinchine_A2r).  None may lie so
        # near p0 that p0's last bits pick its branch.
        exponents = [pn / pd for (pn, pd), _, _ in
                     map(constants._cor52_step, range(3, cli._TABLE_M_MAX + 1))]
        exponents += [pn / pd for (pn, pd), _, _ in
                      map(constants._new_step, range(4, cli._TABLE_M_MAX + 1))]
        exponents += [1.0, 4.0 / 3.0, 1.5, 1.8, 2.0]
        kcc_pairs = ((2.0, 4.0 / 3.0), (2.0, 1.0), (1.5, 1.0), (4.0 / 3.0, 4.0 / 3.0), (1.8, 1.5))
        exponents += [p for pair in kcc_pairs for p in pair]
        exponents += [1.0, 4.0 / 3.0, 1.5, 2.0]
        p0 = haagerup_crossover()
        nearest = min(exponents, key=lambda p: abs(p - p0))
        assert abs(nearest - p0) > 1e-6, nearest


class TestKhinchineA:
    def test_four_thirds(self):
        c = khinchine_A(4.0 / 3.0)
        assert c.value == pytest.approx(2.0 ** (-0.25), rel=1e-14)
        assert c.branch is Branch.POWER_OF_TWO

    def test_at_two(self):
        # A_2 = sqrt(2) (Gamma(3/2) / sqrt(pi))^(1/2) = 1, and exactly so in floats.
        c = khinchine_A(2.0)
        assert c.value == 1.0
        assert c.branch is Branch.GAMMA_FORMULA

    def test_printed_gamma_value(self):
        assert khinchine_A(26.0 / 14.0).value == pytest.approx(0.9736, abs=5e-5)

    def test_branch_tags(self):
        p0 = haagerup_crossover()
        assert khinchine_A(p0 - 1e-6).branch is Branch.POWER_OF_TWO
        assert khinchine_A(p0 + 1e-6).branch is Branch.GAMMA_FORMULA

    def test_monotone_and_below_one(self):
        grid = np.arange(1e-3, 2.0 + 1e-9, 1e-3)
        values = [khinchine_A(float(p)).value for p in grid]
        assert all(v <= 1.0 + 1e-14 for v in values)
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_domain(self):
        for p in (0.0, -1.0, 2.0001, 3.0):
            with pytest.raises(ValueError):
                khinchine_A(p)

    def test_refuses_a_p_whose_value_is_not_normal(self):
        # 2^(1/2 - 1/p) falls below the smallest normal float near p = 2/2045.
        assert khinchine_A(9.8e-4).value >= sys.float_info.min
        for p in (9.77e-4, 1e-4, 1e-300):
            with pytest.raises(ValueError, match=re.escape(f"khinchine_A({p}) = ")):
                khinchine_A(p)


class TestKhinchineB:
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0])
    def test_is_one(self, p):
        assert khinchine_B(p) == 1.0

    def test_rejects_out_of_scope(self):
        with pytest.raises(ValueError):
            khinchine_B(2.5)
        with pytest.raises(ValueError):
            khinchine_B(0.0)
        with pytest.raises(ValueError, match="khinchine_B requires p > 0, got nan"):
            khinchine_B(math.nan)
        with pytest.raises(ValueError, match="only provided for p <= 2, got inf"):
            khinchine_B(math.inf)


class TestA2r:
    def test_four_thirds(self):
        assert khinchine_A2r(4.0 / 3.0) == pytest.approx(2.0**0.25, rel=1e-14)

    def test_at_two(self):
        assert khinchine_A2r(2.0) == 1.0

    def test_printed_reciprocal(self):
        assert khinchine_A2r(26.0 / 14.0) == pytest.approx(1.0 / 0.9736, abs=1e-4)

    def test_reciprocal_identity(self):
        for r in np.linspace(1.0, 2.0, 101):
            product = khinchine_A2r(float(r)) * khinchine_A(float(r)).value
            assert product == pytest.approx(1.0, abs=1e-14)

    def test_at_least_one(self):
        for r in np.linspace(1.0, 2.0, 51):
            assert khinchine_A2r(float(r)) >= 1.0 - 1e-14

    def test_domain(self):
        for r in (0.5, 0.999, 2.001):
            with pytest.raises(ValueError):
                khinchine_A2r(r)
