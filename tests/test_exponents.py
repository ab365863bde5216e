from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bhbounds.exponents import BleiParams, bh_exponent, blei_f, blei_w

F = Fraction


class TestBleiW:
    def test_arity_five_substitution(self):
        # q=2, s1=4/3, s2=(2m-4)/(m-1) at m=5 collapses to 2m/(m+1).
        params = BleiParams(F(2), F(4, 3), F(3, 2))
        assert blei_w(params) == F(5, 3)

    def test_littlewood_exponent(self):
        assert blei_w(BleiParams(F(2), F(1), F(1))) == F(4, 3)

    def test_symmetric_point(self):
        params = BleiParams(F(2), F(4, 3), F(4, 3))
        assert blei_w(params) == F(8, 5)
        # Symmetric arguments simplify to 2qx/(q+x).
        q, x = F(2), F(4, 3)
        assert blei_w(params) == 2 * q * x / (q + x)

    def test_hypothesis_violation(self):
        with pytest.raises(ValueError):
            BleiParams(F(4, 3), F(4, 3), F(1))
        with pytest.raises(ValueError):
            BleiParams(F(2), F(1, 2), F(1))
        with pytest.raises(ValueError, match="^exponents must be finite"):
            BleiParams(float("inf"), 1.5, 1.5)


class TestBleiF:
    def test_arity_five_orders(self):
        params = BleiParams(F(2), F(4, 3), bh_exponent(5 - 2))
        assert blei_f(params) == F(2, 5)
        assert blei_f(params, reverse=True) == F(3, 5)

    def test_equal_arguments(self):
        assert blei_f(BleiParams(F(2), F(1), F(1))) == F(1, 2)

    def test_orders_sum_to_one_for_general_m(self):
        for m in range(3, 40):
            params = BleiParams(F(2), F(4, 3), bh_exponent(m - 2))
            assert blei_f(params) == F(2, m)
            assert blei_f(params, reverse=True) == 1 - F(2, m)


class TestBhExponent:
    def test_values(self):
        assert bh_exponent(1) == F(1)
        assert bh_exponent(2) == F(4, 3)
        assert bh_exponent(5) == F(5, 3)

    def test_strictly_increasing_to_two(self):
        values = [bh_exponent(m) for m in range(1, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bh_exponent(0)


class TestIdentities:
    def test_w_reproduces_bh_exponent_exactly(self):
        for m in range(3, 101):
            params = BleiParams(F(2), F(4, 3), bh_exponent(m - 2))
            assert blei_w(params) == bh_exponent(m)

    @given(
        q=st.fractions(min_value=F(11, 10), max_value=F(6)),
        u1=st.fractions(min_value=0, max_value=F(99, 100)),
        u2=st.fractions(min_value=0, max_value=F(99, 100)),
    )
    def test_random_grid_properties(self, q, u1, u2):
        s1 = 1 + u1 * (q - 1)
        s2 = 1 + u2 * (q - 1)
        params = BleiParams(q, s1, s2)
        swapped = BleiParams(q, s2, s1)
        w = blei_w(params)
        assert w == blei_w(swapped)
        assert blei_f(params) + blei_f(params, reverse=True) == 1
        assert blei_f(params, reverse=True) == blei_f(swapped)
        assert 1 <= w < q
