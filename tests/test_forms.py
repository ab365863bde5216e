import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhbounds import forms
from bhbounds.constants import SchemeId, constant
from bhbounds.exponents import bh_exponent
from bhbounds.forms import (
    BudgetExceededError,
    MultilinearForm,
    bh_lhs,
    bh_ratio,
    check_budget,
    dump_form,
    evaluate,
    form_from_flat,
    from_interchange,
    load_form,
    multiple_summing_lhs,
    sup_norm_exact,
    sup_norm_lower,
    to_interchange,
    weak_l1_norm,
)

LITTLEWOOD = np.array([[1.0, 1.0], [1.0, -1.0]])
# A finite input whose sum overflows is refused, never decided.
OVERFLOW = "^a computed side is not finite: the inputs overflow the float range$"


def basis_form(m, n):
    coeffs = np.zeros((n,) * m)
    coeffs[(0,) * m] = 1.0
    return MultilinearForm(coeffs)


def eval_by_loops(form, args):
    """Index-by-index contraction, independent of any numpy routine."""
    total = 0.0
    for idx in itertools.product(range(form.N), repeat=form.m):
        term = float(form.coeffs[idx])
        for k, i in enumerate(idx):
            term *= args[k][i]
        total += term
    return total


def sup_norm_brute(form):
    """Maximize |T(x1..xm)| over sign vectors in every slot."""
    options = [np.array(s, dtype=float) for s in itertools.product((-1.0, 1.0), repeat=form.N)]
    best = 0.0
    for combo in itertools.product(options, repeat=form.m):
        best = max(best, abs(evaluate(form, combo)))
    return best


def sup_norm_full_enumeration(form):
    """All 2^((m-1)N) sign patterns of the first m-1 slots in one contraction."""
    n = form.N
    codes = np.arange(1 << n)
    signs = ((codes[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
    values = form.coeffs
    for _ in range(form.m - 1):
        values = np.tensordot(values, signs, axes=([0], [1]))
    return float(np.abs(values).sum(axis=0).max())


def sign_tensor(rng, m, n):
    return np.where(rng.random((n,) * m) < 0.5, -1.0, 1.0)


# Shapes that split a slot into several blocks or depth-first terms, and long
# slot chains.
KERNEL_SHAPES = [(2, 16), (3, 8), (3, 9), (5, 3), (6, 3), (9, 2), (10, 2)]


class TestMultilinearForm:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MultilinearForm(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            MultilinearForm(np.array(1.0))
        with pytest.raises(ValueError):
            MultilinearForm(np.array([[np.inf, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="^dimension N must be >= 1$"):
            MultilinearForm(np.zeros((0, 0)))

    def test_immutability(self):
        form = MultilinearForm(LITTLEWOOD)
        with pytest.raises(ValueError):
            form.coeffs[0, 0] = 5.0

    def test_entry_cap(self):
        with pytest.raises(ValueError):
            form_from_flat(3, 128, np.zeros(128**3))

    def test_basis_reproduction(self):
        rng = np.random.default_rng(0)
        form = MultilinearForm(rng.standard_normal((3, 3)))
        for i, j in itertools.product(range(3), repeat=2):
            e_i = np.eye(3)[i]
            e_j = np.eye(3)[j]
            assert evaluate(form, [e_i, e_j]) == pytest.approx(form.coeffs[i, j], rel=1e-15)


class TestInterchange:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        form = MultilinearForm(rng.standard_normal((2, 2, 2)))
        doc = to_interchange(form, seed=11)
        assert doc["m"] == 3 and doc["N"] == 2 and doc["seed"] == 11
        rebuilt = from_interchange(doc)
        assert np.array_equal(rebuilt.coeffs, form.coeffs)

    def test_file_round_trip(self, tmp_path):
        form = MultilinearForm(LITTLEWOOD)
        path = tmp_path / "tensor.json"
        dump_form(form, path, seed=3)
        assert json.loads(path.read_text())["coeffs"] == [1.0, 1.0, 1.0, -1.0]
        assert np.array_equal(load_form(path).coeffs, form.coeffs)

    def test_flat_coefficients_only(self):
        with pytest.raises(ValueError, match="must be flat"):
            form_from_flat(2, 2, np.ones((2, 2)))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            from_interchange({"m": 2, "N": 2, "coeffs": [1.0, 2.0, 3.0]})
        # Sizes must be ints: no truncation, no bools, no strings.
        for field, doc in [
            ("m", {"m": 2.7, "N": 2.9, "coeffs": [1.0] * 4}),
            ("N", {"m": 2, "N": 2.0, "coeffs": [1.0] * 4}),
            ("m", {"m": True, "N": 4, "coeffs": [1.0] * 4}),
            ("N", {"m": 1, "N": False, "coeffs": []}),
            ("m", {"m": "2", "N": 2, "coeffs": [1.0] * 4}),
        ]:
            with pytest.raises(ValueError, match=f"'{field}' must be an integer"):
                from_interchange(doc)
        # coeffs must be a flat list of numbers: no strings, bools or rows.
        for doc in [
            {"m": 1, "N": 2, "coeffs": ["1", True]},
            {"m": 2, "N": 2, "coeffs": [[1, 2], [3, 4]]},
        ]:
            with pytest.raises(ValueError, match="'coeffs'"):
                from_interchange(doc)

    def test_malformed_documents_name_the_field(self, tmp_path):
        for doc, message in [
            ({}, r"^interchange document lacks 'm'$"),
            ({"m": 2, "N": 2}, r"^interchange document lacks 'coeffs'$"),
            ([1, 2], r"^interchange document must be a JSON object, got list$"),
            # An int past the float range; float() would raise OverflowError.
            (
                {"m": 1, "N": 1, "coeffs": [10**400]},
                r"^interchange 'coeffs' must be within the float range$",
            ),
        ]:
            with pytest.raises(ValueError, match=message):
                from_interchange(doc)
            # load_form reads documents from outside the program.
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=message):
                load_form(path)

    def test_shape_bounded_before_the_power(self):
        # The shape is checked before N**m, which at m = 10**7 takes seconds.
        m_range = "^m must be between 1 and 31, got"
        n_range = "^N must be between 1 and 1048576, got"
        for doc, message in [
            ({"m": 10**7, "N": 3, "coeffs": [1.0]}, rf"{m_range} m=10+$"),
            ({"m": 32, "N": 1, "coeffs": [1.0]}, rf"{m_range} m=32$"),
            ({"m": 0, "N": 3, "coeffs": [1.0]}, rf"{m_range} m=0$"),
            ({"m": -1, "N": 3, "coeffs": [1.0]}, rf"{m_range} m=-1$"),
            ({"m": 2, "N": -2, "coeffs": [1, 2, 3, 4]}, rf"{n_range} N=-2$"),
            ({"m": 2, "N": 0, "coeffs": []}, rf"{n_range} N=0$"),
            # N^31 would have 6,201 digits, too many for a message to print.
            ({"m": 31, "N": 10**200, "coeffs": [1.0]}, rf"{n_range} N=10+$"),
        ]:
            with pytest.raises(ValueError, match=message):
                from_interchange(doc)
        assert from_interchange({"m": 31, "N": 1, "coeffs": [2.0]}).m == 31


class TestEvaluate:
    def test_basis_tensor(self):
        form = basis_form(3, 2)
        e1 = np.array([1.0, 0.0])
        assert evaluate(form, [e1, e1, e1]) == 1.0

    def test_zero_argument(self):
        rng = np.random.default_rng(2)
        form = MultilinearForm(rng.standard_normal((3, 3, 3)))
        args = [rng.standard_normal(3), np.zeros(3), rng.standard_normal(3)]
        assert evaluate(form, args) == 0.0

    def test_littlewood_hand_contraction(self):
        form = MultilinearForm(LITTLEWOOD)
        assert evaluate(form, [(1.0, 1.0), (1.0, 0.0)]) == pytest.approx(2.0)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            form = MultilinearForm(rng.standard_normal((n,) * m))
            args = [rng.standard_normal(n) for _ in range(m)]
            assert evaluate(form, args) == pytest.approx(eval_by_loops(form, args), rel=1e-12, abs=1e-12)

    def test_multilinearity(self):
        rng = np.random.default_rng(4)
        form = MultilinearForm(rng.standard_normal((3, 3)))
        x, y, z = (rng.standard_normal(3) for _ in range(3))
        lam = 1.7
        left = evaluate(form, [x + lam * y, z])
        assert left == pytest.approx(evaluate(form, [x, z]) + lam * evaluate(form, [y, z]), rel=1e-12)

    def test_shape_mismatch(self):
        form = MultilinearForm(LITTLEWOOD)
        with pytest.raises(ValueError):
            evaluate(form, [(1.0, 1.0)])
        with pytest.raises(ValueError):
            evaluate(form, [(1.0, 1.0, 0.0), (1.0, 0.0, 0.0)])


class TestSupNormExact:
    def test_littlewood(self):
        assert sup_norm_exact(MultilinearForm(LITTLEWOOD)) == pytest.approx(2.0)

    def test_basis_tensor(self):
        assert sup_norm_exact(basis_form(2, 3)) == pytest.approx(1.0)

    def test_linear_functional_is_l1(self):
        form = MultilinearForm(np.array([1.0, -2.0, 3.0]))
        assert sup_norm_exact(form) == pytest.approx(6.0)

    def test_against_brute_force_all_slots(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            form = MultilinearForm(rng.standard_normal((n,) * m))
            assert sup_norm_exact(form) == pytest.approx(sup_norm_brute(form), rel=1e-12)

    @pytest.mark.parametrize("m,n", KERNEL_SHAPES)
    def test_sign_tensors_equal_full_enumeration(self, m, n):
        form = MultilinearForm(sign_tensor(np.random.default_rng(100 * m + n), m, n))
        assert sup_norm_exact(form) == sup_norm_full_enumeration(form)

    @pytest.mark.parametrize("m,n", KERNEL_SHAPES)
    def test_gaussian_tensors_match_full_enumeration(self, m, n):
        form = MultilinearForm(np.random.default_rng(200 * m + n).standard_normal((n,) * m))
        assert sup_norm_exact(form) == pytest.approx(sup_norm_full_enumeration(form), rel=1e-12)

    @pytest.mark.parametrize("m,n", [(2, 5), (3, 4), (4, 3), (6, 2)])
    def test_small_cap_forces_blocks_everywhere(self, monkeypatch, m, n):
        # A 16-element cap splits every slot into many sign and batch blocks,
        # and for m >= 4 one row of the first slot exceeds the cap on its own.
        monkeypatch.setattr(forms, "_CAP", 16)
        rng = np.random.default_rng(300 * m + n)
        for coeffs in (sign_tensor(rng, m, n), rng.standard_normal((n,) * m)):
            form = MultilinearForm(coeffs)
            assert sup_norm_exact(form) == pytest.approx(sup_norm_full_enumeration(form), rel=1e-12)

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (4, 2), (5, 3)])
    def test_slot_sign_flip_invariance(self, m, n):
        rng = np.random.default_rng(400 * m + n)
        form = MultilinearForm(rng.standard_normal((n,) * m))
        norm = sup_norm_exact(form)
        for k in range(m):
            d = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            shape = [1] * m
            shape[k] = n
            flipped = MultilinearForm(form.coeffs * d.reshape(shape))
            assert sup_norm_exact(flipped) == norm

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 20])
    def test_dimension_one(self, m):
        form = MultilinearForm(np.full((1,) * m, -2.5))
        assert sup_norm_exact(form) == 2.5

    @pytest.mark.parametrize("m,n", [(1, 4), (2, 1), (2, 12), (3, 5), (9, 2)])
    def test_zero_tensor(self, m, n):
        assert sup_norm_exact(MultilinearForm(np.zeros((n,) * m))) == 0.0

    def test_budget_error(self):
        big = MultilinearForm(np.zeros((8,) * 5))  # 28 sign bits
        with pytest.raises(BudgetExceededError):
            sup_norm_exact(big)

    @pytest.mark.parametrize("m,n", [(1, 4), (2, 1), (2, 5), (3, 4), (4, 3), (5, 2)])
    def test_pattern_table_max_is_exact_norm(self, m, n):
        # The table behind the search walk: P = M.T @ S, norm = max_k sum_c |P[c, k]|.
        products = forms._sign_products(m, n)
        assert products.shape == (n ** (m - 1), 1 << ((m - 1) * (n - 1)))
        rng = np.random.default_rng(500 * m + n)
        for _ in range(5):
            coeffs = sign_tensor(rng, m, n)
            table = coeffs.reshape(-1, n).T @ products
            assert np.abs(table).sum(axis=0).max() == forms._exact_norm(coeffs)

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (4, 2)])
    def test_sign_products_are_the_pattern_products(self, m, n):
        # Column k holds s1[i1] * ... * s(m-1)[i(m-1)] for pattern k, rows row-major.
        half = [s for s in itertools.product((-1.0, 1.0), repeat=n) if s[0] == 1.0]
        expected = {
            tuple(math.prod(s[i] for s, i in zip(pattern, idx))
                  for idx in itertools.product(range(n), repeat=m - 1))
            for pattern in itertools.product(half, repeat=m - 1)
        }
        columns = set(map(tuple, forms._sign_products(m, n).T.tolist()))
        assert columns == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_half_sign_rows_cached_read_only(self, n):
        signs = forms._half_signs(n)
        assert forms._half_signs(n) is signs
        assert not signs.flags.writeable
        expected = {(1.0,) + rest for rest in itertools.product((-1.0, 1.0), repeat=n - 1)}
        assert signs.shape == (1 << (n - 1), n)
        assert set(map(tuple, signs.tolist())) == expected


class TestCheckBudget:
    def test_default_boundary(self, monkeypatch):
        check_budget(4, 9)  # (m-1)*(N-1) == budget fits
        message = r"^\(m-1\)\*\(N-1\) = 27 sign bits exceed the budget of 24$"
        with pytest.raises(BudgetExceededError, match=message):
            check_budget(4, 10)
        # The budget is fixed: the environment no longer widens it.
        monkeypatch.setenv("BH_BUDGET_BITS", "40")
        with pytest.raises(BudgetExceededError, match="exceed the budget of 24$"):
            check_budget(5, 8)

    @pytest.mark.parametrize("m,n", [(0, 5), (2, 0), (2, -1)])
    def test_empty_shapes(self, m, n):
        # Their bit counts and entry counts fit, so only the shape check rejects them.
        with pytest.raises(ValueError, match=rf"^m and N must be >= 1, got m={m}, N={n}$") as err:
            check_budget(m, n)
        assert type(err.value) is ValueError

    def test_caps_inside_the_bit_budget(self):
        # Inside the sign-bit budget, m <= 31 and N^m <= MAX_TENSOR_ENTRIES still hold.
        for m, n in [(31, 1), (20, 2), (12, 3), (1, 1 << 20)]:
            check_budget(m, n)
        with pytest.raises(BudgetExceededError, match=r"^m = 32 exceeds the arity cap of 31$"):
            check_budget(32, 1)
        for m, n, entries in [(21, 2, 2097152), (13, 3, 1594323), (1, (1 << 20) + 1, 1048577)]:
            message = rf"^N\^m = {entries} entries exceed the cap of 1048576$"
            with pytest.raises(BudgetExceededError, match=message):
                check_budget(m, n)


@st.composite
def small_integer_forms(draw):
    """Integer tensors in [-3, 3] at m, N <= 3: every norm is computed exactly."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    flat = draw(st.lists(st.integers(-3, 3), min_size=n**m, max_size=n**m))
    return np.array(flat, dtype=float).reshape((n,) * m)


class TestSupNormExactProperties:
    @settings(deadline=None)
    @given(coeffs=small_integer_forms(), data=st.data())
    def test_coordinate_and_slot_permutations(self, coeffs, data):
        m, n = coeffs.ndim, coeffs.shape[0]
        norm = sup_norm_exact(MultilinearForm(coeffs))
        permuted = coeffs
        for axis in range(m):
            order = data.draw(st.permutations(range(n)))
            permuted = np.take(permuted, order, axis=axis)
        assert sup_norm_exact(MultilinearForm(permuted)) == norm
        slots = data.draw(st.permutations(range(m)))
        assert sup_norm_exact(MultilinearForm(np.transpose(permuted, slots))) == norm

    @settings(deadline=None)
    @given(coeffs=small_integer_forms(), c=st.integers(-3, 3))
    def test_homogeneity(self, coeffs, c):
        norm = sup_norm_exact(MultilinearForm(coeffs))
        assert sup_norm_exact(MultilinearForm(c * coeffs)) == abs(c) * norm

    @settings(deadline=None)
    @given(coeffs=small_integer_forms(), seed=st.integers(0, 2**32 - 1))
    def test_lower_never_exceeds_exact(self, coeffs, seed):
        form = MultilinearForm(coeffs)
        assert sup_norm_lower(form, restarts=2, seed=seed) <= sup_norm_exact(form)


class TestSupNormLower:
    def test_littlewood(self):
        form = MultilinearForm(LITTLEWOOD)
        assert sup_norm_lower(form, restarts=4, seed=0) == pytest.approx(2.0)

    def test_basis_tensor(self):
        assert sup_norm_lower(basis_form(2, 2), restarts=1, seed=0) == pytest.approx(1.0)

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(6)
        for i in range(40):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            form = MultilinearForm(rng.standard_normal((n,) * m))
            lower = sup_norm_lower(form, restarts=3, seed=i)
            assert lower <= sup_norm_exact(form) * (1 + 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        form = MultilinearForm(rng.standard_normal((3, 3, 3)))
        a = sup_norm_lower(form, restarts=5, seed=123)
        b = sup_norm_lower(form, restarts=5, seed=123)
        assert a == b

    def test_restarts_rejected(self):
        with pytest.raises(ValueError, match="^restarts must be >= 1, got 0$"):
            sup_norm_lower(MultilinearForm(LITTLEWOOD), restarts=0)


class TestBhLhs:
    def test_littlewood(self):
        assert bh_lhs(MultilinearForm(LITTLEWOOD)) == pytest.approx(4.0**0.75)

    def test_basis_tensor(self):
        assert bh_lhs(basis_form(3, 2)) == pytest.approx(1.0)

    def test_all_ones(self):
        form = MultilinearForm(np.ones((3, 3)))
        assert bh_lhs(form) == pytest.approx(9.0**0.75)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(8)
        form = MultilinearForm(rng.standard_normal((3, 3, 3)))
        p = float(bh_exponent(3))
        expected = sum(abs(float(c)) ** p for c in form.coeffs.ravel()) ** (1.0 / p)
        assert bh_lhs(form) == pytest.approx(expected, rel=1e-12)

    def test_dominates_max_entry(self):
        rng = np.random.default_rng(9)
        form = MultilinearForm(rng.standard_normal((4, 4)))
        assert bh_lhs(form) >= np.abs(form.coeffs).max()


class TestBhRatio:
    def test_littlewood_certified(self):
        assert bh_ratio(MultilinearForm(LITTLEWOOD)) == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_basis_tensor(self):
        assert bh_ratio(basis_form(2, 2)) == pytest.approx(1.0)

    def test_random_within_theorem_bound(self):
        rng = np.random.default_rng(10)
        bound = constant(SchemeId.NEW_REAL, 3).value
        for _ in range(50):
            form = MultilinearForm(rng.standard_normal((2, 2, 2)))
            ratio = bh_ratio(form)
            assert 0 < ratio <= bound + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        form = MultilinearForm(rng.standard_normal((3, 3)))
        scaled = MultilinearForm(-2.75 * form.coeffs)
        assert bh_lhs(scaled) == pytest.approx(2.75 * bh_lhs(form), rel=1e-12)
        assert sup_norm_exact(scaled) == pytest.approx(2.75 * sup_norm_exact(form), rel=1e-12)
        assert bh_ratio(scaled) == pytest.approx(bh_ratio(form), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        form = MultilinearForm(rng.standard_normal((4, 4)))
        perm = rng.permutation(4)
        permuted = MultilinearForm(form.coeffs[perm, :])
        assert bh_lhs(permuted) == pytest.approx(bh_lhs(form), rel=1e-12)
        assert sup_norm_exact(permuted) == pytest.approx(sup_norm_exact(form), rel=1e-12)
        assert bh_ratio(permuted) == pytest.approx(bh_ratio(form), rel=1e-12)

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            bh_ratio(MultilinearForm(np.zeros((2, 2))))

    def test_overflow_rejected(self, tmp_path):
        # Finite entries whose coefficient norm overflows against a finite
        # operator norm of 2e300: the ratio inf is no lower bound.
        form = MultilinearForm(1e300 * LITTLEWOOD)
        assert sup_norm_exact(form) == 2e300
        path = tmp_path / "big.json"
        dump_form(form, path)
        for call in (bh_lhs, bh_ratio, lambda f: bh_ratio(load_form(path))):
            with pytest.raises(ValueError, match=OVERFLOW):
                call(form)


class TestWeakL1:
    def test_single_basis_vector(self):
        assert weak_l1_norm([[1.0, 0.0, 0.0]]) == 1.0

    def test_repeated_basis_vector(self):
        assert weak_l1_norm([[1.0, 0.0], [1.0, 0.0]]) == 2.0

    def test_canonical_basis_family(self):
        assert weak_l1_norm(np.eye(5)) == 1.0

    def test_monte_carlo_dual_ball_never_exceeds(self):
        rng = np.random.default_rng(13)
        vectors = rng.standard_normal((4, 6))
        formula = weak_l1_norm(vectors)
        # Random functionals in the l1 ball: random signs and weights.
        raw = rng.standard_normal((100_000, 6))
        phis = raw / np.abs(raw).sum(axis=1, keepdims=True)
        phis *= rng.uniform(0.0, 1.0, size=(100_000, 1))
        sampled = np.abs(phis @ vectors.T).sum(axis=1)
        assert sampled.max() <= formula + 1e-9
        # The sup is attained on the coordinate functionals.
        vertex_values = [np.abs(vectors[:, i]).sum() for i in range(6)]
        assert formula == pytest.approx(max(vertex_values), rel=1e-15)

    def test_empty_family_rejected(self):
        for family in (np.zeros((0, 3)), np.ones((2, 0))):
            with pytest.raises(ValueError, match="^family must be a nonempty \\(J, N\\) array"):
                weak_l1_norm(family)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_family_rejected(self, bad):
        # NaN gave nan and inf gave inf.
        with pytest.raises(ValueError, match="^family entries must be finite$"):
            weak_l1_norm([[bad, 1.0]])


class TestMultipleSumming:
    def test_reduces_to_bh_lhs_on_canonical_bases(self):
        rng = np.random.default_rng(14)
        form = MultilinearForm(rng.standard_normal((3, 3)))
        p = float(bh_exponent(2))
        value = multiple_summing_lhs(form, [np.eye(3), np.eye(3)], p)
        assert value == pytest.approx(bh_lhs(form), rel=1e-14)

    def test_zero_families(self):
        form = MultilinearForm(np.ones((2, 2)))
        zero = np.zeros((1, 2))
        assert multiple_summing_lhs(form, [zero, zero], 1.5) == 0.0

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(15)
        form = MultilinearForm(rng.standard_normal((3, 3)))
        fam1 = rng.standard_normal((4, 3))
        fam2 = rng.standard_normal((2, 3))
        p = 1.7
        total = 0.0
        for j1 in range(4):
            for j2 in range(2):
                total += abs(evaluate(form, [fam1[j1], fam2[j2]])) ** p
        assert multiple_summing_lhs(form, [fam1, fam2], p) == pytest.approx(
            total ** (1 / p), rel=1e-12
        )

    def test_shape_mismatch_rejected(self):
        form = MultilinearForm(np.ones((2, 2)))
        with pytest.raises(ValueError):
            multiple_summing_lhs(form, [np.eye(3), np.eye(3)], 4 / 3)
        with pytest.raises(ValueError):
            multiple_summing_lhs(form, [np.eye(2)], 4 / 3)

    def test_overflow_rejected(self):
        family = 1e300 * np.eye(2)
        with pytest.raises(ValueError, match=OVERFLOW):
            multiple_summing_lhs(MultilinearForm(LITTLEWOOD), [family, family], 4 / 3)

    def test_nonfinite_family_rejected(self):
        # A NaN family raised the overflow message.
        family = np.array([[math.nan, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^family entries must be finite$"):
            multiple_summing_lhs(MultilinearForm(LITTLEWOOD), [np.eye(2), family], 4 / 3)

    @pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
    def test_exponent_rejected(self, p):
        form = MultilinearForm(np.ones((2, 2)))
        with pytest.raises(ValueError, match=f"p must be >= 1, got {p}"):
            multiple_summing_lhs(form, [np.eye(2), np.eye(2)], p)
