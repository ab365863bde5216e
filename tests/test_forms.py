import itertools
import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhbounds import forms, verify
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
    sup_norm_exact,
    sup_norm_lower,
    to_interchange,
)

LITTLEWOOD = np.array([[1.0, 1.0], [1.0, -1.0]])
# A finite input whose sum overflows is refused, never decided.
OVERFLOW = "^a computed side is not finite: the inputs overflow the float range$"
# So is a nonzero input whose sum underflows: it is not 0, nor a subnormal float.
UNDERFLOW = "^a computed side of nonzero inputs is not a normal float: the inputs underflow it$"


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


# Every kernel shape, the battery's, the benchmark's deep shapes and two of
# its wide ones, and last slots of 8 to 20 coordinates, where numpy's row
# sum turns pairwise: every remainder of 0 to 7 terms after one block of
# eight, and of 0 to 4 after two.
ORACLE_SHAPES = sorted(set(KERNEL_SHAPES) | {
    (2, 2), (2, 3), (3, 3), (4, 2),
    (4, 6), (5, 5), (6, 4), (7, 3), (9, 2), (10, 2), (2, 20), (3, 10),
    (2, 9), (2, 10), (2, 11), (2, 12), (2, 13), (2, 14), (2, 15),
    (2, 17), (2, 18), (2, 19), (3, 8),
})
# A 16-element cap splits every slot down to single columns and terms; it
# runs the shapes of at most 14 sign bits, where that takes under a second.
ORACLE_CASES = [(m, n, None) for m, n in ORACLE_SHAPES] + [
    (m, n, 16) for m, n in ORACLE_SHAPES if (m - 1) * (n - 1) <= 14
]
# A 2^10 cap leaves each m = 2 slot several pattern columns and depth-first
# terms, whose adds read the planes the slot fills: at (2,9), head 7 with 2
# terms on 64 columns.  At cap 16 these slots have one column or no terms.
ORACLE_CASES += [(m, n, 1 << 10) for m, n in ORACLE_SHAPES if m == 2]
# Every head the kernel can pick at the committed _CAP: a slot's expansion
# per pattern is never below its head, so head * 2^(head-1) <= _CAP.
KERNEL_HEADS = [h for h in range(1, 64) if h << (h - 1) <= forms._CAP]


def _reference_norm(coeffs):
    """The exact norm by the earlier kernel, which the current one must match
    bit for bit: batch items on the major axis, one stacked product per
    block, and each l1 sum by np.add.reduce along a contiguous row."""
    if coeffs.ndim == 1:
        return float(np.abs(coeffs).sum())
    return _reference_sup(coeffs.reshape(1, coeffs.shape[0], -1), coeffs.ndim - 1)


def _reference_sup(batch, slots):
    count, n, rest = batch.shape
    head = min(n, max(1, (forms._CAP // rest).bit_length()))
    items = max(1, forms._CAP // (rest << (head - 1)))
    signs = forms._half_signs(head)
    best = 0.0
    for first in range(0, count, items):
        x = batch[first:first + items]
        partial = np.matmul(signs, x[:, :head] if head < n else x)
        best = max(best, _reference_add_rows(partial, x, head, slots))
    return best


def _reference_add_rows(partial, x, j, slots):
    n, rest = x.shape[1:]
    if j < n:
        row = x[:, j:j + 1]
        best = _reference_add_rows(partial + row, x, j + 1, slots)
        partial -= row
        return max(best, _reference_add_rows(partial, x, j + 1, slots))
    if slots > 1:
        return _reference_sup(partial.reshape(-1, n, rest // n), slots - 1)
    np.abs(partial, out=partial)
    return float(np.maximum.reduce(np.add.reduce(partial, axis=2), axis=None))


def oracle_tensors(m, n):
    """Gaussian, +-1, Gaussian scaled entrywise by 1e-3 to 1e3, and integer tensors."""
    rng = np.random.default_rng(600 * m + n)
    shape = (n,) * m
    return {
        "gauss": rng.standard_normal(shape),
        "sign": sign_tensor(rng, m, n),
        "scaled": rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape),
        "integer": rng.integers(-3, 4, shape).astype(float),
    }


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
        # A 16-element cap cuts every slot's head product to at most three
        # terms, the rest added depth first, and for m >= 4 one row of the
        # first slot exceeds the cap on its own.
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
        products = verify._sign_products(m, n)
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
        columns = set(map(tuple, verify._sign_products(m, n).T.tolist()))
        assert columns == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_half_sign_rows_cached_read_only(self, n):
        signs = forms._half_signs(n)
        assert forms._half_signs(n) is signs
        assert not signs.flags.writeable
        expected = {(1.0,) + rest for rest in itertools.product((-1.0, 1.0), repeat=n - 1)}
        assert signs.shape == (1 << (n - 1), n)
        assert set(map(tuple, signs.tolist())) == expected

    def test_search_table_leaves_the_sign_cache_to_the_kernel(self):
        # The walk's S at (2,16) needs the n = 16 sign rows, 4 MB that the
        # kernel never asks for; the cache must not keep them.
        coeffs = np.random.default_rng(16).standard_normal((16, 16))
        forms._half_signs.cache_clear()
        bh_ratio(MultilinearForm(coeffs))
        kernel_only = forms._half_signs.cache_info().currsize
        forms._half_signs.cache_clear()
        verify.search_extremal(2, 16, restarts=1, iterations=0)
        assert forms._half_signs.cache_info().currsize == kernel_only


class TestKernelAgainstReference:
    @pytest.mark.parametrize("m,n,cap", ORACLE_CASES)
    def test_same_bits_as_the_reference(self, monkeypatch, m, n, cap):
        if cap is not None:
            monkeypatch.setattr(forms, "_CAP", cap)
        for kind, coeffs in oracle_tensors(m, n).items():
            assert forms._exact_norm(coeffs) == _reference_norm(coeffs), kind

    @pytest.mark.parametrize("m,n", [(2, 16), (2, 20), (3, 10), (4, 6), (5, 5), (6, 4)])
    def test_working_set_is_bounded(self, m, n):
        # Breadth first without blocks, (3,10) alone would need 160 caps; at
        # (2,20) the slot's term planes are nearly half of the peak.
        coeffs = np.random.default_rng(700 * m + n).standard_normal((n,) * m)
        forms._exact_norm(coeffs)  # fills the sign cache
        tracemalloc.start()
        try:
            forms._exact_norm(coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * forms._CAP * 8


class TestHeadProductOrder:
    @pytest.mark.parametrize("head", KERNEL_HEADS)
    def test_product_sums_the_terms_in_index_order(self, head):
        # Independent of _reference_norm, which runs the same BLAS products:
        # each entry of a slot's head product must be its terms x[i] * s[i]
        # summed left to right, or the norm's bits depend on the BLAS.  A
        # slot's width is at least its n >= 2 (at n = 1 the head is one
        # term); a width-1 product is a gemv, which sums in another order.
        rng = np.random.default_rng(800 + head)
        signs = forms._half_signs(head)
        for width in sorted({2, 7, 64, forms._CAP >> (head - 1)}):
            plain = rng.standard_normal((head + 2, width))
            for x in (plain, plain * 10.0 ** rng.uniform(-3.0, 3.0, plain.shape)):
                expected = np.zeros((width, len(signs)))
                for i in range(head):
                    expected += x[i, :, None] * signs[:, i]
                assert np.array_equal(x[:head].T @ signs.T, expected)
                out = np.empty((2, width, len(signs)))[1]  # as the kernel's workspace
                assert np.array_equal(np.matmul(x[:head].T, signs.T, out=out), expected)


class TestThreads:
    def test_concurrent_norms_keep_their_bits(self):
        # Each norm owns its workspace, so threads agree with serial calls.
        rng = np.random.default_rng(900)
        cases = [MultilinearForm(rng.standard_normal((16,) * 2)),
                 MultilinearForm(rng.standard_normal((8,) * 3))]
        serial = [sup_norm_exact(form) for form in cases]

        def norms(_):
            return [[sup_norm_exact(form) for form in cases] for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                results = [future.result(timeout=120)
                           for future in [pool.submit(norms, k) for k in range(2)]]
        finally:
            sys.setswitchinterval(interval)
        assert all(run == serial for result in results for run in result)


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
        # Each |entry|^(4/3), about 1e308, is finite; only their sum overflows.
        finite_powers = MultilinearForm(1e231 * LITTLEWOOD)
        for call in (bh_lhs, bh_ratio):
            with pytest.raises(ValueError, match=OVERFLOW):
                call(finite_powers)

    def test_underflow_rejected(self):
        # Every |entry|^(4/3) rounds to 0 (they returned 0.0), or to a
        # subnormal float with fewer bits.
        for scale in (1e-250, 1e-234):
            form = MultilinearForm(scale * LITTLEWOOD)
            for call in (bh_lhs, bh_ratio):
                with pytest.raises(ValueError, match=UNDERFLOW):
                    call(form)
        # A zero tensor keeps its zero norm, and a tiny entry beside a unit
        # one is no underflow.
        assert bh_lhs(MultilinearForm(np.zeros((2, 2)))) == 0.0
        assert bh_lhs(MultilinearForm(np.array([[1.0, 1e-300], [0.0, 0.0]]))) == 1.0
