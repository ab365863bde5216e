import inspect
import itertools
import math

import numpy as np
import pytest

from bhbounds import forms, verify
from bhbounds.constants import SchemeId, constant
from bhbounds.exponents import bh_exponent
from bhbounds.forms import (
    MultilinearForm,
    bh_lhs,
    multiple_summing_lhs,
    sup_norm_exact,
    weak_l1_norm,
)
from bhbounds.khinchine import haagerup_crossover, khinchine_A, khinchine_A2r
from bhbounds.verify import (
    check_blei,
    check_kcc,
    check_khinchine,
    check_multiple_summing,
    check_rademacher_tensor,
    rademacher_moment,
    rademacher_sums,
    run_bh_trials,
    run_blei_suite,
    run_kcc_suite,
    run_khinchine_suite,
    run_tensor_suite,
    search_extremal,
)
from bhbounds.forms import BudgetExceededError

HALF_SQRT2 = 1.0 / math.sqrt(2.0)
# A finite input whose sum, moment or side overflows is refused, never decided.
OVERFLOW = "^a computed side is not finite: the inputs overflow the float range$"
# An empty coefficient vector is refused, never decided as 0 <= 0.
EMPTY = "^expected a coefficient vector, got shape \\(0,\\)$"


class TestRademacherSums:
    def test_enumerates_all_patterns(self):
        sums = sorted(rademacher_sums([1.0, 2.0]))
        assert sums == [-3.0, -1.0, 1.0, 3.0]

    def test_against_itertools_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(6)
        expected = sorted(
            float(np.dot(a, s)) for s in itertools.product((-1.0, 1.0), repeat=6)
        )
        assert sorted(rademacher_sums(a)) == pytest.approx(expected)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            rademacher_sums(np.ones(21))
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                rademacher_sums([1.0, bad])
        with pytest.raises(ValueError, match="^expected a coefficient vector, got shape"):
            rademacher_sums(np.ones((2, 2)))
        # The empty sum's [0.0] gave a moment of 0.
        for call in (rademacher_sums, lambda a: rademacher_moment(a, 1.0)):
            with pytest.raises(ValueError, match=EMPTY):
                call([])

    def test_moment_overflow_rejected(self):
        # The mean of |S|^2 overflows: it returned inf.
        with pytest.raises(ValueError, match=OVERFLOW):
            rademacher_moment([1e300, 1e300], 2.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_moment_rejects_nonpositive_p(self, p):
        with pytest.raises(ValueError, match="p must be > 0"):
            rademacher_moment([1.0, 2.0], p)


class TestCheckKhinchine:
    def test_equality_witness(self):
        # (1, 1)/sqrt(2) at p <= p0: the moment meets A_p exactly.
        res = check_khinchine([HALF_SQRT2, HALF_SQRT2], 4.0 / 3.0)
        assert res["holds"]
        a_p = khinchine_A(4.0 / 3.0).value
        assert res["mid"] / a_p == pytest.approx(1.0, abs=1e-12)

    def test_single_coefficient(self):
        for p in (0.5, 1.0, 1.7, 2.0):
            res = check_khinchine([1.0], p)
            assert res["holds"]
            assert res["mid"] == pytest.approx(1.0, abs=1e-13)
            assert res["rhs"] == pytest.approx(1.0, abs=1e-13)

    def test_random_vectors_hold(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.standard_normal(10)
            assert check_khinchine(a, 4.0 / 3.0)["holds"]

    def test_equality_grid_below_crossover(self):
        a = [HALF_SQRT2, HALF_SQRT2]
        for p in (1.0, 1.2, 4.0 / 3.0, 1.5, 1.8):
            assert p <= haagerup_crossover()
            res = check_khinchine(a, p)
            assert res["mid"] / (khinchine_A(p).value * 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            check_khinchine(np.ones(22), 1.5)
        # inf <= inf would hold vacuously.
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            check_khinchine([1.0, math.inf], 1.5)
        # 0 <= 0 <= 0 held vacuously.
        with pytest.raises(ValueError, match=EMPTY):
            check_khinchine([], 1.5)
        for p in (0.0, -1.0, 2.5, math.nan):
            with pytest.raises(ValueError, match="^p must be in \\(0, 2\\]"):
                check_khinchine([1.0, 2.0], p)
        # Finite inputs: every side overflowed (inf <= inf held), or only the
        # l2 norm did (a false counterexample).
        for a in ([1e308, 1e308], [1e200, 1e200]):
            with pytest.raises(ValueError, match=OVERFLOW):
                check_khinchine(a, 1.5)


class TestCheckKcc:
    def test_equal_exponents(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(5)
        res = check_kcc(a, 1.5, 1.5)
        assert res["holds"]
        # Identical moments, constant 1/A_p >= 1.
        assert res["rhs"] == pytest.approx(res["lhs"] / khinchine_A(1.5).value, rel=1e-12)

    def test_equality_instance(self):
        res = check_kcc([HALF_SQRT2, HALF_SQRT2], 2.0, 4.0 / 3.0)
        assert res["holds"]
        assert res["lhs"] == pytest.approx(1.0, abs=1e-12)
        assert res["rhs"] == pytest.approx(1.0, abs=1e-12)

    def test_random_instances_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.standard_normal(int(rng.integers(1, 11)))
            assert check_kcc(a, 2.0, 4.0 / 3.0)["holds"]

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            check_kcc([1.0], 1.0, 1.5)
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            check_kcc([1.0, math.inf], 2.0, 1.0)
        with pytest.raises(ValueError, match=EMPTY):
            check_kcc([], 2.0, 1.0)
        # The p-moment overflows but the r-moment does not: a false counterexample.
        with pytest.raises(ValueError, match=OVERFLOW):
            check_kcc([1e300, 1e300], 2.0, 1.0)


class TestCheckBlei:
    def test_one_by_one_equality(self):
        res = check_blei([[3.7]], 2.0, 4.0 / 3.0, 1.5)
        assert res["holds"]
        assert res["lhs"] == pytest.approx(res["rhs"], rel=1e-12)

    def test_rank_one_matrix(self):
        u = np.array([0.3, 1.1, 0.7])
        v = np.array([0.9, 0.4])
        res = check_blei(np.outer(u, v), 2.0, 4.0 / 3.0, 4.0 / 3.0)
        assert res["holds"]

    def test_homogeneity(self):
        rng = np.random.default_rng(4)
        mat = rng.uniform(0.1, 2.0, size=(4, 5))
        lam = 3.25
        base = check_blei(mat, 2.0, 1.2, 1.4)
        scaled = check_blei(lam * mat, 2.0, 1.2, 1.4)
        assert scaled["lhs"] == pytest.approx(lam * base["lhs"], rel=1e-12)
        assert scaled["rhs"] == pytest.approx(lam * base["rhs"], rel=1e-12)

    def test_random_batch_holds(self):
        report = run_blei_suite(count=300, seed=5)
        assert report.failures == 0

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            check_blei([[1.0, 0.0]], 2.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^matrix entries must be strictly positive$"):
            check_blei([[1.0, math.nan]], 2.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            check_blei([[1.0, math.inf], [3.0, 1.0]], 3.0, 1.5, 1.5)
        # Empty matrices held vacuously as 0 <= 0.
        for mat in ([1.0, 2.0], np.zeros((0, 3)), np.ones((2, 0))):
            with pytest.raises(ValueError, match="^expected a matrix, got shape"):
                check_blei(mat, 3.0, 1.5, 1.5)
        # Both sides overflow, or only the right one: each held vacuously.
        for mat in ([[1e300, 1.0]], [[1e120, 1.0]]):
            with pytest.raises(ValueError, match=OVERFLOW):
                check_blei(mat, 3.0, 1.5, 1.5)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            check_blei([[1.0]], 1.5, 1.5, 1.0)
        with pytest.raises(ValueError, match="^exponents must be finite"):
            check_blei([[1.0, 2.0], [3.0, 1.0]], math.inf, 1.5, 1.5)


class TestCheckRademacherTensor:
    def test_basis_tensor(self):
        tensor = np.zeros((2, 2, 2))
        tensor[0, 0, 0] = 1.0
        res = check_rademacher_tensor(tensor, 4.0 / 3.0)
        assert res["holds"]
        assert res["lhs"] == pytest.approx(1.0)
        assert res["rhs"] == pytest.approx(khinchine_A2r(4.0 / 3.0) ** 3, rel=1e-12)

    def test_littlewood_exact_enumeration(self):
        mat = np.array([[1.0, 1.0], [1.0, -1.0]])
        r = 4.0 / 3.0
        res = check_rademacher_tensor(mat, r)
        assert res["holds"]
        # Independent enumeration of the 16 sign pairs.
        total = 0.0
        for s in itertools.product((-1.0, 1.0), repeat=2):
            for t in itertools.product((-1.0, 1.0), repeat=2):
                total += abs(np.array(s) @ mat @ np.array(t)) ** r
        moment = (total / 16.0) ** (1.0 / r)
        assert res["rhs"] == pytest.approx(khinchine_A2r(r) ** 2 * moment, rel=1e-12)

    def test_random_batch_holds(self):
        report = run_tensor_suite(count=200, seed=6)
        assert report.failures == 0

    def test_size_cap(self):
        with pytest.raises(ValueError):
            check_rademacher_tensor(np.ones((2,) * 11), 1.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^tensor entries must be finite$"):
                check_rademacher_tensor([[1.0, bad], [0.0, 1.0]], 1.5)
        with pytest.raises(ValueError, match="^tensor must be a hypercube"):
            check_rademacher_tensor(np.ones((2, 3)), 1.5)
        # A 0-d array raised IndexError; an empty vector held as 0 <= 0.
        with pytest.raises(ValueError, match="^coefficient tensor must have at least one axis$"):
            check_rademacher_tensor(np.array(1.0), 1.5)
        with pytest.raises(ValueError, match="^dimension N must be >= 1$"):
            check_rademacher_tensor(np.zeros(0), 2.0)
        for r in (0.5, 2.5, math.nan):
            with pytest.raises(ValueError, match="^r must be in \\[1, 2\\]"):
                check_rademacher_tensor(np.ones((2, 2)), r)
        # Both sides overflow (inf <= inf held), or only the Frobenius norm
        # does (a false counterexample).
        for tensor, r in ((np.full((2, 2), 1e300), 1.5), (np.full((2, 2), 1e160), 1.0)):
            with pytest.raises(ValueError, match=OVERFLOW):
                check_rademacher_tensor(tensor, r)


class TestRunBhTrials:
    def test_single_coefficient_ratios(self):
        report = run_bh_trials(2, 1, 50, seed=0)
        assert report.failures == 0
        assert report.max_ratio == pytest.approx(1.0, rel=1e-14)

    def test_littlewood_found_among_sign_draws(self):
        report = run_bh_trials(2, 2, 2000, seed=1)
        assert report.failures == 0
        assert report.max_ratio >= math.sqrt(2) - 1e-9

    def test_m3_against_new_bound(self):
        report = run_bh_trials(3, 3, 200, seed=2)
        assert report.failures == 0
        assert report.worst_margin > 0

    def test_deterministic_json(self):
        a = run_bh_trials(2, 2, 100, seed=3).to_json()
        b = run_bh_trials(2, 2, 100, seed=3).to_json()
        assert a == b

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            run_bh_trials(5, 8, 10, seed=0)

    def test_failure_dump_format(self, tmp_path):
        from bhbounds.forms import load_form
        from bhbounds.verify import _dump_failure

        form = MultilinearForm(np.array([[1.0, 1.0], [1.0, -1.0]]))
        _dump_failure(tmp_path, "bh", 17, form, seed=9)
        dumped = tmp_path / "bh_failure_17.json"
        assert dumped.exists()
        assert np.array_equal(load_form(dumped).coeffs, form.coeffs)

    def test_failures_dump_each_failing_tensor(self, tmp_path):
        import json

        from bhbounds.forms import load_form

        # The complex bound 2/sqrt(pi) ~ 1.128 is below the real extremal
        # ratio sqrt(2), so real sign tensors fail against it.
        report = run_bh_trials(
            2, 2, 200, seed=1, scheme=SchemeId.DSP_COMPLEX, failure_dir=tmp_path
        )
        assert report.failures > 0
        dumps = sorted(tmp_path.glob("bh_failure_*.json"))
        assert len(dumps) == report.failures
        for path in dumps:
            i = int(path.stem.rsplit("_", 1)[1])
            rng = np.random.default_rng((1, i))
            if i % 2 == 0:
                expected = rng.integers(0, 2, size=(2, 2)) * 2.0 - 1.0
            else:
                expected = rng.standard_normal((2, 2))
            assert np.array_equal(load_form(path).coeffs, expected)
            assert json.loads(path.read_text())["seed"] == 1


class TestSearchExtremal:
    def test_littlewood_extremal_found(self):
        state = search_extremal(2, 2, restarts=8, iterations=100, seed=3)
        assert state.ratio == pytest.approx(math.sqrt(2), abs=1e-12)
        # Exhaustive check over all 16 sign matrices.
        best = max(
            bh_lhs(MultilinearForm(np.array(signs, dtype=float).reshape(2, 2)))
            / sup_norm_exact(MultilinearForm(np.array(signs, dtype=float).reshape(2, 2)))
            for signs in itertools.product((-1.0, 1.0), repeat=4)
        )
        assert state.ratio == pytest.approx(best, abs=1e-12)

    def test_single_dimension(self):
        state = search_extremal(2, 1, restarts=2, iterations=10, seed=0)
        assert state.ratio == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("m,n", [(0, 2), (2, 0)])
    def test_empty_shape_rejected(self, m, n):
        with pytest.raises(ValueError, match="must be >= 1"):
            search_extremal(m, n)

    def test_m3_matches_exhaustive(self):
        state = search_extremal(3, 2, restarts=20, iterations=150, seed=5)
        best = max(
            bh_lhs(MultilinearForm(np.array(signs, dtype=float).reshape(2, 2, 2)))
            / sup_norm_exact(MultilinearForm(np.array(signs, dtype=float).reshape(2, 2, 2)))
            for signs in itertools.product((-1.0, 1.0), repeat=8)
        )
        assert state.ratio == pytest.approx(best, abs=1e-12)

    def test_stays_below_scheme_bound(self):
        state = search_extremal(3, 2, restarts=6, iterations=80, seed=6)
        assert state.ratio <= constant(SchemeId.NEW_REAL, 3).value + 1e-12

    def test_tensor_entries_are_signs(self):
        state = search_extremal(2, 3, restarts=3, iterations=40, seed=7)
        assert set(np.unique(state.tensor.coeffs)) <= {-1.0, 1.0}

    def test_deterministic(self):
        a = search_extremal(2, 2, restarts=4, iterations=50, seed=11)
        b = search_extremal(2, 2, restarts=4, iterations=50, seed=11)
        assert a.ratio == b.ratio
        assert np.array_equal(a.tensor.coeffs, b.tensor.coeffs)


def _reference_walk(m, N, restarts, iterations, seed):
    """Each restart's final form and ratio, from a walk that copies the
    tensor and builds a new form for every proposal."""
    finals = []
    for i in range(restarts):
        rng = np.random.default_rng((seed, i))
        signs = rng.integers(0, 2, size=(N,) * m) * 2.0 - 1.0
        form = MultilinearForm(signs)
        ratio = bh_lhs(form) / sup_norm_exact(form)
        for _ in range(iterations):
            idx = tuple(rng.integers(0, N, size=m))
            flipped = signs.copy()
            flipped[idx] = -flipped[idx]
            candidate = MultilinearForm(flipped)
            candidate_ratio = bh_lhs(candidate) / sup_norm_exact(candidate)
            if candidate_ratio > ratio:
                signs, form, ratio = flipped, candidate, candidate_ratio
        finals.append((form, ratio))
    return finals


def _assert_same_as_reference(m, n, restarts, iterations, seed):
    finals = _reference_walk(m, n, restarts, iterations, seed)
    # The first restart with the largest ratio wins.
    best_form, best_ratio = max(finals, key=lambda final: final[1])
    state = search_extremal(m, n, restarts=restarts, iterations=iterations, seed=seed)
    assert state.ratio == best_ratio
    assert np.array_equal(state.tensor.coeffs, best_form.coeffs)
    assert state.iterations == restarts * iterations
    assert state.restarts == restarts


def _count_walk_kernel_calls(monkeypatch):
    """Record each exact-norm kernel call the walk makes itself."""
    calls = []

    def counted(coeffs):
        calls.append(coeffs.shape)
        return forms._exact_norm(coeffs)

    monkeypatch.setattr(verify, "_exact_norm", counted)
    return calls


SEARCH_CASES = [
    (1, 1, 2, 10, 0),
    (1, 5, 3, 30, 2),
    (2, 1, 2, 10, 0),
    (2, 3, 3, 40, 7),
    (3, 1, 2, 10, 3),
    (3, 4, 3, 60, 2),
    (4, 3, 3, 60, 4),
    (5, 3, 2, 40, 5),
    (6, 2, 2, 60, 6),
    (3, 3, 4, 0, 1),
]


class TestSearchAgainstReference:
    @pytest.mark.parametrize("m,n,restarts,iterations,seed", SEARCH_CASES)
    def test_same_walk(self, monkeypatch, m, n, restarts, iterations, seed):
        calls = _count_walk_kernel_calls(monkeypatch)
        _assert_same_as_reference(m, n, restarts, iterations, seed)
        # Every proposal was scored from the pattern table.
        assert calls == []

    @pytest.mark.parametrize("m,n,restarts,iterations,seed", SEARCH_CASES)
    def test_same_walk_past_the_table_cap(self, monkeypatch, m, n, restarts, iterations, seed):
        # With no room for the table every shape scores through the kernel.
        monkeypatch.setattr(verify, "MAX_TENSOR_ENTRIES", 0)
        calls = _count_walk_kernel_calls(monkeypatch)
        _assert_same_as_reference(m, n, restarts, iterations, seed)
        assert len(calls) == restarts * iterations

    @pytest.mark.parametrize("n,kernel_calls", [(16, 0), (17, 8)])
    def test_real_table_cap(self, monkeypatch, n, kernel_calls):
        # At (2, 16) S and P hold 16 * 2^15 + 16 * 2^15 = 2^20 entries, exactly
        # MAX_TENSOR_ENTRIES; (2, 17) needs 34 * 2^16 and takes the kernel path.
        calls = _count_walk_kernel_calls(monkeypatch)
        _assert_same_as_reference(2, n, 2, 4, 9)
        assert len(calls) == kernel_calls

    def test_same_walk_across_a_draw_block(self, monkeypatch):
        # 4,100 proposals take two blocks of proposal cells.
        calls = _count_walk_kernel_calls(monkeypatch)
        _assert_same_as_reference(3, 2, 1, 4100, 8)
        assert calls == []

    def test_same_walk_across_a_draw_block_past_the_table_cap(self, monkeypatch):
        monkeypatch.setattr(verify, "MAX_TENSOR_ENTRIES", 0)
        calls = _count_walk_kernel_calls(monkeypatch)
        _assert_same_as_reference(3, 2, 1, 4100, 8)
        assert len(calls) == 4100

    @pytest.mark.parametrize("table_cap", [verify.MAX_TENSOR_ENTRIES, 0], ids=["table", "kernel"])
    def test_same_walk_with_small_draw_blocks(self, monkeypatch, table_cap):
        # Blocks of 5 proposals put block boundaries between accepted flips.
        monkeypatch.setattr(verify, "_SEED_BLOCK", 5)
        monkeypatch.setattr(verify, "MAX_TENSOR_ENTRIES", table_cap)
        _assert_same_as_reference(5, 3, 2, 40, 5)

    def test_best_from_an_earlier_restart_is_kept(self):
        finals = _reference_walk(3, 3, 4, 10, 0)
        ratios = [ratio for _, ratio in finals]
        best = ratios.index(max(ratios))
        # The case is only a check if a later restart ends on another tensor.
        assert best < 3 and max(ratios) > ratios[-1]
        assert not np.array_equal(finals[best][0].coeffs, finals[-1][0].coeffs)
        state = search_extremal(3, 3, restarts=4, iterations=10, seed=0)
        assert state.ratio == ratios[best]
        assert np.array_equal(state.tensor.coeffs, finals[best][0].coeffs)


class TestProposalCells:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_same_stream_as_one_draw_per_proposal(self, m, n):
        place = n ** np.arange(m - 1, -1, -1)
        for iterations in [0, 1, 4095, 4096, 4097, 8195]:
            blocked = np.random.default_rng((iterations, m, n))
            per_call = np.random.default_rng((iterations, m, n))
            # The starting tensor's n^m draws leave a 32-bit half over when n^m is odd.
            for rng in (blocked, per_call):
                rng.integers(0, 2, size=(n,) * m)
            assert per_call.bit_generator.state["has_uint32"] == n % 2
            expected = [
                divmod(int(per_call.integers(0, n, size=m) @ place), n) for _ in range(iterations)
            ]
            assert list(verify._proposal_cells(blocked, n, m, iterations)) == expected
            assert blocked.bit_generator.state == per_call.bit_generator.state

    def test_draws_are_bounded_by_the_block(self):
        sizes = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def integers(self, low, high, size):
                sizes.append(size)
                return self.rng.integers(low, high, size=size)

        cells = list(verify._proposal_cells(Recording(np.random.default_rng(0)), 3, 2, 10_000))
        assert len(cells) == 10_000
        assert sizes == [(4096, 2), (4096, 2), (1808, 2)]


class TestBudgetBeforeDraw:
    """A shape past the bit budget is rejected before any tensor is drawn."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a tensor was drawn")

        monkeypatch.setattr(verify, "_draw_tensor", fail)

    def test_patch_catches_draws(self):
        with pytest.raises(AssertionError, match="drawn"):
            run_bh_trials(2, 2, 1, seed=0)

    def test_bh_trials(self):
        with pytest.raises(BudgetExceededError):
            run_bh_trials(5, 8, 10, seed=0)

    def test_multiple_summing(self):
        with pytest.raises(BudgetExceededError):
            check_multiple_summing(5, 8, 3, 10, seed=0)

    def test_search(self):
        with pytest.raises(BudgetExceededError):
            search_extremal(5, 8)

    @pytest.mark.parametrize(
        "m,n,cap", [(21, 2, "entries exceed"), (13, 3, "entries exceed"), (10**7, 1, "arity")]
    )
    def test_caps_inside_the_bit_budget(self, m, n, cap):
        # Within the sign-bit budget, but over MAX_TENSOR_ENTRIES entries or the arity cap.
        with pytest.raises(BudgetExceededError, match=cap):
            run_bh_trials(m, n, 1, seed=0)
        with pytest.raises(BudgetExceededError, match=cap):
            check_multiple_summing(m, n, 1, 1, seed=0)
        with pytest.raises(BudgetExceededError, match=cap):
            search_extremal(m, n)

    def test_empty_shape(self):
        with pytest.raises(ValueError, match="m and N must be >= 1"):
            run_bh_trials(2, 0, 10, 0)
        with pytest.raises(ValueError, match="m and N must be >= 1"):
            check_multiple_summing(2, 0, 3, 10, 0)

    def test_check_budget_is_the_only_shape_gate(self, monkeypatch):
        gated = []

        def gate(m, n):
            gated.append((m, n))
            raise LookupError("gated")

        monkeypatch.setattr(verify, "check_budget", gate)
        for call in (
            lambda: run_bh_trials(2, 0, 10, 0),
            lambda: check_multiple_summing(2, 0, 3, 10, 0),
            lambda: search_extremal(2, 0),
        ):
            with pytest.raises(LookupError, match="gated"):
                call()
        assert gated == [(2, 0)] * 3

    def test_summing_family_tuples(self):
        with pytest.raises(BudgetExceededError, match=r"^J\^m = 4097\^2 family tuples"):
            check_multiple_summing(2, 2, 4097, 1, seed=0)


class TestCheckMultipleSumming:
    def test_zero_failures_default(self):
        report = check_multiple_summing(2, 2, 3, 300, seed=0)
        assert report.failures == 0

    def test_canonical_families_reduce_to_bh(self):
        # With canonical bases the mixed sum is the coefficient norm, so
        # the margin matches the plain ratio trials.
        rng = np.random.default_rng(1)
        form = MultilinearForm(rng.standard_normal((2, 2)))
        from bhbounds.exponents import bh_exponent
        from bhbounds.forms import multiple_summing_lhs

        lhs = multiple_summing_lhs(form, [np.eye(2), np.eye(2)], float(bh_exponent(2)))
        assert lhs == pytest.approx(bh_lhs(form), rel=1e-14)

    def test_scaled_families_scale_lhs(self):
        rng = np.random.default_rng(2)
        form = MultilinearForm(rng.standard_normal((2, 2)))
        from bhbounds.exponents import bh_exponent
        from bhbounds.forms import multiple_summing_lhs

        fams = [rng.standard_normal((3, 2)) for _ in range(2)]
        p = float(bh_exponent(2))
        full = multiple_summing_lhs(form, fams, p)
        halved = multiple_summing_lhs(form, [0.5 * f for f in fams], p)
        assert halved == pytest.approx(full * 0.25, rel=1e-12)

    def test_deterministic_json(self):
        a = check_multiple_summing(2, 2, 3, 50, seed=3).to_json()
        b = check_multiple_summing(2, 2, 3, 50, seed=3).to_json()
        assert a == b


class TestSuiteRunners:
    def test_khinchine_suite_green(self):
        report = run_khinchine_suite(count=100, seed=0)
        assert report.failures == 0
        assert report.trials == 100
        assert report.max_ratio <= 1.0 + 1e-10

    def test_kcc_suite_green(self):
        report = run_kcc_suite(count=100, seed=0)
        assert report.failures == 0

    @pytest.mark.parametrize(
        "run", [run_khinchine_suite, run_kcc_suite, run_blei_suite, run_tensor_suite]
    )
    def test_small_suites_take_count_and_seed(self, run):
        # Each suite's draw is fixed; only the trial count and the seed vary.
        assert list(inspect.signature(run).parameters) == ["count", "seed"]

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="count"):
            run_khinchine_suite(count=0)

    def test_report_field_order(self):
        report = run_khinchine_suite(count=5, seed=1)
        keys = list(__import__("json").loads(report.to_json()).keys())
        assert keys == ["suite", "trials", "failures", "worst_margin", "max_ratio", "seed", "uncertified"]

    def test_count_over_index_width_rejected(self):
        # Trial indices are hashed as one uint32 word each.
        with pytest.raises(ValueError, match="count must be <= 2\\^32"):
            run_khinchine_suite(count=2**32 + 1)


class TestTrialStreams:
    """Block-seeded trial generators are numpy's default_rng((seed, i))."""

    # 1 to 5 uint32 words.
    SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 1, 3**100)
    # Around the seeding block boundary, and the largest index.
    INDICES = (0, 1, 2, 4095, 4096, 4097, 2**32 - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_words(self, seed):
        words = verify._seed_words(seed, np.array(self.INDICES))
        for i, row in zip(self.INDICES, words):
            expected = np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
            assert row.dtype == np.uint64
            assert row.tolist() == expected.tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_draws(self, seed):
        rngs = list(verify._trial_rngs(seed, 4098))
        assert len(rngs) == 4098
        for i in (0, 1, 4095, 4096, 4097):
            expected = np.random.default_rng((seed, i))
            assert rngs[i].bit_generator.state == expected.bit_generator.state
            assert rngs[i].standard_normal(3).tolist() == expected.standard_normal(3).tolist()
            assert rngs[i].integers(0, 2, size=8).tolist() == expected.integers(0, 2, size=8).tolist()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            run_khinchine_suite(count=1, seed=-1)

    def test_search_restarts_bound(self):
        with pytest.raises(ValueError, match="restarts"):
            search_extremal(2, 2, restarts=2**32 + 1)


class TestBlockedBhRatios:
    """Blocked bh ratios are bh_lhs / sup_norm_exact, bit for bit."""

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 2), (2, 5)])
    def test_equal_to_per_form_ratio(self, m, n):
        rng = np.random.default_rng(500 * m + n)
        signs = rng.integers(0, 2, size=(500,) + (n,) * m) * 2.0 - 1.0
        gaussian = rng.standard_normal((500,) + (n,) * m)
        for tensors in (signs, gaussian):
            ratios = verify._bh_ratios(tensors)
            expected = []
            for t in tensors:
                form = MultilinearForm(t)
                expected.append(bh_lhs(form) / sup_norm_exact(form))
            assert ratios.tolist() == expected

    @pytest.mark.parametrize("m,n,count", [(2, 2, 2500), (3, 3, 300), (2, 5, 60)])
    def test_report_equals_per_trial_loop(self, m, n, count):
        # The report a trial-at-a-time loop on default_rng((seed, i)) gives,
        # across several bh blocks.
        seed = 4
        bound = constant(SchemeId.NEW_REAL, m).value
        worst_margin, max_ratio = math.inf, 0.0
        for i in range(count):
            rng = np.random.default_rng((seed, i))
            if i % 2 == 0:
                tensor = rng.integers(0, 2, size=(n,) * m) * 2.0 - 1.0
            else:
                tensor = rng.standard_normal((n,) * m)
            form = MultilinearForm(tensor)
            ratio = bh_lhs(form) / sup_norm_exact(form)
            worst_margin = min(worst_margin, bound - ratio)
            max_ratio = max(max_ratio, ratio)
        report = run_bh_trials(m, n, count, seed)
        assert (report.worst_margin, report.max_ratio) == (worst_margin, max_ratio)

    def test_memory_is_bounded_by_blocks(self, monkeypatch):
        import tracemalloc

        # The stacked draws are under test, not the kernel: a cheap norm
        # keeps the 3000 (4,6) trials fast.
        monkeypatch.setattr(
            verify, "sup_norm_exact", lambda form: float(np.abs(form.coeffs).sum())
        )
        tracemalloc.start()
        try:
            run_bh_trials(4, 6, count=3000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One unblocked stack of these draws alone is 3000 * 6^4 * 8 B = 31 MB.
        assert peak < 8 * 2**20


def _draw(rng, i, shape):
    """A suite's tensor draw: signs at even trial indices, normals at odd."""
    if i % 2 == 0:
        return rng.integers(0, 2, size=shape) * 2.0 - 1.0
    return rng.standard_normal(shape)


def _khinchine_trial(rng, i):
    a = rng.standard_normal(int(rng.integers(1, 13)))
    res = check_khinchine(a, (1.0, 4.0 / 3.0, 1.5, 1.8, 2.0)[i % 5])
    margin = min(res["mid"] - res["lhs"], res["rhs"] - res["mid"])
    return margin, max(res["lhs"] / res["mid"], res["mid"] / res["rhs"]), res["holds"]


def _kcc_trial(rng, i):
    a = rng.standard_normal(int(rng.integers(1, 13)))
    pairs = ((2.0, 4.0 / 3.0), (2.0, 1.0), (1.5, 1.0), (4.0 / 3.0, 4.0 / 3.0), (1.8, 1.5))
    res = check_kcc(a, *pairs[i % 5])
    return res["rhs"] - res["lhs"], res["lhs"] / res["rhs"], res["holds"]


def _blei_trial(rng, i):
    mat = rng.uniform(0.05, 2.0, size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    q = 1.0 + rng.uniform(0.2, 3.0)
    s1 = 1.0 + rng.uniform(0.0, 0.95) * (q - 1.0)
    s2 = 1.0 + rng.uniform(0.0, 0.95) * (q - 1.0)
    res = check_blei(mat, q, s1, s2)
    return res["rhs"] - res["lhs"], res["lhs"] / res["rhs"], res["holds"]


def _tensor_trial(rng, i):
    m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    res = check_rademacher_tensor(_draw(rng, i, (n,) * m), (1.0, 4.0 / 3.0, 1.5, 2.0)[i % 4])
    return res["rhs"] - res["lhs"], res["lhs"] / res["rhs"], res["holds"]


def _summing_trial(rng, i, m=3, n=2, j=2):
    form = MultilinearForm(_draw(rng, i, (n,) * m))
    families = []
    for _ in range(m):
        mat = rng.standard_normal((j, n))
        families.append(mat / weak_l1_norm(mat))
    ratio = multiple_summing_lhs(form, families, float(bh_exponent(m))) / sup_norm_exact(form)
    bound = constant(SchemeId.NEW_REAL, m).value
    return bound - ratio, ratio, ratio <= bound * (1.0 + verify.REL_SLACK)


class TestOneTrialProtocol:
    """Every suite's report is a plain loop over default_rng((seed, i))."""

    # khinchine's count crosses a seeding block.
    @pytest.mark.parametrize(
        "suite,count,run,trial",
        [
            ("khinchine", 4100, lambda c, s: run_khinchine_suite(count=c, seed=s), _khinchine_trial),
            ("kcc", 300, lambda c, s: run_kcc_suite(count=c, seed=s), _kcc_trial),
            ("blei", 300, lambda c, s: run_blei_suite(count=c, seed=s), _blei_trial),
            ("tensor", 300, lambda c, s: run_tensor_suite(count=c, seed=s), _tensor_trial),
            ("summing", 300, lambda c, s: check_multiple_summing(3, 2, 2, c, s), _summing_trial),
        ],
    )
    def test_report_equals_per_trial_loop(self, suite, count, run, trial):
        seed = 11
        failures, worst_margin, max_ratio = 0, math.inf, 0.0
        for i in range(count):
            margin, ratio, holds = trial(np.random.default_rng((seed, i)), i)
            failures += not holds
            worst_margin = min(worst_margin, margin)
            max_ratio = max(max_ratio, ratio)
        expected = verify.VerificationReport(suite, count, failures, worst_margin, max_ratio, seed)
        assert run(count, seed) == expected

    @pytest.mark.parametrize("run", [run_khinchine_suite, run_kcc_suite])
    def test_failing_theorem_trial_is_counted_and_dumps_nothing(self, monkeypatch, run):
        # B_p = 1/2 is below every A_p >= 1/sqrt(2), so every trial fails.
        monkeypatch.setattr(verify, "khinchine_B", lambda p: 0.5)
        dumped = []
        monkeypatch.setattr(verify, "dump_form", lambda *args, **kwargs: dumped.append(args))
        report = run(count=40, seed=2)
        assert report.failures == 40
        assert report.worst_margin < 0
        assert dumped == []

    def test_nan_ratio_is_skipped_and_not_a_failure(self, monkeypatch, tmp_path):
        real = verify._bh_ratios

        def nan_for_normals(tensors):
            ratios = real(tensors)
            ratios[~(np.abs(tensors) == 1.0).reshape(len(tensors), -1).all(axis=1)] = math.nan
            return ratios

        monkeypatch.setattr(verify, "_bh_ratios", nan_for_normals)
        # Blocks of 151 (2, 2) trials, an odd number: the draws' parity must
        # follow the trial index across blocks, not the row of a block.
        monkeypatch.setattr(verify, "_BH_BLOCK_COEFFS", 151 * 4)
        # Half the sign tensors reach sqrt(2), past the complex bound 2/sqrt(pi).
        seed, count, scheme = 1, 400, SchemeId.DSP_COMPLEX
        report = run_bh_trials(2, 2, count, seed, scheme=scheme, failure_dir=tmp_path)
        bound = constant(scheme, 2).value
        tensors, ratios = {}, {}
        for i in range(0, count, 2):
            tensors[i] = _draw(np.random.default_rng((seed, i)), i, (2, 2))
            form = MultilinearForm(tensors[i])
            ratios[i] = bh_lhs(form) / sup_norm_exact(form)
        failing = [i for i, r in ratios.items() if r > bound * (1.0 + verify.REL_SLACK)]
        assert report.max_ratio == max(ratios.values())
        assert report.worst_margin == min(bound - r for r in ratios.values())
        assert report.failures == len(failing) > 0
        dumps = sorted(tmp_path.iterdir())
        assert sorted(path.name for path in dumps) == sorted(f"bh_failure_{i}.json" for i in failing)
        for path in dumps:
            i = int(path.stem.rsplit("_", 1)[1])
            assert np.array_equal(forms.load_form(path).coeffs, tensors[i])


def test_import_leaves_numpy_random_unloaded():
    import os
    import subprocess
    import sys

    code = (
        "import sys, numpy; before = 'numpy.random' in sys.modules; "
        "import bhbounds; print(before, 'numpy.random' in sys.modules)"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy loads numpy.random on import itself")
    assert out == ["False", "False"]
