import itertools
import math

import numpy as np
import pytest

from bhbounds.constants import SchemeId, constant
from bhbounds.forms import MultilinearForm, bh_lhs, sup_norm_exact
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

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            check_blei([[1.0]], 1.5, 1.5, 1.0)


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

    def test_heuristic_mode_is_uncertified(self):
        report = run_bh_trials(2, 2, 20, seed=4, norm_mode="heuristic")
        assert report.uncertified
        assert report.failures == 0

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

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="count"):
            run_khinchine_suite(count=0)

    def test_report_field_order(self):
        report = run_khinchine_suite(count=5, seed=1)
        keys = list(__import__("json").loads(report.to_json()).keys())
        assert keys == ["suite", "trials", "failures", "worst_margin", "max_ratio", "seed", "uncertified"]
