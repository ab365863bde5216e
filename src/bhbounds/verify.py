"""Numerical verification harnesses for the inequalities behind the bounds.

Each ``check_*`` function tests one inequality instance by exact
enumeration of Rademacher signs (no sampling error on the probabilistic
side); the ``run_*_suite`` drivers draw randomized instances and aggregate
them into a VerificationReport.  ``search_extremal`` hill-climbs over sign
tensors for certified lower bounds on the arity-m constants.

Randomness discipline: every trial owns a generator seeded by
(master seed, trial index), so reports are reproducible bit-for-bit and
trials could be distributed without changing any result.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import SchemeId, constant
from .exponents import BleiParams, bh_exponent, blei_f, blei_w
from .forms import (
    BudgetExceededError,
    MultilinearForm,
    bh_lhs,
    dump_form,
    enumeration_budget_bits,
    multiple_summing_lhs,
    sup_norm_exact,
    sup_norm_lower,
    weak_l1_norm,
)
from .khinchine import khinchine_A, khinchine_A2r, khinchine_B

__all__ = [
    "REL_SLACK",
    "EXPECTATION_MAX_BITS",
    "VerificationReport",
    "SearchState",
    "rademacher_sums",
    "rademacher_moment",
    "check_khinchine",
    "check_kcc",
    "check_blei",
    "check_rademacher_tensor",
    "run_bh_trials",
    "check_multiple_summing",
    "search_extremal",
    "run_khinchine_suite",
    "run_kcc_suite",
    "run_blei_suite",
    "run_tensor_suite",
]

#: Relative slack applied to every inequality check.
REL_SLACK = 1e-10

#: Exact expectations enumerate at most 2^20 sign patterns.
EXPECTATION_MAX_BITS = 20


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate outcome of one randomized suite.

    ``worst_margin`` is the minimum over trials of (rhs - lhs), or of
    (bound - ratio) for the ratio-style suites; ``max_ratio`` is the
    largest lhs/rhs (or certified ratio) seen.  ``uncertified`` marks
    reports whose norms came from the heuristic ascent rather than exact
    enumeration.
    """

    suite: str
    trials: int
    failures: int
    worst_margin: float
    max_ratio: float
    seed: int
    uncertified: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), allow_nan=False)


@dataclass(frozen=True)
class SearchState:
    """Best sign tensor found by hill climbing, with its certified ratio."""

    tensor: MultilinearForm
    ratio: float
    iterations: int
    restarts: int


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def rademacher_sums(a: Sequence[float]) -> np.ndarray:
    """All 2^N values of sum_n a_n s_n over sign patterns s.

    Built by incremental doubling: each coefficient extends the previous
    partial sums by +-a_n, so the full table costs O(2^N) adds.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a coefficient vector, got shape {arr.shape}")
    if arr.size > EXPECTATION_MAX_BITS:
        raise ValueError(
            f"N = {arr.size} is over the exact-expectation cap of {EXPECTATION_MAX_BITS}"
        )
    sums = np.zeros(1)
    for c in arr:
        sums = np.concatenate([sums + c, sums - c])
    return sums


def rademacher_moment(a: Sequence[float], p: float) -> float:
    """Exact (E |sum a_n r_n|^p)^(1/p) over the 2^N sign patterns."""
    sums = rademacher_sums(a)
    return float(np.mean(np.abs(sums) ** p) ** (1.0 / p))


def check_khinchine(a: Sequence[float], p: float) -> dict:
    """Two-sided moment comparison A_p ||a||_2 <= mid <= B_p ||a||_2."""
    if not 0.0 < p <= 2.0:
        raise ValueError(f"p must be in (0, 2], got {p}")
    arr = np.asarray(a, dtype=float)
    l2 = float(np.linalg.norm(arr))
    mid = rademacher_moment(arr, p)
    lhs = khinchine_A(p).value * l2
    rhs = khinchine_B(p) * l2
    holds = lhs <= mid * (1.0 + REL_SLACK) and mid <= rhs * (1.0 + REL_SLACK)
    return {"lhs": lhs, "mid": mid, "rhs": rhs, "holds": holds}


def check_kcc(a: Sequence[float], p: float, r: float) -> dict:
    """Moment comparison (E|S|^p)^(1/p) <= B_p A_r^{-1} (E|S|^r)^(1/r)."""
    if not 0.0 < r <= p <= 2.0:
        raise ValueError(f"need 0 < r <= p <= 2, got p={p}, r={r}")
    lhs = rademacher_moment(a, p)
    rhs = khinchine_B(p) / khinchine_A(r).value * rademacher_moment(a, r)
    holds = lhs <= rhs * (1.0 + REL_SLACK)
    return {"lhs": lhs, "rhs": rhs, "holds": holds}


def check_blei(matrix: Sequence[Sequence[float]], q: float, s1: float, s2: float) -> dict:
    """Mixed-norm bound on a positive matrix.

    lhs is the w(s1,s2)-power sum; rhs multiplies the row and column
    mixed norms with outer exponents f(s1,s2)/s1 and f(s2,s1)/s2.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {mat.shape}")
    if not np.all(mat > 0.0):
        raise ValueError("matrix entries must be strictly positive")
    params = BleiParams(q, s1, s2)
    w = float(blei_w(params))
    f12 = float(blei_f(params))
    f21 = float(blei_f(params, reverse=True))
    lhs = float((mat**w).sum() ** (1.0 / w))
    row_norms = (mat**q).sum(axis=1) ** (1.0 / q)
    col_norms = (mat**q).sum(axis=0) ** (1.0 / q)
    rhs = float(
        (row_norms**s1).sum() ** (f12 / s1) * (col_norms**s2).sum() ** (f21 / s2)
    )
    holds = lhs <= rhs * (1.0 + REL_SLACK)
    return {"lhs": lhs, "rhs": rhs, "holds": holds}


def _chaos_values(tensor: np.ndarray) -> np.ndarray:
    """Contractions of a tensor with every tuple of sign vectors.

    Slot k is replaced by all 2^N sign choices via doubling; the result
    has one axis of length 2^N per slot, 2^(mN) values in total.
    """
    values = tensor
    for _ in range(tensor.ndim):
        expanded = np.zeros(values.shape[1:] + (1,))
        for row in values:
            expanded = np.concatenate(
                [expanded + row[..., None], expanded - row[..., None]], axis=-1
            )
        values = expanded
    return values.ravel()


def check_rademacher_tensor(Y: Sequence, r: float) -> dict:
    """Frobenius norm against the A_{2,r}^m-weighted chaos r-th moment."""
    tensor = np.asarray(Y, dtype=float)
    m = tensor.ndim
    n = tensor.shape[0]
    if any(s != n for s in tensor.shape):
        raise ValueError(f"tensor must be a hypercube, got shape {tensor.shape}")
    if not 1.0 <= r <= 2.0:
        raise ValueError(f"r must be in [1, 2], got {r}")
    if m * n > EXPECTATION_MAX_BITS:
        raise ValueError(
            f"m*N = {m * n} is over the exact-expectation cap of {EXPECTATION_MAX_BITS}"
        )
    lhs = float(np.linalg.norm(tensor.ravel()))
    values = _chaos_values(tensor)
    moment = float(np.mean(np.abs(values) ** r) ** (1.0 / r))
    rhs = khinchine_A2r(r) ** m * moment
    holds = lhs <= rhs * (1.0 + REL_SLACK)
    return {"lhs": lhs, "rhs": rhs, "holds": holds}


def _draw_form(rng: np.random.Generator, m: int, n: int, sign_entries: bool) -> MultilinearForm:
    shape = (n,) * m
    if sign_entries:
        coeffs = rng.integers(0, 2, size=shape) * 2.0 - 1.0
    else:
        coeffs = rng.standard_normal(shape)
    return MultilinearForm(coeffs)


def _dump_failure(
    failure_dir: Optional[Path], suite: str, index: int, form: MultilinearForm, seed: int
) -> None:
    if failure_dir is None:
        return
    failure_dir = Path(failure_dir)
    failure_dir.mkdir(parents=True, exist_ok=True)
    dump_form(form, failure_dir / f"{suite}_failure_{index}.json", seed=seed)


def _run(
    suite: str,
    count: int,
    seed: int,
    trial: Callable[[np.random.Generator, int], tuple],
    failure_dir: Optional[Path] = None,
    uncertified: bool = False,
) -> VerificationReport:
    """Run ``count`` trials, each on its own (seed, index) generator.

    ``trial(rng, i)`` returns (margin, ratio, holds, form or None).  The
    report keeps the minimum margin and the maximum ratio; each trial that
    does not hold is counted and its form dumped to ``failure_dir``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    failures = 0
    worst_margin = np.inf
    max_ratio = 0.0
    for i in range(count):
        margin, ratio, holds, form = trial(_trial_rng(seed, i), i)
        worst_margin = min(worst_margin, margin)
        max_ratio = max(max_ratio, ratio)
        if not holds:
            failures += 1
            _dump_failure(failure_dir, suite, i, form, seed)
    return VerificationReport(
        suite=suite,
        trials=count,
        failures=failures,
        worst_margin=float(worst_margin),
        max_ratio=float(max_ratio),
        seed=seed,
        uncertified=uncertified,
    )


def _lhs_rhs(res: dict) -> tuple[float, float, bool, None]:
    """Margin, ratio and outcome of a one-sided ``check_*`` result."""
    return res["rhs"] - res["lhs"], res["lhs"] / res["rhs"], res["holds"], None


def run_bh_trials(
    m: int,
    N: int,
    count: int,
    seed: int,
    scheme: SchemeId = SchemeId.NEW_REAL,
    norm_mode: str = "exact",
    failure_dir: Optional[Path] = None,
) -> VerificationReport:
    """Random coefficient-vs-operator-norm trials against a scheme bound.

    Half the tensors have +-1 entries (they probe extremal behavior),
    half standard normal entries.  In exact mode each ratio is certified;
    heuristic mode marks the whole report uncertified, and its "failures"
    are not counterexamples.
    """
    if norm_mode not in ("exact", "heuristic"):
        raise ValueError(f"norm_mode must be 'exact' or 'heuristic', got {norm_mode!r}")
    if norm_mode == "exact":
        bits = (m - 1) * N
        budget = enumeration_budget_bits()
        if bits > budget:
            raise BudgetExceededError(
                f"(m-1)*N = {bits} sign bits exceed the budget of {budget}; "
                "certified trials need the exact norm"
            )
    bound = constant(scheme, m).value

    def trial(rng, i):
        form = _draw_form(rng, m, N, sign_entries=i % 2 == 0)
        if norm_mode == "exact":
            norm = sup_norm_exact(form)
        else:
            norm = sup_norm_lower(form, restarts=8, seed=int(rng.integers(1 << 31)))
        ratio = bh_lhs(form) / norm
        # Negated '>' so that a NaN ratio is not counted as a failure.
        return bound - ratio, ratio, not ratio > bound * (1.0 + REL_SLACK), form

    return _run("bh", count, seed, trial, failure_dir, uncertified=norm_mode != "exact")


def check_multiple_summing(
    m: int,
    N: int,
    J: int,
    count: int,
    seed: int,
    scheme: SchemeId = SchemeId.NEW_REAL,
    failure_dir: Optional[Path] = None,
) -> VerificationReport:
    """Mixed sums over random weak-l1-normalized families vs the bound.

    Families are drawn Gaussian and divided by their weak-l1 norm, so the
    bound reduces to constant(scheme, m) times the exact operator norm.
    """
    p = float(bh_exponent(m))
    bound = constant(scheme, m).value

    def trial(rng, i):
        form = _draw_form(rng, m, N, sign_entries=i % 2 == 0)
        families = []
        for _ in range(m):
            mat = rng.standard_normal((J, N))
            families.append(mat / weak_l1_norm(mat))
        lhs = multiple_summing_lhs(form, families, p)
        ratio = lhs / sup_norm_exact(form)
        return bound - ratio, ratio, not ratio > bound * (1.0 + REL_SLACK), form

    return _run("summing", count, seed, trial, failure_dir)


def search_extremal(
    m: int, N: int, restarts: int = 8, iterations: int = 200, seed: int = 0
) -> SearchState:
    """Hill-climb over sign tensors for a large certified ratio.

    Proposes one random entry flip at a time and accepts only strict
    ratio increases, so the ratio sequence within a restart is strictly
    increasing and the walk terminates.  Deterministic given the seed.
    """
    if restarts < 1 or iterations < 0:
        raise ValueError("restarts must be >= 1 and iterations >= 0")
    best_form = None
    best_ratio = -np.inf
    total_iterations = 0
    for restart in range(restarts):
        rng = _trial_rng(seed, restart)
        signs = rng.integers(0, 2, size=(N,) * m) * 2.0 - 1.0
        form = MultilinearForm(signs)
        ratio = bh_lhs(form) / sup_norm_exact(form)
        for _ in range(iterations):
            total_iterations += 1
            idx = tuple(rng.integers(0, N, size=m))
            flipped = signs.copy()
            flipped[idx] = -flipped[idx]
            candidate = MultilinearForm(flipped)
            candidate_ratio = bh_lhs(candidate) / sup_norm_exact(candidate)
            if candidate_ratio > ratio:
                signs, form, ratio = flipped, candidate, candidate_ratio
        if ratio > best_ratio:
            best_form, best_ratio = form, ratio
    return SearchState(
        tensor=best_form,
        ratio=float(best_ratio),
        iterations=total_iterations,
        restarts=restarts,
    )


def run_khinchine_suite(
    count: int = 100,
    max_n: int = 12,
    exponents: Sequence[float] = (1.0, 4.0 / 3.0, 1.5, 1.8, 2.0),
    seed: int = 0,
) -> VerificationReport:
    """Randomized two-sided Khinchine checks with exact expectations."""

    def trial(rng, i):
        n = int(rng.integers(1, max_n + 1))
        a = rng.standard_normal(n)
        p = exponents[i % len(exponents)]
        res = check_khinchine(a, p)
        margin = min(res["mid"] - res["lhs"], res["rhs"] - res["mid"])
        ratio = max(res["lhs"] / res["mid"], res["mid"] / res["rhs"])
        return margin, ratio, res["holds"], None

    return _run("khinchine", count, seed, trial)


def run_kcc_suite(
    count: int = 100,
    max_n: int = 12,
    pairs: Sequence[tuple[float, float]] = (
        (2.0, 4.0 / 3.0),
        (2.0, 1.0),
        (1.5, 1.0),
        (4.0 / 3.0, 4.0 / 3.0),
        (1.8, 1.5),
    ),
    seed: int = 0,
) -> VerificationReport:
    """Randomized moment-comparison checks for exponent pairs r <= p."""

    def trial(rng, i):
        n = int(rng.integers(1, max_n + 1))
        a = rng.standard_normal(n)
        p, r = pairs[i % len(pairs)]
        return _lhs_rhs(check_kcc(a, p, r))

    return _run("kcc", count, seed, trial)


def run_blei_suite(
    count: int = 1000, max_rows: int = 8, max_cols: int = 8, seed: int = 0
) -> VerificationReport:
    """Random positive matrices and random valid exponent triples."""

    def trial(rng, i):
        rows = int(rng.integers(1, max_rows + 1))
        cols = int(rng.integers(1, max_cols + 1))
        mat = rng.uniform(0.05, 2.0, size=(rows, cols))
        q = 1.0 + rng.uniform(0.2, 3.0)
        s1 = 1.0 + rng.uniform(0.0, 0.95) * (q - 1.0)
        s2 = 1.0 + rng.uniform(0.0, 0.95) * (q - 1.0)
        return _lhs_rhs(check_blei(mat, q, s1, s2))

    return _run("blei", count, seed, trial)


def run_tensor_suite(count: int = 200, seed: int = 0) -> VerificationReport:
    """Random chaos-moment checks at small arity and dimension."""
    r_values = (1.0, 4.0 / 3.0, 1.5, 2.0)

    def trial(rng, i):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        if i % 2 == 0:
            tensor = rng.integers(0, 2, size=(n,) * m) * 2.0 - 1.0
        else:
            tensor = rng.standard_normal((n,) * m)
        r = r_values[i % len(r_values)]
        return _lhs_rhs(check_rademacher_tensor(tensor, r))

    return _run("tensor", count, seed, trial)
