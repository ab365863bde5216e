"""Numerical verification harnesses for the inequalities behind the bounds.

Each ``check_*`` function tests one inequality instance by exact
enumeration of Rademacher signs (no sampling error on the probabilistic
side); the ``run_*_suite`` drivers draw randomized instances and aggregate
them into a VerificationReport.  ``search_extremal`` hill-climbs over sign
tensors for certified lower bounds on the arity-m constants.

Randomness discipline: every trial still owns a generator seeded by
(master seed, trial index), numpy's PCG64 on ``SeedSequence((seed, i))``,
so reports are reproducible bit-for-bit and trials could be distributed
without changing any result.  The generators are seeded per block of
trial indices: numpy's SeedSequence hash runs once per block as uint32
array arithmetic, and each trial's PCG64 takes its row of state words.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _bind
from .constants import SchemeId, constant
from .exponents import BleiParams, bh_exponent, blei_f, blei_w
from .forms import (
    MAX_TENSOR_ENTRIES,
    MultilinearForm,
    _OVERFLOW,
    _TINY,
    _UNDERFLOW,
    _exact_norm,
    _half_signs,
    _lp_sums,
    bh_ratio,
    check_budget,
    dump_form,
    sup_norm_exact,
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

# Trial indices seeded per vectorized SeedSequence pass, and search
# proposals drawn per ``integers`` call.
_SEED_BLOCK = 1 << 12

# A bh block holds at most this many coefficients, but at least one tensor;
# a search scores at most this many table entries, but one cell, per pass.
_BH_BLOCK_COEFFS = 1 << 12

# The seeding hashes each trial index as one uint32 word.
_MAX_TRIALS = 1 << 32

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate outcome of one randomized suite.

    ``worst_margin`` is the minimum over trials of (rhs - lhs), or of
    (bound - ratio) for the ratio-style suites; ``max_ratio`` is the
    largest lhs/rhs (or certified ratio) seen.  Every ratio rests on an
    exact norm, so ``uncertified`` is always false; it stays so that the
    report schema keeps its seven fields.
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


def _seed_words(seed: int, indices: np.ndarray) -> np.ndarray:
    """Rows of ``SeedSequence((seed, i)).generate_state(4, np.uint64)``.

    numpy's hash on uint32 arrays, one lane per index i < 2^32: the
    entropy is seed's little-endian 32-bit words followed by i, mixed
    into a 4-word pool, from which 8 words are drawn and paired into 4
    little-endian uint64 words.  The hash constant advances the same way
    in every lane, so it stays a Python int.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    lanes = len(indices)
    entropy = [np.full(lanes, seed >> shift & _MASK32, dtype=np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(indices.astype(np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(lanes, dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((lanes, 2 * _POOL_SIZE), dtype="<u4")
    const = _INIT_B
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, k] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


class _GivenState(np.random.bit_generator.ISeedSequence):
    """An ISeedSequence that hands its bit generator fixed state words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _trial_rngs(seed: int, count: int) -> Iterator[np.random.Generator]:
    """``Generator(PCG64(SeedSequence((seed, i))))`` for i in range(count).

    The seed words come from ``_seed_words``, _SEED_BLOCK indices at a
    time; ``count`` must not exceed _MAX_TRIALS.
    """
    for first in range(0, count, _SEED_BLOCK):
        indices = np.arange(first, min(first + _SEED_BLOCK, count))
        for words in _seed_words(seed, indices):
            yield np.random.Generator(np.random.PCG64(_GivenState(words)))


def rademacher_sums(a: Sequence[float]) -> np.ndarray:
    """All 2^N values of sum_n a_n s_n over sign patterns s, in O(2^N) adds."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a coefficient vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("coefficients must be finite")
    return _chaos_values(arr)


def _moment(values: np.ndarray, p: float) -> float:
    """(mean |v|^p)^(1/p) of a 1-D array: numpy's power, pairwise mean, scalar root;
    ValueError if the mean overflows, or is not a normal float for nonzero v."""
    with np.errstate(over="ignore"):  # refused below, without a warning first
        mean = np.mean(np.abs(values) ** p)
    if not math.isfinite(mean):
        raise ValueError(_OVERFLOW)
    if mean < _TINY and values.any():
        raise ValueError(_UNDERFLOW)
    return float(mean ** (1.0 / p))


def rademacher_moment(a: Sequence[float], p: float) -> float:
    """Exact (E |sum a_n r_n|^p)^(1/p) over the 2^N sign patterns, finite p > 0."""
    if not 0.0 < p < np.inf:
        raise ValueError(f"p must be > 0, got {p}")
    return _moment(rademacher_sums(a), p)


def _l2(arr: np.ndarray) -> float:
    """numpy's l2 norm; ValueError if a nonzero array's sum of squares is subnormal or 0."""
    with np.errstate(over="ignore"):  # an infinite norm is refused by _holds
        norm = float(np.linalg.norm(arr))
    if norm < math.sqrt(_TINY) and arr.any():
        raise ValueError(_UNDERFLOW)
    return norm


def _holds(lhs: float, rhs: float) -> bool:
    """lhs <= rhs within REL_SLACK; ValueError when a side is not finite, or is
    not a normal float beside a nonzero side (both are norms of one input)."""
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(_OVERFLOW)
    if min(lhs, rhs) < _TINY and max(lhs, rhs) > 0.0:
        raise ValueError(_UNDERFLOW)
    return lhs <= rhs * (1.0 + REL_SLACK)


def check_khinchine(a: Sequence[float], p: float) -> dict:
    """Two-sided moment comparison A_p ||a||_2 <= mid <= B_p ||a||_2."""
    if not 0.0 < p <= 2.0:
        raise ValueError(f"p must be in (0, 2], got {p}")
    arr = np.asarray(a, dtype=float)
    sums = rademacher_sums(arr)
    l2 = _l2(arr)
    mid = _moment(sums, p)
    lhs = khinchine_A(p).value * l2
    rhs = khinchine_B(p) * l2
    return {"lhs": lhs, "mid": mid, "rhs": rhs, "holds": _holds(lhs, mid) and _holds(mid, rhs)}


def check_kcc(a: Sequence[float], p: float, r: float) -> dict:
    """Moment comparison (E|S|^p)^(1/p) <= B_p A_r^{-1} (E|S|^r)^(1/r)."""
    if not 0.0 < r <= p <= 2.0:
        raise ValueError(f"need 0 < r <= p <= 2, got p={p}, r={r}")
    sums = rademacher_sums(a)
    lhs = _moment(sums, p)
    rhs = khinchine_B(p) / khinchine_A(r).value * _moment(sums, r)
    return {"lhs": lhs, "rhs": rhs, "holds": _holds(lhs, rhs)}


def check_blei(matrix: Sequence[Sequence[float]], q: float, s1: float, s2: float) -> dict:
    """Mixed-norm bound on a positive matrix.

    lhs is the w(s1,s2)-power sum; rhs multiplies the row and column
    mixed norms with outer exponents f(s1,s2)/s1 and f(s2,s1)/s2.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"expected a matrix, got shape {mat.shape}")
    if not np.all(mat > 0.0):
        raise ValueError("matrix entries must be strictly positive")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    params = BleiParams(q, s1, s2)
    w = float(blei_w(params))
    f12 = float(blei_f(params))
    f21 = float(blei_f(params, reverse=True))
    lhs = _lp_sums(mat[None], w)[0]
    with np.errstate(over="ignore"):  # an infinite rhs is refused by _holds
        powers = mat**q
        row_sums, col_sums = powers.sum(axis=1), powers.sum(axis=0)
        # Positive entries: a sum that is not a normal float has underflowed,
        # and the later sums, of s1 and s2 powers of the q-norms (s < q), cannot.
        if min(row_sums.min(), col_sums.min()) < _TINY:
            raise ValueError(_UNDERFLOW)
        row_norms, col_norms = row_sums ** (1.0 / q), col_sums ** (1.0 / q)
        rhs = float((row_norms**s1).sum() ** (f12 / s1) * (col_norms**s2).sum() ** (f21 / s2))
    return {"lhs": lhs, "rhs": rhs, "holds": _holds(lhs, rhs)}


def _chaos_values(tensor: np.ndarray) -> np.ndarray:
    """Contractions of a tensor with every tuple of sign vectors.

    Each slot in turn becomes a last axis of its 2^N signed sums, built by
    doubling (each row extends the partial sums by +-row, O(2^N) adds): 2^(mN)
    values in all, which for a vector are its Rademacher sums.  ValueError,
    before anything is allocated, when the m*N sign bits pass EXPECTATION_MAX_BITS.
    """
    bits = tensor.ndim * tensor.shape[0]
    if bits > EXPECTATION_MAX_BITS:
        raise ValueError(f"m*N = {bits} is over the exact-expectation cap of "
                         f"{EXPECTATION_MAX_BITS}")
    values = tensor
    # An overflowed sum is inf, and inf - inf in a later slot NaN: _moment
    # refuses either.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(tensor.ndim):
            sums = np.zeros(values.shape[1:] + (1,))
            for row in values:
                sums = np.concatenate([sums + row[..., None], sums - row[..., None]], axis=-1)
            values = sums
    return values.ravel()


def check_rademacher_tensor(Y: Sequence, r: float) -> dict:
    """Frobenius norm against the A_{2,r}^m-weighted chaos r-th moment.

    Y is validated as a ``MultilinearForm``'s coefficient tensor.
    """
    form = MultilinearForm(Y)
    m, tensor = form.m, form.coeffs
    if not 1.0 <= r <= 2.0:
        raise ValueError(f"r must be in [1, 2], got {r}")
    lhs = _l2(tensor.ravel())
    rhs = khinchine_A2r(r) ** m * _moment(_chaos_values(tensor), r)
    return {"lhs": lhs, "rhs": rhs, "holds": _holds(lhs, rhs)}


def _draw_tensor(rng: np.random.Generator, m: int, n: int, sign_entries: bool) -> np.ndarray:
    """An (n,)*m tensor of uniform +-1 entries, or of standard normal ones."""
    shape = (n,) * m
    if sign_entries:
        return rng.integers(0, 2, size=shape) * 2.0 - 1.0
    return rng.standard_normal(shape)


def _dump_failure(
    failure_dir: Optional[Path], suite: str, index: int, form: MultilinearForm, seed: int
) -> None:
    if failure_dir is not None:
        Path(failure_dir).mkdir(parents=True, exist_ok=True)
        name = f"{suite}_m{form.m}_n{form.N}_failure_{index}.json"
        dump_form(form, Path(failure_dir) / name, seed=seed)


def _run(
    suite: str,
    count: int,
    seed: int,
    trials: Callable[[Iterator[np.random.Generator]], Iterable[tuple[float, float, bool]]],
) -> VerificationReport:
    """Run ``count`` trials, each on its own (seed, index) generator.

    ``trials(rngs)`` yields one ``(margin, ratio, holds)`` per trial, in
    index order, taking each trial's generator in turn from ``rngs``; each
    ``holds`` is a ``_holds`` verdict.  The report counts the trials that do
    not hold and keeps the minimum margin and the maximum ratio.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > _MAX_TRIALS:
        raise ValueError(f"count must be <= 2^32, got {count}")
    failures, worst_margin, max_ratio = 0, math.inf, 0.0
    for margin, ratio, holds in trials(_trial_rngs(seed, count)):
        worst_margin = min(worst_margin, margin)
        max_ratio = max(max_ratio, ratio)
        failures += not holds
    return VerificationReport(suite, count, failures, float(worst_margin), float(max_ratio), seed)


def _each(trial: Callable[[np.random.Generator, int], tuple]) -> Callable:
    """``_run`` trials from ``trial(rng, i) -> (margin, ratio, holds)``."""
    return lambda rngs: map(trial, rngs, itertools.count())


def _bh_ratios(tensors: np.ndarray) -> np.ndarray:
    """``bh_lhs(T) / sup_norm_exact(T)`` for each T of a (B, N, ..., N) stack:
    one exact-norm call per tensor, one ``_lp_sums`` call for the stack."""
    norms = [sup_norm_exact(MultilinearForm(t)) for t in tensors]
    return np.array(_lp_sums(tensors, float(bh_exponent(tensors.ndim - 1)))) / norms


def _lhs_rhs(res: dict) -> tuple[float, float, bool]:
    """The ``_run`` trial of a one-sided ``check_*`` result: rhs - lhs, lhs / rhs
    and its ``_holds`` verdict."""
    return res["rhs"] - res["lhs"], res["lhs"] / res["rhs"], res["holds"]


def _ratio_trials(
    suite: str, m: int, n: int, count: int, seed: int, scheme: SchemeId,
    failure_dir: Optional[Path], draw: Callable[[np.random.Generator, int], np.ndarray],
) -> VerificationReport:
    """The bh ratio of each trial's (n,)*m tensor ``draw(rng, i)`` against a scheme
    bound by ``_holds``, a block of tensors at a time, after ``check_budget(m, n)``;
    a failing trial dumps its tensor to ``failure_dir`` under its index."""
    check_budget(m, n)
    bound = constant(scheme, m).value
    block_size = max(1, _BH_BLOCK_COEFFS // n**m)

    def trials(rngs):
        for first in range(0, count, block_size):
            tensors = np.empty((min(block_size, count - first),) + (n,) * m)
            for j, rng in enumerate(itertools.islice(rngs, len(tensors))):
                tensors[j] = draw(rng, first + j)
            for j, ratio in enumerate(_bh_ratios(tensors).tolist()):
                holds = _holds(ratio, bound)
                if not holds:
                    _dump_failure(failure_dir, suite, first + j, MultilinearForm(tensors[j]), seed)
                yield bound - ratio, ratio, holds

    return _run(suite, count, seed, trials)


def run_bh_trials(
    m: int, N: int, count: int, seed: int,
    scheme: SchemeId = SchemeId.NEW_REAL, failure_dir: Optional[Path] = None,
) -> VerificationReport:
    """Random coefficient-vs-operator-norm trials against a scheme bound.

    Half the tensors have +-1 entries (they probe extremal behavior),
    half standard normal entries.  Each ratio is certified by the exact
    norm; a shape past the bit budget is rejected before any draw.
    """
    return _ratio_trials("bh", m, N, count, seed, scheme, failure_dir,
                         lambda rng, i: _draw_tensor(rng, m, N, sign_entries=i % 2 == 0))


def check_multiple_summing(
    m: int, N: int, J: int, count: int, seed: int,
    scheme: SchemeId = SchemeId.NEW_REAL, failure_dir: Optional[Path] = None,
) -> VerificationReport:
    """``run_bh_trials`` on T composed with m Gaussian families of J vectors.

    Each trial's tensor is S[j1, ..., jm] = T(x^1_j1, ..., x^m_jm), with T
    drawn as in ``run_bh_trials``.  ||S|| <= ||T|| times the families'
    weak-l1 norms, so a trial that holds also holds the multiple-summing
    inequality.  (m, N) and then (m, J) pass ``check_budget`` before any draw.
    """
    check_budget(m, N)

    def draw(rng, i):
        values = _draw_tensor(rng, m, N, sign_entries=i % 2 == 0)
        for mat in [rng.standard_normal((J, N)) for _ in range(m)]:
            values = np.tensordot(values, mat, axes=(0, 1))
        return values

    return _ratio_trials("summing", m, J, count, seed, scheme, failure_dir, draw)


def search_extremal(
    m: int, N: int, restarts: int = 8, iterations: int = 200, seed: int = 0
) -> SearchState:
    """Hill-climb over sign tensors for a large certified ratio.

    Each restart draws a +-1 tensor and walks it: a proposal flips one
    random entry and is kept only if it strictly lowers the exact norm.
    Every entry stays +-1, so ``bh_lhs`` is the same for every tensor of the
    search and a lower norm, an integer of at most N^m <= 2^20, is exactly a
    higher ratio.  While S and P together hold at most MAX_TENSOR_ENTRIES
    entries, ``_walk_by_table`` scores each cell at most once per state from
    its pattern table, and past that ``_walk_by_kernel`` scores each proposal;
    both keep the flips of scoring one by one, so the walk changes with neither cap.

    The shape passes ``check_budget`` before any draw.  The first restart
    to reach the smallest norm wins, and ``bh_ratio`` certifies it.
    Deterministic given the seed.
    """
    check_budget(m, N)
    if not 1 <= restarts <= _MAX_TRIALS or iterations < 0:
        raise ValueError("restarts must be in [1, 2^32] and iterations >= 0")
    walk = _walk_by_kernel
    # S has N^(m-1) rows and P has N, each one entry per enumerated pattern.
    if (N ** (m - 1) + N) << ((m - 1) * (N - 1)) <= MAX_TENSOR_ENTRIES:
        walk = functools.partial(_walk_by_table, products=_sign_products(m, N))
    best_signs, best_norm = None, np.inf
    for rng in _trial_rngs(seed, restarts):
        signs = _draw_tensor(rng, m, N, sign_entries=True)
        norm = walk(signs, rng, iterations)
        if norm < best_norm:
            # Each restart draws a new array, so this one is never flipped again.
            best_signs, best_norm = signs, norm
    best = MultilinearForm(best_signs)
    return SearchState(best, bh_ratio(best), restarts * iterations, restarts)


def _sign_products(m: int, n: int) -> np.ndarray:
    """S: the (n^(m-1), 2^((m-1)(n-1))) sign products of the exact norm.

    Row r, for the first m-1 indices (i1, ..., i(m-1)) of a row-major
    tensor, holds s1[i1] * ... * s(m-1)[i(m-1)] for each kernel pattern,
    built uncached, so that the kernel's sign cache holds only its heads.
    """
    signs = _half_signs.__wrapped__(n).T
    return functools.reduce(np.kron, [signs] * (m - 1), np.ones((1, 1)))


def _walk_by_table(
    signs: np.ndarray, rng: np.random.Generator, iterations: int, products: np.ndarray
) -> float:
    """Walk ``signs`` in place, scoring proposals from the pattern table; returns its norm.

    With M = signs.reshape(-1, n) and S = ``products``, the norm is max_k
    R[k], R = sum_c |P[c]| over the rows of the pattern table P = M.T @ S.
    Flipping the entry ``old`` at row r, column c of M moves only P[c], by
    -2 * old * S[r], so a flip scores max(R - |P[c]| + |P[c] - 2 * old * S[r]|)
    with no new enumeration, exact on a +-1 tensor.  A cell is scored at most
    once per state: when a proposal's cell has no score, one pass scores the
    block of cells that holds it, at most _BH_BLOCK_COEFFS table entries (but
    at least one cell).  The first proposal that scores below the norm is
    kept and clears every score, so every score and kept flip is the
    one-by-one walk's, bit for bit.
    """
    m, n = signs.ndim, signs.shape[0]
    rows = signs.reshape(-1, n)
    sums = rows.T @ products
    mags = np.abs(sums)
    totals = mags.sum(axis=0)
    norm = float(np.maximum.reduce(totals))
    chunk = max(1, _BH_BLOCK_COEFFS // products.shape[1])
    scores = np.full(rows.size, -np.inf)  # -inf: no score in this state, below every norm
    for block_rows, block_cols in _proposal_cells(rng, n, m, iterations):
        flat = block_rows * n + block_cols
        start = 0
        while start < len(flat):
            start += int((scores[flat[start:]] < norm).argmax())
            cell = int(flat[start])
            if scores[cell] >= norm:  # no proposal left in the block scores below it
                break
            if scores[cell] == -np.inf:
                cells = np.arange(cell - cell % chunk, rows.size)[:chunk]
                scores[cells] = _score_cells(rows, products, sums, mags, totals, cells)
                continue
            r, c = divmod(cell, n)
            rows[r, c] = -rows[r, c]
            sums[c] += 2.0 * rows[r, c] * products[r]
            totals += np.abs(sums[c]) - mags[c]
            np.abs(sums[c], out=mags[c])
            norm = float(scores[cell])
            scores.fill(-np.inf)
            start += 1
    return norm


def _score_cells(
    rows: np.ndarray, products: np.ndarray, sums: np.ndarray, mags: np.ndarray,
    totals: np.ndarray, cells: np.ndarray,
) -> np.ndarray:
    """The norm after flipping each of ``cells``, flat indices of ``rows``, alone."""
    r, c = np.divmod(cells, rows.shape[1])
    columns = sums[c] - (2.0 * rows[r, c])[:, None] * products[r]
    return np.maximum.reduce(totals - mags[c] + np.abs(columns), axis=1)


def _walk_by_kernel(signs: np.ndarray, rng: np.random.Generator, iterations: int) -> float:
    """Walk ``signs`` in place, scoring each proposal through the kernel; returns its norm."""
    norm = sup_norm_exact(MultilinearForm(signs))
    rows = signs.reshape(-1, signs.shape[0])
    for block_rows, block_cols in _proposal_cells(rng, rows.shape[1], signs.ndim, iterations):
        for r, c in zip(block_rows.tolist(), block_cols.tolist()):
            rows[r, c] = -rows[r, c]
            candidate = _exact_norm(signs)
            if candidate < norm:
                norm = candidate
            else:
                rows[r, c] = -rows[r, c]
    return norm


def _proposal_cells(
    rng: np.random.Generator, n: int, m: int, iterations: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the proposals' rows and columns of ``tensor.reshape(-1, n)``,
    one pair of arrays per draw block.

    Drawn _SEED_BLOCK proposals per call, in the stream of one
    ``integers(0, n, size=m)`` per proposal: numpy keeps a word's unused
    32-bit half in the generator's state.
    """
    place = n ** np.arange(m - 1, -1, -1)
    for first in range(0, iterations, _SEED_BLOCK):
        flat = rng.integers(0, n, size=(min(_SEED_BLOCK, iterations - first), m)) @ place
        yield flat // n, flat % n


def run_khinchine_suite(count: int = 100, seed: int = 0) -> VerificationReport:
    """Randomized two-sided Khinchine checks with exact expectations,
    on standard normal vectors of length 1 to 12."""
    exponents = (1.0, 4.0 / 3.0, 1.5, 1.8, 2.0)

    def trial(rng, i):
        a = rng.standard_normal(int(rng.integers(1, 13)))
        res = check_khinchine(a, exponents[i % len(exponents)])
        margin = min(res["mid"] - res["lhs"], res["rhs"] - res["mid"])
        ratio = max(res["lhs"] / res["mid"], res["mid"] / res["rhs"])
        return margin, ratio, res["holds"]

    return _run("khinchine", count, seed, _each(trial))


def run_kcc_suite(count: int = 100, seed: int = 0) -> VerificationReport:
    """Randomized moment-comparison checks for exponent pairs r <= p,
    on standard normal vectors of length 1 to 12."""
    pairs = ((2.0, 4.0 / 3.0), (2.0, 1.0), (1.5, 1.0), (4.0 / 3.0, 4.0 / 3.0), (1.8, 1.5))

    def trial(rng, i):
        a = rng.standard_normal(int(rng.integers(1, 13)))
        return _lhs_rhs(check_kcc(a, *pairs[i % len(pairs)]))

    return _run("kcc", count, seed, _each(trial))


def run_blei_suite(count: int = 1000, seed: int = 0) -> VerificationReport:
    """Random positive matrices, 1 to 8 rows by 1 to 8 columns, and
    random valid exponent triples."""

    def trial(rng, i):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        mat = rng.uniform(0.05, 2.0, size=(rows, cols))
        q = 1.0 + rng.uniform(0.2, 3.0)
        s1 = 1.0 + rng.uniform(0.0, 0.95) * (q - 1.0)
        s2 = 1.0 + rng.uniform(0.0, 0.95) * (q - 1.0)
        return _lhs_rhs(check_blei(mat, q, s1, s2))

    return _run("blei", count, seed, _each(trial))


def run_tensor_suite(count: int = 200, seed: int = 0) -> VerificationReport:
    """Random chaos-moment checks at small arity and dimension."""
    r_values = (1.0, 4.0 / 3.0, 1.5, 2.0)

    def trial(rng, i):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        tensor = _draw_tensor(rng, m, n, sign_entries=i % 2 == 0)
        r = r_values[i % len(r_values)]
        return _lhs_rhs(check_rademacher_tensor(tensor, r))

    return _run("tensor", count, seed, _each(trial))


# Last, so the package holds every public name however this module was imported.
_bind(globals())
