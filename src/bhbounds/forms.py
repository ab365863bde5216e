"""Dense real m-linear forms on the sup-norm cube, and their norms.

A form is its coefficient tensor T[i1, ..., im] of shape (N,)*m, stored
dense and row-major (first index slowest).  The operator norm over the
sup-norm unit ball is attained at sign vectors, and linearity in the last
slot collapses its maximization to an l1 sum, so the exact norm is

    max over s in {-1,+1}^((m-1)N) of  sum_{im} | sum_{i1..i(m-1)} T[..] s.. |

Negating one slot's signs negates every value, which the outer abs
undoes, so fixing s[0] = +1 in each slot leaves 2^((m-1)(N-1)) patterns
to enumerate.  ``check_budget`` is the one place that decides whether a
shape may be enumerated: m and N must be at least 1, those (m-1)*(N-1)
sign bits must not exceed the fixed budget DEFAULT_BUDGET_BITS (24), m
must not exceed 31, and its N^m entries must not exceed
MAX_TENSOR_ENTRIES (2^20).  Past them, ``sup_norm_lower`` gives a
certified-from-below estimate by alternating sign ascent.

In matrix form, with M = T.reshape(-1, N) and S the sign-product rows of
``_sign_products`` (S[r, k] is the product of pattern k's signs at the
first m-1 indices of row r), the norm is max_k R[k], where
R = sum_c |P[c]| over the rows of the pattern table P = M.T @ S.
Changing the entry ``old`` at row r, column c of M to ``new`` moves only
P[c], by (new - old) * S[r], so a one-entry change is scored as
max(R - |P[c]| + |P[c] + (new - old) * S[r]|) without a new enumeration;
``verify.search_extremal`` scores its sign flips (new = -old) that way.
On a tensor of integers whose absolute sum is below 2^53 every such sum
is exact, so the table gives the kernel's norm bit for bit.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import _bind
from .exponents import bh_exponent

__all__ = [
    "DEFAULT_BUDGET_BITS",
    "MAX_TENSOR_ENTRIES",
    "BudgetExceededError",
    "check_budget",
    "MultilinearForm",
    "form_from_flat",
    "to_interchange",
    "from_interchange",
    "dump_form",
    "load_form",
    "evaluate",
    "sup_norm_exact",
    "sup_norm_lower",
    "bh_lhs",
    "bh_ratio",
]

DEFAULT_BUDGET_BITS = 24
MAX_TENSOR_ENTRIES = 1 << 20
# numpy 1.x arrays have at most 32 axes, and a block of trials adds one.
_MAX_ARITY = 31
_OVERFLOW = "a computed side is not finite: the inputs overflow the float range"
_UNDERFLOW = "a computed side of nonzero inputs is not a normal float: the inputs underflow it"
# The smallest normal double; a sum of nonzero terms below it has lost bits.
_TINY = float(np.finfo(float).tiny)


class BudgetExceededError(ValueError):
    """Sign enumeration would exceed the bit budget."""


def check_budget(m: int, N: int) -> None:
    """Raise BudgetExceededError unless an (m, N) shape may be enumerated.

    m and N must be at least 1 (a plain ValueError otherwise).  The
    (m-1)*(N-1) sign bits of the patterns the kernel visits must fit
    DEFAULT_BUDGET_BITS, m must be at most 31 (at N = 1 the bits alone
    would admit any m), and the N^m entries of its tensor must fit
    MAX_TENSOR_ENTRIES, so a shape is rejected before any tensor is drawn.
    """
    if m < 1 or N < 1:
        raise ValueError(f"m and N must be >= 1, got m={m}, N={N}")
    bits = (m - 1) * (N - 1)
    if bits > DEFAULT_BUDGET_BITS:
        raise BudgetExceededError(
            f"(m-1)*(N-1) = {bits} sign bits exceed the budget of {DEFAULT_BUDGET_BITS}"
        )
    if m > _MAX_ARITY:
        raise BudgetExceededError(f"m = {m} exceeds the arity cap of {_MAX_ARITY}")
    if N**m > MAX_TENSOR_ENTRIES:
        raise BudgetExceededError(
            f"N^m = {N**m} entries exceed the cap of {MAX_TENSOR_ENTRIES}"
        )


@dataclass(frozen=True)
class MultilinearForm:
    """Immutable dense coefficient tensor of an m-linear form on R^N."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim < 1:
            raise ValueError("coefficient tensor must have at least one axis")
        n = arr.shape[0]
        if n < 1:
            raise ValueError("dimension N must be >= 1")
        if arr.shape != (n,) * arr.ndim:
            raise ValueError(f"tensor must be a hypercube, got shape {arr.shape}")
        if arr.size > MAX_TENSOR_ENTRIES:
            raise ValueError(
                f"tensor has {arr.size} entries, over the {MAX_TENSOR_ENTRIES} cap"
            )
        if not np.isfinite(arr).all():
            raise ValueError("tensor entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def m(self) -> int:
        return self.coeffs.ndim

    @property
    def N(self) -> int:
        return self.coeffs.shape[0]


def form_from_flat(m: int, N: int, flat: Sequence[float]) -> MultilinearForm:
    """Build a form from a row-major flat coefficient list."""
    # Before N**m: a file's m or N could make that power a huge integer.
    if not 1 <= m <= _MAX_ARITY:
        raise ValueError(f"m must be between 1 and {_MAX_ARITY}, got m={m}")
    if not 1 <= N <= MAX_TENSOR_ENTRIES:
        raise ValueError(f"N must be between 1 and {MAX_TENSOR_ENTRIES}, got N={N}")
    arr = np.asarray(flat, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"coefficients must be flat, got shape {arr.shape}")
    if arr.size != N**m:
        raise ValueError(f"expected {N**m} coefficients for m={m}, N={N}, got {arr.size}")
    return MultilinearForm(arr.reshape((N,) * m))


def to_interchange(form: MultilinearForm, seed: Optional[int] = None) -> dict:
    """The tensor interchange document {m, N, coeffs, seed?}."""
    doc = {"m": form.m, "N": form.N, "coeffs": form.coeffs.ravel().tolist()}
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


def from_interchange(doc: dict) -> MultilinearForm:
    """Rebuild a form from an interchange document: a JSON object whose m
    and N are ints and whose coeffs is a flat list of ints and floats."""
    if type(doc) is not dict:
        raise ValueError(f"interchange document must be a JSON object, got {type(doc).__name__}")
    for field in ("m", "N", "coeffs"):
        if field not in doc:
            raise ValueError(f"interchange document lacks {field!r}")
    for field in ("m", "N"):
        if type(doc[field]) is not int:  # not a float, bool or string
            raise ValueError(f"interchange {field!r} must be an integer, got {doc[field]!r}")
    coeffs = doc["coeffs"]
    # Not a bool, string or nested list.
    if type(coeffs) is not list or any(type(c) not in (int, float) for c in coeffs):
        raise ValueError("interchange 'coeffs' must be a flat list of numbers")
    try:
        return form_from_flat(doc["m"], doc["N"], coeffs)
    except OverflowError:  # an int past the float range
        raise ValueError("interchange 'coeffs' must be within the float range") from None


def dump_form(form: MultilinearForm, path: Union[str, Path], seed: Optional[int] = None) -> None:
    Path(path).write_text(json.dumps(to_interchange(form, seed)))


def load_form(path: Union[str, Path]) -> MultilinearForm:
    return from_interchange(json.loads(Path(path).read_text()))


def evaluate(form: MultilinearForm, args: Sequence[Sequence[float]]) -> float:
    """Full contraction T(x1, ..., xm); multilinear in every slot."""
    if len(args) != form.m:
        raise ValueError(f"expected {form.m} argument vectors, got {len(args)}")
    v = form.coeffs
    for x in args:
        xa = np.asarray(x, dtype=float)
        if xa.shape != (form.N,):
            raise ValueError(f"argument vectors must have shape ({form.N},), got {xa.shape}")
        v = np.tensordot(xa, v, axes=(0, 0))
    return float(v)


# Elements in any one array the exact-norm kernel allocates (2^14 doubles,
# 128 KB), unless a single tensor row is longer: small enough to stay in
# cache.  Each level of its recursion (a slot, or one depth-first term)
# holds at most one such array.
_CAP = 1 << 14

# Unbounded: the kernel asks only for n with n * 2^(n-1) <= _CAP, so the
# cache holds at most 14 matrices.
@functools.lru_cache(maxsize=None)
def _half_signs(n: int) -> np.ndarray:
    """The 2^(n-1) sign rows of length n with s[0] = +1, read-only."""
    codes = np.arange(1, 1 << n, 2, dtype=np.int64)  # odd: bit 0 sets s[0] = +1
    signs = ((codes[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
    signs.flags.writeable = False
    return signs


def _sign_products(m: int, n: int) -> np.ndarray:
    """S: the (n^(m-1), 2^((m-1)(n-1))) sign products of the exact norm.

    Row r, for the first m-1 indices (i1, ..., i(m-1)) of a row-major
    tensor, holds s1[i1] * ... * s(m-1)[i(m-1)] for every pattern of the
    kernel (s[0] = +1 in each slot), as the Kronecker product of m-1
    copies of ``_half_signs(n).T``.  For m = 1 it is the 1x1 matrix [1].
    """
    rows = np.ones((1, 1))
    for _ in range(m - 1):
        rows = np.kron(rows, _half_signs(n).T)
    return rows


def _sup_over_signs(batch: np.ndarray, slots: int) -> float:
    """Max over sign vectors in ``slots`` slots of the l1 sum that remains.

    ``batch`` has shape (B, n, rest); axis 1 of each item is the slot to
    enumerate next.  Only vectors with s[0] = +1 are visited: flipping a
    whole slot negates every value exactly and the final abs undoes it.
    Each signed sum runs in index order: its first ``head`` terms in one
    matrix product, each later term added in turn, depth first over its
    sign.
    """
    count, n, rest = batch.shape
    head = min(n, max(1, (_CAP // rest).bit_length()))
    items = max(1, _CAP // (rest << (head - 1)))
    signs = _half_signs(head)
    best = 0.0
    for first in range(0, count, items):
        x = batch[first:first + items]
        partial = np.matmul(signs, x[:, :head] if head < n else x)
        best = max(best, _add_rows(partial, x, head, slots))
    return best


def _add_rows(partial: np.ndarray, x: np.ndarray, j: int, slots: int) -> float:
    """Add +-x[:, j], ..., +-x[:, n-1] to ``partial`` (overwritten), then reduce."""
    n, rest = x.shape[1:]
    if j < n:
        row = x[:, j:j + 1]
        best = _add_rows(partial + row, x, j + 1, slots)
        partial -= row
        return max(best, _add_rows(partial, x, j + 1, slots))
    if slots > 1:
        return _sup_over_signs(partial.reshape(-1, n, rest // n), slots - 1)
    np.abs(partial, out=partial)
    # The ufuncs themselves: .sum()/.max() wrappers cost a measurable share at N = 2.
    return float(np.maximum.reduce(np.add.reduce(partial, axis=2), axis=None))


def sup_norm_exact(form: MultilinearForm) -> float:
    """Exact operator norm by sign enumeration over the first m-1 slots.

    Enumerates the 2^((m-1)(N-1)) patterns with s[0] = +1 in each slot.
    Raises BudgetExceededError when the form's shape does not fit the
    24-bit budget of ``check_budget``; use ``sup_norm_lower`` there instead.
    """
    check_budget(form.m, form.N)
    return _exact_norm(form.coeffs)


def _exact_norm(coeffs: np.ndarray) -> float:
    """The kernel behind ``sup_norm_exact``, on a hypercube array whose
    shape the caller has already passed through ``check_budget``."""
    if coeffs.ndim == 1:
        return float(np.abs(coeffs).sum())
    return _sup_over_signs(coeffs.reshape(1, coeffs.shape[0], -1), coeffs.ndim - 1)


def _slot_coefficients(tensor: np.ndarray, signs: list, k: int) -> np.ndarray:
    """Coefficient vector of slot k with every other slot fixed."""
    v = tensor
    for j in reversed(range(len(signs))):
        if j == k:
            continue
        v = np.tensordot(v, signs[j], axes=(j, 0))
    return v


def sup_norm_lower(form: MultilinearForm, restarts: int = 8, seed: int = 0) -> float:
    """Alternating sign ascent to a local maximum; best of ``restarts``.

    Each pass frees one slot, sets its signs to the signs of that slot's
    coefficient vector (zero coefficients keep their current sign, which
    keeps the ascent monotone), and repeats to a fixed point.  The result
    never exceeds sup_norm_exact and is deterministic given the seed.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    m, n = form.m, form.N
    best = 0.0
    for _ in range(restarts):
        signs = [np.where(rng.random(n) < 0.5, -1.0, 1.0) for _ in range(m)]
        changed = True
        while changed:
            changed = False
            for k in range(m):
                g = _slot_coefficients(form.coeffs, signs, k)
                updated = np.where(g > 0.0, 1.0, np.where(g < 0.0, -1.0, signs[k]))
                if not np.array_equal(updated, signs[k]):
                    signs[k] = updated
                    changed = True
        best = max(best, evaluate(form, signs))
    return best


def _lp_sums(rows: np.ndarray, p: float) -> list:
    """(sum |x|^p)^(1/p) for each item x along axis 0 of ``rows``.

    Rounding: numpy's elementwise power; each item's powers summed pairwise in
    memory order, the same bits alone or in a stack; each root libm's pow on a
    Python float (numpy's array power can differ by 1 ulp).  ValueError if a
    sum overflows, or if a nonzero item's sum is not a normal float."""
    powers = np.abs(rows)
    powers **= p
    sums = np.add.reduce(powers, axis=tuple(range(1, powers.ndim)))
    if not np.isfinite(sums).all():
        raise ValueError(_OVERFLOW)
    if (sums < _TINY).any() and rows[sums < _TINY].any():
        raise ValueError(_UNDERFLOW)
    return [s ** (1.0 / p) for s in sums.tolist()]


def bh_lhs(form: MultilinearForm) -> float:
    """Coefficient norm (sum |T|^(2m/(m+1)))^((m+1)/(2m)); ValueError as in ``_lp_sums``."""
    return _lp_sums(form.coeffs[None], float(bh_exponent(form.m)))[0]


def bh_ratio(form: MultilinearForm) -> float:
    """Coefficient norm over the exact operator norm, a certified lower bound
    on the arity-m constant; ValueError for the zero form or as in ``bh_lhs``."""
    if not np.any(form.coeffs):
        raise ValueError("the zero form has no ratio")
    return bh_lhs(form) / sup_norm_exact(form)


# Last, so the package holds every public name however this module was imported.
_bind(globals())
