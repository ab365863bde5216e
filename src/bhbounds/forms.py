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

The kernel takes the slots in turn on one (N, width) array: the next
slot's index on its rows, and each column an index of the later slots
with a pattern of the earlier ones, patterns on the minor axis.  A slot
is one product rows.T @ _half_signs(N).T, whose output is the next slot's
array without a copy; past _CAP, a slot's last terms are added depth
first.  Each signed sum runs slot by slot and in index order, and each l1
sum in the order np.add.reduce gives a contiguous row, so however the
work is split the norm has the same bits.  Each slot writes its product
and one sum per depth-first term into buffers allocated per norm on its
first visit; reuse is safe, as a term's buffer is rewritten only after
its subtree, _l1_max overwrites only its leaf's, and later slots their own.
Each visit first fills every depth-first term as a full plane of the
product's shape in the same allocation, so the adds and subtracts run as
contiguous loops, not broadcasts of one column: about twice as fast, with
each element given the same addend in the same order.
"""

from __future__ import annotations

import ctypes
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


# Elements in any one product or partial sum of the exact-norm kernel
# (2^15 doubles, 256 KiB) unless a tensor row is longer.  Of 2^13 to 2^16,
# the fastest whose peak memory stayed within 2 MB of 2^14's; 2^16 was
# faster still but used 3 MB more.
_CAP = 1 << 15

# Unbounded: the kernel asks only for n with n * 2^(n-1) <= _CAP, so the
# cache holds at most 12 matrices.
@functools.lru_cache(maxsize=None)
def _half_signs(n: int) -> np.ndarray:
    """The 2^(n-1) sign rows of length n with s[0] = +1, read-only."""
    codes = np.arange(1, 1 << n, 2, dtype=np.int64)  # odd: bit 0 sets s[0] = +1
    signs = ((codes[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
    signs.flags.writeable = False
    return signs


def _sup_over_signs(x: np.ndarray, slots: int, work: dict) -> float:
    """Max over sign vectors in ``slots`` slots of the l1 sum that remains.

    ``x`` is (n, width), as in the module docstring.  Each signed sum takes
    its first ``head`` terms from one product, as many as let the later
    slots run breadth first within _CAP, and then each later term in turn,
    depth first over its sign, into the slot's buffers in ``work``.
    """
    n, width = x.shape
    # Elements of the last slot's array per pattern of this slot, breadth first.
    later = width // n ** (slots - 1) << (n - 1) * (slots - 1)
    head = min(n, max(1, (_CAP // later).bit_length()))
    tail = n - head
    bufs = 1 + 2 * tail  # the product, each term's plane, each term's sum
    if slots not in work:
        size = bufs * width << head - 1
        if size < _CAP >> 5:  # too small for its alignment to repay the address
            work[slots] = np.empty((bufs, width, 1 << head - 1))
        else:  # on a 64-byte line, so that no vector load straddles two lines
            raw = np.empty(size + 7)
            start = -ctypes.addressof(ctypes.c_char.from_buffer(raw)) // 8 % 8
            work[slots] = raw[start:start + size].reshape(bufs, width, -1)
    partial = np.matmul(x[:head].T, _half_signs(head).T, out=work[slots][0])
    terms = None
    if tail:  # filled once, so that each add and subtract runs contiguous
        terms = work[slots][1:1 + tail]
        np.copyto(terms, x[head:, :, None])
    return _add_rows(partial, terms, head, n, slots, work)


def _add_rows(partial: np.ndarray, terms: Optional[np.ndarray], j: int, n: int,
              slots: int, work: dict) -> float:
    """Add +-x[j], ..., +-x[n-1] to ``partial`` (overwritten), then go on
    with its (width, P) rows read as (n, width * P / n), with no copy.  x[j]
    is read as terms[j - n], which the slot's visit filled as a full (width,
    P) plane: an add or subtract of a broadcast column ran about twice as
    long as of a plane, and a plane serves 2^(j - head) adds.  The sum with
    +x[j] goes to the slot's buffer for term j, work[slots][j - n]."""
    if j < n:
        row, out = terms[j - n], work[slots][j - n]
        best = _add_rows(np.add(partial, row, out=out), terms, j + 1, n, slots, work)
        partial -= row
        return max(best, _add_rows(partial, terms, j + 1, n, slots, work))
    rows = partial.reshape(n, -1)
    return _sup_over_signs(rows, slots - 1, work) if slots > 1 else _l1_max(rows)


def _l1_max(x: np.ndarray) -> float:
    """Max over columns of sum_i |x[i]|, x overwritten, each sum in the order
    of np.add.reduce along a contiguous row of at most 128: in turn below 8
    terms, else eight running sums, a pairwise tree over them, then the rest
    in turn; the 24-bit budget keeps rows at n <= 25.  ``_exact_norm`` puts
    each block of eight rows in its tree's leaf order, so that each level
    adds contiguous halves: faster than strided pairs in natural order."""
    np.abs(x, out=x)
    stop = len(x) - len(x) % 8
    if stop:
        for i in range(8, stop, 8):
            x[i:i + 8] += x[i - 8:i]
        for half in (4, 2, 1):
            x[stop - half:stop] += x[stop - 2 * half:stop - half]
        x[stop:stop + 1] += x[stop - 1]  # at most seven rows left: summed in turn
        x = x[min(stop, len(x) - 1):]
    return float(np.maximum.reduce(np.add.reduce(x, axis=0)))


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
    n = coeffs.shape[0]
    # The last slot's blocks of eight in the leaf order of _l1_max's tree, so
    # its levels add contiguous halves; strided pairs were slower on wide shapes.
    if n >= 8:
        order = [b + i for b in range(0, n - 7, 8) for i in (0, 4, 2, 6, 1, 5, 3, 7)]
        coeffs = coeffs[..., order + list(range(len(order), n))]
    return _sup_over_signs(coeffs.reshape(n, -1), coeffs.ndim - 1, {})


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
    with np.errstate(over="ignore"):  # refused below, without a warning first
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
