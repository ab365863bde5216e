"""Reference values the benchmark checks the program against.

Nothing here imports bhbounds: each reference is derived from the
mathematics (closed forms, brute-force enumeration, norm bounds), so a
defect in the package cannot hide itself by also corrupting its check.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

REL_TOL = 1e-12

# `verify --suite all` runs these suites with these default trial counts.
BATTERY = (
    ("khinchine", 100),
    ("kcc", 100),
    ("blei", 1000),
    ("tensor", 200),
    ("bh", 10000),
    ("bh", 1000),
    ("bh", 100),
    ("summing", 1000),
)
REPORT_FIELDS = ["suite", "trials", "failures", "worst_margin", "max_ratio", "seed", "uncertified"]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text):
    """Parse JSON that must not contain NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def new_real_exponent(m):
    """Closed form of the two-step scheme's log2 exponent, 2 <= m <= 14."""
    numerator = m * m + 6 * m - 8 if m % 2 == 0 else m * m + 6 * m - 7
    return Fraction(numerator, 8 * m)


def coefficient_norm(coeffs):
    """(sum |T|^p)^(1/p) with p = 2m/(m+1)."""
    m = coeffs.ndim
    p = 2.0 * m / (m + 1)
    return float((np.abs(coeffs) ** p).sum() ** (1.0 / p))


def exact_norm(coeffs):
    """Brute-force operator norm: every sign vector in slots 1..m-1.

    Builds all 2^((m-1)N) contractions at once, so it is for small
    shapes only.
    """
    n = coeffs.shape[0]
    codes = np.arange(1 << n)
    signs = ((codes[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
    values = coeffs
    for _ in range(coeffs.ndim - 1):
        values = np.tensordot(signs, values, axes=(1, 0))
        values = np.moveaxis(values, 0, -1)
    return float(np.abs(values).sum(axis=0).max())


def check_battery(stdout, seed):
    """Mismatches in the JSON-lines output of `verify --suite all`."""
    problems = []
    lines = stdout.splitlines()
    if len(lines) != len(BATTERY):
        return [f"expected {len(BATTERY)} report lines, got {len(lines)}"]
    for line, (suite, trials) in zip(lines, BATTERY):
        try:
            doc = strict_json(line)
        except ValueError as exc:
            problems.append(f"report is not strict JSON: {exc}")
            continue
        if list(doc) != REPORT_FIELDS:
            problems.append(f"report fields {list(doc)}")
        elif (doc["suite"], doc["trials"], doc["seed"]) != (suite, trials, seed):
            problems.append(f"report {doc['suite']}/{doc['trials']}/{doc['seed']}, "
                            f"expected {suite}/{trials}/{seed}")
        elif doc["failures"] != 0 or doc["uncertified"]:
            problems.append(f"suite {suite}: {doc['failures']} failures, "
                            f"uncertified={doc['uncertified']}")
    return problems


def check_table(stdout, m_min, m_max):
    """Mismatches in `table --format json` output over m_min..m_max."""
    try:
        doc = strict_json(stdout)
    except ValueError as exc:
        return [f"table is not strict JSON: {exc}"]
    problems = []
    ms = [row["m"] for row in doc["rows"]]
    if ms != list(range(m_min, m_max + 1)):
        problems.append("table rows are not m_min..m_max in order")
    for row in doc["rows"]:
        m = row["m"]
        if m > 14:
            break
        exact = new_real_exponent(m)
        if row["values"]["new"]["exact_log2"] != [exact.numerator, exact.denominator]:
            problems.append(f"m={m}: new exact_log2 {row['values']['new']['exact_log2']}, "
                            f"expected {exact}")
    return problems


def check_norm(coeffs, ratio, lower, factors=None):
    """Mismatches for one exact bh_ratio result.

    The norm is recovered as coefficient_norm / ratio and must satisfy
    lower <= norm <= sum |T|; for a rank-one form a1 x ... x am it must
    equal the product of the l1 norms of the factors.
    """
    norm = coefficient_norm(coeffs) / ratio
    problems = []
    if not lower <= norm * (1 + REL_TOL):
        problems.append(f"norm {norm!r} below the ascent bound {lower!r}")
    total = float(np.abs(coeffs).sum())
    if not norm <= total * (1 + REL_TOL):
        problems.append(f"norm {norm!r} above sum |T| = {total!r}")
    if factors is not None:
        expected = float(np.prod([np.abs(a).sum() for a in factors]))
        if abs(norm - expected) > REL_TOL * expected:
            problems.append(f"rank-one norm {norm!r}, expected {expected!r}")
    return problems


def check_search(coeffs, ratio):
    """Mismatches for one search result: recomputed ratio and upper bound."""
    m = coeffs.ndim
    recomputed = coefficient_norm(coeffs) / exact_norm(coeffs)
    problems = []
    if abs(recomputed - ratio) > REL_TOL * recomputed:
        problems.append(f"reported ratio {ratio!r}, recomputed {recomputed!r}")
    bound = 2.0 ** float(new_real_exponent(m))
    if not recomputed <= bound * (1 + REL_TOL):
        problems.append(f"ratio {recomputed!r} above the m={m} upper bound {bound!r}")
    return problems
