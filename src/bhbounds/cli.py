"""Command-line interface: constant tables, verification suites, search.

Exit codes: 0 on success, 1 when any inequality check fails, 2 on usage
or enumeration-budget errors.  Identical flags and seed give byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from fractions import Fraction
from typing import Optional, Sequence

from .constants import ConstantsTable, SchemeId, constant, table
from .forms import dump_form
from .verify import (
    VerificationReport,
    check_multiple_summing,
    run_bh_trials,
    run_blei_suite,
    run_kcc_suite,
    run_khinchine_suite,
    run_tensor_suite,
    search_extremal,
)

_SCHEME_TOKENS = {
    "new": SchemeId.NEW_REAL,
    "cor52": SchemeId.COR52_REAL,
    "classic": SchemeId.CLASSIC,
    "cor52-complex": SchemeId.COR52_COMPLEX,
    "dsp-complex": SchemeId.DSP_COMPLEX,
}

# Suite -> (runner taking the parsed flags and a trial count, default count).
_SUITES = {
    "khinchine": (lambda a, count: run_khinchine_suite(count=count, seed=a.seed), 100),
    "kcc": (lambda a, count: run_kcc_suite(count=count, seed=a.seed), 100),
    "blei": (lambda a, count: run_blei_suite(count=count, seed=a.seed), 1000),
    "tensor": (lambda a, count: run_tensor_suite(count=count, seed=a.seed), 200),
    "bh": (
        lambda a, count: run_bh_trials(a.m, a.n, count, a.seed, failure_dir=a.dump_dir),
        1000,
    ),
    "summing": (
        lambda a, count: check_multiple_summing(
            a.m, a.n, a.j, count, a.seed, failure_dir=a.dump_dir
        ),
        1000,
    ),
}

# The full battery: each run's flags over the parsed ones; a run without a
# count uses its suite's default.
_BATTERY = (
    {"suite": "khinchine"}, {"suite": "kcc"}, {"suite": "blei"}, {"suite": "tensor"},
    {"suite": "bh", "m": 2, "n": 2, "count": 10000},
    {"suite": "bh", "m": 3, "n": 3, "count": 1000},
    {"suite": "bh", "m": 4, "n": 2, "count": 100},
    {"suite": "summing", "m": 2, "n": 2, "j": 3, "count": 1000},
)

_REPORT_FIELDS = tuple(f.name for f in fields(VerificationReport))


def _parse_schemes(spec: str) -> tuple[SchemeId, ...]:
    schemes = []
    for token in spec.split(","):
        token = token.strip()
        if token not in _SCHEME_TOKENS:
            raise ValueError(
                f"unknown scheme {token!r}; choose from {', '.join(_SCHEME_TOKENS)}"
            )
        schemes.append(_SCHEME_TOKENS[token])
    return tuple(schemes)


def _fmt(value: float, precision: int) -> str:
    # format() rounds half to even, so text output is platform-stable.
    return format(value, f".{precision}f")


def _exact_pair(exact: Optional[Fraction]) -> Optional[list[int]]:
    if exact is None:
        return None
    return [exact.numerator, exact.denominator]


def _render_table_text(tab: ConstantsTable) -> str:
    headers = ["m"] + [s.value for s in tab.schemes]
    body = [
        [str(m)] + [_fmt(c.value, tab.precision) for c in row] for m, row in tab.rows
    ]
    widths = [max(len(line[i]) for line in [headers] + body) for i in range(len(headers))]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for line in body:
        lines.append("  ".join(v.rjust(w) for v, w in zip(line, widths)))
    return "\n".join(lines)


def _render_table_csv(tab: ConstantsTable) -> str:
    lines = [",".join(["m"] + [s.value for s in tab.schemes])]
    for m, row in tab.rows:
        lines.append(",".join([str(m)] + [_fmt(c.value, tab.precision) for c in row]))
    return "\n".join(lines)


def _render_table_json(tab: ConstantsTable) -> str:
    rows = []
    for m, row in tab.rows:
        values = {}
        for scheme, cons in zip(tab.schemes, row):
            if math.isfinite(cons.value):
                entry = {"value": float(_fmt(cons.value, tab.precision))}
            else:
                entry = {"value": None, "log2": cons.log2_value}
            entry["exact_log2"] = _exact_pair(cons.exact_exponent)
            if cons.prefactor is not None:
                entry["prefactor"] = float(_fmt(cons.prefactor, tab.precision))
            values[scheme.value] = entry
        rows.append({"m": m, "values": values})
    doc = {
        "schemes": [s.value for s in tab.schemes],
        "precision": tab.precision,
        "rows": rows,
    }
    return json.dumps(doc, allow_nan=False)


def cmd_table(args: argparse.Namespace) -> int:
    schemes = _parse_schemes(args.schemes)
    tab = table(args.m_min, args.m_max, schemes, precision=args.precision)
    if args.format == "text":
        print(_render_table_text(tab))
    elif args.format == "csv":
        print(_render_table_csv(tab))
    else:
        print(_render_table_json(tab))
    return 0


def _emit_reports(reports: Sequence[VerificationReport], fmt: str) -> None:
    if fmt == "csv":
        print(",".join(_REPORT_FIELDS))
    for report in reports:
        if fmt == "json":
            print(report.to_json())
            continue
        # str() of a float is its shortest round-trip repr.
        values = [getattr(report, name) for name in _REPORT_FIELDS]
        cells = [str(v).lower() if isinstance(v, bool) else str(v) for v in values]
        if fmt == "csv":
            print(",".join(cells))
        else:
            print(" ".join(f"{name}={cell}" for name, cell in zip(_REPORT_FIELDS, cells)))


def _run_suite(args: argparse.Namespace) -> list[VerificationReport]:
    runs = [args]
    if args.suite == "all":
        runs = [argparse.Namespace(**{**vars(args), "count": None, **flags}) for flags in _BATTERY]
    reports = []
    for run in runs:
        runner, default_count = _SUITES[run.suite]
        reports.append(runner(run, default_count if run.count is None else run.count))
    return reports


def cmd_verify(args: argparse.Namespace) -> int:
    reports = _run_suite(args)
    _emit_reports(reports, args.format)
    return 0 if all(r.failures == 0 for r in reports) else 1


def cmd_search(args: argparse.Namespace) -> int:
    state = search_extremal(
        args.m, args.n, restarts=args.restarts, iterations=args.iterations, seed=args.seed
    )
    bound = constant(SchemeId.NEW_REAL, args.m).value
    print(
        f"ratio={state.ratio!r} bound={bound!r} m={args.m} n={args.n} "
        f"restarts={state.restarts} iterations={state.iterations} seed={args.seed}"
    )
    if args.out:
        dump_form(state.tensor, args.out, seed=args.seed)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhbounds",
        description="Constant schemes and inequality verification for m-linear forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="render the constants comparison table")
    p_table.add_argument("--m-min", type=int, default=3, dest="m_min")
    p_table.add_argument("--m-max", type=int, default=14, dest="m_max")
    p_table.add_argument("--schemes", default="new,cor52,classic")
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.add_argument("--precision", type=int, default=3)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p_verify.add_argument("--m", type=int, default=2)
    p_verify.add_argument("--n", type=int, default=2)
    p_verify.add_argument("--j", type=int, default=3, help="family size for the summing suite")
    p_verify.add_argument("--count", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_verify.add_argument("--dump-dir", default=None, dest="dump_dir",
                          help="directory for failing-instance tensor dumps")
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="hill-climb sign tensors for large ratios")
    p_search.add_argument("--m", type=int, default=2)
    p_search.add_argument("--n", type=int, default=2)
    p_search.add_argument("--restarts", type=int, default=8)
    p_search.add_argument("--iterations", type=int, default=200)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--out", default=None, help="path for the best tensor dump")
    p_search.set_defaults(func=cmd_search)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # BudgetExceededError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
