"""Command-line interface: constant tables, verification suites, search.

Exit codes: 0 on success, 1 when any inequality check fails, 2 on usage
or enumeration-budget errors and on an output path that cannot be
written, 141 (128 + SIGPIPE, as a shell reports for ``yes | head``) when
stdout is closed early.  Identical flags and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from .constants import ConstantsTable, Log2Constant, SchemeId, constant, table

if TYPE_CHECKING:
    from .verify import VerificationReport

# Suite -> (its `bhbounds.verify` function, {flag: default} for every flag it
# takes beyond --seed and --format, the battery's runs as flags over those
# defaults).  `_run_suite` looks the function up on that module when it runs,
# so a rebinding of the module attribute reaches it, and passes the row's
# flags as keywords.  `forms` and `verify` import numpy, which `table` never
# needs, so each command imports them when it runs.
_SUITES = {
    "khinchine": ("run_khinchine_suite", {"count": 100}, ({},)),
    "kcc": ("run_kcc_suite", {"count": 100}, ({},)),
    "blei": ("run_blei_suite", {"count": 1000}, ({},)),
    "tensor": ("run_tensor_suite", {"count": 200}, ({},)),
    "bh": ("run_bh_trials", {"count": 1000, "m": 2, "n": 2, "dump_dir": None},
           ({"m": 2, "n": 2, "count": 10000}, {"m": 3, "n": 3, "count": 1000},
            {"m": 4, "n": 2, "count": 100})),
    "summing": ("check_multiple_summing",
                {"count": 1000, "m": 2, "n": 2, "dump_dir": None, "j": 3}, ({},)),
}

# Every flag a row may hold, in the order an error lists them.  Each is
# spelled "--" and its name with "_" as "-", and passed as the keyword that
# `_PARAMS` names, or as its own name.
_SUITE_FLAGS = ("count", "m", "n", "j", "dump_dir")
_PARAMS = {"n": "N", "j": "J", "dump_dir": "failure_dir"}

# The largest table row: `table --m-max 100000` already takes 4 to 5 s and
# about 95 MB on a 2 vCPU Xeon in any format, and the cost grows with m.
_TABLE_M_MAX = 100_000

# Every table value and prefactor is at least 1, a double with at most 52
# fractional bits, so its exact decimal expansion ends within 52 places.
_PRECISION_MAX = 52


def _parse_schemes(spec: str) -> tuple[SchemeId, ...]:
    schemes = []
    for token in spec.split(","):
        token = token.strip()
        try:
            scheme = SchemeId(token)
        except ValueError:
            choices = ", ".join(s.value for s in SchemeId)
            raise ValueError(f"unknown scheme {token!r}; choose from {choices}") from None
        # JSON keys each row's values by scheme, so a repeat would lose a column.
        if scheme in schemes:
            raise ValueError(f"scheme {token!r} given twice")
        schemes.append(scheme)
    return tuple(schemes)


def _at_least(low: int, at_most: Optional[int] = None) -> Callable[[str], int]:
    """An argparse type for integers in [low, at_most], so errors name the flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be <= {at_most}, got {value}")
        return value

    return parse


def _fmt(value: float, precision: int) -> str:
    # format() rounds half to even, so text output is platform-stable.
    return format(value, f".{precision}f")


def _table_lines(tab: ConstantsTable, precision: int) -> Iterator[list[str]]:
    """Header and rows of cells; an overflowed value reads 2^<log2_value>."""

    def cell(cons: Log2Constant) -> str:
        if math.isfinite(cons.value):
            return _fmt(cons.value, precision)
        return "2^" + _fmt(cons.log2_value, precision)

    yield ["m"] + [s.value for s in tab.schemes]
    for m, row in tab.rows:
        yield [str(m)] + [cell(c) for c in row]


# Each renderer yields finished pieces of its output, newlines included, and
# cmd_table writes each piece as it comes.  The text table formats its cells
# twice: a first pass keeps only each column's widest, to pad the second.
def _render_table_text(tab: ConstantsTable, precision: int) -> Iterator[str]:
    widths = [0] * (1 + len(tab.schemes))
    for cells in _table_lines(tab, precision):
        widths = [max(w, len(v)) for w, v in zip(widths, cells)]
    for cells in _table_lines(tab, precision):
        yield "  ".join(v.rjust(w) for v, w in zip(cells, widths)) + "\n"


def _render_table_csv(tab: ConstantsTable, precision: int) -> Iterator[str]:
    for cells in _table_lines(tab, precision):
        yield ",".join(cells) + "\n"


def _render_table_json(tab: ConstantsTable, precision: int) -> Iterator[str]:
    """Strict json.dumps bytes of the whole table, yielded a row at a time."""
    encode = json.JSONEncoder(allow_nan=False).encode
    schemes = encode([s.value for s in tab.schemes])
    yield f'{{"schemes": {schemes}, "precision": {precision}, "rows": ['
    for i, (m, row) in enumerate(tab.rows):
        values = {}
        for scheme, cons in zip(tab.schemes, row):
            if math.isfinite(cons.value):
                entry = {"value": float(_fmt(cons.value, precision))}
            else:
                entry = {"value": None, "log2": cons.log2_value}
            exact = cons.exact_exponent
            entry["exact_log2"] = None if exact is None else list(exact.as_integer_ratio())
            if cons.prefactor is not None:
                entry["prefactor"] = float(_fmt(cons.prefactor, precision))
            values[scheme.value] = entry
        yield (", " if i else "") + encode({"m": m, "values": values})
    yield "]}\n"


_TABLE_RENDERERS = {
    "text": _render_table_text,
    "csv": _render_table_csv,
    "json": _render_table_json,
}


def cmd_table(args: argparse.Namespace) -> int:
    schemes = _parse_schemes(args.schemes)
    if args.m_min > args.m_max:
        raise ValueError(f"--m-min {args.m_min} is greater than --m-max {args.m_max}")
    tab = table(args.m_min, args.m_max, schemes)
    sys.stdout.writelines(_TABLE_RENDERERS[args.format](tab, args.precision))
    return 0


def _emit_reports(reports: Sequence[VerificationReport], fmt: str) -> None:
    names = [f.name for f in fields(reports[0])]
    if fmt == "csv":
        print(",".join(names))
    for report in reports:
        if fmt == "json":
            print(report.to_json())
            continue
        # str() of a float is its shortest round-trip repr.
        values = [getattr(report, name) for name in names]
        cells = [str(v).lower() if isinstance(v, bool) else str(v) for v in values]
        if fmt == "csv":
            print(",".join(cells))
        else:
            print(" ".join(f"{name}={cell}" for name, cell in zip(names, cells)))


def _flags(names: Sequence[str]) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _run_suite(args: argparse.Namespace) -> list[VerificationReport]:
    battery = args.suite == "all"
    takes = ("dump_dir",) if battery else _SUITES[args.suite][1]
    given = {n: getattr(args, n) for n in _SUITE_FLAGS if getattr(args, n) is not None}
    stray = [n for n in given if n not in takes]
    if stray:
        reason = "runs the battery at fixed sizes" if battery else "takes only " + _flags(takes)
        raise ValueError(f"--suite {args.suite} {reason}; drop {_flags(stray)}")
    from . import verify

    rows = _SUITES.values() if battery else [_SUITES[args.suite]]
    reports = []
    for function, defaults, runs in rows:
        for run in runs if battery else ({},):
            flags = {**defaults, **given, **run}
            keywords = {_PARAMS.get(flag, flag): flags[flag] for flag in defaults}
            reports.append(getattr(verify, function)(seed=args.seed, **keywords))
    return reports


def cmd_verify(args: argparse.Namespace) -> int:
    reports = _run_suite(args)
    _emit_reports(reports, args.format)
    return 0 if all(r.failures == 0 for r in reports) else 1


def cmd_search(args: argparse.Namespace) -> int:
    from .forms import dump_form
    from .verify import search_extremal

    state = search_extremal(
        args.m, args.n, restarts=args.restarts, iterations=args.iterations, seed=args.seed
    )
    if args.out:
        dump_form(state.tensor, args.out, seed=args.seed)
    bound = constant(SchemeId.NEW_REAL, args.m).value
    print(
        f"ratio={state.ratio!r} bound={bound!r} m={args.m} n={args.n} "
        f"restarts={state.restarts} iterations={state.iterations} seed={args.seed}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhbounds",
        description="Constant schemes and inequality verification for m-linear forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="render the constants comparison table")
    p_table.add_argument("--m-min", type=_at_least(2), default=3, dest="m_min")
    p_table.add_argument("--m-max", type=_at_least(2, at_most=_TABLE_M_MAX), default=14,
                         dest="m_max")
    p_table.add_argument("--schemes", default="new,cor52,classic")
    p_table.add_argument("--format", choices=tuple(_TABLE_RENDERERS), default="text")
    p_table.add_argument("--precision", type=_at_least(0, at_most=_PRECISION_MAX), default=3)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p_verify.add_argument("--m", type=_at_least(2), default=None,
                          help="arity, bh and summing (default 2)")
    p_verify.add_argument("--n", type=_at_least(1), default=None,
                          help="dimension, bh and summing (default 2)")
    p_verify.add_argument("--j", type=_at_least(1), default=None,
                          help="family size, summing only (default 3)")
    p_verify.add_argument("--count", type=_at_least(1, at_most=1 << 32), default=None)
    p_verify.add_argument("--seed", type=_at_least(0), default=0)
    p_verify.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_verify.add_argument("--dump-dir", default=None, dest="dump_dir",
                          help="directory for failing-instance tensor dumps")
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="hill-climb sign tensors for large ratios")
    p_search.add_argument("--m", type=_at_least(2), default=2)
    p_search.add_argument("--n", type=_at_least(1), default=2)
    p_search.add_argument("--restarts", type=_at_least(1, at_most=1 << 32), default=8)
    p_search.add_argument("--iterations", type=_at_least(0), default=200)
    p_search.add_argument("--seed", type=_at_least(0), default=0)
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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # The unwritten buffer goes to devnull, not to an "Exception ignored" at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # BudgetExceededError; an unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
