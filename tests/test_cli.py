import hashlib
import inspect
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from bhbounds import cli, verify
from bhbounds.cli import main
from bhbounds.constants import SchemeId, table
from bhbounds.forms import load_form


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_default_range(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 13  # header + m = 3..14
        assert lines[0].split() == ["m", "new", "cor52", "classic"]
        assert lines[1].split() == ["3", "1.782", "1.782", "2.000"]
        assert lines[-1].split() == ["14", "5.384", "13.457", "90.510"]

    def test_single_row_m2(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--m-min", "2", "--m-max", "2")
        assert code == 0
        row = out.strip().splitlines()[-1].split()
        assert row == ["2", "1.414", "1.414", "1.414"]

    def test_json_with_gamma_tail(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json", "--m-max", "16")
        assert code == 0
        doc = json.loads(out)
        by_m = {row["m"]: row["values"] for row in doc["rows"]}
        assert by_m[14]["new"]["exact_log2"] == [17, 7]
        assert by_m[15]["new"]["exact_log2"] is None
        assert by_m[16]["new"]["exact_log2"] is None
        assert by_m[16]["new"]["value"] == pytest.approx(6.444, abs=1e-9)

    def test_formats_agree_numerically(self, capsys):
        _, text, _ = run_cli(capsys, "table", "--m-max", "6")
        _, csv_out, _ = run_cli(capsys, "table", "--m-max", "6", "--format", "csv")
        _, json_out, _ = run_cli(capsys, "table", "--m-max", "6", "--format", "json")
        text_rows = [line.split() for line in text.strip().splitlines()[1:]]
        csv_rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
        assert text_rows == csv_rows
        doc = json.loads(json_out)
        for row, parsed in zip(text_rows, doc["rows"]):
            for token, scheme in zip(row[1:], doc["schemes"]):
                assert float(token) == parsed["values"][scheme]["value"]

    def test_precision_flag(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--m-min", "5", "--m-max", "5", "--precision", "6")
        assert code == 0
        assert "2.297397" in out

    def test_complex_schemes(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--schemes", "dsp-complex,cor52-complex", "--m-max", "4"
        )
        assert code == 0
        assert out.strip().splitlines()[0].split() == ["m", "dsp-complex", "cor52-complex"]

    def test_invalid_flags_exit_2(self, capsys):
        assert run_cli(capsys, "table", "--m-min", "1")[0] == 2
        assert run_cli(capsys, "table", "--m-min", "9", "--m-max", "5")[0] == 2
        assert run_cli(capsys, "table", "--schemes", "nope")[0] == 2
        assert run_cli(capsys, "table", "--format", "yaml")[0] == 2

    def test_repeated_scheme_exit_2(self, capsys):
        # JSON would key two columns by one scheme and keep only one of them.
        for spec, token in (("new,cor52,new", "new"), ("classic, classic", "classic")):
            code, out, err = run_cli(capsys, "table", "--schemes", spec, "--format", "json")
            assert (code, out, err) == (2, "", f"error: scheme {token!r} given twice\n")

    def test_empty_range_names_both_flags(self, capsys):
        code, out, err = run_cli(capsys, "table", "--m-min", "9", "--m-max", "4")
        assert (code, out, err) == (2, "", "error: --m-min 9 is greater than --m-max 4\n")
        # Against the default --m-max of 14.
        code, out, err = run_cli(capsys, "table", "--m-min", "20")
        assert (code, out, err) == (2, "", "error: --m-min 20 is greater than --m-max 14\n")

    def test_overflow_is_strict_json(self, capsys):
        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        code, out, _ = run_cli(
            capsys, "table", "--m-min", "2048", "--m-max", "2049", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out, parse_constant=reject)
        classic = {row["m"]: row["values"]["classic"] for row in doc["rows"]}
        assert classic[2048]["value"] == pytest.approx(2.0**1023.5)
        assert "log2" not in classic[2048]
        assert classic[2049] == {"value": None, "log2": 1024.0, "exact_log2": [1024, 1]}

    def test_overflow_cell_is_log2_in_text_and_csv(self, capsys):
        flags = ("table", "--m-min", "2049", "--m-max", "2050", "--schemes", "classic,new")
        code, csv_out, _ = run_cli(capsys, *flags, "--format", "csv")
        assert code == 0
        lines = csv_out.strip().splitlines()
        assert lines[0] == "m,classic,new"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["2049", "2^1024.000"], ["2050", "2^1024.500"],
        ]
        assert "inf" not in csv_out
        code, text, _ = run_cli(capsys, *flags)
        assert code == 0
        assert [line.split() for line in text.strip().splitlines()] == [
            line.split(",") for line in lines
        ]

    @pytest.mark.parametrize(
        "m_min, m_max, schemes",
        [(2048, 2050, "classic"), (9990, 10000, "new,cor52,classic,cor52-complex,dsp-complex")],
    )
    @pytest.mark.parametrize("precision", [0, 52])
    def test_json_is_the_one_document(self, capsys, m_min, m_max, schemes, precision):
        # The document written whole, built here from the library table.
        tab = table(m_min, m_max, tuple(SchemeId(token) for token in schemes.split(",")))
        rows = []
        for m, row in tab.rows:
            values = {}
            for scheme, cons in zip(tab.schemes, row):
                if math.isfinite(cons.value):
                    entry = {"value": float(format(cons.value, f".{precision}f"))}
                else:
                    entry = {"value": None, "log2": cons.log2_value}
                exact = cons.exact_exponent
                pair = None if exact is None else [exact.numerator, exact.denominator]
                entry["exact_log2"] = pair
                if cons.prefactor is not None:
                    entry["prefactor"] = float(format(cons.prefactor, f".{precision}f"))
                values[scheme.value] = entry
            rows.append({"m": m, "values": values})
        doc = {"schemes": schemes.split(","), "precision": precision, "rows": rows}
        code, out, _ = run_cli(
            capsys, "table", "--m-min", str(m_min), "--m-max", str(m_max),
            "--schemes", schemes, "--precision", str(precision), "--format", "json",
        )
        assert code == 0
        assert out == json.dumps(doc, allow_nan=False) + "\n"
        if schemes == "classic":
            assert '"value": null, "log2": 1024.0' in out
        else:
            assert '"prefactor": ' in out

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_json_memory_is_bounded_by_rows(self, monkeypatch, fmt):
        import tracemalloc

        # The table is built beforehand: only its rendering is under test.
        tab = table(2, 20001)
        monkeypatch.setattr(cli, "table", lambda *args: tab)
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                assert main(["table", "--m-min", "2", "--m-max", "20001", "--format", fmt]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # The 20,000 rows built as one JSON document take about 30 MB, and
        # the text table's cells kept to pad its columns 8.3 MB.
        assert peak < 2**20

    def test_text_pads_to_a_widest_cell_before_the_last_row(self, capsys):
        # m = 2048 is classic's last finite value, 2^1023.5 with 309 digits;
        # the overflowed rows after it print the shorter 2^<log2>.
        code, out, _ = run_cli(capsys, "table", "--m-min", "2040", "--m-max", "2060",
                               "--schemes", "classic")
        assert code == 0
        lines = out.splitlines()
        rows = dict(line.split() for line in lines[1:])
        assert rows["2049"].startswith("2^") and len(rows["2048"]) == 309 + 4
        assert {len(line) for line in lines} == {len("2060") + 2 + 309 + 4}

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--m-max", "14")
        _, second, _ = run_cli(capsys, "table", "--m-max", "14")
        assert first == second


class TestVerify:
    def test_bh_suite_green(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "bh", "--m", "2", "--n", "2",
            "--count", "500", "--seed", "1",
        )
        assert code == 0
        assert "failures=0" in out
        assert "max_ratio=1.41" in out

    @pytest.mark.parametrize("args, env, message", [
        (("bh", "--m", "5", "--n", "8"), None, "= 28 sign bits exceed the budget of 24\n"),
        # The exact-norm budget is fixed: the environment does not widen it.
        (("bh", "--m", "5", "--n", "8"), "40", "= 28 sign bits exceed the budget of 24\n"),
        # Within the bit budget, but over the tensor's entry cap.
        (("bh", "--m", "21", "--n", "2"), None, "N^m = 2097152 entries exceed the cap"),
        # summing's composed form has J^m coefficients: (m, J) passes the budget too.
        (("summing", "--j", "4097"), None, "= 4096 sign bits exceed the budget of 24\n"),
        (("summing", "--m", "2", "--j", "26"), None, "= 25 sign bits exceed the budget of 24\n"),
    ], ids=["bh-m5-n8", "bh-m5-n8-env", "bh-m21-n2", "summing-j4097", "summing-m2-j26"])
    def test_budget_exit_2(self, capsys, monkeypatch, args, env, message):
        if env is not None:
            monkeypatch.setenv("BH_BUDGET_BITS", env)
        code, out, err = run_cli(capsys, "verify", "--suite", *args, "--count", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_one_entry_forms_run(self, capsys):
        # Arity past the bit budget's reach is fine when N = 1: one entry.
        code, out, err = run_cli(capsys, "verify", "--suite", "bh", "--m", "30", "--n", "1",
                                 "--count", "3")
        assert (code, err) == (0, "")
        assert out.startswith("suite=bh trials=3 failures=0 ")

    def test_nonpositive_count_exit_2(self, capsys):
        for count, message in (("0", "must be >= 1, got 0"), ("-3", "must be >= 1, got -3"),
                               (str(2**32 + 1), f"must be <= {2**32}, got {2**32 + 1}")):
            code, out, err = run_cli(
                capsys, "verify", "--suite", "khinchine", "--count", count, "--format", "json"
            )
            assert code == 2
            assert out == ""
            assert f"argument --count: {message}\n" in err

    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "khinchine", "--count", "20",
            "--seed", "5", "--format", "json",
        )
        assert code == 0
        report = json.loads(out.strip())
        assert list(report.keys()) == [
            "suite", "trials", "failures", "worst_margin", "max_ratio", "seed", "uncertified",
        ]
        assert report["failures"] == 0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "kcc", "--count", "10", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "suite,trials,failures,worst_margin,max_ratio,seed,uncertified"
        assert row.startswith("kcc,10,0,")

    def test_byte_identical_reruns(self, capsys):
        args = ("verify", "--suite", "summing", "--count", "50", "--seed", "9")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_blei_and_tensor_suites(self, capsys):
        assert run_cli(capsys, "verify", "--suite", "blei", "--count", "100")[0] == 0
        assert run_cli(capsys, "verify", "--suite", "tensor", "--count", "50")[0] == 0

    def test_battery_rejects_size_flags(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "all", "--count", "5", "--m", "7", "--n", "9", "--j", "5"
        )
        assert code == 2
        assert out == ""
        assert "--count, --m, --n, --j" in err
        for flag in ("--count", "--m", "--n", "--j"):
            code, out, err = run_cli(capsys, "verify", flag, "3")  # --suite all by default
            assert code == 2
            assert out == ""
            assert f"drop {flag}\n" in err

    def test_single_suite_rejects_stray_size_flags(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "khinchine", "--m", "7", "--n", "9", "--j", "4",
            "--count", "2",
        )
        assert code == 2
        assert out == ""
        assert "drop --m, --n, --j\n" in err
        code, out, err = run_cli(capsys, "verify", "--suite", "bh", "--j", "9", "--count", "2")
        assert (code, out) == (2, "")
        assert err == "error: --suite bh takes only --count, --m, --n, --dump-dir; drop --j\n"
        for suite in ("kcc", "blei", "tensor"):
            assert run_cli(capsys, "verify", "--suite", suite, "--n", "3")[0] == 2
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "summing", "--m", "2", "--n", "2", "--j", "2",
            "--count", "3",
        )
        assert code == 0
        assert out.startswith("suite=summing trials=3 ")

    def test_single_suite_rejects_stray_dump_dir(self, capsys, tmp_path):
        # Failures in these suites carry no tensor, so nothing would be dumped.
        dump_dir = tmp_path / "dumps"
        for suite in ("khinchine", "kcc", "blei", "tensor"):
            code, out, err = run_cli(
                capsys, "verify", "--suite", suite, "--count", "2", "--dump-dir", str(dump_dir)
            )
            assert code == 2
            assert out == ""
            assert err == f"error: --suite {suite} takes only --count; drop --dump-dir\n"
        for suite in ("bh", "summing"):
            code, out, _ = run_cli(
                capsys, "verify", "--suite", suite, "--count", "2", "--dump-dir", str(dump_dir)
            )
            assert code == 0
            assert out.startswith(f"suite={suite} trials=2 failures=0 ")
        assert not dump_dir.exists()

    # The flags each suite takes beyond --seed and --format, written out
    # rather than read from the CLI.
    TAKES = {
        "khinchine": ("--count",),
        "kcc": ("--count",),
        "blei": ("--count",),
        "tensor": ("--count",),
        "bh": ("--count", "--m", "--n", "--dump-dir"),
        "summing": ("--count", "--m", "--n", "--j", "--dump-dir"),
    }

    @pytest.mark.parametrize("flag", ("--count", "--m", "--n", "--j", "--dump-dir"))
    @pytest.mark.parametrize("suite", tuple(TAKES))
    def test_suite_flag_matrix(self, capsys, tmp_path, suite, flag):
        value = str(tmp_path / "dumps") if flag == "--dump-dir" else "2"
        argv = ["verify", "--suite", suite, flag, value]
        if flag != "--count":
            argv += ["--count", "2"]
        code, out, err = run_cli(capsys, *argv)
        if flag in self.TAKES[suite]:
            assert (code, err) == (0, "")
            assert out.startswith(f"suite={suite} trials=2 failures=0 ")
        else:
            takes = ", ".join(self.TAKES[suite])
            assert (code, out) == (2, "")
            assert err == f"error: --suite {suite} takes only {takes}; drop {flag}\n"
        assert not (tmp_path / "dumps").exists()

    def test_negative_seed_exit_2(self, capsys):
        for command in ("verify", "search"):
            for seed, message in (("-1", "must be >= 0, got -1"), ("abc", "invalid int value: 'abc'")):
                code, out, err = run_cli(capsys, command, "--seed", seed)
                assert code == 2
                assert out == ""
                assert f"argument --seed: {message}" in err

    def test_full_battery_green(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all("failures=0" in line for line in lines)

    def test_every_line_decides_through_holds(self, capsys, monkeypatch, tmp_path):
        # With the one verdict rule refusing every trial, every line fails
        # all its trials, and only bh and summing failures dump a tensor.
        monkeypatch.setattr(verify, "_holds", lambda lhs, rhs: False)
        dump_dir = tmp_path / "dumps"
        code, out, err = run_cli(
            capsys, "verify", "--format", "json", "--dump-dir", str(dump_dir)
        )
        assert (code, err) == (1, "")
        reports = [json.loads(line) for line in out.splitlines()]
        suites = ["khinchine", "kcc", "blei", "tensor", "bh", "bh", "bh", "summing"]
        assert [r["suite"] for r in reports] == suites
        assert all(r["failures"] == r["trials"] > 0 for r in reports)
        # A dump is named by suite, dumped shape and trial index, so no line
        # overwrites another's dumps; a summing dump holds its (m, J) form.
        runs = [("bh", 2, 2, 10000), ("bh", 3, 3, 1000), ("bh", 4, 2, 100),
                ("summing", 2, 3, 1000)]
        expected = {f"{suite}_m{m}_n{n}_failure_{i}.json"
                    for suite, m, n, count in runs for i in range(count)}
        assert len(expected) == 12100
        assert {path.name for path in dump_dir.iterdir()} == expected
        for path in dump_dir.iterdir():
            form = load_form(path)
            assert path.name.split("_")[1:3] == [f"m{form.m}", f"n{form.N}"]

    def test_suites_are_the_library_calls(self, capsys, tmp_path):
        # The battery's sizes and counts, written out rather than read from the CLI.
        battery = [
            verify.run_khinchine_suite(count=100, seed=7),
            verify.run_kcc_suite(count=100, seed=7),
            verify.run_blei_suite(count=1000, seed=7),
            verify.run_tensor_suite(count=200, seed=7),
            verify.run_bh_trials(2, 2, 10000, 7),
            verify.run_bh_trials(3, 3, 1000, 7),
            verify.run_bh_trials(4, 2, 100, 7),
            verify.check_multiple_summing(2, 2, 3, 1000, 7),
        ]
        expected = "".join(report.to_json() + "\n" for report in battery)
        # --suite all keeps --dump-dir; no trial fails, so nothing is written.
        dump_dir = tmp_path / "dumps"
        code, out, err = run_cli(
            capsys, "verify", "--seed", "7", "--format", "json", "--dump-dir", str(dump_dir)
        )
        assert (code, out, err) == (0, expected, "")
        assert not dump_dir.exists()
        for suite, report in [
            ("bh", verify.run_bh_trials(2, 2, 1000, 7)),
            ("summing", verify.check_multiple_summing(2, 2, 3, 1000, 7)),
        ]:
            code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--seed", "7",
                                   "--format", "json")
            assert (code, out) == (0, report.to_json() + "\n")


class TestSearch:
    def test_littlewood_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--m", "2", "--n", "2", "--restarts", "8", "--seed", "3"
        )
        assert code == 0
        assert "ratio=1.4142135623730951" in out
        assert "bound=1.4142135623730951" in out

    def test_trivial_dimension(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--m", "2", "--n", "1")
        assert code == 0
        assert "ratio=1.0" in out

    def test_out_dump(self, capsys, tmp_path):
        out_path = tmp_path / "best.json"
        code, _, _ = run_cli(
            capsys, "search", "--m", "2", "--n", "2", "--restarts", "4",
            "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        form = load_form(out_path)
        assert form.m == 2 and form.N == 2
        assert set(np.unique(form.coeffs)) <= {-1.0, 1.0}

    def test_restarts_past_the_seeding_range_exit_2(self, capsys):
        # Checked when the command line is parsed, as verify --count is.
        code, out, err = run_cli(capsys, "search", "--restarts", str(2**32 + 1))
        assert (code, out) == (2, "")
        assert f"argument --restarts: must be <= {2**32}, got {2**32 + 1}\n" in err

    def test_budget_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "search", "--m", "5", "--n", "8")
        assert code == 2
        assert "budget" in err

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        # A missing parent directory, and a path that is a directory.
        for out_path in (tmp_path / "missing" / "best.json", tmp_path):
            code, out, err = run_cli(
                capsys, "search", "--m", "2", "--n", "2", "--out", str(out_path)
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")


class TestDumpDir:
    def test_dump_dir_naming_a_file_exit_2(self, capsys, monkeypatch, tmp_path):
        # Every +-1 (2, 2) tensor has a ratio of at least 1/sqrt(2), so a bound
        # of 0.5 fails trial 0 and its dump is attempted.
        monkeypatch.setattr(verify, "constant", lambda scheme, m: SimpleNamespace(value=0.5))
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        code, out, err = run_cli(
            capsys, "verify", "--suite", "bh", "--count", "3", "--dump-dir", str(blocker)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(blocker) in err

    def test_dump_dir_naming_a_file_exit_2_on_the_first_failure(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(verify, "_holds", lambda lhs, rhs: False)
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        code, out, err = run_cli(
            capsys, "verify", "--suite", "bh", "--count", "3", "--dump-dir", str(blocker)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(blocker) in err


class TestSuiteCalls:
    """Each suite reaches its library function through the `bhbounds.verify`
    attribute at call time, the binding that perfbench's tracer rebinds."""

    FUNCTIONS = ("run_khinchine_suite", "run_kcc_suite", "run_blei_suite",
                 "run_tensor_suite", "run_bh_trials", "check_multiple_summing")

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def recorder(name):
            signature = inspect.signature(getattr(verify, name))

            def record(*args, **kwargs):
                # Keyed by parameter name, however the arguments were passed.
                calls.append((name, dict(signature.bind(*args, **kwargs).arguments)))
                return verify.VerificationReport(name, 1, 0, 0.0, 0.0, 0)

            return record

        for name in self.FUNCTIONS:
            monkeypatch.setattr(verify, name, recorder(name))
        return calls

    @pytest.mark.parametrize("suite, flags, call", [
        ("khinchine", (), ("run_khinchine_suite", {})),
        ("kcc", (), ("run_kcc_suite", {})),
        ("blei", (), ("run_blei_suite", {})),
        ("tensor", (), ("run_tensor_suite", {})),
        ("bh", ("--m", "3", "--n", "4"), ("run_bh_trials", {"m": 3, "N": 4})),
        ("summing", ("--m", "3", "--n", "2", "--j", "4"),
         ("check_multiple_summing", {"m": 3, "N": 2, "J": 4})),
    ], ids=("khinchine", "kcc", "blei", "tensor", "bh", "summing"))
    def test_each_suite_calls_its_function_with_every_flag(
        self, capsys, calls, tmp_path, suite, flags, call
    ):
        name, params = call
        if name in ("run_bh_trials", "check_multiple_summing"):
            flags += ("--dump-dir", str(tmp_path))
            params = {**params, "failure_dir": str(tmp_path)}
        code, _, err = run_cli(
            capsys, "verify", "--suite", suite, "--count", "7", "--seed", "5", *flags
        )
        assert (code, err) == (0, "")
        assert calls == [(name, {**params, "count": 7, "seed": 5})]

    def test_battery_calls_every_function_in_order(self, capsys, calls, tmp_path):
        dump = str(tmp_path)
        code, out, _ = run_cli(capsys, "verify", "--seed", "4", "--dump-dir", dump)
        assert (code, len(out.splitlines())) == (0, 8)
        assert calls == [
            ("run_khinchine_suite", {"count": 100, "seed": 4}),
            ("run_kcc_suite", {"count": 100, "seed": 4}),
            ("run_blei_suite", {"count": 1000, "seed": 4}),
            ("run_tensor_suite", {"count": 200, "seed": 4}),
            ("run_bh_trials", {"m": 2, "N": 2, "count": 10000, "seed": 4, "failure_dir": dump}),
            ("run_bh_trials", {"m": 3, "N": 3, "count": 1000, "seed": 4, "failure_dir": dump}),
            ("run_bh_trials", {"m": 4, "N": 2, "count": 100, "seed": 4, "failure_dir": dump}),
            ("check_multiple_summing",
             {"m": 2, "N": 2, "J": 3, "count": 1000, "seed": 4, "failure_dir": dump}),
        ]
        dumped = {name for name, params in calls if "failure_dir" in params}
        assert dumped == {"run_bh_trials", "check_multiple_summing"}


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command_exit_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_flag_minimums_exit_2(self, capsys):
        minimums = {
            "verify": {"--seed": 0, "--m": 2, "--n": 1, "--j": 1},
            "search": {"--seed": 0, "--m": 2, "--n": 1, "--restarts": 1, "--iterations": 0},
        }
        for command, flags in minimums.items():
            for flag, low in flags.items():
                code, out, err = run_cli(capsys, command, flag, str(low - 1))
                assert code == 2
                assert out == ""
                assert f"argument {flag}: must be >= {low}, got {low - 1}\n" in err

    def test_closed_stdout_exit_141(self):
        # The reader takes one line of a 1.5 MB table and closes the pipe, as
        # `| head -1` does: 141 (128 + SIGPIPE, as a shell reports for
        # `yes | head`) and nothing on stderr, where it printed
        # `error: [Errno 32] Broken pipe` and exited 2.
        import subprocess

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "bhbounds.cli", "table", "--m-min", "2", "--m-max", "5000",
             "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout.readline() == b"m,new,cor52,classic\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (141, b"")

    def test_table_flag_limits_exit_2(self, capsys):
        # Each flag one step past its limit: the error names the flag.
        past = {
            ("--m-min", "1"): "must be >= 2, got 1",
            ("--m-max", "1"): "must be >= 2, got 1",
            ("--m-max", "100001"): "must be <= 100000, got 100001",
            ("--precision", "-1"): "must be >= 0, got -1",
            ("--precision", "53"): "must be <= 52, got 53",
        }
        for (flag, value), message in past.items():
            code, out, err = run_cli(capsys, "table", flag, value)
            assert code == 2
            assert out == ""
            assert f"argument {flag}: {message}\n" in err


_TABLE_60 = ("table", "--m-min", "2", "--m-max", "60",
             "--schemes", "new,cor52,classic,cor52-complex,dsp-complex", "--format")


class TestPinnedBytes:
    """Bytes pinned on every numpy the package supports (1.24 and 2.x)."""

    @pytest.mark.parametrize("argv, stdout, sha256", [
        # The search stream. Values from the walk that drew one
        # integers(0, N, size=m) per proposal.
        pytest.param(
            ("search", "--m", "4", "--n", "3", "--restarts", "3", "--iterations", "4500",
             "--seed", "5", "--out", "best.json"),
            "ratio=0.8204451193747314 bound=2.0 m=4 n=3 restarts=3 iterations=13500 seed=5\n",
            {"best.json": "098b4a179655c12b9b7d9623488822ad82073124ee21dd2a9c87da1c10a9299a"},
            id="search-table-walk",
        ),
        # The benchmark's table-walk shape, where proposals are scored 64 at a time.
        pytest.param(
            ("search", "--m", "3", "--n", "4", "--restarts", "16", "--iterations", "400",
             "--seed", "7", "--out", "bench.json"),
            "ratio=0.9999999999999999 bound=1.7817974362806785 m=3 n=4 restarts=16 iterations=6400 seed=7\n",
            {"bench.json": "3f416b63bb118be2c12ee551bab64143978c0d6c7b102842cbd31d628aa96a7d"},
            id="search-benchmark-shape",
        ),
        # A long table walk: five draw blocks per restart, and 79,761 of the
        # 80,000 proposals fall at a single-flip local optimum.
        pytest.param(
            ("search", "--m", "3", "--n", "4", "--restarts", "4", "--iterations", "20000",
             "--seed", "11", "--out", "long.json"),
            "ratio=0.9999999999999999 bound=1.7817974362806785 m=3 n=4 restarts=4 iterations=80000 seed=11\n",
            {"long.json": "4e15101fe5191115b0ad647f7d9d19f0f9e2d26ebf4ce25148a6f8c1051c7b42"},
            id="search-long-walk",
        ),
        # (5, 4) is past the pattern-table cap: every proposal is scored by the kernel.
        pytest.param(
            ("search", "--m", "5", "--n", "4", "--restarts", "2", "--iterations", "40",
             "--seed", "1", "--out", "cap.json"),
            "ratio=0.5423728813559321 bound=2.2973967099940698 m=5 n=4 restarts=2 iterations=80 seed=1\n",
            {"cap.json": "2a871947a5f07980ce75c9f1da72e65f40c2aeae3607430b4d4f28ec0dfe6ae4"},
            id="search-kernel-walk",
        ),
        # Every value up to m = 60 is below 10^9, so a last-bit difference in
        # the host's libm cannot reach the third decimal printed here.
        pytest.param(
            (*_TABLE_60, "csv"), None,
            {"stdout": "9365938623a446bea652d8d14d84e4adebb32bf55de0b892236f1123bfeafc14"},
            id="table-csv",
        ),
        pytest.param(
            (*_TABLE_60, "json"), None,
            {"stdout": "8c81e609245875bec5786f302e54d0826757666c77892371b73cf72e3c245570"},
            id="table-json",
        ),
        pytest.param(
            (*_TABLE_60, "text"), None,
            {"stdout": "708fc81af7ce07d9b722e36ff3cc1ec85653838646329755149327aa9ef6ef26"},
            id="table-text",
        ),
    ])
    def test_pinned_bytes(self, capsys, monkeypatch, tmp_path, argv, stdout, sha256):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        if stdout is not None:
            assert out == stdout
        written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        written["stdout"] = out.encode()
        assert {name: hashlib.sha256(written[name]).hexdigest() for name in sha256} == sha256


def _benchmark_oracles(monkeypatch):
    """perfbench/oracles.py, loaded read-only: no bytecode is written beside it."""
    from importlib.util import module_from_spec, spec_from_file_location

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "oracles.py")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = spec_from_file_location("perfbench_oracles", path)
    oracles = module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


class TestBenchmarkOracles:
    def test_battery_and_table_pass_the_benchmark_checks(self, capsys, monkeypatch):
        # The benchmark's oracles hold their own copy of the battery's lines,
        # so a drift from the CLI fails here first.
        oracles = _benchmark_oracles(monkeypatch)
        code, out, err = run_cli(capsys, "verify", "--seed", "0", "--format", "json")
        assert (code, err) == (0, "")
        assert oracles.check_battery(out, 0) == []
        code, out, err = run_cli(capsys, "table", "--m-min", "2", "--m-max", "60",
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert oracles.check_table(out, 2, 60) == []

    @pytest.mark.parametrize("m,n,restarts,iterations", [(3, 4, 16, 400), (4, 3, 8, 400)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_search_passes_the_benchmark_check(
        self, capsys, monkeypatch, tmp_path, m, n, restarts, iterations, seed
    ):
        # The benchmark's search shapes: the oracle recomputes the printed ratio
        # of the written tensor by brute force and holds it under the m-th bound.
        oracles = _benchmark_oracles(monkeypatch)
        out_path = tmp_path / "best.json"
        code, out, err = run_cli(capsys, "search", "--m", str(m), "--n", str(n),
                                 "--restarts", str(restarts), "--iterations", str(iterations),
                                 "--seed", str(seed), "--out", str(out_path))
        assert (code, err) == (0, "")
        ratio = float(out.split()[0].removeprefix("ratio="))
        assert oracles.check_search(load_form(out_path).coeffs, ratio) == []
