import json

import numpy as np
import pytest

from bhbounds.cli import main
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

    def test_budget_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "bh", "--m", "5", "--n", "8")
        assert code == 2
        assert "budget" in err

    def test_nonpositive_count_exit_2(self, capsys):
        for count in ("0", "-3"):
            code, out, err = run_cli(
                capsys, "verify", "--suite", "khinchine", "--count", count, "--format", "json"
            )
            assert code == 2
            assert out == ""
            assert "count must be >= 1" in err

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

    def test_full_battery_green(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all("failures=0" in line for line in lines)


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

    def test_budget_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "search", "--m", "5", "--n", "8")
        assert code == 2
        assert "budget" in err


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command_exit_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2
