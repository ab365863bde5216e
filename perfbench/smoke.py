"""Smoke tests for the benchmark harness: tiny sizes, every check.

    python3 perfbench/smoke.py          # or: python -m pytest perfbench/smoke.py

Run from the root of the source tree.  These tests gate correctness of
the harness and of the outputs it checks, never wall-clock time.  The file
name does not match pytest's default pattern, so the repository's own
test run does not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_every_workload_end_to_end():
    for workload in run.WORKLOADS:
        block, result = _bench(workload, 0)
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0, (workload, block)
        assert list(result["metrics"]) == list(run.END_TO_END)
        for metric in result["metrics"].values():
            assert metric["value"] > 0
        assert block["environment"]["seed"] == 3


def test_every_workload_traced():
    for workload in run.WORKLOADS:
        _, result = _bench(workload, 1)
        assert result["correct"], workload
        metrics = result["metrics"]
        assert list(metrics) == run.PER_LAYER
        assert metrics["forms.sup_norm_exact.calls"]["value"] > 0
        if workload == "cli":
            assert metrics["cli.main.calls"]["value"] == 2
            assert metrics["verify.trials"]["value"] == sum(t for _, t in oracles.BATTERY)
        if workload == "search":
            assert metrics["search.proposals"]["value"] == 2 * 20 + 20


def test_tracer_binds_everywhere_and_unwinds():
    import bhbounds
    from bhbounds import forms, verify
    from workloads import self_check

    originals = (verify.sup_norm_exact, forms.bh_exponent, bhbounds.run_bh_trials)
    tracer = tracing.Tracer().install()
    try:
        assert hasattr(verify.sup_norm_exact, tracing.MARKER)
        assert hasattr(forms.bh_exponent, tracing.MARKER)
        assert self_check(bhbounds, tracer) == []
    finally:
        tracer.uninstall()
    assert (verify.sup_norm_exact, forms.bh_exponent, bhbounds.run_bh_trials) == originals
    assert tracing.wrapped_bindings() == []


def test_aggregate_self_and_busy_time():
    spans = [
        ["verify.run_bh_trials", -1, 0.0, 10.0, {"trials": 4}],
        ["forms.sup_norm_exact", 0, 1.0, 3.0, {"m": 3, "N": 2}],
        ["forms.sup_norm_exact", 0, 4.0, 5.0, {"m": 3, "N": 2}],
        ["constants.constant", 0, 6.0, 9.0, None],
        ["constants.constant", 3, 7.0, 8.0, None],
    ]
    out = tracing.aggregate(spans)
    assert out["verify.run_bh_trials.self_s"] == 4.0
    assert out["verify.trials"] == 4
    assert out["forms.sup_norm_exact.m3n2.busy_s"] == 3.0
    assert out["forms.sup_norm_exact.patterns"] == 2 * 16
    assert out["constants.constant.calls"] == 2
    assert out["constants.constant.busy_s"] == 3.0


def test_oracles_reject_wrong_answers():
    littlewood = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert oracles.exact_norm(littlewood) == 2.0
    ratio = oracles.coefficient_norm(littlewood) / 2.0
    assert oracles.check_search(littlewood, ratio) == []
    assert oracles.check_search(littlewood, ratio * 1.01)
    a, b = np.array([1.0, -2.0]), np.array([3.0, 0.5])
    rank_one = np.multiply.outer(a, b)
    good = oracles.coefficient_norm(rank_one) / 10.5
    assert oracles.check_norm(rank_one, good, 10.0, [a, b]) == []
    assert oracles.check_norm(rank_one, good * 1.001, 10.0, [a, b])
    assert oracles.check_norm(rank_one, good, 11.0, None)
    assert oracles.check_table('{"rows": [{"m": 2, "values": {"new": {"exact_log2": '
                               'Infinity}}}]}', 2, 2)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
