"""The four benchmark workloads, run in a fresh worker process.

    python perfbench/workloads.py --workload W --seed S --seconds T --trace 0|1 [--smoke]

with ``src`` on PYTHONPATH.  Each workload is a closed loop with one
sequential client: it repeats a fixed round of work until T seconds have
passed and times each round.  Inputs come from the seed only.  Every
result is checked by ``oracles`` outside the timed region, and each
mismatch counts as one failed operation.  The last line of stdout is one
JSON object with the round times, work counts, operation counts, peak RSS
and, in a traced run, the per-layer medians.

Workloads (why each exists is in perfbench/README.md):

* ``cli``       one fresh process per command: ``verify --suite all`` at
                seed ``1000*S + r`` and a cold ``table`` to m = 2000.
* ``norm_wide`` exact ``bh_ratio`` at m in {2, 3}, N near the 24-bit budget.
* ``norm_deep`` the same check at m >= 4 with small N.
* ``search``    ``search_extremal`` at (3, 4) and (4, 3).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
import oracles
import tracer as tracing

HERE = Path(__file__).resolve().parent

FULL = {
    "norm_wide": [(2, 20), (2, 21), (2, 22), (3, 10), (3, 11), (3, 12)],
    "norm_deep": [(4, 6), (5, 5), (6, 4), (7, 3), (9, 2), (10, 2)],
    "search": [(3, 4, 16, 400), (4, 3, 8, 400)],
    "table_m_max": 2000,
}
SMOKE = {
    "norm_wide": [(2, 8), (3, 4)],
    "norm_deep": [(4, 3), (6, 2)],
    "search": [(3, 4, 2, 20), (4, 3, 1, 20)],
    "table_m_max": 20,
}
FORM_KINDS = ("sign", "gauss", "rank1")
_BLAS = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})


class Round:
    """One timed round: its wall time, work units, operations and problems."""

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0
        self.work = 0
        self.ops = 0
        self.failed = 0
        self.best_ratio = 0.0
        self.spans = []

    def check(self, problems, what):
        self.ops += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {what}: {problem}", file=sys.stderr)


def _round_seed(seed, r):
    return 1000 * seed + r


class NormWorkload:
    """Exact bh_ratio on one form per shape and round; the kind cycles."""

    warm_up = True

    def __init__(self, shapes, seed):
        self.shapes = shapes
        self.seed = seed

    def _form(self, r, m, n):
        rng = np.random.default_rng([self.seed, r, m, n])
        kind = FORM_KINDS[r % len(FORM_KINDS)]
        if kind == "sign":
            return rng.integers(0, 2, size=(n,) * m) * 2.0 - 1.0, None
        if kind == "gauss":
            return rng.standard_normal((n,) * m), None
        factors = [rng.standard_normal(n) for _ in range(m)]
        coeffs = factors[0]
        for a in factors[1:]:
            coeffs = np.multiply.outer(coeffs, a)
        return coeffs, factors

    def run(self, r, bh, tracer, clock):
        out = Round()
        inputs = [self._form(r, m, n) for m, n in self.shapes]
        if tracer:
            tracer.take()
        ratios = [clock.call(_exact_ratio, bh, coeffs) for coeffs, _ in inputs]
        if tracer:
            out.spans = tracer.take()
        out.work = sum(tracing.patterns(m, n) for m, n in self.shapes)
        for (m, n), (coeffs, factors), ratio in zip(self.shapes, inputs, ratios):
            lower = bh.sup_norm_lower(bh.MultilinearForm(coeffs))
            out.check(oracles.check_norm(coeffs, ratio, lower, factors), f"norm ({m},{n})")
        out.best_ratio = max(ratios)
        return out


class SearchWorkload:
    """search_extremal at fixed (m, N, restarts, iterations) per round."""

    warm_up = True

    def __init__(self, runs, seed):
        self.runs = runs
        self.seed = seed

    def run(self, r, bh, tracer, clock):
        out = Round()
        seed = _round_seed(self.seed, r)
        if tracer:
            tracer.take()
        states = [clock.call(bh.search_extremal, m, n, restarts=k, iterations=it, seed=seed)
                  for m, n, k, it in self.runs]
        if tracer:
            out.spans = tracer.take()
        out.work = sum(k * it for _, _, k, it in self.runs)
        for (m, n, _, _), state in zip(self.runs, states):
            coeffs = np.asarray(state.tensor.coeffs)
            out.check(oracles.check_search(coeffs, state.ratio), f"search ({m},{n})")
        out.best_ratio = states[0].ratio
        return out


class CliWorkload:
    """One `verify --suite all` and one cold `table` process per round."""

    warm_up = False

    def __init__(self, table_m_max, seed, scratch):
        self.table_m_max = table_m_max
        self.seed = seed
        self.scratch = scratch

    def _command(self, args, traced, clock):
        if traced:
            spans_file = Path(self.scratch) / "spans.json"
            prefix = [sys.executable, str(HERE / "tracer.py"), str(spans_file)]
        else:
            prefix = [sys.executable, "-m", "bhbounds.cli"]
        proc = clock.call(subprocess.run, prefix + args, capture_output=True, text=True)
        spans = []
        if traced:
            with open(spans_file) as fh:
                spans = json.load(fh)
            os.remove(spans_file)
        return proc, spans

    def run(self, r, bh, tracer, clock):
        out = Round()
        seed = _round_seed(self.seed, r)
        verify = ["verify", "--suite", "all", "--seed", str(seed), "--format", "json"]
        table = ["table", "--m-min", "2", "--m-max", str(self.table_m_max), "--format", "json"]
        traced = tracer is not None
        proc_v, spans_v = self._command(verify, traced, clock)
        proc_t, spans_t = self._command(table, traced, clock)
        out.spans = spans_v + _shift(spans_t, len(spans_v))
        out.work = sum(trials for _, trials in oracles.BATTERY)
        problems = [f"exit code {proc_v.returncode}"] if proc_v.returncode else []
        problems += oracles.check_battery(proc_v.stdout, seed)
        out.check(problems, "verify")
        if not problems:
            reports = [json.loads(line) for line in proc_v.stdout.splitlines()]
            out.best_ratio = max(d["max_ratio"] for d in reports if d["suite"] == "bh")
        problems = [f"exit code {proc_t.returncode}"] if proc_t.returncode else []
        out.check(problems + oracles.check_table(proc_t.stdout, 2, self.table_m_max), "table")
        return out


def _exact_ratio(bh, coeffs):
    return bh.bh_ratio(bh.MultilinearForm(coeffs))


def _shift(spans, offset):
    return [[name, parent + offset if parent >= 0 else -1, start, end, note]
            for name, parent, start, end, note in spans]


def self_check(bh, tracer):
    """The tracer sees every binding: 10 trials give 10 nested norm spans."""
    tracer.take()
    bh.run_bh_trials(2, 2, count=10, seed=0)
    spans = tracer.take()
    top = [i for i, span in enumerate(spans) if span[0] == "verify.run_bh_trials"]
    norms = [span for span in spans if span[0] == "forms.sup_norm_exact"]
    problems = []
    if len(top) != 1:
        problems.append(f"{len(top)} run_bh_trials spans, expected 1")
    elif len(norms) != 10 or any(span[1] != top[0] for span in norms):
        problems.append(f"{len(norms)} sup_norm_exact spans, expected 10 children")
    return problems


def _blas_threads():
    """Threads of the OpenBLAS loaded into this process, if it is OpenBLAS."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read_text()))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return getattr(handle, symbol)()
    return None


def _run_rounds(workload, bh, clock, seconds, r, tracer=None):
    """Rounds until ``seconds`` have passed; returns them and the next index."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        clock.reset()
        rnd = workload.run(r, bh, tracer, clock)
        rnd.wall, rnd.scaled = clock.raw, clock.scaled
        rounds.append(rnd)
        r += 1
    return rounds, r


def run(name, seed, seconds, trace, smoke, scratch):
    sizes = SMOKE if smoke else FULL
    import bhbounds as bh

    if name == "cli":
        workload = CliWorkload(sizes["table_m_max"], seed, scratch)
    elif name == "search":
        workload = SearchWorkload(sizes["search"], seed)
    else:
        workload = NormWorkload(sizes[name], seed)

    clock = hostspeed.Clock()
    warm = [workload.run(0, bh, None, clock)] if workload.warm_up else []
    r = len(warm)
    problems = [f"wrapper left bound at {where}" for where in tracing.wrapped_bindings()]
    untraced_s = seconds / 2 if trace else seconds
    rounds, r = _run_rounds(workload, bh, clock, untraced_s, r)
    result = {}
    traced = []
    if trace:
        tracer = tracing.Tracer().install()
        try:
            problems += self_check(bh, tracer)
            traced, r = _run_rounds(workload, bh, clock, seconds - untraced_s, r, tracer)
        finally:
            tracer.uninstall()
        problems += [f"wrapper left bound at {where}" for where in tracing.wrapped_bindings()]
        layers = [tracing.aggregate(rnd.spans) for rnd in traced]
        keys = sorted(set().union(*layers))
        result["layers"] = {k: statistics.median(d.get(k, 0) for d in layers) for k in keys}
        result["traced_walls"] = [rnd.wall for rnd in traced]
        result["traced_scaled"] = [rnd.scaled for rnd in traced]
    for problem in problems:
        print(f"FAILED tracer: {problem}", file=sys.stderr)
    everything = warm + rounds + traced
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    # The tracer checks (self-check, no wrapper left bound) count as one operation.
    result.update(
        walls=[rnd.wall for rnd in rounds],
        scaled=[rnd.scaled for rnd in rounds],
        probes=clock.probes,
        work=[rnd.work for rnd in rounds],
        attempted=sum(rnd.ops for rnd in everything) + 1,
        failed=sum(rnd.failed for rnd in everything) + (1 if problems else 0),
        best_ratio=everything[0].best_ratio,
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        rounds={"warm_up": len(warm), "timed": len(rounds), "traced": len(traced)},
        numpy=np.__version__,
        blas=" ".join(str(_BLAS.get(k)) for k in ("name", "version")),
        blas_threads=_blas_threads(),
    )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli", "norm_wide", "norm_deep", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=".") as scratch:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke, scratch)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
