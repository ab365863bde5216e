"""Benchmark entry point for bhbounds.

    python3 perfbench/run.py --workload {cli,norm_wide,norm_deep,search}
                             --seed N --seconds T --trace {0,1} [--smoke]

Run from the root of a source tree (the package is used from ``src``, not
installed).  One run:

1. times ``import bhbounds`` in several fresh interpreters (set-up);
2. starts a fresh worker process (``workloads.py``) that repeats the
   workload's fixed round for T seconds and checks every output;
3. prints an environment-and-work JSON line, then, as the last line, the
   result ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the worker spends half of T untraced and half with the outside-in tracer
installed, and the metrics are the per-layer ones.  ``--smoke`` runs every
workload at tiny sizes with all its checks (see ``smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import FULL

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli", "norm_wide", "norm_deep", "search")
SETUP_RUNS = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "best_ratio": "ratio",
}

# Exact-norm shapes: the `verify --suite all` battery's bh and summing
# trials, then the search and norm workloads.
_SHAPES = ([(2, 2), (3, 3), (4, 2)] + [(m, n) for m, n, _, _ in FULL["search"]]
           + FULL["norm_wide"] + FULL["norm_deep"])


def _keys(name, which="calls busy_s self_s"):
    return [f"{name}.{suffix}" for suffix in which.split()]


PER_LAYER = (
    ["setup.numpy_import_s", "setup.bhbounds_import_s"]
    + _keys("cli.main", "calls self_s")
    + _keys("verify.run_bh_trials")
    + _keys("verify.check_multiple_summing", "busy_s self_s")
    + [key for suite in ("khinchine", "kcc", "blei", "tensor")
       for key in _keys(f"verify.run_{suite}_suite", "busy_s self_s")]
    + _keys("verify.check_rademacher_tensor", "calls busy_s")
    + _keys("verify.rademacher_moment", "calls busy_s")
    + ["verify.trials"]
    + _keys("verify.search_extremal")
    + ["search.proposals"]
    + _keys("forms.sup_norm_exact", "calls busy_s patterns patterns_per_s")
    + [f"forms.sup_norm_exact.m{m}n{n}.busy_s" for m, n in _SHAPES]
    + [key for fn in ("bh_ratio", "bh_lhs", "MultilinearForm", "multiple_summing_lhs")
       for key in _keys(f"forms.{fn}", "calls busy_s")]
    + _keys("constants.table", "calls busy_s")
    + _keys("constants.constant", "calls busy_s")
    + _keys("khinchine.khinchine_A", "calls busy_s")
    + _keys("exponents.bh_exponent", "calls busy_s")
    + ["trace.overhead_s"]
)


def unit_of(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


# Runs in a fresh interpreter; the clock starts before anything is imported,
# and the host-speed probes run before and after the timed imports.
_SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import hostspeed as h; p0 = h.probe()\n"
    "from time import perf_counter as c; t0 = c()\n"
    "import numpy; t1 = c()\n"
    "import bhbounds; t2 = c()\n"
    "p1 = h.probe()\n"
    "print(*(h.scale(t, p0, p1) for t in (t1 - t0, t2 - t1, t2 - t0)))\n"
)


def _python_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # One BLAS thread: no helper thread spins into the next host-speed probe.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def measure_setup(root, env):
    """Scaled medians over fresh interpreters: (numpy_s, bhbounds_s, total_s).

    One unrecorded interpreter comes first, so byte-compiling the package in a
    fresh checkout is not counted.
    """
    samples = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(HERE)], cwd=root, env=env,
                             capture_output=True, text=True, check=True).stdout
        if i:
            samples.append([float(x) for x in out.split()])
    return [statistics.median(column) for column in zip(*samples)]


def environment(root, seed, worker):
    cpu_model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        match = re.search(r"^model name\s*:\s*(.+)$", cpuinfo.read_text(), re.M)
        cpu_model = match.group(1) if match else None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "blas": worker["blas"],
        "blas_threads": worker["blas_threads"],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        "commit": commit,
        "seed": seed,
    }


def metrics_from(worker, setup, trace):
    if trace:
        layers = dict(worker["layers"])
        layers["setup.numpy_import_s"] = setup[0]
        layers["setup.bhbounds_import_s"] = setup[1]
        layers["trace.overhead_s"] = (statistics.median(worker["traced_scaled"])
                                      - statistics.median(worker["scaled"]))
        return {name: {"value": layers.get(name, 0), "unit": unit_of(name)}
                for name in PER_LAYER}
    walls = worker["scaled"]
    values = {
        "setup_s": setup[2],
        "wall_s": statistics.median(walls),
        "work_per_s": statistics.median(w / t for w, t in zip(worker["work"], walls)),
        "peak_rss_mb": worker["peak_rss_mb"],
        "best_ratio": worker["best_ratio"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every check; for testing the harness")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "bhbounds" / "__init__.py").is_file():
        print("error: run from the root of a bhbounds source tree (src/bhbounds missing)",
              file=sys.stderr)
        return 2
    env = _python_env(root)
    setup = measure_setup(root, env)
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.splitlines()[-1])
    block = {
        "environment": environment(root, args.seed, worker),
        "workload": args.workload,
        "rounds": worker["rounds"],
        "work_per_round": worker["work"][0],
        "round_walls_s": worker["walls"],
        "round_walls_scaled_s": worker["scaled"],
        "probes_s": worker["probes"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
    }
    print(json.dumps(block))
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics_from(worker, setup, args.trace),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
