"""Measurements behind two choices in bench/README.md.

    python3 bench/probe.py blas
    python3 bench/probe.py subprocess --workload NAME [--seed N]

`blas` starts PROCESSES fresh interpreters with one and with two OpenBLAS
threads and times a 200x200 complex matrix product in each, to show whether
some processes fall into a slow mode.  `subprocess` runs each scenario of a
workload once as `python -m matrixwell`, the way a user runs the CLI, and
prints the wall time of each and their sum.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads

PRODUCT_PROBE = """
import time, numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
samples = []
for _ in range(60):
    t = time.perf_counter(); a @ a; samples.append(time.perf_counter() - t)
samples.sort()
print(samples[len(samples) // 2] * 1e3)
"""
PROCESSES = 16  # interpreters per thread setting


def blas() -> dict:
    out = {}
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        ms = [
            float(subprocess.run([sys.executable, "-c", PRODUCT_PROBE], env=env, capture_output=True,
                                 text=True, check=True, timeout=60).stdout)
            for _ in range(PROCESSES)
        ]
        typical = statistics.median(ms)
        out[f"{threads}_threads"] = {
            "median_ms": typical,
            "max_ms": max(ms),
            "slow_processes": sum(m > 4 * typical for m in ms),
            "processes": PROCESSES,
        }
    return out


def cli_subprocess(workload: str, seed: int) -> dict:
    times = {}
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        for s in workloads.build(workload, seed):
            argv = list(s.argv) + (["--out", str(Path(tmp) / s.file)] if s.file else [])
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "matrixwell", *argv], env=run.child_env(),
                           cwd=run.ROOT, capture_output=True, timeout=120)
            times[s.name] = time.perf_counter() - start
    return {"workload": workload, "seed": seed, "scenario_s": times, "total_s": sum(times.values())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="what", required=True)
    sub.add_parser("blas")
    sp = sub.add_parser("subprocess")
    sp.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    sp.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.what == "blas":
        print(json.dumps(blas()))
    else:
        print(json.dumps(cli_subprocess(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
