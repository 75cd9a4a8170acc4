"""Benchmark runner: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload series|fock|tables --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
With --trace 0 the last line holds the end-to-end metrics (setup_s,
pass_s, scenario_geomean_s, peak_rss_mb); with --trace 1 it holds the
per-layer metrics of a separate traced run.  The line before it records
the run: BLAS threads, passes, per-scenario medians, failures.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

# One BLAS thread, never more than nproc: on a 2-vCPU host about one process
# in eight started with two OpenBLAS threads ran a 200x200 product 60 times
# slower, and none with one (README).
BLAS_THREADS = 1
SETUP_IMPORTS = 7  # fresh interpreters timed for setup_s, after one discarded
IMPORTTIME_RUNS = 3
DEADLINE_S = 170.0  # the whole run must end within 180 s

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import matrixwell.cli as c; "
    "print(time.perf_counter() - t); print(c.__file__)"
)
IMPORT_PACKAGES = ("numpy", "scipy", "matrixwell")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _check_source(path: str) -> None:
    if Path(path).resolve().parent != (SRC / "matrixwell").resolve():
        raise RuntimeError(f"imported matrixwell from {path}, not from {SRC}")


def setup_seconds(deadline: float) -> float:
    """Median import time of matrixwell.cli over fresh interpreters."""
    samples = []
    for i in range(SETUP_IMPORTS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        ).stdout.split()
        _check_source(out[1])
        if i:  # the first one compiles bytecode and warms the file cache
            samples.append(float(out[0]))
    return statistics.median(samples)


def import_breakdown(deadline: float) -> dict:
    """Median self import time per package, from `python -X importtime`."""
    runs = []
    for i in range(IMPORTTIME_RUNS + 1):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import matrixwell.cli"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        ).stderr
        totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            top = name.split(".")[0]
            if top in totals and self_us.isdigit():
                totals[top] += int(self_us) * 1e-6
        if i:
            runs.append(totals)
    return {f"import.{p}_s": statistics.median(r[p] for r in runs) for p in IMPORT_PACKAGES}


def run_worker(args, outdir: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--outdir", str(outdir),
    ]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _check_source(result["matrixwell_file"])
    return result


def check_passes(scenarios, ops, outdir: Path) -> dict:
    """Problems of every operation of every pass, keyed by scenario name.

    An operation fails when it raised, when its refusal broke the error
    contract, or when its report fails its check.
    """
    problems = {s.name: [] for s in scenarios}
    for i, pass_ops in enumerate(ops):
        for s in scenarios:
            _, problem = pass_ops[s.name]
            if problem is None and s.file is not None:
                problem = "; ".join(s.check(outdir / f"pass-{i}" / s.file)) or None
            if problem is not None:
                problems[s.name].append(problem)
    return problems


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "matrixwell" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'matrixwell'}", file=sys.stderr)
        return 1
    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    try:
        imports = import_breakdown(deadline) if args.trace else None
        setup_s = None if args.trace else setup_seconds(deadline)
        result = run_worker(args, outdir, deadline)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    scenarios = workloads.build(args.workload, args.seed)
    problems = check_passes(scenarios, result["ops"], outdir)
    for stale in sorted(outdir.glob("pass-*"))[:-1]:  # keep one pass to look at
        shutil.rmtree(stale)
    unexpected = [s.name for s in scenarios if problems[s.name] and not s.known_fault]
    reports = [s.name for s in scenarios if s.file is not None]
    measured = result["ops"][1:]
    widened = {s.name: s.check.widened() for s in scenarios if hasattr(s.check, "widened")}
    scenario_median = {s.name: statistics.median(p[s.name][0] for p in measured) for s in scenarios}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_seen": result["blas_threads"],
        "passes": len(measured),
        "scenario_median_s": scenario_median,
        "failures": {name: probs[0] for name, probs in problems.items() if probs},
        "widened": {name: text for name, text in widened.items() if text},
    }
    if args.trace:
        layers = result["layers"]
        metrics = {name: _metric(value, "s") for name, value in imports.items()}
        for name in tracing.LAYER_METRICS:
            unit = "s" if name.endswith("_s") else ("B" if "bytes" in name else "count")
            middle = statistics.median if unit == "s" else statistics.median_low  # counts stay whole
            metrics[name] = _metric(middle(p[name] for p in layers), unit)
        metrics["trace.pass_s"] = _metric(statistics.median(result["pass_s"]), "s")
        (outdir / "trace.json").write_text(json.dumps({"run": record, "passes": layers}, indent=1))
    else:
        geomean = math.exp(statistics.fmean(math.log(scenario_median[n]) for n in reports))
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "pass_s": _metric(statistics.median(result["pass_s"]), "s"),
            "scenario_geomean_s": _metric(geomean, "s"),
            "peak_rss_mb": _metric(result["peak_rss_kb"] / 1024.0, "MB"),
        }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(scenarios) * len(result["ops"]),
        "failed": sum(len(p) for p in problems.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
