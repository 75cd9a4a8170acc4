"""Run one workload in this process and print its raw timings as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --outdir DIR

`run.py` starts this with the BLAS thread count already fixed in the
environment and `src/` on PYTHONPATH; it is not meant to be run by hand.
One warm-up pass is run and discarded, then whole passes are repeated
until `--seconds` have gone by.  Reports are left on disk, one directory per
pass, for the runner to check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes
    import glob
    import os

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _operate(cli, scenario: workloads.Scenario, passdir: Path):
    """Run one scenario; return (seconds, problem or None)."""
    start = time.perf_counter()
    try:
        if scenario.file is None:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(list(scenario.argv))
            elapsed = time.perf_counter() - start
            return elapsed, "; ".join(scenario.check(code, err.getvalue())) or None
        cli.run(cli.parse_config([*scenario.argv, "--out", str(passdir / scenario.file)]))
    except Exception as e:  # a failed operation is counted, not fatal
        return time.perf_counter() - start, f"{type(e).__name__}: {e}"
    return time.perf_counter() - start, None


def run_pass(cli, scenarios, passdir: Path, tracer=None) -> dict:
    passdir.mkdir(parents=True, exist_ok=True)
    gc.collect()
    if tracer is not None:
        tracer.reset()
    ops = {s.name: _operate(cli, s, passdir) for s in scenarios}
    return {
        "pass_s": sum(seconds for seconds, _ in ops.values()),
        "ops": ops,
        "layers": tracer.metrics() if tracer is not None else None,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, outdir: Path, small: bool = False) -> dict:
    """A warm-up pass, then whole passes until `seconds` have gone by.

    Pass i writes its reports to outdir/pass-i; pass 0 is the warm-up.
    """
    from matrixwell import cli

    scenarios = workloads.build(workload, seed, small)
    tracer = tracing.Tracer() if trace else None
    passes = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        passes.append(run_pass(cli, scenarios, outdir / "pass-0", tracer))
        stop = time.perf_counter() + seconds
        while True:
            passes.append(run_pass(cli, scenarios, outdir / f"pass-{len(passes)}", tracer))
            if time.perf_counter() >= stop:
                break
    return {
        "ops": [p["ops"] for p in passes],
        "pass_s": [p["pass_s"] for p in passes[1:]],
        "layers": [p["layers"] for p in passes[1:]] if trace else None,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", type=Path, required=True)
    args = ap.parse_args()

    # cli.main would otherwise attach a handler to the captured stderr
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    import matrixwell.cli

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.outdir)
    result.update(
        matrixwell_file=matrixwell.cli.__file__,
        blas_threads=blas_threads(),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
