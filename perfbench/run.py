"""Benchmark of the tasep2 pipeline: one workload, one process, checked.

    python3 perfbench/run.py --workload bethe_chain --seed 1 --seconds 20 --trace 0

runs passes of the workload for about `--seconds`: it starts no pass that
would likely end later (but runs at least one pass; with `--trace 1` at least
one untraced and one traced pass, taken in turn). With `--trace 0` it also
times seven cold set-ups, spread between the passes. The last line of
standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The line before it holds
the provenance and any failures. A copy of both, and with `--trace 1` the
spans of each traced pass, goes to `.perfbench_out/` at the root of the
checkout. See README.md.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import warmup

ROOT = warmup.ROOT
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def setup_probe():
    """Wall time of one cold set-up: a fresh interpreter, awaited, from
    launch to warmed up."""
    t0 = time.time()
    proc = subprocess.run([sys.executable, str(warmup.__file__)],
                          capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def run_pass(ops, tmp, tracer=None):
    """Run every operation once; returns (solve seconds, failures).

    Only the operations' `run` is timed (and traced). A raise or a missed
    bound counts the operation as failed, and the pass goes on.
    """
    solve_s, failures = 0.0, []
    for op in ops:
        workdir = Path(tempfile.mkdtemp(dir=tmp))
        try:
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    out = op.run(workdir)
                finally:
                    solve_s += time.perf_counter() - t0
            errors = op.check(out, workdir)
        except Exception as exc:  # counted as a failed operation
            traceback.print_exc(file=sys.stderr)
            errors = [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(workdir)
        if errors:
            failures.append({"operation": op.name, "errors": errors})
    return solve_s, failures


def provenance(nproc):
    import importlib.util
    import platform

    import numpy
    import scipy
    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def _git_commit():
    if not (ROOT / ".git").exists():  # else git would report an enclosing repo
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(workload, seed, seconds, trace, sizes=None, refs=None,
            probes=SETUP_PROBES):
    """Run one workload; returns (result, details, traced spans)."""
    # imported here: these load numpy, which must follow warmup.cap_threads
    import numpy as np

    import tracing
    import workloads
    from tasep2 import bethe

    sizes = workloads.FULL if sizes is None else sizes
    refs = workloads.load_references() if refs is None else refs
    ops = workloads.WORKLOADS[workload](seed, sizes, refs)

    tracer = tracing.Tracer() if trace else None
    plain, traced, layers, spans, failures, walls = [], [], [], [], [], []
    setups = []
    attempted = 0
    # CLI output goes to a directory of its own per run, inside the checkout
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp_") as tmp:
        while True:
            use_tracer = tracer if tracer and len(plain) > len(traced) else None
            if use_tracer:
                tracer.reset()
            t0 = time.perf_counter()
            solve_s, missed = run_pass(ops, tmp, use_tracer)
            walls.append(time.perf_counter() - t0)
            attempted += len(ops)
            failures += missed
            if use_tracer:
                traced.append(solve_s)
                per_pass = tracing.layer_metrics(tracer.spans)
                per_pass.update(tracing.time_residuals(
                    tracing.captured_roots(tracer.spans), bethe.bethe_residual))
                layers.append(per_pass)
                spans.append([s[:4] for s in tracer.spans])
            else:
                plain.append(solve_s)
            # set-up probes run between passes, as many so far as the share
            # of `seconds` used, so they see the same host as the passes
            elapsed = sum(walls)
            while not trace and len(setups) < min(
                    probes, math.ceil(probes * elapsed / max(seconds, 1e-9))):
                setups.append(setup_probe())
            # stop when one more pass would likely end past `seconds`
            done = len(plain) >= 1 and (not trace or len(traced) >= 1)
            if done and elapsed + statistics.median(walls) > seconds:
                break
    while not trace and len(setups) < probes:
        setups.append(setup_probe())

    if trace:
        metrics = {name: float(np.median([m[name] for m in layers]))
                   for name in tracing.PER_LAYER_UNITS
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.fmean(traced)
                                       - statistics.fmean(plain))
        units = tracing.PER_LAYER_UNITS
    else:
        metrics = {"setup_s": statistics.median(setups),
                   # the mean, not the median: the host's speed switches
                   # between phases lasting a few passes, and a median jumps
                   # from one phase to the other (see README, Noise)
                   "solve_s": statistics.fmean(plain),
                   "peak_rss_mb": tracing.peak_rss_mb()}
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    details = {"failures": failures, "setup_probe_s": setups,
               "pass_solve_s": plain, "traced_pass_solve_s": traced}
    return result, details, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bethe_chain", "ed_gap", "verify_small",
                                 "ed_verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = warmup.cap_threads()
    os.environ.pop("TASEP2_OUTPUT_DIR", None)
    try:
        warmup.import_program()
    except ImportError as exc:
        sys.stderr.write(f"cannot import tasep2 from {ROOT / 'src'}: {exc}\n")
        return 2
    warmup.warm_up()

    result, details, spans = measure(args.workload, args.seed, args.seconds,
                                     args.trace)
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "provenance": provenance(nproc), **details}
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as f:
        json.dump(dict(info, result=result,
                       span_fields=["name", "start", "end", "parent"],
                       spans=spans), f, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
