"""Spans around the public functions of tasep2, recorded from outside it.

A `Tracer` replaces every reference to a wrapped function in the loaded
`tasep2.*` modules, so calls made inside the package (for example
`build_hamiltonian_tasep` from `cli.cmd_diag` or from
`bethe.calibrate_energy_map`) are recorded as well as the benchmark's own.
Spans are kept in memory as (name, start, end, parent, info) and turned into
per-layer metrics per pass by `layer_metrics`.
"""

import ctypes
import functools
import inspect
import os
import resource
import sys
import threading
import time

import numpy as np

# (module, function, span name); the span name's prefix is the layer.
WRAPPED = (
    ("tasep2.cli", "main", "cli.main"),
    ("tasep2.lattice", "build_hamiltonian_tasep", "lattice.build"),
    ("tasep2.lattice", "sector_packs", "lattice.enumerate"),
    ("tasep2.lattice", "project_momentum", "lattice.project"),
    ("tasep2.spectra", "krylov_gap", "spectra.krylov"),
    ("tasep2.spectra", "dense_spectrum", "spectra.dense"),
    ("tasep2.bethe", "solve_gap_chain", "bethe.chain"),
    ("tasep2.bethe", "continue_in_L", "bethe.step"),
    ("tasep2.bethe", "solve_bethe", "bethe.solve"),
    ("tasep2.bethe", "calibrate_energy_map", "bethe.calibrate"),
    ("tasep2.scaling", "run_scaling_study", "scaling.study"),
    ("tasep2.scaling", "local_exponent", "scaling.local_exponent"),
    ("tasep2.scaling", "bst_scan", "scaling.bst"),
    ("tasep2.scaling", "bst_extrapolate", "scaling.bst"),
    ("tasep2.yangbaxter", "check_yang_baxter", "yangbaxter.yb"),
    ("tasep2.yangbaxter", "transfer_hamiltonian_check", "yangbaxter.transfer"),
)

# chain sizes whose roots time one `bethe_residual` call (p = L/3 = 10, 50, 99)
RESIDUAL_LENGTHS = {30: "bethe.residual_us_p10", 150: "bethe.residual_us_p50",
                    297: "bethe.residual_us_p99"}
RESIDUAL_REPEATS = 9

PER_LAYER_UNITS = {
    "lattice.build_s": "s",
    "lattice.build_calls": "count",
    "lattice.configs": "count",
    "lattice.nnz": "count",
    "lattice.configs_per_s": "1/s",
    "lattice.enumerate_s": "s",
    "lattice.project_s": "s",
    "spectra.krylov_s": "s",
    "spectra.krylov_calls": "count",
    "spectra.krylov_dim": "count",
    "spectra.krylov_rss_delta_mb": "MB",
    "spectra.dense_s": "s",
    "spectra.dense_calls": "count",
    "bethe.steps": "count",
    "bethe.step_p50_s": "s",
    "bethe.step_p90_s": "s",
    "bethe.step_max_s": "s",
    "bethe.residual_us_p10": "us",
    "bethe.residual_us_p50": "us",
    "bethe.residual_us_p99": "us",
    "bethe.residual_max": "1",
    "bethe.calibrate_s": "s",
    "bethe.multistart_s": "s",
    "scaling.local_exponent_s": "s",
    "scaling.bst_s": "s",
    "yangbaxter.yb_s": "s",
    "yangbaxter.transfer_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def current_rss_mb():
    """Resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb():
    """Peak resident set size of this process (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build_after(out, info):
    return {"dim": out.dimension, "nnz": len(out.vals)}


class RssSampler:
    """Largest RSS of this process from start to `stop`, read from a thread
    every `interval` seconds (ru_maxrss cannot be reset, so a peak set by an
    earlier call would hide this one's)."""

    def __init__(self, interval=0.002):
        self.peak_mb = current_rss_mb()
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stop.wait(self._interval):
            self.peak_mb = max(self.peak_mb, current_rss_mb())

    def stop(self):
        self._stop.set()
        self._thread.join()
        return max(self.peak_mb, current_rss_mb())


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):
    _malloc_trim = None


def _krylov_before(call):
    # hand freed heap back first, so the call's own allocations (the LU
    # fill) raise the RSS instead of reusing pages kept from earlier calls
    if _malloc_trim is not None:
        _malloc_trim(0)
    return {"dim": call["gen"].dimension, "rss_before_mb": current_rss_mb(),
            "sampler": RssSampler()}


def _krylov_after(out, info):
    return {"rss_delta_mb": info.pop("sampler").stop() - info["rss_before_mb"]}


def _step_after(out, info):
    return {"length": out.length, "residual_norm": float(out.residual_norm),
            "roots": out if out.length in RESIDUAL_LENGTHS else None}


def _solve_before(call):
    return {"multistart": call.get("seed_roots") is None}


# span name -> (hook on the bound arguments, run before the call; hook on
# the result, run after a call that returned). Both run outside the span
# and fill its info dict.
INFO = {
    "lattice.build": (None, _build_after),
    "spectra.krylov": (_krylov_before, _krylov_after),
    "bethe.step": (None, _step_after),
    "bethe.solve": (_solve_before, None),
}


class Tracer:
    """Records spans around the functions in `WRAPPED`; the wrappers are in
    place only inside `with tracer:`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "tasep2" or name.startswith("tasep2.")]
        for modname, attr, span in WRAPPED:
            fn = getattr(sys.modules[modname], attr)
            before, after = INFO.get(span, (None, None))
            traced = self._wrap(fn, span, before, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, traced)
        return self

    def __exit__(self, *exc):
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches = []
        # a call that raised skipped its `after` hook
        for span in self.spans:
            if "sampler" in span[4]:
                span[4].pop("sampler").stop()

    def reset(self):
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name, before, after):
        clock = time.perf_counter
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = (before(sig.bind(*args, **kwargs).arguments) if before
                    else {})
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    info]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._stack.pop()
            if after:
                info.update(after(out, info))
            return out
        return traced


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _outermost(spans, name):
    """Spans called `name` whose parent span has another name."""
    return [s for s in spans
            if s[0] == name and (s[3] < 0 or spans[s[3]][0] != name)]


def time_residuals(roots_by_length, bethe_residual):
    """Median wall time of one `bethe_residual` call at each captured size."""
    out = {}
    for length, key in RESIDUAL_LENGTHS.items():
        roots = roots_by_length.get(length)
        if roots is None:
            out[key] = 0.0
            continue
        times = []
        for _ in range(RESIDUAL_REPEATS):
            t0 = time.perf_counter()
            bethe_residual(roots)
            times.append(time.perf_counter() - t0)
        out[key] = float(np.median(times)) * 1e6
    return out


def layer_metrics(spans):
    """Per-layer metrics of one pass from its spans (residual timings and
    trace totals are added by the caller)."""
    dur = [s[2] - s[1] for s in spans]
    cli_self_s = 0.0
    for i, s in enumerate(spans):
        if s[0] == "cli.main":
            cli_self_s += dur[i]
        elif s[3] >= 0 and spans[s[3]][0] == "cli.main":
            cli_self_s -= dur[i]

    def total(name):
        return sum(s[2] - s[1] for s in _outermost(spans, name))

    def named(name):
        return [s for s in spans if s[0] == name]

    builds = named("lattice.build")
    krylov = named("spectra.krylov")
    steps = [s[2] - s[1] for s in named("bethe.step")]
    build_s = total("lattice.build")
    configs = sum(s[4].get("dim", 0) for s in builds)
    residuals = [s[4]["residual_norm"] for s in named("bethe.step")
                 if "residual_norm" in s[4]]
    return {
        "lattice.build_s": build_s,
        "lattice.build_calls": len(builds),
        "lattice.configs": configs,
        "lattice.nnz": sum(s[4].get("nnz", 0) for s in builds),
        "lattice.configs_per_s": configs / build_s if build_s > 0 else 0.0,
        "lattice.enumerate_s": total("lattice.enumerate"),
        "lattice.project_s": total("lattice.project"),
        "spectra.krylov_s": total("spectra.krylov"),
        "spectra.krylov_calls": len(krylov),
        "spectra.krylov_dim": sum(s[4]["dim"] for s in krylov),
        "spectra.krylov_rss_delta_mb": max(
            (s[4].get("rss_delta_mb", 0.0) for s in krylov),
            default=0.0),
        "spectra.dense_s": total("spectra.dense"),
        "spectra.dense_calls": len(named("spectra.dense")),
        "bethe.steps": len(steps),
        "bethe.step_p50_s": _pct(steps, 50),
        "bethe.step_p90_s": _pct(steps, 90),
        "bethe.step_max_s": max(steps, default=0.0),
        "bethe.residual_max": max(residuals, default=0.0),
        "bethe.calibrate_s": total("bethe.calibrate"),
        "bethe.multistart_s": sum(s[2] - s[1] for s in named("bethe.solve")
                                  if s[4]["multistart"]),
        "scaling.local_exponent_s": total("scaling.local_exponent"),
        "scaling.bst_s": total("scaling.bst"),
        "yangbaxter.yb_s": total("yangbaxter.yb"),
        "yangbaxter.transfer_s": total("yangbaxter.transfer"),
        "cli.self_s": cli_self_s,
    }


def captured_roots(spans):
    """Chain root sets kept by the `bethe.step` spans, keyed by length."""
    return {s[4]["length"]: s[4]["roots"] for s in spans
            if s[0] == "bethe.step" and s[4].get("roots") is not None}
