"""Self-test of the benchmark at reduced sizes.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import warmup  # noqa: E402

warmup.import_program()

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def refs():
    refs = workloads.load_references()
    refs["dense_gap"][(6, 2, 2)] = workloads.dense_reference_gap(6, 2, 2)
    return refs


def _measure(workload, trace, refs):
    return run.measure(workload, seed=3, seconds=0, trace=trace,
                       sizes=workloads.REDUCED, refs=refs, probes=1)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units(workload, trace, refs):
    result, details, spans = _measure(workload, trace, refs)
    assert details["failures"] == []
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())
    assert (len(spans) >= 1) == bool(trace)


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_wrong_reference_counts_one_failure(refs):
    wrong = dict(refs, dense_gap={(6, 2, 2): refs["dense_gap"][(6, 2, 2)]
                                  + 1e-6})
    result, details, _ = _measure("ed_gap", 0, wrong)
    assert result["attempted"] == 2
    assert result["failed"] == 1 and result["correct"] is False
    assert [f["operation"] for f in details["failures"]] == [
        "diag_L6_na2_nb2"]


def test_schema_validation():
    report = {"L": 6, "n_A": 2, "n_B": 2, "k": None, "gap_re": 0.5,
              "gap_im": 0.4, "method": "krylov", "dimension": 90,
              "zero_count": 1, "frozen": False}
    assert workloads.schema_errors(report, "diag.json") == []
    assert workloads.schema_errors(dict(report, extra=1), "diag.json")
    missing = {k: v for k, v in report.items() if k != "zero_count"}
    assert workloads.schema_errors(missing, "diag.json")
    assert workloads.schema_errors(dict(report, method="lanczos"),
                                   "diag.json")


def test_rss_sampler_sees_a_freed_allocation():
    import numpy as np
    import tracing
    before = tracing.current_rss_mb()
    sampler = tracing.RssSampler(interval=0.001)
    block = np.ones(64 * 2**20 // 8)  # 64 MB, touched
    time.sleep(0.05)
    del block
    assert sampler.stop() - before > 48
