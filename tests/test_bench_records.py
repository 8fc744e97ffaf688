"""Committed benchmark records (``BENCH_*.json``) agree with ``BENCHMARK.json``.

Each record holds the raw result lines of ``perfbench/run.py`` runs, tagged
with the workload and the side (``parent`` or ``change``) they measured, and
the per-side medians computed from them.  A run left out of the medians says
why under ``excluded``; a run with failed ops quotes the first under ``failure``.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_only_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["runs"]
    for run in record["runs"]:
        assert run["workload"] in WORKLOADS
        assert run["side"] in ("parent", "change")
        metrics = run["result"]["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == UNITS
    for workload, sides in record["medians"].items():
        assert workload in WORKLOADS
        for side, medians in sides.items():
            assert side in ("parent", "change")
            assert set(medians) <= set(UNITS)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_failed_op_and_excluded_run_is_accounted_for(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for run in record["runs"]:
        result = run["result"]
        assert result["correct"] == (result["failed"] == 0)
        if result["failed"]:
            assert run["failure"].startswith("op ")
        else:
            assert "failure" not in run
        if "excluded" in run:
            assert isinstance(run["excluded"], str) and run["excluded"]


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_each_median_is_the_median_of_its_runs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for workload, sides in record["medians"].items():
        for side, medians in sides.items():
            runs = [
                r
                for r in record["runs"]
                if (r["workload"], r["side"]) == (workload, side) and "excluded" not in r
            ]
            assert runs
            for name, median in medians.items():
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                assert median == pytest.approx(statistics.median(values), rel=1e-12, abs=0.0)
