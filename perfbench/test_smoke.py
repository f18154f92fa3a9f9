"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric the benchmark defines is reported with its unit,
that traced work counts repeat exactly across two runs of one seed, and
that the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

END_TO_END = {
    "cli_tests": {
        "setup_s": "s", "wall_s": "s", "failed_frac": "ratio", "skipped_frac": "ratio",
        "peak_rss_mb": "MB", "simple_n200_ms": "ms", "simple_n800_ms": "ms",
        "simple_full_ms": "ms", "gof_smoothed_ms": "ms", "composite_ms": "ms",
    },
    "bootstrap": {"setup_s": "s", "wall_s": "s", "stat_per_s": "1/s",
                  "failed_frac": "ratio", "peak_rss_mb": "MB"},
    "montecarlo": {"setup_s": "s", "wall_s": "s", "stat_per_s": "1/s",
                   "failed_frac": "ratio", "peak_rss_mb": "MB"},
}


def _smoke_reports() -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    reports = {}
    for line in proc.stdout.splitlines():
        if line.startswith("report: "):
            doc = json.loads(line[len("report: "):])
            reports[doc["workload"], doc["trace"]] = doc
    return reports


@pytest.fixture(scope="module")
def smoke_runs():
    return _smoke_reports(), _smoke_reports()


@pytest.fixture(scope="module")
def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_run_is_correct(smoke_runs):
    for reports in smoke_runs:
        assert set(reports) == {(w, t) for w in END_TO_END for t in (0, 1)}
        for doc in reports.values():
            assert doc["problems"] == []
            if doc["trace"] == 0:
                speed = doc["hostspeed"]
                assert speed["samples"] >= 10 and speed["factor"] > 0
            assert doc["provenance"]["seed"] == 0
            assert doc["provenance"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_metrics_present_with_units(smoke_runs, bench_spec):
    reports = smoke_runs[0]
    contract = {spec["name"]: spec["unit"] for spec in bench_spec["end_to_end"]}
    for workload, named in END_TO_END.items():
        metrics = reports[workload, 0]["metrics"]
        for name, unit in {**named, **contract}.items():
            assert metrics[name]["unit"] == unit, (workload, name)
        traced = reports[workload, 1]["metrics"]
        for spec in bench_spec["per_layer"]:
            assert traced[spec["name"]]["unit"] == spec["unit"], (workload, spec["name"])


def test_work_counts_repeat(smoke_runs):
    first, second = smoke_runs
    for workload in END_TO_END:
        a, b = first[workload, 1]["metrics"], second[workload, 1]["metrics"]
        counts = {k for k, v in a.items() if v["unit"] == "count"}
        assert counts
        assert {k: a[k]["value"] for k in counts} == {k: b[k]["value"] for k in counts}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bootstrap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
