"""Self-test of the benchmark at tiny sizes.

Checks that every metric BENCHMARK.json names, and every metric of the
full report, is printed by name with a unit. Run from the checkout root:

    python3 -m pytest perfbench/test_selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

END_TO_END = ("setup_s", "wall_s", "fail_frac", "peak_rss_mb", "trace.overhead_s")
MODES = {"wd200_compare": ("bt", "tlbt", "mtlbt"), "heat200_bt": ("bt",),
         "heat20k_tlbt": ("tlbt",), "desc1500_mtlbt": ("mtlbt",)}


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    report = next(line for line in lines if line.startswith("REPORT "))
    return json.loads(report[len("REPORT "):]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_last_line_has_every_benchmark_metric(workload, trace):
    _, result = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float)) and printed["value"] > 0, m["name"]


def test_full_report_names_every_metric_with_a_unit():
    report, result = _run("--workload", "all", "--seed", "3")
    assert result["attempted"] >= len(MODES)
    for workload, modes in MODES.items():
        names = (*END_TO_END, *tracing.LAYER_METRICS, *(f"E_T.{m}" for m in modes))
        for name in names:
            key = f"{workload}/{name}"
            assert key in result["metrics"], key
            assert result["metrics"][key]["unit"], key
        env = report[workload]["env"]
        for field in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "seed"):
            assert env[field] is not None, field


def test_trace_cross_check_counts_conjugate_pairs_once():
    shifts = [float("inf"), 2.0, complex(1, 3), complex(1, -3), 5.0]
    assert tracing.implied_solves(shifts) == 3
