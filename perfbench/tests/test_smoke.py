"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

Checks that every metric BENCHMARK.json names is printed with its unit,
and that a corrupted reference value shows up as failed ops.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root, workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    printed, result = run_bench(ROOT, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in printed)
    assert any(line.startswith("error_rate ") for line in printed)


def test_corrupted_catalog_reference_fails_rows(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, part), tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    reference = tmp_path / "perfbench" / "reference" / "catalog_deep.json"
    data = json.loads(reference.read_text())
    data["64"]["example3"]["rows"][0]["mmse"] += 1e-9
    reference.write_text(json.dumps(data))
    printed, result = run_bench(str(tmp_path), "catalog_deep", 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    rate = next(line for line in printed if line.startswith("error_rate "))
    assert float(rate.split()[1]) > 0.0


def _flip_first_lp(cases):
    """Cases with the built verdict of the first degradedness pair inverted."""
    out = list(cases)
    for i, case in enumerate(out):
        lp = case if isinstance(case, workloads.LpCase) else case.lp
        if lp is None:
            continue
        wrong = dataclasses.replace(lp, feasible=not lp.feasible)
        out[i] = wrong if lp is case else dataclasses.replace(case, lp=wrong)
        return out
    raise AssertionError("no degradedness case to corrupt")


@pytest.mark.parametrize("workload", ["garbling_lp", "small_joints"])
def test_corrupted_construction_fails_op(workload):
    make_pass, check = workloads.workload(workload, seed=7, tiny=True)
    clean, _ = workloads.closed_loop(make_pass, check, seconds=0.0)
    assert clean.failed == 0
    bad, _ = workloads.closed_loop(lambda i: _flip_first_lp(make_pass(i)),
                                   check, seconds=0.0)
    assert bad.failed == 1 and bad.attempted == clean.attempted
