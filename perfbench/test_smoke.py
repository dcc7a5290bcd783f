"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout:
  python3 -m pytest perfbench/test_smoke.py

It is not part of the package's test suite (pyproject's testpaths), because
each case starts the benchmark in a fresh interpreter.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=170)
    return out, out.stdout.splitlines()


def tiny(workload, *extra):
    out, lines = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--tiny", *extra)
    assert out.returncode == 0, out.stderr
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    lines, result = tiny(workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert f"failed_frac = 0.0 (0 of {result['attempted']} operations)" in lines
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']} (" in line for line in lines)


def corrupted_golden(workload):
    if workload == "library_calls":
        _, argv, _ = wl.library_cli_argvs(5, True, "out")[0]
        return {wl.golden_key(argv): {"out": "0" * 64}}
    return {wl.golden_key(wl.ccdf_argv(workload, 5, True, "out")): {"csv": "0" * 64}}


@pytest.mark.parametrize("workload", ["ccdf_sparse", "library_calls"])
def test_corrupted_golden_fingerprint_counts_as_failure(workload, tmp_path):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"fingerprints": corrupted_golden(workload)}))
    lines, result = tiny(workload, "--golden", str(golden))
    assert not result["correct"]
    assert result["failed"] >= 2  # the warm-up and every timed repetition
    assert "golden: 1 of" in "\n".join(lines)


def test_recorded_fingerprints_match_at_full_size():
    out, lines = bench("--workload", "ccdf_sparse", "--seed", "1", "--seconds", "0")
    result = json.loads(lines[-1])
    assert result["correct"], out.stderr
    assert "golden: 1 of 1 invocations checked against seed-commit fingerprints" in lines


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out, lines = bench("--workload", "ccdf_sparse", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in lines)
