"""Smoke test: every workload at toy shapes, in seconds.

Checks that each run passes its correctness checks and prints exactly the
metric names and units ``BENCHMARK.json`` declares (end-to-end with
``--trace 0``, per-layer with ``--trace 1``), and that the benchmark
refuses to run from a copy that holds only its own files.

    python3 e2ebench/smoke_test.py          # or: python3 -m pytest e2ebench/smoke_test.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_runner():
    spec = importlib.util.spec_from_file_location("e2ebench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(runner, workload: str, trace: int) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = runner.main([
            "--workload", workload, "--seed", "0", "--seconds", "0.6",
            "--trace", str(trace), "--toy",
        ])
    assert code == 0, buffer.getvalue()
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def test_metric_names_and_units_match_benchmark_json():
    runner = _load_runner()
    # tom_day and cold_top are left out of BENCHMARK.json (see METRICS.md)
    # but stay runnable
    for workload in [w["name"] for w in BENCH["workloads"]] + ["tom_day", "cold_top"]:
        for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            result = _run(runner, workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace)
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result


def test_refuses_to_run_without_the_program():
    bare = HERE / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            BENCH["command"] + ["--workload", BENCH["workloads"][0]["name"],
                                "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_metric_names_and_units_match_benchmark_json()
    test_refuses_to_run_without_the_program()
    print("smoke test passed")
    sys.exit(0)
