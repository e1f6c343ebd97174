"""``--smoke`` end to end: all four workloads, untraced and traced, at
toy sizes, with the printed names held against ``BENCHMARK.json``."""

import json
import os
import subprocess
import sys

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))


def test_smoke_runs_every_workload_and_names_match():
    proc = subprocess.run([sys.executable, os.path.join(E2E, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        assert f"{workload['name']}  seed=" in proc.stdout
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert f"  {metric['name']} " in proc.stdout
    assert "failed=0" in proc.stdout and "SMOKE FAILED" not in proc.stdout
    for name in ("alg2_solo", "pbs_pool", "lwe_open", "lwe_sat"):
        with open(os.path.join(E2E, "out", f"trace_{name}.jsonl")) as fh:
            span = json.loads(fh.readline())
        assert {"id", "name", "start", "end", "parent", "request"} <= set(span)


def test_refuses_to_run_without_the_repository(tmp_path):
    """The contract: in a directory holding only BENCHMARK.json and the
    benchmark's own files the command fails and prints no result."""
    import shutil
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "lwe_sat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
