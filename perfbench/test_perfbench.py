"""Smoke test of the benchmark itself: tiny inputs, every metric present.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# stage times each workload prints by name, besides the result line
STAGES = {
    "cohomology-qq": ("h2_s", "h3_s"),
    "cohomology-gfp": ("h2_s", "h3_s"),
    "deform-cli": ("cohomology_s", "integrate_s", "check_s", "obstruct_s",
                   "trivialize_s"),
}


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(STAGES))
def test_smoke_reports_every_metric_without_failures(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert any(line.startswith("fail_frac 0 ") for line in lines)
    expected = declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        printed = {line.split()[0] for line in lines[:-1]}
        assert set(STAGES[workload]) <= printed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "deform-cli", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
