"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest bench/test_smoke.py -q

Each run must print every metric of BENCHMARK.json by name with its unit,
end with the result object, report no failed op, and run every output check
of its workload at least once.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_prints_every_metric_and_runs_every_check(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1

    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) >= 3}
    for name, unit in want.items():
        assert printed.get(name) == unit, name
    assert printed.get("failed_ratio") == "ratio"

    checks_line = next(line for line in lines if line.startswith("checks "))
    ran = dict(item.split("=") for item in checks_line.split()[1:])
    for check in workloads.CHECKS[workload]:
        assert int(ran.get(check, 0)) >= 1, check
