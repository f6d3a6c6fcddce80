"""Smoke test of the benchmark: every workload once, at reduced size.

Runs ``run.py`` exactly as a measurement run does, traced and untraced,
with ``--size smoke`` (a five-claim subset; n=2048 for the batch cell)
and checks the result line: correct, and every metric that
``BENCHMARK.json`` names present with its unit.  About half a minute::

    python3 perfbench/test_smoke.py        # or: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str) -> None:
    spec = _spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke_run(workload, trace)
        assert result["correct"] is True, result
        assert result["failed"] == 0 and result["attempted"] >= 1, result
        metrics = result["metrics"]
        for metric in spec[section]:
            name = metric["name"]
            assert name in metrics, f"{workload}: {name} missing"
            assert metrics[name]["unit"] == metric["unit"], (workload, name)
            assert isinstance(metrics[name]["value"], (int, float)), name
        extra = set(metrics) - {m["name"] for m in spec[section]}
        assert not extra, f"{workload}: metrics not in BENCHMARK.json: {extra}"


def test_workloads_listed():
    names = [w["name"] for w in _spec()["workloads"]]
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    assert names == list(WORKLOADS)
    for entry in _spec()["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def test_claims_quick():
    check_workload("claims-quick")


def test_claims_quick_warm():
    check_workload("claims-quick-warm")


def test_large_n_batch():
    check_workload("large-n-batch")


if __name__ == "__main__":
    test_workloads_listed()
    for name in [w["name"] for w in _spec()["workloads"]]:
        check_workload(name)
        print(f"ok {name}")
