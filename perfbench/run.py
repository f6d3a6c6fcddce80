"""The repository benchmark: claims verification and the large-n cell.

Run from the repository root::

    python3 perfbench/run.py --workload claims-quick --seed 0 --seconds 30 --trace 0

One process, ``jobs=1``: no fork pool, no extra threads.  The run sets
up (imports, plus the cache fill for ``claims-quick-warm``), then runs
passes of the workload until ``--seconds`` would be exceeded, checking
every pass's output.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics of the untraced passes; with ``--trace 1`` the
run alternates traced and untraced passes and reports the per-layer
metrics of the traced ones plus the tracing overhead.  A full report,
and the spans of a traced run, land in ``perfbench/.work/reports/``.

Exit status: 0 when every check passed, 1 when a check failed (the
result line still prints, with ``"correct": false``), 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Fresh interpreters timed importing the program; set-up is their median.
IMPORT_SAMPLES = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "claims_decided": "count",
    "valid_trial_frac": "ratio",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "hit_rate")):
        return "ratio"
    if name.endswith("us_per_round"):
        return "us"
    if name.endswith("bytes_per_slot"):
        return "B"
    if name.endswith("per_trial"):
        return "1/trial"
    return "count"


def import_program() -> None:
    from workloads import SETUP_MODULES

    for module in SETUP_MODULES:
        importlib.import_module(module)


def time_imports(samples: int) -> List[float]:
    """Seconds for fresh interpreters to start and import the program."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--import-only"],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def provenance(seed: int) -> Dict[str, object]:
    """Where and on what this result was measured."""
    import numpy

    revision: Optional[str] = None
    dirty: Optional[bool] = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, check=True,
                timeout=30,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


class Pass:
    """One timed pass and what its checks found."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.wall_s = 0.0
        self.record = None
        self.check = None
        self.problems: List[str] = []
        self.layer_metrics: Dict[str, float] = {}

    def to_record(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "traced": self.traced,
            "wall_s": self.wall_s,
            "fingerprint": self.record.fingerprint,
            "trials": self.record.trials,
            "rounds": self.record.rounds,
            "expected_invalid": self.record.expected_invalid,
            "unexpected_invalid": self.record.unexpected_invalid,
            "decided": self.check.decided if self.check else None,
            "detail": self.check.detail if self.check else {},
            "problems": self.problems,
        }


def run_pass(workload, probe, index: int, traced: bool) -> Pass:
    from layers import pass_metrics
    from repro.obs.registry import Registry, recording

    result = Pass(index, traced)
    prepared = workload.prepare()
    result.record = probe.start_pass(index, traced)
    registry = Registry()
    output = None
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with recording(registry) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                output = workload.run(prepared)
            finally:
                result.wall_s = time.perf_counter() - start
                probe.traced = False
    except Exception as error:  # a failing pass is reported, not fatal
        traceback.print_exc()
        result.problems.append(f"{type(error).__name__}: {error}")
    finally:
        workload.cleanup(prepared)
    if output is not None:
        result.check = workload.check(output)
        result.problems.extend(result.check.problems)
    if result.record.quarantined:
        result.problems.append(f"{result.record.quarantined} quarantined trials")
    if traced:
        result.layer_metrics = pass_metrics(
            probe, index, result.wall_s, registry.counter_values(),
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb,
        )
    return result


def measure(workload, probe, seconds: float, trace: bool) -> List[Pass]:
    """Passes until the next one would overrun ``seconds``.

    A traced run alternates traced and untraced passes, traced first
    (so the batch kernel's memory growth is measured from a cold
    process), and runs at least one of each.
    """
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(workload, probe, len(passes), traced))
        if passes[-1].problems:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) < (2 if trace else 1):
            continue
        if elapsed + typical > seconds:
            break
    return passes


def end_to_end(passes: List[Pass], setup_s: float) -> Dict[str, float]:
    untraced = [p for p in passes if not p.traced]
    last = untraced[-1]
    trials = last.record.trials
    return {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "trials_per_s": statistics.median(
            p.record.trials / p.wall_s for p in untraced
        ),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "claims_decided": last.check.decided,
        "valid_trial_frac": 1.0 - last.record.unexpected_invalid / max(1, trials),
    }


def per_layer(passes: List[Pass]) -> Dict[str, float]:
    traced = [p for p in passes if p.traced]
    untraced_wall = statistics.median(p.wall_s for p in passes if not p.traced)
    metrics = {
        name: statistics.median(p.layer_metrics[name] for p in traced)
        for name in traced[0].layer_metrics
    }
    # Peak-RSS growth shows only in the first pass of a process.
    metrics["radio.batch.bytes_per_slot"] = traced[0].layer_metrics[
        "radio.batch.bytes_per_slot"
    ]
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced_wall
    return metrics


def write_report(path: Path, report: Dict[str, object], probe, traced: bool) -> None:
    from probe import ATTR, END, LAYER, NAME, PARENT, PASS, START

    path.parent.mkdir(parents=True, exist_ok=True)
    path.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n")
    if not traced:
        return
    with open(path.with_suffix(".spans.jsonl"), "w") as out:
        for span in probe.spans:
            out.write(json.dumps({
                "name": span[NAME], "layer": span[LAYER], "start": span[START],
                "end": span[END], "parent": span[PARENT], "pass": span[PASS],
                "attr": span[ATTR],
            }) + "\n")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: reduced inputs through the same code path",
    )
    parser.add_argument("--import-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.import_only and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.import_only:
        import_program()
        return 0

    from probe import EXPECTED_INVALID_GROUPS, Probe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time_imports(IMPORT_SAMPLES)
    import_program()
    WORK.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size == "smoke", WORK)

    with Probe() as probe:
        fill = probe.start_pass(-1, False)
        start = time.perf_counter()
        workload.setup()
        setup_s = statistics.median(import_s) + time.perf_counter() - start
        try:
            passes = measure(workload, probe, args.seconds, bool(args.trace))
        finally:
            workload.teardown()

    problems = [f"pass {p.index}: {msg}" for p in passes for msg in p.problems]
    fingerprints = {p.record.fingerprint for p in passes}
    if fill.trials:  # a cache fill must match what the cache serves
        fingerprints.add(fill.fingerprint)
    if len(fingerprints) != 1:
        problems.append(f"simulated results differ between passes: "
                        f"{sorted(fingerprints)}")
    if not passes[-1].record.trials:
        problems.append("no trials ran")
    correct = not problems

    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}
    if correct:
        if args.trace:
            metrics = per_layer(passes)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = end_to_end(passes, setup_s)
            units = END_TO_END_UNITS
    report = {
        "workload": workload.name,
        "why": workload.why,
        "provenance": provenance(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "import_samples_s": import_s,
        "setup_s": setup_s,
        "fingerprint": passes[-1].record.fingerprint,
        "expected_invalid_groups": EXPECTED_INVALID_GROUPS,
        "passes": [p.to_record() for p in passes],
        "problems": problems,
        "metrics": metrics,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{args.size}"
    path = WORK / "reports" / name
    write_report(path, report, probe, bool(args.trace))

    last = passes[-1]
    print(f"provenance: {json.dumps(report['provenance'], sort_keys=True)}")
    print(f"fingerprint: {last.record.fingerprint} sim.trials={last.record.trials} "
          f"sim.rounds={last.record.rounds}")
    if last.check is not None and last.check.detail.get("verdicts"):
        print("verdicts: " + ", ".join(
            f"{claim}={verdict}"
            for claim, verdict in last.check.detail["verdicts"].items()
        ))
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"report: {path.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(passes),
        "failed": sum(1 for p in passes if p.problems) or int(not correct),
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
