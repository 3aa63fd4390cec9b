"""Squirrel simulator benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload storm-wide --seed 1 --seconds 40 --trace 0

Run from the repository root (the program is imported from ``src/``; no
build step). Every workload call runs in a fresh single-threaded child
interpreter (``child.py``) so memoised state never carries over. With
``--trace 0`` the run repeats the untraced call while the next one is
expected to end within half a call of ``--seconds``, and reports medians
of the end-to-end metrics; with
``--trace 1`` it makes one untraced call and two traced calls and reports
the per-layer metrics. Human-readable lines go first; the last line of
stdout is the JSON result. See ``README.md`` for the metrics and why each
workload is here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from layers import COUNT_METRICS, DERIVED_METRICS, TIMED_LAYERS  # noqa: E402
from workloads import SIM_METRICS, WORKLOADS  # noqa: E402

#: end-to-end metrics: name -> unit (all lower-is-better)
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}
#: set-up samples per run (untimed probes top up the measured calls)
MIN_SETUP_SAMPLES = 5
TRACED_CALLS = 2
#: the whole run must end within 180 s
DEADLINE_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    """The children's environment: single-threaded BLAS, and bytecode
    caching on (the warm-up child writes ``__pycache__``), so ``setup_s``
    measures imports as a user sees them whatever the caller's setting."""
    env = {**os.environ, **THREAD_ENV}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class BenchError(RuntimeError):
    """The benchmark could not measure (not an op failure)."""


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    metrics: dict[str, tuple[str, str]] = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer.name}.wall_s"] = ("s", "lower")
        metrics[f"{layer.name}.self_s"] = ("s", "lower")
        metrics[layer.calls_metric] = ("count", "lower")
    for name in COUNT_METRICS:
        metrics[name] = ("count", "lower")
    metrics.update(DERIVED_METRICS)
    for name, unit in SIM_METRICS.items():
        metrics[name] = (unit, "lower")
    return metrics


def check_manifest() -> None:
    """Fail if BENCHMARK.json names other metrics than this code emits."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    manifest = json.loads(path.read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in manifest["per_layer"]},
        "workloads": {w["name"] for w in manifest["workloads"]},
    }
    emitted = {
        "end_to_end": dict(END_TO_END),
        "per_layer": {name: unit for name, (unit, _) in per_layer_metrics().items()},
        "workloads": set(WORKLOADS),
    }
    for key, names in emitted.items():
        if declared[key] != names:
            raise BenchError(f"BENCHMARK.json {key} differs from what perfbench emits")


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one child to completion; returns its JSON plus timing."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{mode} call of {workload} passed the deadline") from error
    if proc.returncode != 0:
        raise BenchError(f"{mode} call of {workload} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} call of {workload} printed nothing")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - started
    out["wall_s"] = time.monotonic() - started
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """All children of one run: a discarded warm-up, the calls, and
    set-up probes up to MIN_SETUP_SAMPLES."""
    deadline = time.monotonic() + DEADLINE_S
    spawn(workload, seed, "probe", deadline)  # warms bytecode and page caches
    calls = []
    if trace:
        calls.append(spawn(workload, seed, "run", deadline))
        for _ in range(TRACED_CALLS):
            calls.append(spawn(workload, seed, "traced", deadline))
    else:
        started = time.monotonic()
        while True:
            call = spawn(workload, seed, "run", deadline)
            calls.append(call)
            # another call only if it is expected to end within half a
            # call of the budget
            if time.monotonic() - started + 0.5 * call["wall_s"] > seconds:
                break
    probes = [
        spawn(workload, seed, "probe", deadline)
        for _ in range(MIN_SETUP_SAMPLES - len(calls))
    ]
    return calls + probes


def _differs(calls: list[dict], key: str) -> bool:
    return any(call[key] != calls[0][key] for call in calls[1:])


def summarise(children: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """The result object and the problems that make it incorrect."""
    calls = [c for c in children if "run_s" in c]
    untraced = [c for c in calls if "layers" not in c]
    traced = [c for c in calls if "layers" in c]
    problems = [p for c in calls for p in c["problems"]]
    attempted = sum(c["planned"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    if _differs(calls, "digest") or _differs(calls, "outcomes"):
        problems.append("same seed gave different reports across calls")
        failed = attempted
    median = statistics.median
    if not trace:
        values = {
            "setup_s": median(c["setup_s"] for c in children),
            "run_s": median(c["run_s"] for c in untraced),
            "peak_rss_mib": median(c["peak_rss_mib"] for c in untraced),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        problems += [p for c in traced for p in c["trace_problems"]]
        specs = per_layer_metrics()
        counts = [n for n, (unit, _) in specs.items() if unit in ("count", "bytes")]
        if any(c["layers"][n] != traced[0]["layers"][n] for c in traced for n in counts):
            problems.append("same seed gave different work counts across traced calls")
        values = {
            name: traced[0]["layers"][name] if name in counts
            else median(c["layers"][name] for c in traced)
            for name in traced[0]["layers"]
        }
        values["import.wall_s"] = median(c["import_s"] for c in children)
        values["rss.after_setup_mib"] = median(c["rss_after_setup_mib"] for c in traced)
        values["trace.run_s"] = median(c["run_s"] for c in traced)
        values["trace.overhead_s"] = values["trace.run_s"] - median(c["run_s"] for c in untraced)
        for name in SIM_METRICS:
            values[name] = calls[0]["outcomes"].get(name, 0.0)
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in specs.items()}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program source under {ROOT / 'src'}")
        check_manifest()
        children = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    result, problems = summarise(children, bool(args.trace))
    for i, child in enumerate(children):
        timing = f"run_s={child['run_s']:.3f} " if "run_s" in child else ""
        kind = "traced" if "layers" in child else "run" if "run_s" in child else "probe"
        digest = f" sha256={child['digest'][:16]}" if "digest" in child else ""
        print(f"[{kind} {i}] {timing}setup_s={child['setup_s']:.3f}{digest}")
    first = next(c for c in children if "run_s" in c)
    print(f"outcomes: {json.dumps(first['outcomes'], sort_keys=True)}")
    print(f"report: {first['report_bytes']} bytes sha256={first['digest']}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
