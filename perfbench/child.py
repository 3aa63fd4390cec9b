"""One workload call in a fresh single-threaded interpreter.

Started by ``run.py`` (never imported). Modes:

* ``probe``  — import and build the inputs, then exit (a set-up sample),
* ``run``    — also make the entry call, untraced,
* ``traced`` — install the layer wrappers (:mod:`layers`) before the call.

Prints one JSON line. ``ready`` is ``time.monotonic()`` when the entry
became callable; CLOCK_MONOTONIC is system-wide, so the parent subtracts
its own spawn timestamp to get the set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _rss_mib() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS in /proc/self/status")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "traced"), required=True)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    importlib.import_module("repro.experiments")
    import_s = time.perf_counter() - started
    from repro.common import report as report_module
    from repro.experiments import ExperimentConfig, ExperimentContext, registry

    experiment = registry.get(workload.exp_id)
    params = experiment.validate(workload.params(args.seed))
    ctx = ExperimentContext(ExperimentConfig(quick=workload.quick))
    out: dict = {"ready": time.monotonic(), "import_s": import_s}
    if args.mode == "probe":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    out["rss_after_setup_mib"] = _rss_mib()
    started = time.perf_counter()
    result = experiment.run(ctx, **params)
    text = report_module.dumps_canonical(result)
    run_s = time.perf_counter() - started
    out["run_s"] = run_s
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    payload = text.encode()
    planned, completed = workload.ops(ctx, result)
    problems = workload.check(result)
    outcomes = workload.outcomes(result)
    problems += [f"{k} = {v} is not finite" for k, v in outcomes.items() if not math.isfinite(v)]
    out.update(
        digest=hashlib.sha256(payload).hexdigest(),
        report_bytes=len(payload),
        planned=planned,
        failed=planned if problems else planned - completed,
        problems=problems,
        outcomes=outcomes,
    )
    if tracer is not None:
        layers = tracer.metrics()
        layers["report.bytes"] = len(payload)
        trace_problems = tracer.cross_check()
        missing = sorted(workload.fires - tracer.fired())
        if missing:
            trace_problems.append(f"wrappers did not fire: {missing}")
        if layers["trace.self_sum_s"] > run_s:
            trace_problems.append(
                f"summed self times {layers['trace.self_sum_s']:.3f} s exceed run_s {run_s:.3f} s"
            )
        out.update(layers=layers, trace_problems=trace_problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
