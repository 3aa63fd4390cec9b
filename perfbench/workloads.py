"""The benchmark's workloads: inputs from a seed, the entry call, the
output checks and the simulated outcomes.

Every workload calls a registered experiment through the public registry
(``registry.get(exp_id).run(ctx, **params)``), exactly as
``python -m repro <exp_id> ...`` does, with a fresh
:class:`~repro.experiments.ExperimentContext`. An *op* is one planned
simulated boot (both storm sides), registration, or hoarded image; it
fails if it never completes or if the call's output check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Workload", "WORKLOADS", "SIM_METRICS"]

GIB = float(1 << 30)

#: simulated outcomes: name -> unit. Each workload produces some of them;
#: they are deterministic per seed (a change that only speeds up the
#: simulator leaves them bit-identical)
SIM_METRICS = {
    "sim_boot_p50_s": "sim_s",
    "sim_boot_p99_s": "sim_s",
    "sim_register_p95_s": "sim_s",
    "sim_resync_gib": "GiB",
    "sim_cache_disk_gib": "GiB",
}

DAY_S = 86400.0
CHURN_NODES = 16


def _churn_crashes() -> str:
    """A fixed downtime plan for churn-write: every node is down twice,
    for 0.8 days each (the scenario's mean downtime), except that the
    second window of compute0-3 lasts 3 days, past the 2-day GC window,
    so those rejoins are full replications. The scenario's own random
    downtimes would make the resync count (and with it the call's cost)
    a Poisson draw per seed; this plan fixes it at 32 (28 incremental,
    4 full) and leaves the seed to drive registrations."""
    windows = []
    for i in range(CHURN_NODES):
        windows.append((i, 0.5 + 0.4 * i, 0.8))
        windows.append((i, 7.0 + 0.4 * i, 3.0 if i < 4 else 0.8))
    return ",".join(
        f"crash:compute{i}@{start * DAY_S:.0f}+{length * DAY_S:.0f}"
        for i, start, length in windows
    )


CHURN_FAULTS = _churn_crashes()
CHURN_RESYNCS = CHURN_FAULTS.count(",") + 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    exp_id: str
    #: seed -> raw experiment params (validated by the registry)
    params: Callable[[int], dict]
    #: (context, result) -> (planned ops, completed ops)
    ops: Callable[[Any, Any], tuple[int, int]]
    #: result -> failed output checks (empty when the output is correct)
    check: Callable[[Any], list[str]]
    #: result -> simulated outcomes (a subset of SIM_METRICS)
    outcomes: Callable[[Any], dict[str, float]]
    #: layers whose wrappers must fire in the traced run
    fires: frozenset[str]
    #: ExperimentConfig.quick: keep every quick-th image
    quick: int = 1


def _ordered(stats, label: str) -> list[str]:
    chain = (stats.p50, stats.p95, stats.p99, stats.maximum)
    if all(math.isfinite(v) for v in chain) and list(chain) == sorted(chain):
        return []
    return [f"{label}: percentiles out of order {chain}"]


def _storm_ops(ctx, result) -> tuple[int, int]:
    planned = 2 * result.report.n_nodes * result.report.vms_per_node
    done = result.report.squirrel.boots + result.report.baseline.boots
    return planned, done


def _storm_check(result) -> list[str]:
    report = result.report
    planned = report.n_nodes * report.vms_per_node
    problems = []
    for label, side in (("squirrel", report.squirrel), ("baseline", report.baseline)):
        if side.boots != planned:
            problems.append(f"{label}: {side.boots} boots, {planned} planned")
        if side.latency.count != side.boots:
            problems.append(f"{label}: latency.count {side.latency.count} != boots {side.boots}")
        problems += _ordered(side.latency, f"{label} latency")
    if report.squirrel.compute_ingress_bytes != 0:
        problems.append(
            f"squirrel compute_ingress_bytes {report.squirrel.compute_ingress_bytes} != 0"
        )
    return problems


def _storm_outcomes(result) -> dict[str, float]:
    latency = result.report.squirrel.latency
    return {"sim_boot_p50_s": latency.p50, "sim_boot_p99_s": latency.p99}


def _churn_ops(ctx, result) -> tuple[int, int]:
    report = result.report
    return report.registrations, report.register_latency.count


def _churn_check(result) -> list[str]:
    report = result.report
    problems = []
    if report.resyncs != report.incremental_resyncs + report.full_replications:
        problems.append(
            f"resyncs {report.resyncs} != incremental {report.incremental_resyncs} "
            f"+ full {report.full_replications}"
        )
    if report.register_latency.count != report.registrations:
        problems.append(
            f"register_latency.count {report.register_latency.count} != "
            f"registrations {report.registrations}"
        )
    if report.registrations == 0:
        problems.append("churn did no registrations")
    if report.resyncs != CHURN_RESYNCS:
        problems.append(f"{report.resyncs} resyncs, {CHURN_RESYNCS} crash windows planned")
    return problems + _ordered(report.register_latency, "register latency")


def _churn_outcomes(result) -> dict[str, float]:
    # scaled up to paper bytes, as the churn renderer reports "moved GB"
    return {
        "sim_register_p95_s": result.report.register_latency.p95,
        "sim_resync_gib": result.report.resync_bytes / result.config.scale / GIB,
    }


def _hoard_ops(ctx, result) -> tuple[int, int]:
    planned = len(ctx.specs)
    return planned, planned


def _hoard_check(result) -> list[str]:
    problems = []
    rows = list(zip(result.block_sizes, result.images_disk_gb, result.caches_disk_gb))
    if not rows:
        problems.append("no block sizes measured")
    for block_size, images, caches in rows:
        if not (math.isfinite(caches) and 0 < caches < images):
            problems.append(
                f"{block_size // 1024} KB: cache disk {caches} GiB not below "
                f"image disk {images} GiB"
            )
    if 65536 not in result.block_sizes:
        problems.append("no 64 KB point")
    return problems


def _hoard_outcomes(result) -> dict[str, float]:
    index = list(result.block_sizes).index(65536)
    return {"sim_cache_disk_gib": result.caches_disk_gb[index]}


_STORM_LAYERS = frozenset(
    {"sim.engine", "sim.pipe.transfers", "obs.spans", "obs.critical_path",
     "obs.attribution", "report.serialise"}
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="storm-wide",
            why="500 nodes x 1 VM: fleet-width layers lead (register fan-out to every "
            "node, ledger rows, sampler fleet sweeps, 500 cold flows on 4 brick pipes)",
            exp_id="storm",
            params=lambda seed: {"nodes": 500, "vms_per_node": 1, "seed": seed},
            ops=_storm_ops,
            check=_storm_check,
            outcomes=_storm_outcomes,
            fires=_STORM_LAYERS
            | {"vmi.catalog", "core.register", "net.multicast", "net.ledger_fanout",
               "metrics.scrape", "report.summary"},
        ),
        Workload(
            name="churn-write",
            why="16 nodes, 14 days, 20 registrations/day, 32 fixed crash windows: the write "
            "path (timed register, copy-on-write replica apply, zfs send/receive, resync, GC)",
            exp_id="churn",
            params=lambda seed: {
                "nodes": CHURN_NODES, "days": 14.0, "registrations_per_day": 20.0,
                "downtimes_per_node": 0.0, "seed": seed, "faults": CHURN_FAULTS,
            },
            ops=_churn_ops,
            check=_churn_check,
            outcomes=_churn_outcomes,
            fires=frozenset(
                {"sim.engine", "core.register", "core.replica_apply", "core.resync",
                 "core.gc", "zfs.send", "zfs.receive", "report.summary", "report.serialise"}
            ),
        ),
        Workload(
            name="hoard",
            why="fig08 over every 16th image, no event engine: the only workload whose work "
            "is image synthesis, codec calibration and pool accounting (fixed input)",
            exp_id="fig08",
            params=lambda seed: {},
            ops=_hoard_ops,
            check=_hoard_check,
            outcomes=_hoard_outcomes,
            fires=frozenset(
                {"vmi.catalog", "codecs.calibrate", "analysis.add_view", "report.serialise"}
            ),
            quick=16,
        ),
    )
}
