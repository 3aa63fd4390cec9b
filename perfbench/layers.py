"""Traced-run harness: wrap the public calls of each ``repro`` layer.

The wrappers live here, in the benchmark, and are installed only in the
traced child process; the program's own tracing (``repro.obs``) and its
``RuntimeProfiler`` phases are not used. Each wrapper is patched in where
its callers look the name up: a method on its class, a function in its
defining module *and* in every ``repro`` module that imported it by name
(``critical_path_block`` is bound into ``repro.workload.scenarios``). A
target that is missing, is a generator, or is overridden in a subclass
fails loudly, so a later rename cannot silently zero a layer.

Timed layers record wall time (outermost activations only, so re-entry
does not double-count), self time (duration minus the wrapped calls
inside it) and calls. Count-only targets add no clock reads: they sit on
the hottest paths (one call per pipe flow, span or sample).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "Target",
    "TIMED_LAYERS",
    "COUNT_METRICS",
    "DERIVED_METRICS",
    "Tracer",
]


@dataclass(frozen=True)
class Target:
    """One wrapped call: ``module`` + ``name`` (``Class.method`` or a
    module-level function) feeding layer ``layer``."""

    module: str
    name: str
    layer: str
    #: count-only targets: ``rows(*args, **kwargs)`` gives the count to add
    #: per call (default 1); timed targets leave this ``None``
    rows: Callable[..., int] | None = None
    count_only: bool = False


@dataclass(frozen=True)
class Layer:
    """A timed layer and the name its call count is reported under."""

    name: str
    calls_metric: str


#: timed layers, in report order; metric names ``<layer>.wall_s``,
#: ``<layer>.self_s`` and the layer's calls metric
TIMED_LAYERS = (
    Layer("vmi.catalog", "vmi.catalog.views"),
    Layer("codecs.calibrate", "codecs.calibrate.calls"),
    Layer("analysis.add_view", "analysis.add_view.calls"),
    Layer("core.register", "core.register.calls"),
    Layer("core.replica_apply", "core.replica_apply.calls"),
    Layer("core.resync", "core.resync.calls"),
    Layer("core.gc", "core.gc.calls"),
    Layer("net.multicast", "net.multicast.calls"),
    Layer("net.ledger_fanout", "net.ledger_fanout.calls"),
    Layer("zfs.send", "zfs.send.calls"),
    Layer("zfs.receive", "zfs.receive.calls"),
    Layer("sim.engine", "sim.engine.calls"),
    Layer("metrics.scrape", "metrics.scrapes"),
    Layer("obs.critical_path", "obs.critical_path.calls"),
    Layer("obs.attribution", "obs.attribution.calls"),
    Layer("report.summary", "report.summary.calls"),
    Layer("report.serialise", "report.serialise.calls"),
)

#: count-only metrics (unit ``count``)
COUNT_METRICS = (
    "sim.pipe.transfers",
    "obs.spans",
    "metrics.samples",
    "net.ledger_rows",
    "sim.engine.events",
)

#: the remaining per-layer metrics: name -> (unit, better)
DERIVED_METRICS = {
    "sim.engine.events_per_s": ("1/s", "higher"),
    "report.bytes": ("bytes", "lower"),
    "import.wall_s": ("s", "lower"),
    "rss.after_setup_mib": ("MiB", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
}


def _fanout_rows(self, src, dsts, *args, **kwargs) -> int:
    return len(dsts)


def _cleared_rows(self) -> int:
    return len(self.transfers)


TARGETS = (
    Target("repro.vmi.catalog", "LazyImageCatalog.block_view", "vmi.catalog"),
    Target("repro.vmi.catalog", "LazyImageCatalog.grain_stream", "vmi.catalog"),
    Target("repro.codecs.estimator", "SizeEstimator.calibrate", "codecs.calibrate"),
    Target("repro.analysis.accounting", "PoolAccountant.add_view", "analysis.add_view"),
    Target("repro.core.squirrel", "Squirrel.register", "core.register"),
    Target("repro.core.replica", "ReplicaStore.apply", "core.replica_apply"),
    Target("repro.core.squirrel", "Squirrel.resync_node", "core.resync"),
    Target("repro.core.squirrel", "Squirrel.collect_garbage", "core.gc"),
    Target("repro.net.multicast", "multicast", "net.multicast"),
    Target("repro.net.topology", "TransferLedger.record_fanout", "net.ledger_fanout"),
    Target("repro.zfs.send", "generate_send", "zfs.send"),
    Target("repro.zfs.send", "receive", "zfs.receive"),
    Target("repro.sim.engine", "Engine.run", "sim.engine"),
    Target("repro.metrics.sampler", "Sampler.scrape", "metrics.scrape"),
    Target("repro.obs.analyze", "critical_path_block", "obs.critical_path"),
    Target("repro.obs.attribution", "attribution_block", "obs.attribution"),
    Target("repro.sim.timeline", "Timeline.summary", "report.summary"),
    Target("repro.common.report", "dumps_canonical", "report.serialise"),
    # count-only
    Target("repro.sim.resources", "Pipe.transfer", "sim.pipe.transfers", count_only=True),
    Target("repro.obs.spans", "SpanTracer.span", "obs.spans", count_only=True),
    Target("repro.metrics.store", "TimeSeriesStore.append", "metrics.samples", count_only=True),
    Target(
        "repro.net.topology", "TransferLedger.record_fanout", "ledger.rows_added",
        rows=_fanout_rows, count_only=True,
    ),
    Target("repro.net.topology", "TransferLedger.record", "ledger.rows_added", count_only=True),
    Target(
        "repro.net.topology", "TransferLedger.clear", "ledger.rows_cleared",
        rows=_cleared_rows, count_only=True,
    ),
)


@dataclass
class _Stat:
    wall_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    depth: int = 0


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@dataclass
class Tracer:
    """Installs every target's wrapper and accumulates per-layer stats."""

    stats: dict[str, _Stat] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    #: instances whose own counters the wrapper counts are checked against
    engines: dict[int, object] = field(default_factory=dict)
    samplers: dict[int, object] = field(default_factory=dict)
    ledgers: dict[int, object] = field(default_factory=dict)
    events: int = 0
    _stack: list[list[float]] = field(default_factory=list)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Patch every target; raises if one cannot be patched faithfully."""
        for layer in TIMED_LAYERS:
            self.stats[layer.name] = _Stat()
        for target in TARGETS:
            if target.count_only:
                self.counts.setdefault(target.layer, 0)
            elif target.layer not in self.stats:
                raise RuntimeError(f"target {target.name} names unknown layer {target.layer}")
            self._patch(target)

    def _patch(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.name.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type) or attr not in owner.__dict__:
                raise RuntimeError(f"benchmark target {target.module}.{target.name} is missing")
            raw = owner.__dict__[attr]
            kind = type(raw)
            fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
            overriding = [s.__qualname__ for s in _subclasses(owner) if attr in s.__dict__]
            if overriding:
                raise RuntimeError(
                    f"benchmark target {target.name} is overridden in {overriding}; "
                    "wrap the overrides too"
                )
        else:
            fn = getattr(module, attr, None)
            if fn is None:
                raise RuntimeError(f"benchmark target {target.module}.{target.name} is missing")
        if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
            raise RuntimeError(
                f"benchmark target {target.name} must be a plain function to be timed"
            )
        wrapper = self._wrap(target, fn)
        if owner_name:
            setattr(owner, attr, kind(wrapper) if kind in (classmethod, staticmethod) else wrapper)
            return
        sites = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if (mod_name == "repro" or mod_name.startswith("repro."))
            and getattr(mod, attr, None) is fn
        ]
        for mod in sites:
            setattr(mod, attr, wrapper)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        if target.count_only:
            return self._count_wrapper(target, fn)
        stat = self.stats[target.layer]
        stack = self._stack
        clock = time.perf_counter
        instances = {"sim.engine": self.engines, "metrics.scrape": self.samplers}.get(
            target.layer
        )
        counts_events = target.layer == "sim.engine"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if instances is not None:
                instances[id(args[0])] = args[0]
            events_before = args[0].events_processed if counts_events else 0
            frame = [clock(), 0.0]
            stack.append(frame)
            stat.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stat.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                stat.depth -= 1
                if stat.depth == 0:
                    stat.wall_s += duration
                stat.calls += 1
                if counts_events:
                    self.events += args[0].events_processed - events_before

        return timed

    def _count_wrapper(self, target: Target, fn: Callable) -> Callable:
        counts = self.counts
        key = target.layer
        rows = target.rows
        ledgers = self.ledgers if key.startswith("ledger.") else None

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1 if rows is None else rows(*args, **kwargs)
            if ledgers is not None:
                ledgers[id(args[0])] = args[0]
            return fn(*args, **kwargs)

        return counted

    # -- results ----------------------------------------------------------------

    def cross_check(self) -> list[str]:
        """Wrapper counts vs the program's own counters; returns mismatches."""
        problems = []
        program_events = sum(e.events_processed for e in self.engines.values())
        if program_events != self.events:
            problems.append(
                f"engine events: wrapped Engine.run drained {self.events}, "
                f"Engine.events_processed says {program_events}"
            )
        program_scrapes = sum(s.scrapes for s in self.samplers.values())
        if program_scrapes != self.stats["metrics.scrape"].calls:
            problems.append(
                f"sampler scrapes: wrapper saw {self.stats['metrics.scrape'].calls}, "
                f"Sampler.scrapes says {program_scrapes}"
            )
        held = sum(len(ledger.transfers) for ledger in self.ledgers.values())
        added, cleared = self.counts["ledger.rows_added"], self.counts["ledger.rows_cleared"]
        if added != cleared + held:
            problems.append(
                f"ledger rows: wrappers recorded {added}, ledgers hold {held} "
                f"after {cleared} cleared"
            )
        return problems

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this traced call (times in seconds)."""
        out: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            stat = self.stats[layer.name]
            out[f"{layer.name}.wall_s"] = stat.wall_s
            out[f"{layer.name}.self_s"] = stat.self_s
            out[layer.calls_metric] = stat.calls
        out["sim.pipe.transfers"] = self.counts["sim.pipe.transfers"]
        out["obs.spans"] = self.counts["obs.spans"]
        out["metrics.samples"] = self.counts["metrics.samples"]
        out["net.ledger_rows"] = self.counts["ledger.rows_added"]
        out["sim.engine.events"] = self.events
        engine_wall = self.stats["sim.engine"].wall_s
        out["sim.engine.events_per_s"] = self.events / engine_wall if engine_wall else 0.0
        out["trace.self_sum_s"] = sum(s.self_s for s in self.stats.values())
        return out

    def fired(self) -> set[str]:
        """Layers (timed and count-only) whose wrappers ran at least once."""
        layers = {name for name, stat in self.stats.items() if stat.calls}
        layers |= {name for name, count in self.counts.items() if count}
        return layers
