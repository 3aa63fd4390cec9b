"""Runtime health telemetry: observe the *simulator*, not the simulation.

Everything else in :mod:`repro.obs` observes the modelled cluster on the
simulated clock. This module observes the host process running it: how
long each phase of a run took in wall-clock terms, how fast the event
engine is chewing through its queue (events/second and simulated-seconds
per wall-second), the RSS high-water mark, and — for sweeps — how long
each point took. Two consumers:

* the ``runtime`` block (:meth:`RuntimeProfiler.block`): a JSON-able
  summary emitted *next to* reports (``runtime.json`` in ``--metrics`` and
  sweep store directories, a tagged trailer line in sweep manifests, a
  stderr line from the CLI). It is **never** embedded in the canonical
  report payload: wall-clock numbers differ run to run, and the pinned
  byte-identity invariants (same-seed exports, ``--workers`` 1-vs-N) must
  keep holding with profiling enabled. The block's *shape* is
  deterministic — stable keys, sorted phases — only its values are
  measurements.
* the live progress heartbeat (:class:`ProgressReporter`, CLI
  ``--progress``): stderr-only lines with the current phase, percent of
  horizon (when the scenario published one), events/s, ETA, and sweep
  points done/total. stdout is untouched, so ``--json`` output stays
  byte-identical with the heartbeat on.

Engines pick the profiler up through the **active-profiler registry**:
the CLI activates one per invocation (:func:`profiled`), rig builders call
:func:`attach` on each :class:`~repro.sim.engine.Engine` they create, and
the engine's run loop drives the observer protocol (``run_started`` /
``tick`` / ``run_ended``). With no active profiler every hook is a no-op
and the engine runs its fast path.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Any, Callable

__all__ = [
    "ProgressReporter",
    "RuntimeProfiler",
    "attach",
    "current",
    "phase",
    "profiled",
    "rss_high_water_bytes",
    "set_fraction",
]

#: engine events between heartbeat ticks — coarse enough that the
#: per-event cost is one integer decrement, fine enough that a stalled
#: run is visible within a second or two
TICK_EVERY = 20_000


def rss_high_water_bytes() -> int | None:
    """The process' resident-set high-water mark in bytes, or ``None``
    when the platform doesn't expose one (``resource`` is POSIX-only).

    Linux reports ``ru_maxrss`` in kilobytes, macOS in bytes; both are
    normalised to bytes here.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:  # pragma: no cover - platform returned nothing useful
        return None
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return int(peak)
    return int(peak) * 1024


class ProgressReporter:
    """Throttled stderr heartbeat for long runs and sweeps.

    All output goes to ``stream`` (default ``sys.stderr``) as whole lines,
    at most one per ``min_interval_s`` of wall time — safe for CI logs and
    invisible to anything consuming stdout.
    """

    def __init__(
        self,
        stream=None,
        *,
        min_interval_s: float = 0.5,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = float(min_interval_s)
        self._clock = clock
        self._last_emit = -float("inf")
        self._phase: str | None = None
        self._fraction: Callable[[], float | None] | None = None
        #: (wall, events) of the previous tick, for the ev/s window
        self._window: tuple[float, int] | None = None
        #: lines emitted (tests pin that the heartbeat actually beats)
        self.emitted = 0

    # -- context published by the run/sweep drivers -------------------------------

    def phase(self, name: str) -> None:
        """A new phase began; resets the horizon fraction."""
        self._phase = name
        self._fraction = None
        self._window = None

    def set_fraction(self, fraction: Callable[[], float | None]) -> None:
        """Publish a fraction-of-horizon callable for the current phase
        (e.g. boots completed / boots planned); enables ``%`` and ETA."""
        self._fraction = fraction

    # -- emission -----------------------------------------------------------------

    def _emit(self, text: str, *, force: bool = False) -> None:
        now = self._clock()
        if not force and now - self._last_emit < self.min_interval_s:
            return
        self._last_emit = now
        self.emitted += 1
        print(f"[progress] {text}", file=self.stream, flush=True)

    def engine_tick(self, engine, run_wall_s: float, events: int) -> None:
        """One heartbeat from inside :meth:`Engine.run` (via the
        profiler): sim clock, events/s over the last window, and — when a
        fraction is published — percent of horizon and a wall-clock ETA."""
        now = self._clock()
        if now - self._last_emit < self.min_interval_s:
            return
        window = self._window
        self._window = (now, events)
        rate = None
        if window is not None and now > window[0]:
            rate = (events - window[1]) / (now - window[0])
        parts = []
        if self._phase:
            parts.append(self._phase)
        fraction = self._fraction() if self._fraction is not None else None
        if fraction is not None:
            fraction = min(max(fraction, 0.0), 1.0)
            parts.append(f"{100.0 * fraction:.0f}%")
            if fraction > 0 and run_wall_s > 0:
                eta = run_wall_s * (1.0 - fraction) / fraction
                parts.append(f"eta {eta:.0f}s")
        parts.append(f"sim {engine.now:.1f}s")
        if rate is not None:
            parts.append(f"{rate / 1e3:.1f}k ev/s")
        self._emit(" ".join(parts), force=True)

    def point_done(
        self, done: int, total: int, wall_s: float, *, workers: int = 1,
        busy: int | None = None,
    ) -> None:
        """One sweep point finished: done/total, mean point wall, ETA at
        the current concurrency, and worker utilisation."""
        parts = [f"sweep {done}/{total} points"]
        if done:
            mean = wall_s / done
            remaining = total - done
            parts.append(f"avg {mean:.1f}s/pt")
            if remaining:
                parts.append(f"eta {mean * remaining / max(1, workers):.0f}s")
        if busy is not None and workers > 1:
            parts.append(f"workers {busy}/{workers} busy")
        self._emit(" ".join(parts), force=done >= total)


class RuntimeProfiler:
    """Wall-clock phase timers + engine throughput + memory high-water.

    Implements the engine-observer protocol (:attr:`tick_every`,
    :meth:`run_started`, :meth:`tick`, :meth:`run_ended`); scenario and
    CLI layers add named phases (:meth:`phase`) and sweep points
    (:meth:`point`). :meth:`block` renders everything as the JSON-able
    ``runtime`` block.
    """

    tick_every = TICK_EVERY

    def __init__(
        self,
        *,
        progress: ProgressReporter | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.progress = progress
        self._clock = clock
        self._born = clock()
        self._phases: dict[str, dict[str, float]] = {}
        #: start time of each open phase, by name (outermost timing only)
        self._open: dict[str, float] = {}
        self._points: list[dict[str, Any]] = []
        self._engine_runs = 0
        self._engine_events = 0
        self._engine_wall_s = 0.0
        self._engine_sim_s = 0.0
        #: live-run state between run_started and run_ended
        self._run_t0: float | None = None
        self._run_events0 = 0
        self._run_now0 = 0.0

    # -- phases -------------------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Time one named phase; re-entering a name accumulates into it.

        Only the outermost active phase of a name is timed: a phase nested
        inside a same-name phase (the CLI's ``churn.run`` around the
        scenario's own) adds neither wall time nor count, so a phase never
        reports more wall time than the process ran.
        """
        if self.progress is not None:
            self.progress.phase(name)
        if name in self._open:
            yield self
            return
        t0 = self._open[name] = self._clock()
        try:
            yield self
        finally:
            del self._open[name]
            elapsed = self._clock() - t0
            entry = self._phases.setdefault(name, {"wall_s": 0.0, "count": 0})
            entry["wall_s"] += elapsed
            entry["count"] += 1

    # -- engine observer protocol --------------------------------------------------

    def run_started(self, engine) -> None:
        """:meth:`Engine.run` entered: snapshot the wall/sim/event clocks."""
        self._run_t0 = self._clock()
        self._run_events0 = engine.events_processed
        self._run_now0 = engine.now

    def tick(self, engine) -> None:
        """Periodic heartbeat from the run loop (every ``tick_every``
        processed events); forwards to the progress reporter, if any."""
        if self.progress is not None and self._run_t0 is not None:
            self.progress.engine_tick(
                engine,
                self._clock() - self._run_t0,
                engine.events_processed - self._run_events0,
            )

    def run_ended(self, engine) -> None:
        """:meth:`Engine.run` returned: fold the run into the totals."""
        if self._run_t0 is None:
            return
        self._engine_runs += 1
        self._engine_wall_s += self._clock() - self._run_t0
        self._engine_events += engine.events_processed - self._run_events0
        self._engine_sim_s += engine.now - self._run_now0
        self._run_t0 = None

    # -- sweep points --------------------------------------------------------------

    def point(self, label: str, wall_s: float, *, status: str = "run") -> None:
        """Record one sweep point's wall time (``status`` is ``"run"`` or
        ``"cached"`` for resume replays, which took no fresh work)."""
        self._points.append(
            {"label": label, "status": status, "wall_s": float(wall_s)}
        )

    # -- the runtime block ---------------------------------------------------------

    def engine_stats(self) -> dict[str, float]:
        """Aggregate engine throughput across every profiled ``run()``."""
        wall = self._engine_wall_s
        return {
            "runs": self._engine_runs,
            "events": self._engine_events,
            "wall_s": wall,
            "sim_s": self._engine_sim_s,
            "events_per_s": self._engine_events / wall if wall > 0 else 0.0,
            "sim_s_per_wall_s": self._engine_sim_s / wall if wall > 0 else 0.0,
        }

    def block(self) -> dict[str, Any]:
        """The ``runtime`` block: deterministic shape, measured values.

        Lives *next to* canonical reports (``runtime.json``, manifest
        trailer, stderr) and is excluded from byte-identical comparisons.
        A phase still open (a ``--metrics`` export written inside the
        CLI's ``<exp>.run``) is included with its wall time so far.
        """
        now = self._clock()
        phases = {name: dict(entry) for name, entry in self._phases.items()}
        for name, t0 in self._open.items():
            entry = phases.setdefault(name, {"wall_s": 0.0, "count": 0})
            entry["wall_s"] += now - t0
            entry["count"] += 1
        return {
            "schema": "repro.runtime/1",
            "wall_s": now - self._born,
            "phases": dict(sorted(phases.items())),
            "engine": self.engine_stats(),
            "rss_high_water_bytes": rss_high_water_bytes(),
            "points": list(self._points),
        }

    def render(self) -> str:
        """One human line for stderr: phases, throughput, memory."""
        stats = self.engine_stats()
        parts = [f"wall {self._clock() - self._born:.1f}s"]
        if stats["runs"]:
            parts.append(f"engine {stats['events_per_s'] / 1e3:.0f}k ev/s")
            parts.append(f"sim x{stats['sim_s_per_wall_s']:.0f} wall")
        peak = rss_high_water_bytes()
        if peak is not None:
            parts.append(f"rss {peak / (1 << 20):.0f} MiB")
        if self._phases:
            slowest = max(self._phases.items(), key=lambda kv: kv[1]["wall_s"])
            parts.append(f"slowest phase {slowest[0]} {slowest[1]['wall_s']:.1f}s")
        return "[runtime] " + ", ".join(parts)


#: the active-profiler stack — module state, like a contextvar but
#: shareable with sweep workers' inline path (single-threaded use only)
_ACTIVE: list[RuntimeProfiler] = []


def current() -> RuntimeProfiler | None:
    """The innermost active profiler, or ``None`` outside :func:`profiled`."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def profiled(profiler: RuntimeProfiler):
    """Make ``profiler`` the active profiler for the dynamic extent."""
    _ACTIVE.append(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE.pop()


def attach(engine) -> None:
    """Point ``engine`` at the active profiler (no-op without one).

    Rig builders call this on every engine they create; the engine's run
    loop then reports through the observer protocol.
    """
    profiler = current()
    if profiler is not None:
        engine.observer = profiler


def set_fraction(fraction: Callable[[], float | None]) -> None:
    """Publish the current phase's fraction-of-horizon callable to the
    active progress reporter (no-op without ``--progress``)."""
    profiler = current()
    if profiler is not None and profiler.progress is not None:
        profiler.progress.set_fraction(fraction)


@contextmanager
def phase(name: str):
    """Module-level phase timer against the active profiler; a cheap
    no-op when none is active, so library code can annotate phases
    unconditionally."""
    profiler = current()
    if profiler is None:
        yield None
    else:
        with profiler.phase(name):
            yield profiler
