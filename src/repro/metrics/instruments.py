"""Typed metric instruments and the per-run registry.

Three instrument kinds, Prometheus-shaped:

* :class:`Counter` — a monotonic accumulator (boots started, bytes fetched),
* :class:`Gauge` — an instantaneous value, either set imperatively or read
  through a callback at scrape time (ARC ``p``, pipe utilisation, boots in
  flight),
* :class:`Histogram` — observations bucketed into a **fixed, declared**
  layout (cumulative bucket counts + sum + count). The layout is part of
  the family declaration, never derived from the data, so the exposition is
  seed-deterministic and diffable across runs.

Instruments live in labelled :class:`MetricFamily` groups
(``node=``/``tier=``/``replica=``…) owned by one :class:`MetricsRegistry`
per simulated rig. Determinism rules: family names are unique and
validated, children are keyed by their label-value tuple, and every
iteration (:meth:`MetricsRegistry.families`, :meth:`MetricFamily.samples`)
is sorted — the raw material of byte-identical exports.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Iterable

from ..common.errors import ConfigError
from .fold import FLEET, FoldAxis

__all__ = ["Counter", "Gauge", "Histogram", "MetricFamily", "MetricsRegistry"]

#: Prometheus metric/label name grammar
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_KINDS = ("counter", "gauge", "histogram")


def _check_name(name: str, *, label: bool = False) -> str:
    pattern = _LABEL_RE if label else _NAME_RE
    if not pattern.match(name):
        kind = "label" if label else "metric"
        raise ConfigError(f"invalid {kind} name {name!r}")
    return name


class Counter:
    """Monotonic accumulator; decrements are rejected."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (>= 0) to the running total."""
        if n < 0:
            raise ConfigError(f"counter increment must be >= 0, got {n}")
        self.value += n


class Gauge:
    """Instantaneous value: set imperatively or read via a callback.

    A callback gauge (:meth:`set_function`) is evaluated at scrape time, so
    the sampler sees live simulation state without the instrumented code
    having to push updates on every change.
    """

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        """Set the gauge to ``value`` (clears any callback)."""
        self._fn = None
        self._value = float(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the gauge through ``fn`` from now on (scrape-time pull)."""
        self._fn = fn

    def read(self) -> float:
        """The current value (evaluates the callback, if any)."""
        return float(self._fn()) if self._fn is not None else self._value


class Histogram:
    """Observations over a fixed bucket layout (cumulative on export).

    ``bounds`` are the finite upper bounds (``le``) in strictly increasing
    order; an implicit ``+Inf`` bucket catches the tail. Invariant: the
    per-bucket counts sum to ``count`` — checked by the test suite, relied
    on by the exposition format.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Iterable[float]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ConfigError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ConfigError("histogram bucket bounds must be finite")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigError(
                f"histogram bucket bounds must strictly increase: {bounds}"
            )
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[str, int]]:
        """Prometheus-style ``(le, cumulative count)`` rows, ending at
        ``+Inf`` whose count equals the total observation count."""
        rows: list[tuple[str, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            rows.append((format_number(bound), running))
        rows.append(("+Inf", running + self.bucket_counts[-1]))
        return rows


def format_number(value: float) -> str:
    """Canonical number rendering shared by the exporters: integral floats
    render without a fraction, everything else via ``repr`` (shortest
    round-trip form — deterministic across runs and platforms)."""
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


class MetricFamily:
    """One named metric with a fixed label schema and typed children.

    Children are created on first use (:meth:`labels`) or pre-declared for
    a stable exposition; a family with no labels has a single anonymous
    child, ``labels()``.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        *,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        if kind not in _KINDS:
            raise ConfigError(f"unknown metric kind {kind!r}")
        if kind == "histogram" and buckets is None:
            raise ConfigError(f"histogram family {name!r} needs buckets")
        if kind != "histogram" and buckets is not None:
            raise ConfigError(f"{kind} family {name!r} takes no buckets")
        self.name = _check_name(name)
        self.kind = kind
        self.help = help
        self.label_names = tuple(
            _check_name(label, label=True) for label in label_names
        )
        self.buckets = tuple(float(b) for b in buckets) if buckets else None
        #: the capped axis of the first label, if declared with one
        self.fold: FoldAxis | None = None
        self._children: dict[tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets)

    def child(self, *label_values: Any) -> Any:
        """The child at raw label values in schema order (no folding)."""
        key = tuple(str(value) for value in label_values)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def labels(self, **labels: Any) -> Any:
        """The child instrument at one label assignment (created on first
        use). Label names must match the declared schema exactly; a capped
        axis folds keys past its detail set into ``_other``."""
        if set(labels) != set(self.label_names):
            raise ConfigError(
                f"family {self.name!r} takes labels "
                f"({', '.join(self.label_names) or 'none'}), "
                f"got ({', '.join(sorted(labels)) or 'none'})"
            )
        values = [labels[name] for name in self.label_names]
        if self.fold is not None:
            values[0] = self.fold.label(values[0])
        return self.child(*values)

    def samples(self) -> list[tuple[tuple[str, ...], Any]]:
        """``(label values, instrument)`` pairs in sorted label order."""
        return sorted(self._children.items())


def _fleet_sum(read: Callable, subjects: tuple, combo: tuple) -> float:
    """A ``_fleet`` child's value: ``read`` summed over every subject."""
    return sum(map(read, subjects, *map(itertools.repeat, combo)))


class MetricsRegistry:
    """One run's metric families, keyed and iterated by name.

    Layers declare their families independently (:meth:`declare`) and
    record through :meth:`inc` / :meth:`observe`.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def declare(
        self,
        name: str,
        kind: str,
        help: str = "",
        labels: tuple = (),
        *,
        buckets: tuple[float, ...] | None = None,
        read: Callable[..., float] | str | None = None,
        sums: bool = False,
    ) -> MetricFamily:
        """Declare (or fetch: any mismatch of kind, label names or buckets
        is a :class:`ConfigError`) a family and create its children.

        Each of ``labels`` is a label name or a ``(name, values)`` pair:
        a tuple, or (first label only) a :class:`FoldAxis` the family's
        :meth:`~MetricFamily.labels` then folds by. Counters and histograms
        get a zero child per combination of values; a gauge gets a child
        per combination of detail keys reading ``read(subject, *values)``
        (a ``str`` ``read`` is an attribute path read off the subject alone),
        and with ``sums`` on a capped axis a ``_fleet`` child per
        combination of the other labels: ``read`` summed over every subject.
        """
        labels = [(x, ()) if isinstance(x, str) else x for x in labels]
        label_names = tuple(label for label, _values in labels)
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help, label_names, buckets=buckets)
            self._families[name] = family
        elif (family.kind, family.label_names, family.buckets) != (
            kind, label_names, tuple(buckets) if buckets else None
        ):
            raise ConfigError(
                f"metric family {name!r} re-declared with a different "
                "kind, label schema or bucket layout"
            )
        if not labels:
            if read is not None:
                family.child().set_function(read)
            return family
        first, *rest = (values for _label, values in labels)
        if isinstance(first, FoldAxis):
            family.fold = family.fold or first
        else:
            first = FoldAxis(first, len(first))
        combos = list(itertools.product(*rest))
        if read is None:
            for head in first.counter_labels():
                for combo in combos:
                    family.child(head, *combo)
            return family
        path = isinstance(read, str)  # attrgetter: no reader call per subject
        if path:
            read = attrgetter(read)
        for key, subject in zip(first.detail, first.subjects):
            for combo in combos:
                family.child(first.fmt(key), *combo).set_function(
                    partial(read, subject, *(() if path else combo))
                )
        if sums and first.capped:
            for combo in combos:
                family.child(FLEET, *combo).set_function(
                    partial(_fleet_sum, read, first.subjects, () if path else combo)
                )
        return family

    def inc(self, name: str, n: float = 1.0, **labels: Any) -> None:
        """Increment one child of a declared counter family."""
        self.family(name).labels(**labels).inc(n)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Observe into one child of a declared histogram family."""
        self.family(name).labels(**labels).observe(value)

    def family(self, name: str) -> MetricFamily:
        """Look up one family; :class:`ConfigError` if undeclared."""
        try:
            return self._families[name]
        except KeyError:
            raise ConfigError(f"no metric family {name!r}") from None

    def families(self) -> list[MetricFamily]:
        """Every declared family, sorted by name (the iteration order all
        exports and the sampler use)."""
        return [self._families[name] for name in sorted(self._families)]
