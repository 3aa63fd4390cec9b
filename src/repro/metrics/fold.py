"""The detail cap: how a wide fleet's per-node metrics fold.

A capped label axis keeps one child per key for its first ``cap`` keys
only. Past the cap, a counter counts every other key in one shared
:data:`OTHER` child; a gauge drops their series, and a gauge that sums
across the fleet adds one :data:`FLEET` child with the total over every
key. Sums over a family's children stay fleet totals either way.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

__all__ = ["FLEET", "OTHER", "FoldAxis", "fleet_total_series"]

#: the shared counter child of every key past the detail cap
OTHER = "_other"
#: the whole-fleet total child of a summing gauge past the detail cap
FLEET = "_fleet"


class FoldAxis:
    """One capped label axis: raw ``keys`` in fleet order (node names,
    tenant ids), the first ``cap`` of them the detail set, each rendered
    as a label value by ``fmt``. Gauge readers take each key, or its value
    when ``keys`` is a mapping (a node's ``ComputeNode``, ARC or NIC), so a
    ``_fleet`` sum walks objects bound once rather than looking keys up."""

    __slots__ = ("keys", "detail", "capped", "fmt", "subjects", "_detail_labels")

    def __init__(self, keys: Iterable[Any], cap: int, fmt: Callable = str) -> None:
        self.keys = tuple(keys)
        self.detail = self.keys[:cap]
        self.capped = len(self.keys) > len(self.detail)
        self.fmt = fmt
        self.subjects = tuple(keys.values()) if isinstance(keys, Mapping) else self.keys
        self._detail_labels = frozenset(fmt(key) for key in self.detail)

    def label(self, key: Any) -> str:
        """The label of the counter child ``key`` is counted in."""
        label = self.fmt(key)
        return label if label in self._detail_labels else OTHER

    def counter_labels(self) -> list[str]:
        """Every counter child's label: the detail set, then the fold."""
        labels = [self.fmt(key) for key in self.detail]
        return labels + [OTHER] if self.capped else labels


def fleet_total_series(series: list[dict]) -> list[dict]:
    """The stored series of one family whose sum is the fleet total: a
    :data:`FLEET` series stands in for every series that differs from it
    only in its capped label (the detail nodes of its tier or shard)."""
    fleet = [s["labels"] for s in series if FLEET in s["labels"].values()]
    return [
        s for s in series
        if s["labels"] in fleet or not any(
            s["labels"].keys() == f.keys()
            and all(s["labels"][k] == v for k, v in f.items() if v != FLEET)
            for f in fleet
        )
    ]
