"""Cluster topology: nodes, NICs, and the transfer ledger.

The evaluation cluster (DAS-4/VU, Section 4) is a star: up to 68 nodes on a
commodity 1 GbE switch plus QDR InfiniBand. Figure 18's metric is *bytes
moved to compute nodes*, so the first-class object here is the
:class:`TransferLedger` — every simulated byte movement is recorded with its
endpoints and purpose, and the figure queries the ledger. A multicast is
recorded as one grouped entry (one sender, a tuple of receivers), so the
ledger grows with the number of sends, not sends × receivers.

Timing is intentionally coarse (bandwidth/latency bounds with a many-to-one
contention factor): the paper's network experiment reports transfer *sizes*,
and timing only needs to be plausible for the propagation examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from ..common.errors import NetworkError

__all__ = [
    "LinkProfile",
    "GBE_1",
    "IB_QDR",
    "NodeKind",
    "Node",
    "Transfer",
    "TransferLedger",
    "TransferRows",
]


@dataclass(frozen=True)
class LinkProfile:
    """A NIC/link technology."""

    name: str
    bandwidth_bps: float  #: payload bandwidth, bits per second
    latency_s: float
    #: protocol efficiency (headers, TCP dynamics): fraction of raw bandwidth
    efficiency: float = 0.9

    @property
    def bytes_per_s(self) -> float:
        return self.bandwidth_bps * self.efficiency / 8.0

    def transfer_time(self, n_bytes: int, *, streams: int = 1) -> float:
        """Seconds to move ``n_bytes`` when ``streams`` flows share the link."""
        if n_bytes < 0:
            raise NetworkError("negative transfer size")
        return self.latency_s + n_bytes * max(1, streams) / self.bytes_per_s

    def make_pipe(self, engine, *, name: str | None = None, timeline=None):
        """Service-time hook for the event engine: this link as a shared
        :class:`repro.sim.Pipe` (processor-sharing at the NIC's payload
        rate), so concurrent timed transfers contend realistically instead
        of using the closed-form ``transfer_time`` bound. With a
        ``timeline``, the pipe observes per-flow contention overhead."""
        from ..sim import Pipe  # local import: keep repro.net importable alone

        return Pipe(
            engine, self.bytes_per_s, latency_s=self.latency_s,
            name=name or self.name, timeline=timeline,
        )


#: commodity gigabit Ethernet (DAS-4's default fabric)
GBE_1 = LinkProfile("1GbE", 1e9, 120e-6)
#: QDR InfiniBand, 32 Gb/s theoretical (Section 4)
IB_QDR = LinkProfile("QDR-IB", 32e9, 2e-6, efficiency=0.8)


class NodeKind(Enum):
    """Role of a cluster node."""

    COMPUTE = "compute"
    STORAGE = "storage"


@dataclass(frozen=True)
class Node:
    """One cluster node."""

    name: str
    kind: NodeKind
    link: LinkProfile = GBE_1


@dataclass(frozen=True, slots=True)
class Transfer:
    """One recorded byte movement."""

    src: str
    dst: str
    n_bytes: int
    purpose: str  #: e.g. "boot-read", "cache-propagation", "registration"
    duration_s: float = 0.0


class TransferRows:
    """Read-only per-receiver row view over a :class:`TransferLedger`.

    Iterating yields one :class:`Transfer` per receiver of every recorded
    entry, in recording order — the rows a per-receiver ledger would have
    held. ``len()`` is O(1); rows are built only while iterating.
    """

    __slots__ = ("_ledger",)

    def __init__(self, ledger: TransferLedger) -> None:
        self._ledger = ledger

    def __len__(self) -> int:
        return self._ledger._rows

    def __iter__(self) -> Iterator[Transfer]:
        for src, dsts, n_bytes, purpose, duration_s in self._ledger.entries:
            for dst in dsts:
                yield Transfer(src, dst, n_bytes, purpose, duration_s)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (TransferRows, list)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __repr__(self) -> str:
        return f"TransferRows({list(self)!r})"


#: one ledger entry: ``(src, dsts, n_bytes, purpose, duration_s)``
Entry = tuple[str, tuple[str, ...], int, str, float]


class TransferLedger:
    """Append-only record of all network transfers in an experiment.

    Each :meth:`record` / :meth:`record_fanout` call appends one grouped
    entry: a multicast to N receivers is one entry, not N rows, so a
    fleet-wide registration costs O(1) ledger work. Running sums keyed on
    ``(name, purpose)`` answer the Figure 18 queries without rescanning.
    Per-receiver ingress from fan-outs is tallied per distinct
    ``(receiver set, purpose)`` and folded into the per-node sums on the
    first ingress query after it, so repeated multicasts to the same fleet
    fold once. :attr:`transfers` is the per-receiver row view.
    """

    def __init__(self) -> None:
        self.entries: list[Entry] = []
        self.transfers = TransferRows(self)
        #: per-receiver row count across ``entries``
        self._rows = 0
        #: (dst, purpose) -> bytes; and (dst, None) -> bytes across purposes
        self._into: dict[tuple[str, str | None], int] = {}
        self._out_of: dict[tuple[str, str | None], int] = {}
        self._totals: dict[str | None, int] = {}
        #: (dsts, purpose) -> fan-out bytes per receiver not yet in ``_into``
        self._pending: dict[tuple[tuple[str, ...], str], int] = {}

    def record(
        self, src: str, dst: str, n_bytes: int, purpose: str, duration_s: float = 0.0
    ) -> Transfer:
        if n_bytes < 0:
            raise NetworkError("negative transfer size")
        self.entries.append((src, (dst,), n_bytes, purpose, duration_s))
        self._rows += 1
        into, out_of, totals = self._into, self._out_of, self._totals
        for key in ((dst, purpose), (dst, None)):
            into[key] = into.get(key, 0) + n_bytes
        for key in ((src, purpose), (src, None)):
            out_of[key] = out_of.get(key, 0) + n_bytes
        for key in (purpose, None):
            totals[key] = totals.get(key, 0) + n_bytes
        return Transfer(src, dst, n_bytes, purpose, duration_s)

    def record_fanout(
        self,
        src: str,
        dsts: Sequence[str],
        n_bytes: int,
        purpose: str,
        duration_s: float = 0.0,
    ) -> None:
        """One sender, many receivers (a multicast): one entry with the
        rows and aggregates ``record`` would produce per receiver. O(1)
        in Python work — per-receiver ingress is folded lazily."""
        if n_bytes < 0:
            raise NetworkError("negative transfer size")
        dsts = tuple(dsts)
        self.entries.append((src, dsts, n_bytes, purpose, duration_s))
        self._rows += len(dsts)
        pending = self._pending
        pending[dsts, purpose] = pending.get((dsts, purpose), 0) + n_bytes
        total = n_bytes * len(dsts)
        out_of, totals = self._out_of, self._totals
        for key in ((src, purpose), (src, None)):
            out_of[key] = out_of.get(key, 0) + total
        for key in (purpose, None):
            totals[key] = totals.get(key, 0) + total

    def _fold_pending(self) -> None:
        """Fold pending fan-out bytes into the per-receiver sums."""
        into = self._into
        for (dsts, purpose), n_bytes in self._pending.items():
            for dst in dsts:
                key = (dst, purpose)
                into[key] = into.get(key, 0) + n_bytes
                key = (dst, None)
                into[key] = into.get(key, 0) + n_bytes
        self._pending.clear()

    # -- queries (Figure 18's metrics) ----------------------------------------

    def bytes_into(self, node_name: str, *, purpose: str | None = None) -> int:
        if self._pending:
            self._fold_pending()
        return self._into.get((node_name, purpose), 0)

    def bytes_out_of(self, node_name: str, *, purpose: str | None = None) -> int:
        return self._out_of.get((node_name, purpose), 0)

    def total_bytes(self, *, purpose: str | None = None) -> int:
        return self._totals.get(purpose, 0)

    def compute_ingress_bytes(
        self, compute_nodes: list[Node] | list[str], *, purpose: str | None = None
    ) -> int:
        """Cumulative bytes received by compute nodes — Figure 18's y-axis."""
        if self._pending:
            self._fold_pending()
        into = self._into
        names = {n.name if isinstance(n, Node) else n for n in compute_nodes}
        return sum(into.get((name, purpose), 0) for name in names)

    def clear(self) -> None:
        self.entries.clear()
        self._rows = 0
        self._into.clear()
        self._out_of.clear()
        self._totals.clear()
        self._pending.clear()
