"""The simulation engine's event queue.

The engine's total event order is the tuple ``(time, tiebreak, seq)`` —
simulated time first, then a seeded pseudo-random tie-break, then a
monotonic sequence number as the final word. :class:`HeapEventQueue`
pops entries in exactly that order: a binary heap (:mod:`heapq`),
C-accelerated, O(log n) per operation.

Entries are 5-tuples ``(time, tiebreak, seq, event, value)``. Tuple
comparison never reaches the event object because ``seq`` is unique.
"""

from __future__ import annotations

import heapq
from typing import Iterator

__all__ = ["HeapEventQueue"]

#: one queued occurrence: (time, tiebreak, seq, event, value)
Entry = tuple


class HeapEventQueue:
    """The classic binary heap — push anywhere, pop in total-key order."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[Entry] = []

    def push(self, entry: Entry) -> None:
        heapq.heappush(self._heap, entry)

    def pop(self) -> Entry:
        return heapq.heappop(self._heap)

    def peek_time(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._heap)
