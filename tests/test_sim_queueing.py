"""Tests for the engine's event queue: the heap pops in total-key order.

The engine's determinism contract is a total order on (time, seeded
tiebreak, seq); :class:`~repro.sim.HeapEventQueue` must pop entries in
exactly that order, whatever order they were pushed in.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, HeapEventQueue


def drain(queue) -> list[tuple]:
    out = []
    while len(queue):
        out.append(queue.pop())
    return out


class TestQueueContract:
    @given(
        entries=st.lists(
            st.tuples(
                st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
                st.integers(0, 2**62),
                st.integers(0, 2**20),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_heap_pops_in_total_order(self, entries):
        heap = HeapEventQueue()
        keys = [
            (time, tiebreak, seq, i)
            for i, (time, tiebreak, seq) in enumerate(entries)
        ]
        for key in keys:
            heap.push(key)
        assert drain(heap) == sorted(keys)

    @given(
        times=st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 2.5]), max_size=64
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_heavy_ties_pop_in_key_order(self, times):
        heap = HeapEventQueue()
        for i, time in enumerate(times):
            heap.push((time, i * 7919 % 13, i))
        assert drain(heap) == sorted(
            (time, i * 7919 % 13, i) for i, time in enumerate(times)
        )

    def test_interleaved_push_pop(self):
        heap = HeapEventQueue()
        feed = [(float(i % 5), i) for i in range(40)]
        out, pending = [], []
        for j, key in enumerate(feed):
            heap.push(key)
            pending.append(key)
            if j % 3 == 2:
                pending.sort()
                expected = pending.pop(0)
                out.append(heap.pop())
                assert out[-1] == expected
        assert drain(heap) == sorted(pending)

    def test_peek_time(self):
        queue = HeapEventQueue()
        assert queue.peek_time() is None
        queue.push((3.0, 0, 0))
        queue.push((1.0, 0, 1))
        assert queue.peek_time() == 1.0
        queue.pop()
        assert queue.peek_time() == 3.0


class TestEngineQueueEquivalence:
    def test_engine_rejects_unknown_queue(self):
        """The heap is the only queue: the engine takes no queue option."""
        with pytest.raises(TypeError):
            Engine(queue="fibonacci")

    def test_drained_reflects_pending_work(self):
        engine = Engine()
        assert engine.drained

        def proc():
            yield engine.timeout(1.0)
            yield engine.timeout(1.0)

        engine.process(proc())
        assert not engine.drained
        engine.run(until=1.5)
        assert not engine.drained  # second timeout still queued
        engine.run()
        assert engine.drained
