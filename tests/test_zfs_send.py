"""Send/receive stream tests: full, incremental, preconditions, fidelity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SendStreamError
from repro.zfs import ZPool, generate_send, receive, scrub
from repro.zfs.send import RecordKind, SendRecord


def make_pool():
    return ZPool(capacity=256 << 20, arc_capacity=1 << 20)


def block(tag: int, size: int = 4096) -> bytes:
    seed = tag.to_bytes(4, "little") * 16
    return (seed * (size // len(seed) + 1))[:size]


@pytest.fixture
def sender():
    pool = make_pool()
    ds = pool.create_dataset("scvol", record_size=4096)
    ds.write_file("cache-a", block(1) + block(2))
    ds.snapshot("v1")
    return pool, ds


class TestFullSend:
    def test_full_round_trip(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        stream = generate_send(src, "v1")
        receive(dst, stream)
        assert dst.read_file("cache-a") == block(1) + block(2)
        assert dst.has_snapshot("v1")

    def test_full_into_nonempty_rejected(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        dst.write_block("junk", 0, block(9))
        with pytest.raises(SendStreamError, match="non-empty"):
            receive(dst, generate_send(src, "v1"))

    def test_stream_size_reflects_psize_not_lsize(self, sender):
        _, src = sender
        stream = generate_send(src, "v1")
        assert 0 < stream.size_bytes < stream.logical_bytes


class TestIncrementalSend:
    def test_incremental_carries_only_new_blocks(self, sender):
        _, src = sender
        src.write_file("cache-b", block(3))
        src.snapshot("v2")
        stream = generate_send(src, "v2", from_snapshot="v1")
        writes = [r for r in stream.records if r.kind is RecordKind.WRITE]
        assert {r.file_name for r in writes} == {"cache-b"}

    def test_incremental_round_trip(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        src.write_file("cache-b", block(3))
        src.snapshot("v2")
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert dst.read_file("cache-b") == block(3)
        assert dst.read_file("cache-a") == block(1) + block(2)
        assert dst.latest_snapshot().name == "v2"

    def test_incremental_needs_matching_source(self, sender):
        _, src = sender
        src.write_file("cache-b", block(3))
        src.snapshot("v2")
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        with pytest.raises(SendStreamError, match="needs snapshot"):
            receive(dst, generate_send(src, "v2", from_snapshot="v1"))

    def test_wrong_direction_rejected(self, sender):
        _, src = sender
        src.snapshot("v2")
        with pytest.raises(SendStreamError, match="not older"):
            generate_send(src, "v1", from_snapshot="v2")

    def test_unlink_propagates(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        src.delete_file("cache-a")
        src.write_file("cache-b", block(3))
        src.snapshot("v2")
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert not dst.has_file("cache-a")

    def test_overwrite_propagates(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        src.write_block("cache-a", 0, block(7))
        src.snapshot("v2")
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert dst.read_file("cache-a") == block(7) + block(2)

    def test_duplicate_target_snapshot_rejected(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        with pytest.raises(SendStreamError, match="already exists"):
            receive(dst, generate_send(src, "v1"))


class TestVirtualStreams:
    def test_virtual_blocks_travel_by_signature(self):
        pool = make_pool()
        src = pool.create_dataset("scvol", record_size=4096)
        src.write_file_virtual(
            "cache-a", [(11, 4096, 512, False), (12, 4096, 512, False)]
        )
        src.snapshot("v1")
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        stream = generate_send(src, "v1")
        receive(dst, stream)
        assert dst_pool.ddt.entry_count == 2
        assert dst.file("cache-a").get_block(0).checksum.startswith("v:")

    def test_receiver_dedups_against_existing_content(self):
        """Chained incrementals: a cache whose blocks already exist on the
        receiver (from other caches) must not grow the receiver's pool."""
        pool = make_pool()
        src = pool.create_dataset("scvol", record_size=4096)
        src.write_file_virtual("cache-a", [(11, 4096, 512, False)])
        src.snapshot("v1")
        src.write_file_virtual("cache-b", [(11, 4096, 512, False)])  # same sig
        src.snapshot("v2")
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        used = dst_pool.data_bytes
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert dst_pool.data_bytes == used
        assert dst_pool.ddt.lookup("v:" + format(11, "016x")).refcount == 2

    def test_hole_records_apply(self):
        pool = make_pool()
        src = pool.create_dataset("scvol", record_size=4096)
        src.write_file_virtual(
            "cache-a", [(11, 4096, 512, False), (0, 4096, 0, True)]
        )
        src.snapshot("v1")
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        assert dst.file("cache-a").get_block(1).is_hole


class TestDeleteRecreate:
    """Regression: a file deleted and re-created under the same name between
    two snapshots must be replicated as unlink + fresh writes (found by the
    hypothesis replication property test)."""

    def test_recreated_file_replaces_stale_blocks(self):
        src_pool = make_pool()
        src = src_pool.create_dataset("s", record_size=4096)
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("d", record_size=4096)
        src.write_block("f", 0, block(1))
        src.snapshot("v1")
        receive(dst, generate_send(src, "v1"))
        src.delete_file("f")
        src.write_block("f", 1, block(1))  # same content, different shape
        src.snapshot("v2")
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert dst.file("f").get_block(0).is_hole
        assert not dst.file("f").get_block(1).is_hole
        assert dst.read_file("f") == bytes(4096) + block(1)

    def test_trailing_holes_replicate(self):
        src_pool = make_pool()
        src = src_pool.create_dataset("s", record_size=4096)
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("d", record_size=4096)
        src.write_block("f", 0, block(2))
        src.truncate_file("f", 4)  # grow w/ holes
        src.snapshot("v1")
        receive(dst, generate_send(src, "v1"))
        assert dst.file("f").block_count() == src.file("f").block_count()


def full_scan_send(dataset, to_snapshot, from_snapshot=None):
    """Reference stream: the per-block scan of every file of ``to_snapshot``
    that ``generate_send`` did before it skipped unchanged files."""
    to_snap = dataset.get_snapshot(to_snapshot)
    from_txg, from_files = 0, {}
    if from_snapshot is not None:
        from_snap = dataset.get_snapshot(from_snapshot)
        from_txg, from_files = from_snap.txg, from_snap.files
    records = [
        SendRecord(RecordKind.UNLINK, name)
        for name in sorted(from_files.keys() - to_snap.files.keys())
    ]
    for name in sorted(to_snap.files):
        blocks = to_snap.files[name]
        old_blocks = from_files.get(name)
        is_new = old_blocks is None or to_snap.file_created.get(name, 0) > from_txg
        if old_blocks is not None and is_new:
            records.append(SendRecord(RecordKind.UNLINK, name))
        if is_new or len(blocks) != len(old_blocks):
            records.append(
                SendRecord(RecordKind.TRUNCATE, name, block_count=len(blocks))
            )
        for index, bp in enumerate(blocks):
            if bp.birth_txg <= from_txg:
                continue
            payload = None
            if not bp.is_hole and bp.checksum.startswith(("b:", "a:")):
                payload = dataset.pool.zio.read_bytes(bp)
            records.append(
                SendRecord(
                    RecordKind.WRITE,
                    name,
                    block_index=index,
                    checksum=bp.checksum,
                    lsize=bp.lsize,
                    psize=bp.psize,
                    compression=bp.compression,
                    payload=payload,
                )
            )
    return records


_files = st.sampled_from(("a", "b", "c", "d"))
_history = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _files, st.integers(0, 3), st.integers(0, 4)),
        st.tuples(st.just("create"), _files),
        st.tuples(st.just("delete"), _files),
        st.tuples(st.just("truncate"), _files, st.integers(0, 5)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("destroy"), st.integers(0, 7)),
    ),
    max_size=40,
)


def _zero_or_block(tag: int) -> bytes:
    return bytes(4096) if tag == 0 else block(tag)


def head_views(dataset):
    """What a snapshot of the head must capture, in file-creation order."""
    objs = dataset._files  # noqa: SLF001 - the reference reads the head directly
    return (
        [(name, tuple(obj.blocks)) for name, obj in objs.items()],
        [(name, obj.created_txg) for name, obj in objs.items()],
    )


class TestSendMatchesFullScan:
    """``generate_send`` skips files whose view is shared with the source
    snapshot; over random histories it must emit exactly the records of a
    full per-block scan, and the head mirror must capture exactly the head."""

    @given(history=_history)
    @settings(max_examples=150, deadline=None)
    def test_random_histories(self, history):
        pool = make_pool()
        src = pool.create_dataset("s", record_size=4096)
        for op in history:
            kind = op[0]
            if kind == "write":
                src.write_block(op[1], op[2], _zero_or_block(op[3]))
            elif kind == "create" and not src.has_file(op[1]):
                src.create_file(op[1])
            elif kind == "delete" and src.has_file(op[1]):
                src.delete_file(op[1])
            elif kind == "truncate" and src.has_file(op[1]):
                src.truncate_file(op[1], op[2])
            elif kind == "snapshot":
                expected = head_views(src)
                snap = src.snapshot(f"t{pool.current_txg}")
                assert (
                    list(snap.files.items()), list(snap.file_created.items())
                ) == expected
            elif kind == "destroy" and src.snapshots():
                snaps = src.snapshots()
                src.destroy_snapshot(snaps[op[1] % len(snaps)].name)
        names = [snap.name for snap in src.snapshots()]
        for i, to_name in enumerate(names):
            for from_name in [None] + names[:i]:
                stream = generate_send(src, to_name, from_snapshot=from_name)
                assert stream.records == full_scan_send(src, to_name, from_name)
        assert scrub(pool).clean

    def _pair(self):
        src = make_pool().create_dataset("s", record_size=4096)
        dst = make_pool().create_dataset("d", record_size=4096)
        return src, dst

    def test_recreated_empty_file_is_not_skipped(self):
        """Every empty view is ``()``, so a deleted and re-created empty file
        has the same view object in both snapshots: only its creation txg
        says it is new."""
        src, dst = self._pair()
        src.create_file("e")
        src.snapshot("v1")
        receive(dst, generate_send(src, "v1"))
        src.delete_file("e")
        src.create_file("e")
        src.snapshot("v2")
        v1, v2 = src.get_snapshot("v1"), src.get_snapshot("v2")
        assert v2.files["e"] is v1.files["e"]
        stream = generate_send(src, "v2", from_snapshot="v1")
        assert [(r.kind, r.file_name) for r in stream.records] == [
            (RecordKind.UNLINK, "e"),
            (RecordKind.TRUNCATE, "e"),
        ]
        assert stream.records == full_scan_send(src, "v2", "v1")
        receive(dst, stream)
        assert dst.file("e").created_txg > dst.get_snapshot("v1").txg

    def test_unchanged_file_adds_no_record(self):
        src, _ = self._pair()
        src.write_file("a", block(1) + block(2))
        src.write_file("b", block(3))
        src.snapshot("v1")
        src.write_block("b", 1, block(4))
        src.snapshot("v2")
        assert src.get_snapshot("v2").files["a"] is src.get_snapshot("v1").files["a"]
        stream = generate_send(src, "v2", from_snapshot="v1")
        assert {r.file_name for r in stream.records} == {"b"}
        assert stream.records == full_scan_send(src, "v2", "v1")

    def test_truncated_file(self):
        src, dst = self._pair()
        src.write_file("a", block(1) + block(2) + block(3))
        src.snapshot("v1")
        receive(dst, generate_send(src, "v1"))
        src.truncate_file("a", 1)
        src.snapshot("v2")
        stream = generate_send(src, "v2", from_snapshot="v1")
        assert stream.records == full_scan_send(src, "v2", "v1")
        assert [(r.kind, r.block_count) for r in stream.records] == [
            (RecordKind.TRUNCATE, 1)
        ]
        receive(dst, stream)
        assert dst.read_file("a") == block(1)
        assert scrub(dst.pool).clean

    def test_incremental_across_destroyed_snapshot(self):
        src, dst = self._pair()
        src.write_file("a", block(1))
        src.snapshot("v1")
        receive(dst, generate_send(src, "v1"))
        src.write_file("b", block(2))
        src.snapshot("v2")
        src.write_block("a", 1, block(3))
        src.delete_file("b")
        src.snapshot("v3")
        src.destroy_snapshot("v2")
        stream = generate_send(src, "v3", from_snapshot="v1")
        assert stream.records == full_scan_send(src, "v3", "v1")
        receive(dst, stream)
        assert dst.read_file("a") == block(1) + block(3)
        assert not dst.has_file("b")
        assert scrub(src.pool).clean

    def test_held_snapshot_keeps_its_deadlist(self):
        """Destroying a snapshot replaces its successor instead of editing
        it, so a caller's (or a forked pool's) reference stays valid."""
        src, _ = self._pair()
        src.write_file("a", block(1))
        src.snapshot("v1")
        src.write_file("a", block(2))
        src.snapshot("v2")
        src.write_file("a", block(3))
        src.snapshot("v3")
        v1_txg = src.get_snapshot("v1").txg
        held = src.get_snapshot("v2")
        deadlist = list(held.deadlist)
        assert deadlist
        src.destroy_snapshot("v1")
        assert held.deadlist == deadlist
        assert held.prev_txg == v1_txg
        current = src.get_snapshot("v2")
        assert current is not held
        assert current.prev_txg == 0
        assert current.files is held.files
        assert scrub(src.pool).clean
