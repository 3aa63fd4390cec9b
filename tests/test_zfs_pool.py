"""Unit tests for ZPool + ZIO write/read pipeline."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ObjectNotFoundError, StorageError
from repro.zfs import ZPool, scrub
from repro.zfs.spa import SECTOR_SIZE


@pytest.fixture
def pool():
    return ZPool(capacity=64 << 20, arc_capacity=1 << 20)


@pytest.fixture
def ds(pool):
    return pool.create_dataset("cvol", record_size=4096, compression="gzip6", dedup=True)


class TestDatasetNamespace:
    def test_create_and_get(self, pool):
        created = pool.create_dataset("a")
        assert pool.dataset("a") is created

    def test_duplicate_rejected(self, pool):
        pool.create_dataset("a")
        with pytest.raises(StorageError):
            pool.create_dataset("a")

    def test_missing_raises(self, pool):
        with pytest.raises(ObjectNotFoundError):
            pool.dataset("nope")

    def test_destroy_removes(self, pool):
        pool.create_dataset("a")
        pool.destroy_dataset("a")
        assert not pool.has_dataset("a")


class TestBytesPipeline:
    def test_round_trip(self, ds):
        data = b"squirrel" * 512  # one full 4 KB record
        ds.write_block("f", 0, data)
        assert ds.read_block("f", 0) == data

    def test_zero_block_becomes_hole(self, ds, pool):
        ds.write_block("f", 0, bytes(4096))
        assert pool.data_bytes == 0
        assert ds.file("f").get_block(0).is_hole

    def test_dedup_identical_blocks_allocate_once(self, ds, pool):
        data = b"x" * 2048 + bytes(2048)
        ds.write_block("f", 0, data)
        allocated_after_first = pool.data_bytes
        ds.write_block("f", 1, data)
        ds.write_block("g", 0, data)
        assert pool.data_bytes == allocated_after_first
        assert pool.ddt.entry_count == 1
        assert pool.dedup_ratio() == pytest.approx(3.0)

    def test_compression_shrinks_allocation(self, ds, pool):
        ds.write_block("f", 0, b"a" * 4096)
        assert 0 < pool.data_bytes < 4096

    def test_incompressible_allocates_raw(self, pool):
        import numpy as np

        ds = pool.create_dataset("raw", record_size=4096)
        rng = np.random.default_rng(1)
        data = bytes(rng.integers(0, 256, 4096, dtype=np.uint8))
        ds.write_block("f", 0, data)
        assert pool.data_bytes == 4096
        assert ds.read_block("f", 0) == data

    def test_oversized_block_rejected(self, ds):
        with pytest.raises(StorageError):
            ds.write_block("f", 0, b"x" * 8192)

    def test_write_file_and_read_file(self, ds):
        data = b"kernel" * 3000  # ~18 KB, several records
        ds.write_file("vmlinuz", data)
        assert ds.read_file("vmlinuz") == data

    def test_sparse_file_holes_read_as_zeros(self, ds):
        ds.write_block("f", 3, b"y" * 4096)
        assert ds.read_block("f", 0) == bytes(4096)
        assert ds.file("f").get_block(0).is_hole


class TestVirtualPipeline:
    def test_virtual_write_accounts_without_bytes(self, ds, pool):
        ds.write_block_virtual("f", 0, signature=42, lsize=4096, psize=1000)
        assert pool.data_bytes == ((1000 + SECTOR_SIZE - 1) // SECTOR_SIZE) * SECTOR_SIZE
        assert pool.ddt.entry_count == 1

    def test_virtual_dedup(self, ds, pool):
        ds.write_block_virtual("f", 0, signature=42, lsize=4096, psize=1000)
        ds.write_block_virtual("f", 1, signature=42, lsize=4096, psize=1000)
        assert pool.ddt.entry_count == 1
        assert pool.ddt.lookup("v:" + format(42, "016x")).refcount == 2

    def test_virtual_hole(self, ds, pool):
        ds.write_block_virtual("f", 0, signature=0, lsize=4096, psize=0, is_hole=True)
        assert pool.data_bytes == 0

    def test_virtual_read_raises(self, ds):
        ds.write_block_virtual("f", 0, signature=42, lsize=4096, psize=1000)
        with pytest.raises(StorageError, match="image provider"):
            ds.read_block("f", 0)

    def test_virtual_psize_bounds_checked(self, ds):
        with pytest.raises(StorageError):
            ds.write_block_virtual("f", 0, signature=1, lsize=4096, psize=5000)

    def test_virtual_and_bytes_namespaces_disjoint(self, ds, pool):
        ds.write_block("f", 0, b"z" * 4096)
        ds.write_block_virtual("f", 1, signature=7, lsize=4096, psize=100)
        assert pool.ddt.entry_count == 2


class TestPlainMode:
    def test_no_dedup_when_disabled(self, pool):
        ds = pool.create_dataset("xfs", record_size=4096, compression="off", dedup=False)
        data = b"q" * 4096
        ds.write_block("f", 0, data)
        ds.write_block("f", 1, data)
        assert pool.ddt.entry_count == 0  # charged DDT untouched
        assert pool.data_bytes == 8192
        assert ds.read_block("f", 1) == data

    def test_plain_free_reclaims(self, pool):
        ds = pool.create_dataset("xfs", record_size=4096, compression="off", dedup=False)
        ds.write_block("f", 0, b"q" * 4096)
        ds.delete_file("f")
        assert pool.data_bytes == 0


class TestAccounting:
    def test_stats_snapshot(self, ds, pool):
        ds.write_block("f", 0, b"m" * 4096)
        stats = pool.stats()
        assert stats.data_bytes == pool.data_bytes
        assert stats.ddt_entries == 1
        assert stats.disk_used_bytes == stats.data_bytes + stats.ddt_disk_bytes
        assert stats.memory_used_bytes == stats.ddt_core_bytes + stats.arc_bytes

    def test_free_on_overwrite(self, ds, pool):
        ds.write_block("f", 0, b"a" * 4096)
        before = pool.data_bytes
        ds.write_block("f", 0, b"b" * 4096)
        assert pool.data_bytes == before  # same compressibility, old freed

    def test_delete_file_reclaims_all(self, ds, pool):
        ds.write_file("f", b"a" * 40960)
        ds.delete_file("f")
        assert pool.data_bytes == 0
        assert pool.ddt.entry_count == 0

    def test_txg_monotonic(self, pool):
        first = pool.advance_txg()
        second = pool.advance_txg()
        assert second == first + 1


# -- structural fork ------------------------------------------------------------

#: (dataset, create_dataset kwargs): the global dedup domain, a non-dedup
#: dataset (the plain table) and a named dedup domain
FORK_DATASETS = {
    "glob": {},
    "plain": {"dedup": False},
    "dom": {"domain": "s1"},
}
FORK_FILES = ("a", "b", "c")


def fork_pool() -> ZPool:
    pool = ZPool(capacity=64 << 20, arc_capacity=3 * 4096)
    for name, kwargs in FORK_DATASETS.items():
        pool.create_dataset(name, record_size=4096, **kwargs)
    return pool


def _fork_block(tag: int) -> bytes:
    # tag 0 is all zeros: the write path turns it into a hole
    return bytes(4096) if tag == 0 else tag.to_bytes(2, "little") * 2048


_ds = st.sampled_from(sorted(FORK_DATASETS))
#: virtual blocks carry no payload, and scrub reads every ``a:`` block of a
#: non-dedup dataset as materialised: keep them to the dedup datasets
_vds = st.sampled_from(("dom", "glob"))
_file = st.sampled_from(FORK_FILES)
_fork_ops = st.one_of(
    st.tuples(st.just("bytes"), _ds, _file, st.integers(0, 3), st.integers(0, 5)),
    st.tuples(
        st.just("virtual"), _vds, _file, st.integers(0, 3),
        st.integers(1, 6), st.sampled_from((512, 2048, 4096)),
    ),
    st.tuples(
        st.just("vfile"), _vds, _file,
        st.lists(st.integers(0, 6), min_size=0, max_size=4),
    ),
    st.tuples(st.just("delete"), _ds, _file),
    st.tuples(st.just("truncate"), _ds, _file, st.integers(0, 5)),
    st.tuples(st.just("snapshot"), _ds),
    st.tuples(st.just("destroy"), _ds, st.sampled_from(("oldest", "middle", "newest"))),
    # a run of reads, each a get plus a put on miss (the ZFS read path)
    st.tuples(
        st.just("arc"),
        st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), max_size=8),
    ),
)


def apply_fork_op(pool: ZPool, op: tuple) -> None:
    kind = op[0]
    if kind == "arc":
        for key, size in op[1]:
            if pool.arc.get(f"k{key}") is None:
                pool.arc.put(f"k{key}", b"v", size * 4096)
        return
    ds = pool.dataset(op[1])
    if kind == "bytes":
        ds.write_block(op[2], op[3], _fork_block(op[4]))
    elif kind == "virtual":
        ds.write_block_virtual(op[2], op[3], signature=op[4], lsize=4096, psize=op[5])
    elif kind == "vfile":
        ds.write_file_virtual(
            op[2], [(sig, 4096, 1024, sig == 0) for sig in op[3]]
        )
    elif kind == "delete":
        if ds.has_file(op[2]):
            ds.delete_file(op[2])
    elif kind == "truncate":
        if ds.has_file(op[2]):
            ds.truncate_file(op[2], op[3])
    elif kind == "snapshot":
        ds.snapshot(f"t{pool.current_txg}")
    elif kind == "destroy":
        snaps = ds.snapshots()
        if snaps:
            pick = {"oldest": 0, "middle": len(snaps) // 2, "newest": -1}[op[2]]
            ds.destroy_snapshot(snaps[pick].name)


def _table(table) -> tuple:
    rows = sorted(
        (e.checksum, e.psize, e.lsize, e.refcount, e.dva, e.birth_txg) for e in table
    )
    return tuple(rows), table.total_references


def pool_observables(pool: ZPool) -> dict:
    """Everything a fork must reproduce, as plain comparable values."""
    datasets = {}
    for name in pool.dataset_names():
        ds = pool.dataset(name)
        datasets[name] = {
            "files": [
                (f, tuple(ds.file(f).blocks), ds.file(f).created_txg)
                for f in ds.file_names()
            ],
            "head_deadlist": list(ds._head_deadlist),
            "snapshots": [
                (
                    s.name, s.txg, s.prev_txg, list(s.files.items()),
                    list(s.deadlist), list(s.file_created.items()),
                )
                for s in ds.snapshots()
            ],
        }
    arc = pool.arc
    return {
        "txg": pool.current_txg,
        "datasets": datasets,
        "ddt": _table(pool.ddt),
        "plain": _table(pool.plain),
        "domains": {
            d: (_table(pool.domain_ddt(d)), _table(pool.domain_zio(d).plain))
            for d in pool.domain_names()
        },
        "space": (
            pool.space.allocated_bytes, pool.space.free_bytes,
            pool.space.high_water_offset, pool.space.allocation_count,
            pool.space.total_allocations, dict(pool.space._sizes),
        ),
        "payloads": [
            dict(zio._blockstore)
            for zio in [pool.zio] + [pool.domain_zio(d) for d in pool.domain_names()]
        ],
        "arc": (
            arc.tier_bytes(), arc.p, arc.stats.as_dict(),
            [list(tier) for tier in (arc._t1, arc._t2, arc._b1, arc._b2)],
        ),
    }


def assert_scrub_clean(pool: ZPool) -> None:
    report = scrub(pool)
    assert report.clean, report.errors


class TestPoolFork:
    """``ZPool.fork`` against a ``copy.deepcopy`` reference: the same tail of
    operations leaves equal observables, and neither side sees the other's
    writes (shared DDT entries, block lists, deadlists or ARC lists would)."""

    @given(
        head=st.lists(_fork_ops, max_size=30),
        tail=st.lists(_fork_ops, max_size=30),
        other=st.lists(_fork_ops, max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_fork_matches_deepcopy_and_isolates(self, head, tail, other):
        origin = fork_pool()
        for op in head:
            apply_fork_op(origin, op)
        reference = copy.deepcopy(origin)
        origin_reference = copy.deepcopy(origin)
        forked = origin.fork()
        assert pool_observables(forked) == pool_observables(reference)

        before = pool_observables(origin)
        for op in tail:
            apply_fork_op(forked, op)
            apply_fork_op(reference, op)
        assert pool_observables(forked) == pool_observables(reference)
        assert pool_observables(origin) == before

        after = pool_observables(forked)
        for op in other:
            apply_fork_op(origin, op)
            apply_fork_op(origin_reference, op)
        assert pool_observables(origin) == pool_observables(origin_reference)
        assert pool_observables(forked) == after
        assert_scrub_clean(origin)
        assert_scrub_clean(forked)

    def test_fork_shares_immutable_state(self):
        pool = fork_pool()
        ds = pool.dataset("glob")
        ds.write_block("a", 0, _fork_block(1))
        ds.snapshot("v1")
        forked = pool.fork()
        twin = forked.dataset("glob")
        assert twin.get_snapshot("v1") is ds.get_snapshot("v1")
        assert twin.file("a").blocks[0] is ds.file("a").blocks[0]
        assert twin.file("a").blocks is not ds.file("a").blocks
        assert forked.ddt.lookup(ds.file("a").blocks[0].checksum) is not (
            pool.ddt.lookup(ds.file("a").blocks[0].checksum)
        )
        assert twin.zio is forked.zio
        assert forked.dataset("dom").zio is forked.domain_zio("s1")
        assert forked.domain_zio("s1").space is forked.space
        # a kill in the fork parks on the fork's own head deadlist
        twin.delete_file("a")
        assert ds.has_file("a") and ds._head_deadlist == []
        assert [bp.checksum for bp in twin._head_deadlist] == [
            ds.file("a").blocks[0].checksum
        ]
