"""Integration tests for the Squirrel core: register / boot / deregister,
garbage collection, offline propagation."""

import pytest

from repro.common.errors import RegistrationError
from repro.core import IaaSCluster, Squirrel, run_boot_storm
from repro.shard import ShardRouter, build_plan
from repro.vmi import (
    AzureCommunityDataset,
    DatasetConfig,
    LazyImageCatalog,
    make_estimator,
)
from repro.zfs import generate_send

SCALE = 1 / 1024
BLOCK = 65536


@pytest.fixture(scope="module")
def dataset():
    return AzureCommunityDataset(DatasetConfig(scale=SCALE))


@pytest.fixture
def rig(dataset):
    cluster = IaaSCluster.build(n_compute=6, n_storage=4, block_size=BLOCK)
    estimator = make_estimator("gzip6", (BLOCK,), samples_per_point=2)
    squirrel = Squirrel(cluster=cluster, estimator=estimator, gc_window_days=7)
    return squirrel, dataset


class TestRegister:
    def test_register_propagates_to_all_online_nodes(self, rig):
        squirrel, dataset = rig
        spec = dataset.images[0]
        record = squirrel.register(spec)
        assert record.receivers == 6
        cache = squirrel.cache_file_of(spec.image_id)
        for node in squirrel.cluster.compute:
            assert node.ccvolume.has_file(cache)

    def test_register_creates_snapshot_chain(self, rig):
        squirrel, dataset = rig
        for spec in dataset.images[:3]:
            squirrel.register(spec)
        snaps = squirrel.cluster.storage.scvolume.snapshots()
        assert [s.name for s in snaps] == ["v00001", "v00002", "v00003"]

    def test_duplicate_registration_rejected(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.images[0])
        with pytest.raises(RegistrationError):
            squirrel.register(dataset.images[0])

    def test_diff_smaller_than_cache(self, rig):
        """The cVolume diff is O(10 MB) for an O(100 MB) cache (Section 5.3):
        dedup + compression shrink what actually travels."""
        squirrel, dataset = rig
        # register several images of the same release: later diffs dedup hard
        ubuntu = [
            s for s in dataset.images
            if s.release.family == "ubuntu" and s.release.name == "13.10"
        ][:4]
        records = [squirrel.register(spec) for spec in ubuntu]
        for record in records:
            assert record.diff_bytes < record.cache_bytes
        # later registrations benefit from cross-cache dedup on the receiver
        assert records[-1].diff_bytes < records[-1].cache_bytes * 0.8

    def test_propagation_seconds_modest(self, rig):
        """Section 3.2: the whole workflow is not in the boot critical path
        and the diff multicast takes a couple of seconds at most."""
        squirrel, dataset = rig
        record = squirrel.register(dataset.images[0])
        assert record.propagation_seconds < 2.0


class TestBoot:
    def test_warm_boot_moves_zero_bytes(self, rig):
        squirrel, dataset = rig
        spec = dataset.images[0]
        squirrel.register(spec)
        before = squirrel.cluster.compute_ingress_bytes(purpose="boot-read")
        outcome = squirrel.boot(spec.image_id, "compute0")
        assert outcome.cache_hit
        assert outcome.network_bytes == 0
        assert squirrel.cluster.compute_ingress_bytes(purpose="boot-read") == before

    def test_unregistered_boot_rejected(self, rig):
        squirrel, _ = rig
        with pytest.raises(RegistrationError):
            squirrel.boot(42, "compute0")

    def test_cold_boot_reads_boot_set_over_network(self, rig):
        squirrel, dataset = rig
        spec = dataset.images[0]
        squirrel.cluster.node("compute3").online = False
        squirrel.register(spec)
        squirrel.cluster.node("compute3").online = True
        outcome = squirrel.boot(spec.image_id, "compute3")
        assert not outcome.cache_hit
        assert outcome.network_bytes >= min(spec.cache_bytes, spec.nonzero_bytes)


class TestDeregisterAndGC:
    def test_deregister_removes_cache(self, rig):
        squirrel, dataset = rig
        spec = dataset.images[0]
        squirrel.register(spec)
        squirrel.deregister(spec.image_id)
        assert not squirrel.cluster.storage.scvolume.has_file(
            squirrel.cache_file_of(spec.image_id)
        )

    def test_deregistration_propagates_with_next_snapshot(self, rig):
        """Section 3.4: no snapshot on delete; the unlink rides the next
        registration's diff."""
        squirrel, dataset = rig
        first, second = dataset.images[0], dataset.images[1]
        squirrel.register(first)
        squirrel.deregister(first.image_id)
        node = squirrel.cluster.compute[0]
        assert node.ccvolume.has_file(squirrel.cache_file_of(first.image_id))
        squirrel.register(second)  # new snapshot carries the unlink
        assert not node.ccvolume.has_file(squirrel.cache_file_of(first.image_id))

    def test_gc_keeps_window_and_latest(self, rig):
        squirrel, dataset = rig
        for day, spec in enumerate(dataset.images[:5]):
            squirrel.register(spec)
            squirrel.advance_time(3)
        victims = squirrel.collect_garbage()  # clock=15, window=7 => cutoff=8
        scvol = squirrel.cluster.storage.scvolume
        names = [s.name for s in scvol.snapshots()]
        assert "v00005" in names  # latest always kept
        assert victims  # something old was collected
        for victim in victims:
            assert victim not in names

    def test_gc_frees_space_of_dead_caches(self, rig):
        squirrel, dataset = rig
        spec = dataset.images[0]
        squirrel.register(spec)
        squirrel.deregister(spec.image_id)
        squirrel.advance_time(30)
        squirrel.register(dataset.images[1])  # snapshot carrying the unlink
        pool = squirrel.cluster.storage.pool
        used_before_gc = pool.data_bytes
        squirrel.collect_garbage()
        assert pool.data_bytes < used_before_gc


class TestOfflinePropagation:
    def test_incremental_resync_within_window(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.images[0])
        node = squirrel.cluster.node("compute2")
        node.online = False
        squirrel.register(dataset.images[1])
        squirrel.register(dataset.images[2])
        moved = squirrel.resync_node("compute2")
        assert moved > 0
        for spec in dataset.images[:3]:
            assert node.ccvolume.has_file(squirrel.cache_file_of(spec.image_id))

    def test_resync_is_noop_when_in_sync(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.images[0])
        assert squirrel.resync_node("compute1") == 0

    def test_full_replication_after_window_expires(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.images[0])
        node = squirrel.cluster.node("compute2")
        node.online = False
        squirrel.advance_time(30)  # node misses a whole month
        squirrel.register(dataset.images[1])
        squirrel.collect_garbage()  # v00001 falls out of the window
        moved = squirrel.resync_node("compute2")
        assert moved > 0
        assert node.ccvolume.has_file(squirrel.cache_file_of(0))
        assert node.ccvolume.has_file(squirrel.cache_file_of(1))
        assert node.synced_snapshot == "v00002"

    def test_new_node_receives_everything(self, rig):
        squirrel, dataset = rig
        node = squirrel.cluster.node("compute5")
        node.online = False
        node.synced_snapshot = None
        for spec in dataset.images[:3]:
            squirrel.register(spec)
        squirrel.resync_node("compute5")
        for spec in dataset.images[:3]:
            assert node.ccvolume.has_file(squirrel.cache_file_of(spec.image_id))


class TestOfflineCatchupReplay:
    """Regression: catch-up must replay *all* missed incremental sends in
    snapshot order, leaving the replica's snapshot chain identical to the
    scVolume's — a node that misses two registration rounds used to receive
    one jump diff and end up without the intermediate snapshot."""

    def test_two_missed_rounds_replayed_in_order(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.images[0])
        node = squirrel.cluster.node("compute3")
        node.online = False
        squirrel.register(dataset.images[1])  # v00002 — missed
        squirrel.register(dataset.images[2])  # v00003 — missed
        moved = squirrel.resync_node("compute3")
        assert moved > 0
        scvol_names = [
            s.name for s in squirrel.cluster.storage.scvolume.snapshots()
        ]
        cc_names = [s.name for s in node.ccvolume.snapshots()]
        assert scvol_names == ["v00001", "v00002", "v00003"]
        assert cc_names == scvol_names
        assert node.synced_snapshot == "v00003"
        # replica content identical to a never-offline peer's
        peer = squirrel.cluster.node("compute1")
        assert sorted(node.ccvolume.file_names()) == sorted(
            peer.ccvolume.file_names()
        )
        # and the next multicast diff applies cleanly to the caught-up node
        squirrel.register(dataset.images[3])
        assert node.ccvolume.has_file(squirrel.cache_file_of(3))

    def test_stale_online_node_is_skipped_not_corrupted(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.images[0])
        node = squirrel.cluster.node("compute2")
        node.online = False
        squirrel.register(dataset.images[1])
        node.online = True  # re-onlined without resync: stale synced_snapshot
        record = squirrel.register(dataset.images[2])
        assert record.receivers == 5  # the stale node is skipped, not crashed
        assert not node.ccvolume.has_file(squirrel.cache_file_of(2))
        squirrel.resync_node("compute2")
        for image_id in (0, 1, 2):
            assert node.ccvolume.has_file(squirrel.cache_file_of(image_id))


def _propagation_entries(squirrel):
    return [
        entry for entry in squirrel.cluster.ledger.entries
        if entry[3] == "cache-propagation"
    ]


class TestPropagationLedger:
    """A registration's multicast is one grouped ledger entry, whatever
    the fleet size; the per-receiver row view still reads as one row per
    receiver, and only online, in-sync nodes are on it."""

    def test_one_entry_per_multicast_on_a_wide_fleet(self, dataset):
        cluster = IaaSCluster.build(n_compute=64, n_storage=4, block_size=BLOCK)
        estimator = make_estimator("gzip6", (BLOCK,), samples_per_point=2)
        squirrel = Squirrel(cluster=cluster, estimator=estimator)
        records = [squirrel.register(spec) for spec in dataset.images[:8]]
        assert [r.receivers for r in records] == [64] * 8
        ledger = cluster.ledger
        entries = _propagation_entries(squirrel)
        primary = cluster.storage.primary.name
        fleet = tuple(node.name for node in cluster.compute)
        assert [(src, dsts) for src, dsts, *_ in entries] == [(primary, fleet)] * 8
        rows = [t for t in ledger.transfers if t.purpose == "cache-propagation"]
        assert len(rows) == 8 * 64
        assert len(ledger.transfers) == len(list(ledger.transfers)) == sum(
            len(dsts) for _, dsts, *_ in ledger.entries
        )
        diff_total = sum(r.diff_bytes for r in records)
        for name in fleet:
            assert ledger.bytes_into(name, purpose="cache-propagation") == diff_total
        # the multicast is sourced at a brick, but not under a read purpose
        bricks = {n.name for group in cluster.storage.gluster.groups for n in group}
        assert primary in bricks
        cluster.storage.gluster.verify_served_accounting()

    def test_stale_online_node_gets_no_row_and_keeps_its_sync_point(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.images[0])
        node = squirrel.cluster.node("compute2")
        node.online = False
        squirrel.register(dataset.images[1])
        node.online = True  # stale: synced to v00001, the diff is v2 -> v3
        squirrel.register(dataset.images[2])
        *_, (_, dsts, _, _, _) = _propagation_entries(squirrel)
        assert "compute2" not in dsts and len(dsts) == 5
        assert not any(
            t.dst == "compute2" and t.purpose == "cache-propagation"
            for t in list(squirrel.cluster.ledger.transfers)[-5:]
        )
        assert node.synced_snapshot == "v00001"
        assert {n.synced_snapshot for n in squirrel.cluster.compute if n is not node} == {
            "v00003"
        }

    def test_stale_node_keeps_its_shard_sync_point(self, rig):
        squirrel, dataset = rig
        _attach_router(squirrel, dataset, 2)
        squirrel.register(dataset.images[0])  # s00 v00001
        node = squirrel.cluster.node("compute2")
        node.online = False
        squirrel.register(dataset.images[2])  # s00 v00002, missed
        node.online = True
        squirrel.register(dataset.images[4])  # s00 v00002 -> v00003
        *_, (_, dsts, _, _, _) = _propagation_entries(squirrel)
        assert "compute2" not in dsts
        assert node.shard_synced["ccvol/s00"] == "v00001"
        peer = squirrel.cluster.node("compute1")
        assert peer.shard_synced["ccvol/s00"] == "v00003"
        squirrel.register(dataset.images[1])  # s01: compute2 is in sync
        assert node.shard_synced["ccvol/s01"] == "v00001"


class TestCacheView:
    def test_catalog_synthesis_error_propagates(self, rig):
        squirrel, dataset = rig
        spec = dataset.images[0]

        class BrokenCatalog:
            def spec(self, image_id):
                return spec

            def block_view(self, image_id, block_size, subject="caches"):
                raise RuntimeError("synthesis failed")

        squirrel.catalog = BrokenCatalog()
        with pytest.raises(RuntimeError, match="synthesis failed"):
            squirrel.register(spec)

    def test_image_outside_the_catalog_builds_inline(self, rig):
        squirrel, dataset = rig
        squirrel.catalog = LazyImageCatalog(specs=dataset.images[:1])
        record = squirrel.register(dataset.images[1])
        assert record.receivers == 6
        assert squirrel.catalog.resident_bytes == 0  # memo never touched
        for node in squirrel.cluster.compute:
            assert node.ccvolume.has_file(squirrel.cache_file_of(1))


class TestBootStorm:
    def test_squirrel_eliminates_boot_traffic(self, rig):
        squirrel, dataset = rig
        for spec in dataset.images[:12]:
            squirrel.register(spec)
        result = run_boot_storm(
            squirrel, dataset, n_nodes=4, vms_per_node=3, with_caches=True
        )
        assert result.compute_ingress_bytes == 0
        assert result.cache_hits == result.boots == 12

    def test_baseline_traffic_grows_with_vms(self, rig):
        squirrel, dataset = rig
        for spec in dataset.images[:12]:
            squirrel.register(spec)
        one = run_boot_storm(
            squirrel, dataset, n_nodes=4, vms_per_node=1, with_caches=False
        )
        many = run_boot_storm(
            squirrel, dataset, n_nodes=4, vms_per_node=3, with_caches=False
        )
        assert many.compute_ingress_bytes > 2 * one.compute_ingress_bytes


class TestRegistrationWorkflowTime:
    def test_workflow_under_a_minute(self, rig):
        """Section 3.2: the registration workflow takes no more than a
        minute (boot once + snapshot + multicast the diff)."""
        squirrel, dataset = rig
        record = squirrel.register(dataset.images[0])
        assert record.workflow_seconds < 60.0


class TestPoolDescribe:
    def test_zfs_list_style_report(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.images[0])
        report = squirrel.cluster.storage.pool.describe()
        assert "scvol" in report
        assert "dedup" in report
        assert "DDT" in report


def _attach_router(squirrel, dataset, n_shards, *, quota_bytes=0):
    """Shard ``squirrel`` by tenant, owner ``image_id % 2``."""
    specs = dataset.images[:16]
    plan = build_plan(
        specs, n_shards, "tenant",
        owners={spec.image_id: spec.image_id % 2 for spec in specs},
    )
    router = ShardRouter(plan, quota_bytes=quota_bytes)
    squirrel.sharding = router
    router.install(squirrel)
    return router


def _snapshot_names(dataset):
    return [snap.name for snap in dataset.snapshots()]


class TestShardedSnapshotChains:
    """A shard is one more snapshot chain: register, propagate, GC,
    resync and deregister behave per shard exactly as the global
    scVolume → ccVolume chain does."""

    def test_each_shard_numbers_its_own_chain(self, rig):
        squirrel, dataset = rig
        router = _attach_router(squirrel, dataset, 2)
        records = [squirrel.register(spec) for spec in dataset.images[:5]]
        assert [r.snapshot for r in records] == [
            "v00001", "v00001", "v00002", "v00002", "v00003",
        ]
        s00, s01 = (router.scvol.dataset(s) for s in ("s00", "s01"))
        assert _snapshot_names(s00) == ["v00001", "v00002", "v00003"]
        assert _snapshot_names(s01) == ["v00001", "v00002"]
        for node in squirrel.cluster.compute:
            cc00 = node.pool.dataset("ccvol/s00")
            cc01 = node.pool.dataset("ccvol/s01")
            assert _snapshot_names(cc00) == _snapshot_names(s00)
            assert _snapshot_names(cc01) == _snapshot_names(s01)
            assert cc00.has_file(squirrel.cache_file_of(4))
            assert cc01.has_file(squirrel.cache_file_of(3))

    def test_stale_online_node_is_skipped_per_shard(self, rig):
        squirrel, dataset = rig
        router = _attach_router(squirrel, dataset, 2)
        squirrel.register(dataset.images[0])  # s00 v00001
        node = squirrel.cluster.node("compute2")
        node.online = False
        squirrel.register(dataset.images[2])  # s00 v00002, missed
        node.online = True  # re-onlined without resync: stale on s00 only
        stale = squirrel.register(dataset.images[4])
        assert stale.receivers == 5
        cc00 = node.pool.dataset("ccvol/s00")
        assert not cc00.has_file(squirrel.cache_file_of(4))
        assert _snapshot_names(cc00) == ["v00001"]
        # in sync on s01 (never missed a diff there): receives normally
        assert squirrel.register(dataset.images[1]).receivers == 6
        assert node.pool.dataset("ccvol/s01").has_file(
            squirrel.cache_file_of(1)
        )
        squirrel.resync_node("compute2")
        assert _snapshot_names(cc00) == _snapshot_names(router.scvol.dataset("s00"))
        for image_id in (0, 2, 4):
            assert cc00.has_file(squirrel.cache_file_of(image_id))

    def test_in_window_resync_replays_every_missed_incremental(self, rig):
        squirrel, dataset = rig
        router = _attach_router(squirrel, dataset, 2)
        squirrel.register(dataset.images[0])
        squirrel.register(dataset.images[1])
        node = squirrel.cluster.node("compute3")
        node.online = False
        for spec in dataset.images[2:7]:
            squirrel.register(spec)
        before = squirrel.cluster.compute_ingress_bytes(
            purpose="offline-propagation"
        )
        moved = squirrel.resync_node("compute3")
        assert moved > 0
        assert squirrel.cluster.compute_ingress_bytes(
            purpose="offline-propagation"
        ) - before == moved
        peer = squirrel.cluster.node("compute1")
        for shard in router.names:
            cc = f"ccvol/{shard}"
            assert _snapshot_names(node.pool.dataset(cc)) == _snapshot_names(
                router.scvol.dataset(shard)
            )
            assert sorted(node.pool.dataset(cc).file_names()) == sorted(
                peer.pool.dataset(cc).file_names()
            )
        # every missed incremental, one stream each, oldest first
        shipped = [
            t for t in squirrel.cluster.ledger.transfers
            if t.dst == "compute3" and t.purpose == "offline-propagation"
        ]
        assert len(shipped) == 5  # s00: v1→v2→v3→v4, s01: v1→v2→v3
        # the caught-up node applies the next multicast on both shards
        assert squirrel.register(dataset.images[7]).receivers == 6
        assert squirrel.register(dataset.images[8]).receivers == 6

    def test_resync_after_gc_dropped_the_base_is_full(self, rig):
        squirrel, dataset = rig
        router = _attach_router(squirrel, dataset, 2)
        squirrel.register(dataset.images[0])
        squirrel.register(dataset.images[1])
        node = squirrel.cluster.node("compute2")
        node.online = False
        squirrel.advance_time(30)
        for spec in dataset.images[2:6]:
            squirrel.register(spec)
        squirrel.collect_garbage()  # both shards drop their v00001 base
        full = {}
        for shard in router.names:
            scds = router.scvol.dataset(shard)
            assert not scds.has_snapshot("v00001")
            full[shard] = generate_send(
                scds, scds.latest_snapshot().name, include_payloads=False
            ).size_bytes
        moved = squirrel.resync_node("compute2")
        assert moved == sum(full.values())
        for shard in router.names:
            cc = node.pool.dataset(f"ccvol/{shard}")
            assert _snapshot_names(cc) == ["v00003"]
            for image_id in range(6):
                if router.shard_of(image_id) == shard:
                    assert cc.has_file(squirrel.cache_file_of(image_id))
        assert squirrel.register(dataset.images[6]).receivers == 6

    def test_gc_victims_are_shard_qualified(self, rig):
        squirrel, dataset = rig
        router = _attach_router(squirrel, dataset, 2)
        squirrel.register(dataset.images[0])
        squirrel.register(dataset.images[1])
        squirrel.advance_time(10)
        squirrel.register(dataset.images[2])
        squirrel.register(dataset.images[3])
        victims = squirrel.collect_garbage()
        assert victims == ["s00@v00001", "s01@v00001"]
        for shard in router.names:
            assert _snapshot_names(router.scvol.dataset(shard)) == ["v00002"]
            for node in squirrel.cluster.compute:
                assert _snapshot_names(node.pool.dataset(f"ccvol/{shard}")) == [
                    "v00002"
                ]
        assert squirrel.collect_garbage() == []

    def test_deregister_after_quota_eviction(self, rig):
        squirrel, dataset = rig
        router = _attach_router(squirrel, dataset, 2, quota_bytes=1)
        squirrel.register(dataset.images[0])
        squirrel.register(dataset.images[2])  # same shard: evicts image 0
        scds = router.scvol.dataset("s00")
        assert not scds.has_file(squirrel.cache_file_of(0))
        assert router.evicted_images == {0: "s00"}
        squirrel.deregister(0)  # the hoard is already gone: still fine
        assert not squirrel.is_registered(0)
        assert router.evicted_images == {}
        squirrel.deregister(2)
        assert not scds.has_file(squirrel.cache_file_of(2))
        squirrel.register(dataset.images[4])  # the unlink rides this diff
        for node in squirrel.cluster.compute:
            cc = node.pool.dataset("ccvol/s00")
            assert cc.file_names() == [squirrel.cache_file_of(4)]

    def test_single_shard_router_matches_no_router(self, rig, dataset):
        """One shard adopts the scVolume/ccVolume pair: every snapshot,
        file and resync byte matches the unsharded Squirrel; only the GC
        victim labels carry the shard prefix."""
        plain, _ = rig
        cluster = IaaSCluster.build(n_compute=6, n_storage=4, block_size=BLOCK)
        estimator = make_estimator("gzip6", (BLOCK,), samples_per_point=2)
        sharded = Squirrel(cluster=cluster, estimator=estimator, gc_window_days=7)
        _attach_router(sharded, dataset, 1)

        def drive(squirrel):
            out = {"records": [], "resyncs": [], "victims": []}
            for spec in dataset.images[:4]:
                out["records"].append(squirrel.register(spec))
            squirrel.cluster.node("compute2").online = False
            for spec in dataset.images[4:6]:
                out["records"].append(squirrel.register(spec))
            out["resyncs"].append(squirrel.resync_node("compute2"))
            squirrel.cluster.node("compute3").online = False
            squirrel.advance_time(30)
            for spec in dataset.images[6:8]:
                out["records"].append(squirrel.register(spec))
            out["victims"] = squirrel.collect_garbage()
            squirrel.deregister(1)
            out["records"].append(squirrel.register(dataset.images[8]))
            out["resyncs"].append(squirrel.resync_node("compute3"))
            storage = squirrel.cluster.storage.scvolume
            out["scvol"] = (_snapshot_names(storage), storage.file_names())
            out["nodes"] = [
                (_snapshot_names(node.ccvolume), node.ccvolume.file_names())
                for node in squirrel.cluster.compute
            ]
            out["ingress"] = squirrel.cluster.compute_ingress_bytes()
            return out

        a, b = drive(plain), drive(sharded)
        assert a["records"] == b["records"]
        assert a["resyncs"] == b["resyncs"] and all(a["resyncs"])
        assert a["scvol"] == b["scvol"]
        assert a["nodes"] == b["nodes"]
        assert a["ingress"] == b["ingress"]
        assert a["victims"] and b["victims"] == [
            f"s00@{name}" for name in a["victims"]
        ]
