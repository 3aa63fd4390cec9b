"""Squirrel — the fully replicated VMI-cache system (paper Section 3).

Implements the three VMI operations over an :class:`~repro.core.cluster.
IaaSCluster`:

* :meth:`Squirrel.register` — boot the new image once on a storage node to
  create its cache, store it in the scVolume, snapshot, and multicast the
  incremental snapshot diff to every *online* compute node (Figure 6).
* :meth:`Squirrel.boot` — chain CoW → ccVolume cache → base VMI (Figure 7).
  With a warm replicated cache the boot moves **zero** network bytes; a
  missing cache falls back to copy-on-read over the parallel FS.
* :meth:`Squirrel.deregister` — delete the VMI and its cache; no snapshot is
  taken (Section 3.4) — the deletion propagates with the next registration.

Plus the two background mechanisms:

* :meth:`Squirrel.collect_garbage` — keep the snapshots of the last ``n``
  days and the newest one, destroy the rest (the daily cron job).
* :meth:`Squirrel.resync_node` — offline propagation (Section 3.5): a node
  returning from downtime requests the diff from its last synced snapshot;
  if that snapshot was already garbage-collected, the whole scVolume is
  re-replicated.

Each of these runs over a :class:`~repro.core.cluster.SnapshotChain`: the
scVolume → ccVolume pair, or one chain per shard when a
:class:`~repro.shard.ShardRouter` partitions the cVolume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codecs import SizeEstimator
from ..common.errors import ConfigError, RegistrationError
from ..common.units import QCOW2_CLUSTER_SIZE, align_up
from ..vmi.image import ImageSpec, cache_stream
from ..vmi.streams import block_view
from ..zfs import SendStream, generate_send, receive
from ..net import multicast
from .cluster import CCVOLUME, ComputeNode, IaaSCluster, SnapshotChain
from .replica import apply_to_nodes

__all__ = ["Squirrel", "BootOutcome", "RegistrationRecord", "cold_read_bytes"]


#: Network read amplification of a cold (no-cache) boot: the boot working
#: set is scattered across the image, and every miss is fetched at QCOW2
#: cluster granularity (64 KB) from a parallel FS that serves whole 128 KB
#: stripe units — so the bytes on the wire are a small multiple of the
#: working set itself. Calibrated against Figure 18's ~180 GB for 512 VMs
#: (~130 MB working sets); Squirrel avoids all of it, whatever the factor.
BOOT_READ_AMPLIFICATION = 2.5

#: time to boot the new image once on a storage node during registration
#: (Section 3.2: "no longer than a normal VM boot", and the dataset's VMs
#: "boot in less than 20 seconds" on average)
REGISTRATION_BOOT_SECONDS = 20.0
#: creating a read-only ZFS snapshot is effectively instantaneous
SNAPSHOT_CREATE_SECONDS = 0.2


def cold_read_bytes(spec: ImageSpec) -> int:
    """Bytes a no-cache boot pulls over the network (Figure 18's unit)."""
    to_read = align_up(
        int(min(spec.cache_bytes, spec.nonzero_bytes) * BOOT_READ_AMPLIFICATION),
        QCOW2_CLUSTER_SIZE,
    )
    return min(to_read, spec.nonzero_bytes)


def _cache_file_name(image_id: int) -> str:
    return f"cache-{image_id:05d}"


def _snapshot_name(serial: int) -> str:
    return f"v{serial:05d}"


@dataclass(frozen=True)
class RegistrationRecord:
    """Outcome of one register operation."""

    image_id: int
    snapshot: str
    diff_bytes: int  #: incremental stream size multicast to compute nodes
    cache_bytes: int
    registered_day: float
    propagation_seconds: float
    receivers: int

    @property
    def workflow_seconds(self) -> float:
        """End-to-end registration time: boot-once + snapshot + multicast.

        Section 3.2's claim — "the image registration workflow does not take
        more than a minute" — is checked against this in the tests.
        """
        return (
            REGISTRATION_BOOT_SECONDS
            + SNAPSHOT_CREATE_SECONDS
            + self.propagation_seconds
        )


@dataclass(frozen=True)
class BootOutcome:
    """Outcome of one VM boot."""

    image_id: int
    node: str
    cache_hit: bool
    network_bytes: int  #: bytes this boot moved into the compute node
    #: where the bytes came from: "cache" (local hit), "peer" (placement
    #: redirect to a holder node), or "origin" (glusterfs cold read)
    source: str = "origin"
    peer: str | None = None  #: holder node that served a peer redirect
    adopted: bool = False  #: whether the miss promoted this node to holder


@dataclass
class Squirrel:
    """The orchestrator.

    Every hoard lives on a :class:`~repro.core.cluster.SnapshotChain`:
    register, propagation, GC and resync are written once, over a chain.
    Without a router there is one chain (scVolume → ccVolume); a
    :class:`~repro.shard.ShardRouter` supplies one per shard.
    """

    cluster: IaaSCluster
    estimator: SizeEstimator
    #: offline-propagation window in days (snapshots kept by GC)
    gc_window_days: float = 7.0
    #: logical clock, in days
    clock_days: float = 0.0
    _registered: dict[int, ImageSpec] = field(default_factory=dict)
    #: chain key → last snapshot serial; chain key → snapshot name → day
    _serials: dict[str, int] = field(default_factory=dict)
    _snapshot_days: dict[str, dict[str, float]] = field(default_factory=dict)
    registrations: list[RegistrationRecord] = field(default_factory=list)
    #: optional :class:`~repro.placement.PlacementCoordinator`. ``None`` —
    #: the default — is the paper baseline: every cache on every node,
    #: behaviour byte-identical to pre-placement builds.
    placement: object | None = None
    #: optional :class:`~repro.vmi.ImageCatalog` sharing memoised cache
    #: block views across consumers (e.g. both sides of a storm register
    #: the same images). Synthesis is pure, so a memoised view is
    #: bit-identical to one built inline — results never depend on it.
    catalog: object | None = None
    #: optional :class:`~repro.shard.ShardRouter`. ``None`` — the default —
    #: is the single global dedup domain on the one scVolume chain. A
    #: router supplies the per-shard chains and the steps that only exist
    #: for shards: quota eviction, DDT high-water, tenant accounting.
    sharding: object | None = None
    _chain: SnapshotChain = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._chain = SnapshotChain(self.cluster.storage.scvolume, CCVOLUME)

    # -- time ----------------------------------------------------------------------

    def advance_time(self, days: float) -> None:
        if days < 0:
            raise RegistrationError("time flows forwards")
        self.clock_days += days

    # -- snapshot chains -------------------------------------------------------------

    def chains(self) -> tuple[SnapshotChain, ...]:
        """Every snapshot chain, in a fixed (shard plan) order."""
        if self.sharding is not None:
            return self.sharding.chains
        return (self._chain,)

    def chain_of(self, image_id: int) -> SnapshotChain:
        """The chain hoarding ``image_id``'s cache."""
        if self.sharding is not None:
            return self.sharding.chain_of(image_id)
        return self._chain

    # -- register (Section 3.2) -------------------------------------------------------

    def _cache_view(self, spec: ImageSpec, record_size: int):
        """The cache stream folded at ``record_size`` — through the shared
        catalog memo when the catalog owns this exact spec, else inline."""
        catalog = self.catalog
        if catalog is not None:
            try:
                owned = catalog.spec(spec.image_id) is spec
            except ConfigError:
                owned = False  # not in the catalog: build inline below
            if owned:
                return catalog.block_view(spec.image_id, record_size, "caches")
        return block_view(cache_stream(spec), record_size)

    def register(self, spec: ImageSpec, *, uploader: str = "user") -> RegistrationRecord:
        """Register a new VMI: upload, cache creation, snapshot, propagation."""
        if spec.image_id in self._registered:
            raise RegistrationError(f"image {spec.image_id} already registered")
        gluster = self.cluster.storage.gluster
        vmi_name = f"vmi-{spec.image_id:05d}"
        if not gluster.has_file(vmi_name):
            gluster.create_file(vmi_name, spec.nonzero_bytes, writer=uploader)

        # 1. boot once on a storage node: reads the boot working set from the
        # parallel FS (local to the storage tier, but still recorded)
        primary = self.cluster.storage.primary
        gluster.read(
            vmi_name, 0, min(spec.cache_bytes, spec.nonzero_bytes),
            reader=primary.name, purpose="registration-boot",
        )

        # 2. move the cache from memory into the chain's storage dataset
        chain = self.chain_of(spec.image_id)
        source = chain.source
        cache_file = _cache_file_name(spec.image_id)
        view = self._cache_view(spec, source.record_size)
        psizes = view.psizes(self.estimator)
        rows = list(
            zip(
                view.signatures.tolist(),
                view.lsizes.tolist(),
                psizes.tolist(),
                view.is_hole.tolist(),
            )
        )
        source.write_file_virtual(cache_file, rows)
        if self.sharding is not None:
            # quota evictions land before the snapshot: they ride its diff
            self.sharding.note_hoarded(chain.shard, spec.image_id, cache_file)

        # 3. snapshot the chain for this registration
        serial = self._serials.get(chain.dataset, 0) + 1
        self._serials[chain.dataset] = serial
        snap_name = _snapshot_name(serial)
        previous = source.latest_snapshot()
        source.snapshot(snap_name)
        self._snapshot_days.setdefault(chain.dataset, {})[snap_name] = (
            self.clock_days
        )

        # 4. distribute the cache to compute nodes
        if self.placement is not None:
            # partial hoarding: the coordinator installs the cache on the
            # image's assigned holders via the configured transport; no
            # fleet-wide snapshot diff is shipped.
            result = self.placement.seed_image(self.cluster, spec, cache_file, rows)
            diff_bytes = result.n_bytes
        else:
            # paper baseline: incremental diff to all online nodes via multicast
            stream = generate_send(
                source,
                snap_name,
                from_snapshot=previous.name if previous else None,
                include_payloads=False,
            )
            result = self._propagate(chain, stream)
            diff_bytes = stream.size_bytes
        self._registered[spec.image_id] = spec
        record = RegistrationRecord(
            image_id=spec.image_id,
            snapshot=snap_name,
            diff_bytes=diff_bytes,
            cache_bytes=spec.cache_bytes,
            registered_day=self.clock_days,
            propagation_seconds=result.duration_s,
            receivers=result.n_receivers,
        )
        self.registrations.append(record)
        return record

    def _propagate(self, chain: SnapshotChain, stream: SendStream):
        # a node that is online but stale (came back from downtime without a
        # resync) cannot apply this diff — receiving it would corrupt the
        # replica or fail the incremental precondition. Skip it; it catches
        # up through resync_node's ordered replay. One pass over the fleet.
        base = stream.from_snapshot
        if chain.dataset == CCVOLUME:
            ready = [
                node for node in self.cluster.compute
                if node.online and node.synced_snapshot == base
            ]
        else:
            dataset = chain.dataset
            ready = [
                node for node in self.cluster.compute
                if node.online and node.shard_synced.get(dataset) == base
            ]
        result = multicast(
            self.cluster.ledger,
            self.cluster.storage.primary,
            [node.node for node in ready],
            stream.size_bytes,
            purpose="cache-propagation",
        )
        self._receive(ready, chain, stream)
        return result

    def _receive(self, nodes, chain: SnapshotChain, stream: SendStream) -> None:
        """Apply one send stream to ``nodes``' replicas of ``chain``.

        Nodes in lockstep share one interned replica: the whole fleet's
        receive is a single pool mutation, and a node replaying a diff its
        never-offline peers already applied lands on their interned state.
        """
        dataset = chain.dataset
        self._apply_replica(
            nodes,
            ("recv", dataset, stream.from_snapshot, stream.to_snapshot),
            lambda pool: receive(pool.dataset(dataset), stream),
        )
        synced = stream.to_snapshot
        if dataset == CCVOLUME:
            for node in nodes:
                node.synced_snapshot = synced
        else:
            for node in nodes:
                node.shard_synced[dataset] = synced

    def _apply_replica(self, nodes, token, mutate, *, when=None) -> None:
        """Route one node-side mutation through the cluster's replica store."""
        apply_to_nodes(
            getattr(self.cluster, "replicas", None), nodes, token, mutate,
            when=when,
        )

    # -- boot (Section 3.3) ------------------------------------------------------------

    def boot(self, image_id: int, node_name: str) -> BootOutcome:
        """Boot a VM from ``image_id`` on a compute node.

        Warm replicated cache → zero network bytes. A node whose ccVolume
        lacks the cache (offline during registration and not yet resynced)
        reads the boot working set from the parallel FS, copy-on-read style.
        """
        outcome, _plan = self.boot_with_plan(image_id, node_name)
        return outcome

    def boot_with_plan(self, image_id: int, node_name: str):
        """Boot and also return the per-brick service plan of the cold path
        (empty on a cache hit) — the hook the event engine schedules timed
        transfers from. Accounting is identical to :meth:`boot`.
        """
        spec = self._registered.get(image_id)
        if spec is None:
            raise RegistrationError(f"image {image_id} is not registered")
        node = self.cluster.node(node_name)
        replica = node.pool.dataset(self.chain_of(image_id).dataset)
        if node.online and replica.has_file(_cache_file_name(image_id)):
            return (
                BootOutcome(
                    image_id, node_name, cache_hit=True, network_bytes=0,
                    source="cache",
                ),
                [],
            )
        if self.placement is not None:
            # miss on a non-holder: redirect the cold read to the nearest
            # live peer holder instead of the glusterfs origin. Falls back
            # to the origin when every holder is down (survivor failover
            # already tried the others).
            peer = self.placement.pick_peer(self.cluster, image_id, node_name)
            if peer is not None:
                n_bytes = self.placement.payload_bytes(image_id)
                self.placement.record_redirect(
                    self.cluster, peer.name, node_name, n_bytes
                )
                adopted = node.online and self.placement.maybe_adopt(
                    self.cluster, image_id, node
                )
                return (
                    BootOutcome(
                        image_id, node_name, cache_hit=False,
                        network_bytes=n_bytes, source="peer",
                        peer=peer.name, adopted=adopted,
                    ),
                    [],
                )
            self.placement.record_origin_fallback()
        # cold path: QCOW2 cluster-granular reads of the boot set over the net
        vmi_name = f"vmi-{image_id:05d}"
        moved, plan = self.cluster.storage.gluster.read_with_plan(
            vmi_name, 0, cold_read_bytes(spec), reader=node_name,
            purpose="boot-read",
        )
        return (
            BootOutcome(
                image_id, node_name, cache_hit=False, network_bytes=moved,
                source="origin",
            ),
            plan,
        )

    # -- deregister + GC (Section 3.4) --------------------------------------------------

    def deregister(self, image_id: int) -> None:
        """Remove a VMI and its cache; no snapshot is taken (the unlink rides
        the next registration's diff)."""
        if image_id not in self._registered:
            raise RegistrationError(f"image {image_id} is not registered")
        cache_file = _cache_file_name(image_id)
        chain = self.chain_of(image_id)
        # a shard's quota eviction may already have dropped the hoard
        if chain.source.has_file(cache_file):
            chain.source.delete_file(cache_file)
        if self.sharding is not None:
            self.sharding.note_dropped(chain.shard, image_id, cache_file)
        if self.placement is not None:
            self.placement.drop_image(self.cluster, image_id, cache_file)
        del self._registered[image_id]

    def collect_garbage(self) -> list[str]:
        """The daily cron job: destroy snapshots older than the window,
        always keeping each chain's latest snapshot regardless of age. Runs
        on the storage side and every online node's replica of each chain;
        returns the victims as :meth:`SnapshotChain.label` names."""
        cutoff = self.clock_days - self.gc_window_days
        online = self.cluster.online_nodes()
        collected: list[str] = []
        for chain in self.chains():
            days = self._snapshot_days.get(chain.dataset, {})
            victims = [
                snap.name
                for snap in chain.source.snapshots()[:-1]  # never the latest
                if days.get(snap.name, 0.0) < cutoff
            ]
            for name in victims:
                chain.source.destroy_snapshot(name)
                self._destroy_replica_snapshot(online, chain, name)
                days.pop(name, None)
                collected.append(chain.label(name))
        return collected

    def _destroy_replica_snapshot(
        self, nodes, chain: SnapshotChain, name: str
    ) -> None:
        dataset = chain.dataset
        self._apply_replica(
            nodes,
            ("gcsnap", dataset, name),
            lambda pool: pool.dataset(dataset).destroy_snapshot(name),
            when=lambda pool: pool.dataset(dataset).has_snapshot(name),
        )

    # -- offline propagation (Section 3.5) -----------------------------------------------

    def resync_node(self, node_name: str) -> int:
        """Bring a (re-)joining node's replicas in sync; returns bytes moved.

        Each chain is caught up on its own, in chain order. When the node's
        last synced snapshot of a chain still exists on the storage side,
        catch-up **replays every missed incremental send in snapshot order**
        — the node ends with the same snapshot chain every never-offline
        node has, so later diffs and GC see no difference between them. A
        single base→latest jump diff would leave the intermediate snapshots
        missing on the replica and its chain diverged from the storage's.
        When the base fell out of the GC window (or the node is brand new),
        the chain is replicated from scratch.
        """
        node = self.cluster.node(node_name)
        node.online = True
        if self.placement is not None:
            # partial hoarding has no snapshot chain to replay: pull exactly
            # the cache slices the directory assigns this node.
            return self.placement.reseed_node(self.cluster, node)
        return sum(self._resync_chain(node, chain) for chain in self.chains())

    def resync_is_incremental(self, node_name: str) -> bool:
        """Whether :meth:`resync_node` can replay incrementals on every chain
        with history (``False``: some chain needs full replication)."""
        node = self.cluster.node(node_name)
        replayable = []
        for chain in self.chains():
            if chain.source.latest_snapshot() is None:
                continue
            base = node.sync_point(chain.dataset)
            replayable.append(base is not None and chain.source.has_snapshot(base))
        return bool(replayable) and all(replayable)

    def _resync_chain(self, node: ComputeNode, chain: SnapshotChain) -> int:
        source = chain.source
        latest = source.latest_snapshot()
        if latest is None:
            return 0
        base = node.sync_point(chain.dataset)
        if base == latest.name:
            return 0
        moved = 0
        if base is not None and source.has_snapshot(base):
            names = [snap.name for snap in source.snapshots()]
            start = names.index(base)
            for from_snap, to_snap in zip(names[start:], names[start + 1:]):
                stream = generate_send(
                    source, to_snap, from_snapshot=from_snap,
                    include_payloads=False,
                )
                moved += self._ship_to_node(node, chain, stream)
        else:
            # fell out of the window (or brand-new node): full replication
            self._reset_replica(node, chain)
            stream = generate_send(source, latest.name, include_payloads=False)
            moved = self._ship_to_node(node, chain, stream)
        # drop node-local snapshots the storage side no longer has (GC ran
        # while the node was away); frees the space their deadlists pin
        for snap in list(node.pool.dataset(chain.dataset).snapshots()):
            if not source.has_snapshot(snap.name):
                self._destroy_replica_snapshot([node], chain, snap.name)
        return moved

    def _ship_to_node(
        self, node: ComputeNode, chain: SnapshotChain, stream: SendStream
    ) -> int:
        """Unicast one send stream to a node and apply it."""
        duration = node.node.link.transfer_time(stream.size_bytes)
        self.cluster.ledger.record(
            self.cluster.storage.primary.name,
            node.name,
            stream.size_bytes,
            "offline-propagation",
            duration,
        )
        self._receive([node], chain, stream)
        return stream.size_bytes

    def _reset_replica(self, node: ComputeNode, chain: SnapshotChain) -> None:
        """Blow away a node's replica of ``chain`` ahead of full replication."""
        source, dataset = chain.source, chain.dataset

        def reset(pool) -> None:
            pool.destroy_dataset(dataset)
            pool.create_dataset(
                dataset,
                record_size=source.record_size,
                compression=source.compression,
                dedup=True,
                domain=chain.domain,
            )

        self._apply_replica([node], ("reset", dataset), reset)
        node.set_sync_point(dataset, None)

    # -- introspection -------------------------------------------------------------------

    def registered_ids(self) -> list[int]:
        return sorted(self._registered)

    def is_registered(self, image_id: int) -> bool:
        return image_id in self._registered

    def cache_file_of(self, image_id: int) -> str:
        return _cache_file_name(image_id)
