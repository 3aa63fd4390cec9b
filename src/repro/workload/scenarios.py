"""Scenario drivers: Squirrel operations as timed processes.

The accounting layer answers *how many bytes* a boot storm moves; this
module answers *how long it takes* when those bytes contend for NIC links,
glusterfs brick uplinks, local disks, and decompression CPU. It wires a
:class:`repro.sim.Engine` onto an :class:`~repro.core.cluster.IaaSCluster`:

* every compute node gets an ingress NIC :class:`~repro.sim.Pipe`, a
  :class:`~repro.disk.TimedDisk` (DAS-4 RAID-0 profile) and a decompression
  CPU :class:`~repro.sim.Resource`,
* every storage node's uplink is a shared brick Pipe,
* Squirrel ``register`` / ``boot`` / ``resync`` / GC run as generator
  processes: the accounting call executes at its scheduled instant (so all
  byte counts stay identical to the untimed system) and the bytes it moved
  are then driven through the contended resources.

Because the dataset is size-scaled to fit in memory, all *timed* byte
counts are scaled back up by ``1/scale`` before hitting a pipe or disk —
latencies come out in real-cluster seconds while ledger accounting keeps
the scaled units every other experiment uses.

Scenarios: :func:`boot_storm` (flash crowd, the timed generalisation of
Figure 18), :func:`steady_state_day` (diurnal multi-tenant load), and
:func:`register_churn` (registration pressure + node downtime + GC, which
exercises offline-propagation catch-up under time).

Fault tolerance: a :class:`~repro.faults.FaultPlan` on :class:`StormConfig`
runs the storm under injected node crashes, link flaps and brick failures.
Preempted boots cancel their half-done transfers, wait for the crashed host
to rejoin (offline catch-up included), retry, and **always complete**; the
report carries recovery-time percentiles next to the boot-time ones.

Observability: every boot opens a root span on a :class:`~repro.obs.
SpanTracer` with children for the ARC lookup, DDT/zio work, glusterfs
transfers (tagged with the chosen replica and degraded state), NIC transfer
and disk reads/writes; faults annotate the spans they kill. Each node runs
an in-memory :class:`~repro.zfs.AdaptiveReplacementCache` over its cVolume
blocks (a node crash wipes it), and every elapsed second of every boot is
charged to exactly one of ``cache_s`` / ``net_s`` / ``disk_s`` / ``wait_s``
(see :mod:`repro.obs.attribution`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, NamedTuple

from ..boot.backends import ZfsCostModel
from ..common.errors import ConfigError
from ..common.hashing import derive_seed
from ..common.report import ReportBase
from ..common.rng import stream as rng_stream
from ..core import IaaSCluster, Squirrel
from ..core.cluster import ComputeNode
from ..core.squirrel import (
    REGISTRATION_BOOT_SECONDS,
    SNAPSHOT_CREATE_SECONDS,
    cold_read_bytes,
)
from ..disk import DAS4_RAID0, DiskModel, TimedDisk
from ..faults import FaultInjector, FaultPlan
from ..metrics import FoldAxis, MetricsRegistry, Sampler, TimeSeriesStore, metrics_block
from ..net import GBE_1, LinkProfile
from ..obs import (
    BootAttribution,
    SpanTracer,
    attribution_block,
    critical_path_block,
    write_chrome_trace,
)
from ..obs import runtime as obs_runtime
from ..sim import Engine, Event, HistogramStats, Interrupted, Pipe, Resource, Timeline
from ..vmi import (
    AzureCommunityDataset,
    DatasetConfig,
    ImageCatalog,
    LazyImageCatalog,
    as_catalog,
    make_estimator,
)
from ..zfs import AdaptiveReplacementCache, ArcStats
from ..placement import (
    TRANSPORT_NAMES,
    PlacementContext,
    PlacementSpec,
    build_coordinator,
)
from .arrivals import DAY_S, diurnal_arrivals, flash_crowd_arrivals, poisson_arrivals
from .tenants import TenantPopulation

__all__ = [
    "StormConfig",
    "StormSide",
    "StormReport",
    "DayConfig",
    "DayReport",
    "ChurnConfig",
    "ChurnReport",
    "TimedSquirrel",
    "boot_storm",
    "steady_state_day",
    "register_churn",
    "storm_image_count",
]

#: decompression throughput of one node core (gzip-6; matches repro.boot)
DECOMPRESS_BYTES_PER_S = 250e6
#: disk span the scattered cache/working-set offsets are drawn over
DISK_SPAN_BYTES = 1 << 40
#: in-memory ARC budget per compute node (matches the cVolume boot backend)
ARC_BYTES_PER_NODE = 256 << 20
#: fixed bucket layout (seconds) shared by every latency histogram family —
#: declared, never data-derived, so expositions diff cleanly across runs
LATENCY_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    120.0, 300.0, 600.0, 1800.0, 3600.0,
)
#: ring capacity of the per-run time-series store (samples per series)
METRICS_RING = 4096
#: per-node (and per-tenant) metric series are exported for at most this
#: many keys (the paper's 64-node cluster), folded past it by
#: :class:`repro.metrics.FoldAxis`. Without the cap a 10k-node storm is
#: quadratic in the sampler — O(nodes) series per scrape times an O(nodes)
#: horizon.
METRICS_NODE_DETAIL = 64


def _disk_offset(size: int, *key) -> int:
    """Deterministic platter position of one piece of data."""
    span = max(1, DISK_SPAN_BYTES - size)
    return derive_seed("disk-offset", *key) % span


class _InflightBoot:
    """Book-keeping handle for one boot in flight: what the fault injector
    needs to preempt it (the process) and to target it (which bricks or
    peer holders its current fetch is streaming from)."""

    __slots__ = ("node_name", "process", "bricks", "peers")

    def __init__(self, node_name: str) -> None:
        self.node_name = node_name
        self.process = None  #: set right after engine.process() creates it
        self.bricks: set[str] = set()
        self.peers: set[str] = set()  #: placement peer(s) serving this fetch


class _BootTrace:
    """One boot's tracing context: the root span, the attribution ledger,
    and the child spans a fault interrupt must annotate and close."""

    __slots__ = ("tracer", "att", "root", "open_spans")

    def __init__(self, tracer: SpanTracer, att: BootAttribution, root) -> None:
        self.tracer = tracer
        self.att = att
        self.root = root
        self.open_spans: list = []

    def child(self, name: str, *, parent=None, **attrs):
        """Open a child span on the boot's track, tracked for fault kills."""
        span = self.tracer.span(
            name, parent=parent or self.root, track=self.root.track, **attrs
        )
        self.open_spans.append(span)
        return span

    def kill(self, cause) -> None:
        """A fault preempted this boot: close every span it left open,
        recording what killed it."""
        for span in self.open_spans:
            if span.open:
                span.end(interrupted=str(cause))
        self.open_spans.clear()


class _ShardedNodeArc:
    """A node's boot ARC partitioned by shard: one independent
    :class:`~repro.zfs.AdaptiveReplacementCache` per shard, keyed through the
    shard plan. This is the RAM half of noisy-neighbor isolation — a tenant
    whose images all land in one shard can only thrash that shard's slice.

    The aggregate surface (``stats``/``p``/``resident_bytes``/``clear``)
    matches the plain ARC, so timeline gauges, the ARC metric families, and
    the fault injector's crash-wipe work unchanged."""

    __slots__ = ("plan", "shards")

    def __init__(self, plan, bytes_per_shard: int) -> None:
        self.plan = plan
        self.shards: dict[str, AdaptiveReplacementCache] = {
            shard: AdaptiveReplacementCache(bytes_per_shard)
            for shard in plan.names
        }

    def _arc(self, key) -> AdaptiveReplacementCache:
        # boot ARC keys are (image_id, block_index); route by image
        return self.shards[self.plan.shard_of(key[0])]

    def get(self, key):
        return self._arc(key).get(key)

    def put(self, key, value, size: int) -> None:
        self._arc(key).put(key, value, size)

    def clear(self) -> None:
        for arc in self.shards.values():
            arc.clear()

    @property
    def p(self) -> int:
        return sum(arc.p for arc in self.shards.values())

    @property
    def resident_bytes(self) -> int:
        return sum(arc.resident_bytes for arc in self.shards.values())

    @property
    def stats(self) -> ArcStats:
        stats = [arc.stats for arc in self.shards.values()]
        return ArcStats(**{
            f.name: sum(getattr(s, f.name) for s in stats) for f in fields(ArcStats)
        })


def _shard_node_ddt_core(rig: "TimedSquirrel", node: ComputeNode, shard: str) -> int:
    """Resident DDT bytes of one shard's dedup domain on a node pool,
    without creating the domain (scrapes must never mutate)."""
    pool = node.pool
    single = rig.squirrel.sharding.n_shards == 1
    ddt = pool.ddt if single else pool.peek_domain_ddt(shard)
    return ddt.in_core_bytes if ddt is not None else 0


def _scvol(rig: "TimedSquirrel"):
    return rig.squirrel.sharding.scvol


class _Family(NamedTuple):
    """One metric family the rig exports (see ``MetricsRegistry.declare``).

    Each of ``labels`` is a rig axis name (``node``/``tenant``, capped at
    :data:`METRICS_NODE_DETAIL`; ``shard``; ``brick``; ``storage``) or a
    ``(label, axis name or values)`` pair. ``read(rig, *values)`` reads a
    gauge; a mapping axis passes its object for the key (a node's
    :class:`ComputeNode`, ARC or NIC, a brick uplink, the storage tier), and
    a ``str`` read is an attribute path on that object. ``gate``: the
    Squirrel attachment the family needs.
    """

    name: str
    kind: str
    help: str
    labels: tuple = ()
    buckets: tuple[float, ...] | None = None
    read: Callable[..., float] | str | None = None
    sums: bool = False
    gate: str | None = None


def _pool_families(name: str, help: str, attr: str) -> tuple[_Family, _Family]:
    """A pool gauge reading ``attr``: a child per compute node (summing into
    ``_fleet``) and the storage pool's ``tier=storage`` child. Node pools are
    read at scrape time: copy-on-write repoints ``node.pool``."""
    return (
        _Family(name, "gauge", help, (("node", "compute"), ("tier", ("compute",))),
                read=f"pool.{attr}", sums=True),
        _Family(name, "gauge", help, (("node", "storage"), ("tier", ("storage",))),
                read=f"pool.{attr}"),
    )


def _pipe_families(name: str, help: str, read) -> tuple[_Family, ...]:
    """A link gauge over the detail nodes' NICs and every brick uplink."""
    return tuple(
        _Family(name, "gauge", help, (("link", axis), ("tier", (tier,))), read=read)
        for axis, tier in (("nic", "nic"), ("uplink", "brick"))
    )


#: every metric family a :class:`TimedSquirrel` rig exports. Counters and
#: histograms are recorded by the timed operations; gauges read live
#: simulation state (ARC geometry, DDT footprint, pipe utilisation) at
#: scrape time, so the hot paths push no updates and scraping cannot
#: perturb byte accounting.
_FAMILIES = (
    _Family("squirrel_boots_total", "counter", "Completed VM boots", ("node",)),
    _Family("squirrel_boot_cache_hits_total", "counter",
            "Boots served from the node's cVolume cache", ("node",)),
    _Family("squirrel_boot_cold_total", "counter",
            "Boots that streamed their boot set from storage", ("node",)),
    _Family("squirrel_cold_read_bytes_total", "counter",
            "Paper-scale bytes cold boots pulled over the network", ("node",)),
    _Family("squirrel_boot_interrupts_total", "counter",
            "Boot attempts preempted by a fault", ("node",)),
    _Family("squirrel_registrations_total", "counter", "Image registrations completed"),
    _Family("squirrel_resyncs_total", "counter",
            "Offline-propagation catch-ups that moved data", (("kind", ()),)),
    _Family("squirrel_resync_bytes_total", "counter",
            "Bytes moved by resyncs (scaled units)"),
    _Family("squirrel_gc_runs_total", "counter", "Garbage-collection sweeps"),
    _Family("squirrel_gc_victims_total", "counter", "Snapshots reclaimed by GC"),
    _Family("zfs_arc_hits_total", "counter", "ARC hits by tier",
            ("node", ("tier", ("t1", "t2")))),
    _Family("zfs_arc_ghost_hits_total", "counter", "ARC ghost-list hits by tier",
            ("node", ("tier", ("b1", "b2")))),
    _Family("zfs_arc_misses_total", "counter", "ARC misses", ("node",)),
    _Family("zfs_arc_evictions_total", "counter", "ARC evictions by tier",
            ("node", ("tier", ("t1", "t2")))),
    _Family("squirrel_boot_latency_seconds", "histogram", "End-to-end boot latency",
            buckets=LATENCY_BUCKETS),
    _Family("squirrel_recovery_seconds", "histogram",
            "First fault impact to boot completion", buckets=LATENCY_BUCKETS),
    _Family("squirrel_register_latency_seconds", "histogram",
            "Registration latency (boot-once + snapshot + multicast)",
            buckets=LATENCY_BUCKETS),
    _Family("squirrel_resync_latency_seconds", "histogram",
            "Offline-propagation catch-up latency", buckets=LATENCY_BUCKETS),
    _Family("zfs_arc_p_bytes", "gauge",
            "ARC adaptive target for T1 (paper-scale bytes)", (("node", "arc"),),
            read="p"),
    _Family("zfs_arc_resident_bytes", "gauge",
            "Bytes resident in the node's boot ARC (paper-scale)", (("node", "arc"),),
            read="resident_bytes", sums=True),
    _Family("zfs_arc_hit_rate", "gauge", "Lifetime ARC hit rate", (("node", "arc"),),
            read="stats.hit_rate"),
    *_pool_families("zfs_ddt_entries", "Dedup-table entries", "ddt.entry_count"),
    *_pool_families("zfs_ddt_core_bytes", "DDT resident RAM", "ddt.in_core_bytes"),
    *_pool_families("zfs_pool_allocated_bytes", "Pool data bytes allocated after dedup",
                    "data_bytes"),
    *_pipe_families("net_pipe_utilization", "Lifetime busy fraction of a link",
                    lambda rig, pipe, _t: pipe.busy_fraction()),
    *_pipe_families("net_pipe_queue_depth", "Concurrent flows sharing a link",
                    "active_flows"),
    *_pipe_families("net_pipe_moved_bytes",
                    "Lifetime bytes admitted to a link (paper-scale)", "total_bytes"),
    _Family("net_gluster_degraded", "gauge",
            "1 while any brick is out of the read rotation",
            read=lambda rig: rig.squirrel.cluster.storage.gluster.degraded),
    _Family("net_brick_served_bytes", "gauge", "Bytes served by a brick (scaled units)",
            (("node", "brick"),),
            read=lambda rig, node: (
                rig.squirrel.cluster.storage.gluster.served_bytes(node))),
    _Family("sim_cpu_queue_depth", "gauge", "Boots queued for a decompression core",
            ("node",), read=lambda rig, node: rig.cpu[node].queue_length),
    _Family("squirrel_boots_in_flight", "gauge", "Boots currently in flight", ("node",),
            read=lambda rig, node: len(rig._inflight[node])),
    _Family("placement_peer_redirects_total", "counter",
            "Boot misses served by a peer holder instead of the origin", ("node",),
            gate="placement"),
    _Family("placement_redirect_bytes_total", "counter",
            "Paper-scale bytes moved by peer redirects", gate="placement"),
    _Family("placement_origin_fallbacks_total", "counter",
            "Misses that fell back to glusterfs (no live holder)", gate="placement"),
    _Family("placement_adoptions_total", "counter", "Promote-on-miss adoptions",
            ("node",), gate="placement"),
    _Family("placement_adopted_bytes_total", "counter",
            "Paper-scale bytes installed by adoptions", gate="placement"),
    _Family("placement_seed_bytes_total", "counter",
            "Paper-scale receiver-ingress bytes moved by seeding",
            (("transport", TRANSPORT_NAMES),), gate="placement"),
    _Family("placement_hoarded_bytes", "gauge",
            "Logical cache bytes hoarded on a node (scaled units)", ("node",),
            read=lambda rig, node: (
                rig.squirrel.placement.directory.hoarded_bytes(node)),
            gate="placement"),
    _Family("placement_images_hoarded", "gauge", "Images whose cache a node holds",
            ("node",),
            read=lambda rig, node: len(
                rig.squirrel.placement.directory.images_of(node)),
            gate="placement"),
    _Family("placement_images_tracked", "gauge",
            "Images tracked by the placement directory",
            read=lambda rig: len(rig.squirrel.placement.directory.images()),
            gate="placement"),
    _Family("squirrel_tenant_boots_total", "counter", "Completed VM boots per tenant",
            ("tenant",), gate="sharding"),
    _Family("squirrel_tenant_cache_hits_total", "counter",
            "Per-tenant boots served from the node's cVolume cache", ("tenant",),
            gate="sharding"),
    _Family("squirrel_tenant_arc_hits_total", "counter",
            "Per-tenant ARC record hits during warm boots", ("tenant",),
            gate="sharding"),
    _Family("squirrel_tenant_arc_misses_total", "counter",
            "Per-tenant ARC record misses during warm boots", ("tenant",),
            gate="sharding"),
    _Family("squirrel_tenant_hit_rate", "gauge",
            "Lifetime per-tenant ARC hit rate (the noisy-neighbor SLO)", ("tenant",),
            gate="sharding",
            read=lambda rig, t: rig.squirrel.sharding.tenant_hit_rate(t)),
    _Family("zfs_shard_arc_hits_total", "counter",
            "ARC hits within one shard's slice of a node ARC", ("node", "shard"),
            gate="sharding"),
    _Family("zfs_shard_arc_misses_total", "counter",
            "ARC misses within one shard's slice of a node ARC", ("node", "shard"),
            gate="sharding"),
    _Family("zfs_shard_arc_resident_bytes", "gauge",
            "Bytes resident in one shard's ARC slice (paper-scale)",
            (("node", "arc"), "shard"), sums=True, gate="sharding",
            read=lambda rig, arc, s: arc.shards[s].resident_bytes),
    _Family("zfs_shard_arc_hit_rate", "gauge",
            "Lifetime hit rate of one shard's ARC slice", (("node", "arc"), "shard"),
            gate="sharding", read=lambda rig, arc, s: arc.shards[s].stats.hit_rate),
    _Family("zfs_shard_node_ddt_core_bytes", "gauge",
            "Resident DDT bytes of a shard's dedup domain on a node",
            (("node", "compute"), "shard"), read=_shard_node_ddt_core, sums=True,
            gate="sharding"),
    _Family("zfs_shard_ddt_entries", "gauge",
            "scVolume DDT entries in one shard's dedup domain", ("shard",),
            read=lambda rig, s: _scvol(rig).ddt(s).entry_count, gate="sharding"),
    _Family("zfs_shard_ddt_core_bytes", "gauge", "scVolume DDT resident RAM per shard",
            ("shard",), read=lambda rig, s: _scvol(rig).ddt(s).in_core_bytes,
            gate="sharding"),
    # the stored high-water only advances on refresh(); fold in the live
    # value so scrapes between refreshes stay monotone without mutating
    # router state
    _Family("zfs_shard_ddt_core_high_bytes", "gauge",
            "High-water mark of a shard DDT's resident RAM", ("shard",),
            read=lambda rig, s: max(_scvol(rig).ddt_core_high_bytes(s),
                                    _scvol(rig).ddt(s).in_core_bytes),
            gate="sharding"),
    _Family("zfs_shard_quota_pressure", "gauge",
            "Shard referenced bytes over its byte quota", ("shard",),
            read=lambda rig, s: _scvol(rig).quota_pressure(s), gate="sharding"),
    # lifetime totals read off the router (callback gauges, like
    # net_pipe_moved_bytes): evictions happen inside untimed setup
    # registrations too, which manual counters would miss
    _Family("zfs_shard_quota_evictions_total", "gauge",
            "Lifetime hoards evicted to honour a shard quota", ("shard",),
            read=lambda rig, s: _scvol(rig).evictions(s), gate="sharding"),
    _Family("zfs_shard_quota_evicted_bytes_total", "gauge",
            "Lifetime bytes reclaimed by shard-quota evictions (scaled units)",
            ("shard",), read=lambda rig, s: _scvol(rig).evicted_bytes(s),
            gate="sharding"),
    _Family("zfs_shard_dedup_loss_bytes", "gauge",
            "Bytes stored once per shard that a global DDT would share",
            read=lambda rig: _scvol(rig).dedup_loss_bytes(), gate="sharding"),
)


def _label_values(spec, axes: dict):
    """Resolve one ``_Family.labels`` entry to ``(label, values)``."""
    label, values = (spec, spec) if isinstance(spec, str) else spec
    return label, axes[values] if isinstance(values, str) else values


class TimedSquirrel:
    """Drives Squirrel operations through the event engine's resources."""

    def __init__(
        self,
        squirrel: Squirrel,
        dataset: AzureCommunityDataset | ImageCatalog,
        engine: Engine,
        timeline: Timeline,
        *,
        tracer: SpanTracer | None = None,
        cpu_cores_per_node: int = 2,
        arc_bytes_per_node: int = ARC_BYTES_PER_NODE,
    ) -> None:
        self.squirrel = squirrel
        #: eager datasets are adapted (specs shared, nothing recomputed)
        self.catalog = as_catalog(dataset)
        self.engine = engine
        self.timeline = timeline
        self.tracer = tracer or SpanTracer(engine)
        self.metrics = MetricsRegistry()
        #: timed transfers replay the paper-scale byte counts
        self.scale_up = self.catalog.scaled_up
        cluster = squirrel.cluster
        self.nic: dict[str, Pipe] = {
            node.name: node.node.link.make_pipe(
                engine, name=f"nic:{node.name}", timeline=timeline
            )
            for node in cluster.compute
        }
        self.brick: dict[str, Pipe] = {
            node.name: node.link.make_pipe(
                engine, name=f"brick:{node.name}", timeline=timeline
            )
            for node in cluster.storage.nodes
        }
        self.disk: dict[str, TimedDisk] = {
            node.name: TimedDisk(
                engine, DiskModel(DAS4_RAID0), name=f"disk:{node.name}",
                timeline=timeline,
            )
            for node in cluster.compute
        }
        self.cpu: dict[str, Resource] = {
            node.name: Resource(
                engine, cpu_cores_per_node, name=f"cpu:{node.name}",
                timeline=timeline,
            )
            for node in cluster.compute
        }
        #: per-node in-memory ARC over cVolume blocks (decompressed records,
        #: charged at paper-scale bytes); a node crash wipes it. Sharded rigs
        #: partition each node's ARC per shard (quota paper bytes when a
        #: quota is set, else an even split of the node budget) so one
        #: tenant's churn cannot evict another shard's residents.
        sharding = squirrel.sharding
        if sharding is None:
            self.arc: dict[str, AdaptiveReplacementCache] = {
                node.name: AdaptiveReplacementCache(arc_bytes_per_node)
                for node in cluster.compute
            }
        else:
            per_shard = sharding.arc_bytes_per_shard or max(
                1, arc_bytes_per_node // sharding.n_shards
            )
            self.arc = {
                node.name: _ShardedNodeArc(sharding.plan, per_shard)
                for node in cluster.compute
            }
        #: per-block ZFS pipeline costs (shared with the Figure 11 backend)
        self.zfs_costs = ZfsCostModel()
        #: fault-injection hooks: the injector attaches itself here and
        #: consults the in-flight boot registry to preempt work
        self.faults: FaultInjector | None = None
        #: insertion-ordered (dict-as-set): preemption must walk boots in a
        #: deterministic order or same-seed runs diverge
        self._inflight: dict[str, dict[_InflightBoot, None]] = {
            node.name: {} for node in cluster.compute
        }
        cap = METRICS_NODE_DETAIL  # read per rig, not at import
        axes = {
            "node": FoldAxis([node.name for node in cluster.compute], cap),
            # summing gauges walk every node per scrape: bind the objects once
            "compute": FoldAxis({node.name: node for node in cluster.compute}, cap),
            "arc": FoldAxis(self.arc, cap),
            "nic": FoldAxis(self.nic, cap),
            "uplink": self.brick,
            "brick": tuple(self.brick),
            "storage": {cluster.storage.pool.name: cluster.storage},
        }
        if sharding is not None:
            axes["shard"] = sharding.names
            axes["tenant"] = FoldAxis(sharding.tenants, cap, fmt="t{:02d}".format)
        rig = weakref.proxy(self)  # no rig -> registry -> reader -> rig cycle
        for family in _FAMILIES:
            if family.gate and getattr(squirrel, family.gate) is None:
                continue
            read = family.read
            self.metrics.declare(
                family.name, family.kind, family.help,
                tuple(_label_values(spec, axes) for spec in family.labels),
                buckets=family.buckets,
                read=partial(read, rig) if callable(read) else read,
                sums=family.sums,
            )

    # -- fault-injector queries ----------------------------------------------------

    def inflight(self, node_name: str) -> list[_InflightBoot]:
        """Boots currently in flight on one compute node (snapshot)."""
        return list(self._inflight.get(node_name, ()))

    def inflight_on_brick(self, brick_name: str) -> list[_InflightBoot]:
        """Boots with a fetch currently streaming from one brick (snapshot)."""
        return [
            boot
            for boots in self._inflight.values()
            for boot in boots
            if brick_name in boot.bricks
        ]

    def inflight_from_peer(self, peer_name: str) -> list[_InflightBoot]:
        """Boots currently streaming a redirect from one peer holder
        (snapshot) — what a crash of that holder must preempt."""
        return [
            boot
            for boots in self._inflight.values()
            for boot in boots
            if peer_name in boot.peers
        ]

    # -- timed operations (each returns a yieldable Process) ----------------------

    def boot(self, image_id: int, node_name: str, *, force_cold: bool = False,
             tenant: int | None = None):
        """One timed VM boot; observes ``boot_latency_s`` (and, when a fault
        got in the way, ``recovery_s``). Registered with the in-flight
        registry so the fault injector can preempt it. ``tenant`` feeds the
        per-tenant accounting of a sharded rig and is ignored otherwise."""
        handle = _InflightBoot(node_name)
        process = self.engine.process(
            self._boot(image_id, node_name, force_cold, handle, tenant),
            label=f"boot:{node_name}:{image_id}",
        )
        handle.process = process
        self._inflight[node_name][handle] = None
        return process

    def _boot(self, image_id: int, node_name: str, force_cold: bool, handle,
              tenant: int | None = None):
        engine = self.engine
        t0 = engine.now
        self.timeline.count("boots")
        bt = _BootTrace(
            self.tracer,
            BootAttribution(engine),
            self.tracer.span(
                "boot", track=node_name, node=node_name, image_id=image_id
            ),
        )
        first_fail: float | None = None
        interrupts = 0
        try:
            while True:
                try:
                    if self.faults is not None and self.faults.is_down(node_name):
                        # the host is dark: nothing can boot until it rejoins
                        # (reboot + offline catch-up), so queue on that
                        if first_fail is None:
                            first_fail = engine.now
                            self.timeline.count("boots_delayed")
                        wait_span = bt.child("fault.wait", cause="node-down")
                        yield self.faults.rejoin_event(node_name)
                        bt.att.charge("wait_s")
                        wait_span.end()
                    cache_hit = yield from self._attempt(
                        image_id, node_name, force_cold, handle, bt, tenant
                    )
                    break
                except Interrupted as fault:
                    # preempted (node crash / brick failure): loop — either
                    # wait for the rejoin or re-plan around the dead brick.
                    # Time sunk into the killed attempt is recovery wait.
                    bt.att.charge("wait_s")
                    bt.kill(fault.cause)
                    interrupts += 1
                    if first_fail is None:
                        first_fail = engine.now
                    self.timeline.count("boot_interrupts")
                    self.metrics.inc(
                        "squirrel_boot_interrupts_total", node=node_name
                    )
        finally:
            self._inflight[node_name].pop(handle, None)
        self.timeline.count("cache_hits" if cache_hit else "cold_boots")
        self.timeline.observe("boot_latency_s", engine.now - t0)
        metrics = self.metrics
        metrics.inc("squirrel_boots_total", node=node_name)
        metrics.inc(
            "squirrel_boot_cache_hits_total" if cache_hit
            else "squirrel_boot_cold_total",
            node=node_name,
        )
        sharding = self.squirrel.sharding
        if sharding is not None and tenant is not None:
            sharding.note_tenant_boot(tenant, cache_hit)
            metrics.inc("squirrel_tenant_boots_total", tenant=tenant)
            if cache_hit:
                metrics.inc("squirrel_tenant_cache_hits_total", tenant=tenant)
        metrics.observe("squirrel_boot_latency_seconds", engine.now - t0)
        bt.att.observe(self.timeline)
        bt.root.end(
            cache_hit=cache_hit, interrupts=interrupts, **bt.att.buckets
        )
        if first_fail is not None:
            self.timeline.observe("recovery_s", engine.now - first_fail)
            metrics.observe("squirrel_recovery_seconds", engine.now - first_fail)
        return engine.now - t0

    def _attempt(self, image_id, node_name, force_cold: bool, handle, bt,
                 tenant: int | None = None):
        """One boot attempt (the pre-fault boot path, verbatim)."""
        outcome = None
        if force_cold:
            # the "w/o caches" baseline: the boot set crosses the network
            # even when a cache exists (Figure 18's comparison series)
            spec = self.catalog.spec(image_id)
            moved, plan = self.squirrel.cluster.storage.gluster.read_with_plan(
                f"vmi-{image_id:05d}", 0, cold_read_bytes(spec),
                reader=node_name, purpose="boot-read",
            )
            cache_hit = False
        else:
            outcome, plan = self.squirrel.boot_with_plan(image_id, node_name)
            moved = outcome.network_bytes
            cache_hit = outcome.cache_hit
        if cache_hit:
            yield from self._warm_read(image_id, node_name, bt, tenant)
        elif outcome is not None and outcome.source == "peer":
            yield from self._peer_fetch(outcome, node_name, handle, bt)
        else:
            if outcome is not None and self.squirrel.placement is not None:
                # placement active but no live holder: glusterfs fallback
                self.timeline.count("origin_fallbacks")
                self.metrics.inc("placement_origin_fallbacks_total")
            yield from self._cold_fetch(node_name, moved, plan, handle, bt)
        return cache_hit

    def _paper_blocks(self, logical_bytes: int) -> int:
        """Paper-scale record count behind ``logical_bytes`` of scaled data
        (the unit the per-block ZFS pipeline costs are charged against)."""
        if logical_bytes <= 0:
            return 0
        record = self.squirrel.cluster.storage.scvolume.record_size
        return max(1, int(self.scale_up(logical_bytes)) // record)

    def _warm_read(self, image_id: int, node_name: str, bt,
                   tenant: int | None = None):
        """Cache hit: resolve each cVolume block through the node's ARC;
        misses read the compressed record off the local pool and decompress
        it — zero network involvement either way."""
        node = self.squirrel.cluster.node(node_name)
        sharding = self.squirrel.sharding
        chain = self.squirrel.chain_of(image_id)
        shard = chain.shard
        cache = node.pool.dataset(chain.dataset).file(
            self.squirrel.cache_file_of(image_id)
        )
        arc = self.arc[node_name]
        before = arc.stats.as_dict()
        lookup = bt.child("arc.lookup", image_id=image_id)
        total_logical = 0
        missed_physical = missed_logical = 0
        blocks = misses = 0
        for index, bp in enumerate(cache.blocks):
            if bp.is_hole:
                continue
            blocks += 1
            total_logical += bp.lsize
            if arc.get((image_id, index)) is not None:
                continue  # decompressed record resident in T1/T2: free
            misses += 1
            missed_physical += bp.psize
            missed_logical += bp.lsize
            arc.put(
                (image_id, index), True, max(1, int(self.scale_up(bp.lsize)))
            )
        after = arc.stats.as_dict()
        delta = {key: after[key] - before[key] for key in after}
        self.timeline.count("arc_t1_hits", delta["t1_hits"])
        self.timeline.count("arc_t2_hits", delta["t2_hits"])
        self.timeline.count("arc_b1_ghost_hits", delta["b1_ghost_hits"])
        self.timeline.count("arc_b2_ghost_hits", delta["b2_ghost_hits"])
        self.timeline.count("arc_misses", delta["misses"])
        self.timeline.count(
            "arc_evictions", delta["t1_evictions"] + delta["t2_evictions"]
        )
        inc = self.metrics.inc
        for tier in ("t1", "t2"):
            inc("zfs_arc_hits_total", delta[f"{tier}_hits"], node=node_name, tier=tier)
            inc("zfs_arc_evictions_total", delta[f"{tier}_evictions"],
                node=node_name, tier=tier)
        for tier in ("b1", "b2"):
            inc("zfs_arc_ghost_hits_total", delta[f"{tier}_ghost_hits"],
                node=node_name, tier=tier)
        inc("zfs_arc_misses_total", delta["misses"], node=node_name)
        if shard is not None:
            shard_hits = delta["t1_hits"] + delta["t2_hits"]
            inc("zfs_shard_arc_hits_total", shard_hits, node=node_name, shard=shard)
            inc("zfs_shard_arc_misses_total", delta["misses"],
                node=node_name, shard=shard)
            if tenant is not None:
                sharding.note_tenant_arc(tenant, shard_hits, delta["misses"])
                inc("squirrel_tenant_arc_hits_total", shard_hits, tenant=tenant)
                inc("squirrel_tenant_arc_misses_total", delta["misses"],
                    tenant=tenant)
        self.timeline.gauge(f"arc_p:{node_name}", arc.p)
        self.timeline.gauge(f"arc_resident:{node_name}", arc.resident_bytes)
        # the block-pointer walk + DDT/ZAP lookup for every record of the
        # paper-scale cache file
        yield self.engine.timeout(
            self._paper_blocks(total_logical) * self.zfs_costs.ddt_lookup_s
        )
        bt.att.charge("cache_s")
        lookup.end(
            t1_hits=delta["t1_hits"], t2_hits=delta["t2_hits"], misses=misses,
            ghost_hits=delta["b1_ghost_hits"] + delta["b2_ghost_hits"],
        )
        if misses == 0:
            return  # pure memory boot: every record was ARC-resident
        physical = int(self.scale_up(missed_physical))
        logical = int(self.scale_up(missed_logical))
        disk_span = bt.child("disk.read", n_bytes=physical)
        service = yield self.disk[node_name].read(
            _disk_offset(physical, image_id), physical
        )
        bt.att.charge_split(service, "disk_s")
        disk_span.end(
            service_s=service,
            queue_s=max(0.0, self.engine.now - disk_span.start_s - service),
        )
        zio = bt.child("zio.decompress", n_bytes=logical)
        grant = self.cpu[node_name].request()
        try:
            yield grant
        except Interrupted:
            # preempted while queued for (or holding) a core: give it back
            self.cpu[node_name].cancel(grant)
            raise
        queue_s = bt.att.charge("wait_s")
        try:
            yield self.engine.timeout(
                self._paper_blocks(missed_logical) * self.zfs_costs.per_block_cpu_s
                + logical / DECOMPRESS_BYTES_PER_S
            )
            bt.att.charge("cache_s")
        finally:
            self.cpu[node_name].release()
        zio.end(queue_s=queue_s)

    def _cold_fetch(self, node_name: str, moved: int, plan, handle, bt):
        """Cache miss: the boot set streams from the bricks through the
        node's NIC, then lands on the local disk (copy-on-read)."""
        gluster = self.squirrel.cluster.storage.gluster
        total = int(self.scale_up(moved))
        self.metrics.inc("squirrel_cold_read_bytes_total", total, node=node_name)
        fetch = bt.child(
            "gluster.fetch", n_bytes=total, degraded=gluster.degraded
        )
        flows: list[tuple[Pipe, Event]] = []
        try:
            for node, n_bytes in plan:
                pipe = self.brick[node.name]
                n_scaled = int(self.scale_up(n_bytes))
                span = bt.child(
                    "gluster.transfer", parent=fetch, replica=node.name,
                    n_bytes=n_scaled, degraded=gluster.degraded,
                )
                event = pipe.transfer(n_scaled)
                event._wait(lambda _e, s=span: s.end())
                flows.append((pipe, event))
                handle.bricks.add(node.name)
            nic = self.nic[node_name]
            nic_span = bt.child("nic.transfer", parent=fetch, n_bytes=total)
            nic_event = nic.transfer(total)
            nic_event._wait(lambda _e, s=nic_span: s.end())
            flows.append((nic, nic_event))
            yield self.engine.all_of([event for _pipe, event in flows])
            bt.att.charge("net_s")
            fetch.end()
            disk_span = bt.child("disk.write", n_bytes=total)
            service = yield self.disk[node_name].write(
                _disk_offset(total, node_name), total
            )
            bt.att.charge_split(service, "disk_s")
            disk_span.end(
                service_s=service,
                queue_s=max(
                    0.0, self.engine.now - disk_span.start_s - service
                ),
            )
        except Interrupted:
            # the fetch died with the node/brick: withdraw the half-done
            # flows so surviving transfers get their bandwidth share back
            for pipe, event in flows:
                pipe.cancel(event)
            raise
        finally:
            handle.bricks.clear()

    def _peer_fetch(self, outcome, node_name: str, handle, bt):
        """Placement redirect: the cache slice streams from the holder's NIC
        into the reader's NIC, then lands on the local disk — the glusterfs
        bricks never see the read. A crash of the holder preempts the flow
        (via :meth:`inflight_from_peer`); the retry re-picks a survivor."""
        peer_name = outcome.peer
        total = int(self.scale_up(outcome.network_bytes))
        self.timeline.count("peer_redirects")
        self.timeline.count("redirect_bytes", outcome.network_bytes)
        self.metrics.inc("placement_peer_redirects_total", node=node_name)
        self.metrics.inc("placement_redirect_bytes_total", total)
        redirect = bt.child(
            "placement.redirect", peer=peer_name, n_bytes=total
        )
        flows: list[tuple[Pipe, Event]] = []
        try:
            peer_pipe = self.nic[peer_name]
            peer_span = bt.child(
                "nic.transfer", parent=redirect, n_bytes=total, role="peer"
            )
            peer_event = peer_pipe.transfer(total)
            peer_event._wait(lambda _e, s=peer_span: s.end())
            flows.append((peer_pipe, peer_event))
            handle.peers.add(peer_name)
            nic = self.nic[node_name]
            nic_span = bt.child(
                "nic.transfer", parent=redirect, n_bytes=total, role="reader"
            )
            nic_event = nic.transfer(total)
            nic_event._wait(lambda _e, s=nic_span: s.end())
            flows.append((nic, nic_event))
            yield self.engine.all_of([event for _pipe, event in flows])
            bt.att.charge("net_s")
            redirect.end()
            disk_span = bt.child("disk.write", n_bytes=total)
            service = yield self.disk[node_name].write(
                _disk_offset(total, node_name), total
            )
            bt.att.charge_split(service, "disk_s")
            disk_span.end(
                service_s=service,
                queue_s=max(
                    0.0, self.engine.now - disk_span.start_s - service
                ),
            )
            if outcome.adopted:
                adopt = bt.child(
                    "placement.adopt", image_id=outcome.image_id,
                    n_bytes=total,
                )
                self.timeline.count("adoptions")
                self.metrics.inc("placement_adoptions_total", node=node_name)
                self.metrics.inc("placement_adopted_bytes_total", total)
                adopt.end()
        except Interrupted:
            # the redirect died with the reader or its peer: withdraw the
            # half-done flows; the retry consults the directory again
            for pipe, event in flows:
                pipe.cancel(event)
            raise
        finally:
            handle.peers.clear()

    def register(self, spec):
        """One timed registration; observes ``register_latency_s``."""
        return self.engine.process(
            self._register(spec), label=f"register:{spec.image_id}"
        )

    def _register(self, spec):
        engine = self.engine
        t0 = engine.now
        span = self.tracer.span(
            "register", track="control", image_id=spec.image_id
        )
        # boot-once on a storage node + snapshot, then the accounting call
        yield engine.timeout(REGISTRATION_BOOT_SECONDS + SNAPSHOT_CREATE_SECONDS)
        self._sync_clock()
        sharding = self.squirrel.sharding
        if sharding is not None:
            shard = sharding.shard_of(spec.image_id)
            ev0 = sharding.scvol.evictions(shard)
        record = self.squirrel.register(spec)
        if sharding is not None:
            evicted = sharding.scvol.evictions(shard) - ev0
            if evicted:
                self.timeline.count("shard_quota_evictions", evicted)
        placement = self.squirrel.placement
        if placement is not None and placement.last_seed is not None:
            yield from self._seed_flows(spec, placement, span)
        else:
            # multicast: the diff crosses the primary's uplink once and
            # lands on every online node's NIC concurrently
            diff = int(self.scale_up(record.diff_bytes))
            primary = self.squirrel.cluster.storage.primary.name
            transfers = [self.brick[primary].transfer(diff)]
            transfers += [
                self.nic[node.name].transfer(diff)
                for node in self.squirrel.cluster.online_nodes()
            ]
            yield engine.all_of(transfers)
        span.end(diff_bytes=int(self.scale_up(record.diff_bytes)))
        self.timeline.count("registrations")
        self.timeline.observe("register_latency_s", engine.now - t0)
        self.metrics.inc("squirrel_registrations_total")
        self.metrics.observe("squirrel_register_latency_seconds", engine.now - t0)
        return record

    def _seed_flows(self, spec, placement, parent_span):
        """Drive one seeding round through the contended links.

        The accounting call (:meth:`PlacementCoordinator.seed_image`) already
        ran inside ``Squirrel.register``; this charges its bytes to the
        pipes, shaped like the transport: the origin's brick uplink carries
        the transport's origin bytes (n copies for unicast, ~1 for
        multicast, ~log n for swarm), every online holder's NIC ingests one
        payload, and swarm holders additionally upload their peer share.
        """
        seed = placement.last_seed
        cluster = self.squirrel.cluster
        holders = [
            name
            for name in placement.directory.holders(spec.image_id)
            if cluster.node(name).online
        ]
        payload = int(self.scale_up(seed.n_bytes))
        span = self.tracer.span(
            f"seed.{seed.transport}", parent=parent_span, track="control",
            image_id=spec.image_id, n_receivers=len(holders),
            n_bytes=payload,
        )
        if holders:
            primary = cluster.storage.primary.name
            origin_bytes = int(self.scale_up(seed.origin_bytes))
            transfers = []
            if origin_bytes > 0:
                transfers.append(self.brick[primary].transfer(origin_bytes))
            upload_share = (
                int(self.scale_up(seed.peer_upload_bytes)) // len(holders)
                if seed.peer_upload_bytes > 0
                else 0
            )
            for name in holders:
                transfers.append(self.nic[name].transfer(payload))
                if upload_share > 0:
                    transfers.append(self.nic[name].transfer(upload_share))
            yield self.engine.all_of(transfers)
            self.metrics.inc("placement_seed_bytes_total",
                             payload * len(holders), transport=seed.transport)
            self.timeline.count("seed_receiver_bytes", seed.receiver_bytes)
        span.end()

    def resync(self, node_name: str):
        """One timed offline-propagation catch-up; observes
        ``resync_latency_s`` and counts full re-replications."""
        return self.engine.process(
            self._resync(node_name), label=f"resync:{node_name}"
        )

    def _resync(self, node_name: str):
        engine = self.engine
        t0 = engine.now
        span = self.tracer.span("resync", track=node_name, node=node_name)
        self._sync_clock()
        incremental = self.squirrel.resync_is_incremental(node_name)
        moved = self.squirrel.resync_node(node_name)
        if moved:
            self.timeline.count("resync_bytes", moved)
            if self.squirrel.placement is not None:
                # placement reseed: the directory's assigned slices, not a
                # snapshot-chain replay
                self.timeline.count("placement_reseeds")
                kind = "reseed"
            else:
                self.timeline.count(
                    "incremental_resyncs" if incremental else "full_replications"
                )
                kind = "incremental" if incremental else "full"
            self.metrics.inc("squirrel_resyncs_total", kind=kind)
            self.metrics.inc("squirrel_resync_bytes_total", moved)
            scaled = int(self.scale_up(moved))
            primary = self.squirrel.cluster.storage.primary.name
            yield engine.all_of([
                self.brick[primary].transfer(scaled),
                self.nic[node_name].transfer(scaled),
            ])
        span.end(n_bytes=moved, incremental=incremental if moved else None)
        self.timeline.observe("resync_latency_s", engine.now - t0)
        self.metrics.observe("squirrel_resync_latency_seconds", engine.now - t0)
        return moved

    def collect_garbage(self):
        """GC is metadata-only: instantaneous, but clock-synced."""
        self._sync_clock()
        span = self.tracer.span("gc", track="control")
        victims = self.squirrel.collect_garbage()
        span.end(victims=len(victims))
        self.timeline.count("gc_runs")
        self.timeline.count("gc_victims", len(victims))
        self.metrics.inc("squirrel_gc_runs_total")
        self.metrics.inc("squirrel_gc_victims_total", len(victims))
        return victims

    def _sync_clock(self) -> None:
        """Propagate the engine clock into Squirrel's day-granular clock."""
        days = self.engine.now / DAY_S
        if days > self.squirrel.clock_days:
            self.squirrel.advance_time(days - self.squirrel.clock_days)


# -- shared rig construction ----------------------------------------------------------


@dataclass
class _Rig:
    """One scenario's fully-wired simulation: cluster, engine, telemetry."""

    catalog: ImageCatalog
    squirrel: Squirrel
    engine: Engine
    timeline: Timeline
    timed: TimedSquirrel
    store: TimeSeriesStore
    sampler: Sampler

    @property
    def dataset(self) -> AzureCommunityDataset:
        """Eager-dataset facade over the catalog's (shared) spec list."""
        return self.catalog.dataset

    def metrics_block(self) -> dict:
        """The canonical metrics block for this run (embed in the report)."""
        return metrics_block(
            self.timed.metrics,
            self.store,
            interval_s=self.sampler.interval_s,
            scrapes=self.sampler.scrapes,
        )


def _build_rig(
    *,
    n_compute: int,
    n_storage: int,
    block_size: int,
    scale: float,
    link: LinkProfile,
    seed,
    trace: bool,
    metrics_interval_s: float = 5.0,
    dataset: AzureCommunityDataset | ImageCatalog | None = None,
    estimator=None,
    placement_factory=None,
    sharding_factory=None,
) -> _Rig:
    catalog = as_catalog(dataset) or LazyImageCatalog(DatasetConfig(scale=scale))
    cluster = IaaSCluster.build(
        n_compute=n_compute, n_storage=n_storage, block_size=block_size, link=link
    )
    estimator = estimator or make_estimator(
        "gzip6", (block_size,), samples_per_point=2
    )
    squirrel = Squirrel(cluster=cluster, estimator=estimator, catalog=catalog)
    if placement_factory is not None:
        # attach before TimedSquirrel so its placement families exist
        squirrel.placement = placement_factory(squirrel)
    if sharding_factory is not None:
        # attach + install before TimedSquirrel: its shard families read the
        # router's shard datasets, and the per-node ARC layout depends on it
        router = sharding_factory(squirrel)
        squirrel.sharding = router
        router.install(squirrel)
    engine = Engine(seed=seed, trace=trace)
    # runtime telemetry (read-only observer; no-op without an active
    # profiler): phase timers + events/s + the --progress heartbeat
    obs_runtime.attach(engine)
    timeline = Timeline(engine)
    timed = TimedSquirrel(squirrel, catalog, engine, timeline)
    store = TimeSeriesStore(capacity=METRICS_RING)
    sampler = Sampler(engine, timed.metrics, store, interval_s=metrics_interval_s)
    sampler.start()
    return _Rig(catalog, squirrel, engine, timeline, timed, store, sampler)


# -- boot storm -----------------------------------------------------------------------


@dataclass(frozen=True)
class StormConfig:
    """A flash-crowd boot storm (the timed Figure 18)."""

    n_nodes: int = 64
    vms_per_node: int = 8
    n_storage: int = 4
    block_size: int = 65536
    scale: float = 1.0 / 512.0
    #: window the flash crowd's arrivals are compressed into
    ramp_s: float = 30.0
    n_tenants: int = 32
    zipf_exponent: float = 0.9
    link: LinkProfile = GBE_1
    seed: int = 0
    trace: bool = False
    #: injected faults (node crashes, link flaps, brick failures); both
    #: sides of the storm run the identical plan
    faults: FaultPlan | None = None
    #: gauge-scrape cadence of the metrics sampler (simulated seconds)
    metrics_interval_s: float = 5.0

    @classmethod
    def from_params(
        cls,
        *,
        nodes: int = 64,
        vms_per_node: int = 8,
        seed: int = 0,
        faults: str | None = None,
    ) -> "StormConfig":
        """Build a config from the validated experiment params the CLI and
        sweep runner hand to the storm/recovery scenarios (``faults`` is
        the comma-separated plan DSL, parsed here)."""
        return cls(
            n_nodes=nodes,
            vms_per_node=vms_per_node,
            seed=seed,
            faults=FaultPlan.parse(faults) if faults else None,
        )


@dataclass(frozen=True)
class StormSide:
    """One storm run (Squirrel or the no-cache baseline)."""

    boots: int
    cache_hits: int
    interrupted_boots: int  #: boot attempts preempted by a fault
    delayed_boots: int  #: boots that queued on a crashed host
    compute_ingress_bytes: int
    #: when the engine settled: boots + fault recovery + the sampler's
    #: final snapshot (so it rounds up to the metrics cadence)
    horizon_s: float
    latency: HistogramStats
    recovery: HistogramStats  #: per-boot: first fault impact -> completion
    node_recovery: HistogramStats  #: per-crash: crash -> rebooted + resynced
    #: latency attribution: per-boot cache/net/disk/wait stats + ARC tiers
    attribution: dict = field(repr=False)
    #: per-span-name aggregates from the run's tracer
    spans: dict = field(repr=False)
    #: critical-path rollup: per-boot longest dependency chain, folded into
    #: a blame table + tier shares (``trace analyze`` reproduces it exactly)
    critical_path: dict = field(repr=False)
    summary: dict = field(repr=False)
    #: canonical metrics block: instrument snapshot + sampled series
    metrics: dict = field(repr=False)


@dataclass(frozen=True)
class StormReport(ReportBase):
    """Both sides of one storm, driven by the identical arrival trace."""

    n_nodes: int
    vms_per_node: int
    seed: int
    squirrel: StormSide
    baseline: StormSide


def _storm_trace(config: StormConfig, n_images: int):
    """The (arrival, node, image, tenant) trace — shared by both sides.

    The tenant id rides along so sharded runs can attribute per-tenant
    hit rates; unsharded consumers ignore it (the sampling sequence is
    unchanged, so existing reports stay byte-identical)."""
    n_vms = config.n_nodes * config.vms_per_node
    rng = rng_stream("workload-storm", config.seed)
    times = flash_crowd_arrivals(rng, n_vms=n_vms, ramp_s=config.ramp_s)
    tenants = TenantPopulation(
        config.n_tenants,
        n_images,
        seed=derive_seed("workload-storm-tenants", config.seed),
        zipf_exponent=config.zipf_exponent,
    )
    plan = []
    for index, t in enumerate(times):
        tenant, image_id = tenants.sample(rng)
        node_name = f"compute{index % config.n_nodes}"
        plan.append((float(t), node_name, image_id, int(tenant.tenant_id)))
    return plan


def _placement_factory(config: StormConfig, spec: PlacementSpec, n_images: int):
    """Coordinator factory for a storm: the placement context is derived
    from the same tenant population (same seed) that generates the arrival
    trace, so the hoard map is a pure function of (config, spec)."""

    def factory(squirrel):
        population = TenantPopulation(
            config.n_tenants,
            n_images,
            seed=derive_seed("workload-storm-tenants", config.seed),
            zipf_exponent=config.zipf_exponent,
        )
        context = PlacementContext(
            nodes=tuple(node.name for node in squirrel.cluster.compute),
            popularity=tuple(
                float(p) for p in population.expected_popularity()
            ),
            owners=tuple(int(t) for t in population.image_owners()),
            tenant_weights=tuple(
                float(w) for w in population.tenant_weights
            ),
        )
        return build_coordinator(spec, squirrel.cluster, context)

    return factory


def storm_image_count(
    config: StormConfig, dataset: AzureCommunityDataset | ImageCatalog
) -> int:
    """Images the storm registers: the arrival trace's highest image id + 1.

    Both storm sides register the first ``storm_image_count(...)`` specs,
    so analytic per-image accounting (e.g. the placement experiment's
    full-replication reference) must use this count, not the VM count.
    ``dataset`` may be an eager dataset or a catalog (only its length is
    needed, so no streams materialise)."""
    plan = _storm_trace(
        config, min(config.n_nodes * config.vms_per_node, len(dataset))
    )
    return max(image_id for _, _, image_id, _ in plan) + 1


def _run_storm_side(
    config: StormConfig,
    *,
    with_caches: bool,
    catalog: ImageCatalog,
    estimator,
    plan,
    placement: PlacementSpec | None = None,
    placement_sink=None,
    sharding_factory=None,
    sharding_sink=None,
) -> tuple[StormSide, SpanTracer]:
    n_images = max(image_id for _, _, image_id, _ in plan) + 1
    side_name = "squirrel" if with_caches else "baseline"
    with obs_runtime.phase(f"storm.setup.{side_name}"):
        rig = _build_rig(
            n_compute=config.n_nodes,
            n_storage=config.n_storage,
            block_size=config.block_size,
            scale=config.scale,
            link=config.link,
            seed=derive_seed("storm", config.seed, side_name),
            trace=config.trace,
            metrics_interval_s=config.metrics_interval_s,
            dataset=catalog,
            estimator=estimator,
            placement_factory=(
                _placement_factory(config, placement, n_images)
                if with_caches and placement is not None
                else None
            ),
            sharding_factory=(
                sharding_factory if with_caches else None
            ),
        )
        squirrel, engine, timeline, timed = (
            rig.squirrel, rig.engine, rig.timeline, rig.timed,
        )
        gluster = squirrel.cluster.storage.gluster
        if with_caches:
            for spec in catalog.specs[:n_images]:
                squirrel.register(spec)  # setup: instant, before the storm
        else:
            # the baseline never registers: only the base VMIs exist on the FS
            for spec in catalog.specs[:n_images]:
                gluster.create_file(f"vmi-{spec.image_id:05d}", spec.nonzero_bytes)
        squirrel.cluster.ledger.clear()
        if config.faults is not None:
            FaultInjector(timed, config.faults).start()

        def vm(at, node_name, image_id, tenant):
            yield engine.timeout(at)
            yield timed.boot(
                image_id, node_name, force_cold=not with_caches,
                tenant=tenant,
            )

        for at, node_name, image_id, tenant in plan:
            engine.process(
                vm(at, node_name, image_id, tenant),
                label=f"vm:{node_name}:{image_id}",
            )
    with obs_runtime.phase(f"storm.run.{side_name}"):
        # the heartbeat's horizon: boots completed over boots planned
        obs_runtime.set_fraction(
            lambda: timeline.counter("boots") / len(plan) if plan else None
        )
        horizon = engine.run()
    timed.tracer.close_open_spans()
    side = StormSide(
        boots=int(timeline.counter("boots")),
        cache_hits=int(timeline.counter("cache_hits")),
        interrupted_boots=int(timeline.counter("boot_interrupts")),
        delayed_boots=int(timeline.counter("boots_delayed")),
        compute_ingress_bytes=squirrel.cluster.compute_ingress_bytes(
            purpose="boot-read"
        ),
        horizon_s=horizon,
        latency=timeline.stats("boot_latency_s"),
        recovery=timeline.stats("recovery_s"),
        node_recovery=timeline.stats("node_recovery_s"),
        attribution=attribution_block(timeline),
        spans=timed.tracer.summary(),
        critical_path=critical_path_block(timed.tracer),
        summary=timeline.summary(),
        metrics=rig.metrics_block(),
    )
    if placement_sink is not None and squirrel.placement is not None:
        placement_sink(squirrel.placement)
    if sharding_sink is not None and squirrel.sharding is not None:
        sharding_sink(squirrel.sharding)
    return side, timed.tracer


def boot_storm(
    config: StormConfig = StormConfig(),
    *,
    dataset: AzureCommunityDataset | ImageCatalog | None = None,
    estimator=None,
    trace_path=None,
    placement: PlacementSpec | None = None,
    placement_sink=None,
    sharding_factory=None,
    sharding_sink=None,
) -> StormReport:
    """Run the same flash crowd with Squirrel and without caches.

    ``dataset``/``estimator`` let a caller that already owns them (the
    experiment registry's shared context) avoid rebuilding the full image
    dataset per run; they must match ``config.scale``/``config.block_size``.
    With a ``trace_path``, both sides' spans are exported there as one
    Chrome trace-event JSON file (processes ``squirrel``/``baseline``).

    ``placement`` attaches a partial-hoarding coordinator to the Squirrel
    side (the no-cache baseline is unaffected); ``placement_sink``, if
    given, receives that side's coordinator after the run so callers can
    read its tallies. ``placement=None`` is the paper baseline and is
    byte-identical to pre-placement behaviour.

    ``sharding_factory`` (``squirrel -> ShardRouter``) shards the Squirrel
    side's cVolume; ``sharding_sink`` receives the router after that side
    runs. ``sharding_factory=None`` keeps the run byte-identical to the
    unsharded storm.
    """
    if config.n_nodes < 1 or config.vms_per_node < 1:
        raise ConfigError("storm needs at least one node and one VM")
    # one catalog for both sides: they register the same specs, so the
    # Squirrel side's cache views come out of the shared memo for free
    catalog = as_catalog(dataset) or LazyImageCatalog(
        DatasetConfig(scale=config.scale)
    )
    estimator = estimator or make_estimator(
        "gzip6", (config.block_size,), samples_per_point=2
    )
    n_images = len(catalog)
    plan = _storm_trace(config, min(config.n_nodes * config.vms_per_node, n_images))
    sides = {}
    tracers = {}
    for with_caches in (True, False):
        side, tracer = _run_storm_side(
            config, with_caches=with_caches, catalog=catalog,
            estimator=estimator, plan=plan, placement=placement,
            placement_sink=placement_sink,
            sharding_factory=sharding_factory, sharding_sink=sharding_sink,
        )
        sides[with_caches] = side
        tracers["squirrel" if with_caches else "baseline"] = tracer
    if trace_path is not None:
        write_chrome_trace(trace_path, tracers)
    return StormReport(
        n_nodes=config.n_nodes,
        vms_per_node=config.vms_per_node,
        seed=config.seed,
        squirrel=sides[True],
        baseline=sides[False],
    )


# -- steady-state day -----------------------------------------------------------------


@dataclass(frozen=True)
class DayConfig:
    """A diurnal multi-tenant day: boots all day, a trickle of new images."""

    n_nodes: int = 16
    n_storage: int = 4
    block_size: int = 65536
    scale: float = 1.0 / 512.0
    n_boots: int = 400  #: expected boots over the day
    n_initial_images: int = 64
    n_new_registrations: int = 8
    n_tenants: int = 16
    zipf_exponent: float = 0.9
    link: LinkProfile = GBE_1
    seed: int = 0
    trace: bool = False
    #: injected faults running alongside the diurnal load
    faults: FaultPlan | None = None
    #: gauge-scrape cadence (5 simulated minutes over a 24 h horizon)
    metrics_interval_s: float = 300.0

    @classmethod
    def from_params(
        cls,
        *,
        nodes: int = 16,
        boots: int = 400,
        tenants: int = 16,
        registrations: int = 8,
        seed: int = 0,
        faults: str | None = None,
    ) -> "DayConfig":
        """Build a config from the validated experiment params (the ``day``
        experiment's CLI/sweep surface; ``faults`` is the plan DSL)."""
        return cls(
            n_nodes=nodes,
            n_boots=boots,
            n_tenants=tenants,
            n_new_registrations=registrations,
            seed=seed,
            faults=FaultPlan.parse(faults) if faults else None,
        )


@dataclass(frozen=True)
class DayReport(ReportBase):
    boots: int
    cache_hits: int
    registrations: int
    compute_ingress_bytes: int
    boot_latency: HistogramStats
    register_latency: HistogramStats
    summary: dict = field(repr=False)
    #: canonical metrics block: instrument snapshot + sampled series
    metrics: dict = field(repr=False)


def steady_state_day(
    config: DayConfig = DayConfig(), *, trace_path=None
) -> DayReport:
    """24 simulated hours of diurnal load against one cluster.

    With a ``trace_path``, the run's spans are exported there as a Chrome
    trace-event JSON file; ``config.faults`` runs the day under injected
    node crashes / link flaps / brick failures.
    """
    rig = _build_rig(
        n_compute=config.n_nodes,
        n_storage=config.n_storage,
        block_size=config.block_size,
        scale=config.scale,
        link=config.link,
        seed=derive_seed("day", config.seed),
        trace=config.trace,
        metrics_interval_s=config.metrics_interval_s,
    )
    dataset, squirrel, engine, timeline, timed = (
        rig.dataset, rig.squirrel, rig.engine, rig.timeline, rig.timed,
    )
    catalogue = config.n_initial_images + config.n_new_registrations
    if catalogue > len(dataset.images):
        raise ConfigError("catalogue larger than the dataset")
    for spec in dataset.images[: config.n_initial_images]:
        squirrel.register(spec)  # overnight backlog: instant setup
    squirrel.cluster.ledger.clear()
    if config.faults is not None:
        FaultInjector(timed, config.faults).start()

    rng = rng_stream("workload-day", config.seed)
    boot_times = diurnal_arrivals(
        rng, mean_rate_per_s=config.n_boots / DAY_S, horizon_s=DAY_S
    )
    tenants = TenantPopulation(
        config.n_tenants, catalogue,
        seed=derive_seed("workload-day-tenants", config.seed),
        zipf_exponent=config.zipf_exponent,
    )
    node_names = [node.name for node in squirrel.cluster.compute]

    def vm(at, node_name, image_id):
        yield engine.timeout(at)
        if not squirrel.is_registered(image_id):
            # image not registered yet today: fall back to a warm one
            registered = squirrel.registered_ids()
            image_id = registered[image_id % len(registered)]
            timeline.count("fallback_boots")
        yield timed.boot(image_id, node_name)

    for at in boot_times:
        _tenant, image_id = tenants.sample(rng)
        node_name = node_names[int(rng.integers(len(node_names)))]
        engine.process(vm(float(at), node_name, image_id))

    register_times = poisson_arrivals(
        rng, rate_per_s=config.n_new_registrations / DAY_S, horizon_s=DAY_S
    )
    new_specs = dataset.images[config.n_initial_images : catalogue]

    def registration(at, spec):
        yield engine.timeout(at)
        yield timed.register(spec)

    for at, spec in zip(register_times, new_specs):
        engine.process(registration(float(at), spec))

    def nightly_gc():
        yield engine.timeout(DAY_S - 1.0)
        timed.collect_garbage()

    engine.process(nightly_gc())
    with obs_runtime.phase("day.run"):
        # heartbeat horizon: the day ends at DAY_S on the sim clock
        obs_runtime.set_fraction(lambda: min(1.0, engine.now / DAY_S))
        engine.run()
    timed.tracer.close_open_spans()
    if trace_path is not None:
        write_chrome_trace(trace_path, {"day": timed.tracer})
    return DayReport(
        boots=int(timeline.counter("boots")),
        cache_hits=int(timeline.counter("cache_hits")),
        registrations=int(timeline.counter("registrations")),
        compute_ingress_bytes=squirrel.cluster.compute_ingress_bytes(
            purpose="boot-read"
        ),
        boot_latency=timeline.stats("boot_latency_s"),
        register_latency=timeline.stats("register_latency_s"),
        summary=timeline.summary(),
        metrics=rig.metrics_block(),
    )


# -- registration churn ---------------------------------------------------------------


@dataclass(frozen=True)
class ChurnConfig:
    """Registration pressure with node downtime: offline propagation under
    time, including GC-forced full re-replications."""

    n_nodes: int = 8
    n_storage: int = 4
    block_size: int = 65536
    scale: float = 1.0 / 512.0
    horizon_days: float = 7.0
    registrations_per_day: float = 6.0
    #: per-node expected downtimes over the horizon
    downtimes_per_node: float = 2.0
    mean_downtime_days: float = 0.8
    gc_window_days: float = 2.0
    link: LinkProfile = GBE_1
    seed: int = 0
    trace: bool = False
    #: injected faults running alongside the churn (on top of the planned
    #: downtime windows the scenario itself schedules)
    faults: FaultPlan | None = None
    #: gauge-scrape cadence (30 simulated minutes over a week-long horizon)
    metrics_interval_s: float = 1800.0

    @classmethod
    def from_params(
        cls,
        *,
        nodes: int = 8,
        days: float = 7.0,
        registrations_per_day: float = 6.0,
        downtimes_per_node: float = 2.0,
        seed: int = 0,
        faults: str | None = None,
    ) -> "ChurnConfig":
        """Build a config from the validated experiment params (the ``churn``
        experiment's CLI/sweep surface; ``faults`` is the plan DSL)."""
        return cls(
            n_nodes=nodes,
            horizon_days=days,
            registrations_per_day=registrations_per_day,
            downtimes_per_node=downtimes_per_node,
            seed=seed,
            faults=FaultPlan.parse(faults) if faults else None,
        )


@dataclass(frozen=True)
class ChurnReport(ReportBase):
    registrations: int
    resyncs: int
    incremental_resyncs: int
    full_replications: int
    resync_bytes: int
    register_latency: HistogramStats
    resync_latency: HistogramStats
    summary: dict = field(repr=False)
    #: canonical metrics block: instrument snapshot + sampled series
    metrics: dict = field(repr=False)


def register_churn(
    config: ChurnConfig = ChurnConfig(), *, trace_path=None
) -> ChurnReport:
    """A week of registrations while nodes come and go.

    With a ``trace_path``, the run's spans are exported there as a Chrome
    trace-event JSON file; ``config.faults`` adds injected faults on top of
    the scenario's own planned downtime windows.
    """
    rig = _build_rig(
        n_compute=config.n_nodes,
        n_storage=config.n_storage,
        block_size=config.block_size,
        scale=config.scale,
        link=config.link,
        seed=derive_seed("churn", config.seed),
        trace=config.trace,
        metrics_interval_s=config.metrics_interval_s,
    )
    dataset, squirrel, engine, timeline, timed = (
        rig.dataset, rig.squirrel, rig.engine, rig.timeline, rig.timed,
    )
    squirrel.gc_window_days = config.gc_window_days
    horizon_s = config.horizon_days * DAY_S
    if config.faults is not None:
        FaultInjector(timed, config.faults).start()
    rng = rng_stream("workload-churn", config.seed)

    register_times = poisson_arrivals(
        rng, rate_per_s=config.registrations_per_day / DAY_S, horizon_s=horizon_s
    )
    specs = dataset.images[: len(register_times)]

    def registration(at, spec):
        yield engine.timeout(at)
        yield timed.register(spec)

    for at, spec in zip(register_times, specs):
        engine.process(registration(float(at), spec))

    def downtime(node: ComputeNode, start, duration):
        yield engine.timeout(start)
        node.online = False
        timeline.count("downtimes")
        yield engine.timeout(duration)
        yield timed.resync(node.name)

    for node in squirrel.cluster.compute:
        n_windows = int(
            rng.poisson(config.downtimes_per_node)
        )
        starts = sorted(rng.uniform(0.0, horizon_s, size=n_windows))
        last_end = 0.0
        for start in starts:
            start = max(float(start), last_end + 60.0)
            duration = float(
                rng.exponential(config.mean_downtime_days * DAY_S)
            )
            if start + duration >= horizon_s:
                break
            engine.process(downtime(node, start, duration))
            last_end = start + duration

    def daily_gc():
        for day in range(1, int(config.horizon_days) + 1):
            yield engine.timeout(day * DAY_S - engine.now)
            timed.collect_garbage()

    engine.process(daily_gc())
    with obs_runtime.phase("churn.run"):
        # heartbeat horizon: registrations + downtime all land inside it
        obs_runtime.set_fraction(lambda: min(1.0, engine.now / horizon_s))
        engine.run()
    timed.tracer.close_open_spans()
    if trace_path is not None:
        write_chrome_trace(trace_path, {"churn": timed.tracer})
    return ChurnReport(
        registrations=int(timeline.counter("registrations")),
        resyncs=int(
            timeline.counter("incremental_resyncs")
            + timeline.counter("full_replications")
        ),
        incremental_resyncs=int(timeline.counter("incremental_resyncs")),
        full_replications=int(timeline.counter("full_replications")),
        resync_bytes=int(timeline.counter("resync_bytes")),
        register_latency=timeline.stats("register_latency_s"),
        resync_latency=timeline.stats("resync_latency_s"),
        summary=timeline.summary(),
        metrics=rig.metrics_block(),
    )
