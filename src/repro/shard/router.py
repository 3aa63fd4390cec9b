"""ShardRouter — the state Squirrel consults when the cVolume is sharded.

Attached as ``squirrel.sharding``. To Squirrel a shard is one more
snapshot chain (:class:`~repro.core.cluster.SnapshotChain`): register,
propagation, GC and resync run the same code on every chain, and chain
state — snapshot serials and ages, per-node sync points — lives with
Squirrel and the compute nodes. The router owns only what is about
shards:

* the :class:`~repro.shard.plan.ShardPlan` (image → shard) and one chain
  per shard,
* the storage-side :class:`~repro.zfs.ShardedPool` over the scVolume,
  including per-shard quotas and eviction, and the DDT high-water marks,
* per-tenant boot/ARC tallies feeding the per-tenant hit-rate gauges and
  the noisy-neighbor report block.

With a single shard the router *adopts* the existing scVolume/ccVolume
datasets and the global DDT: no new datasets, no new domains — only quota
enforcement and tenant accounting on top. That is the "global domain with
quota" contrast side of the ``shards`` experiment.
"""

from __future__ import annotations

from ..common.errors import ConfigError
from ..core.cluster import CCVOLUME, SCVOLUME, SnapshotChain
from ..zfs import ShardedPool
from .plan import ShardPlan

__all__ = ["ShardRouter"]


class ShardRouter:
    """Routing + accounting state for a sharded cVolume."""

    def __init__(
        self,
        plan: ShardPlan,
        *,
        quota_bytes: int = 0,
        arc_bytes_per_shard: int | None = None,
        tenants: tuple[int, ...] = (),
    ) -> None:
        self.plan = plan
        self.quota_bytes = int(quota_bytes)
        #: per-shard ARC slice for TimedSquirrel's per-node caches; ``None``
        #: falls back to an even split of the node budget
        self.arc_bytes_per_shard = arc_bytes_per_shard
        #: known tenant ids (lets the rig pre-create per-tenant metric
        #: children so expositions cover every tenant from the first scrape)
        self.tenants = tuple(int(t) for t in tenants)
        self.scvol: ShardedPool | None = None
        #: shard → its snapshot chain, in plan order (set by :meth:`install`)
        self._chains: dict[str, SnapshotChain] = {}
        self.evicted_images: dict[int, str] = {}
        self._tenants: dict[int, dict[str, int]] = {}

    @property
    def names(self) -> tuple[str, ...]:
        return self.plan.names

    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    def shard_of(self, image_id: int) -> str:
        return self.plan.shard_of(image_id)

    # -- installation ---------------------------------------------------------

    def install(self, squirrel) -> None:
        """Create the shard datasets (storage + every node's pool).

        Must run before any registration. Single shard adopts the existing
        volumes; multi-shard creates ``scvol/<s>``/``ccvol/<s>`` datasets,
        each writing through its own dedup domain.
        """
        if self.scvol is not None:
            raise ConfigError("sharding already installed")
        if getattr(squirrel, "placement", None) is not None:
            raise ConfigError(
                "sharding and placement policies cannot be combined"
            )
        cluster = squirrel.cluster
        pool = cluster.storage.pool
        template = cluster.storage.scvolume
        names = self.names
        single = self.n_shards == 1
        if single:
            self.scvol = ShardedPool.adopt(
                pool, SCVOLUME, names[0], quota_bytes=self.quota_bytes
            )
        else:
            self.scvol = ShardedPool.create(
                pool,
                SCVOLUME,
                names,
                record_size=template.record_size,
                compression=template.compression,
                quota_bytes=self.quota_bytes,
            )
        self._chains = {
            shard: SnapshotChain(
                self.scvol.dataset(shard),
                CCVOLUME if single else f"{CCVOLUME}/{shard}",
                shard,
                None if single else shard,
            )
            for shard in names
        }
        if single:
            return
        chains = self.chains

        def init(node_pool) -> None:
            for chain in chains:
                node_pool.create_dataset(
                    chain.dataset,
                    record_size=template.record_size,
                    compression=template.compression,
                    domain=chain.domain,
                )

        squirrel._apply_replica(
            cluster.compute, ("shardinit",) + names, init,
            when=lambda node_pool: not node_pool.has_dataset(chains[0].dataset),
        )

    # -- snapshot chains ------------------------------------------------------

    @property
    def chains(self) -> tuple[SnapshotChain, ...]:
        return tuple(self._chains.values())

    def chain_of(self, image_id: int) -> SnapshotChain:
        return self._chains[self.plan.shard_of(image_id)]

    # -- quota & eviction -----------------------------------------------------

    def note_hoarded(self, shard: str, image_id: int, cache_file: str) -> None:
        """A cache was just written into ``shard``: queue it for eviction,
        enforce the quota (evicting older hoards), track the DDT
        high-water."""
        scvol = self.scvol
        scvol.note_file(shard, cache_file)
        self.evicted_images.pop(image_id, None)
        for name in scvol.ensure_quota(shard, keep=(cache_file,)):
            self.evicted_images[int(name.split("-")[1])] = shard
        scvol.refresh(shard)

    def note_dropped(self, shard: str, image_id: int, cache_file: str) -> None:
        """A deregistered cache left ``shard`` (or was evicted earlier)."""
        self.scvol.forget(shard, cache_file)
        self.evicted_images.pop(image_id, None)

    # -- tenant accounting ----------------------------------------------------

    def _tenant(self, tenant_id: int) -> dict[str, int]:
        entry = self._tenants.get(tenant_id)
        if entry is None:
            entry = self._tenants[tenant_id] = {
                "boots": 0,
                "cache_hits": 0,
                "arc_hits": 0,
                "arc_misses": 0,
            }
        return entry

    def note_tenant_boot(self, tenant_id: int, cache_hit: bool) -> None:
        entry = self._tenant(tenant_id)
        entry["boots"] += 1
        if cache_hit:
            entry["cache_hits"] += 1

    def note_tenant_arc(self, tenant_id: int, hits: int, misses: int) -> None:
        entry = self._tenant(tenant_id)
        entry["arc_hits"] += hits
        entry["arc_misses"] += misses

    def tenant_hit_rate(self, tenant_id: int) -> float:
        entry = self._tenants.get(tenant_id)
        if not entry:
            return 0.0
        lookups = entry["arc_hits"] + entry["arc_misses"]
        return entry["arc_hits"] / lookups if lookups else 0.0

    def tenant_stats(self) -> dict[int, dict]:
        """Per-tenant tallies plus the derived ARC hit rate."""
        out: dict[int, dict] = {}
        for tenant_id in sorted(self._tenants):
            entry = dict(self._tenants[tenant_id])
            entry["hit_rate"] = self.tenant_hit_rate(tenant_id)
            out[tenant_id] = entry
        return out

    # -- reporting ------------------------------------------------------------

    def shard_block(self) -> dict:
        """The canonical ``sharding`` report block."""
        scvol = self.scvol
        block = {
            "plan": self.plan.to_dict(),
            "quota_bytes": self.quota_bytes,
            "evicted_images": len(self.evicted_images),
        }
        if scvol is not None:
            block["scvolume"] = scvol.shard_stats()
            block["dedup_loss_bytes"] = scvol.dedup_loss_bytes()
            block["duplicate_entries"] = scvol.duplicate_entries()
        return block
