"""Pool scrubbing — on-demand consistency verification.

Like ``zpool scrub``, but for the simulator's invariants instead of media
errors: walks every dataset, snapshot, and deadlist of a pool, recomputes
reference counts from scratch, and cross-checks them against the DDT and
space map. Squirrel deployments run it in tests and after failure-injection
sequences; any discrepancy is a bug in the write/free paths, never
expected operational state.

Checked invariants:

1. every reachable checksum (live files + snapshots) has an entry in its
   dataset's dedup domain;
2. every entry's refcount equals the domain's reachable references plus
   deferred frees parked on its datasets' deadlists;
3. allocated space equals the sector-aligned sum of live DDT entries;
4. for materialised pools, every reachable block decompresses and matches
   its checksum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import StorageError
from ..common.units import align_up
from .pool import ZPool
from .spa import SECTOR_SIZE

__all__ = ["ScrubReport", "scrub"]


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    datasets: int = 0
    blocks_checked: int = 0
    payloads_verified: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.errors

    def raise_if_dirty(self) -> None:
        if self.errors:
            raise StorageError(
                f"scrub found {len(self.errors)} inconsistencies: "
                + "; ".join(self.errors[:5])
            )


def scrub(pool: ZPool, *, verify_payloads: bool = True) -> ScrubReport:
    """Verify a pool's reference/space accounting (see module docstring).

    Each dedup domain (the global one and every named one) is checked on
    its own: a dataset's references count against its own domain's tables.
    """
    report = ScrubReport()
    domains = [pool.zio] + [pool.domain_zio(name) for name in pool.domain_names()]
    datasets = [pool.dataset(name) for name in pool.dataset_names()]
    report.datasets = len(datasets)
    for zio in domains:
        _check_domain(zio, [ds for ds in datasets if ds.zio is zio], report)

    # 3: space accounting, over the shared space map
    expected_alloc = sum(
        align_up(e.psize, SECTOR_SIZE)
        for zio in domains
        for table in (zio.ddt, zio.plain)
        for e in table
    )
    if expected_alloc != pool.space.allocated_bytes:
        report.errors.append(
            f"space map reports {pool.space.allocated_bytes} allocated, "
            f"tables imply {expected_alloc}"
        )

    # 4: payload integrity (bytes pools only)
    if verify_payloads:
        for dataset in datasets:
            for bp in dataset.iter_live_blocks():
                if bp.is_hole or not bp.checksum.startswith(("b:", "a:")):
                    continue
                try:
                    dataset.zio.read_bytes(bp)
                    report.payloads_verified += 1
                except StorageError as exc:
                    report.errors.append(f"payload {bp.checksum}: {exc}")
    return report


def _check_domain(zio, datasets: list, report: ScrubReport) -> None:
    """Invariants 1 and 2 for one dedup domain and the datasets using it."""
    live_refs: dict[str, int] = {}  #: references held by live heads
    deferred: dict[str, int] = {}  #: kills parked on deadlists
    snapshot_reachable: set[str] = set()

    for dataset in datasets:
        for bp in dataset.iter_live_blocks():
            if bp.is_hole:
                continue
            live_refs[bp.checksum] = live_refs.get(bp.checksum, 0) + 1
            report.blocks_checked += 1
        for snap in dataset.snapshots():
            for blocks in snap.files.values():
                for bp in blocks:
                    if not bp.is_hole:
                        snapshot_reachable.add(bp.checksum)
                        report.blocks_checked += 1
        deadlists = [dataset._head_deadlist]  # noqa: SLF001 - scrub is privileged
        deadlists += [snap.deadlist for snap in dataset.snapshots()]
        for deadlist in deadlists:
            for bp in deadlist:
                if not bp.is_hole:
                    deferred[bp.checksum] = deferred.get(bp.checksum, 0) + 1

    # 1 + 2: reference counts. Snapshots do NOT hold refcounts (ZFS
    # semantics): a reference is either live in a head or deferred on a
    # deadlist; snapshot-only visibility is always backed by a deadlist entry.
    for table in (zio.ddt, zio.plain):
        for entry in table:
            expected = live_refs.get(entry.checksum, 0) + deferred.get(
                entry.checksum, 0
            )
            if entry.refcount != expected:
                report.errors.append(
                    f"{entry.checksum}: refcount {entry.refcount}, "
                    f"live+deferred {expected}"
                )
    known = {e.checksum for e in zio.ddt} | {e.checksum for e in zio.plain}
    for checksum in set(live_refs) | snapshot_reachable:
        if checksum not in known:
            report.errors.append(f"reachable block {checksum} missing from tables")
