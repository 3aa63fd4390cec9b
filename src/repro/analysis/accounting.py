"""Vectorised pool accounting for dataset-scale experiments.

Figures 8-10 and 13 measure the ZFS pool (data + DDT, disk + memory) while
storing hundreds of images. Routing tens of millions of blocks through the
per-block object pipeline would dominate runtime, so this module reproduces
the pool's *accounting* — identical formulas and per-entry constants as
:mod:`repro.zfs.ddt`/:mod:`repro.zfs.spa` — with numpy batch updates: a
file's blocks are deduplicated against a sorted-run signature index and
billed with one vectorised sector round-up, with no per-block python work.
``tests/test_analysis_accounting.py`` proves batch and object pipelines
agree bit-for-bit on shared inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs import SizeEstimator
from ..vmi.streams import BlockView
from ..zfs.ddt import DDT_ENTRY_CORE_BYTES, DDT_ENTRY_DISK_BYTES, DDT_FIXED_CORE_BYTES
from ..zfs.spa import SECTOR_SIZE

__all__ = ["PoolAccountant", "PoolSnapshot"]


@dataclass(frozen=True)
class PoolSnapshot:
    """Pool resource usage after some number of files were added."""

    files: int
    ddt_entries: int
    data_bytes: int  #: allocated (deduped + compressed, sector-aligned)
    referenced_blocks: int

    @property
    def ddt_disk_bytes(self) -> int:
        return self.ddt_entries * DDT_ENTRY_DISK_BYTES

    @property
    def ddt_core_bytes(self) -> int:
        if self.ddt_entries == 0:
            return 0
        return DDT_FIXED_CORE_BYTES + self.ddt_entries * DDT_ENTRY_CORE_BYTES

    @property
    def disk_used_bytes(self) -> int:
        return self.data_bytes + self.ddt_disk_bytes

    @property
    def memory_used_bytes(self) -> int:
        return self.ddt_core_bytes


class PoolAccountant:
    """Incremental dedup+compression accounting over block views.

    ``add_view`` ingests one file's :class:`BlockView`; duplicate signatures
    (within the view or against everything seen before) allocate nothing.

    The dedup index is a short list of sorted, pairwise-disjoint ``uint64``
    runs, each more than twice the size of the next (a log-structured
    merge). A view's unique signatures are looked up with one
    ``searchsorted`` per run; the fresh ones become a new run, and while
    the last run is at least half its predecessor the two are merged. So
    there are O(log n) runs, every signature is re-sorted O(log n) times
    over the whole pass, and the index costs 8 bytes per DDT entry. One
    sorted array grown with ``np.insert`` would copy the whole index on
    every file and make the pass quadratic in the dataset size.
    """

    def __init__(self, estimator: SizeEstimator) -> None:
        self.estimator = estimator
        self._runs: list[np.ndarray] = []
        self._entries = 0
        self._data_bytes = 0
        self._blocks = 0
        self._files = 0

    def add_view(self, view: BlockView) -> PoolSnapshot:
        mask = ~view.is_hole
        signatures = view.signatures[mask]
        psizes = view.psizes(self.estimator)[mask]
        # first occurrence within this view
        fresh_sigs, fresh_index = np.unique(signatures, return_index=True)
        for run in self._runs:
            if not fresh_sigs.size:
                break
            slots = np.searchsorted(run, fresh_sigs)
            np.minimum(slots, run.size - 1, out=slots)
            unseen = run[slots] != fresh_sigs
            fresh_sigs = fresh_sigs[unseen]
            fresh_index = fresh_index[unseen]
        # align_up(psize, SECTOR_SIZE) over int64 psizes
        sectors = (psizes[fresh_index] + (SECTOR_SIZE - 1)) // SECTOR_SIZE
        self._data_bytes += int(sectors.sum()) * SECTOR_SIZE
        self._add_run(fresh_sigs)
        self._blocks += int(signatures.size)
        self._files += 1
        return self.snapshot()

    def _add_run(self, signatures: np.ndarray) -> None:
        """Append sorted signatures unseen so far as the newest run."""
        if not signatures.size:
            return
        runs = self._runs
        runs.append(signatures)
        self._entries += int(signatures.size)
        while len(runs) > 1 and 2 * runs[-1].size >= runs[-2].size:
            newer = runs.pop()
            runs[-1] = np.sort(np.concatenate((runs[-1], newer)), kind="stable")

    def snapshot(self) -> PoolSnapshot:
        return PoolSnapshot(
            files=self._files,
            ddt_entries=self._entries,
            data_bytes=self._data_bytes,
            referenced_blocks=self._blocks,
        )
