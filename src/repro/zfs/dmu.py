"""DMU objects — files as block-pointer arrays.

A :class:`FileObject` is the object layer's view of one file: an ordered list
of block pointers at the dataset's record size, supporting sparse holes,
random block writes (for copy-on-read caches), and exact space accounting.
Content never lives here; blocks are owned by the pool via the ZIO pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import StorageError
from .blockptr import HOLE, BlockPointer

__all__ = ["FileObject"]


@dataclass
class FileObject:
    """One file of a dataset."""

    name: str
    record_size: int
    blocks: list[BlockPointer] = field(default_factory=list)
    #: txg in which this object was created. Distinguishes a file that
    #: merely changed from one that was deleted and re-created under the
    #: same name between two snapshots — the latter must be replicated as
    #: unlink + fresh writes, or stale blocks survive on replicas.
    created_txg: int = 0
    #: memoised snapshot_view(); every mutation drops it, so snapshotting a
    #: dataset whose files are mostly unchanged shares one tuple per file
    #: instead of re-copying every block list (snapshots are O(changed data),
    #: matching the deadlist design above the object layer)
    _view: "tuple[BlockPointer, ...] | None" = field(
        default=None, repr=False, compare=False
    )

    def fork(self) -> "FileObject":
        """An independent copy sharing the immutable block pointers and view."""
        return FileObject(
            self.name, self.record_size, list(self.blocks), self.created_txg, self._view
        )

    def block_count(self) -> int:
        return len(self.blocks)

    def get_block(self, index: int) -> BlockPointer:
        """Block pointer at ``index``; reads past EOF are holes."""
        if index < 0:
            raise StorageError(f"negative block index {index}")
        if index >= len(self.blocks):
            return HOLE
        return self.blocks[index]

    def set_block(self, index: int, bp: BlockPointer) -> BlockPointer:
        """Install ``bp`` at ``index`` (growing with holes); returns the old bp."""
        if index < 0:
            raise StorageError(f"negative block index {index}")
        self._view = None
        while len(self.blocks) <= index:
            self.blocks.append(HOLE)
        old = self.blocks[index]
        self.blocks[index] = bp
        return old

    def truncate(self, block_count: int) -> list[BlockPointer]:
        """Resize to exactly ``block_count`` records (growing with holes);
        returns the block pointers dropped from the tail, for the caller to
        kill against its deadlists."""
        if block_count < 0:
            raise StorageError(f"negative block count {block_count}")
        self._view = None
        dropped: list[BlockPointer] = []
        while len(self.blocks) > block_count:
            dropped.append(self.blocks.pop())
        while len(self.blocks) < block_count:
            self.blocks.append(HOLE)
        return dropped

    @property
    def logical_size(self) -> int:
        """Apparent file size (holes included), in bytes."""
        if not self.blocks:
            return 0
        # all records are record_size except possibly the last
        full = (len(self.blocks) - 1) * self.record_size
        last = self.blocks[-1]
        return full + (last.lsize if last.lsize else self.record_size)

    @property
    def referenced_psize(self) -> int:
        """Physical bytes referenced by this file (before dedup)."""
        return sum(bp.psize for bp in self.blocks)

    @property
    def nonzero_lsize(self) -> int:
        """Logical bytes excluding holes — the paper's 'nonzero' measure."""
        return sum(bp.lsize for bp in self.blocks if not bp.is_hole)

    def snapshot_view(self) -> tuple[BlockPointer, ...]:
        """Immutable copy of the block list for snapshot capture (memoised
        until the next mutation, so unchanged files share one view)."""
        view = self._view
        if view is None:
            view = self._view = tuple(self.blocks)
        return view
