"""Datasets and snapshots with ZFS deadlist semantics.

A :class:`Dataset` owns a namespace of files and an ordered chain of
read-only :class:`Snapshot` versions. Space shared with snapshots is managed
exactly the way ZFS does it — not by bumping refcounts at snapshot creation
(which would make snapshots O(data)), but with *deadlists*:

* killing a block (overwrite/delete) releases it immediately **unless** its
  birth txg predates the newest snapshot, in which case the kill is recorded
  on the head's deadlist;
* creating a snapshot freezes the head deadlist into the snapshot and starts
  a new one;
* destroying snapshot S frees the blocks of the *next* deadlist that were
  born after S's previous snapshot (only S pinned them), then inherits S's
  deadlist.

A :class:`Snapshot` is an immutable value once taken: destroying its
predecessor replaces it with a new one rather than editing it, so forked
pools (:meth:`ZPool.fork`) share snapshot objects. Snapshot capture costs
O(files changed since the last snapshot) plus two dict copies: the dataset
keeps a head mirror of every live file's view and creation txg, refreshed
only for the names written since. Every file mutation therefore goes
through a :class:`Dataset` method; the :class:`FileObject` that
:meth:`Dataset.file` returns is for reading.

``tests/test_zfs_dataset.py`` checks this machinery against a brute-force
reachability oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Iterator

from ..common.errors import ObjectNotFoundError, SnapshotError, StorageError
from ..common.units import ceil_div, validate_block_size
from .blockptr import BlockPointer
from .dmu import FileObject

if TYPE_CHECKING:  # pragma: no cover
    from .pool import ZPool

__all__ = ["Dataset", "Snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """A read-only dataset version."""

    name: str
    txg: int
    prev_txg: int  #: txg of the previous snapshot in the chain (0 if oldest)
    files: dict[str, tuple[BlockPointer, ...]]
    deadlist: list[BlockPointer]
    #: per-file creation txg (see FileObject.created_txg)
    file_created: dict[str, int] = field(default_factory=dict)

    def referenced_psize(self) -> int:
        """Physical bytes referenced by this snapshot (before dedup)."""
        return sum(bp.psize for blocks in self.files.values() for bp in blocks)


class Dataset:
    """A mounted filesystem/volume inside a pool."""

    def __init__(
        self,
        pool: "ZPool",
        name: str,
        *,
        record_size: int,
        compression: str = "gzip6",
        dedup: bool = True,
        zio=None,
    ) -> None:
        validate_block_size(record_size, grain=512)
        self.pool = pool
        self.name = name
        self.record_size = record_size
        self.compression = compression
        self.dedup = dedup
        #: the I/O pipeline this dataset writes through. Defaults to the
        #: pool's global pipeline (one shared dedup domain); a sharded pool
        #: hands each shard dataset the pipeline of its own dedup domain.
        self.zio = zio if zio is not None else pool.zio
        self._files: dict[str, FileObject] = {}
        #: head mirror for snapshot capture, in ``_files`` order: each live
        #: file's view and creation txg. Views are refreshed only for the
        #: names in ``_touched`` (written since the last snapshot).
        self._head_views: dict[str, tuple[BlockPointer, ...]] = {}
        self._head_created: dict[str, int] = {}
        self._touched: set[str] = set()
        self._snapshots: list[Snapshot] = []  # oldest -> newest
        self._snap_by_name: dict[str, Snapshot] = {}
        self._head_deadlist: list[BlockPointer] = []

    # -- file I/O ------------------------------------------------------------

    def create_file(self, name: str) -> FileObject:
        """Create an empty file; overwriting an existing name is an error."""
        if name in self._files:
            raise StorageError(f"file {name!r} already exists in {self.name}")
        obj = FileObject(
            name=name,
            record_size=self.record_size,
            created_txg=self.pool.advance_txg(),
        )
        self._files[name] = obj
        self._head_views[name] = obj.snapshot_view()
        self._head_created[name] = obj.created_txg
        return obj

    def file(self, name: str) -> FileObject:
        """The named file, for reading: mutate it through this dataset."""
        obj = self._files.get(name)
        if obj is None:
            raise ObjectNotFoundError(f"no file {name!r} in dataset {self.name}")
        return obj

    def has_file(self, name: str) -> bool:
        return name in self._files

    def file_names(self) -> list[str]:
        return sorted(self._files)

    def write_block(self, file_name: str, index: int, data: bytes) -> BlockPointer:
        """Write one record of real bytes (creating the file when absent)."""
        if len(data) > self.record_size:
            raise StorageError(
                f"block of {len(data)} bytes exceeds record size {self.record_size}"
            )
        obj = self._files.get(file_name) or self.create_file(file_name)
        txg = self.pool.advance_txg()
        result = self.zio.write_bytes(
            data, txg=txg, compression=self.compression, dedup=self.dedup
        )
        old = obj.set_block(index, result.bp)
        self._touched.add(file_name)
        self._kill(old)
        return result.bp

    def write_block_virtual(
        self,
        file_name: str,
        index: int,
        *,
        signature: int,
        lsize: int,
        psize: int,
        is_hole: bool = False,
    ) -> BlockPointer:
        """Write one record of procedural content (accounting path)."""
        obj = self._files.get(file_name) or self.create_file(file_name)
        txg = self.pool.advance_txg()
        result = self.zio.write_virtual(
            signature,
            lsize=lsize,
            psize=psize,
            txg=txg,
            compression=self.compression,
            dedup=self.dedup,
            is_hole=is_hole,
        )
        old = obj.set_block(index, result.bp)
        self._touched.add(file_name)
        self._kill(old)
        return result.bp

    def write_file(self, file_name: str, data: bytes) -> FileObject:
        """Write a whole file of real bytes in record_size chunks."""
        if file_name in self._files:
            self.delete_file(file_name)
        obj = self.create_file(file_name)
        n_blocks = ceil_div(len(data), self.record_size) if data else 0
        for index in range(n_blocks):
            chunk = data[index * self.record_size : (index + 1) * self.record_size]
            txg = self.pool.advance_txg()
            result = self.zio.write_bytes(
                chunk, txg=txg, compression=self.compression, dedup=self.dedup
            )
            obj.set_block(index, result.bp)
        self._touched.add(file_name)
        return obj

    def write_file_virtual(
        self,
        file_name: str,
        blocks: Iterable[tuple[int, int, int, bool]],
    ) -> FileObject:
        """Write a whole procedural file.

        ``blocks`` yields ``(signature, lsize, psize, is_hole)`` per record in
        order. One txg covers the whole file write (a single sync pass), which
        keeps snapshot diffs file-granular the way ``zfs send`` sees them.
        """
        if file_name in self._files:
            self.delete_file(file_name)
        obj = self.create_file(file_name)
        txg = self.pool.advance_txg()
        for index, (signature, lsize, psize, is_hole) in enumerate(blocks):
            result = self.zio.write_virtual(
                signature,
                lsize=lsize,
                psize=psize,
                txg=txg,
                compression=self.compression,
                dedup=self.dedup,
                is_hole=is_hole,
            )
            obj.set_block(index, result.bp)
        self._touched.add(file_name)
        return obj

    def read_block(self, file_name: str, index: int) -> bytes:
        """Read one record of a materialised file."""
        bp = self.file(file_name).get_block(index)
        if bp.is_hole:
            return bytes(bp.lsize or self.record_size)
        return self.zio.read_bytes(bp)

    def read_file(self, file_name: str) -> bytes:
        """Read a whole materialised file."""
        obj = self.file(file_name)
        parts = []
        for bp in obj.blocks:
            if bp.is_hole:
                parts.append(bytes(bp.lsize or self.record_size))
            else:
                parts.append(self.zio.read_bytes(bp))
        return b"".join(parts)

    def delete_file(self, file_name: str) -> None:
        obj = self.file(file_name)
        for bp in obj.blocks:
            self._kill(bp)
        del self._files[file_name]
        del self._head_views[file_name]
        del self._head_created[file_name]
        self._touched.discard(file_name)

    def truncate_file(self, file_name: str, block_count: int) -> None:
        """Resize a file to exactly ``block_count`` records (growing with
        holes); blocks dropped from the tail are killed like overwrites."""
        for bp in self.file(file_name).truncate(block_count):
            self._kill(bp)
        self._touched.add(file_name)

    def destroy(self) -> None:
        """Destroy the dataset: all snapshots (oldest first), then all files."""
        for snap in [s.name for s in self._snapshots]:
            self.destroy_snapshot(snap)
        for name in list(self._files):
            self.delete_file(name)

    # -- space accounting ----------------------------------------------------

    @property
    def referenced_psize(self) -> int:
        """Physical bytes referenced by the live head (before dedup)."""
        return sum(obj.referenced_psize for obj in self._files.values())

    @property
    def logical_size(self) -> int:
        return sum(obj.logical_size for obj in self._files.values())

    @property
    def nonzero_lsize(self) -> int:
        return sum(obj.nonzero_lsize for obj in self._files.values())

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, snap_name: str) -> Snapshot:
        """Freeze the current head as ``dataset@snap_name``."""
        if snap_name in self._snap_by_name:
            raise SnapshotError(f"snapshot {self.name}@{snap_name} already exists")
        txg = self.pool.advance_txg()
        prev_txg = self._snapshots[-1].txg if self._snapshots else 0
        views = self._head_views
        for name in self._touched:
            views[name] = self._files[name].snapshot_view()
        self._touched.clear()
        snap = Snapshot(
            name=snap_name,
            txg=txg,
            prev_txg=prev_txg,
            files=dict(views),
            deadlist=self._head_deadlist,
            file_created=dict(self._head_created),
        )
        self._head_deadlist = []
        self._snapshots.append(snap)
        self._snap_by_name[snap_name] = snap
        return snap

    def get_snapshot(self, snap_name: str) -> Snapshot:
        snap = self._snap_by_name.get(snap_name)
        if snap is None:
            raise ObjectNotFoundError(f"no snapshot {self.name}@{snap_name}")
        return snap

    def has_snapshot(self, snap_name: str) -> bool:
        return snap_name in self._snap_by_name

    def snapshots(self) -> list[Snapshot]:
        """Snapshots oldest → newest."""
        return list(self._snapshots)

    def latest_snapshot(self) -> Snapshot | None:
        return self._snapshots[-1] if self._snapshots else None

    def destroy_snapshot(self, snap_name: str) -> int:
        """Destroy one snapshot; returns physical bytes released."""
        position = next(
            (i for i, s in enumerate(self._snapshots) if s.name == snap_name), None
        )
        if position is None:
            raise ObjectNotFoundError(f"no snapshot {self.name}@{snap_name}")
        snap = self._snapshots.pop(position)
        del self._snap_by_name[snap_name]
        next_deadlist = (
            self._snapshots[position].deadlist
            if position < len(self._snapshots)
            else self._head_deadlist
        )
        released = 0
        survivors: list[BlockPointer] = []
        for bp in next_deadlist:
            if bp.birth_txg > snap.prev_txg:
                released += self.zio.release(bp)
            else:
                survivors.append(bp)
        survivors.extend(snap.deadlist)
        if position < len(self._snapshots):
            # the successor inherits the deadlist and S's previous snapshot.
            # It is replaced, not edited: snapshots are shared values.
            successor = replace(
                self._snapshots[position], prev_txg=snap.prev_txg, deadlist=survivors
            )
            self._snapshots[position] = successor
            self._snap_by_name[successor.name] = successor
        else:
            self._head_deadlist = survivors
        return released

    # -- forking -------------------------------------------------------------

    def fork(self, pool: "ZPool", zio) -> "Dataset":
        """An independent copy of this dataset inside ``pool`` (a fork of its
        pool), writing through ``zio``. Files get their own block lists;
        block pointers, views and snapshots are immutable and shared."""
        twin = Dataset(
            pool,
            self.name,
            record_size=self.record_size,
            compression=self.compression,
            dedup=self.dedup,
            zio=zio,
        )
        twin._files = {name: obj.fork() for name, obj in self._files.items()}
        twin._head_views = dict(self._head_views)
        twin._head_created = dict(self._head_created)
        twin._touched = set(self._touched)
        twin._snapshots = list(self._snapshots)
        twin._snap_by_name = dict(self._snap_by_name)
        twin._head_deadlist = list(self._head_deadlist)
        return twin

    # -- internals -----------------------------------------------------------

    def _kill(self, bp: BlockPointer) -> None:
        """A live reference went away: release now or defer to the deadlist."""
        if bp.is_hole:
            return
        latest = self.latest_snapshot()
        if latest is None or bp.birth_txg > latest.txg:
            self.zio.release(bp)
        else:
            self._head_deadlist.append(bp)

    def iter_live_blocks(self) -> Iterator[BlockPointer]:
        for obj in self._files.values():
            yield from obj.blocks

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Dataset {self.name} rs={self.record_size} files={len(self._files)} "
            f"snaps={len(self._snapshots)}>"
        )
