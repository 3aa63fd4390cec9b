"""The ZIO pipeline: checksum → compress → dedup → allocate, and the reverse.

Two write paths share all bookkeeping:

* **bytes path** — real data: zero-detection, real codec compression, blake2b
  checksum, dedup, allocation, and payload storage for later reads.
* **virtual path** — accounting-scale procedural blocks: the caller supplies
  the 64-bit grain signature and a (calibrated-estimator) physical size; the
  pipeline performs identical dedup/allocation bookkeeping without touching
  bytes. Used when storing hundreds of scaled images where materialising
  content would dominate runtime.

Both paths produce :class:`~repro.zfs.blockptr.BlockPointer` values that are
indistinguishable to the dataset/snapshot layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codecs import Codec, get_codec, is_zero_block
from ..common.errors import StorageError
from ..common.hashing import hash_bytes
from .blockptr import BlockPointer, byte_checksum_key, virtual_checksum_key
from .ddt import DedupTable
from .spa import SpaceMap

__all__ = ["ZioPipeline", "WriteResult"]


@dataclass(frozen=True, slots=True)
class WriteResult:
    """Outcome of one block write."""

    bp: BlockPointer
    deduped: bool  #: True when the write hit an existing DDT entry
    allocated: int  #: bytes newly allocated (0 on dedup hit or hole)


class ZioPipeline:
    """Shared write/read machinery for one pool.

    ``dedup_table`` is the charged DDT; ``plain_table`` tracks allocations of
    non-dedup datasets with the same refcount machinery but is *not* charged
    as dedup metadata (it models ordinary indirect-block bookkeeping).
    """

    def __init__(
        self,
        space: SpaceMap,
        dedup_table: DedupTable,
        plain_table: DedupTable,
        *,
        store_payloads: bool = True,
    ) -> None:
        self.space = space
        self.ddt = dedup_table
        self.plain = plain_table
        self.store_payloads = store_payloads
        #: checksum -> compressed payload, for the bytes read path
        self._blockstore: dict[str, bytes] = {}
        self._plain_serial = 0

    def fork(self, space: SpaceMap) -> "ZioPipeline":
        """An independent pipeline over ``space`` (the forked pool's space
        map) with forked tables; stored payloads are immutable and shared."""
        twin = ZioPipeline(
            space,
            self.ddt.fork(),
            self.plain.fork(),
            store_payloads=self.store_payloads,
        )
        twin._blockstore = dict(self._blockstore)
        twin._plain_serial = self._plain_serial
        return twin

    # -- write paths --------------------------------------------------------

    def write_bytes(
        self,
        data: bytes,
        *,
        txg: int,
        compression: str,
        dedup: bool,
    ) -> WriteResult:
        """Write one materialised block."""
        lsize = len(data)
        if lsize == 0 or is_zero_block(data):
            return WriteResult(
                BlockPointer(None, lsize, 0, txg, compression), deduped=False, allocated=0
            )
        codec: Codec = get_codec(compression)
        psize = codec.effective_size(data)
        checksum = byte_checksum_key(hash_bytes(data))
        if dedup:
            result = self._dedup_write(checksum, lsize, psize, txg, compression)
        else:
            result = self._plain_write(lsize, psize, txg, compression)
        if self.store_payloads:
            payload = codec.compress(data) if psize < lsize else data
            self._blockstore.setdefault(result.bp.checksum, payload)
        return result

    def write_virtual(
        self,
        signature: int,
        *,
        lsize: int,
        psize: int,
        txg: int,
        compression: str,
        dedup: bool = True,
        is_hole: bool = False,
    ) -> WriteResult:
        """Write one procedural block described by its grain signature."""
        if is_hole or psize == 0:
            return WriteResult(
                BlockPointer(None, lsize, 0, txg, compression), deduped=False, allocated=0
            )
        if psize < 0 or psize > lsize:
            raise StorageError(f"virtual psize {psize} outside (0, lsize={lsize}]")
        checksum = virtual_checksum_key(signature)
        if dedup:
            return self._dedup_write(checksum, lsize, psize, txg, compression)
        return self._plain_write(lsize, psize, txg, compression)

    def _dedup_write(
        self, checksum: str, lsize: int, psize: int, txg: int, compression: str
    ) -> WriteResult:
        entry = self.ddt.lookup(checksum)
        if entry is not None:
            self.ddt.add_ref(checksum)
            bp = BlockPointer(checksum, lsize, entry.psize, txg, compression)
            return WriteResult(bp, deduped=True, allocated=0)
        dva = self.space.allocate(psize)
        self.ddt.insert(checksum, psize=psize, lsize=lsize, dva=dva, txg=txg)
        bp = BlockPointer(checksum, lsize, psize, txg, compression)
        return WriteResult(bp, deduped=False, allocated=psize)

    def _plain_write(
        self, lsize: int, psize: int, txg: int, compression: str
    ) -> WriteResult:
        self._plain_serial += 1
        checksum = f"a:{self._plain_serial:016x}"
        dva = self.space.allocate(psize)
        self.plain.insert(checksum, psize=psize, lsize=lsize, dva=dva, txg=txg)
        bp = BlockPointer(checksum, lsize, psize, txg, compression)
        return WriteResult(bp, deduped=False, allocated=psize)

    # -- free path ----------------------------------------------------------

    def release(self, bp: BlockPointer) -> int:
        """Drop one reference to ``bp``; returns bytes freed (0 if still shared)."""
        if bp.is_hole:
            return 0
        table = self.ddt if bp.checksum.startswith(("b:", "v:")) else self.plain
        dead = table.remove_ref(bp.checksum)
        if dead is None:
            return 0
        self._blockstore.pop(bp.checksum, None)
        return self.space.free(dead.dva)

    # -- read path ----------------------------------------------------------

    def dva_of(self, bp: BlockPointer) -> int:
        """On-disk location of ``bp``'s single stored copy (for seek modelling)."""
        if bp.is_hole:
            raise StorageError("holes have no DVA")
        table = self.ddt if bp.checksum.startswith(("b:", "v:")) else self.plain
        entry = table.lookup(bp.checksum)
        if entry is None:
            raise StorageError(f"dangling block pointer {bp.checksum}")
        return entry.dva

    def read_bytes(self, bp: BlockPointer) -> bytes:
        """Return the logical bytes of a materialised block pointer."""
        if bp.is_hole:
            return bytes(bp.lsize)
        payload = self._blockstore.get(bp.checksum)
        if payload is None:
            raise StorageError(
                f"no stored payload for {bp.checksum} "
                "(virtual blocks are read through their image provider)"
            )
        if bp.psize < bp.lsize:
            codec = get_codec(bp.compression)
            data = codec.decompress(payload, bp.lsize)
        else:
            data = payload
        if bp.checksum.startswith("b:") and byte_checksum_key(hash_bytes(data)) != bp.checksum:
            raise StorageError(f"checksum mismatch reading {bp.checksum}")
        return data

    @property
    def blockstore_bytes(self) -> int:
        """Payload bytes held for the read path (test/diagnostic metric)."""
        return sum(len(p) for p in self._blockstore.values())
