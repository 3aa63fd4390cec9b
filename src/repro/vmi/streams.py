"""Grain streams → block-level views: signatures, classes, physical sizes.

These are the vectorised bridges between the procedural image model and the
storage/analysis layers. A grain stream chunked at block size ``B`` yields:

* a uint64 *signature* per block (dedup identity),
* a per-block content-class composition matrix (for the calibrated
  compressed-size estimator),
* per-block logical sizes (last block may be short).

Everything here is numpy passes — a full 600-image sweep is a few seconds
per block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs import SizeEstimator
from ..common.hashing import fold_grain_signatures
from ..common.units import ceil_div
from .content import CLASS_MASK, GRAIN_SIZE, N_CLASSES, class_of

__all__ = ["BlockView", "block_view", "grains_per_block"]


def grains_per_block(block_size: int) -> int:
    """Number of content grains per block of ``block_size`` bytes."""
    if block_size % GRAIN_SIZE:
        raise ValueError(f"block size {block_size} not a multiple of {GRAIN_SIZE}")
    return block_size // GRAIN_SIZE


@dataclass(frozen=True)
class BlockView:
    """One file's grain stream chunked at a fixed block size."""

    block_size: int
    signatures: np.ndarray  #: uint64, one per block
    class_fractions: np.ndarray  #: (n_blocks, N_CLASSES) grain-count fractions
    lsizes: np.ndarray  #: int64 logical bytes per block (last may be short)
    is_hole: np.ndarray  #: bool, True where the block is all hole grains

    @property
    def n_blocks(self) -> int:
        return int(self.signatures.size)

    @property
    def nonzero_lsize(self) -> int:
        """Logical bytes of non-hole blocks (the paper's 'nonzero' measure)."""
        return int(self.lsizes[~self.is_hole].sum())

    def psizes(self, estimator: SizeEstimator) -> np.ndarray:
        """Estimated compressed sizes per block (0 for holes)."""
        sizes = estimator.estimate_blocks(self.class_fractions, self.block_size)
        # short tail block: never billed beyond its logical size
        return np.minimum(sizes, self.lsizes)


def block_view(stream: np.ndarray, block_size: int) -> BlockView:
    """Chunk one grain stream into a :class:`BlockView`."""
    g = grains_per_block(block_size)
    grains = np.ascontiguousarray(stream, dtype=np.uint64)
    n_blocks = ceil_div(grains.size, g) if grains.size else 0
    signatures = fold_grain_signatures(grains, g)

    padded = grains
    if n_blocks * g != grains.size:
        padded = np.zeros(n_blocks * g, dtype=np.uint64)
        padded[: grains.size] = grains
    matrix = padded.reshape(n_blocks, g)
    classes = class_of(matrix)  # 0 = hole
    # one histogram pass: counts[row, k] = grains with class code k (0 =
    # hole; untagged codes above N_CLASSES get their own, unused columns).
    # count / g is bit-identical to the mean of the 0/1 class indicator.
    width = int(CLASS_MASK) + 1
    keys = classes + (np.arange(n_blocks, dtype=np.int64) * width)[:, None]
    counts = np.bincount(keys.ravel(), minlength=n_blocks * width).reshape(n_blocks, width)
    class_fractions = counts[:, 1 : N_CLASSES + 1] / g

    lsizes = np.full(n_blocks, block_size, dtype=np.int64)
    if n_blocks and grains.size % g:
        lsizes[-1] = (grains.size % g) * GRAIN_SIZE
    is_hole = counts[:, 0] == g
    return BlockView(
        block_size=block_size,
        signatures=signatures,
        class_fractions=class_fractions,
        lsizes=lsizes,
        is_hole=is_hole,
    )
