"""Grain content: classes, class tagging, and byte materialisation.

Image content is addressed in 1 KB *grains*. A grain is identified by a
64-bit grain ID whose low 3 bits encode its :class:`ContentClass`; grain ID 0
is the hole (all-zero) grain. Given only a grain ID, this module can
deterministically materialise the grain's bytes, so two images referencing
the same grain ID always see identical content — which is exactly what makes
grain-ID equality a sound stand-in for content-hash equality in the
accounting experiments.

Content classes model the byte statistics found inside OS images:

* ``TEXT``       — configuration/scripts/logs: word-structured ASCII,
* ``BINARY``     — ELF executables and libraries: dense structured binary,
* ``STRUCTURED`` — filesystem metadata, package databases: highly repetitive
  records,
* ``PACKED``     — already-compressed payloads (archives, media, .gz man
  pages): incompressible.

Each pool kind (boot working set, distro base install, user software) mixes
these classes differently — the mechanism behind caches compressing better
than full images (paper Sections 2.2, 4.2).
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from ..common.hashing import derive_seed, mix64
from ..common.rng import stream

__all__ = [
    "ContentClass",
    "PoolKind",
    "GRAIN_SIZE",
    "N_CLASSES",
    "CLASS_MASK",
    "tag_with_classes",
    "class_of",
    "materialize_grain",
    "materialize_block",
    "sample_block",
]

#: grain granularity: 1 KB, the finest block size the paper sweeps.
GRAIN_SIZE: int = 1024

CLASS_MASK = np.uint64(0x7)
_ID_MASK = np.uint64(0xFFFFFFFFFFFFFFF8)
_CLASS_SALT = np.uint64(derive_seed("grain-class-salt"))


class ContentClass(IntEnum):
    """Byte-statistics class of one grain (encoded in grain-ID bits 0..2)."""

    TEXT = 1
    BINARY = 2
    STRUCTURED = 3
    PACKED = 4


N_CLASSES: int = len(ContentClass)


class PoolKind(IntEnum):
    """What part of an image a grain pool models."""

    BOOT = 0  #: boot working set: kernel, initrd, init daemons, configs
    BASE = 1  #: distro base install beyond the boot set
    USER = 2  #: user-installed software, archives, data


#: Class mixture per pool kind (fractions of TEXT, BINARY, STRUCTURED, PACKED).
#: Boot sets skew to executables + metadata; user data skews to packed
#: payloads. These mixtures produce gzip-6 ratios of ~2.6 for caches and ~1.9
#: for full images at large block sizes, matching Figure 2's levels.
KIND_CLASS_MIX: dict[PoolKind, tuple[float, float, float, float]] = {
    PoolKind.BOOT: (0.20, 0.48, 0.17, 0.15),
    PoolKind.BASE: (0.20, 0.42, 0.13, 0.25),
    PoolKind.USER: (0.10, 0.30, 0.10, 0.50),
}


def _cumulative_thresholds(kind: PoolKind) -> np.ndarray:
    mix = np.asarray(KIND_CLASS_MIX[kind], dtype=np.float64)
    return np.cumsum(mix) * 10_000.0


def tag_with_classes(base_hashes: np.ndarray, kind: PoolKind) -> np.ndarray:
    """Stamp content classes into grain-ID low bits.

    ``base_hashes`` are uniform uint64 values (from :func:`mix64`). The class
    draw is derived from the hash itself, so the same base hash always gets
    the same class — a grain shared between releases keeps one identity.
    """
    base = np.asarray(base_hashes, dtype=np.uint64)
    draw = (mix64(base ^ _CLASS_SALT) % np.uint64(10_000)).astype(np.float64)
    classes = (
        np.searchsorted(_cumulative_thresholds(kind), draw, side="right") + 1
    ).astype(np.uint64)
    np.clip(classes, 1, N_CLASSES, out=classes)
    return (base & _ID_MASK) | classes


def class_of(grain_ids: np.ndarray) -> np.ndarray:
    """Content-class codes of grain IDs (0 for the hole grain)."""
    return (np.asarray(grain_ids, dtype=np.uint64) & CLASS_MASK).astype(np.int64)


# -- byte materialisation -----------------------------------------------------

_VOCAB = [
    w.encode()
    for w in (
        "alloc kernel module device mount cache block inode daemon socket "
        "error retry config option enable disable address route packet "
        "buffer queue thread mutex signal handler driver probe region "
        "page table entry flush sync write read open close seek limit "
        "user group owner permission session service target unit depend"
    ).split()
]


def materialize_grain(grain_id: int) -> bytes:
    """Deterministically generate the 1 KB content of one grain."""
    gid = int(grain_id)
    if gid == 0:
        return bytes(GRAIN_SIZE)
    # untagged low-bit codes (0, 5-7) materialise as PACKED
    generate = _GRAIN_GENERATORS.get(gid & 0x7, _packed_grain)
    return generate(stream("grain-bytes", gid))


#: ``word + separator`` for every (word, separator draw) pair, indexed by
#: ``word * 8 + draw``: draw 0 ends a line, 1 is ``=``, 2-7 a space.
_TEXT_TOKENS = [
    word + (b"\n" if sep == 0 else (b"=" if sep == 1 else b" "))
    for word in _VOCAB
    for sep in range(8)
]


def _text_grain(rng: np.random.Generator) -> bytes:
    indices = rng.integers(0, len(_VOCAB), size=256)
    seps = rng.integers(0, 8, size=256)
    text = b"".join([_TEXT_TOKENS[key] for key in (indices * 8 + seps).tolist()])
    return text[:GRAIN_SIZE].ljust(GRAIN_SIZE, b" ")


def _binary_grain(rng: np.random.Generator) -> bytes:
    # ELF-like: a repeated 32-byte "instruction template" with sparse operand
    # noise, prefixed by a symbol-table-ish run of small integers
    template = rng.integers(0, 256, size=32, dtype=np.uint8)
    body = np.tile(template, GRAIN_SIZE // 32)
    noise_positions = rng.integers(0, GRAIN_SIZE, size=GRAIN_SIZE // 8)
    body[noise_positions] = rng.integers(0, 256, size=noise_positions.size, dtype=np.uint8)
    return body.tobytes()


def _structured_grain(rng: np.random.Generator) -> bytes:
    # inode-table-like: 16-byte records, 12 constant bytes + 4-byte counter
    header = rng.integers(0, 256, size=12, dtype=np.uint8)
    n_records = GRAIN_SIZE // 16
    records = np.zeros((n_records, 16), dtype=np.uint8)
    records[:, :12] = header
    counters = (rng.integers(0, 1 << 16) + np.arange(n_records)).astype(np.uint32)
    records[:, 12:] = counters.view(np.uint8).reshape(n_records, 4)[:, :4]
    return records.tobytes()


def _packed_grain(rng: np.random.Generator) -> bytes:
    return rng.integers(0, 256, size=GRAIN_SIZE, dtype=np.uint8).tobytes()


_GRAIN_GENERATORS = {
    ContentClass.TEXT: _text_grain,
    ContentClass.BINARY: _binary_grain,
    ContentClass.STRUCTURED: _structured_grain,
    ContentClass.PACKED: _packed_grain,
}


def materialize_block(grain_ids: np.ndarray) -> bytes:
    """Concatenate the bytes of a block's grains (holes are zeros)."""
    return b"".join(materialize_grain(int(gid)) for gid in np.asarray(grain_ids).ravel())


def sample_block(class_id: int, block_size: int, rng: np.random.Generator) -> bytes:
    """Estimator calibration hook: a pure-class block of random grains."""
    if block_size % GRAIN_SIZE:
        raise ValueError(f"block size {block_size} not a multiple of {GRAIN_SIZE}")
    n_grains = block_size // GRAIN_SIZE
    bases = rng.integers(1, 1 << 60, size=n_grains, dtype=np.uint64) << np.uint64(3)
    gids = bases | np.uint64(class_id)
    return materialize_block(gids)
