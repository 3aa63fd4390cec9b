"""Unit tests for grain content generation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs import get_codec
from repro.vmi.content import (
    GRAIN_SIZE,
    N_CLASSES,
    ContentClass,
    PoolKind,
    class_of,
    materialize_block,
    materialize_grain,
    sample_block,
    tag_with_classes,
)


class TestClassTagging:
    def test_class_encoded_in_low_bits(self):
        base = np.array([0xDEADBEEF00 << 3], dtype=np.uint64)
        tagged = tag_with_classes(base, PoolKind.BOOT)
        assert 1 <= int(tagged[0] & np.uint64(7)) <= N_CLASSES

    def test_same_base_same_class_any_kind_position(self):
        """A grain shared across releases keeps one identity per kind."""
        base = np.array([123456789], dtype=np.uint64)
        a = tag_with_classes(base, PoolKind.BOOT)
        b = tag_with_classes(base, PoolKind.BOOT)
        assert a[0] == b[0]

    def test_distribution_roughly_matches_mix(self):
        rng = np.random.default_rng(0)
        base = rng.integers(1, 1 << 62, size=50_000, dtype=np.uint64)
        tagged = tag_with_classes(base, PoolKind.USER)
        classes = class_of(tagged)
        packed_fraction = (classes == ContentClass.PACKED).mean()
        assert 0.45 < packed_fraction < 0.55  # USER mix has 50% packed

    def test_kinds_differ_in_mix(self):
        rng = np.random.default_rng(0)
        base = rng.integers(1, 1 << 62, size=50_000, dtype=np.uint64)
        boot_packed = (class_of(tag_with_classes(base, PoolKind.BOOT)) == 4).mean()
        user_packed = (class_of(tag_with_classes(base, PoolKind.USER)) == 4).mean()
        assert user_packed > boot_packed + 0.2

    def test_class_of_hole_is_zero(self):
        assert class_of(np.array([0], dtype=np.uint64))[0] == 0


class TestMaterialisation:
    def test_grain_is_1kb(self):
        for gid in (0, (123 << 3) | 1, (456 << 3) | 2, (789 << 3) | 3, (999 << 3) | 4):
            assert len(materialize_grain(gid)) == GRAIN_SIZE

    def test_deterministic(self):
        gid = (424242 << 3) | 2
        assert materialize_grain(gid) == materialize_grain(gid)

    def test_distinct_ids_distinct_bytes(self):
        a = materialize_grain((1 << 3) | 2)
        b = materialize_grain((2 << 3) | 2)
        assert a != b

    def test_hole_grain_is_zeros(self):
        assert materialize_grain(0) == bytes(GRAIN_SIZE)

    def test_block_concatenates(self):
        gids = np.array([(1 << 3) | 1, (2 << 3) | 2], dtype=np.uint64)
        blob = materialize_block(gids)
        assert len(blob) == 2 * GRAIN_SIZE
        assert blob[:GRAIN_SIZE] == materialize_grain(int(gids[0]))

    @pytest.mark.parametrize(
        ("class_id", "low", "high"),
        [
            (int(ContentClass.TEXT), 2.0, 8.0),
            (int(ContentClass.BINARY), 1.5, 5.0),
            (int(ContentClass.STRUCTURED), 4.0, 40.0),
            (int(ContentClass.PACKED), 0.9, 1.15),
        ],
    )
    def test_class_compressibility_bands(self, class_id, low, high):
        """Each class must land in its designed gzip-6 compressibility band."""
        rng = np.random.default_rng(7)
        codec = get_codec("gzip6")
        block = sample_block(class_id, 65536, rng)
        ratio = len(block) / codec.compressed_size(block)
        assert low <= ratio <= high, f"class {class_id}: ratio {ratio:.2f}"

    def test_class_ordering_text_vs_packed(self):
        rng = np.random.default_rng(3)
        codec = get_codec("gzip6")
        text = codec.compressed_size(sample_block(1, 32768, rng))
        packed = codec.compressed_size(sample_block(4, 32768, rng))
        assert text < packed

    @given(seed=st.integers(min_value=1, max_value=2**40))
    @settings(max_examples=20, deadline=None)
    def test_property_grain_size_and_determinism(self, seed):
        gid = (seed << 3) | (seed % 4 + 1)
        data = materialize_grain(gid)
        assert len(data) == GRAIN_SIZE
        assert data == materialize_grain(gid)


class TestSampleBlock:
    def test_size_validated(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_block(1, 1000, rng)

    def test_block_is_pure_class(self):
        rng = np.random.default_rng(0)
        block = sample_block(3, 4096, rng)
        assert len(block) == 4096


def _pinned_grain_ids() -> list[int]:
    """The hole grain, then 16 grain ids for every low-bit value 0..7 (the
    four classes plus the untagged codes that materialise as PACKED)."""
    ids = [0]
    for low in range(8):
        for k in range(1, 17):
            base = (k * 0x9E3779B97F4A7C15) & ((1 << 61) - 1)
            ids.append((base << 3) | low)
    return ids


class TestGrainBytesPinned:
    """Grain bytes feed every compressed-size estimate, so any rewrite of
    the generators must reproduce them exactly. Digests are of the
    original per-word generator."""

    GRAINS_SHA256 = "8b093ee4a99e106052129ac0143e80fa8e958189f52758a967d7c80c731f69a9"
    SAMPLE_BLOCK_SHA256 = {
        ContentClass.TEXT: "c7a25eb1437be3903cf114264e790bb7d52c1b0522e065fd25e312559afb8d77",
        ContentClass.BINARY: "8d0821704d63db43d4bf3083c2f1001190dfb0bb0e16d6b0ae53bb6d92129e40",
        ContentClass.STRUCTURED: "8de7ec2001033818df93e6eb1ccabf3685fbacec962f86430324ee7b5dc8d23d",
        ContentClass.PACKED: "735d3645fd60cf9b82d1fb9b777e2625ea43ed03cbae57ff8f0c7341c41e80de",
    }

    def test_materialize_grain_bytes(self):
        digest = hashlib.sha256()
        for gid in _pinned_grain_ids():
            digest.update(materialize_grain(gid))
        assert digest.hexdigest() == self.GRAINS_SHA256

    @pytest.mark.parametrize("cls", list(ContentClass), ids=lambda c: c.name)
    def test_sample_block_bytes(self, cls):
        block = sample_block(int(cls), 65536, np.random.default_rng(2014))
        assert hashlib.sha256(block).hexdigest() == self.SAMPLE_BLOCK_SHA256[cls]
