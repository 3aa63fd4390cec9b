"""Unit and property tests for repro.common.hashing."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import hashing


class TestHashBytes:
    def test_deterministic(self):
        assert hashing.hash_bytes(b"abc") == hashing.hash_bytes(b"abc")

    def test_distinct_inputs_distinct_digests(self):
        assert hashing.hash_bytes(b"abc") != hashing.hash_bytes(b"abd")

    def test_digest_is_128_bit_hex(self):
        digest = hashing.hash_bytes(b"")
        assert len(digest) == 32
        int(digest, 16)  # parses as hex


class TestMix64:
    def test_scalar_roundtrip_type(self):
        out = hashing.mix64(5)
        assert isinstance(out, np.uint64)

    def test_array_elementwise_matches_scalar(self):
        values = np.arange(100, dtype=np.uint64)
        mixed = hashing.mix64(values)
        for i in (0, 1, 50, 99):
            assert mixed[i] == hashing.mix64(int(values[i]))

    def test_avalanche(self):
        # flipping one input bit flips roughly half the output bits
        a = int(hashing.mix64(12345))
        b = int(hashing.mix64(12345 ^ 1))
        flipped = bin(a ^ b).count("1")
        assert 16 <= flipped <= 48

    def test_no_trivial_collisions(self):
        values = hashing.mix64(np.arange(100_000, dtype=np.uint64))
        assert len(np.unique(values)) == 100_000

    def test_pair_order_sensitive(self):
        assert hashing.mix64_pair(1, 2) != hashing.mix64_pair(2, 1)


class TestFoldGrainSignatures:
    def test_one_signature_per_block(self):
        ids = np.arange(64, dtype=np.uint64)
        sigs = hashing.fold_grain_signatures(ids, 8)
        assert sigs.shape == (8,)

    def test_partial_tail_block_padded(self):
        ids = np.arange(10, dtype=np.uint64)
        sigs = hashing.fold_grain_signatures(ids, 8)
        assert sigs.shape == (2,)

    def test_equal_blocks_equal_signatures(self):
        ids = np.concatenate([np.arange(8), np.arange(8)]).astype(np.uint64)
        sigs = hashing.fold_grain_signatures(ids, 8)
        assert sigs[0] == sigs[1]

    def test_permuted_block_differs(self):
        a = np.arange(8, dtype=np.uint64)
        b = a[::-1].copy()
        sigs = hashing.fold_grain_signatures(np.concatenate([a, b]), 8)
        assert sigs[0] != sigs[1]

    def test_padding_equals_explicit_hole_grains(self):
        # a short tail padded with zeros equals a full block that really ends
        # in zero-grains: both describe "rest of block is the hole grain"
        short = hashing.fold_grain_signatures(np.array([7, 8], dtype=np.uint64), 4)
        explicit = hashing.fold_grain_signatures(
            np.array([7, 8, 0, 0], dtype=np.uint64), 4
        )
        assert short[0] == explicit[0]

    def test_rejects_nonpositive_block(self):
        with pytest.raises(ValueError):
            hashing.fold_grain_signatures(np.arange(4, dtype=np.uint64), 0)

    @given(
        ids=st.lists(st.integers(min_value=0, max_value=2**63), min_size=1, max_size=200),
        grains=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_deterministic_and_shape(self, ids, grains):
        arr = np.asarray(ids, dtype=np.uint64)
        first = hashing.fold_grain_signatures(arr, grains)
        second = hashing.fold_grain_signatures(arr, grains)
        assert np.array_equal(first, second)
        assert first.shape[0] == -(-len(ids) // grains)


class TestDeriveSeed:
    def test_deterministic_across_runs(self):
        assert hashing.derive_seed("vmi", 3) == hashing.derive_seed("vmi", 3)

    def test_sensitive_to_each_part(self):
        assert hashing.derive_seed("vmi", 3) != hashing.derive_seed("vmi", 4)
        assert hashing.derive_seed("vmi", 3) != hashing.derive_seed("boot", 3)

    def test_order_sensitive(self):
        assert hashing.derive_seed("a", "b") != hashing.derive_seed("b", "a")

    def test_string_hash_is_stable_not_pythons(self):
        # a fixed regression value: guards against accidentally using hash()
        assert hashing.derive_seed("stable") == hashing.derive_seed("stable")
        assert 0 <= hashing.derive_seed("stable") < 2**64


def _reference_seed(*parts):
    """:func:`derive_seed` as the vectorised :func:`mix64_pair` fold."""
    state = np.uint64(0x5851F42D4C957F2D)
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
            value = np.uint64(int.from_bytes(digest, "little"))
        else:
            value = np.uint64(int(part) & 0xFFFFFFFFFFFFFFFF)
        state = hashing.mix64_pair(state, value)
    return int(state)


_numpy_ints = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 255).map(np.uint8),
)
_seed_parts = st.one_of(
    st.integers(-(2**63), 2**64 - 1), st.text(), st.booleans(), _numpy_ints,
)


class TestDeriveSeedMatchesVectorisedMix:
    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(_seed_parts, max_size=6))
    def test_bit_identical_to_mix64_pair_fold(self, parts):
        seed = hashing.derive_seed(*parts)
        assert type(seed) is int
        assert seed == _reference_seed(*parts)

    def test_fixed_values(self):
        # pinned against the numpy implementation: every seeded stream in
        # the repo (image contents, storms, sweeps) derives from these
        assert hashing.derive_seed() == 0x5851F42D4C957F2D
        assert hashing.derive_seed("stable") == _reference_seed("stable")
        assert hashing.derive_seed(-1) == hashing.derive_seed(2**64 - 1)
        assert hashing.derive_seed(True, np.int64(-3)) == (
            hashing.derive_seed(1, 2**64 - 3)
        )
