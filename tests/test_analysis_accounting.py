"""Equivalence + unit tests for the vectorised pool accountant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import PoolAccountant, PoolSnapshot
from repro.common.units import ZFS_BLOCK_SIZES, align_up
from repro.vmi import (
    AzureCommunityDataset,
    DatasetConfig,
    block_view,
    cache_stream,
    make_estimator,
)
from repro.vmi.content import N_CLASSES, class_of
from repro.zfs import ZPool
from repro.zfs.spa import SECTOR_SIZE


@pytest.fixture(scope="module")
def estimator():
    return make_estimator("gzip6", (65536,), samples_per_point=2)


@pytest.fixture(scope="module")
def views(estimator):
    dataset = AzureCommunityDataset(DatasetConfig(scale=1 / 2048))
    return [block_view(cache_stream(spec), 65536) for spec in dataset.images[:40]]


class TestEquivalenceWithObjectPipeline:
    def test_matches_real_pool_exactly(self, estimator, views):
        """The accountant must agree with the ZIO/DDT object pipeline on
        DDT entries, allocated bytes, disk, and memory."""
        accountant = PoolAccountant(estimator)
        pool = ZPool(capacity=1 << 40, store_payloads=False)
        vol = pool.create_dataset("cc", record_size=65536, dedup=True)
        for index, view in enumerate(views):
            psizes = view.psizes(estimator)
            vol.write_file_virtual(
                f"f{index}",
                zip(
                    view.signatures.tolist(),
                    view.lsizes.tolist(),
                    psizes.tolist(),
                    view.is_hole.tolist(),
                ),
            )
            snap = accountant.add_view(view)
            assert snap.ddt_entries == pool.ddt.entry_count
            assert snap.data_bytes == pool.data_bytes
            assert snap.ddt_disk_bytes == pool.ddt.on_disk_bytes
            assert snap.memory_used_bytes == pool.ddt.in_core_bytes


class TestAccountantBehaviour:
    def test_duplicate_view_adds_no_data(self, estimator, views):
        accountant = PoolAccountant(estimator)
        first = accountant.add_view(views[0])
        second = accountant.add_view(views[0])
        assert second.data_bytes == first.data_bytes
        assert second.ddt_entries == first.ddt_entries
        assert second.files == 2

    def test_disjoint_views_add_linearly(self, estimator):
        accountant = PoolAccountant(estimator)
        a = block_view(np.asarray([(i << 3) | 2 for i in range(1, 65)],
                                  dtype=np.uint64), 65536)
        b = block_view(np.asarray([(i << 3) | 2 for i in range(100, 164)],
                                  dtype=np.uint64), 65536)
        snap_a = accountant.add_view(a)
        snap_ab = accountant.add_view(b)
        assert snap_ab.ddt_entries == 2 * snap_a.ddt_entries

    def test_holes_cost_nothing(self, estimator):
        accountant = PoolAccountant(estimator)
        holes = block_view(np.zeros(256, dtype=np.uint64), 65536)
        snap = accountant.add_view(holes)
        assert snap.data_bytes == 0
        assert snap.ddt_entries == 0

    def test_memory_zero_when_empty(self, estimator):
        accountant = PoolAccountant(estimator)
        assert accountant.snapshot().memory_used_bytes == 0


class ReferenceAccountant:
    """The original accountant: one python set, one ``align_up`` per block."""

    def __init__(self, estimator):
        self.estimator = estimator
        self.seen: set[int] = set()
        self.data_bytes = 0
        self.blocks = 0
        self.files = 0

    def add_view(self, view):
        mask = ~view.is_hole
        signatures = view.signatures[mask]
        psizes = view.psizes(self.estimator)[mask]
        unique_sigs, first_index = np.unique(signatures, return_index=True)
        for sig, psize in zip(unique_sigs.tolist(), psizes[first_index].tolist()):
            if sig not in self.seen:
                self.seen.add(sig)
                self.data_bytes += align_up(int(psize), SECTOR_SIZE)
        self.blocks += int(signatures.size)
        self.files += 1
        return PoolSnapshot(
            files=self.files,
            ddt_entries=len(self.seen),
            data_bytes=self.data_bytes,
            referenced_blocks=self.blocks,
        )


EQUIV_BLOCK_SIZE = 4096  # 4 grains per block: small, collision-prone blocks
_GRAINS = EQUIV_BLOCK_SIZE // 1024


def _pattern(index: int) -> list[int]:
    """Block pattern ``index``: 0 is all holes, others mix classes and holes."""
    if index == 0:
        return [0] * _GRAINS
    return [
        0 if (index + j) % 5 == 0 else ((index * 7 + j) << 3) | ((index + j) % N_CLASSES + 1)
        for j in range(_GRAINS)
    ]


#: one view: block patterns, a short tail of 0..3 grains, or a repeat of an
#: earlier view
_view_specs = st.one_of(
    st.tuples(
        st.lists(st.integers(0, 24), max_size=40),
        st.lists(st.integers(0, 60), max_size=_GRAINS - 1),
    ),
    st.integers(0, 1000).map(lambda earlier: ("repeat", earlier)),
)


def _assert_run_invariant(accountant: PoolAccountant) -> None:
    runs = accountant._runs  # noqa: SLF001 - the invariant under test
    for run in runs:
        assert run.dtype == np.uint64
        assert (np.diff(run) > 0).all(), "run not strictly increasing"
    for older, newer in zip(runs, runs[1:]):
        assert older.size > 2 * newer.size, [r.size for r in runs]
    merged = np.concatenate(runs) if runs else np.empty(0, dtype=np.uint64)
    assert np.unique(merged).size == merged.size, "runs overlap"


class TestAccountantMatchesReference:
    @pytest.fixture(scope="class")
    def small_estimator(self):
        return make_estimator("gzip6", (EQUIV_BLOCK_SIZE,), samples_per_point=2)

    @given(specs=st.lists(_view_specs, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_every_snapshot_equal(self, small_estimator, specs):
        accountant = PoolAccountant(small_estimator)
        reference = ReferenceAccountant(small_estimator)
        views = []
        for spec in specs:
            if spec[0] == "repeat":
                if not views:
                    continue
                view = views[spec[1] % len(views)]
            else:
                patterns, tail = spec
                grains = [g for index in patterns for g in _pattern(index)]
                grains += [(t << 3) | (t % N_CLASSES + 1) if t else 0 for t in tail]
                view = block_view(np.asarray(grains, dtype=np.uint64), EQUIV_BLOCK_SIZE)
                views.append(view)
            assert accountant.add_view(view) == reference.add_view(view)
            _assert_run_invariant(accountant)
        assert accountant.snapshot().ddt_entries == len(reference.seen)

    def test_many_files_keep_logarithmic_runs(self, small_estimator):
        accountant = PoolAccountant(small_estimator)
        reference = ReferenceAccountant(small_estimator)
        for file_index in range(200):
            grains = np.arange(file_index * 8, file_index * 8 + 64, dtype=np.uint64)
            view = block_view((grains << np.uint64(3)) | np.uint64(2), EQUIV_BLOCK_SIZE)
            assert accountant.add_view(view) == reference.add_view(view)
            _assert_run_invariant(accountant)
        assert len(accountant._runs) <= 12  # noqa: SLF001


def _reference_fractions(stream: np.ndarray, block_size: int):
    """The original per-class ``mean(axis=1)`` passes over padded blocks."""
    g = block_size // 1024
    n_blocks = -(-stream.size // g)
    padded = np.zeros(n_blocks * g, dtype=np.uint64)
    padded[: stream.size] = stream
    classes = class_of(padded.reshape(n_blocks, g))
    fractions = np.empty((n_blocks, N_CLASSES), dtype=np.float64)
    for class_id in range(1, N_CLASSES + 1):
        fractions[:, class_id - 1] = (classes == class_id).mean(axis=1)
    return fractions, (classes == 0).all(axis=1)


class TestBlockViewFractions:
    @staticmethod
    def _streams(block_size: int) -> dict[str, np.ndarray]:
        g = block_size // 1024
        rng = np.random.default_rng(block_size)
        tagged = (rng.integers(1, 1 << 58, size=40 * g, dtype=np.uint64) << np.uint64(3)) | (
            rng.integers(1, N_CLASSES + 1, size=40 * g).astype(np.uint64)
        )
        tagged[rng.random(tagged.size) < 0.3] = 0
        tagged[: 3 * g] = 0  # whole hole blocks
        untagged = rng.integers(0, 1 << 62, size=7 * g + 3, dtype=np.uint64)
        return {
            "tagged": tagged,
            "short-tail": tagged[: 9 * g + max(1, g // 2)],
            "all-hole": np.zeros(5 * g + 1, dtype=np.uint64),
            "untagged-codes": untagged,
            "empty": np.zeros(0, dtype=np.uint64),
        }

    @pytest.mark.parametrize("block_size", ZFS_BLOCK_SIZES)
    def test_bit_identical_to_per_class_means(self, block_size):
        for name, stream in self._streams(block_size).items():
            view = block_view(stream, block_size)
            fractions, is_hole = _reference_fractions(stream, block_size)
            assert view.class_fractions.tobytes() == fractions.tobytes(), name
            assert view.class_fractions.shape == fractions.shape, name
            assert view.is_hole.tobytes() == is_hole.tobytes(), name
