"""Shared experiment context: dataset, streams, estimators, metric memo.

Every figure/table experiment pulls from one :class:`ExperimentContext`, so
a full benchmark run synthesises the dataset once, folds block views once
per (subject, block size), and calibrates each codec's estimator once.

Environment knobs (read by :func:`default_context`):

* ``REPRO_SCALE``  — dataset scale denominator (default 32 → scale 1/32),
* ``REPRO_QUICK``  — when set to N>1, keep every N-th image (quick smoke
  runs; EXPERIMENTS.md numbers are produced without it).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Literal, Sequence

import numpy as np

from ..analysis import MetricsResult, dataset_metrics
from ..codecs import SizeEstimator
from ..common.units import ANALYSIS_BLOCK_SIZES
from ..vmi import (
    AzureCommunityDataset,
    CatalogConfig,
    DatasetConfig,
    LazyImageCatalog,
    make_estimator,
)
from ..vmi.catalog import DEFAULT_BUDGET_BYTES
from ..vmi.streams import BlockView

if TYPE_CHECKING:
    from .zfs_consumption import ConsumptionTrajectory

__all__ = ["ExperimentConfig", "ExperimentContext", "default_context", "Subject"]

Subject = Literal["caches", "images"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment-wide knobs."""

    scale: float = 1.0 / 32.0
    quick: int = 1  #: keep every quick-th image (1 = all 607)
    calibration_samples: int = 4
    #: byte budget of each scale's catalog memo (streams + block views)
    catalog_budget_bytes: int = DEFAULT_BUDGET_BYTES


class ExperimentContext:
    """Lazily built, memoising experiment state.

    Datasets live behind :meth:`catalog`: per scale, one
    :class:`~repro.vmi.LazyImageCatalog` whose grain streams materialise
    on first access under the config's byte budget. A catalog is a few
    hundred spec records — holding one per scale is cheap; the heavy
    stream memos inside each are budget-bounded.
    """

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()
        self._catalogs: dict[float, LazyImageCatalog] = {}
        self._metrics_memo: dict[tuple[Subject, str, int], MetricsResult] = {}
        #: store-everything trajectories, filled by ``zfs_consumption``
        self._consumption_memo: dict[tuple[Subject, int], ConsumptionTrajectory] = {}

    # -- dataset and streams -----------------------------------------------------

    def catalog(self, scale: float | None = None) -> LazyImageCatalog:
        """The lazy catalog at ``scale`` (default: the analysis scale),
        memoised for the context's lifetime. Timed scenarios own their
        scale (usually 1/512, not the analysis scale), so without this
        every storm/recovery run in a ``python -m repro all`` sweep
        re-built the spec table."""
        if scale is None:
            scale = self.config.scale
        if scale not in self._catalogs:
            self._catalogs[scale] = LazyImageCatalog(
                CatalogConfig(
                    dataset=DatasetConfig(scale=scale),
                    budget_bytes=self.config.catalog_budget_bytes,
                )
            )
        return self._catalogs[scale]

    @property
    def dataset(self) -> AzureCommunityDataset:
        return self.catalog().dataset

    @property
    def specs(self):
        return self.catalog().specs[:: self.config.quick]

    def streams(self, subject: Subject) -> list[np.ndarray]:
        """All grain streams of a subject, via the catalog memo."""
        catalog = self.catalog()
        return [
            catalog.grain_stream(spec.image_id, subject)
            for spec in self.specs
        ]

    def views(self, subject: Subject, block_size: int) -> list[BlockView]:
        """Block views of a subject at one block size, via the catalog."""
        catalog = self.catalog()
        return [
            catalog.block_view(spec.image_id, block_size, subject)
            for spec in self.specs
        ]

    # -- estimators ----------------------------------------------------------------

    def estimator(
        self, codec: str = "gzip6", block_sizes: Sequence[int] = ANALYSIS_BLOCK_SIZES
    ) -> SizeEstimator:
        return make_estimator(
            codec,
            block_sizes,
            samples_per_point=self.config.calibration_samples,
        )

    # -- memoised metrics ------------------------------------------------------------

    def metrics(
        self, subject: Subject, block_size: int, codec: str = "gzip6"
    ) -> MetricsResult:
        """dedup/compression/CCR/similarity at one sweep point (memoised)."""
        key = (subject, codec, block_size)
        if key not in self._metrics_memo:
            estimator = self.estimator(codec, (block_size,))
            views = self.views(subject, block_size)
            self._metrics_memo[key] = dataset_metrics(views, estimator)
        return self._metrics_memo[key]

    def drop_streams(self, subject: Subject) -> None:
        """Release a subject's memoised streams (memory relief)."""
        self.catalog().drop(subject)


@lru_cache(maxsize=None)
def _shared_context(denominator: float, quick: int) -> ExperimentContext:
    """Process-wide context memo, one entry per (scale, quick) pair."""
    return ExperimentContext(
        ExperimentConfig(scale=1.0 / denominator, quick=max(1, quick))
    )


def default_context() -> ExperimentContext:
    """Process-wide context honouring REPRO_SCALE / REPRO_QUICK.

    The environment is re-read on every call and the memo is keyed on the
    values, so a long-lived process (or a sweep worker) that edits
    ``REPRO_SCALE``/``REPRO_QUICK`` gets a matching context instead of the
    one frozen at first call; repeated calls under one environment still
    share a single dataset.
    """
    denominator = float(os.environ.get("REPRO_SCALE", "32"))
    quick = int(os.environ.get("REPRO_QUICK", "1"))
    return _shared_context(denominator, quick)
