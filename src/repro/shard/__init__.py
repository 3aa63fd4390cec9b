"""Semantics-aware cVolume sharding (the Fig 12 similarity structure).

* :mod:`~repro.shard.similarity` — analytic pairwise shared-grain weights
  between synthesised images,
* :mod:`~repro.shard.plan` — deterministic grouping into
  :class:`ShardPlan`\\ s (``similarity`` or ``tenant`` mode),
* :mod:`~repro.shard.router` — the :class:`ShardRouter` Squirrel consults
  for shard routing (one snapshot chain per shard), quotas, and
  per-tenant accounting.
"""

from .plan import GROUPING_MODES, ShardPlan, build_plan, shard_name
from .router import ShardRouter
from .similarity import SimilarityGraph, hoard_grains, shared_grains, weight

__all__ = [
    "GROUPING_MODES",
    "ShardPlan",
    "ShardRouter",
    "SimilarityGraph",
    "build_plan",
    "hoard_grains",
    "shard_name",
    "shared_grains",
    "weight",
]
