"""Squirrel core: the scatter-hoarding VMI cache system."""

from .baselines import BootStormResult, full_copy_transfer_bytes, run_boot_storm
from .cluster import CCVOLUME, SCVOLUME, ComputeNode, IaaSCluster, SnapshotChain, StorageTier
from .lru_policy import (
    LruCacheNode,
    WorkloadReport,
    ZipfBootWorkload,
    run_policy_comparison,
)
from .scheduler import (
    SCHEDULING_POLICIES,
    PolicyOutcome,
    SchedulerConfig,
    VmEvent,
    generate_arrivals,
    simulate_policy,
)
from .squirrel import BOOT_READ_AMPLIFICATION, BootOutcome, RegistrationRecord, Squirrel

__all__ = [
    "BOOT_READ_AMPLIFICATION",
    "CCVOLUME",
    "SCVOLUME",
    "BootOutcome",
    "BootStormResult",
    "ComputeNode",
    "IaaSCluster",
    "LruCacheNode",
    "PolicyOutcome",
    "RegistrationRecord",
    "SCHEDULING_POLICIES",
    "SchedulerConfig",
    "SnapshotChain",
    "Squirrel",
    "StorageTier",
    "VmEvent",
    "WorkloadReport",
    "ZipfBootWorkload",
    "generate_arrivals",
    "simulate_policy",
    "full_copy_transfer_bytes",
    "run_boot_storm",
    "run_policy_comparison",
]
