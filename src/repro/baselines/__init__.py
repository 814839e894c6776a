"""Comparator estimators: exact ground truth, uniform-sampling joins,
bifocal sampling, and domain-partitioned AGMS (every alternative the
paper discusses in Sections 1-3)."""

from .exact import (
    exact_join_size,
    exact_self_join_size,
    exact_sub_join_sizes,
)
from .bifocal import BifocalEstimator
from .partitioned import (
    PartitionPlan,
    PartitionedAGMSSchema,
    PartitionedAGMSSketch,
    plan_partitions,
)

__all__ = [
    "BifocalEstimator",
    "PartitionPlan",
    "PartitionedAGMSSchema",
    "PartitionedAGMSSketch",
    "exact_join_size",
    "exact_self_join_size",
    "exact_sub_join_sizes",
    "plan_partitions",
]
