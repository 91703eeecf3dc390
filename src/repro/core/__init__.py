"""ASPEN's federated query optimizer and executor — the paper's core."""

from repro.core.cost import (
    CPU_WEIGHT,
    RADIO_WEIGHT,
    NormalizedCost,
    ZERO_COST,
    naive_cost,
    normalize_sensor_cost,
    normalize_stream_cost,
)
from repro.core.executor import FederatedExecutor
from repro.core.mappings import (
    MappingRegistry,
    MediatedExecution,
    MediatedRelation,
)
from repro.core.federated import (
    Alternative,
    FederatedOptimizer,
    FederatedPlan,
    PushedFragment,
)

__all__ = [
    "FederatedOptimizer",
    "FederatedPlan",
    "Alternative",
    "PushedFragment",
    "FederatedExecutor",
    "MappingRegistry",
    "MediatedRelation",
    "MediatedExecution",
    "NormalizedCost",
    "ZERO_COST",
    "normalize_sensor_cost",
    "normalize_stream_cost",
    "naive_cost",
    "RADIO_WEIGHT",
    "CPU_WEIGHT",
]
