"""The PC-side distributed stream engine.

Windowed Stream SQL operators, a push-based executor, recursive views
with incremental maintenance, a latency-oriented optimizer and a
simulated distributed runtime.
"""

from repro.stream.batch import evaluate, fixpoint
from repro.stream.compiler import CompiledPlan, PlanCompiler, ScanPort
from repro.stream.distributed import (
    DistributedQuery,
    DistributedStreamEngine,
    Exchange,
    Placement,
    StreamNode,
)
from repro.stream.engine import QueryHandle, StreamEngine
from repro.stream.partition import PartitionAnalysis, partition_safe
from repro.stream.sharded import ShardedQueryHandle, ShardedStreamEngine
from repro.stream.operators import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    FusedOp,
    LimitOp,
    Operator,
    OrderByOp,
    OutputOp,
    ProjectOp,
    SymmetricHashJoin,
)
from repro.stream.optimizer import (
    StreamCost,
    StreamCostModel,
    StreamEngineOptimizer,
)
from repro.stream.recursive import RecursiveView, recompute

__all__ = [
    "StreamEngine",
    "QueryHandle",
    "ShardedStreamEngine",
    "ShardedQueryHandle",
    "PartitionAnalysis",
    "partition_safe",
    "PlanCompiler",
    "CompiledPlan",
    "ScanPort",
    "Operator",
    "FilterOp",
    "FusedOp",
    "ProjectOp",
    "SymmetricHashJoin",
    "AggregateOp",
    "DistinctOp",
    "OrderByOp",
    "LimitOp",
    "OutputOp",
    "RecursiveView",
    "recompute",
    "evaluate",
    "fixpoint",
    "StreamCost",
    "StreamCostModel",
    "StreamEngineOptimizer",
    "DistributedStreamEngine",
    "DistributedQuery",
    "StreamNode",
    "Exchange",
    "Placement",
]
