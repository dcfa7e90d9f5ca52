"""Execution layer: expression evaluation and Volcano-style operators."""

from repro.exec.expressions import ExpressionCompiler, compile_scalar, evaluate
from repro.exec.context import ExecutionContext, WorkCounters
from repro.exec.operators import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    HashJoinOp,
    IndexLookupJoinOp,
    IndexRangeScanOp,
    IndexSeekOp,
    MergeJoinOp,
    NestedLoopJoinOp,
    PhysicalOperator,
    ProjectOp,
    RemoteQueryOp,
    SeqScanOp,
    SortOp,
    TopOp,
    UnionAllOp,
    ValuesOp,
)

__all__ = [
    "ExpressionCompiler",
    "compile_scalar",
    "evaluate",
    "ExecutionContext",
    "WorkCounters",
    "PhysicalOperator",
    "SeqScanOp",
    "IndexSeekOp",
    "IndexRangeScanOp",
    "FilterOp",
    "ProjectOp",
    "NestedLoopJoinOp",
    "HashJoinOp",
    "IndexLookupJoinOp",
    "MergeJoinOp",
    "AggregateOp",
    "SortOp",
    "TopOp",
    "DistinctOp",
    "UnionAllOp",
    "ValuesOp",
    "RemoteQueryOp",
]
