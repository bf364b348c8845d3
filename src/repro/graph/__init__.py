"""Computational-graph substrate: tensors, operators, DAG, scopes, trimming."""

from .tensor import DType, TensorSpec, total_bytes
from .sharding import PARTIAL, REPLICATE, ShardKind, ShardSpec, split_spec
from .node import AUXILIARY_OP_TYPES, COMM_OP_TYPES, Operator, OpType
from .graph import CycleError, Graph, GraphError
from .scope import (
    ScopeNode,
    build_scope_tree,
    group_sibling_scopes,
    longest_common_prefix,
    max_depth,
    normalize_scope,
    scopes_at_depth,
)
from .trim import TrimRecord, attach_auxiliary, restore_auxiliary, trim_auxiliary

__all__ = [
    "DType",
    "TensorSpec",
    "total_bytes",
    "ShardKind",
    "ShardSpec",
    "REPLICATE",
    "PARTIAL",
    "split_spec",
    "Operator",
    "OpType",
    "AUXILIARY_OP_TYPES",
    "COMM_OP_TYPES",
    "Graph",
    "GraphError",
    "CycleError",
    "ScopeNode",
    "build_scope_tree",
    "scopes_at_depth",
    "group_sibling_scopes",
    "longest_common_prefix",
    "normalize_scope",
    "max_depth",
    "TrimRecord",
    "trim_auxiliary",
    "restore_auxiliary",
    "attach_auxiliary",
]
