"""Operator nodes of the op-level computational graph.

The op graph mirrors what TAP consumes from TensorFlow 1.x: a flat namespace
of operators whose hierarchical names (``model/encoder/layer_0/mha/q/matmul``)
encode the layer structure, where each operator optionally carries a weight
tensor, and where auxiliary operators (initialisers, savers, summaries) are
interleaved with compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .tensor import TensorSpec

__all__ = ["OpType", "Operator", "AUXILIARY_OP_TYPES", "COMM_OP_TYPES"]


class OpType:
    """Canonical operator type names.

    Compute ops carry FLOP/shape semantics used by the cost model and the
    numeric runtime; auxiliary ops are trimmed by :mod:`repro.graph.trim`;
    communication ops are inserted by the graph rewriter, never authored by
    model builders.
    """

    # compute
    MATMUL = "matmul"
    BATCH_MATMUL = "batch_matmul"
    CONV2D = "conv2d"
    EMBEDDING = "embedding_lookup"
    LAYERNORM = "layernorm"
    SOFTMAX = "softmax"
    RELU = "relu"
    GELU = "gelu"
    ADD = "add"
    MUL = "mul"
    DROPOUT = "dropout"
    POOL = "pool"
    RESHAPE = "reshape"
    TRANSPOSE = "transpose"
    CONCAT = "concat"
    SPLIT_OP = "split"
    REDUCE_MEAN = "reduce_mean"
    TOP_K = "top_k"          # MoE router
    SCATTER = "scatter"      # MoE dispatch
    GATHER_OP = "gather"     # MoE combine
    CROSS_ENTROPY = "cross_entropy"
    INPUT = "input"

    # auxiliary (trimmed before planning)
    VARIABLE_INIT = "variable_init"
    ASSIGN = "assign"
    SAVE = "save"
    RESTORE = "restore"
    SUMMARY = "summary"
    GLOBAL_STEP = "global_step"
    IDENTITY_AUX = "identity_aux"

    # communication (inserted by the rewriter)
    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    ALL_TO_ALL = "all_to_all"
    BROADCAST = "broadcast"
    SLICE_COMM = "slice_comm"  # local slice, no wire traffic


AUXILIARY_OP_TYPES = frozenset(
    {
        OpType.VARIABLE_INIT,
        OpType.ASSIGN,
        OpType.SAVE,
        OpType.RESTORE,
        OpType.SUMMARY,
        OpType.GLOBAL_STEP,
        OpType.IDENTITY_AUX,
    }
)

COMM_OP_TYPES = frozenset(
    {
        OpType.ALL_REDUCE,
        OpType.ALL_GATHER,
        OpType.REDUCE_SCATTER,
        OpType.ALL_TO_ALL,
        OpType.BROADCAST,
        OpType.SLICE_COMM,
    }
)


@dataclass
class Operator:
    """One node of the op graph.

    Attributes
    ----------
    name:
        Fully scoped, unique within the graph.  Scope separators are ``/``,
        exactly like TF name scopes; :mod:`repro.graph.scope` exploits this.
    op_type:
        One of :class:`OpType`.
    inputs:
        Names of producer operators.  Every operator produces exactly one
        output tensor referred to by the operator's own name (TF semantics,
        as the paper notes in §4.3).
    output:
        Spec of the produced tensor.
    weight:
        Spec of the trainable weight attached to this operator, if any.
    trainable:
        Whether ``weight`` receives gradients (False for e.g. frozen
        positional tables); drives the backward-phase communication count.
    flops:
        Forward-pass floating point operations (per symbolic batch element
        when the output has a symbolic batch dim).
    """

    name: str
    op_type: str
    inputs: Tuple[str, ...] = ()
    output: Optional[TensorSpec] = None
    weight: Optional[TensorSpec] = None
    trainable: bool = True
    flops: int = 0
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operator name must be non-empty")
        if not isinstance(self.inputs, tuple):
            self.inputs = tuple(self.inputs)
        if self.flops < 0:
            raise ValueError("flops must be non-negative")

    def rewired(
        self, inputs: Tuple[str, ...], weight: Optional[TensorSpec]
    ) -> "Operator":
        """A copy of this op reading *inputs* (a tuple) and holding *weight*,
        with its own ``attrs`` dict.  The name and flops are this op's,
        which ``__post_init__`` already checked, so the copy skips it.
        Fields are set one by one, in declaration order, as ``__init__``
        sets them: that keeps the instance's compact attribute layout,
        which reads faster than a replaced ``__dict__``."""
        op = object.__new__(Operator)
        op.name = self.name
        op.op_type = self.op_type
        op.inputs = inputs
        op.output = self.output
        op.weight = weight
        op.trainable = self.trainable
        op.flops = self.flops
        op.attrs = dict(self.attrs)
        return op

    # ------------------------------------------------------------------
    @property
    def is_auxiliary(self) -> bool:
        return self.op_type in AUXILIARY_OP_TYPES

    @property
    def is_communication(self) -> bool:
        return self.op_type in COMM_OP_TYPES

    @property
    def is_compute(self) -> bool:
        return not self.is_auxiliary and not self.is_communication

    @property
    def has_weight(self) -> bool:
        return self.weight is not None

    @property
    def scope(self) -> str:
        """Enclosing name scope (everything before the final ``/``)."""
        idx = self.name.rfind("/")
        return self.name[:idx] if idx >= 0 else ""

    @property
    def basename(self) -> str:
        return self.name.rsplit("/", 1)[-1]

    def scope_parts(self) -> Tuple[str, ...]:
        return tuple(self.name.split("/")[:-1])

    @property
    def depth(self) -> int:
        """Scope nesting depth (number of ``/`` in the name)."""
        return self.name.count("/")

    def signature(self) -> Tuple:
        """Structural identity ignoring the name — used when comparing
        candidate shared subgraphs for similar composition."""
        return (
            self.op_type,
            self.output.shape if self.output else None,
            self.weight.shape if self.weight else None,
            self.trainable,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        w = f" w={self.weight}" if self.weight is not None else ""
        return f"Operator({self.name!r}, {self.op_type}{w})"
