"""GraphBuilder — framework-style tracing helper for the model zoo.

Model builders use this the way TF 1.x code uses ``tf.variable_scope``: a
stack of name scopes, automatic unique op names, and per-weight auxiliary
operators (initialisers and savers) so that the emitted graphs exercise the
same trimming path real TensorFlow graphs do.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from ..graph import Graph, Operator, OpType, TensorSpec

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulates operators into a :class:`Graph` under nested name scopes."""

    def __init__(self, name: str, emit_auxiliary: bool = True) -> None:
        self.graph = Graph(name=name)
        self._scopes: List[str] = []
        #: ``"/".join(self._scopes)``, kept in step with the stack
        self._scope_path = ""
        self._emit_auxiliary = emit_auxiliary
        self._counters: dict = {}

    # ------------------------------------------------------------------
    # scoping
    # ------------------------------------------------------------------
    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Enter a name scope; nests like ``tf.name_scope``."""
        outer = self._scope_path
        self._scope_path = f"{outer}/{name}" if self._scopes else name
        self._scopes.append(name)
        try:
            yield
        finally:
            self._scopes.pop()
            self._scope_path = outer

    @property
    def current_scope(self) -> str:
        return self._scope_path

    def _qualify(self, name: str) -> str:
        base = f"{self._scope_path}/{name}" if self._scopes else name
        if base not in self.graph:
            return base
        # mirror TF's `_1`, `_2` uniquification for repeated layer calls
        n = self._counters.get(base, 0) + 1
        while f"{base}_{n}" in self.graph:
            n += 1
        self._counters[base] = n
        return f"{base}_{n}"

    # ------------------------------------------------------------------
    # op emission
    # ------------------------------------------------------------------
    def emit(
        self,
        name: str,
        op_type: str,
        inputs: Sequence[str] = (),
        output: Optional[TensorSpec] = None,
        weight: Optional[TensorSpec] = None,
        trainable: bool = True,
        flops: int = 0,
        **attrs,
    ) -> str:
        """Add one operator; returns its fully scoped name."""
        full = self._qualify(name)
        self.graph.add(
            Operator(
                name=full,
                op_type=op_type,
                inputs=tuple(inputs),
                output=output,
                weight=weight,
                trainable=trainable,
                flops=flops,
                attrs=attrs,
            )
        )
        if weight is not None and self._emit_auxiliary:
            # initialiser + checkpoint ops live beside every variable in TF
            self.graph.add(
                Operator(
                    name=f"{full}/init", op_type=OpType.VARIABLE_INIT, inputs=()
                )
            )
            self.graph.add(
                Operator(
                    name=f"{full}/save", op_type=OpType.SAVE, inputs=(full,)
                )
            )
        return full

    def input(self, name: str, shape: Tuple[int, ...], dtype: str = "float32") -> str:
        return self.emit(name, OpType.INPUT, output=TensorSpec(shape, dtype))

    # ------------------------------------------------------------------
    # common layers
    # ------------------------------------------------------------------
    def dense(
        self,
        name: str,
        x: str,
        in_dim: int,
        out_dim: int,
        activation: Optional[str] = None,
        use_bias: bool = True,
    ) -> str:
        """Fully connected layer: matmul (+bias) (+activation).

        FLOPs are counted per batch element: 2 * in * out for the matmul.
        """
        with self.scope(name):
            out_spec = TensorSpec((-1, out_dim))
            y = self.emit(
                "matmul",
                OpType.MATMUL,
                inputs=(x,),
                output=out_spec,
                weight=TensorSpec((in_dim, out_dim), name=f"{name}/kernel"),
                flops=2 * in_dim * out_dim,
            )
            if use_bias:
                y = self.emit(
                    "bias_add",
                    OpType.ADD,
                    inputs=(y,),
                    output=out_spec,
                    weight=TensorSpec((out_dim,), name=f"{name}/bias"),
                    flops=out_dim,
                )
            if activation is not None:
                y = self.emit(
                    activation,
                    activation,
                    inputs=(y,),
                    output=out_spec,
                    flops=out_dim,
                )
        return y

    def layernorm(self, name: str, x: str, dim: int) -> str:
        with self.scope(name):
            out = TensorSpec((-1, dim))
            return self.emit(
                "layernorm",
                OpType.LAYERNORM,
                inputs=(x,),
                output=out,
                weight=TensorSpec((2, dim), name=f"{name}/scale_bias"),
                flops=8 * dim,
            )

    def embedding(
        self, name: str, ids: str, vocab: int, dim: int, trainable: bool = True
    ) -> str:
        with self.scope(name):
            return self.emit(
                "embedding_lookup",
                OpType.EMBEDDING,
                inputs=(ids,),
                output=TensorSpec((-1, dim)),
                weight=TensorSpec((vocab, dim), name=f"{name}/table"),
                trainable=trainable,
                flops=dim,
            )

    def residual_add(self, name: str, a: str, b: str, dim: int) -> str:
        return self.emit(
            name, OpType.ADD, inputs=(a, b), output=TensorSpec((-1, dim)), flops=dim
        )
