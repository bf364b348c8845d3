"""The directed-acyclic op graph and its structural queries.

This is the substrate TAP plans over: insertion-ordered operators, edges
implied by operator inputs, topological ordering, subgraph extraction and a
structural fingerprint used to recognise repeated blocks.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .node import Operator
from .tensor import TensorSpec

__all__ = ["Graph", "GraphError", "CycleError"]


class GraphError(ValueError):
    """Malformed graph construction or query."""


class CycleError(GraphError):
    """The graph contains a directed cycle."""


class Graph:
    """A DAG of :class:`Operator` nodes.

    Operators are stored in insertion order, which model builders arrange to
    be a valid topological order of the forward pass (mirroring how a
    framework records ops during tracing).  The class still computes and
    verifies a true topological order rather than trusting insertion order.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._ops: Dict[str, Operator] = {}
        self._consumers: Dict[str, List[str]] = {}
        self._topo_cache: Optional[List[str]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, op: Operator) -> Operator:
        """Insert *op*; all of its inputs must already be present."""
        ops, name, inputs = self._ops, op.name, op.inputs
        if name in ops:
            raise GraphError(f"duplicate operator name {name!r}")
        for src in inputs:
            if src not in ops:
                raise GraphError(
                    f"operator {name!r} consumes unknown input {src!r}"
                )
        ops[name] = op
        consumers = self._consumers
        consumers[name] = []
        for src in inputs:
            consumers[src].append(name)
        self._topo_cache = None
        return op

    def add_operator(self, name: str, op_type: str, **kwargs) -> Operator:
        """Build-and-insert convenience used heavily by model builders."""
        return self.add(Operator(name=name, op_type=op_type, **kwargs))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self._ops.values())

    def op(self, name: str) -> Operator:
        try:
            return self._ops[name]
        except KeyError:
            raise GraphError(f"no operator named {name!r}") from None

    @property
    def operators(self) -> List[Operator]:
        return list(self._ops.values())

    @property
    def num_edges(self) -> int:
        return sum(len(op.inputs) for op in self._ops.values())

    def consumers(self, name: str) -> List[Operator]:
        """Operators that read the output of *name*."""
        if name not in self._ops:
            raise GraphError(f"no operator named {name!r}")
        return [self._ops[c] for c in self._consumers[name]]

    def producers(self, name: str) -> List[Operator]:
        return [self._ops[src] for src in self.op(name).inputs]

    def roots(self) -> List[Operator]:
        """Operators with no inputs (graph sources)."""
        return [op for op in self._ops.values() if not op.inputs]

    def leaves(self) -> List[Operator]:
        """Operators nothing consumes (graph sinks)."""
        return [op for op in self._ops.values() if not self._consumers[op.name]]

    def weights(self) -> List[Operator]:
        """Weight-carrying operators, in topological order."""
        return [self._ops[n] for n in self.topo_order() if self._ops[n].has_weight]

    def num_parameters(self) -> int:
        """Total trainable parameter count."""
        return sum(
            op.weight.num_elements
            for op in self._ops.values()
            if op.weight is not None and op.trainable
        )

    def total_flops(self) -> int:
        return sum(op.flops for op in self._ops.values())

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def topo_order(self) -> List[str]:
        """Kahn topological order; raises :class:`CycleError` on cycles.

        Deterministic: ties broken by insertion order.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        indeg = {n: len(op.inputs) for n, op in self._ops.items()}
        # deque seeded in insertion order keeps the result stable
        ready = deque(n for n, d in indeg.items() if d == 0)
        order: List[str] = []
        while ready:
            n = ready.popleft()
            order.append(n)
            for c in self._consumers[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(order) != len(self._ops):
            stuck = sorted(n for n, d in indeg.items() if d > 0)
            raise CycleError(f"graph has a cycle through {stuck[:5]}")
        self._topo_cache = order
        return list(order)

    def validate(self) -> None:
        """Check DAG-ness and referential integrity; raises on failure.

        :meth:`add` only accepts ops whose inputs are present, so insertion
        order is topological unless an op's inputs were changed later: a
        graph whose every op reads only ops inserted before it is valid.
        Any other graph gets the full check.
        """
        seen: Set[str] = set()
        for name, op in self._ops.items():
            if not seen.issuperset(op.inputs):
                break
            seen.add(name)
        else:
            return
        self.topo_order()
        for op in self._ops.values():
            for src in op.inputs:
                if src not in self._ops:
                    raise GraphError(f"{op.name} references missing {src}")

    def ancestors(self, name: str) -> Set[str]:
        """All transitive producers of *name* (excluding itself)."""
        seen: Set[str] = set()
        stack = list(self.op(name).inputs)
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._ops[cur].inputs)
        return seen

    def descendants(self, name: str) -> Set[str]:
        """All transitive consumers of *name* (excluding itself)."""
        seen: Set[str] = set()
        stack = list(self._consumers[self.op(name).name])
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._consumers[cur])
        return seen

    # ------------------------------------------------------------------
    # subgraphs and fingerprints
    # ------------------------------------------------------------------
    def subgraph(self, names: Iterable[str], name: str = "subgraph") -> "Graph":
        """Induced subgraph over *names*; edges to outside ops are dropped.

        The result's roots are the boundary operators — exactly what the
        pattern-routing step needs to re-derive producer/consumer order
        inside a pruned block.
        """
        keep = set(names)
        missing = keep - set(self._ops)
        if missing:
            raise GraphError(f"subgraph references unknown ops {sorted(missing)[:5]}")
        sub = Graph(name=name)
        for n in self.topo_order():
            if n not in keep:
                continue
            op = self._ops[n]
            sub.add(
                Operator(
                    name=op.name,
                    op_type=op.op_type,
                    inputs=tuple(i for i in op.inputs if i in keep),
                    output=op.output,
                    weight=op.weight,
                    trainable=op.trainable,
                    flops=op.flops,
                    attrs=dict(op.attrs),
                )
            )
        return sub

    def scope_members(self, scope: str) -> List[str]:
        """Names of all ops whose name lives under *scope* (inclusive)."""
        if scope == "":
            return list(self._ops)
        prefix = scope.rstrip("/") + "/"
        return [n for n in self._ops if n.startswith(prefix) or n == scope]

    def structural_fingerprint(self, names: Optional[Sequence[str]] = None) -> str:
        """Hash of op types/shapes/local wiring, ignoring absolute names.

        Two repeated transformer layers produce identical fingerprints even
        though their scoped names differ, which is how the pruner confirms
        that LCP-clustered blocks really share composition.
        """
        pool = list(names) if names is not None else self.topo_order()
        pool_set = set(pool)
        index = {n: i for i, n in enumerate(pool)}
        h = hashlib.sha256()
        for n in pool:
            op = self._ops[n]
            local_inputs = tuple(
                index[i] for i in op.inputs if i in pool_set
            )
            h.update(repr((op.signature(), local_inputs)).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Cheap summary used by reports and benchmarks."""
        return {
            "operators": len(self._ops),
            "edges": self.num_edges,
            "weights": sum(1 for op in self._ops.values() if op.has_weight),
            "parameters": self.num_parameters(),
            "auxiliary": sum(1 for op in self._ops.values() if op.is_auxiliary),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"Graph({self.name!r}, ops={s['operators']}, edges={s['edges']}, "
            f"params={s['parameters']})"
        )
