"""Auxiliary-operator trimming (paper §4.2, Step ①).

Before planning, TAP deletes initialisation / checkpoint / summary operators
from the graph so only compute (and later communication) operators remain.
The removed operators are recorded so graph rewriting can restore them when
the parallel plan is converted back into an executable graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .graph import Graph
from .node import Operator

__all__ = ["TrimRecord", "trim_auxiliary", "attach_auxiliary"]


@dataclass
class TrimRecord:
    """What was removed and how it was wired, for later restoration."""

    removed: List[Operator] = field(default_factory=list)
    #: original inputs of surviving ops that pointed at removed ops
    severed_edges: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def num_removed(self) -> int:
        return len(self.removed)


def trim_auxiliary(graph: Graph) -> Tuple[Graph, TrimRecord]:
    """Return a new graph without auxiliary ops, plus the restoration record.

    Edges *through* auxiliary ops are contracted: if compute op C consumed
    aux op A which consumed compute op B, the trimmed graph wires C directly
    to B.  This matches TF's behaviour where identity/assign nodes merely
    forward a tensor.
    """
    record = TrimRecord()
    # Map from removed-op name to the compute inputs it forwards.  Insertion
    # order is a valid topological order (Graph.add requires inputs to be
    # present) and preserves the builder's trace layout, which downstream
    # coarsening relies on for contiguous layer runs.
    forward: Dict[str, Tuple[str, ...]] = {}
    for op in graph:
        name = op.name
        if op.is_auxiliary:
            record.removed.append(op)
            resolved: List[str] = []
            for src in op.inputs:
                resolved.extend(forward.get(src, (src,)))
            forward[name] = tuple(dict.fromkeys(resolved))

    trimmed = Graph(name=graph.name)
    for op in graph:
        if op.is_auxiliary:
            continue
        new_inputs: List[str] = []
        for src in op.inputs:
            if src in forward:
                record.severed_edges.append((op.name, src))
                new_inputs.extend(forward[src])
            else:
                new_inputs.append(src)
        trimmed.add(op.rewired(tuple(dict.fromkeys(new_inputs)), op.weight))
    return trimmed, record


def attach_auxiliary(graph: Graph, record: TrimRecord) -> None:
    """Append the trimmed auxiliary ops to *graph* in place.

    Auxiliary ops whose original producers vanished (e.g. replaced during
    rewriting) are re-attached without those inputs — initialisers and
    savers reference variables by name in real frameworks, so dangling data
    edges are not an error.  An input counts as present only if *graph*
    held it before this call, so one auxiliary op never wires to another.
    """
    present = set(op.name for op in graph)
    for aux in record.removed:
        inputs = tuple(i for i in aux.inputs if i in present)
        graph.add(aux.rewired(inputs, aux.weight))
