"""Canonical fingerprints for (graph × mesh × config) cache keys.

The planner service (:mod:`repro.service`) answers repeated plan
requests from a persistent cache.  A cached :class:`RoutedPlan` is only
trustworthy if the key it is stored under captures *everything* the
search result depends on — and nothing else.  Three independent
fingerprints cover the three inputs of :func:`repro.core.planner.derive_plan`:

``graph_fingerprint``
    A SHA-256 over a canonical byte encoding of the NodeGraph: node
    names, edges and every operator's structural payload (type, shapes,
    dtypes, trainable flags, flops, attrs) in topological order.  Two
    builds of the same model produce byte-identical encodings, in any
    process and under any ``PYTHONHASHSEED`` — nothing is derived from
    ``hash()``, ``id()`` or set iteration order.

``mesh_fingerprint``
    Every field of the frozen :class:`repro.cluster.Mesh`, including the
    interconnect classes — a plan priced for NVLink is not a plan for
    PCIe.

``config_fingerprint``
    The :class:`CostConfig` (with its nested :class:`PackingConfig`)
    plus the search knobs that change the *selected plan*:
    ``min_duplicate``, ``tp_degrees``, ``use_pruning``,
    ``max_plans_per_block``, and the registry's pattern inventory.

No evaluation tier is part of the key, because no request names one:
the service always runs the columnar fast path, and the reference
oracle (``derive_plan(engine="reference")``) runs only in-process,
selecting the bit-identical plan (asserted by the tier-parity tests).
The cache envelope's ``engine`` header records the tier that produced
an entry, for observability; entries written under retired tier names
still load.

``plan_cache_key`` combines the three into a versioned, filename-safe
key::

    v1-g<16 hex>-m<16 hex>-c<16 hex>

The three segments are independent digests, so unequal configs can never
collide with each other through the graph or mesh segments: a config
change always lands in the ``c`` segment.  Bump
:data:`KEY_SCHEMA_VERSION` whenever the canonical encoding changes —
old cache entries then simply miss instead of replaying stale plans.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Sequence

from ..cluster import Mesh
from .cost import CostConfig
from .graphnode import NodeGraph
from .patterns import DEFAULT_REGISTRY, PatternRegistry

__all__ = [
    "KEY_SCHEMA_VERSION",
    "graph_fingerprint",
    "mesh_fingerprint",
    "config_fingerprint",
    "compose_key",
    "plan_cache_key",
    "graph_doc",
    "mesh_doc",
    "config_doc",
]

KEY_SCHEMA_VERSION = 1

#: hex digits of each digest used in the compact key (the envelope keeps
#: the full digests; 16 hex chars = 64 bits per segment).
_KEY_DIGEST_LEN = 16


def _digest(doc) -> str:
    """SHA-256 of the canonical JSON encoding of *doc*.

    ``sort_keys`` pins dict ordering, ``separators`` pins whitespace and
    ``default=str`` canonicalises the odd non-JSON scalar (symbolic
    dims); the result is a pure function of the document's value.
    """
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _spec_doc(spec) -> Optional[list]:
    if spec is None:
        return None
    return [list(spec.shape), spec.dtype]


def graph_doc(node_graph: NodeGraph) -> Dict:
    """The canonical document ``graph_fingerprint`` hashes.

    Nodes appear in the NodeGraph's insertion order — topological by
    construction and identical for identical build sequences — with
    their edges and each operator's full structural payload.  Exposed
    separately so tests (and humans debugging a surprising miss) can
    diff documents instead of opaque digests.
    """
    nodes = []
    for node in node_graph:
        ops = []
        for op in node.ops:
            ops.append(
                [
                    op.name,
                    op.op_type,
                    list(op.inputs),
                    _spec_doc(op.output),
                    _spec_doc(op.weight),
                    bool(op.trainable),
                    op.flops,
                    {k: op.attrs[k] for k in sorted(op.attrs)},
                ]
            )
        nodes.append({"name": node.name, "inputs": list(node.inputs), "ops": ops})
    return {"kind": "nodegraph", "nodes": nodes}


def graph_fingerprint(node_graph: NodeGraph) -> str:
    """Stable structural digest of a NodeGraph (64 hex chars)."""
    return _digest(graph_doc(node_graph))


def mesh_doc(mesh: Mesh) -> Dict:
    return {
        "kind": "mesh",
        "num_nodes": mesh.num_nodes,
        "gpus_per_node": mesh.gpus_per_node,
        "intra": [mesh.intra.bandwidth, mesh.intra.latency, mesh.intra.name],
        "inter": [mesh.inter.bandwidth, mesh.inter.latency, mesh.inter.name],
        "device_memory": mesh.device_memory,
        "device_flops": mesh.device_flops,
        "compute_efficiency": mesh.compute_efficiency,
    }


def mesh_fingerprint(mesh: Mesh) -> str:
    """Stable digest of the device mesh, interconnects included."""
    return _digest(mesh_doc(mesh))


def _registry_doc(registry: PatternRegistry) -> list:
    # Pattern inventory: which patterns exist per node kind.  A registry
    # with extra (or missing) patterns searches a different space, so it
    # must key differently; kinds and names are sorted for stability.
    return sorted(
        [kind, sorted(p.name for p in registry.for_kind(kind))]
        for kind in registry.kinds()
    )


def config_doc(
    cost_config: Optional[CostConfig] = None,
    *,
    min_duplicate: int = 2,
    tp_degrees: Optional[Sequence[int]] = None,
    use_pruning: bool = True,
    max_plans_per_block: int = 50_000,
    zero_stage: int = 0,
    registry: PatternRegistry = DEFAULT_REGISTRY,
) -> Dict:
    cfg = cost_config or CostConfig()
    doc = {
        "kind": "search_config",
        "cost": {
            "batch_tokens": cfg.batch_tokens,
            "use_efficiency": cfg.use_efficiency,
            "overlap_gradients": cfg.overlap_gradients,
            "objective": cfg.objective,
            "backward_flops_factor": cfg.backward_flops_factor,
            "packing": {
                "mu": cfg.packing.mu,
                "chunk_bytes": cfg.packing.chunk_bytes,
                "enabled": cfg.packing.enabled,
            },
        },
        "min_duplicate": min_duplicate,
        "tp_degrees": sorted(set(tp_degrees)) if tp_degrees is not None else None,
        "use_pruning": use_pruning,
        "max_plans_per_block": max_plans_per_block,
        "registry": _registry_doc(registry),
    }
    # The ZeRO axis appears in the document only when it is on: every
    # pre-existing cache key (and every zero_stage=0 request) hashes the
    # byte-identical document it always did, so old entries keep hitting.
    if zero_stage:
        doc["zero_stage"] = zero_stage
    return doc


def config_fingerprint(
    cost_config: Optional[CostConfig] = None,
    *,
    min_duplicate: int = 2,
    tp_degrees: Optional[Sequence[int]] = None,
    use_pruning: bool = True,
    max_plans_per_block: int = 50_000,
    zero_stage: int = 0,
    registry: PatternRegistry = DEFAULT_REGISTRY,
) -> str:
    """Stable digest of everything that steers the search besides graph/mesh."""
    return _digest(
        config_doc(
            cost_config,
            min_duplicate=min_duplicate,
            tp_degrees=tp_degrees,
            use_pruning=use_pruning,
            max_plans_per_block=max_plans_per_block,
            zero_stage=zero_stage,
            registry=registry,
        )
    )


def compose_key(graph_fp: str, mesh_fp: str, config_fp: str) -> str:
    """Assemble the versioned key from three full digests.

    Filename-safe (lowercase hex and dashes only), so the disk cache can
    use it directly as a file stem.
    """
    return (
        f"v{KEY_SCHEMA_VERSION}"
        f"-g{graph_fp[:_KEY_DIGEST_LEN]}"
        f"-m{mesh_fp[:_KEY_DIGEST_LEN]}"
        f"-c{config_fp[:_KEY_DIGEST_LEN]}"
    )


def plan_cache_key(
    node_graph: NodeGraph,
    mesh: Mesh,
    cost_config: Optional[CostConfig] = None,
    *,
    min_duplicate: int = 2,
    tp_degrees: Optional[Sequence[int]] = None,
    use_pruning: bool = True,
    max_plans_per_block: int = 50_000,
    zero_stage: int = 0,
    registry: PatternRegistry = DEFAULT_REGISTRY,
) -> str:
    """The versioned cache key ``v<N>-g<...>-m<...>-c<...>``."""
    return compose_key(
        graph_fingerprint(node_graph),
        mesh_fingerprint(mesh),
        config_fingerprint(
            cost_config,
            min_duplicate=min_duplicate,
            tp_degrees=tp_degrees,
            use_pruning=use_pruning,
            max_plans_per_block=max_plans_per_block,
            zero_stage=zero_stage,
            registry=registry,
        ),
    )
