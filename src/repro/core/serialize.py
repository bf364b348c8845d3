"""Plan and search-result serialisation.

A derived plan is an artifact worth keeping: searches take minutes at
paper scale, and the same plan applies to every training run of the model
on the same mesh.  Plans serialise to a small, stable JSON document; a
round-trip through :func:`plan_to_json` / :func:`plan_from_json` is exact.

Routed plans serialise too (:func:`routed_to_json`): all their payload is
ints, strings and exactly representable floats, so a round-trip re-prices
and re-simulates bit-identically.  Cache fields declared with
``compare=False`` (``RoutedPlan._sim_cache``) are *never* written and are
always reinitialised empty on load — a serialised cache could silently
replay tapes priced for a different library version.

The schema is versioned so saved plans survive library evolution, and
loading validates against the target NodeGraph when one is supplied (a
plan for a different architecture fails fast instead of silently
replicating everything); by default loading also runs the static verifier
(:mod:`repro.verify`) when a graph is available — ``verify=False`` skips
it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from ..graph import TensorSpec
from .graphnode import NodeGraph
from .plan import CommEvent, NodeShard, RoutedPlan, ShardingPlan

__all__ = [
    "SCHEMA_VERSION",
    "CACHE_ENVELOPE_VERSION",
    "PlanLoadError",
    "CacheEnvelope",
    "plan_to_json",
    "plan_from_json",
    "save_plan",
    "load_plan",
    "routed_to_json",
    "routed_from_json",
    "routed_from_doc",
    "save_routed",
    "load_routed",
    "envelope_to_json",
    "envelope_from_json",
    "SIM_ENVELOPE_VERSION",
    "SimEnvelope",
    "sim_envelope_to_json",
    "sim_envelope_from_json",
]

SCHEMA_VERSION = 1

#: Version of the plan-cache envelope wrapping a routed-plan document.
#: Bump when the envelope layout changes; the disk cache treats entries
#: with a different version as misses (quarantined, never replayed).
CACHE_ENVELOPE_VERSION = 1

#: Version of the simulation-profile envelope (``POST /simulate``'s
#: cached answer).  Same lifecycle as the plan envelope version.
SIM_ENVELOPE_VERSION = 1


def _cache_field_names(cls) -> FrozenSet[str]:
    """Names of *cls*'s ``compare=False`` cache fields — never serialised."""
    return frozenset(f.name for f in dataclasses.fields(cls) if not f.compare)


class PlanLoadError(ValueError):
    """The document is not a valid serialised plan (or mismatches the graph)."""


def plan_to_json(plan: ShardingPlan, indent: Optional[int] = 2) -> str:
    """Serialise a plan to a JSON string."""
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "repro.sharding_plan",
        "name": plan.name,
        "tp_degree": plan.tp_degree,
        "assignment": dict(plan.assignment),
    }
    # The ZeRO axis is serialised only when on: documents written before
    # (or without) optimizer-state sharding stay byte-identical.
    if plan.zero_stage:
        doc["zero_stage"] = plan.zero_stage
    return json.dumps(doc, indent=indent, sort_keys=True)


def plan_from_json(
    text: str, node_graph: Optional[NodeGraph] = None, verify: bool = True
) -> ShardingPlan:
    """Parse a serialised plan; optionally validate against *node_graph*.

    Validation checks that every assigned node exists and carries weights —
    assignments to unknown nodes indicate the plan belongs to a different
    model (or model version) and would otherwise be silently ignored.
    With a graph and ``verify=True`` (the default) the static verifier
    additionally re-checks divisibility and pattern-chain connectivity;
    a failing plan raises :class:`PlanLoadError` carrying the diagnostics.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanLoadError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "repro.sharding_plan":
        raise PlanLoadError("document is not a serialised sharding plan")
    if doc.get("schema") != SCHEMA_VERSION:
        raise PlanLoadError(
            f"unsupported schema version {doc.get('schema')!r} "
            f"(this library reads version {SCHEMA_VERSION})"
        )
    assignment = doc.get("assignment")
    tp_degree = doc.get("tp_degree")
    if not isinstance(assignment, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in assignment.items()
    ):
        raise PlanLoadError("assignment must map node names to pattern names")
    if not isinstance(tp_degree, int) or tp_degree < 1:
        raise PlanLoadError(f"invalid tp_degree {tp_degree!r}")
    zero_stage = doc.get("zero_stage", 0)
    if not isinstance(zero_stage, int) or zero_stage not in (0, 1, 2):
        raise PlanLoadError(f"invalid zero_stage {zero_stage!r}")

    if node_graph is not None:
        weight_names = {n.name for n in node_graph.weight_nodes()}
        unknown = sorted(set(assignment) - weight_names)
        if unknown:
            raise PlanLoadError(
                f"plan references nodes absent from the graph: {unknown[:5]}"
            )
    plan = ShardingPlan.of(
        assignment,
        tp_degree,
        name=str(doc.get("name", "")),
        zero_stage=zero_stage,
    )
    if node_graph is not None and verify:
        _verify_loaded_plan(node_graph, plan)
    return plan


def _verify_loaded_plan(node_graph: NodeGraph, plan: ShardingPlan) -> None:
    # Lazy import: repro.core's package init imports this module, and the
    # verifier imports back into repro.core — resolving it at call time
    # keeps the package import acyclic.
    from ..verify import verify_plan

    report = verify_plan(node_graph, plan)
    if not report.ok:
        raise PlanLoadError(
            f"loaded plan fails static verification:\n{report.describe()}"
        )


def save_plan(plan: ShardingPlan, path) -> None:
    """Write a plan to *path* as JSON."""
    with open(path, "w") as fh:
        fh.write(plan_to_json(plan))
        fh.write("\n")


def load_plan(
    path, node_graph: Optional[NodeGraph] = None, verify: bool = True
) -> ShardingPlan:
    """Read a plan from *path*, optionally validating against a graph."""
    with open(path) as fh:
        return plan_from_json(fh.read(), node_graph, verify=verify)


# ---------------------------------------------------------------------------
# routed plans
# ---------------------------------------------------------------------------

def _spec_to_doc(spec: Optional[TensorSpec]):
    if spec is None:
        return None
    return {"shape": list(spec.shape), "dtype": spec.dtype, "name": spec.name}


def _spec_from_doc(doc) -> Optional[TensorSpec]:
    if doc is None:
        return None
    try:
        return TensorSpec(tuple(doc["shape"]), doc["dtype"], doc.get("name", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise PlanLoadError(f"invalid tensor spec {doc!r}: {exc}") from exc


def _event_to_doc(ev: CommEvent) -> Dict:
    return {
        "phase": ev.phase,
        "collective": ev.collective,
        "axis": ev.axis,
        "spec": _spec_to_doc(ev.spec),
        "scales_with_batch": ev.scales_with_batch,
        "node": ev.node,
        "overlappable": ev.overlappable,
        "src": ev.src,
    }


def _event_from_doc(doc) -> CommEvent:
    try:
        return CommEvent(
            phase=doc["phase"],
            collective=doc["collective"],
            axis=doc["axis"],
            spec=_spec_from_doc(doc["spec"]),
            scales_with_batch=bool(doc["scales_with_batch"]),
            node=doc["node"],
            overlappable=bool(doc.get("overlappable", False)),
            src=doc.get("src", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PlanLoadError(f"invalid comm event {doc!r}: {exc}") from exc


def routed_to_json(routed: RoutedPlan, indent: Optional[int] = 2) -> str:
    """Serialise a fully routed plan to JSON.

    Every ``compare=False`` cache field (``_sim_cache`` today, anything
    added later) is skipped by construction: the document is built from
    the dataclass's *comparable* fields only.
    """
    skip = _cache_field_names(RoutedPlan)
    assert "_sim_cache" in skip  # the field this guard exists for
    shards = {}
    for name, s in routed.shards.items():
        shards[name] = {
            "name": s.name,
            "kind": s.kind,
            "pattern": s.pattern,
            "input_layout": s.input_layout,
            "output_layout": s.output_layout,
            "local_weight_bytes": s.local_weight_bytes,
            "full_weight_bytes": s.full_weight_bytes,
            "local_parameters": s.local_parameters,
            "compute_share": s.compute_share,
            "flops": s.flops,
            "bwd_input_reduction": s.bwd_input_reduction,
            "output_spec": _spec_to_doc(s.output_spec),
            "events": [_event_to_doc(ev) for ev in s.events],
        }
    plan_doc = {
        "name": routed.plan.name,
        "tp_degree": routed.plan.tp_degree,
        "assignment": dict(routed.plan.assignment),
    }
    if routed.plan.zero_stage:
        plan_doc["zero_stage"] = routed.plan.zero_stage
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "repro.routed_plan",
        "plan": plan_doc,
        "order": list(routed.order),
        "conversions": [
            [src, layout, coll]
            for (src, layout), coll in routed.conversions.items()
        ],
        "shards": shards,
    }
    return json.dumps(doc, indent=indent, sort_keys=True)


def routed_from_json(
    text: str, node_graph: Optional[NodeGraph] = None, verify: bool = True
) -> RoutedPlan:
    """Parse a serialised routed plan.

    Cache fields come back *empty* regardless of document content (a
    document claiming to carry one is rejected as corrupt).  With a graph
    and ``verify=True`` the full static verifier runs over the result.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanLoadError(f"not valid JSON: {exc}") from exc
    return routed_from_doc(doc, node_graph, verify=verify)


def routed_from_doc(
    doc, node_graph: Optional[NodeGraph] = None, verify: bool = True
) -> RoutedPlan:
    """Parse an already-decoded routed-plan document (see
    :func:`routed_from_json`; the cache envelope embeds one)."""
    if not isinstance(doc, dict) or doc.get("kind") != "repro.routed_plan":
        raise PlanLoadError("document is not a serialised routed plan")
    if doc.get("schema") != SCHEMA_VERSION:
        raise PlanLoadError(
            f"unsupported schema version {doc.get('schema')!r} "
            f"(this library reads version {SCHEMA_VERSION})"
        )
    for cached in _cache_field_names(RoutedPlan):
        if cached in doc:
            raise PlanLoadError(
                f"document carries cache field {cached!r}; caches are "
                "never serialised"
            )
    try:
        plan_doc = doc["plan"]
        plan = ShardingPlan.of(
            dict(plan_doc["assignment"]),
            int(plan_doc["tp_degree"]),
            name=str(plan_doc.get("name", "")),
            zero_stage=int(plan_doc.get("zero_stage", 0)),
        )
        routed = RoutedPlan(plan=plan)
        routed.order = [str(n) for n in doc["order"]]
        routed.conversions = {
            (src, layout): coll for src, layout, coll in doc["conversions"]
        }
        for name, sd in doc["shards"].items():
            routed.shards[name] = NodeShard(
                name=sd["name"],
                kind=sd["kind"],
                pattern=sd["pattern"],
                input_layout=sd["input_layout"],
                output_layout=sd["output_layout"],
                local_weight_bytes=int(sd["local_weight_bytes"]),
                full_weight_bytes=int(sd["full_weight_bytes"]),
                local_parameters=int(sd["local_parameters"]),
                compute_share=float(sd["compute_share"]),
                flops=int(sd["flops"]),
                bwd_input_reduction=bool(sd["bwd_input_reduction"]),
                output_spec=_spec_from_doc(sd["output_spec"]),
                events=[_event_from_doc(e) for e in sd["events"]],
            )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, PlanLoadError):
            raise
        raise PlanLoadError(f"malformed routed-plan document: {exc}") from exc

    assert routed._sim_cache == {}, "cache fields must reinitialise empty"
    if node_graph is not None and verify:
        from ..verify import verify_routed

        report = verify_routed(node_graph, routed)
        if not report.ok:
            raise PlanLoadError(
                "loaded routed plan fails static verification:\n"
                f"{report.describe()}"
            )
    return routed


def save_routed(routed: RoutedPlan, path) -> None:
    """Write a routed plan to *path* as JSON."""
    with open(path, "w") as fh:
        fh.write(routed_to_json(routed))
        fh.write("\n")


def load_routed(
    path, node_graph: Optional[NodeGraph] = None, verify: bool = True
) -> RoutedPlan:
    """Read a routed plan from *path*, optionally verifying against a graph."""
    with open(path) as fh:
        return routed_from_json(fh.read(), node_graph, verify=verify)


# ---------------------------------------------------------------------------
# cache envelopes: one header shared by every kind, a payload per kind
# ---------------------------------------------------------------------------

class _EnvelopeKind(NamedTuple):
    kind: str        # the document's ``kind`` field
    version: int     # the envelope version this library reads and writes
    label: str       # how load errors name the kind


_PLAN_ENVELOPE = _EnvelopeKind(
    "repro.plan_cache_entry", CACHE_ENVELOPE_VERSION, "plan-cache"
)
_SIM_ENVELOPE = _EnvelopeKind(
    "repro.sim_cache_entry", SIM_ENVELOPE_VERSION, "simulation-cache"
)

#: fingerprints every envelope must carry, each a full SHA-256 hex digest
_REQUIRED_FINGERPRINTS = ("graph", "mesh", "config")
_HEX_DIGITS = frozenset("0123456789abcdef")


def _envelope_header_doc(
    spec: _EnvelopeKind,
    key: str,
    fingerprints: Dict[str, str],
    engine: str,
    timings: Dict[str, float],
    created: str,
) -> Dict:
    """The header fields every envelope kind writes."""
    return {
        "schema": SCHEMA_VERSION,
        "envelope": spec.version,
        "kind": spec.kind,
        "key": key,
        "fingerprints": dict(fingerprints),
        "engine": engine,
        "timings": dict(timings),
        "created": created,
    }


def _envelope_header(
    text: str, spec: _EnvelopeKind, expected_key: Optional[str]
) -> Tuple[Dict, Dict]:
    """Decode *text* and check the header every envelope kind shares.

    Checks the kind, the schema and envelope versions, a non-empty key
    (equal to ``expected_key`` when given: a blob filed under the wrong
    name is rejected rather than served), the graph/mesh/config
    fingerprints (present, each a 64-hex digest) and numeric timings.
    Returns the decoded document, for the kind's payload, and the header
    fields as keyword arguments for :class:`CacheEnvelope` /
    :class:`SimEnvelope`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanLoadError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != spec.kind:
        raise PlanLoadError(f"document is not a {spec.label} envelope")
    if doc.get("schema") != SCHEMA_VERSION:
        raise PlanLoadError(
            f"unsupported schema version {doc.get('schema')!r} "
            f"(this library reads version {SCHEMA_VERSION})"
        )
    if doc.get("envelope") != spec.version:
        raise PlanLoadError(
            f"unsupported envelope version {doc.get('envelope')!r} "
            f"(this library reads {spec.label} version {spec.version})"
        )
    key = doc.get("key")
    if not isinstance(key, str) or not key:
        raise PlanLoadError("envelope carries no cache key")
    if expected_key is not None and key != expected_key:
        raise PlanLoadError(
            f"envelope key {key!r} does not match its slot {expected_key!r}"
        )
    fingerprints = doc.get("fingerprints")
    if not isinstance(fingerprints, dict) or not all(
        isinstance(k, str) and isinstance(v, str)
        for k, v in fingerprints.items()
    ):
        raise PlanLoadError("envelope fingerprints must map names to digests")
    for name in _REQUIRED_FINGERPRINTS:
        digest = fingerprints.get(name, "")
        if len(digest) != 64 or not _HEX_DIGITS.issuperset(digest):
            raise PlanLoadError(
                f"envelope fingerprint {name!r} is missing or not a "
                "64-hex digest"
            )
    timings = doc.get("timings")
    if not isinstance(timings, dict):
        raise PlanLoadError("envelope timings must be a mapping")
    try:
        timings = {k: float(v) for k, v in sorted(timings.items())}
    except (TypeError, ValueError) as exc:
        raise PlanLoadError(f"envelope timings must be numbers: {exc}") from exc
    return doc, {
        "key": key,
        "fingerprints": dict(sorted(fingerprints.items())),
        "engine": str(doc.get("engine", "")),
        "timings": timings,
        "created": str(doc.get("created", "")),
    }


@dataclasses.dataclass
class CacheEnvelope:
    """One persistent plan-cache entry: a routed plan plus provenance.

    The envelope is what the planner service writes to its disk store:
    the versioned cache key, the full (untruncated) fingerprints it was
    derived from, the evaluation tier that produced it, the search
    timings, the plan's cost, and the routed-plan document itself.  The
    metadata lets ``repro cache stats`` explain an entry and keeps
    cold-search timings reconstructable after the fact; none of it
    affects pricing — the payload round-trips through
    :func:`routed_to_json` untouched.
    """

    key: str
    fingerprints: Dict[str, str]
    engine: str
    timings: Dict[str, float]
    cost: float
    created: str                 # ISO-8601 UTC, stamped by the *caller*
    routed: RoutedPlan

    def to_json(self, indent: Optional[int] = None) -> str:
        """Re-serialise this envelope (inverse of :func:`envelope_from_json`)."""
        return envelope_to_json(
            self.routed,
            key=self.key,
            fingerprints=self.fingerprints,
            engine=self.engine,
            timings=self.timings,
            cost=self.cost,
            created=self.created,
            indent=indent,
        )


def envelope_to_json(
    routed: RoutedPlan,
    *,
    key: str,
    fingerprints: Dict[str, str],
    engine: str,
    timings: Dict[str, float],
    cost: float,
    created: str = "",
    indent: Optional[int] = None,
) -> str:
    """Wrap a routed plan in a versioned cache envelope."""
    doc = _envelope_header_doc(
        _PLAN_ENVELOPE, key, fingerprints, engine, timings, created
    )
    doc["cost"] = cost
    doc["payload"] = json.loads(routed_to_json(routed, indent=None))
    return json.dumps(doc, indent=indent, sort_keys=True)


def envelope_from_json(
    text: str,
    node_graph: Optional[NodeGraph] = None,
    expected_key: Optional[str] = None,
) -> CacheEnvelope:
    """Parse a cache envelope; raises :class:`PlanLoadError` when corrupt.

    The header checks are :func:`_envelope_header`'s.  With a graph the
    embedded routed plan is re-verified by the static verifier before it
    is trusted; without one only its structure is checked.
    """
    doc, header = _envelope_header(text, _PLAN_ENVELOPE, expected_key)
    try:
        cost = float(doc["cost"])
    except (KeyError, TypeError, ValueError) as exc:
        raise PlanLoadError(f"envelope cost is invalid: {exc}") from exc
    routed = routed_from_doc(doc.get("payload"), node_graph)
    return CacheEnvelope(cost=cost, routed=routed, **header)


# ---------------------------------------------------------------------------
# simulation-profile envelopes (the service's POST /simulate cache)
# ---------------------------------------------------------------------------

#: per-profile float fields every valid entry must carry (the
#: :meth:`IterationProfile.as_dict` schema).
_SIM_PROFILE_FIELDS = (
    "forward_time",
    "backward_time",
    "iteration_time",
    "compute_time",
    "comm_time",
    "exposed_comm_time",
    "gradient_sync_time",
    "weight_gather_time",
    "num_gradient_buckets",
    "overlap_efficiency",
)

#: fields absent from envelopes written before they existed; missing means 0.
_SIM_PROFILE_OPTIONAL = frozenset({"weight_gather_time"})


@dataclasses.dataclass
class SimEnvelope:
    """One persistent what-if simulation entry: profiles plus provenance.

    The batched-simulation analogue of :class:`CacheEnvelope`: the
    versioned ``sim-…`` cache key, the full fingerprints (graph, mesh,
    config, plan set) behind it, the simulation tier that produced the
    profiles, wall-clock timings, and one record per requested plan —
    its label, validity, :meth:`IterationProfile.as_dict` numbers and a
    per-channel summary (busy / makespan / idle / task count).  Profiles
    are pure plan×mesh×config functions, so a cached envelope answers a
    repeat what-if without touching the simulator at all.
    """

    key: str
    fingerprints: Dict[str, str]
    engine: str
    timings: Dict[str, float]
    created: str                 # ISO-8601 UTC, stamped by the *caller*
    profiles: List[Dict]

    def to_json(self, indent: Optional[int] = None) -> str:
        return sim_envelope_to_json(
            self.profiles,
            key=self.key,
            fingerprints=self.fingerprints,
            engine=self.engine,
            timings=self.timings,
            created=self.created,
            indent=indent,
        )


def sim_envelope_to_json(
    profiles: List[Dict],
    *,
    key: str,
    fingerprints: Dict[str, str],
    engine: str,
    timings: Dict[str, float],
    created: str = "",
    indent: Optional[int] = None,
) -> str:
    """Wrap per-plan simulation profiles in a versioned cache envelope."""
    doc = _envelope_header_doc(
        _SIM_ENVELOPE, key, fingerprints, engine, timings, created
    )
    doc["profiles"] = profiles
    return json.dumps(doc, indent=indent, sort_keys=True)


def _check_sim_profile(entry) -> Dict:
    if not isinstance(entry, dict):
        raise PlanLoadError("profile entry must be a mapping")
    label = entry.get("plan")
    if not isinstance(label, str) or not label:
        raise PlanLoadError("profile entry must name its plan")
    if not entry.get("valid", True):
        return {"plan": label, "valid": False}
    prof = entry.get("profile")
    if not isinstance(prof, dict):
        raise PlanLoadError(f"profile entry {label!r} carries no profile")
    for fld in _SIM_PROFILE_FIELDS:
        if fld in _SIM_PROFILE_OPTIONAL and fld not in prof:
            continue
        try:
            value = float(prof[fld])
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanLoadError(
                f"profile entry {label!r} field {fld!r} is invalid: {exc}"
            ) from exc
        if fld != "overlap_efficiency" and value < 0.0:
            raise PlanLoadError(
                f"profile entry {label!r} has negative {fld}: {value}"
            )
    channels = entry.get("channels")
    if channels is not None and not isinstance(channels, dict):
        raise PlanLoadError(f"profile entry {label!r} channels must map names")
    return entry


def sim_envelope_from_json(
    text: str, expected_key: Optional[str] = None
) -> SimEnvelope:
    """Parse a simulation envelope; raises :class:`PlanLoadError` when corrupt.

    The header checks are :func:`_envelope_header`'s, the same as for a
    plan envelope; every profile record is then field-checked.
    """
    doc, header = _envelope_header(text, _SIM_ENVELOPE, expected_key)
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise PlanLoadError("envelope must carry a non-empty profile list")
    return SimEnvelope(
        profiles=[_check_sim_profile(p) for p in profiles], **header
    )
