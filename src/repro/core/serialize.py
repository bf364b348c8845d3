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

A routed document has one writer and one oracle.  The oracle,
:func:`_routed_doc`, builds the document as a dict; the contract is
``json.dumps(_routed_doc(r), indent=indent, sort_keys=True)``.  The
writer (:func:`routed_to_json`) emits those bytes from text templates,
one per shard structure, each derived by ``json.dumps`` itself from a
skeleton with sentinel leaves, and encodes the leaves as json does; a
plan holding anything else is written by the oracle, so json's output
and json's errors are kept.  A cache envelope (:func:`envelope_to_json`)
splices the compact routed text into its header's text, so the plan is
encoded once and never parsed back.

The schema is versioned so saved plans survive library evolution.  Every
loader has one verified path: given the target NodeGraph it runs the
static verifier (:mod:`repro.verify`) and raises :class:`PlanLoadError`
on any finding (a plan for a different architecture fails fast instead of
silently replicating everything); without a graph it checks the document
structure only, for callers that report findings themselves.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import re
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from types import SimpleNamespace
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

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
    text: str, node_graph: Optional[NodeGraph] = None
) -> ShardingPlan:
    """Parse a serialised plan: with a graph, verified; without one,
    structure only.

    Against *node_graph* the static verifier checks the plan: every
    assigned node must exist and carry weights (``plan/unknown-node``,
    which names each offending node — a plan for a different model or
    model version would otherwise be silently ignored), and divisibility
    and pattern-chain connectivity hold; a failing plan raises
    :class:`PlanLoadError` carrying the diagnostics.
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

    plan = ShardingPlan.of(
        assignment,
        tp_degree,
        name=str(doc.get("name", "")),
        zero_stage=zero_stage,
    )
    if node_graph is not None:
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


def load_plan(path, node_graph: Optional[NodeGraph] = None) -> ShardingPlan:
    """Read a plan from *path*: with a graph, verified; without one,
    structure only (see :func:`plan_from_json`)."""
    with open(path) as fh:
        return plan_from_json(fh.read(), node_graph)


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


def _shard_to_doc(s: NodeShard) -> Dict:
    return {
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


def _conversion_rows(routed: RoutedPlan) -> List[List[str]]:
    # Insertion order is routing order, which the document records as is.
    return [
        [src, layout, coll]
        for (src, layout), coll in routed.conversions.items()
    ]


def _routed_frame(plan, assignment, order, conversions, shards) -> Dict:
    """The routed document's top two levels around its four containers."""
    plan_doc = {
        "name": plan.name,
        "tp_degree": plan.tp_degree,
        "assignment": assignment,
    }
    if plan.zero_stage:
        plan_doc["zero_stage"] = plan.zero_stage
    return {
        "schema": SCHEMA_VERSION,
        "kind": "repro.routed_plan",
        "plan": plan_doc,
        "order": order,
        "conversions": conversions,
        "shards": shards,
    }


def _routed_doc(routed: RoutedPlan) -> Dict:
    """The routed-plan document as a dict: the writer's oracle.

    ``json.dumps(_routed_doc(r), indent=indent, sort_keys=True)`` is, byte
    for byte, what :func:`routed_to_json` writes.  Every ``compare=False``
    cache field (``_sim_cache`` today, anything added later) is skipped by
    construction: the document is built from the dataclass's *comparable*
    fields only.
    """
    skip = _cache_field_names(RoutedPlan)
    assert "_sim_cache" in skip  # the field this guard exists for
    return _routed_frame(
        routed.plan,
        dict(routed.plan.assignment),
        list(routed.order),
        _conversion_rows(routed),
        {name: _shard_to_doc(s) for name, s in sorted(routed.shards.items())},
    )


# -- the writer ---------------------------------------------------------------
#
# json.dumps with an indent always runs CPython's pure-Python encoder, and a
# routed document is thousands of small dicts.  The writer fills text
# templates instead.  Each template is json.dumps's own output for a
# skeleton whose leaves are sentinel strings "@<tag>@", dumped at the depth
# the piece sits at in the document and turned into a %-format string, so
# the writer never spells whitespace or punctuation itself.  The leaves are
# encoded by json too, all of them in one pass of its C encoder
# (_encode_leaves).  A value outside json's exact scalar types (a subclass,
# a container, a non-string key, anything json rejects) hands the whole
# plan to the oracle, so output and errors stay json's.

_SENTINEL = re.compile(r'"@(\d+)@"')
_SHARD_LEAVES = (
    "name", "kind", "pattern", "input_layout", "output_layout",
    "local_weight_bytes", "full_weight_bytes", "local_parameters",
    "compute_share", "flops", "bwd_input_reduction",
)
_EVENT_LEAVES = (
    "phase", "collective", "axis", "scales_with_batch", "node",
    "overlappable", "src",
)
_shard_scalars = attrgetter(*_SHARD_LEAVES)
_event_scalars = attrgetter(*_EVENT_LEAVES)

#: json's scalar types; anything else, subclasses included, is irregular
_SCALARS = frozenset({str, int, float, bool, type(None)})
_STR = frozenset({str})

#: json's own encoder with a newline between list items.  Over a list of
#: scalars it writes ``"[" + "\n".join(texts) + "]"``; no scalar's text
#: holds a raw newline (strings escape it), so splitting on newlines
#: recovers each leaf's text exactly.
_LEAF_ENCODER = json.JSONEncoder(separators=("\n", ":"))


class _Irregular(Exception):
    """A plan the writer cannot encode exactly; the oracle writes it."""


def _encode_leaves(leaves: List) -> List[str]:
    """json's text of every leaf, in order, from one C-encoder pass."""
    if not _SCALARS.issuperset(map(type, leaves)):
        raise _Irregular
    if not leaves:
        return []
    return _LEAF_ENCODER.encode(leaves)[1:-1].split("\n")


def _nested_text(obj, indent: Optional[int], depth: int) -> str:
    """*obj* as ``json.dumps`` writes it *depth* containers deep."""
    for _ in range(depth):
        obj = [obj]
    text = json.dumps(obj, indent=indent, sort_keys=True)
    for _ in range(depth):
        text = text[1:-1].strip()
    return text


class _Template(NamedTuple):
    """A %-format string with one ``%s`` per leaf, and the getter putting
    leaves given in fill order into the text's order."""

    text: str
    order: Callable
    size: int
    #: fill-order index of each field, in text order
    fields: Tuple[int, ...]

    def fill(self, values) -> str:
        return self.text % self.order(values)


def _template(skeleton, indent: Optional[int], depth: int) -> _Template:
    """*skeleton*'s text at *depth*, its sentinels ``"@<i>@"`` (numbered in
    fill order) turned into fields."""
    text = _nested_text(skeleton, indent, depth).replace("%", "%%")
    fields = [int(i) for i in _SENTINEL.findall(text)]
    # one field: itemgetter returns the bare text, which % also accepts
    return _Template(_SENTINEL.sub("%s", text), itemgetter(*fields),
                     len(fields), tuple(fields))


def _tags():
    """Sentinels in fill order: ``"@0@"``, ``"@1@"``, ..."""
    return map("@{}@".format, itertools.count())


class _Container(NamedTuple):
    """How json writes a list or dict at one depth."""

    empty: str
    head: str
    colon: str       # between a key and its value (dicts only)
    sep: str
    tail: str

    def join(self, items: List[str]) -> str:
        return self.head + self.sep.join(items) + self.tail if items else self.empty


def _container(indent: Optional[int], depth: int, mapping: bool) -> _Container:
    if mapping:
        sample = _nested_text({"@0@": "@1@", "@2@": "@3@"}, indent, depth)
        head, colon, sep, _, tail = _SENTINEL.split(sample)[::2]
    else:
        sample = _nested_text(["@0@", "@1@"], indent, depth)
        head, sep, tail = _SENTINEL.split(sample)[::2]
        colon = ""
    empty = _nested_text({} if mapping else [], indent, depth)
    return _Container(empty, head, colon, sep, tail)


class _Layout(NamedTuple):
    """Every template of one indent except the per-shard ones."""

    top: Tuple[_Template, _Template]   # without / with ``zero_stage``
    row: _Template                     # one conversions entry
    assignment: _Container
    order: _Container
    conversions: _Container
    shards: _Container


def _top_template(indent: Optional[int], zero: bool) -> _Template:
    """Fields: plan name, tp degree, [zero stage,] then the assignment,
    order, conversions and shards containers."""
    tags = _tags()
    plan = SimpleNamespace(name=next(tags), tp_degree=next(tags),
                           zero_stage=next(tags) if zero else 0)
    skeleton = _routed_frame(plan, next(tags), next(tags), next(tags),
                             next(tags))
    return _template(skeleton, indent, 0)


@functools.lru_cache(maxsize=8)
def _layout(indent: Optional[int]) -> _Layout:
    tags = _tags()
    return _Layout(
        top=(_top_template(indent, False), _top_template(indent, True)),
        row=_template([next(tags) for _ in range(3)], indent, 2),
        assignment=_container(indent, 2, mapping=True),
        order=_container(indent, 1, mapping=False),
        conversions=_container(indent, 1, mapping=False),
        shards=_container(indent, 1, mapping=True),
    )


@functools.lru_cache(maxsize=1024)
def _shard_template(
    indent: Optional[int], signature: Tuple[int, ...]
) -> _Template:
    """The template of a shard whose output spec and events have the spec
    ranks in *signature* (-1 for no spec).  Its fields are in the order
    :func:`_shard_leaves` appends the leaves."""
    tags = _tags()

    def spec(rank):
        if rank < 0:
            return None
        shape = [next(tags) for _ in range(rank)]
        return SimpleNamespace(shape=shape, dtype=next(tags), name=next(tags))

    out_rank, *event_ranks = signature
    shard = SimpleNamespace(
        **{f: next(tags) for f in _SHARD_LEAVES},
        output_spec=spec(out_rank),
        events=[
            SimpleNamespace(**{f: next(tags) for f in _EVENT_LEAVES},
                            spec=spec(rank))
            for rank in event_ranks
        ],
    )
    return _template(_shard_to_doc(shard), indent, 2)


def _spec_leaves(spec: Optional[TensorSpec], leaves: List) -> int:
    """Append *spec*'s leaves; returns its rank (-1 for no spec)."""
    if spec is None:
        return -1
    shape = tuple(spec.shape)
    leaves += shape
    leaves.append(spec.dtype)
    leaves.append(spec.name)
    return len(shape)


def _shard_leaves(s: NodeShard, leaves: List) -> Tuple[int, ...]:
    """Append *s*'s leaves in template order; returns its signature."""
    leaves += _shard_scalars(s)
    signature = [_spec_leaves(s.output_spec, leaves)]
    for ev in s.events:
        leaves += _event_scalars(ev)
        signature.append(_spec_leaves(ev.spec, leaves))
    return tuple(signature)


# -- stamped shards -------------------------------------------------------------
#
# Routing stamps the repeated instances of a block from one routed template
# and records member → template in ``RoutedPlan._stamps``.  A stamped shard's
# text is its template's with a few leaves swapped — the shard's name and
# output spec, and each event's node, src and spec name — so the writer
# renders each template's text once with those leaves left as fields and
# fills them per member (see :meth:`RoutedPlan.stamp_sources` for when the
# record holds).

#: fill-order positions of an event's node and src among its leaves
_EVENT_NODE = _EVENT_LEAVES.index("node")
_EVENT_SRC = _EVENT_LEAVES.index("src")


@functools.lru_cache(maxsize=1024)
def _stamp_slots(signature: Tuple[int, ...]) -> Tuple[int, ...]:
    """Fill-order positions of the leaves a stamped shard writes itself, in
    the order :func:`_stamp_leaves` appends them."""
    out_rank, *event_ranks = signature
    slots = [_SHARD_LEAVES.index("name")]
    k = len(_SHARD_LEAVES)
    if out_rank >= 0:
        slots += range(k, k + out_rank + 2)  # the output spec's every leaf
        k += out_rank + 2
    for rank in event_ranks:
        slots += (k + _EVENT_NODE, k + _EVENT_SRC)
        k += len(_EVENT_LEAVES)
        if rank >= 0:
            k += rank + 2
            slots.append(k - 1)     # the spec's name, after shape and dtype
    return tuple(slots)


def _stamp_leaves(s: NodeShard, leaves: List) -> None:
    leaves.append(s.name)
    _spec_leaves(s.output_spec, leaves)
    for ev in s.events:
        leaves += (ev.node, ev.src)
        if ev.spec is not None:
            leaves.append(ev.spec.name)


def _stamped(template: _Template, signature, texts: List[str]) -> _Template:
    """*template* filled with a walked shard's leaf *texts*, except its
    stamp slots, which stay fields."""
    slots = _stamp_slots(signature)
    values = [t.replace("%", "%%") for t in texts]
    for k in slots:
        values[k] = "%s"
    where = {k: i for i, k in enumerate(slots)}
    order = [where[k] for k in template.fields if k in where]
    return _Template(template.fill(values), itemgetter(*order), len(slots),
                     tuple(order))


def _write_routed(routed: RoutedPlan, indent: Optional[int]) -> str:
    layout = _layout(indent)
    plan = routed.plan
    assignment = dict(plan.assignment)
    if not (_STR.issuperset(map(type, assignment))
            and _STR.issuperset(map(type, routed.shards))):
        raise _Irregular  # json would convert the keys, then sort again
    assignment = sorted(assignment.items())
    order = list(routed.order)
    rows = _conversion_rows(routed)
    zero = bool(plan.zero_stage)

    # every leaf of the document, in the order the pieces below consume them
    leaves = [plan.name, plan.tp_degree, plan.zero_stage][:2 + zero]
    leaves += itertools.chain.from_iterable(assignment)
    leaves += order
    leaves += itertools.chain.from_iterable(rows)
    #: per shard: its template, or the walked shard it is stamped from,
    #: and the position of its first leaf
    shards = []
    #: walked shard → (signature, position of its first leaf)
    walked: Dict[str, Tuple] = {}
    sources = routed.stamp_sources()
    for name, s in sorted(routed.shards.items()):
        leaves.append(name)
        start = len(leaves)
        source = sources.get(name)
        if source is not None:
            _stamp_leaves(s, leaves)
            shards.append((source.name, start))
        else:
            signature = _shard_leaves(s, leaves)
            walked[name] = (signature, start)
            shards.append((_shard_template(indent, signature), start))
    texts = _encode_leaves(leaves)
    del leaves

    at = 0

    def take(n):
        nonlocal at
        at += n
        return texts[at - n:at]

    head = take(2 + zero)
    colon = layout.assignment.colon
    pairs = iter(take(2 * len(assignment)))
    assignment = [k + colon + v for k, v in zip(pairs, pairs)]
    order = take(len(order))
    row = layout.row
    rows = [row.fill(take(row.size)) for _ in rows]
    stamped: Dict[str, _Template] = {}
    colon = layout.shards.colon
    pieces = []
    for template, start in shards:
        if not isinstance(template, _Template):
            source = template
            template = stamped.get(source)
            if template is None:
                signature, first = walked[source]
                full = _shard_template(indent, signature)
                template = stamped[source] = _stamped(
                    full, signature, texts[first:first + full.size]
                )
        pieces.append(texts[start - 1] + colon
                      + template.fill(texts[start:start + template.size]))
    del texts, stamped  # free before the document is assembled
    return layout.top[zero].fill([
        *head,
        layout.assignment.join(assignment),
        layout.order.join(order),
        layout.conversions.join(rows),
        layout.shards.join(pieces),
    ])


def routed_to_json(routed: RoutedPlan, indent: Optional[int] = 2) -> str:
    """Serialise a fully routed plan to JSON.

    The output is byte-identical to ``json.dumps(doc, indent=indent,
    sort_keys=True)`` of the oracle document (:func:`_routed_doc`); the
    template writer above produces it without json's pure-Python indent
    encoder.  Plans the writer cannot encode exactly (see
    :class:`_Irregular`), and non-integer indents, go through the oracle.
    """
    if indent is None or type(indent) is int:
        try:
            return _write_routed(routed, indent)
        except _Irregular:
            pass
    return json.dumps(_routed_doc(routed), indent=indent, sort_keys=True)


def routed_from_json(
    text: str, node_graph: Optional[NodeGraph] = None
) -> RoutedPlan:
    """Parse a serialised routed plan: with a graph, verified; without
    one, structure only.

    Cache fields come back *empty* regardless of document content (a
    document claiming to carry one is rejected as corrupt).  With a graph
    the full static verifier runs over the result and a finding raises
    :class:`PlanLoadError`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanLoadError(f"not valid JSON: {exc}") from exc
    return routed_from_doc(doc, node_graph)


def routed_from_doc(
    doc, node_graph: Optional[NodeGraph] = None
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
    if node_graph is not None:
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


def load_routed(path, node_graph: Optional[NodeGraph] = None) -> RoutedPlan:
    """Read a routed plan from *path*: with a graph, verified; without
    one, structure only (see :func:`routed_from_json`)."""
    with open(path) as fh:
        return routed_from_json(fh.read(), node_graph)


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

    def to_json(self) -> str:
        """Re-serialise this envelope (inverse of :func:`envelope_from_json`)."""
        return envelope_to_json(
            self.routed,
            key=self.key,
            fingerprints=self.fingerprints,
            engine=self.engine,
            timings=self.timings,
            cost=self.cost,
            created=self.created,
        )


def _splice(doc: Dict, field: str, text: str) -> str:
    """``json.dumps(doc, sort_keys=True)`` with *text* as ``doc[field]``'s
    already-encoded value.

    The field is dumped as a marker string that is then replaced; a header
    value that happens to contain the quoted marker lengthens it, so the
    one occurrence replaced is always the field's own.
    """
    marker = "@payload@"
    while True:
        doc[field] = marker
        out = json.dumps(doc, sort_keys=True)
        quoted = encode_basestring_ascii(marker)
        if out.count(quoted) == 1:
            return out.replace(quoted, text)
        marker += "@"


def envelope_to_json(
    routed: RoutedPlan,
    *,
    key: str,
    fingerprints: Dict[str, str],
    engine: str,
    timings: Dict[str, float],
    cost: float,
    created: str = "",
) -> str:
    """Wrap a routed plan in a versioned cache envelope.

    The payload is :func:`routed_to_json`'s compact text spliced into the
    header's, so the plan is encoded once and never parsed back.
    """
    doc = _envelope_header_doc(
        _PLAN_ENVELOPE, key, fingerprints, engine, timings, created
    )
    doc["cost"] = cost
    return _splice(doc, "payload", routed_to_json(routed, indent=None))


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

    def to_json(self) -> str:
        return sim_envelope_to_json(
            self.profiles,
            key=self.key,
            fingerprints=self.fingerprints,
            engine=self.engine,
            timings=self.timings,
            created=self.created,
        )


def sim_envelope_to_json(
    profiles: List[Dict],
    *,
    key: str,
    fingerprints: Dict[str, str],
    engine: str,
    timings: Dict[str, float],
    created: str = "",
) -> str:
    """Wrap per-plan simulation profiles in a versioned cache envelope."""
    doc = _envelope_header_doc(
        _SIM_ENVELOPE, key, fingerprints, engine, timings, created
    )
    doc["profiles"] = profiles
    return json.dumps(doc, sort_keys=True)


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
