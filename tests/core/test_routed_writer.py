"""The routed-plan writer against its oracle.

:func:`routed_to_json` fills text templates; its contract is
``json.dumps(_routed_doc(r), indent=indent, sort_keys=True)`` byte for
byte, and a cache envelope must equal the one built by parsing that
compact payload back and dumping the whole envelope (how envelopes were
written before the payload was spliced in).
"""

import dataclasses
import functools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_REGISTRY,
    CommEvent,
    NodeShard,
    RoutedPlan,
    ShardingPlan,
    coarsen,
    envelope_to_json,
    plan_request,
    route_plan,
    routed_from_json,
    routed_to_json,
)
from repro.core import serialize
from repro.graph import TensorSpec, trim_auxiliary
from repro.graph.tensor import DTYPE_SIZES
from repro.models import MODEL_PRESETS, build_preset
from repro.verify import verify_routed

HEADER = dict(
    key="v1-writer",
    fingerprints={"graph": "a" * 64, "mesh": "b" * 64, "config": "c" * 64},
    engine="columnar",
    timings={"search_s": 0.25, "route_s": 1e-3},
    cost=0.125,
    created="2026-01-01T00:00:00+00:00",
)

MESHES = ((1, 8), (2, 8), (4, 4))

#: the tier-1 subset of the zoo sweep: every mesh and ZeRO setting, and
#: a transformer, a CNN and an MoE preset
FAST_CASES = (
    ("clip_base", (2, 8), 0),
    ("clip_base", (2, 8), 1),
    ("resnet50", (4, 4), 0),
    ("t5_large", (1, 8), 1),
    ("moe_deep", (2, 8), 0),
)


def oracle(routed, indent=2):
    return json.dumps(serialize._routed_doc(routed), indent=indent,
                      sort_keys=True)


def oracle_envelope(routed, header=HEADER):
    doc = serialize._envelope_header_doc(
        serialize._PLAN_ENVELOPE, header["key"], header["fingerprints"],
        header["engine"], header["timings"], header["created"],
    )
    doc["cost"] = header["cost"]
    doc["payload"] = json.loads(oracle(routed, indent=None))
    return json.dumps(doc, sort_keys=True)


def assert_matches_oracle(routed, header=HEADER):
    for indent in (2, None):
        assert routed_to_json(routed, indent=indent) == oracle(routed, indent)
    assert envelope_to_json(routed, **header) == oracle_envelope(routed, header)


@functools.lru_cache(maxsize=None)
def node_graph(preset):
    trimmed, _ = trim_auxiliary(build_preset(preset))
    return coarsen(trimmed)


def winner(preset, mesh, zero_stage):
    return plan_request(node_graph(preset), list(mesh),
                        zero_stage=zero_stage).routed


# ---------------------------------------------------------------------------
# the zoo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset,mesh,zero_stage", FAST_CASES)
def test_zoo_subset_matches_oracle(preset, mesh, zero_stage):
    assert_matches_oracle(winner(preset, mesh, zero_stage))


@pytest.mark.slow
@pytest.mark.parametrize("zero_stage", (0, 1))
@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: "%dx%d" % m)
@pytest.mark.parametrize("preset", sorted(MODEL_PRESETS))
def test_zoo_matches_oracle(preset, mesh, zero_stage):
    assert_matches_oracle(winner(preset, mesh, zero_stage))


# ---------------------------------------------------------------------------
# fuzzed shard values
# ---------------------------------------------------------------------------

#: strings that stress the encoder and the templates: quotes, backslashes,
#: format and template syntax, sentinel look-alikes, control and non-ASCII
#: characters
TRICKY = st.sampled_from(
    ['"', "\\", "%s", "%", "{0}", "{", "}}", '"@0@"', "@shards@", "\n\t",
     "\x00", "é", "日本", "\U0001f600", ""]
)
TEXT = st.one_of(TRICKY, st.text(max_size=8))
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324]),
)
INTS = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)


@st.composite
def specs(draw):
    if draw(st.booleans()):
        return None
    dims = st.one_of(st.just(-1), st.integers(min_value=1, max_value=2 ** 40))
    return TensorSpec(
        tuple(draw(st.lists(dims, max_size=4))),  # includes 0-d shapes
        draw(st.sampled_from(sorted(DTYPE_SIZES))),
        draw(TEXT),
    )


@st.composite
def events(draw):
    return CommEvent(
        phase=draw(st.sampled_from(["forward", "backward"])),
        collective=draw(TEXT),
        axis=draw(st.sampled_from(["tp", "dp", "all"])),
        spec=draw(specs()),
        scales_with_batch=draw(st.booleans()),
        node=draw(TEXT),
        overlappable=draw(st.booleans()),
        src=draw(TEXT),
    )


@st.composite
def shards(draw):
    return NodeShard(
        name=draw(TEXT),
        kind=draw(TEXT),
        pattern=draw(TEXT),
        input_layout=draw(TEXT),
        output_layout=draw(TEXT),
        local_weight_bytes=draw(INTS),
        full_weight_bytes=draw(INTS),
        local_parameters=draw(INTS),
        compute_share=draw(FLOATS),
        flops=draw(INTS),
        bwd_input_reduction=draw(st.booleans()),
        output_spec=draw(specs()),
        events=draw(st.lists(events(), max_size=3)),
    )


@st.composite
def routed_plans(draw):
    plan = ShardingPlan.of(
        draw(st.dictionaries(TEXT, TEXT, max_size=4)),
        draw(st.integers(min_value=1, max_value=64)),
        name=draw(TEXT),
        zero_stage=draw(st.sampled_from([0, 1, 2])),
    )
    routed = RoutedPlan(plan=plan)
    routed.shards = draw(st.dictionaries(TEXT, shards(), max_size=4))
    routed.order = draw(st.lists(TEXT, max_size=4))
    routed.conversions = draw(st.dictionaries(st.tuples(TEXT, TEXT), TEXT,
                                              max_size=3))
    return routed


@settings(max_examples=200, deadline=None)
@given(routed_plans())
def test_fuzzed_plans_match_oracle(routed):
    assert_matches_oracle(routed)


@pytest.mark.parametrize("field", ["key", "engine", "created"])
def test_envelope_header_holding_the_splice_marker(field):
    routed = winner("clip_base", (2, 8), 0)
    for value in ("@payload@", 'x"@payload@', "@payload@@"):
        assert_matches_oracle(routed, {**HEADER, field: value})


def test_empty_plan_matches_oracle():
    routed = RoutedPlan(plan=ShardingPlan(()))
    assert not routed.shards and not routed.order and not routed.conversions
    assert_matches_oracle(routed)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    def __repr__(self):
        return "not json's spelling"


def _irregular_plans():
    """(label, routed plan) pairs holding values outside json's exact leaf
    types; the oracle decides what the document is."""
    def shard(**overrides):
        base = dict(name="n", kind="matmul", pattern="p", input_layout="D",
                    output_layout="S", output_spec=TensorSpec((2, 3)))
        base.update(overrides)
        return NodeShard(**base)

    cases = {
        "str-subclass": shard(kind=_Str("matmul")),
        "int-subclass": shard(flops=_Int(7)),
        "float-subclass": shard(compute_share=_Float(0.5)),
        "bool-in-int-field": shard(flops=True),
        "float-in-int-field": shard(flops=3.0),
        "list-leaf": shard(pattern=["a", ["b"]]),
        "dict-leaf": shard(pattern={"b": 1, "a": [2]}),
        "tuple-leaf": shard(kind=("x", 1)),
        "rejected-object": shard(pattern=object()),
        "rejected-complex": shard(compute_share=1j),
    }
    for label, s in cases.items():
        routed = RoutedPlan(plan=ShardingPlan.of({"n": "p"}, 2))
        routed.shards["n"] = s
        routed.order = ["n"]
        yield label, routed
    numeric_keys = RoutedPlan(plan=ShardingPlan.of({}, 2))
    numeric_keys.shards = {10: shard(), 9: shard()}
    yield "int-shard-keys", numeric_keys
    mixed_keys = RoutedPlan(plan=ShardingPlan.of({}, 2))
    mixed_keys.shards = {1: shard(), "a": shard()}
    yield "mixed-shard-keys", mixed_keys
    zero = RoutedPlan(plan=ShardingPlan((), 2, name=_Str("n"), zero_stage=1))
    yield "plan-name-subclass", zero


@pytest.mark.parametrize("label,routed", list(_irregular_plans()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_irregular_values_written_or_rejected_as_json_does(label, routed):
    for indent in (2, None, "\t"):
        try:
            expected = oracle(routed, indent)
        except Exception as exc:  # json's verdict, whatever it is
            with pytest.raises(type(exc)) as got:
                routed_to_json(routed, indent=indent)
            assert str(got.value) == str(exc)
        else:
            assert routed_to_json(routed, indent=indent) == expected


# ---------------------------------------------------------------------------
# field guard: a new dataclass field must reach the document
# ---------------------------------------------------------------------------

def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls) if f.compare}


def test_every_field_is_written():
    spec = TensorSpec((-1, 4), "float16", "act")
    event = CommEvent("forward", "all_gather", "tp", spec, True, "n")
    routed = RoutedPlan(plan=ShardingPlan.of({"n": "p"}, 2))
    routed.shards["n"] = NodeShard("n", "matmul", "p", "D", "S",
                                   output_spec=spec, events=[event])
    shard_doc = json.loads(routed_to_json(routed))["shards"]["n"]
    assert set(shard_doc) == _field_names(NodeShard)
    assert set(shard_doc["events"][0]) == _field_names(CommEvent)
    assert set(shard_doc["output_spec"]) == _field_names(TensorSpec)
    assert set(shard_doc["events"][0]["spec"]) == _field_names(TensorSpec)
    # and every value comes back: the document is the whole shard
    assert routed_from_json(routed_to_json(routed)) == routed


# ---------------------------------------------------------------------------
# the pattern lookup behind routing and verification
# ---------------------------------------------------------------------------

def test_pattern_map_built_once_per_plan(monkeypatch):
    ng = node_graph("gpt3_like")
    plan = plan_request(ng, [2, 8]).plan
    assert len(plan.assignment) == 576

    cached = ShardingPlan.__dict__["_patterns"]
    built = []  # every plan whose mapping was built, pinned so ids stay unique
    build = cached.func

    def counting_build(p):
        built.append(p)
        return build(p)

    looked_up = []
    pattern_for = ShardingPlan.pattern_for

    def counting_pattern_for(p, name):
        looked_up.append(p)
        return pattern_for(p, name)

    monkeypatch.setattr(cached, "func", counting_build)
    monkeypatch.setattr(ShardingPlan, "pattern_for", counting_pattern_for)
    # a plan equal to the winner whose mapping was never built
    plan = ShardingPlan(plan.assignment, plan.tp_degree, plan.name,
                        plan.zero_stage)
    routed = route_plan(ng, plan, DEFAULT_REGISTRY)
    assert verify_routed(ng, routed).ok

    # routing and the verifier each look up every weight node ...
    assert sum(p is plan for p in looked_up) >= 2 * len(ng.weight_nodes())
    # ... and the mapping behind the lookups is built at most once per plan
    assert sum(p is plan for p in built) == 1
    assert len({id(p) for p in built}) == len(built)
