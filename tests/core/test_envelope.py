"""Cache envelopes: serialisation round trip, corruption detection."""

import json

import pytest

from repro.cluster import paper_testbed
from repro.core import (
    CostConfig,
    PlanLoadError,
    coarsen,
    envelope_from_json,
    envelope_to_json,
    plan_cache_key,
    plan_request,
    routed_from_json,
    routed_to_json,
    sim_envelope_from_json,
    sim_envelope_to_json,
)
from repro.graph import trim_auxiliary
from repro.models import build_preset

FPS = {"graph": "a" * 64, "mesh": "b" * 64, "config": "c" * 64}

#: the field carrying each envelope kind's payload
PAYLOAD = {"repro.plan_cache_entry": "payload", "repro.sim_cache_entry": "profiles"}
#: how load errors name each envelope kind
LABEL = {"repro.plan_cache_entry": "plan-cache",
         "repro.sim_cache_entry": "simulation-cache"}


@pytest.fixture(scope="module")
def envelope():
    trimmed, _ = trim_auxiliary(build_preset("clip_base"))
    ng = coarsen(trimmed)
    mesh = paper_testbed(2, 8)
    cfg = CostConfig(batch_tokens=8192)
    key = plan_cache_key(ng, mesh, cfg)
    search = plan_request(ng, mesh, cfg)
    text = envelope_to_json(
        search.routed,
        key=key,
        fingerprints=FPS,
        engine="engine",
        timings={"search_seconds": search.search_seconds, "wall_seconds": 0.5},
        cost=search.cost,
        created="2026-08-08T00:00:00+00:00",
    )
    return key, text, ng, search


def test_roundtrip_is_bit_identical(envelope):
    key, text, ng, search = envelope
    env = envelope_from_json(text, ng, expected_key=key)
    assert env.key == key
    assert env.engine == "engine"
    assert env.cost == search.cost
    assert env.fingerprints == FPS
    assert env.timings["wall_seconds"] == 0.5
    # the payload round-trips the routed plan byte for byte
    assert routed_to_json(env.routed) == routed_to_json(search.routed)
    assert env.to_json() == text


def test_verify_on_load_catches_tampered_payload(envelope):
    key, text, ng, _ = envelope
    doc = json.loads(text)
    shard = next(iter(doc["payload"]["shards"].values()))
    # forge a layout that independent propagation cannot produce
    shard["output_layout"] = "forged_layout"
    with pytest.raises(PlanLoadError, match="static verification"):
        envelope_from_json(json.dumps(doc), ng, expected_key=key)


def _legacy_claims(routed):
    """The per-consumer ``claims`` table older writers stored beside the
    conversions: each consumer lists the ``[src, layout, collective]``
    entries it added, in routing order."""
    claims, seen = {}, set()
    for name in routed.order:
        shard = routed.shards[name]
        for ev in shard.events:
            key = (ev.src, shard.input_layout)
            if ev.src and key not in seen:
                seen.add(key)
                claims.setdefault(name, []).append(
                    [ev.src, shard.input_layout, routed.conversions[key]]
                )
    return claims


def test_documents_with_legacy_claims_still_load(envelope):
    key, text, ng, search = envelope
    claims = _legacy_claims(search.routed)
    assert claims  # clip_base@2x8 routes real conversions

    routed_doc = json.loads(routed_to_json(search.routed))
    routed_doc["claims"] = claims
    old_routed = routed_from_json(json.dumps(routed_doc), ng)  # verifies
    assert old_routed == routed_from_json(routed_to_json(search.routed), ng)

    env_doc = json.loads(text)
    env_doc["payload"]["claims"] = claims
    old_env = envelope_from_json(json.dumps(env_doc), ng, expected_key=key)
    new_env = envelope_from_json(text, ng, expected_key=key)
    assert old_env.routed == new_env.routed
    assert routed_to_json(old_env.routed) == routed_to_json(search.routed)


@pytest.fixture(scope="module")
def envelope_kinds(envelope):
    """One valid document per envelope kind, with the parser that reads it."""
    key, text, _, _ = envelope
    sim_text = sim_envelope_to_json(
        [{"plan": "dp", "valid": False}],
        key=f"sim-{key}",
        fingerprints=dict(FPS, plans="d" * 64),
        engine="columnar",
        timings={"simulate_s": 0.001},
    )
    return [(text, envelope_from_json), (sim_text, sim_envelope_from_json)]


def _without(mapping, name):
    return {k: v for k, v in mapping.items() if k != name}


# Each mutation maps a valid document to a corrupt one; every one must be
# rejected by the shared header parser for the plan and the sim kind alike.
# A message naming the plan-cache kind names the sim kind on the sim leg.
@pytest.mark.parametrize("mutate, message", [
    (lambda d: {**d, "kind": "something_else"}, "not a plan-cache envelope"),
    (lambda d: [d], "document is not a"),
    (lambda d: {**d, "schema": d["schema"] + 1}, "schema version"),
    (lambda d: {**d, "envelope": d["envelope"] + 1}, "envelope version"),
    (lambda d: {**d, "key": ""}, "no cache key"),
    (lambda d: {**d, "fingerprints": [1, 2]}, "fingerprints"),
    (lambda d: {**d, "fingerprints": _without(d["fingerprints"], "mesh")},
     "fingerprint 'mesh' is missing"),
    (lambda d: {**d, "fingerprints": {**d["fingerprints"], "graph": "zz"}},
     "64-hex digest"),
    (lambda d: {**d, "timings": "fast"}, "timings"),
    (lambda d: {**d, "timings": {"wall_seconds": "slow"}},
     "timings must be numbers"),
    (lambda d: _without(d, PAYLOAD[d["kind"]]), None),
])
def test_malformed_envelopes_raise_plan_load_error(
    envelope_kinds, mutate, message
):
    for text, parse in envelope_kinds:
        doc = json.loads(text)
        with pytest.raises(PlanLoadError) as err:
            parse(json.dumps(mutate(doc)))
        if message:
            expected = message.replace("plan-cache", LABEL[doc["kind"]])
            assert expected in str(err.value)


def test_invalid_cost_rejected(envelope):
    _, text, _, _ = envelope
    doc = dict(json.loads(text), cost="cheap")
    with pytest.raises(PlanLoadError, match="cost"):
        envelope_from_json(json.dumps(doc))


def test_truncated_json_raises(envelope):
    _, text, _, _ = envelope
    with pytest.raises(PlanLoadError, match="not valid JSON"):
        envelope_from_json(text[: len(text) // 2])


def test_key_slot_mismatch_rejected(envelope):
    key, text, _, _ = envelope
    with pytest.raises(PlanLoadError, match="does not match its slot"):
        envelope_from_json(text, expected_key=key[:-4] + "beef")
