"""Simulation-cache envelopes: round trip, corruption detection (the
shared header checks also run in test_envelope.py over both kinds)."""

import json

import pytest

from repro.core import (
    PlanLoadError,
    SIM_ENVELOPE_VERSION,
    SimEnvelope,
    sim_envelope_from_json,
    sim_envelope_to_json,
)

KEY = "sim-v1-g" + "a" * 12 + "-m" + "b" * 12 + "-c" + "c" * 12 + "-p" + "d" * 16
FPS = {"graph": "a" * 64, "mesh": "b" * 64, "config": "c" * 64, "plans": "d" * 64}

PROFILE = {
    "forward_time": 0.0125,
    "backward_time": 0.025,
    "iteration_time": 0.0415,
    "compute_time": 0.0375,
    "comm_time": 0.005,
    "exposed_comm_time": 0.001,
    "gradient_sync_time": 0.004,
    "num_gradient_buckets": 4,
    "overlap_efficiency": 0.8,
}


def make_text(profiles=None, **overrides):
    if profiles is None:
        profiles = [
            {
                "plan": "megatron",
                "valid": True,
                "profile": dict(PROFILE),
                "channels": {
                    "compute": {"busy_s": 0.03, "idle_s": 0.01,
                                "makespan_s": 0.04, "tasks": 96},
                    "comm": {"busy_s": 0.005, "idle_s": 0.035,
                             "makespan_s": 0.04, "tasks": 48},
                },
            },
            {"plan": "weird", "valid": False},
        ]
    kwargs = dict(
        key=KEY,
        fingerprints=FPS,
        engine="columnar",
        timings={"simulate_s": 0.002, "tap_search_s": 0.0},
        created="2026-08-08T00:00:00+00:00",
    )
    kwargs.update(overrides)
    return sim_envelope_to_json(profiles, **kwargs)


def corrupt(text, **patch):
    doc = json.loads(text)
    doc.update(patch)
    return json.dumps(doc)


def test_roundtrip_is_bit_identical():
    text = make_text()
    env = sim_envelope_from_json(text, expected_key=KEY)
    assert isinstance(env, SimEnvelope)
    assert env.key == KEY
    assert env.engine == "columnar"
    assert env.fingerprints == FPS
    assert env.timings["simulate_s"] == 0.002
    assert env.profiles[0]["profile"] == PROFILE
    assert env.profiles[1] == {"plan": "weird", "valid": False}
    assert env.to_json() == text


def test_key_slot_cross_check():
    text = make_text()
    with pytest.raises(PlanLoadError, match="does not match its slot"):
        sim_envelope_from_json(text, expected_key="sim-v1-other")
    # no expected key → no cross-check
    assert sim_envelope_from_json(text).key == KEY


def test_not_json():
    with pytest.raises(PlanLoadError, match="not valid JSON"):
        sim_envelope_from_json("{truncated")


def test_wrong_kind_rejected():
    with pytest.raises(PlanLoadError, match="not a simulation-cache"):
        sim_envelope_from_json(corrupt(make_text(), kind="repro.cache_entry"))


def test_future_envelope_version_rejected():
    bad = corrupt(make_text(), envelope=SIM_ENVELOPE_VERSION + 1)
    with pytest.raises(PlanLoadError, match="simulation-cache version"):
        sim_envelope_from_json(bad)


def test_missing_key_rejected():
    with pytest.raises(PlanLoadError, match="no cache key"):
        sim_envelope_from_json(corrupt(make_text(), key=""))


def test_bad_fingerprints_rejected():
    with pytest.raises(PlanLoadError, match="fingerprints"):
        sim_envelope_from_json(corrupt(make_text(), fingerprints=[1, 2]))


def test_empty_profile_list_rejected():
    with pytest.raises(PlanLoadError, match="non-empty profile list"):
        sim_envelope_from_json(corrupt(make_text(), profiles=[]))


def test_profile_missing_field_rejected():
    prof = dict(PROFILE)
    del prof["iteration_time"]
    text = make_text(profiles=[{"plan": "p", "valid": True, "profile": prof}])
    with pytest.raises(PlanLoadError, match="iteration_time"):
        sim_envelope_from_json(text)


def test_profile_negative_time_rejected():
    prof = dict(PROFILE, comm_time=-0.001)
    text = make_text(profiles=[{"plan": "p", "valid": True, "profile": prof}])
    with pytest.raises(PlanLoadError, match="negative comm_time"):
        sim_envelope_from_json(text)


def test_profile_non_numeric_rejected():
    prof = dict(PROFILE, exposed_comm_time="fast")
    text = make_text(profiles=[{"plan": "p", "valid": True, "profile": prof}])
    with pytest.raises(PlanLoadError, match="exposed_comm_time"):
        sim_envelope_from_json(text)


def test_profile_must_name_its_plan():
    text = make_text(profiles=[{"valid": True, "profile": dict(PROFILE)}])
    with pytest.raises(PlanLoadError, match="name its plan"):
        sim_envelope_from_json(text)


def test_invalid_slot_needs_no_profile():
    text = make_text(profiles=[{"plan": "broken", "valid": False},
                               {"plan": "ok", "profile": dict(PROFILE)}])
    env = sim_envelope_from_json(text)
    assert env.profiles[0] == {"plan": "broken", "valid": False}
    # "valid" defaults to True, so the second slot is fully checked
    assert env.profiles[1]["profile"] == PROFILE
