"""The service's batched what-if surface: PlannerService.simulate + /simulate."""

import json

import pytest

from repro.service import (
    DEFAULT_SIM_PLANS,
    PlannerClient,
    PlannerServer,
    PlannerService,
    PlanRequest,
    ServiceError,
    SimulateRequest,
)
from repro.service.requests import request_key, simulate_request_key

SIM_REQ = SimulateRequest(model="clip_base", mesh_nodes=2, mesh_gpus=8,
                          batch_tokens=8192, plans=("dp", "megatron"))


class TestRequestAndKey:
    def test_defaults(self):
        req = SimulateRequest(model="clip_base")
        assert req.plans == DEFAULT_SIM_PLANS
        assert req.effective_tp() == req.mesh_gpus

    def test_doc_roundtrip(self):
        doc = SIM_REQ.to_doc()
        assert SimulateRequest.from_doc(doc) == SIM_REQ
        with pytest.raises(ValueError, match="unknown"):
            SimulateRequest.from_doc(dict(doc, bogus=1))

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulateRequest(model="clip_base", plans=())
        with pytest.raises(ValueError):
            SimulateRequest(model="clip_base", tp_degree=0)

    def test_retired_replay_tier_rejected(self):
        # a request names no tier at all, retired or current
        with pytest.raises(ValueError, match="'engine'"):
            SimulateRequest.from_doc(dict(SIM_REQ.to_doc(), engine="replay"))

    def test_key_is_stable_and_prefixed(self):
        k1, fps1 = simulate_request_key(SIM_REQ)
        k2, fps2 = simulate_request_key(SIM_REQ)
        assert k1 == k2 and fps1 == fps2
        assert k1.startswith("sim-")
        assert "plans" in fps1

    def test_key_disjoint_from_plan_keys(self):
        plan_key, _ = request_key(
            PlanRequest(model="clip_base", mesh_nodes=2, mesh_gpus=8,
                        batch_tokens=8192)
        )
        sim_key, _ = simulate_request_key(SIM_REQ)
        assert sim_key != plan_key
        # the sim key embeds the base key, so the shared fingerprints agree
        assert plan_key in sim_key

    def test_key_tracks_plans_and_tp(self):
        # the plan set and the degree the builders shard to are part of
        # the identity; the embedded search request's knobs ride in the
        # shared config fingerprint
        k, _ = simulate_request_key(SIM_REQ)
        for change in ({"plans": ("dp",)}, {"tp_degree": 4}):
            other, _ = simulate_request_key(
                SimulateRequest(**dict(SIM_REQ.to_doc(), **change))
            )
            assert other != k
        assert simulate_request_key(
            SimulateRequest(**dict(SIM_REQ.to_doc(), tp_degree=8))
        )[0] == k


class TestServiceSimulate:
    def test_miss_then_memory_hit_bit_identical(self, tmp_path):
        with PlannerService(tmp_path, workers=None) as svc:
            r1 = svc.simulate(SIM_REQ)
            r2 = svc.simulate(SIM_REQ)
            counters = svc.stats()["counters"]
        assert r1.source == "simulate" and not r1.cached
        assert r2.source == "memory" and r2.cached
        assert r1.key == r2.key == svc.simulate_key(SIM_REQ)
        assert r1.envelope.to_json() == r2.envelope.to_json()
        assert counters["sim_requests"] == 2
        assert counters["simulations"] == 1

    def test_disk_hit_across_restart(self, tmp_path):
        with PlannerService(tmp_path, workers=None) as svc:
            first = svc.simulate(SIM_REQ)
        with PlannerService(tmp_path, workers=None) as svc:
            again = svc.simulate(SIM_REQ)
        assert again.source == "disk"
        assert again.envelope.to_json() == first.envelope.to_json()

    def test_profile_shape(self, tmp_path):
        with PlannerService(tmp_path, workers=None) as svc:
            resp = svc.simulate(SIM_REQ)
        assert [p["plan"] for p in resp.profiles] == list(SIM_REQ.plans)
        for p in resp.profiles:
            assert p["valid"]
            assert p["profile"]["iteration_time"] > 0
            assert set(p["channels"]) == {"compute", "comm"}
            for ch in p["channels"].values():
                assert ch["tasks"] > 0 and ch["makespan_s"] >= ch["busy_s"]

    def test_tap_label_runs_the_planner(self, tmp_path):
        req = SimulateRequest(model="clip_base", mesh_nodes=2, mesh_gpus=8,
                              batch_tokens=8192, plans=("dp", "tap"))
        with PlannerService(tmp_path, workers=None) as svc:
            resp = svc.simulate(req)
            counters = svc.stats()["counters"]
        assert counters["searches"] == 1
        labels = {p["plan"]: p for p in resp.profiles}
        assert labels["tap"]["valid"]
        assert resp.envelope.timings["tap_search_s"] > 0
        # the searched plan can't be slower than plain data parallel
        assert (labels["tap"]["profile"]["iteration_time"]
                <= labels["dp"]["profile"]["iteration_time"])

    def test_unknown_label_rejected(self, tmp_path):
        req = SimulateRequest(model="clip_base", plans=("dp", "banana"))
        with PlannerService(tmp_path, workers=None) as svc:
            with pytest.raises(ValueError, match="unknown plan label"):
                svc.simulate(req)

    def test_sim_store_uses_sim_prefix(self, tmp_path):
        with PlannerService(tmp_path, workers=None) as svc:
            svc.simulate(SIM_REQ)
            svc.plan(PlanRequest(model="clip_base", mesh_nodes=2, mesh_gpus=8,
                                 batch_tokens=8192))
            stats = svc.stats()
        sim_files = list((tmp_path / "sim").glob("sim-v*.json"))
        assert len(sim_files) == 1
        assert stats["sim_cache"]["disk_entries"] == 1
        # the plan store never globs sim entries and vice versa
        assert stats["cache"]["disk_entries"] == 1

    def test_corrupt_disk_entry_quarantined_and_resimulated(self, tmp_path):
        with PlannerService(tmp_path, workers=None) as svc:
            first = svc.simulate(SIM_REQ)
        path = next((tmp_path / "sim").glob("sim-v*.json"))
        doc = json.loads(path.read_text())
        doc["profiles"] = []
        path.write_text(json.dumps(doc))
        with PlannerService(tmp_path, workers=None) as svc:
            again = svc.simulate(SIM_REQ)
            stats = svc.stats()["sim_cache"]
        assert again.source == "simulate"
        assert stats["quarantined"] == 1
        assert (tmp_path / "sim" / "quarantine").exists()
        # timings/created differ on a re-run; the profiles must not
        assert again.profiles == first.profiles

    def test_closed_service_refuses(self, tmp_path):
        svc = PlannerService(tmp_path, workers=None)
        svc.close()
        with pytest.raises(ServiceError, match="closed"):
            svc.simulate(SIM_REQ)


class TestHttpSimulate:
    @pytest.fixture
    def server(self, tmp_path):
        srv = PlannerServer(
            PlannerService(tmp_path, workers=None), port=0
        ).start_background()
        yield srv
        srv.shutdown()

    def test_roundtrip_and_cache_hit(self, server):
        client = PlannerClient(server.url)
        a = client.simulate(SIM_REQ)
        b = client.simulate(SIM_REQ)
        assert a["source"] == "simulate" and not a["cached"]
        assert b["source"] == "memory" and b["cached"]
        assert a["key"] == b["key"] == a["envelope"]["key"]
        assert a["profiles"] == b["profiles"]
        assert [p["plan"] for p in a["profiles"]] == list(SIM_REQ.plans)
        assert a["engine"] == "columnar"

    def test_unknown_label_maps_to_400(self, server):
        client = PlannerClient(server.url)
        with pytest.raises(ServiceError, match="400"):
            client._call("/simulate", {"model": "clip_base",
                                       "plans": ["banana"]})

    def test_unknown_field_maps_to_400(self, server):
        client = PlannerClient(server.url)
        with pytest.raises(ServiceError, match="400"):
            client._call("/simulate", dict(SIM_REQ.to_doc(), bogus=1))
