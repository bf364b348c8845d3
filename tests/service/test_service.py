"""PlannerService orchestration: hits, coalescing, admission, lifecycle."""

import json
import threading

import pytest

from repro.core import routed_to_json
from repro.service import (
    PlannerService,
    PlanRequest,
    ServiceError,
    ServiceOverloadedError,
    SimulateRequest,
)

REQ = PlanRequest(model="clip_base", mesh_nodes=2, mesh_gpus=8,
                  batch_tokens=8192)
SIM_REQ = SimulateRequest(model="clip_base", mesh_nodes=2, mesh_gpus=8,
                          batch_tokens=8192, plans=("dp", "megatron"))


def test_miss_then_memory_hit_bit_identical(tmp_path):
    with PlannerService(tmp_path, workers=None) as svc:
        r1 = svc.plan(REQ)
        r2 = svc.plan(REQ)
    assert r1.source == "search" and not r1.cached
    assert r2.source == "memory" and r2.cached
    assert r1.key == r2.key
    # warm hits are bit-identical to the cold search result
    assert routed_to_json(r1.routed) == routed_to_json(r2.routed)
    assert r1.envelope.to_json() == r2.envelope.to_json()


def test_warm_restart_from_disk(tmp_path):
    with PlannerService(tmp_path, workers=None) as svc:
        first = svc.plan(REQ)
    # same directory, fresh process-equivalent: the LRU starts empty and
    # fills from verified disk hits
    with PlannerService(tmp_path, workers=None) as svc:
        again = svc.plan(REQ)
        third = svc.plan(REQ)
        assert svc.cache.stats.quarantined == 0
    assert again.source == "disk" and third.source == "memory"
    assert again.envelope.to_json() == first.envelope.to_json()


def test_restart_quarantines_tampered_blob(tmp_path):
    """A blob that parses but no longer verifies is never served after a
    restart: it is quarantined and the request is searched again."""
    with PlannerService(tmp_path, workers=None) as svc:
        first = svc.plan(REQ)
    path = tmp_path / f"{first.key}.json"
    doc = json.loads(path.read_text())
    # flip one sharded shard's output layout: still parseable, no longer
    # what independent layout propagation derives
    shard = next(
        s for s in doc["payload"]["shards"].values() if s["output_layout"] == "S"
    )
    shard["output_layout"] = "D"
    path.write_text(json.dumps(doc, sort_keys=True))
    with PlannerService(tmp_path, workers=None) as svc:
        again = svc.plan(REQ)
        assert svc.cache.stats.quarantined == 1
    assert again.source == "search"
    assert (tmp_path / "quarantine" / path.name).exists()
    assert routed_to_json(again.routed) == routed_to_json(first.routed)


def test_retired_tier_envelopes_still_serve(tmp_path):
    """Disk entries written by builds that defaulted to the retired
    ``engine`` search tier and ``replay`` simulation tier keep loading,
    verifying and serving; fresh misses record the columnar tier."""
    with PlannerService(tmp_path, workers=None) as svc:
        fresh = svc.plan(REQ)
        fresh_sim = svc.simulate(SIM_REQ)
    assert fresh.envelope.engine == "columnar"
    assert fresh_sim.envelope.engine == "columnar"
    for key, tier in ((fresh.key, "engine"), (fresh_sim.key, "replay")):
        (path,) = tmp_path.rglob(f"{key}.json")
        doc = json.loads(path.read_text())
        doc["engine"] = tier
        path.write_text(json.dumps(doc, sort_keys=True))
    with PlannerService(tmp_path, workers=None) as svc:
        again = svc.plan(REQ)
        again_sim = svc.simulate(SIM_REQ)
        assert svc.cache.stats.quarantined == 0
    assert again.source == "disk" and again.envelope.engine == "engine"
    assert routed_to_json(again.routed) == routed_to_json(fresh.routed)
    assert again_sim.source == "disk" and again_sim.envelope.engine == "replay"


def test_disk_hit_without_preload(tmp_path):
    with PlannerService(tmp_path, workers=None) as svc:
        svc.plan(REQ)
    with PlannerService(tmp_path, workers=None) as svc:
        assert svc.plan(REQ).source == "disk"


def test_concurrent_duplicates_run_one_search(tmp_path):
    n = 6
    with PlannerService(tmp_path, workers=None, queue_limit=n) as svc:
        barrier = threading.Barrier(n)
        responses = [None] * n

        def go(i):
            barrier.wait()
            responses[i] = svc.plan(REQ, timeout=300)

        threads = [threading.Thread(target=go, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counters = svc.stats()["counters"]
    assert counters["requests"] == n
    assert counters["searches"] == 1, counters
    # everyone else coalesced onto the one in-flight search (or arrived
    # just after it published and hit the fresh cache entry)
    assert counters["coalesced"] + svc.cache.stats.memory_hits == n - 1
    assert len({r.envelope.to_json() for r in responses}) == 1
    assert {r.source for r in responses} <= {"search", "coalesced", "memory"}


def test_admission_control_fast_fails(tmp_path):
    """With the one search slot occupied, a request for a *different*
    key is shed immediately instead of queueing."""
    with PlannerService(tmp_path, workers=None, queue_limit=1) as svc:
        # occupy the slot with a fake in-flight search
        from repro.service.planner import _Inflight

        key = svc.request_key(REQ)
        with svc._lock:
            svc._inflight[key] = _Inflight()
        other = PlanRequest(model="clip_base", batch_tokens=4096)
        with pytest.raises(ServiceOverloadedError) as err:
            svc.plan(other)
        assert err.value.limit == 1
        assert svc.stats()["counters"]["overloaded"] == 1
        with svc._lock:
            del svc._inflight[key]
        # after the slot frees, the same request succeeds
        assert svc.plan(other).source == "search"


def test_unknown_preset_is_a_client_error(tmp_path):
    with PlannerService(tmp_path, workers=None) as svc:
        with pytest.raises(KeyError, match="no_such_preset"):
            svc.plan(PlanRequest(model="no_such_preset"))
        # nothing leaked into the in-flight table
        assert svc.stats()["queue"]["inflight"] == 0


def test_search_failure_propagates_and_frees_slot(tmp_path, monkeypatch):
    from repro.service import planner as planner_mod

    def boom(doc):
        raise RuntimeError("worker exploded")

    with PlannerService(tmp_path, workers=None) as svc:
        monkeypatch.setattr(planner_mod, "execute_request", boom)
        with pytest.raises(ServiceError, match="worker exploded"):
            svc.plan(REQ)
        assert svc.stats()["counters"]["errors"] == 1
        assert svc.stats()["queue"]["inflight"] == 0
        monkeypatch.undo()
        # the slot freed: the same request now succeeds
        assert svc.plan(REQ).source == "search"


def test_worker_fleet_executes_misses(tmp_path):
    with PlannerService(tmp_path, workers=1) as svc:
        r1 = svc.plan(REQ)
        r2 = svc.plan(REQ)
        assert r1.source == "search" and r2.source == "memory"
        assert r1.envelope.to_json() == r2.envelope.to_json()
        assert svc.stats()["workers"] == 1


def test_closed_service_rejects_requests(tmp_path):
    svc = PlannerService(tmp_path, workers=None)
    svc.close()
    with pytest.raises(ServiceError):
        svc.plan(REQ)


def test_stats_shape(tmp_path):
    with PlannerService(tmp_path, workers=None) as svc:
        svc.plan(REQ)
        svc.plan(REQ)
        stats = svc.stats()
    assert stats["counters"]["requests"] == 2
    assert stats["cache"]["hit_rate"] == 0.5
    assert stats["latency"]["count"] == 2
    assert stats["latency"]["p50_s"] > 0
    assert stats["latency"]["p99_s"] >= stats["latency"]["p50_s"]
    assert stats["queue"] == {"inflight": 0, "limit": 32}


def test_latency_quantiles_are_nearest_rank():
    from repro.service.planner import _quantile

    assert _quantile([4.0, 1.0, 3.0, 2.0], 0.50) == 2.0
    hundred = [float(v) for v in range(1, 101)]
    assert _quantile(hundred, 0.50) == 50.0
    assert _quantile(hundred, 0.99) == 99.0
    assert _quantile([7.0], 0.99) == 7.0
    assert _quantile([], 0.50) == 0.0
