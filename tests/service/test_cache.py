"""Two-tier plan cache: LRU behaviour, disk persistence, quarantine."""

import json
import threading

import pytest

from repro.cluster import paper_testbed
from repro.core import (
    CostConfig,
    coarsen,
    envelope_to_json,
    plan_cache_key,
    plan_request,
)
from repro.graph import trim_auxiliary
from repro.models import build_preset
from repro.service import PlanCache, QUARANTINE_DIR


@pytest.fixture(scope="module")
def entry():
    """One real (key, envelope_json, node_graph) cache entry."""
    trimmed, _ = trim_auxiliary(build_preset("clip_base"))
    ng = coarsen(trimmed)
    mesh = paper_testbed(2, 8)
    cfg = CostConfig(batch_tokens=8192)
    key = plan_cache_key(ng, mesh, cfg)
    search = plan_request(ng, mesh, cfg)
    text = envelope_to_json(
        search.routed,
        key=key,
        fingerprints={"graph": "a" * 64, "mesh": "b" * 64, "config": "c" * 64},
        engine="engine",
        timings={"search_seconds": search.search_seconds},
        cost=search.cost,
        created="2026-08-08T00:00:00+00:00",
    )
    return key, text, ng


def test_memory_only_cache_roundtrip(entry):
    key, text, ng = entry
    cache = PlanCache(None, capacity=4)
    assert cache.get(key, ng)[0] is None
    env = cache.put(key, text)
    got, tier = cache.get(key, ng)
    assert tier == "memory" and got is env
    assert got.to_json() == env.to_json()
    assert cache.stats.misses == 1 and cache.stats.memory_hits == 1


def test_disk_tier_and_bit_identical_reload(entry, tmp_path):
    key, text, ng = entry
    writer = PlanCache(tmp_path)
    writer.put(key, text)
    assert (tmp_path / f"{key}.json").read_text() == text

    reader = PlanCache(tmp_path)  # fresh LRU, same disk
    env, tier = reader.get(key, ng)
    assert tier == "disk"
    assert env.to_json() == text  # bit-identical through the round trip
    # promoted into memory now
    assert reader.get(key, ng)[1] == "memory"
    assert reader.stats.disk_hits == 1 and reader.stats.memory_hits == 1


def test_lru_eviction_order(entry):
    key, text, _ = entry
    cache = PlanCache(None, capacity=2)
    docs = []
    for i in range(3):
        doc = json.loads(text)
        k = f"{key[:-1]}{i}"
        doc["key"] = k
        docs.append(k)
        cache.put(k, json.dumps(doc))
    assert len(cache) == 2 and cache.stats.evictions == 1
    assert docs[0] not in cache          # oldest evicted
    assert docs[1] in cache and docs[2] in cache
    # touching docs[1] makes docs[2] the eviction victim
    cache.get(docs[1], None)
    doc = json.loads(text)
    doc["key"] = f"{key[:-1]}9"
    cache.put(doc["key"], json.dumps(doc))
    assert docs[1] in cache and docs[2] not in cache


def test_corrupt_blob_is_quarantined_not_fatal(entry, tmp_path):
    key, text, ng = entry
    cache = PlanCache(tmp_path)
    cache.put(key, text)
    (tmp_path / f"{key}.json").write_text(text[: len(text) // 2])  # truncate

    reader = PlanCache(tmp_path)
    env, tier = reader.get(key, ng)
    assert env is None and tier == ""
    assert reader.stats.quarantined == 1 and reader.stats.misses == 1
    assert not (tmp_path / f"{key}.json").exists()
    assert (tmp_path / QUARANTINE_DIR / f"{key}.json").exists()


def test_wrong_slot_blob_is_quarantined(entry, tmp_path):
    key, text, ng = entry
    cache = PlanCache(tmp_path)
    wrong = f"{key[:-4]}beef"
    (tmp_path / f"{wrong}.json").write_text(text)  # claims `key` inside
    env, _ = PlanCache(tmp_path).get(wrong, ng)
    assert env is None
    assert (tmp_path / QUARANTINE_DIR / f"{wrong}.json").exists()


def test_put_rejects_unloadable_envelope(tmp_path):
    cache = PlanCache(tmp_path)
    with pytest.raises(Exception):
        cache.put("v1-gx-mx-cx", "{not json")
    assert len(cache) == 0 and not list(tmp_path.glob("*.json"))


def test_clear_removes_disk_and_quarantine(entry, tmp_path):
    key, text, ng = entry
    cache = PlanCache(tmp_path)
    cache.put(key, text)
    (tmp_path / f"{key}.json").write_text("garbage")
    cache2 = PlanCache(tmp_path)
    cache2.get(key, ng)  # quarantines
    removed = cache2.clear()
    assert removed == 1  # the quarantined blob
    assert not list(tmp_path.glob("v*.json"))
    assert not cache2.disk_entries() and len(cache2) == 0


def test_unsafe_keys_rejected(tmp_path):
    cache = PlanCache(tmp_path)
    for bad in ("../escape", ".hidden", ""):
        with pytest.raises(ValueError):
            cache.put(bad, "{}")


def test_concurrent_puts_one_winner(entry, tmp_path):
    """Atomic replace: racing writers never leave a torn file."""
    key, text, ng = entry
    cache = PlanCache(tmp_path)
    barrier = threading.Barrier(4)

    def write():
        barrier.wait()
        cache.put(key, text)

    threads = [threading.Thread(target=write) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert (tmp_path / f"{key}.json").read_text() == text
    env, _ = PlanCache(tmp_path).get(key, ng)
    assert env is not None and env.to_json() == text
