"""Planner service throughput: cold vs. warm latency, coalescing, fleet scaling.

Exercises the planner-as-a-service stack end to end, in-process (no
HTTP — the daemon adds transport, not planning):

* **cold vs. warm** — the first request for a key runs a full search;
  every repeat answers from the in-memory LRU.  The warm path must be at
  least ``MIN_WARM_SPEEDUP`` (50x) faster; in practice it is thousands
  of times faster (microseconds vs. ~100 ms).
* **disk tier** — a fresh service over the same cache directory answers
  from disk, *bit-identically*: the re-served envelope's
  ``routed_to_json`` equals the original byte for byte.
* **coalescing** — N threads racing on one uncached key run exactly one
  search; the other N-1 ride the in-flight future (or hit the cache a
  beat later).  Both counts are deterministic and pinned exactly, as is
  the cache hit rate of the cold/warm sequence.
* **miss throughput** — distinct-key request storms against 1-worker and
  2-worker fleets, best of ``FLEET_REPEATS`` storms per fleet size (a
  single storm is one scheduler hiccup away from a bogus sub-1.0
  scaling figure).  Raw requests/sec are machine-dependent and only
  reported; the gated number is ``fleet_scaling_margin``, the observed
  scaling normalised by what the machine can physically give
  (``min(workers, cpu_count)``) — so a 1-core CI box and a 16-core
  workstation gate the same invariant: adding workers must not *lose*
  throughput, and must win where cores exist.  Both margins are held at
  their full value of 1.0.
"""

import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.service import PlanRequest, PlannerService

from common import emit, emit_bench_json
from repro.viz import format_table

MODEL = "clip_base"
BATCH_TOKENS = 8192

#: Acceptance floor on warm-hit speedup (the issue's 50x).
MIN_WARM_SPEEDUP = 50.0

#: Warm-hit timing repeats (min-of; each is microseconds).
WARM_REPEATS = 20

#: Threads racing one key in the coalescing storm.
STORM = 8

#: Distinct-key misses per fleet configuration.
MISS_KEYS = 4

#: Fraction of ideal core-scaling the fleet must deliver for a full
#: margin; generous because the parent thread does envelope parsing and
#: a 1-core box pays pure oversubscription for the second worker.
SCALING_EFFICIENCY = 0.5

#: Miss-storm repeats per fleet size (best-of; each over a fresh cache
#: dir so every request is a true cold miss).  A single storm over a
#: handful of ~100 ms searches is one scheduler hiccup away from a bogus
#: sub-1.0 scaling figure; load only ever slows a storm down, so the
#: best rps is the honest number.
FLEET_REPEATS = 3


def _request(batch_tokens: int = BATCH_TOKENS) -> PlanRequest:
    return PlanRequest(model=MODEL, mesh_nodes=2, mesh_gpus=8,
                       batch_tokens=batch_tokens)


def _warm_latency(service: PlannerService) -> float:
    best = float("inf")
    for _ in range(WARM_REPEATS):
        response = service.plan(_request())
        assert response.source == "memory"
        best = min(best, response.latency_seconds)
    return best


def _miss_rps_once(workers: int, cache_dir: str) -> float:
    """Requests/sec over MISS_KEYS distinct cold keys on a warm fleet."""
    with PlannerService(cache_dir, workers=workers,
                        queue_limit=MISS_KEYS + STORM) as service:
        # One throwaway search absorbs the fork/start cost of the pool.
        service.plan(_request(1024))
        tokens = [2048 + 512 * i for i in range(MISS_KEYS)]
        with ThreadPoolExecutor(max_workers=MISS_KEYS) as pool:
            t0 = time.perf_counter()
            responses = list(pool.map(
                lambda bt: service.plan(_request(bt), timeout=300), tokens
            ))
            elapsed = time.perf_counter() - t0
        assert all(r.source in ("search", "coalesced") for r in responses)
        assert service.stats()["counters"]["searches"] == MISS_KEYS + 1
    return MISS_KEYS / elapsed


def _miss_rps(workers: int) -> float:
    """Best storm of FLEET_REPEATS, each over its own fresh cache dir."""
    best = 0.0
    for _ in range(FLEET_REPEATS):
        with tempfile.TemporaryDirectory() as cache_dir:
            best = max(best, _miss_rps_once(workers, cache_dir))
    return best


def test_service_throughput():
    cpu = os.cpu_count() or 1

    # --- cold vs. warm vs. disk, all inline (pure planner latency) -------
    with tempfile.TemporaryDirectory() as cache_dir:
        with PlannerService(cache_dir, workers=None) as service:
            cold = service.plan(_request())
            assert cold.source == "search"
            cold_s = cold.latency_seconds
            warm_s = _warm_latency(service)
            warm_envelope = service.plan(_request()).envelope.to_json()
            hit_rate = service.cache.stats.hit_rate

        # a fresh process-equivalent: empty LRU, same disk store
        with PlannerService(cache_dir, workers=None) as service:
            disk = service.plan(_request())
            assert disk.source == "disk"
            disk_s = disk.latency_seconds
            # warm hits are bit-identical across tiers and restarts
            assert disk.envelope.to_json() == warm_envelope

    warm_speedup = cold_s / warm_s
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm hit only {warm_speedup:.0f}x faster than cold search "
        f"(floor {MIN_WARM_SPEEDUP:.0f}x)"
    )

    # --- coalescing storm: one key, STORM threads, one search ------------
    with tempfile.TemporaryDirectory() as cache_dir:
        with PlannerService(cache_dir, workers=None,
                            queue_limit=STORM) as service:
            barrier = threading.Barrier(STORM)
            responses = [None] * STORM

            def storm(i):
                barrier.wait()
                responses[i] = service.plan(_request(), timeout=300)

            threads = [threading.Thread(target=storm, args=(i,))
                       for i in range(STORM)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            counters = service.stats()["counters"]
            searches = counters["searches"]
            riders = counters["coalesced"] + \
                service.cache.stats.memory_hits
            assert searches == 1, counters
            assert riders == STORM - 1, counters
            assert len({r.envelope.to_json() for r in responses}) == 1

    # --- miss throughput scaling across fleet sizes -----------------------
    rps_w1 = _miss_rps(1)
    rps_w2 = _miss_rps(2)
    scaling = rps_w2 / rps_w1
    ideal = min(2, cpu)
    scaling_margin = min(1.0, scaling / (SCALING_EFFICIENCY * ideal))
    warm_speedup_margin = min(1.0, warm_speedup / MIN_WARM_SPEEDUP)

    records = [
        {
            "model": f"{MODEL}@2x8",
            "cold_s": cold_s,
            "warm_s": warm_s,
            "disk_s": disk_s,
            "warm_speedup": warm_speedup,
            "warm_speedup_margin": warm_speedup_margin,
            "hit_rate": hit_rate,
            "coalesce_searches": searches,
            "coalesce_riders": riders,
        },
        {
            "model": f"{MODEL}@2x8/fleet",
            "miss_rps_w1": rps_w1,
            "miss_rps_w2": rps_w2,
            "fleet_scaling": scaling,
            "fleet_scaling_margin": scaling_margin,
        },
    ]
    emit_bench_json("service", records)

    table = format_table(
        ["cold (ms)", "warm (us)", "disk (ms)", "speedup",
         "rps w=1", "rps w=2", "scaling", "cores"],
        [[
            f"{cold_s * 1e3:.1f}",
            f"{warm_s * 1e6:.1f}",
            f"{disk_s * 1e3:.1f}",
            f"{warm_speedup:.0f}x",
            f"{rps_w1:.1f}",
            f"{rps_w2:.1f}",
            f"{scaling:.2f}x",
            cpu,
        ]],
        title=f"planner service: {MODEL} on 2x8 (cold search vs. cached)",
    )
    emit("service_throughput", table)
    print(table)

    # one cold miss, then WARM_REPEATS warm hits plus the envelope fetch
    assert hit_rate == (WARM_REPEATS + 1) / (WARM_REPEATS + 2), hit_rate
    assert warm_speedup_margin == 1.0, warm_speedup
    assert scaling_margin == 1.0, (
        f"{ideal} workers' worth of cores gave only {scaling:.2f}x miss "
        f"throughput (needs {SCALING_EFFICIENCY * ideal:.2f}x)"
    )
