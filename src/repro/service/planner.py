"""The planner service: cache-first request orchestration.

Request lifecycle::

    plan(request)
      └─ key = fingerprints(graph × mesh × config)      (graph memoised)
         ├─ cache.get(key)       → memory / disk hit    (micro/milliseconds)
         └─ miss:
             ├─ another thread already searching key?   → coalesce: wait on it
             ├─ too many distinct keys in flight?       → ServiceOverloadedError
             └─ otherwise own the search                → worker fleet (or inline)
                  └─ cache.put(key, envelope)           → wake all waiters

Coalescing guarantees N concurrent requests for one key run exactly one
search — the owner publishes its envelope through the in-flight record
and every waiter reuses it.  Admission control bounds the *distinct*
keys in flight (waiters ride for free: they consume a thread, not a
search slot), so an overloaded service fails fast with a retryable
error instead of building an unbounded queue.

Everything is observable: per-request spans (``service.request``),
hit/miss/coalesce/overload counters and a queue-depth gauge flow
through :mod:`repro.obs`, and the service keeps its own latency
reservoir for p50/p99 in ``stats()`` even when tracing is disabled.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from .. import obs
from ..baselines import NAMED_PLANS
from ..core import (
    CacheEnvelope,
    NodeGraph,
    RoutedPlan,
    SimEnvelope,
    graph_fingerprint,
    sim_envelope_from_json,
    sim_envelope_to_json,
    what_if_profiles,
)
from .cache import PlanCache
from .requests import (
    PlanRequest,
    SimulateRequest,
    build_request_graph,
    request_key,
    simulate_request_key,
)
from .workers import WorkerFleet, execute_request, utc_now_iso

__all__ = [
    "PlanResponse",
    "PlannerService",
    "ServiceError",
    "ServiceOverloadedError",
    "SimulateResponse",
]


class ServiceError(RuntimeError):
    """A request the planner service could not satisfy."""


class ServiceOverloadedError(ServiceError):
    """Admission control rejected the request; safe to retry later."""

    def __init__(self, inflight: int, limit: int) -> None:
        super().__init__(
            f"planner service overloaded: {inflight} searches in flight "
            f"(limit {limit}); retry later"
        )
        self.inflight = inflight
        self.limit = limit


def _parse_sim_envelope(
    text: str, node_graph: Optional[NodeGraph], expected_key: Optional[str]
) -> SimEnvelope:
    """:class:`PlanCache` parse hook for the simulation-profile store.

    Profiles carry no plan to re-verify, so the graph is intentionally
    unused — the header checks, the slot-key cross-check and the
    per-profile field checks are the whole trust story.
    """
    return sim_envelope_from_json(text, expected_key=expected_key)


@dataclass
class PlanResponse:
    """What ``plan()`` hands back, whatever path the request took."""

    key: str
    source: str  # "memory" | "disk" | "search" | "coalesced"
    envelope: CacheEnvelope
    latency_seconds: float
    label: str

    @property
    def routed(self) -> RoutedPlan:
        return self.envelope.routed

    @property
    def cost(self) -> float:
        return self.envelope.cost

    @property
    def cached(self) -> bool:
        return self.source in ("memory", "disk")


@dataclass
class SimulateResponse:
    """What ``simulate()`` hands back, whatever path the request took."""

    key: str
    source: str  # "memory" | "disk" | "simulate"
    envelope: SimEnvelope
    latency_seconds: float
    label: str

    @property
    def profiles(self) -> List[Dict]:
        return self.envelope.profiles

    @property
    def cached(self) -> bool:
        return self.source in ("memory", "disk")


class _Inflight:
    """One in-progress search; waiters block on the event."""

    __slots__ = ("event", "envelope", "error", "waiters")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.envelope: Optional[CacheEnvelope] = None
        self.error: Optional[BaseException] = None
        self.waiters = 0


def _quantile(sample: List[float], q: float) -> float:
    """Nearest-rank quantile (the ``ceil(q * n)``-th smallest value); 0.0
    on an empty sample."""
    if not sample:
        return 0.0
    ordered = sorted(sample)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


class PlannerService:
    """Long-lived planner answering requests cache-first.

    ``workers=None`` executes misses inline on the calling thread (no
    subprocesses — the embedded/test mode); ``workers=N`` runs them on a
    fleet of N processes; ``workers=0`` auto-sizes the fleet to the
    machine.  A service opened on an existing directory answers from
    its disk store, verifying each blob on first use.
    """

    def __init__(
        self,
        cache_dir=None,
        *,
        workers: Optional[int] = None,
        lru_capacity: int = 128,
        queue_limit: int = 32,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.cache = PlanCache(cache_dir, capacity=lru_capacity)
        # Sibling store for POST /simulate envelopes: same LRU / atomic
        # write / quarantine machinery, its own directory and key prefix
        # so `repro cache` maintenance on either store cannot eat the
        # other's entries.
        self.sim_cache = PlanCache(
            Path(cache_dir) / "sim" if cache_dir is not None else None,
            capacity=lru_capacity,
            parse=_parse_sim_envelope,
            key_glob="sim-v*.json",
        )
        self._fleet = WorkerFleet(workers) if workers is not None else None
        self._queue_limit = queue_limit
        self._inflight: Dict[str, _Inflight] = {}
        self._lock = threading.Lock()
        self._graphs: Dict[str, Tuple[NodeGraph, str]] = {}
        self._graphs_lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=4096)
        self._counters: Dict[str, int] = {
            "requests": 0,
            "searches": 0,
            "coalesced": 0,
            "overloaded": 0,
            "errors": 0,
            "sim_requests": 0,
            "simulations": 0,
        }
        self._closed = False

    # -- identity ----------------------------------------------------------

    def _graph_identity(self, request) -> Tuple[NodeGraph, str]:
        """Per-preset memo of (graph, graph digest).

        Building and hashing the graph dominates key cost (milliseconds
        for big presets); both are pure functions of the preset name, so
        a warm hit pays only the two small mesh/config hashes.  Shared
        by the plan and simulate paths — *request* only needs a
        ``.model`` attribute.
        """
        with self._graphs_lock:
            hit = self._graphs.get(request.model)
        if hit is None:
            node_graph = build_request_graph(request)
            hit = (node_graph, graph_fingerprint(node_graph))
            with self._graphs_lock:
                hit = self._graphs.setdefault(request.model, hit)
        return hit

    def _request_identity(self, request: PlanRequest) -> Tuple[NodeGraph, str]:
        node_graph, graph_fp = self._graph_identity(request)
        key, _ = request_key(request, graph_fp=graph_fp)
        return node_graph, key

    def request_key(self, request: PlanRequest) -> str:
        return self._request_identity(request)[1]

    # -- the request path --------------------------------------------------

    def plan(
        self, request: PlanRequest, timeout: Optional[float] = None
    ) -> PlanResponse:
        if self._closed:
            raise ServiceError("planner service is closed")
        start = time.perf_counter()
        node_graph, key = self._request_identity(request)
        with self._lock:
            self._counters["requests"] += 1
        with obs.trace.span("service.request", key=key, model=request.model):
            env, tier = self.cache.get(key, node_graph)
            if env is not None:
                obs.metrics.counter(f"service.hit_{tier}")
                return self._respond(key, tier, env, request, start)
            source, env = self._search_or_wait(key, request, timeout)
            return self._respond(key, source, env, request, start)

    def _search_or_wait(
        self, key: str, request: PlanRequest, timeout: Optional[float]
    ) -> Tuple[str, CacheEnvelope]:
        with self._lock:
            inflight = self._inflight.get(key)
            owner = inflight is None
            if owner:
                if len(self._inflight) >= self._queue_limit:
                    self._counters["overloaded"] += 1
                    obs.metrics.counter("service.overloaded")
                    raise ServiceOverloadedError(
                        len(self._inflight), self._queue_limit
                    )
                inflight = _Inflight()
                self._inflight[key] = inflight
            else:
                inflight.waiters += 1
                self._counters["coalesced"] += 1
                obs.metrics.counter("service.coalesced")
            obs.metrics.gauge("service.queue_depth", len(self._inflight))
        if owner:
            self._run_search(key, request, inflight)
        elif not inflight.event.wait(timeout):
            raise TimeoutError(
                f"timed out after {timeout}s waiting on in-flight search {key}"
            )
        if inflight.error is not None:
            raise ServiceError(
                f"search for {key} failed: {inflight.error}"
            ) from inflight.error
        assert inflight.envelope is not None
        return ("search" if owner else "coalesced"), inflight.envelope

    def _run_search(
        self, key: str, request: PlanRequest, inflight: _Inflight
    ) -> None:
        doc = request.to_doc()
        doc["expected_key"] = key
        try:
            with obs.trace.span("service.search", key=key, model=request.model):
                if self._fleet is None:
                    result = execute_request(doc)
                else:
                    result = self._fleet.submit(doc).result()
            inflight.envelope = self.cache.put(key, result["envelope"])
            with self._lock:
                self._counters["searches"] += 1
            obs.metrics.counter("service.miss")
        except BaseException as exc:
            inflight.error = exc
            with self._lock:
                self._counters["errors"] += 1
            obs.metrics.counter("service.error")
            raise ServiceError(f"search for {key} failed: {exc}") from exc
        finally:
            with self._lock:
                self._inflight.pop(key, None)
                obs.metrics.gauge("service.queue_depth", len(self._inflight))
            inflight.event.set()

    def _respond(
        self,
        key: str,
        source: str,
        env: CacheEnvelope,
        request: PlanRequest,
        start: float,
    ) -> PlanResponse:
        latency = time.perf_counter() - start
        with self._lock:
            self._latencies.append(latency)
        obs.metrics.gauge("service.request_latency_s", latency, source=source)
        return PlanResponse(
            key=key,
            source=source,
            envelope=env,
            latency_seconds=latency,
            label=request.label(),
        )

    # -- the simulate path -------------------------------------------------

    def simulate(
        self, request: SimulateRequest, timeout: Optional[float] = None
    ) -> SimulateResponse:
        """Answer one batched what-if request cache-first.

        A miss routes every named candidate (plus ``"tap"`` through the
        regular ``plan()`` path, so the search cache and coalescing
        apply) and prices them all in one columnar
        :func:`repro.core.what_if_profiles` batch on the calling thread
        — the simulation itself is milliseconds, so unlike searches it
        needs neither the worker fleet nor in-flight coalescing; at
        worst two racing threads both compute the same envelope and the
        atomic cache write keeps either winner correct.
        """
        if self._closed:
            raise ServiceError("planner service is closed")
        start = time.perf_counter()
        node_graph, graph_fp = self._graph_identity(request)
        key, fps = simulate_request_key(request, graph_fp=graph_fp)
        with self._lock:
            self._counters["sim_requests"] += 1
        with obs.trace.span("service.simulate", key=key, model=request.model):
            env, tier = self.sim_cache.get(key, node_graph)
            if env is not None:
                obs.metrics.counter(f"service.sim_hit_{tier}")
                return self._sim_respond(key, tier, env, request, start)
            env = self._run_simulate(key, fps, request, node_graph, timeout)
            return self._sim_respond(key, "simulate", env, request, start)

    def simulate_key(self, request: SimulateRequest) -> str:
        _, graph_fp = self._graph_identity(request)
        return simulate_request_key(request, graph_fp=graph_fp)[0]

    def _run_simulate(
        self,
        key: str,
        fps: Dict[str, str],
        request: SimulateRequest,
        node_graph: NodeGraph,
        timeout: Optional[float],
    ) -> SimEnvelope:
        sim_start = time.perf_counter()
        labelled: List[Tuple[str, object]] = []
        tap_seconds = 0.0
        for label in request.plans:
            if label == "tap":
                resp = self.plan(request.plan_request(), timeout)
                tap_seconds += resp.latency_seconds
                labelled.append((label, resp.envelope.routed.plan))
            elif label in NAMED_PLANS:
                labelled.append(
                    (label, NAMED_PLANS[label](node_graph, request.effective_tp()))
                )
            else:
                # ValueError → HTTP 400: the label set is client input.
                raise ValueError(
                    f"unknown plan label {label!r}; "
                    f"known: {sorted(NAMED_PLANS)} + ['tap']"
                )
        outcomes = what_if_profiles(
            node_graph,
            [plan for _, plan in labelled],
            request.mesh(),
            request.cost_config(),
        )
        profiles: List[Dict] = []
        for (label, _plan), outcome in zip(labelled, outcomes):
            if outcome is None:
                profiles.append({"plan": label, "valid": False})
                continue
            _routed, prof = outcome
            channels = {
                ch.name: {
                    "busy_s": ch.busy_time,
                    "idle_s": ch.idle_time(),
                    "makespan_s": ch.makespan,
                    "tasks": len(ch.log),
                }
                for ch in prof.engine.channels
            }
            profiles.append(
                {
                    "plan": label,
                    "valid": True,
                    "profile": prof.as_dict(),
                    "channels": channels,
                }
            )
        env_json = sim_envelope_to_json(
            profiles,
            key=key,
            fingerprints=fps,
            engine="columnar",
            timings={
                "simulate_s": round(time.perf_counter() - sim_start, 6),
                "tap_search_s": round(tap_seconds, 6),
            },
            created=utc_now_iso(),
        )
        env = self.sim_cache.put(key, env_json)
        with self._lock:
            self._counters["simulations"] += 1
        obs.metrics.counter("service.sim_miss")
        return env

    def _sim_respond(
        self,
        key: str,
        source: str,
        env: SimEnvelope,
        request: SimulateRequest,
        start: float,
    ) -> SimulateResponse:
        latency = time.perf_counter() - start
        with self._lock:
            self._latencies.append(latency)
        obs.metrics.gauge("service.simulate_latency_s", latency, source=source)
        return SimulateResponse(
            key=key,
            source=source,
            envelope=env,
            latency_seconds=latency,
            label=request.label(),
        )

    # -- lifecycle / introspection ----------------------------------------

    def stats(self) -> Dict:
        with self._lock:
            counters = dict(self._counters)
            sample = list(self._latencies)
            inflight = len(self._inflight)
        return {
            "counters": counters,
            "cache": self.cache.stats_dict(),
            "sim_cache": self.sim_cache.stats_dict(),
            "latency": {
                "count": len(sample),
                "p50_s": round(_quantile(sample, 0.50), 6),
                "p99_s": round(_quantile(sample, 0.99), 6),
            },
            "queue": {"inflight": inflight, "limit": self._queue_limit},
            "workers": self._fleet.workers if self._fleet is not None else 0,
        }

    def close(self, wait: bool = True) -> None:
        """Graceful shutdown: stop the fleet; the disk cache persists."""
        self._closed = True
        if self._fleet is not None:
            self._fleet.shutdown(wait=wait)

    def __enter__(self) -> "PlannerService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
