"""Process-pool worker fleet executing plan searches off the service thread.

The pool task (:func:`execute_request`) is a module-level function over
plain dicts, so it pickles under any multiprocessing start method.  A
worker rebuilds the request's preset graph from scratch, recomputes the
canonical fingerprints, and *refuses to answer* if its key disagrees
with the one the submitting process computed — every cache miss thereby
doubles as a cross-process fingerprint-stability check.

``WorkerFleet`` wraps :class:`concurrent.futures.ProcessPoolExecutor`
lazily: no processes are forked until the first miss, and a fleet that
never sees a miss costs nothing.  ``workers=0`` auto-sizes to
``os.cpu_count()``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from datetime import datetime, timezone
from typing import Dict, Optional

from ..core import envelope_to_json, plan_request
from .requests import PlanRequest, build_request_graph, request_key

__all__ = ["WorkerFleet", "execute_request", "resolve_workers"]


def resolve_workers(workers: int) -> int:
    """``0`` → ``os.cpu_count()``; otherwise the explicit count."""
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (or 0 to auto-detect), got {workers}")
    return workers


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def execute_request(doc: Dict) -> Dict:
    """Run one plan search; the unit of work shipped to a worker process.

    *doc* is ``request.to_doc()`` plus an optional ``"expected_key"``
    from the submitting side.  Returns a plain dict: the serialised
    cache envelope and the search's own timings/counters.
    """
    doc = dict(doc)  # never mutate the caller's copy (inline mode shares it)
    expected_key = doc.pop("expected_key", None)
    request = PlanRequest.from_doc(doc)
    node_graph = build_request_graph(request)
    key, fingerprints = request_key(request, node_graph)
    if expected_key is not None and key != expected_key:
        raise RuntimeError(
            f"fingerprint divergence across processes: service computed "
            f"{expected_key}, worker computed {key} for {request.label()} — "
            f"the canonical encoding is not process-stable"
        )
    wall_start = time.perf_counter()
    search = plan_request(
        node_graph,
        request.mesh(),
        request.cost_config(),
        min_duplicate=request.min_duplicate,
        tp_degrees=request.tp_degrees,
        use_pruning=request.use_pruning,
        zero_stage=request.zero_stage,
    )
    routed = search.routed  # materialise before serialising
    wall = time.perf_counter() - wall_start
    envelope = envelope_to_json(
        routed,
        key=key,
        fingerprints=fingerprints,
        engine="columnar",
        timings={
            "search_seconds": search.search_seconds,
            "wall_seconds": wall,
        },
        cost=search.cost,
        created=utc_now_iso(),
    )
    return {
        "key": key,
        "envelope": envelope,
        "cost": search.cost,
        "search_seconds": search.search_seconds,
        "wall_seconds": wall,
        "candidates_examined": search.candidates_examined,
        "label": request.label(),
        "pid": os.getpid(),
    }


class WorkerFleet:
    """A lazily started, restartable pool of planner worker processes."""

    def __init__(self, workers: int = 1) -> None:
        self._workers = resolve_workers(workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def alive(self) -> bool:
        with self._lock:
            return self._pool is not None

    def submit(self, doc: Dict) -> "Future[Dict]":
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self._workers)
            pool = self._pool
        return pool.submit(execute_request, doc)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
