"""Two-tier plan cache: in-process LRU over an on-disk envelope store.

Tier 1 is an :class:`collections.OrderedDict` LRU holding deserialised
:class:`CacheEnvelope` objects — a hit costs a dict probe.  Tier 2 is a
directory of ``<key>.json`` cache envelopes (the versioned key is
filename-safe by construction), written atomically via a temp file +
``os.replace`` so a crashed or concurrent writer can never leave a
half-written blob under a valid key.

A disk entry reaches the LRU one way only: a ``get`` that parses it
through :func:`envelope_from_json` (header checks, ``expected_key``
pinned to the slot name) and re-verifies the embedded routed plan
against the request's graph.  Anything that fails — truncated JSON, a
schema from a future version, a plan that no longer verifies — is
*quarantined* (moved into ``quarantine/`` for post-mortems) and reported
as a miss, so one corrupt blob costs a re-search, not an outage.  A
restarted process therefore starts with an empty LRU and fills it from
verified disk hits.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core import CacheEnvelope, NodeGraph, PlanLoadError, envelope_from_json
from ..verify import PlanVerificationError

__all__ = ["CacheStats", "PlanCache", "QUARANTINE_DIR", "default_cache_dir"]

QUARANTINE_DIR = "quarantine"


def _parse_plan_envelope(
    text: str, node_graph: Optional[NodeGraph], expected_key: Optional[str]
) -> CacheEnvelope:
    """Default ``parse`` hook: plan-cache envelopes."""
    return envelope_from_json(text, node_graph, expected_key=expected_key)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/plans``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "plans"

#: ``get`` outcomes, also used as PlanResponse sources.
TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_MISS = ""


@dataclass
class CacheStats:
    """Monotonic counters; ``hit_rate`` derives from them on demand."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return (self.memory_hits + self.disk_hits) / self.lookups

    def as_dict(self) -> Dict[str, float]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "hit_rate": round(self.hit_rate, 4),
        }


class PlanCache:
    """The planner service's persistent plan store.

    ``cache_dir=None`` runs memory-only (tests, embedded use); with a
    directory, every ``put`` also lands on disk and a fresh process
    answers from whatever previous runs left behind.  All methods are
    thread-safe; cross-*process* safety comes from atomic replaces —
    two writers racing on one key both write whole envelopes, and since
    keys are content fingerprints, either winner is correct.
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        *,
        capacity: int = 128,
        parse=None,
        key_glob: str = "v*.json",
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._dir = Path(cache_dir) if cache_dir is not None else None
        self._capacity = capacity
        # ``parse(text, node_graph, expected_key) -> envelope``, checking
        # the payload against *node_graph* when one is given; the default
        # reads plan-cache envelopes.  The simulation-profile
        # store reuses the whole LRU/atomic-write/quarantine machinery by
        # swapping in ``sim_envelope_from_json`` (and a matching glob for
        # its ``sim-v…`` key prefix) — parse failures quarantine the same
        # way whatever the envelope kind.
        self._parse = parse if parse is not None else _parse_plan_envelope
        self._key_glob = key_glob
        self._lru: "OrderedDict[str, CacheEnvelope]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)

    # -- lookups -----------------------------------------------------------

    def get(
        self, key: str, node_graph: Optional[NodeGraph]
    ) -> Tuple[Optional[CacheEnvelope], str]:
        """Look *key* up; returns ``(envelope, tier)`` with tier in
        ``"memory"`` / ``"disk"`` / ``""`` (miss).

        A disk hit is verified against *node_graph*, the graph the key
        was computed from; ``None`` checks structure only and is for
        maintenance listings, never for answering a request.
        """
        with self._lock:
            env = self._lru.get(key)
            if env is not None:
                self._lru.move_to_end(key)
                self.stats.memory_hits += 1
                return env, TIER_MEMORY
        env = self._load_disk(key, node_graph)
        with self._lock:
            if env is not None:
                self._insert(key, env)
                self.stats.disk_hits += 1
                return env, TIER_DISK
            self.stats.misses += 1
        return None, TIER_MISS

    def _load_disk(
        self, key: str, node_graph: Optional[NodeGraph]
    ) -> Optional[CacheEnvelope]:
        path = self._entry_path(key)
        if path is None or not path.exists():
            return None
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            return self._parse(text, node_graph, key)
        except (PlanLoadError, PlanVerificationError):
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> None:
        """Move a bad blob aside; losing the race to another mover is fine."""
        assert self._dir is not None
        qdir = self._dir / QUARANTINE_DIR
        try:
            qdir.mkdir(exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            pass
        with self._lock:
            self.stats.quarantined += 1

    # -- stores ------------------------------------------------------------

    def put(self, key: str, envelope_json: str) -> CacheEnvelope:
        """Store one envelope under *key* in both tiers.

        Takes the serialised form (what a worker process returns) and
        parses it once — the parse also acts as a write barrier: an
        envelope the reader side cannot load never reaches the cache.
        """
        env = self._parse(envelope_json, None, key)
        path = self._entry_path(key)
        if path is not None:
            tmp = path.with_name(f".{path.name}.tmp{os.getpid()}.{threading.get_ident()}")
            tmp.write_text(envelope_json)
            os.replace(tmp, path)
        with self._lock:
            self._insert(key, env)
            self.stats.stores += 1
        return env

    def _insert(self, key: str, env: CacheEnvelope) -> None:
        self._lru[key] = env
        self._lru.move_to_end(key)
        while len(self._lru) > self._capacity:
            self._lru.popitem(last=False)
            self.stats.evictions += 1

    # -- maintenance -------------------------------------------------------

    def disk_entries(self) -> List[Tuple[str, Path]]:
        """``(key, path)`` for every disk entry, newest first."""
        if self._dir is None:
            return []
        entries = [
            (p.stem, p)
            for p in self._dir.glob(self._key_glob)
            if p.is_file()
        ]
        entries.sort(key=lambda kp: kp[1].stat().st_mtime, reverse=True)
        return entries

    def quarantined_entries(self) -> List[Path]:
        if self._dir is None:
            return []
        return sorted((self._dir / QUARANTINE_DIR).glob("*.json"))

    def clear(self, *, disk: bool = True) -> int:
        """Drop everything; returns how many disk blobs were deleted."""
        removed = 0
        with self._lock:
            self._lru.clear()
        if disk:
            for _, path in self.disk_entries():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.quarantined_entries():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def _entry_path(self, key: str) -> Optional[Path]:
        if self._dir is None:
            return None
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"cache key is not filename-safe: {key!r}")
        return self._dir / f"{key}.json"

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._lru

    @property
    def cache_dir(self) -> Optional[Path]:
        return self._dir

    @property
    def capacity(self) -> int:
        return self._capacity

    def stats_dict(self) -> Dict[str, float]:
        with self._lock:
            doc = self.stats.as_dict()
            doc["memory_entries"] = len(self._lru)
        # disk walk stays outside the critical section: it is I/O-bound
        doc["disk_entries"] = len(self.disk_entries())
        doc["capacity"] = self._capacity
        return doc
