"""Analytical timing models for collective communication.

Ring-algorithm cost models with per-collective efficiency factors.  The
paper's cost model observes (§4.6) that AllGather and AllToAll move the same
bytes slower than NCCL's heavily optimised AllReduce; ``EFFICIENCY`` encodes
exactly that asymmetry and the ablation benchmark switches it off.

All sizes are the *logical* (full tensor) byte counts; wire volume per rank
follows the standard ring formulas:

=================  =====================================
collective         wire bytes per rank (tensor of B bytes)
=================  =====================================
all_reduce         2 (p-1)/p · B
all_gather         (p-1)/p · B       (B = gathered size)
reduce_scatter     (p-1)/p · B
all_to_all         (p-1)/p · B
broadcast          B                 (pipelined chain)
=================  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict

from .topology import DeviceGroup, Interconnect

__all__ = [
    "CollectiveModel",
    "EFFICIENCY",
    "collective_time",
    "collective_wire_bytes",
    "collective_cache_info",
    "collective_cache_clear",
    "COLLECTIVES",
]

#: Relative bandwidth efficiency vs. a perfect ring (§4.6 observation:
#: AllToAll / AllGather underperform AllReduce for equal message size).
EFFICIENCY: Dict[str, float] = {
    "all_reduce": 0.90,
    "reduce_scatter": 0.85,
    "all_gather": 0.75,
    "all_to_all": 0.45,
    "broadcast": 0.75,
    "send_recv": 0.95,
}


def _ring_steps(p: int) -> int:
    return max(p - 1, 0)


def _volume_all_reduce(bytes_full: float, p: int) -> float:
    return 2.0 * (p - 1) / p * bytes_full if p > 1 else 0.0


def _volume_shift(bytes_full: float, p: int) -> float:
    return (p - 1) / p * bytes_full if p > 1 else 0.0


def _volume_broadcast(bytes_full: float, p: int) -> float:
    return float(bytes_full) if p > 1 else 0.0


_VOLUME: Dict[str, Callable[[float, int], float]] = {
    "all_reduce": _volume_all_reduce,
    "all_gather": _volume_shift,
    "reduce_scatter": _volume_shift,
    "all_to_all": _volume_shift,
    "broadcast": _volume_broadcast,
    "send_recv": lambda b, p: float(b),
}

#: Latency steps of the ring variant of each collective.
_STEPS: Dict[str, Callable[[int], int]] = {
    "all_reduce": lambda p: 2 * _ring_steps(p),
    "all_gather": _ring_steps,
    "reduce_scatter": _ring_steps,
    "all_to_all": _ring_steps,
    "broadcast": _ring_steps,
    "send_recv": lambda p: 1,
}

COLLECTIVES = tuple(_VOLUME)


def collective_wire_bytes(kind: str, bytes_full: float, group_size: int) -> float:
    """Per-rank wire volume of one collective over the full tensor size."""
    if kind not in _VOLUME:
        raise ValueError(f"unknown collective {kind!r}; known: {COLLECTIVES}")
    if bytes_full < 0:
        raise ValueError("bytes_full must be non-negative")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    return _VOLUME[kind](bytes_full, group_size)


@lru_cache(maxsize=65_536)
def _collective_time_cached(
    kind: str,
    bytes_full: float,
    group_size: int,
    link: Interconnect,
    use_efficiency: bool,
) -> float:
    """Memoized core of :func:`collective_time`.

    The timing model depends on the group only through its size and its
    bottleneck link, so the cache key is ``(collective, nbytes,
    group-signature, use_efficiency)`` — distinct :class:`DeviceGroup`
    objects with the same shape share one entry.  Algorithm 2 prices the
    same tensors on the same three groups thousands of times per family;
    both search tiers, the columnar evaluator and the reference loop,
    price through this cache.
    """
    volume = collective_wire_bytes(kind, bytes_full, group_size)
    if volume == 0.0:
        return 0.0
    eff = EFFICIENCY[kind] if use_efficiency else 1.0
    steps = _STEPS[kind](group_size)
    return steps * link.latency + volume / (link.bandwidth * eff)


def collective_time(
    kind: str,
    bytes_full: float,
    group: DeviceGroup,
    use_efficiency: bool = True,
) -> float:
    """Wall-clock estimate of one collective on *group*.

    ``use_efficiency=False`` disables the per-collective factors (the
    cost-model ablation), leaving the pure ring model.
    """
    return _collective_time_cached(
        kind, bytes_full, group.size, group.bottleneck, use_efficiency
    )


def collective_cache_info():
    """Hit/miss statistics of the memoized pricing layer."""
    return _collective_time_cached.cache_info()


def collective_cache_clear() -> None:
    """Reset the memoized pricing layer (benchmark isolation)."""
    _collective_time_cached.cache_clear()


@dataclass(frozen=True)
class CollectiveModel:
    """Bound (group, efficiency-flag) pair for repeated queries."""

    group: DeviceGroup
    use_efficiency: bool = True

    def time(self, kind: str, bytes_full: float) -> float:
        return collective_time(kind, bytes_full, self.group, self.use_efficiency)

    def wire_bytes(self, kind: str, bytes_full: float) -> float:
        return collective_wire_bytes(kind, bytes_full, self.group.size)
