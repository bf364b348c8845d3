"""Routed-plan serialisation hot path — the template writer vs. its oracle.

Times :func:`routed_to_json` (what ``repro plan -o`` writes and what a
cache envelope embeds) on the searched gpt3_like plan at 1x8 against its
oracle, ``json.dumps(_routed_doc(r), indent=2, sort_keys=True)``, which
runs CPython's pure-Python indent encoder over one dict per shard, event
and spec.

The writer must be a pure accelerator: its text is asserted equal to the
oracle's, indented and compact, before any timing is trusted.  The bench
gates itself: the speed-up floor stands in for the walls (which are
reported, not gated), and the writer's peak tracked memory is held to
``PEAK_SLACK`` times a pinned value.
"""

import json
import time

from repro.core import plan_request, routed_to_json, serialize
from repro.models import build_preset
from repro.viz import format_table

from common import PEAK_SLACK, emit, emit_bench_json, nodes_for, traced_peak_mb

PRESET, MESH = "gpt3_like", (1, 8)

#: Writer windows (min of) and oracle windows (min of); the oracle is
#: several times slower, so fewer windows suffice.
WRITER_REPEATS = 9
ORACLE_REPEATS = 3

#: Floor on oracle vs. writer wall clock (min of windows; 3.5x-4.3x on
#: a 2-vCPU host).
MIN_SPEEDUP = 2.0

#: Routed shards in the plan, pinned so the workload cannot shrink.
SHARDS = 1061

#: Peak tracked memory (MB) of one indented write (json.dumps of the
#: oracle document peaks at about 6.8 MB).
PEAK_MB = 3.15


def _oracle(routed, indent=2):
    return json.dumps(serialize._routed_doc(routed), indent=indent,
                      sort_keys=True)


def _best(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_serialize_hotpath_writer_speedup():
    routed = plan_request(nodes_for(build_preset(PRESET)), list(MESH)).routed
    text = routed_to_json(routed)
    assert text == _oracle(routed)
    assert routed_to_json(routed, indent=None) == _oracle(routed, None)

    t_oracle = _best(lambda: _oracle(routed), ORACLE_REPEATS)
    t_writer = _best(lambda: routed_to_json(routed), WRITER_REPEATS)
    speedup = t_oracle / t_writer
    peak_mb = traced_peak_mb(lambda: routed_to_json(routed))
    oracle_peak_mb = traced_peak_mb(lambda: _oracle(routed))

    label = f"{PRESET}@{MESH[0]}x{MESH[1]}"
    record = {
        "model": label,
        "shards": len(routed.shards),
        "bytes": len(text),
        "oracle_s": t_oracle,
        "writer_s": t_writer,
        "speedup": speedup,
        "peak_mem_mb": peak_mb,
        "oracle_peak_mem_mb": oracle_peak_mb,
    }
    emit_bench_json("serialize", [record])
    table = format_table(
        ["model", "shards", "document (KB)", "json.dumps (ms)",
         "writer (ms)", "speed-up", "json.dumps peak (MB)",
         "writer peak (MB)"],
        [[label, record["shards"], f"{len(text) / 1024:.0f}",
          f"{t_oracle * 1e3:.1f}", f"{t_writer * 1e3:.1f}",
          f"{speedup:.1f}x", f"{oracle_peak_mb:.2f}", f"{peak_mb:.2f}"]],
        title="routed-plan serialisation: template writer vs. "
              "json.dumps(indent=2)",
    )
    emit("serialize_hotpath", table)

    assert record["shards"] == SHARDS, record
    assert speedup >= MIN_SPEEDUP, record
    assert peak_mb <= PEAK_SLACK * PEAK_MB, record
