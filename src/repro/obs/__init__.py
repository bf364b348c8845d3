"""Observability for the planner pipeline: spans, metrics, sinks.

Zero-dependency instrumentation threaded through prune → enumerate →
route → price → rewrite → simulate.  Everything is off-cost while
disabled; see DESIGN.md → "Observability" for the span taxonomy and
overhead budget.
"""

from . import metrics, trace
from .sinks import (
    ChromeTraceSink,
    JSONLSink,
    MemorySink,
    MetricRecord,
    Sink,
    SpanRecord,
    merged_chrome_trace,
    read_jsonl,
    record_from_dict,
    save_trace_events,
)
from .trace import capture, disable, enable, enabled, memory_sink

__all__ = [
    "trace",
    "metrics",
    "Sink",
    "MemorySink",
    "JSONLSink",
    "ChromeTraceSink",
    "SpanRecord",
    "MetricRecord",
    "read_jsonl",
    "record_from_dict",
    "merged_chrome_trace",
    "save_trace_events",
    "capture",
    "enable",
    "disable",
    "enabled",
    "memory_sink",
]
