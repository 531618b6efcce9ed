"""``repro.obs``: zero-dependency pipeline observability.

Span-based tracing plus a metrics registry, wired through every layer of
the reproduction (compiler passes, the four decoded interpreters, the
stack analyzer, the certificate checker, the differential campaign).
The design contract:

* **Off by default, off means free.**  ``obs.enabled`` is a module
  attribute; instrumented hot paths guard on it, and everything else
  goes through :func:`span`, which hands back a shared no-op object
  while disabled.  No per-interpreter-step work is ever added — run
  loops are only wrapped at their entry points — so the disabled
  overhead on the decoded interpreters is under the 2% budget recorded
  in ``docs/PERFORMANCE.md``.
* **One process, one recorder/registry; merge across processes.**
  Campaign workers drain per-seed deltas (:func:`drain_metrics`,
  :func:`drain_spans`) that the parent folds back in (:func:`merge`,
  :func:`adopt_spans`), so ``python -m repro fuzz --jobs N
  --metrics-out m.json`` reports pool-wide aggregates.
* **Schema'd exports.**  ``--trace-out`` writes span JSONL or a Chrome
  ``chrome://tracing`` trace, ``--metrics-out`` writes a metrics
  snapshot with derived rates; both formats are validated by
  ``tests/unit/test_obs_schema.py`` against the executable schema in
  :mod:`repro.obs.export`.  See ``docs/OBSERVABILITY.md``.

Typical instrumentation::

    from repro import obs

    with obs.span("analyze.auto", functions=len(order)) as sp:
        ...
        sp.set(bound=bound)
    obs.add("interp.asm.steps", machine.steps)
"""

from __future__ import annotations

from functools import wraps
from typing import Optional, Sequence

from repro.obs.export import (write_chrome_trace, write_metrics_json,
                              write_spans_jsonl, write_trace)
from repro.obs.metrics import (DEFAULT_LATENCY_BUCKETS_S, METRICS_SCHEMA,
                               MetricsRegistry, derive_rates, empty_snapshot,
                               merge_snapshots)
from repro.obs.spans import NULL_SPAN, SPAN_SCHEMA, Span, SpanRecorder

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S", "METRICS_SCHEMA", "NULL_SPAN",
    "SPAN_SCHEMA", "MetricsRegistry", "Span", "SpanRecorder", "add",
    "adopt_spans", "derive_rates", "disable", "drain_metrics",
    "drain_spans", "empty_snapshot", "enable", "enabled", "merge",
    "merge_snapshots", "observe", "reset", "set_gauge", "snapshot",
    "span", "span_records", "traced", "write_chrome_trace",
    "write_metrics_json", "write_spans_jsonl", "write_trace",
]

#: The master switch.  Instrumented modules read this attribute directly
#: (``if obs.enabled:``); it is False unless :func:`enable` was called.
enabled = False

recorder = SpanRecorder()
registry = MetricsRegistry()


def enable() -> None:
    """Turn instrumentation on for this process."""
    global enabled
    enabled = True


def disable() -> None:
    global enabled
    enabled = False


def reset() -> None:
    """Clear every recorded span and metric (state stays enabled/disabled)."""
    recorder.clear()
    registry.clear()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def span(name: str, **attrs):
    """A context manager timing one named region (no-op while disabled)."""
    if not enabled:
        return NULL_SPAN
    return recorder.span(name, attrs)


def traced(name: str, **attrs):
    """Decorator form of :func:`span` for whole-function regions."""
    def decorate(function):
        @wraps(function)
        def wrapper(*args, **kwargs):
            if not enabled:
                return function(*args, **kwargs)
            with recorder.span(name, attrs):
                return function(*args, **kwargs)
        return wrapper
    return decorate


def span_records() -> list[dict]:
    """The finished span records of this process (plus adopted ones)."""
    return recorder.records


def adopt_spans(records: list[dict]) -> None:
    recorder.adopt(records)


def drain_spans() -> list[dict]:
    return recorder.drain()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def add(name: str, value: float = 1) -> None:
    """Increment a counter (no-op while disabled)."""
    if enabled:
        registry.add(name, value)


def set_gauge(name: str, value: float) -> None:
    if enabled:
        registry.set_gauge(name, value)


def observe(name: str, value: float,
            buckets: Optional[Sequence[float]] = None) -> None:
    """Record one histogram observation (no-op while disabled)."""
    if enabled:
        registry.observe(name, value, buckets)


def drain_metrics() -> dict:
    return registry.drain()


def merge(snap: dict) -> None:
    registry.merge(snap)


def snapshot() -> dict:
    """The process-wide metrics snapshot, external caches included.

    On top of the live registry this folds in the stats counters other
    subsystems already keep — the ``bexpr`` normal-form memo — as
    gauges, so one export carries every cache-hit-rate the perf docs
    talk about.
    """
    snap = registry.snapshot()
    try:
        from repro.logic.bexpr import nf_cache_stats

        stats = nf_cache_stats()
        if stats["hits"] or stats["misses"]:
            snap["gauges"]["bexpr.nf.hits"] = stats["hits"]
            snap["gauges"]["bexpr.nf.misses"] = stats["misses"]
    except Exception:  # never let a stats source break an export
        pass
    return snap
