"""The metrics registry: counters, gauges, fixed-bucket histograms.

Three instrument kinds, chosen so cross-process aggregation is a pure
fold over plain dicts:

* **counters** — monotone sums (interpreter steps, cache hits, verdicts);
  merged by addition.
* **gauges** — last-known levels (worker heartbeat timestamps, bound
  sizes); merged by ``max``, which is exact for the monotone quantities
  we record and a documented approximation otherwise.
* **histograms** — fixed-bucket distributions (certificate check
  latency, per-seed wall time); merged bucketwise, which is exact
  because the bucket boundaries are part of the snapshot.

A *snapshot* is a plain JSON-able dict (see :data:`METRICS_SCHEMA`);
campaign workers snapshot their registry per seed and the parent merges
the deltas back with :func:`merge_snapshots` — metrics aggregate across
the multiprocessing pool without shared memory.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

#: Metrics-snapshot schema identifier (bump on incompatible changes).
METRICS_SCHEMA = "repro.obs.metrics/1"

#: Default histogram boundaries for latencies, in seconds.  The overflow
#: bucket (``> buckets[-1]``) is implicit: ``counts`` has one more entry
#: than ``buckets``.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0)


class Histogram:
    """A fixed-bucket histogram (cumulative-free, bucketwise mergeable)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S
                 ) -> None:
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = 0
        for boundary in self.buckets:
            if value <= boundary:
                break
            index += 1
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def as_dict(self) -> dict:
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "sum": round(self.sum, 9), "count": self.count}


class MetricsRegistry:
    """Name-keyed counters, gauges and histograms for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def _fork_guard(self) -> None:
        # A registry inherited through fork() must not double-report the
        # parent's totals from inside a worker.
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.counters = {}
            self.gauges = {}
            self.histograms = {}

    def add(self, name: str, value: float = 1) -> None:
        self._fork_guard()
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self._fork_guard()
        self.gauges[name] = value

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None) -> None:
        self._fork_guard()
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = Histogram(buckets or DEFAULT_LATENCY_BUCKETS_S)
            self.histograms[name] = histogram
        histogram.observe(value)

    def snapshot(self) -> dict:
        """The registry as a plain mergeable dict."""
        return {"counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {name: h.as_dict()
                               for name, h in self.histograms.items()}}

    def drain(self) -> dict:
        """Snapshot, then reset — the per-seed delta campaign workers ship."""
        snap = self.snapshot()
        self.clear()
        return snap

    def clear(self) -> None:
        self._fork_guard()
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def merge(self, snap: dict) -> None:
        """Fold a snapshot (e.g. a worker delta) into this registry."""
        self._fork_guard()
        for name, value in snap.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            current = self.gauges.get(name)
            self.gauges[name] = value if current is None \
                else max(current, value)
        for name, data in snap.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = Histogram(data["buckets"])
                self.histograms[name] = histogram
            if list(histogram.buckets) != list(data["buckets"]):
                raise ValueError(
                    f"histogram {name!r}: bucket boundaries differ, "
                    "cannot merge")
            for index, count in enumerate(data["counts"]):
                histogram.counts[index] += count
            histogram.sum += data["sum"]
            histogram.count += data["count"]


def empty_snapshot() -> dict:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(into: dict, snap: dict) -> dict:
    """Fold ``snap`` into the plain-dict snapshot ``into`` (returned).

    The same semantics as :meth:`MetricsRegistry.merge` — counters add,
    gauges take the max, histograms merge bucketwise — but on snapshots,
    so a campaign parent can aggregate worker deltas without touching
    the live registry.
    """
    counters = into.setdefault("counters", {})
    for name, value in snap.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + value
    gauges = into.setdefault("gauges", {})
    for name, value in snap.get("gauges", {}).items():
        current = gauges.get(name)
        gauges[name] = value if current is None else max(current, value)
    histograms = into.setdefault("histograms", {})
    for name, data in snap.get("histograms", {}).items():
        merged = histograms.get(name)
        if merged is None:
            histograms[name] = {"buckets": list(data["buckets"]),
                                "counts": list(data["counts"]),
                                "sum": data["sum"], "count": data["count"]}
            continue
        if merged["buckets"] != list(data["buckets"]):
            raise ValueError(f"histogram {name!r}: bucket boundaries differ, "
                             "cannot merge")
        merged["counts"] = [a + b for a, b in zip(merged["counts"],
                                                  data["counts"])]
        merged["sum"] += data["sum"]
        merged["count"] += data["count"]
    return into


def histogram_quantile(data: dict, quantile: float) -> float:
    """Estimate one quantile from a fixed-bucket histogram dict.

    Returns the upper boundary of the bucket containing the quantile —
    a conservative (over-)estimate, which is the right direction for
    latency SLOs.  Observations in the overflow bucket are reported as
    the last finite boundary (a documented floor, not a measurement).
    """
    count = data["count"]
    if count <= 0:
        raise ValueError("cannot take a quantile of an empty histogram")
    rank = quantile * count
    seen = 0
    for boundary, bucket in zip(data["buckets"], data["counts"]):
        seen += bucket
        if seen >= rank:
            return float(boundary)
    return float(data["buckets"][-1])


#: Quantiles attached per histogram under ``derived`` (SLO staples).
DERIVED_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def derive_rates(snap: dict) -> dict:
    """Compute the derived ratios the snapshot's raw sums imply.

    * ``interp.<lang>.steps_per_s`` from the per-language step and
      second counters;
    * ``<name>.hit_rate`` for every ``<name>.hits``/``<name>.misses``
      counter pair (decode caches, the ASMsz codegen cache, corpus
      cache, the serving result store, the ``bexpr.nf`` normal-form
      memo);
    * ``<name>.p50``/``.p95``/``.p99`` for every histogram (bucket-
      boundary estimates — see :func:`histogram_quantile`), so latency
      SLO gates can read ``/metrics`` without re-deriving quantiles.

    Returned as a flat name→number dict; exporters attach it under the
    snapshot's ``"derived"`` key so consumers need no arithmetic.
    """
    counters = dict(snap.get("counters", {}))
    counters.update(snap.get("gauges", {}))
    derived: dict[str, float] = {}
    for name, steps in counters.items():
        if name.endswith(".steps"):
            seconds = counters.get(name[:-len(".steps")] + ".seconds")
            if seconds:
                derived[name + "_per_s"] = round(steps / seconds, 3)
        elif name.endswith(".hits"):
            base = name[:-len(".hits")]
            misses = counters.get(base + ".misses")
            if misses is not None and (steps + misses) > 0:
                derived[base + ".hit_rate"] = round(
                    steps / (steps + misses), 6)
    for name, data in snap.get("histograms", {}).items():
        if data.get("count"):
            for label, quantile in DERIVED_QUANTILES:
                derived[f"{name}.{label}"] = histogram_quantile(data,
                                                                quantile)
    return derived
