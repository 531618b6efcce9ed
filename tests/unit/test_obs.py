"""Unit tests for ``repro.obs``: spans, metrics, merge, disabled no-op."""

import json

import pytest

from repro import obs
from repro.obs.export import (chrome_trace_document, metrics_document,
                              spans_jsonl_lines, validate_metrics_document,
                              validate_span_record, validate_spans_jsonl)
from repro.obs.metrics import (Histogram, MetricsRegistry, derive_rates,
                               empty_snapshot, merge_snapshots)
from repro.obs.spans import NULL_SPAN, SpanRecorder


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with a disabled, empty facade."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSpanRecorder:
    def test_nesting_parents(self):
        recorder = SpanRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        inner, outer = recorder.records
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None

    def test_durations_and_attrs(self):
        recorder = SpanRecorder()
        with recorder.span("work", {"phase": "test"}) as sp:
            sp.set(items=3)
        record = recorder.records[0]
        assert record["dur"] >= 0 and record["cpu"] >= 0
        assert record["attrs"] == {"phase": "test", "items": 3}
        assert record["ts"] > 0

    def test_exception_marks_error_attr(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("doomed"):
                raise ValueError("boom")
        assert recorder.records[0]["attrs"]["error"] == "ValueError"

    def test_drain_and_adopt(self):
        recorder = SpanRecorder()
        with recorder.span("a"):
            pass
        shipped = recorder.drain()
        assert recorder.records == [] and len(shipped) == 1
        other = SpanRecorder()
        other.adopt(shipped)
        assert other.records == shipped

    def test_sibling_spans_share_parent(self):
        recorder = SpanRecorder()
        with recorder.span("parent"):
            with recorder.span("first"):
                pass
            with recorder.span("second"):
                pass
        first, second, parent = recorder.records
        assert first["parent"] == second["parent"] == parent["id"]


class TestHistogram:
    def test_bucket_placement(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 5.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1]   # <=1, <=2, overflow
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(8.0)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))


class TestRegistryMerge:
    def test_counters_add_gauges_max(self):
        registry = MetricsRegistry()
        registry.add("seeds", 2)
        registry.set_gauge("heartbeat", 10.0)
        registry.merge({"counters": {"seeds": 3, "new": 1},
                        "gauges": {"heartbeat": 7.0, "other": 1.0}})
        snap = registry.snapshot()
        assert snap["counters"] == {"seeds": 5, "new": 1}
        assert snap["gauges"] == {"heartbeat": 10.0, "other": 1.0}

    def test_histograms_merge_bucketwise(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.observe("lat", 0.002, buckets=(0.001, 0.01))
        b.observe("lat", 0.5, buckets=(0.001, 0.01))
        a.merge(b.snapshot())
        merged = a.snapshot()["histograms"]["lat"]
        assert merged["counts"] == [0, 1, 1]
        assert merged["count"] == 2

    def test_histogram_bucket_mismatch_rejected(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.observe("lat", 1.0, buckets=(1.0, 2.0))
        b.observe("lat", 1.0, buckets=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_drain_resets(self):
        registry = MetricsRegistry()
        registry.add("x")
        delta = registry.drain()
        assert delta["counters"] == {"x": 1}
        assert registry.snapshot() == empty_snapshot()

    def test_merge_snapshots_matches_registry_merge(self):
        """The plain-dict fold and the registry fold agree."""
        deltas = [{"counters": {"s": 1}, "gauges": {"g": float(i)},
                   "histograms": {"h": {"buckets": [1.0], "counts": [1, 0],
                                        "sum": 0.5, "count": 1}}}
                  for i in range(3)]
        plain = empty_snapshot()
        registry = MetricsRegistry()
        for delta in deltas:
            merge_snapshots(plain, delta)
            registry.merge(delta)
        assert plain == registry.snapshot()


class TestDerivedRates:
    def test_steps_per_second(self):
        derived = derive_rates({"counters": {"interp.asm.steps": 1000,
                                             "interp.asm.seconds": 2.0}})
        assert derived["interp.asm.steps_per_s"] == 500.0

    def test_hit_rate_from_counters_and_gauges(self):
        derived = derive_rates({"counters": {"decode.asm.cache.hits": 3,
                                             "decode.asm.cache.misses": 1},
                                "gauges": {"bexpr.nf.hits": 9,
                                           "bexpr.nf.misses": 1}})
        assert derived["decode.asm.cache.hit_rate"] == 0.75
        assert derived["bexpr.nf.hit_rate"] == 0.9

    def test_no_rate_without_denominator(self):
        assert derive_rates({"counters": {"x.steps": 5}}) == {}
        assert derive_rates({"counters": {"x.hits": 5}}) == {}


class TestDisabledFacade:
    def test_span_is_the_shared_null_span(self):
        assert obs.span("anything", key=1) is NULL_SPAN
        with obs.span("anything") as sp:
            sp.set(ignored=True)
        assert obs.span_records() == []
        assert NULL_SPAN.attrs == {}

    def test_metrics_are_noops(self):
        obs.add("c", 5)
        obs.set_gauge("g", 1.0)
        obs.observe("h", 0.1)
        assert obs.registry.snapshot() == empty_snapshot()

    def test_enable_records(self):
        obs.enable()
        with obs.span("region", tag="x"):
            obs.add("counter")
        assert obs.span_records()[0]["name"] == "region"
        assert obs.registry.snapshot()["counters"] == {"counter": 1}

    def test_traced_decorator(self):
        @obs.traced("fn.region")
        def double(x):
            return 2 * x

        assert double(3) == 6              # disabled: no record
        assert obs.span_records() == []
        obs.enable()
        assert double(4) == 8
        assert obs.span_records()[0]["name"] == "fn.region"


class TestExportDocuments:
    def _records(self):
        recorder = SpanRecorder()
        with recorder.span("outer", {"k": "v"}):
            with recorder.span("inner"):
                pass
        return recorder.records

    def test_spans_jsonl_roundtrip(self):
        lines = list(spans_jsonl_lines(self._records()))
        assert validate_spans_jsonl(lines) == 2
        meta = json.loads(lines[0])
        assert meta["type"] == "meta"

    def test_span_record_validation_catches_drift(self):
        record = dict(self._records()[0], type="span")
        validate_span_record(record)
        broken = dict(record)
        del broken["dur"]
        with pytest.raises(ValueError):
            validate_span_record(broken)
        with pytest.raises(ValueError):
            validate_span_record(dict(record, attrs={"bad": [1, 2]}))

    def test_chrome_trace_document(self):
        document = chrome_trace_document(self._records())
        assert {e["name"] for e in document["traceEvents"]} \
            == {"outer", "inner"}
        for event in document["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_metrics_document_validates(self):
        registry = MetricsRegistry()
        registry.add("interp.asm.steps", 100)
        registry.add("interp.asm.seconds", 0.5)
        registry.observe("lat", 0.01)
        document = metrics_document(registry.snapshot())
        validate_metrics_document(document)
        assert document["derived"]["interp.asm.steps_per_s"] == 200.0
        with pytest.raises(ValueError):
            validate_metrics_document(dict(document, schema="nope"))


class TestAsmTierTelemetry:
    """``exec.asm`` records when a run entered generated code, and the
    ``interp.codegen.*`` counters count only the work done there."""

    @staticmethod
    def _run(path, **run):
        from repro.driver import compile_c
        from repro.programs.loader import load_source

        compilation = compile_c(load_source(path), filename=path)
        obs.enable()
        _behavior, machine = compilation.run(**run)
        (span,) = [record for record in obs.span_records()
                   if record["name"] == "exec.asm"]
        return machine, span["attrs"], obs.snapshot()["counters"]

    def test_long_default_run_tiers_up(self):
        machine, attrs, counters = self._run("compcert/mandelbrot.c")
        assert attrs["engine"] == "decoded"
        assert attrs["tier_up_at"] == machine.tier_up_at > 0
        assert counters["interp.asm.tier_ups"] == 1
        assert counters["interp.codegen.runs"] == 1
        assert counters["interp.codegen.steps"] \
            == machine.steps - machine.tier_up_at
        assert 0 < counters["interp.codegen.seconds"] \
            < counters["interp.asm.seconds"]

    def test_short_default_run_stays_decoded(self):
        _machine, attrs, counters = self._run("certikos/proc.c")
        assert attrs["engine"] == "decoded"
        assert "tier_up_at" not in attrs
        assert "interp.asm.tier_ups" not in counters
        assert "interp.codegen.runs" not in counters

    def test_codegen_counters_stop_at_a_deopt(self):
        machine, attrs, counters = self._run(
            "compcert/mandelbrot.c", engine="codegen", fuel=10_000)
        assert attrs["engine"] == "codegen" and attrs["tier_up_at"] == 0
        assert "interp.asm.tier_ups" not in counters
        assert 0 < counters["interp.codegen.steps"] < machine.steps == 10_000

    def test_codegen_cache_counts_one_compile_per_program(self):
        from repro.asm.machine import run_program
        from repro.driver import compile_c

        compilation = compile_c(
            "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i;"
            " return s; }")
        obs.enable()
        run_program(compilation.asm, engine="codegen")
        run_program(compilation.asm, engine="codegen")
        snapshot = obs.snapshot()
        counters = snapshot["counters"]
        assert counters["codegen.asm.cache.misses"] == 1
        assert counters["codegen.asm.cache.hits"] == 1
        assert snapshot["histograms"]["codegen.compile_seconds"]["count"] == 1
        assert "codegen.asm.installs" not in counters


class TestSemanticsExecSpans:
    """``exec.clight``/``exec.rtl``/``exec.mach`` name the engine that
    ran (the default is ``decoded``), and those levels never touch the
    codegen instruments, which are ASMsz only."""

    @pytest.mark.parametrize("engine", [None, "legacy", "decoded"])
    @pytest.mark.parametrize("level", ["clight", "rtl", "mach"])
    def test_span_names_the_engine(self, level, engine):
        import importlib

        from repro.driver import compile_c
        from repro.events.stream import null_sink
        from repro.programs.loader import load_source

        sem = importlib.import_module(f"repro.{level}.semantics")
        compilation = compile_c(load_source("paper_example.c"),
                                filename="paper_example.c")
        obs.enable()
        outcome = sem.run_streamed(getattr(compilation, level), null_sink,
                                   engine=engine)
        (span,) = [record for record in obs.span_records()
                   if record["name"] == f"exec.{level}"]
        assert span["attrs"]["engine"] == (engine or "decoded")
        assert span["attrs"]["steps"] == outcome.steps
        counters = obs.snapshot()["counters"]
        assert counters[f"interp.{level}.steps"] == outcome.steps
        assert not [name for name in counters
                    if name.startswith(("codegen.", "interp.codegen."))]
