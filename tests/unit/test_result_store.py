"""Unit tests of the serving result store (``repro.serve.store``).

What these pin down, per the store's contract:

* **key distinctness** — every ``CompilerOptions`` flag flip yields a
  distinct backend stage key (the serving extension of the
  ``test_compiler_options.py`` audit), while the option-independent
  stages share keys across flag flips — which is exactly the partial-hit
  property;
* **integrity** — a corrupted, truncated, or cross-key-substituted
  entry, or one in an older entry format, is detected on ``get``,
  counted, dropped, and never returned; the caller's recompute repairs
  the store;
* **one certificate** — the pipeline hands out the certificate
  ``certify`` writes, and unpickles the stored Clight program only for
  a stage that misses;
* **eviction** — the size cap is honored, pinned (in-flight) entries
  are never evicted, unpinned entries go oldest-first, and a store scans
  only when due: at its first put, then once its running total passes
  the cap or it has put a sixteenth of the cap since its last scan; a
  scan due during a request waits for the request's end.
"""

from __future__ import annotations

import base64
import hashlib
import inspect
import itertools
import json
import pickle

import pytest

from repro import obs
from repro.driver import CompilerOptions, analyze_clight, compile_frontend
from repro.logic.certificate import export_certificate
from repro.programs.loader import load_source
from repro.serve import (STAGES, ResultStore, ServeRequest, options_digest,
                         run_pipeline, source_digest, stage_key)
from repro.serve.store import encode_json

FLAGS = list(inspect.signature(CompilerOptions).parameters)


def _options_with(enabled: tuple[str, ...]) -> CompilerOptions:
    defaults = {name: parameter.default for name, parameter
                in inspect.signature(CompilerOptions).parameters.items()}
    return CompilerOptions(**{name: not defaults[name] if name in enabled
                              else defaults[name] for name in defaults})


@pytest.fixture()
def metrics():
    obs.enable()
    obs.reset()
    yield obs
    obs.disable()
    obs.reset()


def _counter(name: str) -> float:
    return obs.snapshot()["counters"].get(name, 0)


#: A small program the pipeline tests verify.
SOURCE = "int f(void) { return 1; } int main(void) { return f(); }"


def _v1_entry(key: str, payload, codec: str) -> bytes:
    """An entry as the ``repro.serve.store/1`` format wrote it: one JSON
    wrapper around a JSON or base64-pickle payload."""
    if codec == "json":
        wire, raw = payload, json.dumps(payload, sort_keys=True).encode()
    else:
        raw = pickle.dumps(payload, protocol=4)
        wire = base64.b64encode(raw).decode("ascii")
    return json.dumps({"schema": "repro.serve.store/1", "key": key,
                       "codec": codec,
                       "sha256": hashlib.sha256(raw).hexdigest(),
                       "payload": wire}).encode()


def _v2_entry(key: str, payload, codec: str) -> bytes:
    """An entry as the ``repro.serve.store/2`` format wrote it: today's
    header line and payload bytes under the old schema."""
    data = encode_json(payload) if codec == "json" else payload
    return json.dumps({"schema": "repro.serve.store/2", "key": key,
                       "codec": codec,
                       "sha256": hashlib.sha256(data).hexdigest()}
                      ).encode() + b"\n" + data


class TestKeys:
    def test_every_flag_flip_changes_the_backend_key(self):
        """Pairwise flag-flip audit, lifted to serving keys."""
        src = source_digest("int main(void){return 0;}")
        combinations = [()] + [
            combo for r in (1, 2)
            for combo in itertools.combinations(FLAGS, r)]
        keys = {}
        for combo in combinations:
            key = stage_key("backend", src,
                            options_digest(_options_with(combo)))
            assert key not in keys, \
                f"options {combo} and {keys[key]} alias backend key {key}"
            keys[key] = combo

    def test_option_independent_stages_share_keys_across_flags(self):
        """The structural fact behind near-repeat partial hits."""
        source = "int main(void){return 0;}"
        for combo in [()] + [(f,) for f in FLAGS]:
            request = ServeRequest(source, options=_options_with(combo))
            keys = request.keys()
            baseline = ServeRequest(source).keys()
            for stage in ("frontend", "analyze", "check"):
                assert keys[stage] == baseline[stage]
            if combo:
                assert keys["backend"] != baseline["backend"]

    def test_source_digest_ignores_filename_but_not_macros(self):
        source = "int main(void){return N;}"
        assert ServeRequest(source, filename="a.c").keys() \
            == ServeRequest(source, filename="b.c").keys()
        assert source_digest(source, {"N": "1"}) \
            != source_digest(source, {"N": "2"})
        assert source_digest(source, {"N": "1"}) != source_digest(source)

    def test_key_embeds_the_stage_name(self):
        src = source_digest("x")
        names = {stage_key(stage, src) for stage in STAGES}
        assert len(names) == len(STAGES)


class TestRoundTrip:
    @pytest.mark.parametrize("root", ["memory", "disk"])
    def test_json_and_raw_codecs(self, root, tmp_path, metrics):
        store = ResultStore(None if root == "memory" else str(tmp_path))
        payload = {"frame_sizes": {"main": 16}, "metric": {"main": 20}}
        store.put("backend:abc:def", payload)
        assert store.get("backend:abc:def") == payload
        blob = pickle.dumps({"nested": (1, 2, {"three"})})   # not JSON-able
        store.put("frontend:abc", blob, codec="raw")
        assert store.get("frontend:abc", codec="raw") == blob
        assert _counter("store.backend.hits") == 1
        assert _counter("store.frontend.hits") == 1
        assert _counter("store.poisoned") == 0

    def test_entry_is_a_header_line_and_the_payload_bytes(self):
        store = ResultStore()
        store.put("analyze:abc", b'{"functions": {}}', codec="raw")
        line, newline, data = store.raw_read("analyze:abc").partition(b"\n")
        assert (newline, data) == (b"\n", b'{"functions": {}}')
        assert json.loads(line) == {
            "schema": "repro.serve.store/3", "key": "analyze:abc",
            "codec": "raw", "sha256": hashlib.sha256(data).hexdigest()}

    def test_raw_codec_stores_bytes_only(self):
        with pytest.raises(ValueError):
            ResultStore().put("analyze:abc", {"x": 1}, codec="raw")

    @pytest.mark.parametrize("root", ["memory", "disk"])
    def test_miss_is_counted_per_stage(self, root, tmp_path, metrics):
        store = ResultStore(None if root == "memory" else str(tmp_path))
        assert store.get("analyze:nothing") is None
        assert _counter("store.analyze.misses") == 1
        assert _counter("store.misses") == 1


class TestPoisonDetection:
    """A poisoned entry is dropped and recomputed, never returned."""

    @pytest.mark.parametrize("root", ["memory", "disk"])
    def test_corrupted_payload(self, root, tmp_path, metrics):
        store = ResultStore(None if root == "memory" else str(tmp_path))
        key = "backend:abc:def"
        store.put(key, {"value": 1})
        header, newline, data = store.raw_read(key).partition(b"\n")
        # Flip one payload byte under the unchanged header.
        store.raw_write(key, header + newline + data.replace(b"1", b"2"))
        assert store.get(key) is None
        assert _counter("store.poisoned") == 1
        # The entry is gone: a fresh put repairs the store.
        assert key not in store
        store.put(key, {"value": 1})
        assert store.get(key) == {"value": 1}

    def test_truncated_entry(self, tmp_path, metrics):
        store = ResultStore(str(tmp_path))
        store.put("check:abc", {"ok": True})
        text = store.raw_read("check:abc")
        store.raw_write("check:abc", text[:len(text) // 2])
        assert store.get("check:abc") is None
        assert _counter("store.poisoned") == 1

    def test_cross_key_substitution(self, metrics):
        # A valid entry written under another key must not be served:
        # the embedded key is part of the integrity check.
        store = ResultStore()
        store.put("analyze:aaa", {"certificate": "A"})
        store.put("analyze:bbb", {"certificate": "B"})
        store.raw_write("analyze:aaa", store.raw_read("analyze:bbb"))
        assert store.get("analyze:aaa") is None
        assert _counter("store.poisoned") == 1
        assert store.get("analyze:bbb") == {"certificate": "B"}

    @pytest.mark.parametrize("codec, payload, poison", [
        ("json", {"ok": True},
         lambda key, entry: _v1_entry(key, {"ok": True}, "json")),
        ("json", {"ok": True},
         lambda key, entry: entry.replace(b"\n", b"", 1)),
        ("raw", b"\x80\x04stored bytes",
         lambda key, entry: entry[:-1] + bytes([entry[-1] ^ 1])),
    ], ids=["v1-format", "header-without-newline", "raw-byte-flipped"])
    def test_malformed_entry(self, codec, payload, poison, metrics):
        store = ResultStore()
        store.put("check:abc", payload, codec=codec)
        store.raw_write("check:abc",
                        poison("check:abc", store.raw_read("check:abc")))
        assert store.get("check:abc", codec=codec) is None
        assert _counter("store.poisoned") == 1
        assert "check:abc" not in store

    def test_wrong_codec_is_poison(self, metrics):
        store = ResultStore()
        store.put("frontend:abc", b"{}", codec="raw")
        assert store.get("frontend:abc", codec="json") is None
        assert _counter("store.poisoned") == 1

    def test_pipeline_recomputes_through_poison(self, metrics):
        # End to end: poison the analyze entry of a warmed pipeline and
        # re-run — the stage recomputes and the answer is unchanged.
        store = ResultStore()
        request = ServeRequest(SOURCE)
        first, _body = run_pipeline(request, store)
        key = request.keys()["analyze"]
        store.raw_write(key, store.raw_read(key)[:-10])
        second, _body = run_pipeline(request, store)
        assert second["stages"]["analyze"] == "miss"
        assert second["stages"]["frontend"] == "hit"
        assert second["bounds"] == first["bounds"]
        assert _counter("store.poisoned") == 1

    @staticmethod
    def _recomputes_old_entries(store, request, first, body, entries):
        """Write ``entries`` (stage -> old-format bytes) over a warm
        store: the next request recomputes each one once, and the answer
        is unchanged."""
        keys = request.keys()
        for stage, entry in entries.items():
            store.raw_write(keys[stage], entry)
        poisoned = _counter("store.poisoned")
        second, second_body = run_pipeline(request, store)
        assert second["stages"] == {stage: "miss" for stage in STAGES}
        assert _counter("store.poisoned") - poisoned == len(STAGES)
        assert second["bounds"] == first["bounds"]
        assert json.loads(second_body)["certificate"] \
            == json.loads(body)["certificate"]
        third, _body = run_pipeline(request, store)
        assert third["stages"] == {stage: "hit" for stage in STAGES}
        assert _counter("store.poisoned") - poisoned == len(STAGES)

    def test_pipeline_recomputes_a_v1_store(self, tmp_path, metrics):
        # A daemon restarted onto a store the /1 format wrote.
        store = ResultStore(str(tmp_path))
        request = ServeRequest(SOURCE)
        first, body = run_pipeline(request, store)
        keys = request.keys()
        clight = compile_frontend(SOURCE, "<request>")
        old = {"frontend": (clight, "pickle"),
               "backend": (store.get(keys["backend"]), "json"),
               "analyze": ({"certificate": export_certificate(
                   analyze_clight(clight))}, "json"),
               "check": (store.get(keys["check"]), "json")}
        self._recomputes_old_entries(store, request, first, body, {
            stage: _v1_entry(keys[stage], payload, codec)
            for stage, (payload, codec) in old.items()})

    def test_pipeline_recomputes_a_v2_store(self, tmp_path, metrics):
        # A daemon restarted onto a store the /2 format wrote, whose
        # analyze entries hold version 3 certificates.
        store = ResultStore(str(tmp_path))
        request = ServeRequest(SOURCE)
        first, body = run_pipeline(request, store)
        keys = request.keys()
        certificate = {**json.loads(body)["certificate"], "version": 3}
        old = {"frontend": (store.get(keys["frontend"], codec="raw"), "raw"),
               "backend": (store.get(keys["backend"]), "json"),
               "analyze": (encode_json(certificate), "raw"),
               "check": (store.get(keys["check"]), "json")}
        self._recomputes_old_entries(store, request, first, body, {
            stage: _v2_entry(keys[stage], payload, codec)
            for stage, (payload, codec) in old.items()})

    def test_poisoned_frontend_under_full_hits(self, metrics):
        # The frontend entry is hash-checked on every request, even when
        # no later stage needs the program: poison is still recomputed.
        store = ResultStore()
        request = ServeRequest(SOURCE)
        run_pipeline(request, store)
        key = request.keys()["frontend"]
        store.raw_write(key, store.raw_read(key)[:-1])
        document, _body = run_pipeline(request, store)
        assert document["stages"] == {"frontend": "miss", "backend": "hit",
                                      "analyze": "hit", "check": "hit"}
        assert _counter("store.poisoned") == 1
        document, _body = run_pipeline(request, store)
        assert set(document["stages"].values()) == {"hit"}


class TestPipelineAnswer:
    """What the pipeline returns: one certificate, encoded once."""

    @pytest.mark.parametrize("path", ["mibench/crc32.c",
                                      "funcptr/dispatch.c",
                                      "recursive/fact_sq.c"])
    def test_served_certificate_is_the_certify_output(self, path):
        source = load_source(path)
        request = ServeRequest(source, filename=path)
        store = ResultStore()
        document, body = run_pipeline(request, store)
        certify = export_certificate(
            analyze_clight(compile_frontend(source, path))).encode()
        # The same bytes: stored, and written into the answer as they are.
        assert store.get(request.keys()["analyze"], codec="raw") == certify
        assert b'"certificate": ' + certify + b', "check": ' in body
        assert document["certificate"] == json.loads(certify)
        assert body == json.dumps(document, sort_keys=True).encode()

    def test_full_hit_does_not_unpickle_the_program(self, monkeypatch):
        store = ResultStore()
        request = ServeRequest(SOURCE)
        run_pipeline(request, store)
        loads = []
        real_loads = pickle.loads
        monkeypatch.setattr(pickle, "loads",
                            lambda data: loads.append(data) or real_loads(data))
        document, _body = run_pipeline(request, store)
        assert set(document["stages"].values()) == {"hit"}
        assert loads == []
        # A stage that misses (here the backend, under a new option)
        # loads the stored program, once.
        document, _body = run_pipeline(
            ServeRequest(SOURCE, options=CompilerOptions(cse=True)), store)
        assert document["stages"]["backend"] == "miss"
        assert len(loads) == 1


class TestEviction:
    """Size-capped, pin-aware, oldest-first."""

    def _filled(self, max_bytes: int) -> ResultStore:
        store = ResultStore(max_bytes=max_bytes)
        return store

    def test_cap_is_honored(self, metrics):
        store = ResultStore(max_bytes=2000)
        for index in range(40):
            store.put(f"backend:src{index}:opt", {"pad": "x" * 100})
        assert store.size_bytes() <= 2000
        assert _counter("store.evictions") > 0

    def test_eviction_is_oldest_first(self, metrics):
        store = ResultStore(max_bytes=8_000)
        for index in range(20):
            store.put(f"backend:src{index}:opt", {"pad": "x" * 100})
        store.get("backend:src0:opt")               # refresh the LRU stamp
        for index in range(20, 40):
            store.put(f"backend:src{index}:opt", {"pad": "x" * 100})
        # The refreshed entry survived; the stale neighbors did not.
        assert "backend:src0:opt" in store
        assert "backend:src1:opt" not in store

    def test_pinned_entries_are_never_evicted(self, metrics):
        store = ResultStore(max_bytes=1500)
        with store.pinned("backend:hot:opt"):
            store.put("backend:hot:opt", {"pad": "x" * 100})
            for index in range(40):
                store.put(f"backend:cold{index}:opt", {"pad": "x" * 100})
            # Massive pressure, yet the in-flight entry is still there...
            assert "backend:hot:opt" in store
        # ...and pins are refcounts: after release it is fair game.
        store.pin("backend:hot:opt")
        store.pin("backend:hot:opt")
        store.unpin("backend:hot:opt")
        assert "backend:hot:opt" in store
        store.unpin("backend:hot:opt")
        for index in range(40, 80):
            store.put(f"backend:cold{index}:opt", {"pad": "x" * 100})
        assert "backend:hot:opt" not in store

    def test_a_request_scans_only_when_due(self, tmp_path, monkeypatch,
                                           metrics):
        store = ResultStore(str(tmp_path))
        scans = []
        entries = store._entries
        monkeypatch.setattr(store, "_entries",
                            lambda: scans.append(1) or entries())
        # A process's first request scans once, when it releases its pins.
        document, _body = run_pipeline(ServeRequest(SOURCE), store)
        assert set(document["stages"].values()) == {"miss"}
        assert len(scans) == 1
        # A later cold request far under the cap does not scan...
        other = SOURCE.replace("return", "return 1 +", 1)
        document, _body = run_pipeline(ServeRequest(other), store)
        assert set(document["stages"].values()) == {"miss"}
        assert len(scans) == 1
        gauge = obs.snapshot()["gauges"]["store.bytes"]
        assert gauge == sum(path.stat().st_size
                            for path in tmp_path.glob("*.json"))
        # ...but a put taking the running total over the cap scans at once.
        store.max_bytes = gauge + 100
        store.put("backend:other:opt", {"pad": "x" * 200})
        assert len(scans) == 2
        assert store.size_bytes() <= store.max_bytes

    def test_two_writers_stay_within_their_bound(self, tmp_path, metrics):
        """Each writer scans once it has written more than a sixteenth of
        the cap, at that put when it holds no pins, so two writers
        overshoot it by at most two sixteenths plus one put each; this
        sequence stays within the two sixteenths."""
        max_bytes = 32_000
        writers = [ResultStore(str(tmp_path), max_bytes),
                   ResultStore(str(tmp_path), max_bytes)]
        scans = []
        for writer in writers:
            evict = writer._evict_if_needed

            def scan(writer=writer, evict=evict):
                evict()
                scans.append(writer._scanned)
            writer._evict_if_needed = scan
        # The first writer scans at its first put, then the second fills
        # the directory to the cap behind its back; entries ~570 bytes.
        keys = (f"backend:src{index}:opt" for index in itertools.count())
        peak = 0
        for writer, puts in ((0, 1), (1, 80), (0, 40), (1, 40), (0, 40)):
            for _ in range(puts):
                writers[writer].put(next(keys), {"pad": "x" * 500})
                peak = max(peak, sum(path.stat().st_size
                                     for path in tmp_path.glob("*.json")))
        # The first writer's stale total lets it overshoot the cap, by less
        # than the bound; without the sixteenth rule it reached 1.8x.
        assert max_bytes < peak <= max_bytes * (1 + 2 / 16)
        assert 2 < len(scans) < 200 and max(scans) <= max_bytes

    def test_a_request_overshooting_the_cap_ends_under_it(self, tmp_path,
                                                         metrics):
        request = ServeRequest(SOURCE)
        alone = ResultStore()
        run_pipeline(request, alone)
        store = ResultStore(str(tmp_path))
        for index in range(20):
            store.put(f"backend:old{index}:opt", {"pad": "x" * 500})
        # The request's four puts overshoot the cap by half their size.
        store.max_bytes = store.size_bytes() + alone.size_bytes() // 2
        run_pipeline(request, store)
        assert store.size_bytes() <= store.max_bytes
        assert obs.snapshot()["gauges"]["store.bytes"] == store.size_bytes()
        assert _counter("store.evictions") > 0
        # The request's own entries were pinned while the scan ran.
        assert all(key in store for key in request.keys().values())

    def test_disk_store_cap(self, tmp_path, metrics):
        store = ResultStore(str(tmp_path), max_bytes=2000)
        for index in range(40):
            store.put(f"backend:src{index}:opt", {"pad": "x" * 100})
        assert store.size_bytes() <= 2000
        assert _counter("store.evictions") > 0

    @pytest.mark.parametrize("root", [None, "disk"])
    def test_occupancy_gauge_tracks_puts(self, tmp_path, metrics, root):
        """``store.bytes`` makes the LRU cap observable on /metrics."""
        store = ResultStore(str(tmp_path) if root else None,
                            max_bytes=1 << 20)
        assert "store.bytes" not in obs.snapshot()["gauges"]
        store.put("backend:src0:opt", {"pad": "x" * 100})
        first = obs.snapshot()["gauges"]["store.bytes"]
        assert first > 0
        store.put("backend:src1:opt", {"pad": "x" * 100})
        assert obs.snapshot()["gauges"]["store.bytes"] > first
        assert obs.snapshot()["gauges"]["store.bytes"] \
            == store.size_bytes()

    def test_occupancy_gauge_reflects_eviction(self, metrics):
        store = ResultStore(max_bytes=2000)
        for index in range(40):
            store.put(f"backend:src{index}:opt", {"pad": "x" * 100})
        assert _counter("store.evictions") > 0
        assert obs.snapshot()["gauges"]["store.bytes"] <= 2000
