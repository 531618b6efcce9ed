"""End-to-end tests of the certified-bounds daemon (``repro serve``).

The acceptance contract, executable:

* served bounds are byte-identical to in-process
  ``verify_stack_bounds`` over the catalog sample (the differential-
  oracle pattern of ``test_sem_decode.py``, lifted to HTTP);
* a repeat round is served from the content-addressed store at every
  stage — verified through the ``/metrics`` hit/miss counters, not by
  trusting the response;
* a near-repeat round (same sources, different backend flags) is a
  partial hit: only the backend stage recompiles;
* a saturated queue answers 503 with ``Retry-After`` and never drops a
  request it accepted;
* bad input is answered at once, and never costs a worker;
* a request over its budget is a 504 that stops its worker, a lost
  worker is a 500 at once, and no worker outlives its pool or daemon;
* every body on the wire is the canonical encoding of its document,
  the certificate spliced in as stored included;
* ``SIGTERM`` drains in-flight requests and exits 0 (subprocess test).
"""

from __future__ import annotations

import glob
import http.client
import json
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.driver import CompilerOptions, verify_stack_bounds
from repro.programs.loader import load_source
from repro.serve import STAGES, BoundsServer, ServeConfig, ServePool
from repro.serve.server import MAX_BODY_BYTES

#: The catalog sample: auto-analyzable, fast, structurally varied.
SAMPLE = ("mibench/bitcount.c", "mibench/crc32.c",
          "mibench/dijkstra.c", "mibench/fft.c")

CLIENT_THREADS = 8

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _post_text(port: int, path: str, payload: dict,
               timeout: float = 120.0) -> tuple[int, str, dict]:
    """POST ``payload`` to ``path``; returns ``(status, text, headers)``."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read().decode(), \
                dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode(), dict(error.headers)


def _post(port: int, payload: dict, timeout: float = 120.0):
    """POST /verify; returns ``(status, body_dict, headers)``."""
    status, text, headers = _post_text(port, "/verify", payload, timeout)
    return status, json.loads(text), headers


def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True) + "\n"


def _get(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=30) as response:
        return json.loads(response.read())


def _concurrent(port: int, payloads: list[dict]) -> list:
    """Fire all payloads concurrently; results in submission order."""
    results: list = [None] * len(payloads)

    def client(index: int) -> None:
        results[index] = _post(port, payloads[index])

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(payloads))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(180)
    assert all(result is not None for result in results), \
        "a client thread never got an answer"
    return results


def _store_counters(port: int) -> dict[str, float]:
    counters = _get(port, "/metrics")["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("store.")}


def _pipeline_stats(port: int) -> dict[str, float]:
    """Counters plus histogram counts — the single-flight evidence."""
    snapshot = _get(port, "/metrics")
    stats = dict(snapshot["counters"])
    for name, data in snapshot["histograms"].items():
        stats[f"{name}.count"] = data["count"]
    return stats


def _post_batch(port: int, items: list[dict],
                timeout: float = 180.0) -> list[dict]:
    """POST /batch; returns the parsed NDJSON lines."""
    status, text, _headers = _post_text(port, "/batch", {"items": items},
                                        timeout)
    assert status == 200, text
    return [json.loads(line) for line in text.splitlines()]


def _delta(before: dict, after: dict) -> dict[str, float]:
    return {name: after.get(name, 0) - before.get(name, 0)
            for name in set(before) | set(after)}


def _children(pid: int) -> set[int]:
    """The pids of a process's children, read from Linux ``/proc``."""
    children: set[int] = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as handle:
                children.update(int(child) for child in handle.read().split())
        except FileNotFoundError:   # a thread that ended
            pass
    return children


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One pooled daemon on an ephemeral port, module-wide."""
    store = tmp_path_factory.mktemp("serve-store")
    config = ServeConfig(port=0, jobs=2, queue_depth=16, timeout_s=120.0,
                         store_root=str(store))
    daemon = BoundsServer(config)
    daemon.start_background()
    yield daemon
    assert daemon.stop(drain_timeout_s=30.0)
    obs.disable()
    obs.reset()


class TestDifferentialOracle:
    """Served bounds vs. the in-process pipeline, byte for byte."""

    def test_concurrent_clients_match_in_process(self, server):
        # 8 concurrent clients over the 4-program sample (each program
        # twice) — the differential oracle must hold for every answer.
        payloads = [{"source": load_source(path), "filename": path}
                    for path in SAMPLE * (CLIENT_THREADS // len(SAMPLE))]
        results = _concurrent(server.bound_port, payloads)
        for path, (status, body, _headers) in zip(
                SAMPLE * (CLIENT_THREADS // len(SAMPLE)), results):
            assert status == 200, body
            assert body["verdict"] == "verified"
            expected = verify_stack_bounds(load_source(path), filename=path)
            assert json.dumps(body["bounds"]["functions"], sort_keys=True) \
                == json.dumps(expected.all_bytes(), sort_keys=True), path
            assert body["bounds"]["stack_requirement"] \
                == expected.stack_requirement(), path

    def test_options_change_the_served_metric(self, server):
        source = load_source("mibench/crc32.c")
        _status, default_body, _ = _post(server.bound_port,
                                         {"source": source})
        status, spill_body, _ = _post(
            server.bound_port,
            {"source": source, "options": {"spill_everything": True}})
        assert status == 200
        expected = verify_stack_bounds(
            source, options=CompilerOptions(spill_everything=True))
        assert spill_body["bounds"]["functions"] == expected.all_bytes()
        # The ablation genuinely changed the compiled metric.
        assert spill_body["bounds"]["stack_requirement"] \
            != default_body["bounds"]["stack_requirement"]

    def test_rejected_program_is_a_422_diagnostic(self, server):
        status, body, _ = _post(server.bound_port, {
            "source": "int f(int n) { return f(n); } "
                      "int main(void) { return 0; }"})
        assert status == 422
        assert body["verdict"] == "error"
        assert "recursion" in body["error"]

    def test_malformed_request_is_a_400(self, server):
        status, body, _ = _post(server.bound_port, {
            "source": "int main(void){return 0;}",
            "options": {"no_such_pass": True}})
        assert status == 400
        assert "no_such_pass" in body["error"]


class TestParametricPrograms:
    """Recursive and function-pointer programs through the daemon."""

    def test_recursive_program_serves_parametric_bounds(self, server):
        path = "recursive/bsearch.c"
        status, body, _ = _post(server.bound_port,
                                {"source": load_source(path),
                                 "filename": path})
        assert status == 200, body
        assert body["verdict"] == "verified"
        # The recursive function has no single byte figure — it is
        # reported symbolically in the certificate — while main (which
        # calls it at a concrete depth) still sizes the stack block.
        assert "bsearch" in body["bounds"]["parametric"]
        assert "bsearch" not in body["bounds"]["functions"]
        spec = body["certificate"]["functions"]["bsearch"]["spec"]
        assert spec["params"], "served certificate lost the spec params"
        expected = verify_stack_bounds(load_source(path), filename=path)
        assert body["bounds"]["stack_requirement"] \
            == expected.stack_requirement()

    def test_function_pointer_program_serves_finite_bounds(self, server):
        path = "funcptr/dispatch.c"
        status, body, _ = _post(server.bound_port,
                                {"source": load_source(path),
                                 "filename": path})
        assert status == 200, body
        assert body["verdict"] == "verified"
        assert not body["bounds"].get("parametric")
        expected = verify_stack_bounds(load_source(path), filename=path)
        assert body["bounds"]["functions"] == expected.all_bytes()
        assert body["bounds"]["stack_requirement"] \
            == expected.stack_requirement()


class TestStoreHitsEveryStage:
    """Cache behavior proved through /metrics counters, per stage."""

    def test_repeat_round_hits_every_stage(self, server):
        port = server.bound_port
        payloads = [{"source": load_source(path), "filename": path}
                    for path in SAMPLE]
        _concurrent(port, payloads)                # warm every key
        before = _store_counters(port)
        # Two measured rounds, each of distinct requests: concurrent
        # *identical* requests would collapse onto one single-flight
        # execution and touch the store once for the whole burst.
        results = _concurrent(port, payloads) + _concurrent(port, payloads)
        assert all(status == 200 for status, _b, _h in results)
        for _status, body, _headers in results:
            assert all(body["stages"][stage] == "hit" for stage in STAGES)
        delta = _delta(before, _store_counters(port))
        for stage in STAGES:
            assert delta.get(f"store.{stage}.hits", 0) == len(payloads) * 2
            assert delta.get(f"store.{stage}.misses", 0) == 0
        assert delta.get("store.poisoned", 0) == 0

    def test_near_repeat_misses_only_the_backend(self, server):
        # Same (warm) sources under a fresh backend ablation: the
        # option-independent stages replay, only the backend recompiles.
        port = server.bound_port
        payloads = [{"source": load_source(path), "filename": path,
                     "options": {"cse": True}} for path in SAMPLE]
        before = _store_counters(port)
        results = _concurrent(port, payloads)
        assert all(status == 200 for status, _b, _h in results)
        for _status, body, _headers in results:
            assert body["stages"]["backend"] == "miss"
            assert body["stages"]["frontend"] == "hit"
            assert body["stages"]["analyze"] == "hit"
            assert body["stages"]["check"] == "hit"
        delta = _delta(before, _store_counters(port))
        assert delta.get("store.backend.misses", 0) == len(payloads)
        for stage in ("frontend", "analyze", "check"):
            assert delta.get(f"store.{stage}.misses", 0) == 0


class TestBackpressure:
    """A saturated queue sheds load without dropping accepted work."""

    @pytest.fixture()
    def tiny_server(self):
        config = ServeConfig(port=0, jobs=0, queue_depth=1, timeout_s=30.0,
                             store_root=None, allow_chaos=True)
        daemon = BoundsServer(config)
        daemon.start_background()
        yield daemon
        assert daemon.stop(drain_timeout_s=10.0)

    def test_503_with_retry_after_and_no_dropped_requests(self, tiny_server):
        port = tiny_server.bound_port
        source = "int main(void) { return 0; }"
        payloads = [{"source": source, "chaos": "sleep:0.5"}
                    for _ in range(CLIENT_THREADS)]
        results = _concurrent(port, payloads)
        accepted = [(s, b) for s, b, _h in results if s == 200]
        shed = [(s, b, h) for s, b, h in results if s == 503]
        other = [(s, b) for s, b, _h in results if s not in (200, 503)]
        assert not other, other
        # With one in-flight slot and 0.5 s holds, concurrency must shed.
        assert accepted and shed
        # Every accepted request got a full verified answer.
        for _status, body in accepted:
            assert body["verdict"] == "verified"
            assert body["bounds"]["functions"]["main"] >= 4
        # Every shed request was told when to come back.
        for _status, body, headers in shed:
            assert headers.get("Retry-After") == "1"
            assert body["verdict"] == "error"
            assert "slots" in body["error"]
        # The daemon recovers once the burst passes.
        status, body, _ = _post(port, {"source": source})
        assert status == 200 and body["verdict"] == "verified"

    def test_chaos_is_ignored_without_opt_in(self, server):
        # The production configuration must not expose the fault hooks.
        started = time.perf_counter()
        status, body, _ = _post(server.bound_port, {
            "source": "int main(void) { return 0; }", "chaos": "sleep:5.0"})
        assert status == 200 and body["verdict"] == "verified"
        assert time.perf_counter() - started < 5.0


class TestMalformedInput:
    """Input that used to hang, crash or lose a worker gets a status."""

    @pytest.mark.parametrize("path", ["/verify", "/batch"])
    @pytest.mark.parametrize("length, status", [
        (-1, 400), ("12x", 400), (MAX_BODY_BYTES + 1, 413), (1 << 40, 413)])
    def test_bad_content_length_is_answered_at_once(self, server, path,
                                                    length, status):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.bound_port, timeout=1.0)
        try:
            connection.putrequest("POST", path)
            connection.putheader("Content-Length", str(length))
            connection.endheaders()     # and no body: none is read
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert (response.status, body["verdict"]) == (status, "error")
        assert response.getheader("Connection") == "close"

    @pytest.mark.parametrize("depth", [60, 120])
    def test_deeply_parenthesised_expression_verifies(self, server, depth):
        source = ("int main(void) { return " + "(" * depth + "1"
                  + ")" * depth + "; }")
        status, body, _ = _post(server.bound_port, {"source": source})
        assert (status, body["verdict"]) == (200, "verified")

    @pytest.mark.parametrize("literal", ["0x", "08", "09"])
    def test_malformed_integer_literal_is_a_422(self, literal):
        daemon = BoundsServer(ServeConfig(port=0, jobs=0, queue_depth=2,
                                          timeout_s=60.0, store_root=None))
        daemon.start_background()
        try:
            before = _get(daemon.bound_port, "/metrics")["counters"]
            status, body, _ = _post(daemon.bound_port, {
                "source": f"int x = {literal}; int main(void) {{ return x; }}"})
            after = _get(daemon.bound_port, "/metrics")["counters"]
        finally:
            daemon.stop(drain_timeout_s=10.0)
        assert (status, body["verdict"]) == (422, "error")
        assert f"malformed numeric literal {literal!r}" in body["error"]
        assert _delta(before, after).get("serve.internal_errors", 0) == 0

    @pytest.mark.parametrize("jobs", [0, 1])
    def test_pipeline_exception_is_an_internal_error(self, jobs):
        # Typecheck recurses once per operator of a 2000-term chain and
        # runs out of stack.
        chain = ("int main(void) { int x = 1; return "
                 + "+".join(["x"] * 2000) + "; }")
        daemon = BoundsServer(ServeConfig(port=0, jobs=jobs, queue_depth=2,
                                          timeout_s=60.0, store_root=None))
        daemon.start_background()
        try:
            before = _get(daemon.bound_port, "/metrics")["counters"]
            status, body, _ = _post(daemon.bound_port, {"source": chain})
            after = _get(daemon.bound_port, "/metrics")["counters"]
        finally:
            daemon.stop(drain_timeout_s=10.0)
        assert (status, body["kind"]) == (500, "RecursionError")
        delta = _delta(before, after)
        assert delta.get("serve.internal_errors") == 1
        assert delta.get("serve.worker_failures", 0) == 0

    @pytest.mark.parametrize("initializer",
                             ["1/0", "5 % 0", "1 << -1", "1e400"])
    def test_undefined_initializer_is_a_422(self, server, initializer):
        before = _get(server.bound_port, "/metrics")["counters"]
        status, body, _ = _post(server.bound_port, {
            "source": f"int x = {initializer};\n"
                      "int main(void) { return x; }\n"})
        after = _get(server.bound_port, "/metrics")["counters"]
        assert (status, body["verdict"]) == (422, "error")
        assert "<request>:1:" in body["error"]
        delta = _delta(before, after)
        assert delta.get("serve.internal_errors", 0) == 0
        assert delta.get("serve.worker_failures", 0) == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="reads worker pids from Linux /proc")
class TestPoolWorkers:
    """The pool owns its worker processes: a 504 stops its request, a
    lost worker is answered at once, and no worker outlives the pool."""

    @staticmethod
    def _chaos_daemon(timeout_s: float) -> BoundsServer:
        daemon = BoundsServer(ServeConfig(port=0, jobs=1, queue_depth=4,
                                          timeout_s=timeout_s,
                                          store_root=None, allow_chaos=True))
        daemon.start_background()
        return daemon

    def test_pool_starts_no_thread(self):
        # Threads an earlier test left may end meanwhile: compare sets.
        before = set(threading.enumerate())
        pool = ServePool(jobs=2, store_root=None)
        try:
            assert set(threading.enumerate()) - before == set()
        finally:
            pool.close()

    def test_over_budget_request_stops_its_worker(self):
        daemon = self._chaos_daemon(timeout_s=0.5)
        port = daemon.bound_port
        try:
            before = _get(port, "/metrics")["counters"]
            started = time.perf_counter()
            status, body, _ = _post(port, {
                "source": "int main(void) { return 0; }",
                "chaos": "sleep:3"})
            elapsed = time.perf_counter() - started
            # Distinct sources, so each one runs the pipeline.
            after_statuses = [
                _post(port, {"source": f"int main(void) {{ return {n}; }}"})[0]
                for n in range(1, 5)]
            after = _get(port, "/metrics")["counters"]
        finally:
            daemon.stop(drain_timeout_s=10.0)
        assert (status, body["verdict"]) == (504, "error")
        assert "0.5s budget" in body["error"]
        assert elapsed < 1.0
        assert after_statuses == [200] * 4
        delta = _delta(before, after)
        assert delta.get("serve.timeouts") == 1
        assert delta.get("serve.worker_failures", 0) == 0

    def test_lost_worker_is_answered_at_once(self):
        daemon = self._chaos_daemon(timeout_s=3.0)
        port = daemon.bound_port
        try:
            before = _get(port, "/metrics")["counters"]
            started = time.perf_counter()
            status, body, _ = _post(port, {
                "source": "int main(void) { return 0; }", "chaos": "die"})
            elapsed = time.perf_counter() - started
            next_status = _post(port, {
                "source": "int main(void) { return 1; }"})[0]
            after = _get(port, "/metrics")["counters"]
        finally:
            daemon.stop(drain_timeout_s=10.0)
        assert (status, body["verdict"]) == (500, "error")
        assert elapsed < 1.0
        assert next_status == 200
        delta = _delta(before, after)
        assert delta.get("serve.worker_failures") == 1
        assert delta.get("serve.timeouts", 0) == 0

    def test_infinite_budget_is_served(self):
        pool = ServePool(jobs=1, timeout_s=float("inf"), store_root=None)
        try:
            status, _warm, _body = pool.submit("int main(void) { return 0; }")
        finally:
            pool.close()
        assert status == 200

    def test_close_leaves_no_worker(self):
        before = {child.pid for child in multiprocessing.active_children()}
        pool = ServePool(jobs=2, store_root=None)
        workers = {child.pid for child
                   in multiprocessing.active_children()} - before
        pool.close()
        assert len(workers) == 2
        assert not [pid for pid in workers if _running(pid)]

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL],
                             ids=["SIGTERM", "SIGKILL"])
    def test_no_worker_outlives_the_daemon(self, signum):
        """A drained daemon reaps its workers; a killed one cannot, and its
        workers notice it is gone."""
        process, _port = TestSignalDrain._pooled_daemon()
        workers = _children(process.pid)
        try:
            process.send_signal(signum)
            process.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while any(map(_running, workers)) \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            left = [pid for pid in workers if _running(pid)]
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=10)
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            process.stderr.close()
        assert len(workers) == 2
        assert left == []


class TestDrain:
    """A drain ends when the answers in flight are written, not when they
    are computed: the daemon may exit as soon as it returns."""

    def test_stop_waits_for_the_answer_to_be_written(self, monkeypatch):
        from repro.serve.server import _Handler

        written = threading.Event()
        send_body = _Handler._send_body

        def slow_send_body(handler, *args, **kwargs):
            time.sleep(0.3)
            send_body(handler, *args, **kwargs)
            written.set()

        monkeypatch.setattr(_Handler, "_send_body", slow_send_body)
        daemon = BoundsServer(ServeConfig(port=0, jobs=0, queue_depth=2,
                                          timeout_s=30.0, store_root=None,
                                          allow_chaos=True))
        daemon.start_background()
        client = threading.Thread(target=_post, args=(daemon.bound_port, {
            "source": "int main(void) { return 0; }", "chaos": "sleep:0.3"}))
        client.start()
        deadline = time.monotonic() + 30.0
        while daemon.pool.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert daemon.stop(drain_timeout_s=10.0)
        assert written.is_set()
        client.join(30)
        assert not client.is_alive()


class TestMetricsDoc:
    """The docs name what the daemon emits, and nothing deleted."""

    def test_every_emitted_serving_metric_is_documented(self, server):
        port = server.bound_port
        item = {"source": "int main(void) { return 41; }"}
        statuses = [_post(port, dict(item, probe=probe))[0]
                    for probe in (False, False, True, True)]
        statuses += [_post(port, {"source": 7})[0],
                     _post(port, {"source": "int main(void) {"})[0]]
        assert statuses == [200, 200, 200, 200, 400, 422]
        assert len(_post_batch(port, [item, item])) == 4
        snapshot = _get(port, "/metrics")
        emitted = {name for kind in ("counters", "gauges", "histograms")
                   for name in snapshot[kind]
                   if name.startswith(("serve.", "store."))}
        for name in ("serve.pipeline.rejected", "serve.batch.deduped",
                     "serve.started_at", "serve.warm_seconds"):
            assert name in emitted, name
        normalised = set()
        for name in emitted:
            name = re.sub(r"^serve\.worker\.\d+\.", "serve.worker.<pid>.",
                          name)
            name = re.sub(r"^serve\.responses\.\d+$",
                          "serve.responses.<status>", name)
            normalised.add(re.sub(rf"^store\.({'|'.join(STAGES)})\.",
                                  "store.<stage>.", name))
        with open(os.path.join(REPO, "docs", "SERVING.md")) as handle:
            text = handle.read()
        table = text[text.index("| name | kind | meaning |"):]
        documented = {name for row in table[:table.index("\n\n")].split("\n")
                      for name in re.findall(r"`([^`]+)`", row.split("|")[1])}
        assert not normalised - documented, sorted(normalised - documented)

    def test_every_documented_metric_is_in_the_code(self):
        # A metric deleted from the code must leave the docs too: each
        # serve.*, store.* or codegen.* name they give is a string
        # literal in src/ (a <placeholder> matches an f-string field, a
        # hit rate its hits counter; {a,b} and * forms are skipped).
        literal = re.compile(r'"((?:serve|store|codegen)\.[^"]*)"')
        literals = set()
        for path in glob.glob(os.path.join(REPO, "src", "**", "*.py"),
                              recursive=True):
            with open(path) as handle:
                literals.update(re.sub(r"\{[^}]*\}", "<>", name)
                                for name in literal.findall(handle.read()))
        for path in glob.glob(os.path.join(REPO, "docs", "*.md")) + [
                os.path.join(REPO, "README.md")]:
            with open(path) as handle:
                text = handle.read()
            for token in re.findall(r"`((?:serve|store|codegen)\.[^`*{]*)`",
                                    text):
                name = re.sub(r"\.hit_rate$", ".hits",
                              re.sub(r"<[^>]*>", "<>", token))
                assert name in literals, f"{path} names {token}"


class TestWireBytes:
    """Every body is ``json.dumps(sort_keys=True)`` of its document,
    in-process and through a worker, cold, warm, batched and collapsed."""

    PROGRAMS = ("mibench/crc32.c", "funcptr/dispatch.c",
                "recursive/fact_sq.c")

    @pytest.fixture(scope="class", params=[0, 1], ids=["inline", "pool"])
    def wire_server(self, request):
        config = ServeConfig(port=0, jobs=request.param, queue_depth=8,
                             timeout_s=120.0, store_root=None,
                             allow_chaos=True)
        daemon = BoundsServer(config)
        daemon.start_background()
        yield daemon
        assert daemon.stop(drain_timeout_s=30.0)

    @staticmethod
    def _collapsed_burst(server, item: dict, burst: int = 3) -> list[str]:
        """Bodies of ``burst`` identical requests sent while a chaos sleep
        holds the only executor, so all but the leader collapse."""
        port = server.bound_port
        sleeper = threading.Thread(target=_post_text, args=(
            port, "/verify",
            {"source": "int main(void) { return 0; }",
             "chaos": "sleep:1.0"}))
        sleeper.start()
        deadline = time.monotonic() + 30.0
        while server.pool.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert server.pool.inflight == 1, "the sleep never took its slot"
        answers: list = [None] * burst

        def client(index: int) -> None:
            answers[index] = _post_text(port, "/verify", item)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(burst)]
        for thread in threads:
            thread.start()
        for thread in threads + [sleeper]:
            thread.join(180)
            assert not thread.is_alive(), "a client never got an answer"
        assert all(status == 200 for status, _text, _h in answers), answers
        return [text for _status, text, _headers in answers]

    @pytest.mark.parametrize("path", PROGRAMS)
    def test_every_body_is_canonical(self, wire_server, path):
        port = wire_server.bound_port
        item = {"source": load_source(path), "filename": path}
        (cold_status, cold, _h), (warm_status, warm, _h) = (
            _post_text(port, "/verify", item) for _ in range(2))
        assert (cold_status, warm_status) == (200, 200)
        assert cold == _canonical(cold) and warm == _canonical(warm)
        cold_doc, warm_doc = json.loads(cold), json.loads(warm)
        assert set(cold_doc["stages"].values()) == {"miss"}
        assert set(warm_doc["stages"].values()) == {"hit"}
        for volatile in ("stages", "elapsed_s"):
            del cold_doc[volatile], warm_doc[volatile]
        assert cold_doc == warm_doc

        status, batch, _headers = _post_text(port, "/batch",
                                             {"items": [item, dict(item)]})
        assert status == 200
        lines = batch.splitlines(keepends=True)
        assert all(line == _canonical(line) for line in lines)
        results = [json.loads(line) for line in lines[1:-1]]
        assert [line.get("duplicate_of") for line in results] == [None, 0]
        assert results[0]["body"] == results[1]["body"]

        bodies = self._collapsed_burst(
            wire_server, dict(item, macros={"X_WIRE_BURST": path}))
        assert all(text == _canonical(text) for text in bodies)
        documents = [json.loads(text) for text in bodies]
        followers = [doc for doc in documents if doc.pop("collapsed", None)]
        assert len(followers) == len(documents) - 1
        assert all(doc == documents[0] for doc in documents)


class TestHealthz:
    def test_health_document(self, server):
        health = _get(server.bound_port, "/healthz")
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["inflight"] == 0
        assert health["uptime_s"] >= 0

    def test_unknown_endpoint_404(self, server):
        try:
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.bound_port}/nope", timeout=30)
            assert False, "expected a 404"
        except urllib.error.HTTPError as error:
            assert error.code == 404


class TestSingleFlight:
    """Concurrent identical requests collapse onto one computation."""

    def test_identical_burst_runs_the_pipeline_once(self, server):
        port = server.bound_port
        burst = 6
        # A macros tag nobody else uses guarantees a cold (slow) key, so
        # the followers genuinely arrive while the leader is in flight.
        payload = {"source": load_source("mibench/crc32.c"),
                   "filename": "mibench/crc32.c",
                   "macros": {"X_SINGLE_FLIGHT_BURST": "1"}}
        before = _pipeline_stats(port)
        results = _concurrent(port, [dict(payload) for _ in range(burst)])
        assert all(status == 200 for status, _b, _h in results)
        delta = _delta(before, _pipeline_stats(port))
        # Exactly one pipeline execution for the whole burst...
        assert delta.get("serve.singleflight.leaders", 0) == 1
        assert delta.get("serve.singleflight.followers", 0) == burst - 1
        assert delta.get("serve.pipeline_seconds.count", 0) == 1
        # ...every follower says so, and every answer is the same bound.
        collapsed = [body for _s, body, _h in results
                     if body.get("collapsed") is True]
        assert len(collapsed) == burst - 1
        bounds = {body["bounds"]["stack_requirement"]
                  for _s, body, _h in results}
        assert len(bounds) == 1

    def test_distinct_requests_do_not_collapse(self, server):
        port = server.bound_port
        payloads = [{"source": load_source(path), "filename": path,
                     "macros": {"X_NO_COLLAPSE": str(index)}}
                    for index, path in enumerate(SAMPLE[:2])]
        before = _pipeline_stats(port)
        results = _concurrent(port, payloads)
        assert all(status == 200 for status, _b, _h in results)
        delta = _delta(before, _pipeline_stats(port))
        assert delta.get("serve.singleflight.leaders", 0) == 2
        assert delta.get("serve.singleflight.followers", 0) == 0
        assert not any(body.get("collapsed") for _s, body, _h in results)


class TestBatch:
    """POST /batch: in-batch dedup, pool fan-out, streamed results."""

    def test_batch_dedups_and_streams_every_item(self, server):
        port = server.bound_port
        source = load_source("mibench/bitcount.c")
        items = [{"source": source, "filename": "one.c"},
                 {"source": "int main(void) { return 5; }"},
                 {"source": source, "filename": "dup-of-one.c"}]
        before = _pipeline_stats(port)
        lines = _post_batch(port, items)
        header, results, footer = lines[0], lines[1:-1], lines[-1]
        assert header["schema"] == "repro.serve.batch/1"
        assert header["items"] == 3 and header["unique"] == 2
        assert footer == {"done": True}
        by_index = {line["index"]: line for line in results}
        assert set(by_index) == {0, 1, 2}
        for line in results:
            assert line["status"] == 200
            assert line["body"]["verdict"] == "verified"
        # The duplicate rode its representative's computation.
        assert by_index[2]["duplicate_of"] == 0
        assert "duplicate_of" not in by_index[0]
        assert by_index[2]["body"]["bounds"] \
            == by_index[0]["body"]["bounds"]
        # The served bounds match the in-process oracle.
        expected = verify_stack_bounds(source, filename="one.c")
        assert by_index[0]["body"]["bounds"]["functions"] \
            == expected.all_bytes()
        delta = _delta(before, _pipeline_stats(port))
        assert delta.get("serve.batch.requests", 0) == 1
        assert delta.get("serve.batch.items", 0) == 3
        assert delta.get("serve.batch.deduped", 0) == 1

    def test_malformed_batch_is_a_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.bound_port}/batch",
            data=json.dumps({"items": [{"source": 7}]}).encode(),
            headers={"Content-Type": "application/json"})
        try:
            urllib.request.urlopen(request, timeout=30)
            assert False, "expected a 400"
        except urllib.error.HTTPError as error:
            assert error.code == 400
            assert "batch item 0" in json.loads(error.read())["error"]


class TestRestartPersistence:
    """The store survives a restart; the compiled code does not."""

    #: Small, auto-analyzable, runs in microseconds at its bound.
    SOURCE = ("int leaf(int x) { int a[6]; a[x % 6] = x; return a[0]; }\n"
              "int main(void) { return leaf(4); }\n")

    def _spawn(self, store_dir: str) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "0", "--store-dir", store_dir],
            stderr=subprocess.PIPE, text=True, env=env,
            cwd=REPO)

    def _serve_once(self, store_dir: str) -> tuple[dict, dict]:
        """Boot, serve one probe request, SIGTERM; returns (body, metrics)."""
        process = self._spawn(store_dir)
        try:
            line = process.stderr.readline()
            assert "serving certified bounds" in line
            port = int(line.split("http://127.0.0.1:")[1].split()[0])
            status, body, _ = _post(
                port, {"source": self.SOURCE, "probe": True}, timeout=120)
            assert status == 200, body
            metrics = _get(port, "/metrics")
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        return body, metrics

    def test_restarted_daemon_recomputes_no_stored_stage(self, tmp_path):
        store_dir = str(tmp_path / "store")

        cold_body, cold_metrics = self._serve_once(store_dir)
        assert cold_body["stages"] == {stage: "miss" for stage in STAGES}
        assert cold_body["probe"]["codegen"] == "generated"
        assert cold_metrics["histograms"].get(
            "codegen.compile_seconds", {}).get("count", 0) == 1

        warm_body, warm_metrics = self._serve_once(store_dir)
        # Nothing stored is recomputed...
        assert warm_body["stages"] == {stage: "hit" for stage in STAGES}
        assert warm_metrics["counters"].get("store.misses", 0) == 0
        assert warm_body["bounds"] == cold_body["bounds"]
        # ...and the probe, which is not stored, observes the same run.
        cold_probe, warm_probe = cold_body["probe"], warm_body["probe"]
        assert warm_probe["codegen"] == "generated"
        for field in ("converged", "measured_bytes", "steps"):
            assert warm_probe[field] == cold_probe[field], field


class TestSignalDrain:
    """SIGTERM stops accepting, drains in-flight work, exits 0."""

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "0", "--no-store"],
            stderr=subprocess.PIPE, text=True, env=env,
            cwd=REPO)
        try:
            line = process.stderr.readline()
            assert "serving certified bounds" in line
            port = int(line.split("http://127.0.0.1:")[1].split()[0])
            status, body, _ = _post(
                port, {"source": "int main(void) { return 2; }"},
                timeout=60)
            assert status == 200 and body["verdict"] == "verified"
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=30)
            stderr = process.stderr.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        assert code == 0, stderr
        assert "draining" in stderr
        assert "shut down cleanly" in stderr

    @staticmethod
    def _pooled_daemon() -> tuple[subprocess.Popen, int]:
        """A ``--jobs 2`` daemon leading its own process group."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2", "--no-store"],
            stderr=subprocess.PIPE, text=True, env=env, cwd=REPO,
            start_new_session=True)
        line = process.stderr.readline()
        assert "serving certified bounds" in line
        return process, int(line.split("http://127.0.0.1:")[1].split()[0])

    @staticmethod
    def _stop(process: subprocess.Popen, target: str, signum) -> tuple:
        """Signal the daemon or its whole group; its exit code and stderr
        (None if it is still running 30 s later)."""
        if target == "group":
            os.killpg(process.pid, signum)
        else:
            process.send_signal(signum)
        try:
            code = process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            code = None
        return code, process.stderr.read()

    @pytest.mark.parametrize(
        "target,signum",
        [("group", signal.SIGINT), ("group", signal.SIGTERM),
         ("pid", signal.SIGTERM)],
        ids=["group-SIGINT", "group-SIGTERM", "pid-SIGTERM"])
    def test_pooled_daemon_drains_on_a_signal(self, target, signum):
        """A signal to the whole process group (Ctrl-C, ``kill -TERM
        -PGID``, ``timeout``) reaches the workers too; the daemon still
        drains and exits 0, as for a signal to the daemon alone."""
        process, port = self._pooled_daemon()
        try:
            status, body, _ = _post(
                port, {"source": "int main(void) { return 2; }"},
                timeout=60)
            assert status == 200 and body["verdict"] == "verified"
            code, stderr = self._stop(process, target, signum)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=10)
        assert code == 0, stderr
        assert "shut down cleanly" in stderr
        assert "Traceback" not in stderr

    def test_group_sigterm_answers_the_request_in_flight(self):
        """The workers outlive a group SIGTERM until the daemon has
        drained: a probe running when the signal lands is answered."""
        process, port = self._pooled_daemon()
        answers: list = []
        source = load_source("compcert/mandelbrot.c")
        client = threading.Thread(target=lambda: answers.append(_post(
            port, {"source": source, "probe": True}, timeout=60)))
        try:
            client.start()
            time.sleep(0.3)
            code, stderr = self._stop(process, "group", signal.SIGTERM)
            client.join(timeout=60)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=10)
        assert code == 0, stderr
        assert [status for status, _body, _ in answers] == [200]
        assert "shut down cleanly" in stderr
        assert "Traceback" not in stderr

    def test_bound_port_is_an_exit_2_diagnostic(self):
        from repro.__main__ import main

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            code = main(["serve", "--port", str(port), "--jobs", "0",
                         "--no-store"])
            assert code == 2
        finally:
            blocker.close()
            obs.disable()
            obs.reset()
