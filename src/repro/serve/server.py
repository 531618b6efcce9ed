"""``python -m repro serve``: certified stack bounds as an HTTP service.

A zero-dependency daemon (stdlib ``http.server`` — one thread per
connection — over the :class:`~repro.serve.pool.ServePool` worker
processes).  Endpoints:

* ``POST /verify`` — a C translation unit in, the verified bounds plus
  the re-checkable proof certificate out (see ``docs/SERVING.md`` for
  the request/response schema).
* ``GET /metrics`` — the pool-wide metrics snapshot (counters, gauges,
  per-request latency histograms, store hit/miss counters and derived
  rates), the same document ``--metrics-out`` writes.
* ``GET /healthz`` — liveness: uptime, in-flight count, worker
  heartbeat ages.

Responses the daemon can produce for ``/verify``:

====  =====================================================
200   verified bounds + certificate
400   malformed request (bad JSON or length, unknown option, …)
413   the declared body exceeds :data:`MAX_BODY_BYTES`; not read
422   the pipeline rejected the program (parse error, recursion, …)
500   an internal error, or a worker lost without a result
503   every in-flight slot taken — ``Retry-After`` is set, nothing
      was queued; the client owns the retry
504   the request exceeded the per-request budget (or its worker died)
====  =====================================================

``run_server`` adds the process discipline: one-line exit-2
diagnostics for a port that is already bound or a pool that fails to
start, and a ``SIGTERM``/``SIGINT`` handler that stops accepting,
drains in-flight requests, then exits 0.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro import obs
from repro.obs.export import metrics_document
from repro.serve.pipeline import (error_response, options_from_json,
                                  splice_json)
from repro.serve.pool import PoolSaturated, ServePool
from repro.serve.store import (DEFAULT_MAX_BYTES, ServeError, encode_json,
                               options_digest, source_digest)

#: Where the daemon keeps its result store by default (a sibling of the
#: campaign's corpus cache).
DEFAULT_STORE_DIR = os.path.join(".repro-cache", "serve")

#: Seconds a 503 tells the client to back off before retrying.
RETRY_AFTER_S = 1

#: Batch response stream schema identifier (one NDJSON line per item).
BATCH_SCHEMA = "repro.serve.batch/1"

#: Most items one ``POST /batch`` may carry.
MAX_BATCH_ITEMS = 64

#: Largest request body ``/verify`` or ``/batch`` reads.
MAX_BODY_BYTES = 8 << 20


class ServeConfig:
    """Everything one daemon needs (defaults match the CLI's)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 jobs: int = 2, queue_depth: int = 16,
                 timeout_s: float = 60.0,
                 store_root: Optional[str] = DEFAULT_STORE_DIR,
                 store_max_bytes: int = DEFAULT_MAX_BYTES,
                 allow_chaos: bool = False) -> None:
        self.host = host
        self.port = port
        self.jobs = jobs
        self.queue_depth = queue_depth
        self.timeout_s = timeout_s
        self.store_root = store_root
        self.store_max_bytes = store_max_bytes
        #: Honor the test-only ``chaos`` request field (fault injection
        #: and the smoke script's deliberate saturation probes).  The
        #: CLI never sets this.
        self.allow_chaos = allow_chaos


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # The daemon's own telemetry goes through /metrics; per-connection
    # stderr chatter would swamp a loaded server.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def _srv(self) -> "BoundsServer":
        return self.server  # type: ignore[return-value]

    def _send_json(self, status: int, payload: dict,
                   headers: Optional[dict] = None) -> None:
        self._send_body(status, encode_json(payload), headers)

    def _send_body(self, status: int, body: bytes,
                   headers: Optional[dict] = None) -> None:
        """Send one encoded JSON document as it is, plus a newline."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body) + 1))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body + b"\n")
        obs.add(f"serve.responses.{status}")

    # -- GET ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/healthz":
            self._send_json(200, self._srv.health())
            return
        if self.path == "/metrics":
            self._send_json(200, metrics_document(obs.snapshot()))
            return
        self._send_json(404, {"error": f"no such endpoint {self.path}"})

    # -- POST /verify and /batch -------------------------------------------

    def do_POST(self) -> None:  # noqa: N802
        if self.path == "/batch":
            self._do_batch()
            return
        if self.path != "/verify":
            self._send_json(404, {"error": f"no such endpoint {self.path}"})
            return
        started = time.perf_counter()
        obs.add("serve.requests")
        raw = self._read_body()
        if raw is None:
            return
        try:
            fields = self._parse_request_body(raw)
        except ServeError as error:
            self._send_json(400, error_response(error))
            return
        try:
            status, warm, body = self._srv.pool.submit(**fields)
        except PoolSaturated as error:
            self._send_json(503, error_response(error),
                            headers={"Retry-After": str(RETRY_AFTER_S)})
            return
        self._send_body(status, body)
        _observe_request(started, status, warm)

    # -- POST /batch -------------------------------------------------------

    def _do_batch(self) -> None:
        """Verify a list of sources in one request, streaming NDJSON.

        The batch is deduplicated up front — items agreeing on
        ``(source, macros, options, probe)`` share one pipeline
        execution, the duplicates carrying a ``duplicate_of`` reference
        to their representative's index — and the residual unique items
        fan out across the worker pool concurrently (queuing politely
        on a full pool instead of shedding).  Results stream back one
        JSON line per item in completion order, so a bulk client starts
        consuming answers while the tail is still compiling.
        """
        started = time.perf_counter()
        obs.add("serve.batch.requests")
        raw = self._read_body()
        if raw is None:
            return
        try:
            items = self._parse_batch_body(raw)
        except ServeError as error:
            self._send_json(400, error_response(error))
            return
        obs.add("serve.batch.items", len(items))
        representatives: dict[tuple, int] = {}
        duplicate_of: dict[int, int] = {}
        for index, fields in enumerate(items):
            key = (source_digest(fields["source"], fields["macros"]),
                   options_digest(fields["options"]),
                   bool(fields["probe"]))
            if key in representatives:
                duplicate_of[index] = representatives[key]
            else:
                representatives[key] = index
        obs.add("serve.batch.deduped", len(duplicate_of))

        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        self._send_chunk(encode_json({"schema": BATCH_SCHEMA,
                                      "items": len(items),
                                      "unique": len(representatives)}))

        answers: "queue.Queue[tuple[int, int, bytes]]" = queue.Queue()

        def run_one(index: int) -> None:
            item_started = time.perf_counter()
            try:
                status, warm, body = self._srv.pool.submit(
                    block=True, **items[index])
            except PoolSaturated as error:
                status, warm, body = (503, False,
                                      encode_json(error_response(error)))
            _observe_request(item_started, status, warm)
            answers.put((index, status, body))

        threads = [threading.Thread(target=run_one, args=(index,),
                                    daemon=True)
                   for index in representatives.values()]
        for thread in threads:
            thread.start()
        followers: dict[int, list[int]] = {}
        for index, representative in duplicate_of.items():
            followers.setdefault(representative, []).append(index)
        for _ in range(len(representatives)):
            index, status, body = answers.get()
            self._send_chunk(splice_json({"index": index, "status": status},
                                         "body", body))
            for duplicate in followers.get(index, ()):
                self._send_chunk(splice_json(
                    {"index": duplicate, "status": status,
                     "duplicate_of": index}, "body", body))
        for thread in threads:
            thread.join(1.0)
        self._send_chunk(encode_json({"done": True}))
        self.wfile.write(b"0\r\n\r\n")
        obs.add("serve.responses.200")
        obs.observe("serve.batch_seconds", time.perf_counter() - started)

    def _send_chunk(self, line: bytes) -> None:
        """Send one encoded NDJSON line as one chunk."""
        self.wfile.write(b"%X\r\n%s\n\r\n" % (len(line) + 1, line))

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once a bad length is answered:
        400 if negative or not an integer, 413 above the cap.  Neither
        reads the body, so the connection closes after the answer."""
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if 0 <= length <= MAX_BODY_BYTES:
            return self.rfile.read(length)
        if length < 0:
            status, message = 400, f"malformed Content-Length {declared!r}"
        else:
            status, message = 413, (f"a {length}-byte body is over the "
                                    f"{MAX_BODY_BYTES}-byte limit")
        self._send_json(status, error_response(ServeError(message)),
                        headers={"Connection": "close"})
        return None

    def _parse_batch_body(self, raw: bytes) -> list[dict]:
        """The per-item ``ServePool.submit`` kwargs for one batch."""
        try:
            data = json.loads(raw)
        except ValueError as error:   # bad JSON, or bytes that are not text
            raise ServeError(f"request is not valid JSON: {error}") \
                from None
        if not isinstance(data, dict) \
                or not isinstance(data.get("items"), list):
            raise ServeError('batch request must be {"items": [...]}')
        items = data["items"]
        if not items:
            raise ServeError("batch needs at least one item")
        if len(items) > MAX_BATCH_ITEMS:
            raise ServeError(
                f"batch carries {len(items)} items "
                f"(limit {MAX_BATCH_ITEMS})")
        fields = []
        for index, item in enumerate(items):
            try:
                fields.append(_request_fields(item))
            except ServeError as error:
                raise ServeError(f"batch item {index}: {error}") from None
        return fields

    def _parse_request_body(self, raw: bytes) -> dict:
        """The ``ServePool.submit`` kwargs for this HTTP request.

        Two content types: ``application/json`` carries
        ``{source, filename?, macros?, options?}``; anything else is
        the raw C source with default options.
        """
        content_type = (self.headers.get("Content-Type") or "").split(";")[0]
        if content_type.strip().lower() != "application/json":
            if not raw.strip():
                raise ServeError("empty request body; expected C source")
            return {"source": raw.decode("utf-8", "replace"),
                    "filename": "<request>"}
        try:
            data = json.loads(raw)
        except ValueError as error:   # bad JSON, or bytes that are not text
            raise ServeError(f"request is not valid JSON: {error}") \
                from None
        fields = _request_fields(data)
        if self._srv.config.allow_chaos and isinstance(data, dict) \
                and data.get("chaos"):
            fields["chaos"] = str(data["chaos"])
        return fields


def _request_fields(data) -> dict:
    """Validate one JSON verify item into ``ServePool.submit`` kwargs.

    Shared by ``/verify`` (the whole body) and ``/batch`` (per item);
    the test-only ``chaos`` hook is deliberately not part of this
    surface — batch items never carry faults.
    """
    if not isinstance(data, dict) \
            or not isinstance(data.get("source"), str):
        raise ServeError('request must be {"source": "<C text>", ...}')
    macros = data.get("macros")
    if macros is not None and (
            not isinstance(macros, dict)
            or not all(isinstance(k, str) and isinstance(v, str)
                       for k, v in macros.items())):
        raise ServeError("macros must map names to string values")
    return {"source": data["source"],
            "filename": str(data.get("filename", "<request>")),
            "macros": macros,
            "options": options_from_json(data.get("options")),
            "probe": bool(data.get("probe", False))}


def _observe_request(started: float, status: int, warm: bool) -> None:
    """Latency telemetry for one answered request.

    ``serve.request_seconds`` keeps the whole population;
    ``serve.warm_seconds`` / ``serve.cold_seconds`` split the verified
    answers by whether every pipeline stage replayed from the store, so
    the ``/metrics`` quantiles stop mixing two regimes that differ by
    orders of magnitude.  Error responses have no stages and stay out
    of the split.
    """
    elapsed = time.perf_counter() - started
    obs.observe("serve.request_seconds", elapsed)
    if status == 200:
        obs.observe("serve.warm_seconds" if warm
                    else "serve.cold_seconds", elapsed)


class BoundsServer(ThreadingHTTPServer):
    """The daemon: an HTTP front end over a :class:`ServePool`.

    Construction order matters for diagnostics: the pool starts first
    (its failure is a ``ServeError``), then the socket binds (an
    ``OSError`` there is rewrapped to name the address) — either way the
    CLI exits 2 with one line on stderr.
    """

    daemon_threads = True

    def __init__(self, config: ServeConfig) -> None:
        obs.enable()
        self.config = config
        self.started_at = time.time()
        self.pool = ServePool(jobs=config.jobs,
                              queue_depth=config.queue_depth,
                              timeout_s=config.timeout_s,
                              store_root=config.store_root,
                              store_max_bytes=config.store_max_bytes)
        try:
            super().__init__((config.host, config.port), _Handler)
        except OSError as error:
            self.pool.close()
            raise ServeError(
                f"cannot bind {config.host}:{config.port}: "
                f"{error.strerror or error}") from error
        obs.set_gauge("serve.started_at", self.started_at)

    @property
    def bound_port(self) -> int:
        """The actual port (useful with ``--port 0``)."""
        return self.server_address[1]

    def health(self) -> dict:
        return {"status": "ok",
                "uptime_s": round(time.time() - self.started_at, 3),
                "inflight": self.pool.inflight,
                "queue_depth": self.config.queue_depth,
                "workers": self.config.jobs}

    def start_background(self) -> threading.Thread:
        """Serve from a daemon thread (tests and embedders)."""
        thread = threading.Thread(target=self.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        return thread

    def stop(self, drain_timeout_s: float = 30.0) -> bool:
        """Stop accepting, drain in-flight requests, release the pool.

        Returns True when every accepted request was answered before
        the deadline — the "never drop an accepted request" half of the
        backpressure contract.
        """
        self.shutdown()
        drained = self.pool.drain(drain_timeout_s)
        self.pool.close()
        self.server_close()
        return drained


def run_server(config: ServeConfig) -> int:
    """The CLI entry: serve until a signal, then drain and exit 0."""
    server = BoundsServer(config)
    print(f"# serving certified bounds on "
          f"http://{config.host}:{server.bound_port} "
          f"(jobs={config.jobs}, queue={config.queue_depth}, "
          f"store={config.store_root or 'memory'})", file=sys.stderr,
          flush=True)

    def _signaled(signum, _frame) -> None:
        print(f"# {signal.Signals(signum).name}: draining "
              f"{server.pool.inflight} in-flight request(s)",
              file=sys.stderr, flush=True)
        # shutdown() must run off the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        previous = {sig: signal.signal(sig, _signaled)
                    for sig in (signal.SIGTERM, signal.SIGINT)}
    except ValueError:  # not the main thread (embedded use)
        previous = {}
    try:
        server.serve_forever(poll_interval=0.2)
        drained = server.pool.drain(max(config.timeout_s, 1.0))
        server.pool.close()
        server.server_close()
        print("# serve: shut down cleanly"
              + ("" if drained else " (drain timed out)"), file=sys.stderr)
        return 0
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
