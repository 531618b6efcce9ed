"""The serving worker pool: persistent processes, bounded in-flight work.

``ServePool`` shards verify requests across a ``multiprocessing.Pool``
that reuses the campaign pool's machinery: the same warmup initializer
(:func:`repro.testing.campaign.pool_warmup` pays import/compile cold
start once per worker) and the same telemetry protocol (workers drain a
per-request metrics *delta* — heartbeat gauges included — that rides
back on the result and is merged into the parent registry, so
``/metrics`` reports pool-wide aggregates without shared memory).

Capacity is a semaphore over *in-flight* requests (running + queued).
``submit`` never blocks on a full queue: it raises
:class:`PoolSaturated` immediately, which the HTTP layer turns into
``503 Retry-After`` — load sheds at the door instead of growing an
unbounded backlog.  Every accepted request gets a terminal answer: a
result, a diagnosed 422, or — if the worker exceeds the per-request
timeout or dies mid-request — a 5xx error response.  A lost worker's
task is never silently retried (the pipeline is deterministic; the
client owns the retry decision).

An answer is ``(http_status, warm, body)``: ``body`` is the response
already encoded (canonical JSON, validated by the process that encoded
it), so the parent writes it as it is, and ``warm`` says whether every
pipeline stage replayed from the store.

``jobs=0`` runs requests in-process (serialized by a lock): no fork, no
IPC — the mode unit tests and tiny deployments use.
"""

from __future__ import annotations

import json
import multiprocessing.pool
import os
import threading
import time
import traceback
from multiprocessing import Pool
from typing import Optional

from repro import obs
from repro.errors import ReproError
from repro.serve.pipeline import ServeRequest, error_response, run_pipeline
from repro.serve.store import (DEFAULT_MAX_BYTES, ResultStore, ServeError,
                               encode_json, options_digest, source_digest)
from repro.testing.campaign import pool_warmup


class PoolSaturated(ServeError):
    """The in-flight queue is full; the caller should shed load (503)."""


#: ``(http_status, warm, encoded body)``: one terminal answer.
Answer = tuple[int, bool, bytes]


def _error(status: int, error: Exception) -> Answer:
    return status, False, encode_json(error_response(error))


class _Flight:
    """One in-flight single-flight computation and its terminal answer."""

    __slots__ = ("done", "answer", "saturated")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.answer: Optional[Answer] = None
        self.saturated = False


#: Worker-side store handles, one per (root, cap) this process has seen.
_worker_stores: dict[tuple, ResultStore] = {}


def _worker_store(root: Optional[str], max_bytes: int) -> ResultStore:
    key = (root, max_bytes)
    store = _worker_stores.get(key)
    if store is None:
        store = _worker_stores[key] = ResultStore(root, max_bytes)
    return store


def _apply_chaos(chaos: Optional[str]) -> None:
    """Test-only fault hooks (never reachable from the HTTP API unless
    the server was constructed with ``allow_chaos=True``)."""
    if not chaos:
        return
    if chaos == "die":
        os._exit(1)
    if chaos.startswith("sleep:"):
        time.sleep(float(chaos.split(":", 1)[1]))


def _execute(payload: dict, store: ResultStore) -> Answer:
    """Run one request against a store."""
    _apply_chaos(payload.get("chaos"))
    request = ServeRequest(source=payload["source"],
                           filename=payload["filename"],
                           macros=payload["macros"],
                           options=_options_from_key(payload["options"]),
                           probe=bool(payload.get("probe", False)))
    try:
        document, body = run_pipeline(request, store)
    except ReproError as error:
        obs.add("serve.pipeline.rejected")
        return _error(422, error)
    except Exception as error:
        # A bug, not a verdict: logged, and counted apart from lost
        # workers (``serve.worker_failures``), since this one survives.
        # A document failing its own schema lands here too.
        traceback.print_exc(limit=-8)
        obs.add("serve.internal_errors")
        return _error(500, error)
    return 200, set(document["stages"].values()) == {"hit"}, body


def _options_from_key(items: list) -> "CompilerOptions":
    from repro.driver import CompilerOptions

    return CompilerOptions(**dict(items))


def _serve_worker(payload: dict) -> tuple[Answer, Optional[dict]]:
    """Pool worker: one request, instrumented, delta shipped back.

    Mirrors the campaign's ``_check_one``: enable obs, discard state
    inherited through ``fork()``, run the request, stamp the worker
    heartbeat gauge, and return the per-request metrics delta for the
    parent to merge.
    """
    obs.enable()
    obs.drain_metrics()
    obs.drain_spans()
    store = _worker_store(payload["store_root"], payload["store_max_bytes"])
    with obs.span("serve.request", filename=payload["filename"]) as span:
        answer = _execute(payload, store)
        span.set(status=answer[0])
    pid = os.getpid()
    obs.set_gauge(f"serve.worker.{pid}.heartbeat", time.time())
    obs.add(f"serve.worker.{pid}.requests")
    return answer, obs.drain_metrics()


class ServePool:
    """A bounded pool of verify workers with merged telemetry."""

    def __init__(self, jobs: int = 2, queue_depth: int = 16,
                 timeout_s: float = 60.0,
                 store_root: Optional[str] = None,
                 store_max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if queue_depth < 1:
            raise ServeError("queue depth must be at least 1")
        self.jobs = jobs
        self.queue_depth = queue_depth
        self.timeout_s = timeout_s
        self.store_root = store_root
        self.store_max_bytes = store_max_bytes
        self._slots = threading.BoundedSemaphore(queue_depth)
        self._inflight = 0
        self._state_lock = threading.Lock()
        self._merge_lock = threading.Lock()
        self._inline_lock = threading.Lock()
        self._flights: dict[tuple, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._store: Optional[ResultStore] = None
        if jobs > 0:
            try:
                self._pool = Pool(processes=jobs, initializer=pool_warmup)
            except Exception as error:
                raise ServeError(
                    f"worker pool failed to start: {error}") from error
        else:
            self._store = ResultStore(store_root, store_max_bytes)

    @property
    def inflight(self) -> int:
        """Requests currently accepted and not yet answered."""
        with self._state_lock:
            return self._inflight

    def submit(self, source: str, filename: str = "<request>",
               macros: Optional[dict[str, str]] = None,
               options=None, chaos: Optional[str] = None,
               probe: bool = False, block: bool = False) -> Answer:
        """Run one request; returns ``(http_status, warm, body)``.

        **Single-flight:** concurrent submits with an identical
        ``(source, macros, options, probe)`` identity collapse onto one
        in-flight computation — the first caller (the *leader*) runs the
        pipeline, every later caller (a *follower*) waits on the
        leader's answer and receives its body with a ``collapsed: true``
        member added, consuming no pool slot and no worker
        (``serve.singleflight.{leaders,followers}`` count both roles).
        Requests carrying a ``chaos`` hook bypass collapsing — fault
        injection must reach the worker it targets.

        Raises :class:`PoolSaturated` when every in-flight slot is taken
        — immediately with ``block=False`` (the ``/verify`` door: load
        sheds as 503), after waiting up to the request budget with
        ``block=True`` (the ``/batch`` fan-out: items queue politely
        instead of shedding their own batch).  Once a request holds a
        slot it always gets a terminal answer — timeouts and dead
        workers come back as 5xx error documents, never as a dropped
        request.
        """
        from repro.driver import CompilerOptions

        options = options or CompilerOptions()
        if chaos is not None:
            return self._dispatch(source, filename, macros, options,
                                  chaos, probe, block)
        key = (source_digest(source, macros), options_digest(options),
               bool(probe))
        with self._flights_lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = _Flight()
                leader = True
            else:
                leader = False
        if not leader:
            return self._follow(flight)
        obs.add("serve.singleflight.leaders")
        try:
            flight.answer = self._dispatch(source, filename, macros,
                                           options, chaos, probe, block)
            return flight.answer
        except PoolSaturated:
            flight.saturated = True
            raise
        finally:
            with self._flights_lock:
                self._flights.pop(key, None)
            flight.done.set()

    def _follow(self, flight: _Flight) -> Answer:
        """Wait out a leader's computation and mark its answer collapsed."""
        obs.add("serve.singleflight.followers")
        if not flight.done.wait(self.timeout_s + 30.0):
            obs.add("serve.timeouts")
            return _error(504, ServeError(
                "collapsed request: the leading computation exceeded "
                f"the {self.timeout_s:.0f}s budget"))
        if flight.saturated:
            obs.add("serve.rejected")
            raise PoolSaturated(
                f"all {self.queue_depth} in-flight slots are taken")
        if flight.answer is None:
            return _error(500, ServeError(
                "collapsed request: the leading computation failed"))
        status, warm, body = flight.answer
        return status, warm, encode_json({**json.loads(body),
                                          "collapsed": True})

    def _dispatch(self, source: str, filename: str,
                  macros: Optional[dict[str, str]], options,
                  chaos: Optional[str], probe: bool,
                  block: bool) -> Answer:
        """Slot accounting + worker dispatch for one uncollapsed request."""
        if not self._slots.acquire(blocking=block,
                                   timeout=self.timeout_s if block
                                   else None):
            obs.add("serve.rejected")
            raise PoolSaturated(
                f"all {self.queue_depth} in-flight slots are taken")
        with self._state_lock:
            self._inflight += 1
        try:
            payload = {"source": source, "filename": filename,
                       "macros": macros, "options": list(options.key()),
                       "chaos": chaos, "probe": probe,
                       "store_root": self.store_root,
                       "store_max_bytes": self.store_max_bytes}
            if self._pool is None:
                # In-process mode: the pipeline writes straight into the
                # live registry; serialize actual execution.
                with self._inline_lock:
                    store = self._store
                    assert store is not None
                    return _execute(payload, store)
            result = self._pool.apply_async(_serve_worker, (payload,))
            try:
                answer, delta = result.get(self.timeout_s)
            except multiprocessing.TimeoutError:
                obs.add("serve.timeouts")
                return _error(504, ServeError(
                    f"request exceeded the {self.timeout_s:.0f}s budget "
                    "or its worker died mid-request"))
            except Exception as error:  # worker lost without a result
                obs.add("serve.worker_failures")
                return _error(500, ServeError(
                    f"worker failed: {type(error).__name__}: {error}"))
            if delta is not None:
                with self._merge_lock:
                    obs.merge(delta)
            return answer
        finally:
            with self._state_lock:
                self._inflight -= 1
            self._slots.release()

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Wait for in-flight requests to finish; True if all did."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.inflight == 0:
                return True
            time.sleep(0.02)
        return self.inflight == 0

    def close(self) -> None:
        """Shut the worker processes down (in-flight answers first:
        call :meth:`drain` before closing for a graceful exit)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
