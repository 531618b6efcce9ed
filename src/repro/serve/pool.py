"""The serving worker pool: persistent processes, bounded in-flight work.

``ServePool`` owns ``jobs`` worker processes, forked from the daemon,
each with one duplex pipe to it.  Idle workers wait in a queue; a
request takes one, sends it ``(ServeRequest, chaos)`` and waits on that
pipe for the answer.  A worker pays the campaign's import/compile cold
start once (:func:`repro.testing.campaign.pool_warmup`), builds its
:class:`ResultStore` once, and ships a per-request metrics *delta* —
heartbeat gauges included — back with each answer; the daemon merges
it into its registry, so ``/metrics`` reports pool-wide aggregates
without shared memory.

Capacity is a semaphore over *in-flight* requests (running + waiting
for a worker).  ``submit`` never blocks on a full queue: it raises
:class:`PoolSaturated` immediately, which the HTTP layer turns into
``503 Retry-After`` — load sheds at the door instead of growing an
unbounded backlog.  Every admitted request gets a terminal answer
within its budget, which starts at admission: a result, a diagnosed
422, a 504 when the budget runs out, or a 500 as soon as its worker is
lost (an EOF on the pipe).  A 504 SIGKILLs the worker running the
request, so the request stops there; a fresh worker replaces it, and
one replaces a lost worker too.  A lost worker's request is never
retried (the pipeline is deterministic; the client owns the retry
decision).

A worker ignores SIGINT and SIGTERM, which a signal to the daemon's
process group delivers to it as well: the daemon drains the requests
in flight, then :meth:`ServePool.close` SIGKILLs and joins every
worker.  A worker shares no lock with the daemon.  It exits when its
pipe closes or when the daemon dies, which it watches through the
daemon's process sentinel.  A worker forked later holds copies of the
daemon's ends of both for every earlier worker, so when the daemon is
killed the youngest worker exits first and each exit frees the next.

An answer is ``(http_status, warm, body)``: ``body`` is the response
already encoded (canonical JSON, validated by the process that encoded
it), so the parent writes it as it is, and ``warm`` says whether every
pipeline stage replayed from the store.

``jobs=0`` runs requests in-process (serialized by a lock, and without
a budget): no fork, no IPC — the mode unit tests and tiny deployments
use.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import signal
import threading
import time
import traceback
from multiprocessing.connection import wait
from multiprocessing.util import Finalize
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


def _seconds_left(deadline: float) -> float:
    """The wait left before ``deadline``, capped at the longest poll(2)
    takes (milliseconds in a C int), so an infinite budget still waits."""
    return min(max(0.0, deadline - time.monotonic()), (2 ** 31 - 1) / 1000)


def _apply_chaos(chaos: Optional[str]) -> None:
    """Test-only fault hooks (never reachable from the HTTP API unless
    the server was constructed with ``allow_chaos=True``)."""
    if not chaos:
        return
    if chaos == "die":
        os._exit(1)
    if chaos.startswith("sleep:"):
        time.sleep(float(chaos.split(":", 1)[1]))


def _execute(request: ServeRequest, chaos: Optional[str],
             store: ResultStore) -> Answer:
    """Run one request against a store."""
    _apply_chaos(chaos)
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


class _Worker(multiprocessing.Process):
    """One worker process: ``conn`` is the daemon's end of its pipe,
    ``pipe`` the worker's."""

    def __init__(self, store_root: Optional[str], max_bytes: int) -> None:
        super().__init__(daemon=True)
        self.conn, self.pipe = multiprocessing.Pipe()
        self._store_args = (store_root, max_bytes)

    def run(self) -> None:
        """Answer requests until the pipe closes or the daemon dies.

        Mirrors the campaign's ``_check_one``: obs state inherited
        through ``fork()`` is discarded before each request, and the
        answer carries the request's metrics delta, the worker's
        heartbeat gauge included.
        """
        self.conn.close()
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        pool_warmup()
        obs.enable()
        store = ResultStore(*self._store_args)
        daemon = multiprocessing.parent_process().sentinel
        try:
            while daemon not in wait([self.pipe, daemon]):
                request, chaos = self.pipe.recv()
                obs.drain_metrics()
                obs.drain_spans()
                with obs.span("serve.request",
                              filename=request.filename) as span:
                    answer = _execute(request, chaos, store)
                    span.set(status=answer[0])
                obs.set_gauge(f"serve.worker.{self.pid}.heartbeat",
                              time.time())
                obs.add(f"serve.worker.{self.pid}.requests")
                self.pipe.send((answer, obs.drain_metrics()))
        except (EOFError, OSError):
            pass  # the daemon closed the pipe or is gone


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
        self._idle: "queue.SimpleQueue[_Worker]" = queue.SimpleQueue()
        self._workers: set[_Worker] = set()
        self._workers_lock = threading.Lock()
        self._closed = False
        # At exit too, before multiprocessing terminates and joins its
        # children: its SIGTERM would not end a worker.
        self._finalizer = Finalize(None, self._stop_workers, exitpriority=10)
        self._store = (ResultStore(store_root, store_max_bytes) if jobs == 0
                       else None)
        try:
            for _ in range(jobs):
                self._start_worker()
        except Exception as error:
            self.close()
            raise ServeError(
                f"worker pool failed to start: {error}") from error

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
        slot it always gets a terminal answer — timeouts and lost
        workers come back as 5xx error documents, never as a dropped
        request.
        """
        request = ServeRequest(source, filename, macros, options, probe)
        if chaos is not None:
            return self._dispatch(request, chaos, block)
        key = (source_digest(source, macros),
               options_digest(request.options), bool(probe))
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
            flight.answer = self._dispatch(request, chaos, block)
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
                f"the {self.timeout_s:g}s budget"))
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

    def _dispatch(self, request: ServeRequest, chaos: Optional[str],
                  block: bool) -> Answer:
        """Slot accounting + worker dispatch for one uncollapsed request."""
        if not self._slots.acquire(blocking=block,
                                   timeout=self.timeout_s if block
                                   else None):
            obs.add("serve.rejected")
            raise PoolSaturated(
                f"all {self.queue_depth} in-flight slots are taken")
        deadline = time.monotonic() + self.timeout_s
        with self._state_lock:
            self._inflight += 1
        try:
            if self.jobs == 0:
                # In-process mode: the pipeline writes straight into the
                # live registry; serialize actual execution.
                with self._inline_lock:
                    return _execute(request, chaos, self._store)
            return self._run(request, chaos, deadline)
        finally:
            with self._state_lock:
                self._inflight -= 1
            self._slots.release()

    def _run(self, request: ServeRequest, chaos: Optional[str],
             deadline: float) -> Answer:
        """Run one request on an idle worker before ``deadline``."""
        try:
            worker = self._idle.get(timeout=_seconds_left(deadline))
        except queue.Empty:
            return self._over_budget()
        try:
            worker.conn.send((request, chaos))
            done = worker.conn.poll(_seconds_left(deadline))
            reply = worker.conn.recv() if done else None
        except (EOFError, OSError):
            self._replace(worker)
            obs.add("serve.worker_failures")
            return _error(500, ServeError(
                f"worker lost mid-request (exit code {worker.exitcode})"))
        if reply is None:
            self._replace(worker)
            return self._over_budget()
        self._idle.put(worker)
        answer, delta = reply
        with self._merge_lock:
            obs.merge(delta)
        return answer

    def _over_budget(self) -> Answer:
        obs.add("serve.timeouts")
        return _error(504, ServeError(
            f"request exceeded the {self.timeout_s:g}s budget"))

    def _start_worker(self) -> None:
        """Fork one worker and queue it as idle (none once closed)."""
        with self._workers_lock:
            if self._closed:
                return
            worker = _Worker(self.store_root, self.store_max_bytes)
            worker.start()
            worker.pipe.close()
            self._workers.add(worker)
        self._idle.put(worker)

    def _replace(self, worker: _Worker) -> None:
        """SIGKILL and reap ``worker``, then start its replacement."""
        worker.kill()
        worker.join()
        with self._workers_lock:
            self._workers.discard(worker)
        self._start_worker()

    def _stop_workers(self) -> None:
        with self._workers_lock:
            self._closed = True
            workers, self._workers = self._workers, set()
        for worker in workers:
            worker.kill()
            worker.join()

    def close(self) -> None:
        """SIGKILL and join every worker; none starts after this.

        A graceful stop drains the requests in flight first
        (:meth:`repro.serve.server.BoundsServer.drain`).  A pool that is
        never closed is closed at exit.
        """
        self._finalizer()
