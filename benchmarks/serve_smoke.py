#!/usr/bin/env python3
"""CI smoke gate for ``repro serve``: boot, load, probe, gate.

Boots the daemon in-process on an ephemeral port, replays a 20-request
mixed hot/cold client mix over the packaged catalog, runs a deliberate
saturation probe (concurrent chaos sleeps against a one-slot queue
server), writes the final ``/metrics`` snapshot to ``--metrics-out``
(the CI artifact), and gates:

* store hit-rate > 0 — the hot half of the mix must replay from the
  content-addressed store;
* zero 5xx other than the probe's deliberate 503s;
* every 200 body validates against the response schema;
* every 200 ``/verify`` body and every ``/batch`` line the client reads
  is canonical, ``json.dumps(json.loads(text), sort_keys=True) + "\n"``:
  the daemon splices stored certificate bytes into its answers, and a
  splice that drifts from the encoder fails here on a live daemon;
* the codegen warm path: two ``probe`` requests for the same program
  execute at the verified bound on the codegen tier, and the second
  must reuse the compiled code object — exactly one codegen compile in
  the metrics, and the response says ``warm: true``;
* in-batch dedup: a 3-item ``POST /batch`` with one duplicate streams
  all three results but runs the pipeline twice — the duplicate comes
  back with a ``duplicate_of`` marker and ``serve.batch.deduped``
  counts it;
* malformed input gets its status (400, 413, 422, any for a parser
  crash), with no lost worker and exactly one internal error;
* restart warmth: a second *subprocess* daemon on the first one's store
  answers crc32 3x faster, recomputes nothing stored, probes the same.

Exit 0 when all gates hold, 1 otherwise (one line per violated gate on
stderr).  Stdlib only, like everything it tests.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from typing import Optional

sys.path.insert(0, "src")

from repro.programs.loader import load_source                    # noqa: E402
from repro.serve import (BoundsServer, ServeConfig,              # noqa: E402
                         validate_response_text)
from repro.serve.server import MAX_BODY_BYTES                    # noqa: E402

#: Cheap, auto-analyzable, structurally varied.
SAMPLE = ("mibench/bitcount.c", "mibench/crc32.c",
          "mibench/dijkstra.c", "mibench/fft.c")

#: A restarted daemon must answer a plain ``/verify`` of this program at
#: least this many times faster than a cold one (store reads against a
#: compile, an analysis and a check: the margin is structural).
RESTART_PROGRAM, RESTART_FLOOR = "mibench/crc32.c", 3.0


#: ``(path, text)`` of every 200 answer read, checked at the end (not
#: inside the timed restart requests).
ANSWERS: list[tuple[str, str]] = []


def _noncanonical() -> list[str]:
    """The 200 ``/verify`` bodies and ``/batch`` lines read that are not
    ``json.dumps(json.loads(text), sort_keys=True) + "\n"``."""
    def canonical(text: str) -> bool:
        try:
            return text == json.dumps(json.loads(text),
                                      sort_keys=True) + "\n"
        except ValueError:
            return False

    return [f"{path} {line[:80]!r}" for path, text in ANSWERS
            for line in (text.splitlines(keepends=True)
                         if path == "/batch" else [text])
            if not canonical(line)]


def _post_path(port: int, path: str, payload: dict) -> tuple[int, str]:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=180) as response:
            status, text = response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()
    ANSWERS.append((path, text))
    return status, text


def _post(port: int, payload: dict) -> tuple[int, str]:
    return _post_path(port, "/verify", payload)


def _post_raw(port: int, length: int, body: bytes = b"") -> Optional[int]:
    """POST ``body`` under a declared length; None if no status came."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.putrequest("POST", "/verify")
        connection.putheader("Content-Length", str(length))
        connection.endheaders(body or None)
        return connection.getresponse().status
    except (OSError, http.client.HTTPException):
        return None
    finally:
        connection.close()


def _subprocess_round(store_dir: str) -> tuple[float, dict, dict, dict]:
    """Boot a daemon on ``store_dir``, time a plain ``/verify`` of the
    restart program, probe it: ``(seconds, body, probe body, metrics)``."""
    payload = {"source": load_source(RESTART_PROGRAM),
               "filename": RESTART_PROGRAM}
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "0", "--store-dir", store_dir],
        stderr=subprocess.PIPE, text=True, env=env)
    try:
        line = process.stderr.readline()
        if "serving certified bounds" not in line:
            raise RuntimeError(f"daemon failed to boot: {line!r}")
        port = int(line.split("http://127.0.0.1:")[1].split()[0])
        bodies = []
        for request in (payload, dict(payload, probe=True)):
            started = time.perf_counter()
            status, body = _post(port, request)
            if status != 200:
                raise RuntimeError(f"status {status}: {body[:200]}")
            bodies.append((time.perf_counter() - started, json.loads(body)))
        metrics = _metrics(port)
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
    return bodies[0][0], bodies[0][1], bodies[1][1], metrics


def _metrics(port: int) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics",
                                timeout=30) as response:
        return json.loads(response.read())


def mixed_load(port: int, requests: int) -> list[tuple[int, str]]:
    """``requests`` sequential POSTs cycling the sample: cold, then hot."""
    results = []
    for index in range(requests):
        path = SAMPLE[index % len(SAMPLE)]
        results.append(_post(port, {"source": load_source(path),
                                    "filename": path}))
    return results


def saturation_probe(port: int, clients: int = 6) -> list[int]:
    """Concurrent slow requests against a one-slot queue: some must 503."""
    statuses = [0] * clients
    source = "int main(void) { return 0; }"

    def client(index: int) -> None:
        statuses[index], _body = _post(
            port, {"source": source, "chaos": "sleep:0.4"})

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    return statuses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=20,
                        help="mixed hot/cold request count (default 20)")
    parser.add_argument("--metrics-out", default="serve-metrics.json",
                        help="where to write the final /metrics snapshot")
    args = parser.parse_args(argv)

    failures: list[str] = []

    # Phase 1: the serving mix, against a pooled daemon with a fresh
    # store, so the hot half can only hit what the cold half stored.
    mix_store = tempfile.mkdtemp(prefix="serve-smoke-mix-")
    server = BoundsServer(ServeConfig(port=0, jobs=2, queue_depth=16,
                                      timeout_s=120.0, store_root=mix_store))
    server.start_background()
    port = server.bound_port
    print(f"# serve-smoke: daemon on port {port}, "
          f"{args.requests} mixed requests over {len(SAMPLE)} programs")
    results = mixed_load(port, args.requests)
    for index, (status, body) in enumerate(results):
        if status != 200:
            failures.append(f"request {index}: status {status}: {body[:200]}")
            continue
        try:
            validate_response_text(body)
        except ValueError as error:
            failures.append(f"request {index}: invalid response: {error}")
    snapshot = _metrics(port)
    server.stop(drain_timeout_s=30.0)
    shutil.rmtree(mix_store, ignore_errors=True)

    hit_rate = snapshot.get("derived", {}).get("store.hit_rate", 0)
    statuses = sorted({status for status, _body in results})
    print(f"# serve-smoke: statuses {statuses}, store.hit_rate {hit_rate}")
    if not hit_rate > 0:
        failures.append(f"store hit-rate gate: {hit_rate} (expected > 0)")
    counters = snapshot.get("counters", {})
    bad_5xx = sum(value for name, value in counters.items()
                  if name.startswith("serve.responses.5"))
    if bad_5xx:
        failures.append(f"{bad_5xx} undiagnosed 5xx responses in phase 1")

    # Phase 2: the deliberate 503 probe, against a one-slot toy server.
    probe = BoundsServer(ServeConfig(port=0, jobs=0, queue_depth=1,
                                     timeout_s=30.0, store_root=None,
                                     allow_chaos=True))
    probe.start_background()
    statuses = saturation_probe(probe.bound_port)
    probe.stop(drain_timeout_s=10.0)
    print(f"# serve-smoke: saturation probe statuses {sorted(statuses)}")
    if 503 not in statuses:
        failures.append("saturation probe never drew a 503")
    if any(status not in (200, 503) for status in statuses):
        failures.append(f"probe drew non-200/503 statuses: {statuses}")

    # Phase 3: the codegen warm path, against an in-process server (the
    # pipeline, pool and metrics share one registry there, so the gate
    # reads exactly the compiles this phase caused).
    warm_server = BoundsServer(ServeConfig(port=0, jobs=0, queue_depth=4,
                                           timeout_s=120.0, store_root=None))
    warm_server.start_background()
    warm_port = warm_server.bound_port
    payload = {"source": load_source("mibench/dijkstra.c"),
               "filename": "mibench/dijkstra.c", "probe": True}
    probe_results = [_post(warm_port, dict(payload)) for _ in range(2)]
    warm_snapshot = _metrics(warm_port)
    warm_server.stop(drain_timeout_s=10.0)

    probe_bodies = []
    for index, (status, body) in enumerate(probe_results):
        if status != 200:
            failures.append(
                f"probe request {index}: status {status}: {body[:200]}")
            continue
        try:
            probe_bodies.append(validate_response_text(body))
        except ValueError as error:
            failures.append(f"probe request {index}: invalid: {error}")
    if len(probe_bodies) == 2:
        cold, hot = (body.get("probe") or {} for body in probe_bodies)
        print(f"# serve-smoke: probe cold warm={cold.get('warm')} "
              f"measured={cold.get('measured_bytes')}B of "
              f"{cold.get('stack_bytes')}B; hot warm={hot.get('warm')}")
        if not (cold.get("converged") and hot.get("converged")):
            failures.append("probe did not converge at the served bound")
        if cold.get("warm") is not False or hot.get("warm") is not True:
            failures.append(
                f"warm path broken: cold.warm={cold.get('warm')} "
                f"hot.warm={hot.get('warm')}")
    warm_counters = warm_snapshot.get("counters", {})
    codegen_hits = warm_counters.get("codegen.asm.cache.hits", 0)
    compiles = warm_snapshot.get("histograms", {}) \
        .get("codegen.compile_seconds", {}).get("count", 0)
    print(f"# serve-smoke: codegen compiles {compiles}, "
          f"cache hits {codegen_hits}")
    if not codegen_hits >= 1:
        failures.append(
            f"warm probe did not hit the codegen cache ({codegen_hits})")
    if compiles != 1:
        failures.append(
            f"warm path re-ran codegen: {compiles} compiles (expected 1)")

    # Phase 4: in-batch dedup, against the same in-process server shape.
    # Three items, first and last identical: the stream must carry all
    # three results but the pipeline must run only twice.
    batch_server = BoundsServer(ServeConfig(port=0, jobs=2, queue_depth=8,
                                            timeout_s=120.0,
                                            store_root=None))
    batch_server.start_background()
    batch_port = batch_server.bound_port
    item_a = {"source": load_source("mibench/crc32.c"),
              "filename": "mibench/crc32.c"}
    item_b = {"source": load_source("mibench/bitcount.c"),
              "filename": "mibench/bitcount.c"}
    status, body = _post_path(batch_port, "/batch",
                              {"items": [item_a, item_b, dict(item_a)]})
    batch_snapshot = _metrics(batch_port)
    batch_server.stop(drain_timeout_s=10.0)
    if status != 200:
        failures.append(f"batch: status {status}: {body[:200]}")
    else:
        lines = [json.loads(line) for line in body.splitlines()]
        header, footer = lines[0], lines[-1]
        by_index = {line["index"]: line for line in lines[1:-1]}
        print(f"# serve-smoke: batch items={header.get('items')} "
              f"unique={header.get('unique')} done={footer.get('done')}")
        if header.get("unique") != 2:
            failures.append(f"batch dedup missed: unique="
                            f"{header.get('unique')} (expected 2)")
        if footer.get("done") is not True:
            failures.append("batch stream has no done footer")
        if sorted(by_index) != [0, 1, 2]:
            failures.append(f"batch stream lost items: {sorted(by_index)}")
        elif by_index[2].get("duplicate_of") != 0:
            failures.append(f"duplicate item not marked: "
                            f"{by_index[2].get('duplicate_of')!r}")
        bad = [i for i, line in by_index.items() if line["status"] != 200]
        if bad:
            failures.append(f"batch items {bad} did not return 200")
    deduped = batch_snapshot.get("counters", {}).get("serve.batch.deduped", 0)
    if deduped < 1:
        failures.append(f"serve.batch.deduped is {deduped} (expected >= 1)")

    # Phase 5: malformed input, against a pooled daemon: every request
    # gets a status, and typecheck crashing on a 2000-term chain is an
    # internal error, not a lost worker.
    bad_server = BoundsServer(ServeConfig(port=0, jobs=1, queue_depth=4,
                                          timeout_s=120.0, store_root=None))
    bad_server.start_background()
    bad_port = bad_server.bound_port
    chain = ("int main(void) { int x = 1; return " + "+".join(["x"] * 2000)
             + "; }").encode()
    bad = [("negative length", _post_raw(bad_port, -1), 400),
           ("oversized body", _post_raw(bad_port, MAX_BODY_BYTES + 1), 413),
           ("non-UTF-8 bytes", _post_raw(bad_port, 2, b"\xff\xfe"), 422),
           ("2000-term chain", _post_raw(bad_port, len(chain), chain),
            None)]
    bad_counters = _metrics(bad_port).get("counters", {})
    bad_server.stop(drain_timeout_s=10.0)
    print("# serve-smoke: malformed input "
          + ", ".join(f"{name} {status}" for name, status, _want in bad))
    failures += [f"{name}: status {status} (expected {want or 'any'})"
                 for name, status, want in bad
                 if status is None or want not in (None, status)]
    for name, want in (("serve.worker_failures", 0),
                       ("serve.internal_errors", 1)):
        if bad_counters.get(name, 0) != want:
            failures.append(f"malformed input: {name} is "
                            f"{bad_counters.get(name, 0)} (expected {want})")

    # Phase 6: restart warmth.  Subprocess daemons (an honest restart:
    # fresh process, only the store directory survives) — the second
    # daemon must beat the first by the floor, recompute nothing the
    # store holds, and probe to what the first daemon's probe saw.
    store_dir = tempfile.mkdtemp(prefix="serve-smoke-restart-")
    try:
        cold_s, _body, cold, _metrics_cold = _subprocess_round(store_dir)
        warm_s, body, warm, warm_metrics = _subprocess_round(store_dir)
    except RuntimeError as error:
        failures.append(f"restart phase: {error}")
    else:
        print(f"# serve-smoke: restart {RESTART_PROGRAM} cold "
              f"{cold_s * 1e3:.1f}ms, restart-warm {warm_s * 1e3:.1f}ms "
              f"({cold_s / warm_s:.1f}x, floor {RESTART_FLOOR}x)")
        if cold_s / warm_s < RESTART_FLOOR:
            failures.append(f"restart-warm speedup {cold_s / warm_s:.1f}x "
                            f"is below the {RESTART_FLOOR}x floor")
        misses = warm_metrics.get("counters", {}).get("store.misses", 0)
        if set(body["stages"].values()) != {"hit"} or misses:
            failures.append(f"restarted daemon recomputed stored stages: "
                            f"{body['stages']}, store.misses {misses}")
        if any(cold["probe"][field] != warm["probe"][field]
               for field in ("converged", "measured_bytes", "steps")):
            failures.append(f"restart probe {warm['probe']} differs from "
                            f"the first daemon's {cold['probe']}")
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    drift = _noncanonical()
    print(f"# serve-smoke: {len(ANSWERS)} answers read, "
          f"{len(drift)} not canonical")
    if drift:
        failures.append(f"{len(drift)} answers are not canonical JSON, "
                        f"first: {drift[0]}")

    with open(args.metrics_out, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
    print(f"# serve-smoke: metrics snapshot -> {args.metrics_out}")

    for failure in failures:
        print(f"serve-smoke: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("# serve-smoke: all gates passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
