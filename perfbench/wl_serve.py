"""Workload ``serve``: closed-loop requests against ``python -m repro serve``.

One client and one connection at a time: each request is sent as soon
as the previous answer has been read and checked, so a slow answer
never queues the next one behind it.  The daemon runs as a subprocess
with its default workers and a fresh store in the sandbox.  Requests
are three warm to one cold, in an order shuffled by the workload seed:

* warm: an ``AUTO_ANALYZABLE`` program sent verbatim.  Set-up primes
  each once, so all four pipeline stages hit the store;
* cold: the same program with a unique trailing comment, so all four
  stages miss.

After a warm-up that is not timed (every program once, warm), rounds
repeat while ``--seconds`` has not elapsed; one round sends every program
three times warm and once cold.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

from perfbench import reference, stats
from perfbench.hostspeed import HostSpeed
from perfbench.report import Report
from perfbench.sandbox import Sandbox

#: Warm requests per cold one.
WARM_PER_COLD = 3
SETUPS = 5
#: Seconds a request may take before the client gives up on it.
REQUEST_TIMEOUT_S = 60.0


def catalog(smoke: bool) -> list[str]:
    from repro.programs.catalog import AUTO_ANALYZABLE

    if smoke:
        return ["mibench/crc32.c", "funcptr/dispatch.c"]
    return list(AUTO_ANALYZABLE)


class Daemon:
    """A warmed sandbox and a daemon whose store holds every program."""

    def __init__(self, programs: list[str]) -> None:
        from repro.programs import load_source

        self.sandbox = Sandbox()
        self.proc = None
        try:
            self.sandbox.warm_bytecode()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--store-dir", str(self.sandbox.dir / "store")],
                cwd=self.sandbox.cwd, env=self.sandbox.env(),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True)
            banner = self.proc.stderr.readline()
            match = re.search(r"http://[^:]+:(\d+)", banner)
            if match is None:
                raise RuntimeError(f"serve did not start: {banner!r}")
            self.port = int(match.group(1))
            self.sent = 0
            self.sources = {path: load_source(path) for path in programs}
            for path in programs:
                status = self.request(path, "prime")[2]
                if status != 200:
                    raise RuntimeError(f"priming {path}: HTTP {status}")
        except BaseException:
            self.close()
            raise
        self._cold = 0

    def request(self, path: str, kind: str) -> tuple[float, float, int, str]:
        """One ``POST /verify``: due time, seconds, HTTP status and body
        (status 0 when the connection failed)."""
        source = self.sources[path]
        if kind == "cold":
            self._cold += 1
            source += f"\n/* perfbench cold request {self._cold} */\n"
        body = json.dumps({"source": source, "filename": path}).encode()
        self.sent += 1
        due = time.perf_counter()
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("POST", "/verify", body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            text = response.read().decode("utf-8", "replace")
            status = response.status
        except OSError as error:
            return due, time.perf_counter() - due, 0, repr(error)
        finally:
            connection.close()
        return due, time.perf_counter() - due, status, text

    def metrics(self) -> dict:
        """``GET /metrics`` once the daemon has timed every request sent.

        The daemon records a request's time just after sending its
        answer, so a read right after the answer may miss it by a hair.
        """
        for _ in range(100):
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
            try:
                connection.request("GET", "/metrics")
                document = json.loads(connection.getresponse().read())
            finally:
                connection.close()
            timed = document["histograms"].get("serve.request_seconds")
            if timed and timed["count"] >= self.sent:
                return document
            time.sleep(0.01)
        raise RuntimeError("serve never timed every request it answered")

    def peak_rss_mb(self) -> float:
        """Peak resident set of the daemon plus its worker processes."""
        pids = [self.proc.pid]
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            try:
                children = (task / "children").read_text()
            except FileNotFoundError:    # a connection thread that ended
                continue
            pids += [int(pid) for pid in children.split()]
        total = 0.0
        for pid in pids:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
        return total

    def close(self) -> None:
        try:
            if self.proc is not None and self.proc.poll() is None:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            if self.proc is not None:
                self.proc.stderr.close()
            self.sandbox.close()


def check(status: int, text: str, golden: reference.BoundsGolden,
          kind: str) -> list[str]:
    """Problems with one ``/verify`` answer (empty when correct)."""
    from repro.serve import validate_response_text

    if status != 200:
        return [f"HTTP {status}: {text[:200]}"]
    try:
        data = validate_response_text(text)
    except ValueError as error:
        return [f"invalid body: {error}"]
    if data["verdict"] != "verified":
        return [f"verdict {data['verdict']}: {data.get('error')}"]
    problems = []
    if data["bounds"]["stack_requirement"] != golden.stack_requirement:
        problems.append(f"stack requirement "
                        f"{data['bounds']['stack_requirement']}, golden "
                        f"{golden.stack_requirement}")
    expected = "hit" if kind == "warm" else "miss"
    if any(status != expected for status in data["stages"].values()):
        problems.append(f"{kind} request, stages {data['stages']}")
    return problems


def round_schedule(programs: list[str],
                   rng: random.Random) -> list[tuple[str, str]]:
    ops = [(kind, path) for path in programs
           for kind in ["warm"] * WARM_PER_COLD + ["cold"]]
    rng.shuffle(ops)
    return ops


def histogram_mean_ms(before: dict, after: dict, name: str) -> float:
    """Mean of a daemon histogram over the measured window, in ms."""
    def get(document: dict) -> tuple[float, int]:
        data = document["histograms"].get(name)
        return (data["sum"], data["count"]) if data else (0.0, 0)

    (sum0, count0), (sum1, count1) = get(before), get(after)
    return (sum1 - sum0) / (count1 - count0) * 1000 if count1 > count0 \
        else 0.0


def daemon_layers(before: dict, after: dict, latencies: list[float],
                  late: list[float], reading_s: float) -> dict[str, float]:
    """The serve per-layer metrics from two ``/metrics`` reads."""
    def counter(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(
            name, 0)

    handled_s = (after["histograms"]["serve.request_seconds"]["sum"]
                 - before["histograms"]["serve.request_seconds"]["sum"])
    client_s = sum(latencies)
    lookups = counter("store.hits") + counter("store.misses")
    return {
        "serve.handler_warm_ms": histogram_mean_ms(before, after,
                                                   "serve.warm_seconds"),
        "serve.handler_cold_ms": histogram_mean_ms(before, after,
                                                   "serve.cold_seconds"),
        "serve.pipeline_ms": histogram_mean_ms(before, after,
                                               "serve.pipeline_seconds"),
        "serve.http_ms": (client_s - handled_s) / len(latencies) * 1000,
        "serve.store_hit_rate": (counter("store.hits") / lookups
                                 if lookups else 0.0),
        "serve.rejected_count": counter("serve.responses.503"),
        "loadgen.late_p90_ms": stats.percentile(late, 0.9) * 1000,
        "serve.self_ms": handled_s * 1000,
        "trace.layer_share": handled_s / client_s,
        "trace.overhead_pct": reading_s / client_s * 100,
    }


def latencies(samples: dict[str, list], scaled: bool) -> dict[str, list]:
    """Request seconds per class (``scaled``: each over the host slowdown
    sampled right after it), plus ``every`` class pooled."""
    out = {kind: [seconds / slowdown if scaled else seconds
                  for seconds, slowdown in pairs]
           for kind, pairs in samples.items()}
    out["every"] = out["warm"] + out["cold"]
    return out


#: (name, class, quantile) of the latency metrics.
LATENCY = [("serve.p50_ms", "every", 0.5), ("serve.p90_ms", "every", 0.9),
           ("serve.warm_p50_ms", "warm", 0.5),
           ("serve.cold_p50_ms", "cold", 0.5)]


def run(seed: int, seconds: float, trace: bool, smoke: bool = False,
        goldens=None) -> Report:
    """One run; ``goldens`` may be planted with a wrong bound (self-test)."""
    report = Report("serve")
    programs = catalog(smoke)
    if goldens is None:
        goldens = reference.load_goldens()
    speed = HostSpeed()
    daemon = None
    rng = random.Random(seed)
    #: (seconds, slowdown right after) per answered request and class.
    samples: dict[str, list] = {"warm": [], "cold": []}
    late: list[float] = []
    reading_s = 0.0
    try:
        for _ in range(SETUPS):
            if daemon is not None:
                daemon.close()
            daemon = speed.time_setup(lambda: Daemon(programs))
        report.settings = daemon.sandbox.settings()
        # Warm-up, not timed: every program once from the store.
        for path in programs:
            daemon.request(path, "warm")
        if trace:
            began = time.perf_counter()
            before = daemon.metrics()
            reading_s += time.perf_counter() - began
        started = time.perf_counter()
        ready = time.perf_counter()
        while True:
            for kind, path in round_schedule(programs, rng):
                due, elapsed, status, text = daemon.request(path, kind)
                late.append(due - ready)
                slowdown = speed.sample(1)
                if report.outcome(f"{kind} {path}", check(
                        status, text, goldens[path], kind)):
                    samples[kind].append((elapsed, slowdown))
                ready = time.perf_counter()
            if smoke or time.perf_counter() - started >= seconds:
                break
        if trace:
            began = time.perf_counter()
            after = daemon.metrics()
            reading_s += time.perf_counter() - began
        peak_rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.close()

    if not samples["warm"] or not samples["cold"]:
        report.outcome("serve", ["no successful request of some class"])
        return report
    raw, scaled = latencies(samples, False), latencies(samples, True)
    for name, kind, q in LATENCY:
        report.metric(name, stats.percentile(raw[kind], q) * 1000, "ms",
                      len(raw[kind]))
    report.metric("setup_s", speed.setup_s(rescaled=False), "s",
                  len(speed.setups))
    report.metric("loadgen.late_p90_ms",
                  stats.percentile(late, 0.9) * 1000, "ms", len(late))
    report.metric("peak_rss_mb", peak_rss, "MB", 1)
    report.metric("host.slowdown", speed.slowdown, "ratio",
                  len(speed.samples))
    report.end_to_end = {
        json_name: stats.percentile(scaled[kind], q) * 1000
        for json_name, (_name, kind, q) in zip(
            ("typical_ms", "tail_ms", "light_ms", "heavy_ms"), LATENCY)}
    report.end_to_end.update({
        "rate_per_s": len(scaled["every"]) / sum(scaled["every"]),
        "setup_s": speed.setup_s(rescaled=True), "peak_rss_mb": peak_rss})
    if trace:
        report.per_layer = daemon_layers(before, after, raw["every"], late,
                                         reading_s)
        report.trace_samples = len(raw["every"])
    return report
