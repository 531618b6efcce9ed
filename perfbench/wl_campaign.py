"""Workload ``campaign``: the differential-testing campaign, in one process.

``run_campaign`` with ``jobs=1``, no corpus cache and no shrinking, on the
nightly job's mix: two plain seeds per recursion+function-pointer seed.
The seeds are a fixed slice of the nightly ranges (plain ``0..2B-1``,
recursion+function-pointer ``0..B-1``), visited in an order shuffled by
the workload seed, with ``B = round(--seconds * BLOCKS_PER_SECOND)``.
Seed costs spread widely (0.1-5 s), so a slice that changed with the
workload seed would move seeds/s by more than any bound worth setting;
a fixed slice leaves only the program's own run-to-run spread.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

from perfbench import stats, tracer
from perfbench.hostspeed import HostSpeed
from perfbench.report import Report
from perfbench.sandbox import BENCH_DIR, Sandbox

#: Blocks (two plain seeds, one recursion+function-pointer seed) per
#: second of --seconds: 20 gives 9 blocks, about 30 s of checking on a
#: 2-core x86-64 box.  Five blocks left the slow-class figures spreading
#: by a quarter from run to run on a shared host.
BLOCKS_PER_SECOND = 0.45
SETUPS = 5


def schedule(seed: int, seconds: float, smoke: bool) -> list[list]:
    blocks = 1 if smoke else max(1, round(seconds * BLOCKS_PER_SECOND))
    items = []
    for index in range(blocks):
        items += [[2 * index, "plain"], [2 * index + 1, "plain"],
                  [index, "recfp"]]
    random.Random(seed).shuffle(items)
    return items


class Child:
    """A warmed sandbox and a campaign process that finished its set-up."""

    def __init__(self) -> None:
        self.sandbox = Sandbox()
        try:
            self.sandbox.warm_bytecode()
        except BaseException:
            self.sandbox.close()
            raise
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "campaign_child.py")],
            cwd=self.sandbox.cwd, env=self.sandbox.env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.close()
            raise RuntimeError(f"campaign process failed to start: {line!r}")

    def start(self, trace: bool, plant: str | None = None) -> None:
        self._send({"trace": trace, "plant": plant})

    def check(self, item: list) -> dict:
        """Check one seed; its verdict and seconds."""
        self._send(item)
        return self._receive()

    def finish(self) -> dict:
        """Peak resident set and span summary; the process then exits."""
        self.proc.stdin.close()
        return self._receive()

    def _send(self, data) -> None:
        self.proc.stdin.write(json.dumps(data) + "\n")
        self.proc.stdin.flush()

    def _receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("campaign process died before answering")
        return json.loads(line)

    def close(self) -> None:
        try:
            if not self.proc.stdin.closed:
                self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.sandbox.close()


#: Metrics printed under their names in the map, with units.
NAMED = [("campaign.seeds_per_s", "seeds/s"),
         ("campaign.seed_geomean_ms", "ms"),
         ("campaign.slowest_third_geomean_ms", "ms"),
         ("campaign.plain_geomean_ms", "ms"),
         ("campaign.recfp_geomean_ms", "ms")]


def summarize(items: list, results: list,
              rescaled: bool = False) -> dict | None:
    """Campaign metrics from the seeds' verdicts and times (``rescaled``:
    each seed's time over the host slowdown measured while it ran).

    Per-seed costs spread over 0.1-5 s, so with a few dozen seeds a
    percentile jumps between neighbouring seeds; geometric means over
    the fixed slice (all, each kind, the slowest third) do not.
    """
    by_kind: dict[str, list[float]] = {"plain": [], "recfp": []}
    for (_seed, kind), result in zip(items, results):
        if result["ok"]:
            by_kind[kind].append(result["seconds"] / result["slowdown"]
                                 if rescaled else result["seconds"])
    if not by_kind["plain"] or not by_kind["recfp"]:
        return None
    checked = sorted(by_kind["plain"] + by_kind["recfp"])
    slowest = checked[-max(1, len(checked) // 3):]
    return {
        "campaign.seeds_per_s": len(checked) / sum(checked),
        "campaign.seed_geomean_ms": stats.geomean(checked) * 1000,
        "campaign.slowest_third_geomean_ms": stats.geomean(slowest) * 1000,
        "campaign.plain_geomean_ms": stats.geomean(by_kind["plain"]) * 1000,
        "campaign.recfp_geomean_ms": stats.geomean(by_kind["recfp"]) * 1000,
        "samples": {"campaign.seeds_per_s": len(checked),
                    "campaign.seed_geomean_ms": len(checked),
                    "campaign.slowest_third_geomean_ms": len(slowest),
                    "campaign.plain_geomean_ms": len(by_kind["plain"]),
                    "campaign.recfp_geomean_ms": len(by_kind["recfp"])}}


def run(seed: int, seconds: float, trace: bool, smoke: bool = False,
        plant: str | None = None) -> Report:
    """One run; ``plant`` injects a metric fault (the self-test)."""
    report = Report("campaign")
    items = schedule(seed, seconds, smoke)
    speed = HostSpeed()
    children: list[Child] = []
    try:
        for _ in range(SETUPS):
            children.append(speed.time_setup(Child))
            while len(children) > (2 if trace else 1):
                children.pop(0).close()
        report.settings = children[-1].sandbox.settings()
        # The traced run pairs a traced process with an untraced one from
        # the previous set-up and feeds each seed to both, which goes
        # first alternating, so host speed drifts hit both sides of
        # trace.overhead_pct alike.
        timed, twin = children[-1], children[0] if trace else None
        timed.start(trace, plant)
        if twin is not None:
            twin.start(False, plant)
        results = []
        twin_seconds = 0.0
        for index, item in enumerate(items):
            if twin is not None and index % 2 == 0:
                twin_seconds += twin.check(item)["seconds"]
            # A seed takes seconds and the host's speed moves within
            # seconds, so each seed is rescaled by samples taken while it
            # runs (the campaign process uses one core) and four after.
            result, _seconds, slowdown = speed.during(
                lambda: timed.check(item), after=4)
            result["slowdown"] = slowdown
            results.append(result)
            if twin is not None and index % 2 == 1:
                twin_seconds += twin.check(item)["seconds"]
        final = timed.finish()
    finally:
        for child in children:
            child.close()

    for (campaign_seed, kind), result in zip(items, results):
        report.outcome(f"{kind} seed {campaign_seed}",
                       [] if result["ok"] else [result["detail"]])
    raw = summarize(items, results)
    if raw is None:
        report.outcome("campaign", ["no successful seed of some kind"])
        return report
    for name, unit in NAMED:
        report.metric(name, raw[name], unit, raw["samples"][name])
    report.metric("setup_s", speed.setup_s(rescaled=False), "s",
                  len(speed.setups))
    report.metric("peak_rss_mb", final["maxrss_mb"], "MB", 1)
    report.metric("host.slowdown", speed.slowdown, "ratio",
                  len(speed.samples))
    scaled = summarize(items, results, rescaled=True)
    report.end_to_end = {
        "typical_ms": scaled["campaign.seed_geomean_ms"],
        "tail_ms": scaled["campaign.slowest_third_geomean_ms"],
        "light_ms": scaled["campaign.plain_geomean_ms"],
        "heavy_ms": scaled["campaign.recfp_geomean_ms"],
        "rate_per_s": scaled["campaign.seeds_per_s"],
        "setup_s": speed.setup_s(rescaled=True),
        "peak_rss_mb": final["maxrss_mb"]}
    if trace:
        traced_seconds = sum(result["seconds"] for result in results)
        merged = tracer.merge([final["summary"]])
        layers = tracer.layer_metrics(merged, traced_seconds)
        layers["trace.overhead_pct"] = (traced_seconds / twin_seconds
                                        - 1) * 100
        report.per_layer = layers
        report.trace_samples = len(results)
    return report
