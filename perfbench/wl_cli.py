"""Workload ``cli``: the paper's workflow, a fresh ``python -m repro`` per op.

A closed loop with one caller.  Three op classes over the catalog, in an
order shuffled by the workload seed:

* ``bounds --check`` on ``AUTO_ANALYZABLE`` (Table 1 plus the
  function-pointer programs), repeated ``BOUNDS_PASSES`` times;
* ``bounds --check`` on ``RECURSIVE`` (Table 2) but its two slowest
  programs, once each;
* ``run`` at the verified bound on ``TABLE1``, ``RUN_PASSES`` times.

One round covers every program of every class; rounds repeat while
``--seconds`` has not elapsed.  A round takes longer than the default
``--seconds``: about half a minute.
"""

from __future__ import annotations

import json
import random
import sys
import time

from perfbench import reference, stats, tracer
from perfbench.hostspeed import HostSpeed
from perfbench.report import Report
from perfbench.sandbox import BENCH_DIR, Sandbox, Spawner

#: Bounds-class passes per round (14 programs x 4 = 56 samples).
BOUNDS_PASSES = 4
#: Table 2 programs left out of the recursive class: 5-6 s each, they
#: took half its time, and the benchmark's three workloads must fit
#: 70 runs into the time its runner allows.
SLOWEST_RECURSIVE = ("recursive/filter_find.c", "recursive/qsort.c")
#: Run-class passes per round: each program's median is of two runs.
RUN_PASSES = 2
#: Bounds-class passes of (untraced, traced) pairs for the traced run's
#: trace.overhead_pct; the order within a pair alternates by pass.
OVERHEAD_PASSES = 2
SETUPS = 5
#: Host-speed samples after an op of each class: a recursive op takes
#: seconds, and over five seeds eight samples after it spread its
#: class's figure less than the run's median slowdown did.
SAMPLES_AFTER = {"bounds": 2, "run": 2, "recursive": 8}


def catalog(smoke: bool) -> dict[str, list[str]]:
    from repro.programs.catalog import AUTO_ANALYZABLE, RECURSIVE, TABLE1

    if smoke:
        return {"bounds": ["mibench/crc32.c", "funcptr/dispatch.c"],
                "recursive": ["recursive/recid.c"],
                "run": ["mibench/crc32.c", "mibench/bitcount.c"]}
    return {"bounds": list(AUTO_ANALYZABLE),
            "recursive": [path for path in RECURSIVE
                          if path not in SLOWEST_RECURSIVE],
            "run": [entry.path for entry in TABLE1]}


def round_schedule(programs: dict[str, list[str]], passes: int,
                   rng: random.Random) -> list[tuple[str, str]]:
    ops = [("bounds", path) for _ in range(passes)
           for path in programs["bounds"]]
    ops += [("recursive", path) for path in programs["recursive"]]
    ops += [("run", path) for _ in range(RUN_PASSES)
            for path in programs["run"]]
    rng.shuffle(ops)
    return ops


class Setup:
    """A warmed sandbox plus the references its ops are checked against.

    The warm-up op (not counted, not timed as an op) compiles the
    standard-library modules an op imports into the sandbox's cache, which
    ``compileall`` of the package does not reach.  The references come
    from the Clight interpreter once per run, before the set-ups: they
    are the benchmark's checking, not the program's set-up.
    """

    def __init__(self, spawner: Spawner, programs: dict[str, list[str]],
                 goldens, references: dict, trace: bool) -> None:
        self.spawner = spawner
        self.sandbox = Sandbox()
        self.goldens = goldens
        self.references = references
        try:
            self.sandbox.warm_bytecode()
            run_traced_or_not(self, "bounds", programs["bounds"][0], trace)
        except BaseException:
            self.sandbox.close()
            raise


def argv_for(kind: str, path: str) -> list[str]:
    from repro.programs import program_path

    command = ["run"] if kind == "run" else ["bounds", "--check"]
    return command + [str(program_path(path))]


def run_traced_or_not(setup: Setup, kind: str, path: str, trace: bool):
    """One op as a fresh process: ``python -m repro``, or the launcher
    (tracing on), whose span summary comes back as the second item."""
    sandbox = setup.sandbox
    if not trace:
        return setup.spawner.run(sandbox, [sys.executable, "-m", "repro"]
                                 + argv_for(kind, path)), None
    out = sandbox.output_file("spans")
    finished = setup.spawner.run(sandbox, [
        sys.executable, str(BENCH_DIR / "launcher.py"), str(out)]
        + argv_for(kind, path))
    summary = None
    if out.exists():
        with open(out) as handle:
            summary = json.loads(handle.readline())
            exiting = float(handle.readline())
        out.unlink()
        exit_s = finished.ended - exiting
        summary["names"]["cli.exit"] = [1, exit_s, exit_s]
    return finished, summary


def check(setup: Setup, kind: str, path: str, finished) -> list[str]:
    golden = setup.goldens[path]
    if kind == "run":
        return reference.check_run(finished.code, finished.stdout, golden,
                                   setup.references[path])
    return reference.check_bounds(finished.code, finished.stdout, golden)


def summarize(timed: list, scaled: bool = False) -> dict | None:
    """The cli metrics from (kind, path, seconds, slowdown after) op times
    (``scaled``: each op over the host slowdown sampled right after it)."""
    samples: dict[str, dict[str, list[float]]] = {
        "bounds": {}, "recursive": {}, "run": {}}
    for kind, path, seconds, slowdown in timed:
        if scaled:
            seconds /= slowdown
        samples[kind].setdefault(path, []).append(seconds)
    bounds = [t for values in samples["bounds"].values() for t in values]
    if not bounds or not samples["recursive"] or not samples["run"]:
        return None
    return {
        "cli.bounds_p50_ms": stats.median(bounds) * 1000,
        "cli.bounds_p90_ms": stats.percentile(bounds, 0.9) * 1000,
        "cli.recursive_geomean_s": stats.geomean_of_medians(
            samples["recursive"]),
        "cli.run_geomean_ms": stats.geomean_of_medians(samples["run"])
        * 1000,
        "rate_per_s": len(timed) / sum(
            sum(values) for kind in samples.values()
            for values in kind.values()),
        "samples": {"cli.bounds_p50_ms": len(bounds),
                    "cli.bounds_p90_ms": len(bounds),
                    "cli.recursive_geomean_s": sum(map(
                        len, samples["recursive"].values())),
                    "cli.run_geomean_ms": sum(map(len,
                                                  samples["run"].values()))}}


def run(seed: int, seconds: float, trace: bool, smoke: bool = False,
        goldens=None, plant=None) -> Report:
    """One run; ``plant`` may corrupt the references (the self-test)."""
    report = Report("cli")
    programs = catalog(smoke)
    passes = 2 if smoke else BOUNDS_PASSES
    if goldens is None:
        goldens = reference.load_goldens()

    references = {path: reference.clight_reference(path)
                  for path in programs["run"]}
    speed = HostSpeed()
    rng = random.Random(seed)
    timed: list[tuple] = []     # kind, path, seconds, slowdown after
    summaries: list[dict] = []
    traced_wall = 0.0
    peak_rss = 0.0
    ops = 0
    spawner = Spawner()
    setup = None
    try:
        for _ in range(SETUPS):
            if setup is not None:
                setup.sandbox.close()
            setup = speed.time_setup(lambda: Setup(
                spawner, programs, goldens, references, trace))
        if plant is not None:
            plant(setup)
        report.settings = setup.sandbox.settings()
        started = time.perf_counter()
        while True:
            for kind, path in round_schedule(programs, passes, rng):
                finished, summary = run_traced_or_not(setup, kind, path,
                                                      trace)
                if summary is not None:
                    summaries.append(summary)
                    traced_wall += finished.wall
                ops += 1
                slowdown = speed.sample(SAMPLES_AFTER[kind])
                peak_rss = max(peak_rss, finished.maxrss_mb)
                problems = check(setup, kind, path, finished)
                if report.outcome(f"{kind} {path}", problems):
                    timed.append((kind, path, finished.wall, slowdown))
            if time.perf_counter() - started >= seconds:
                break
        paired = {"untraced": 0.0, "traced": 0.0}
        if trace:
            for index in range(OVERHEAD_PASSES * len(programs["bounds"])):
                path = programs["bounds"][index % len(programs["bounds"])]
                sides = ["untraced", "traced"]
                if index // len(programs["bounds"]) % 2:
                    sides.reverse()
                for side in sides:
                    finished = run_traced_or_not(setup, "bounds", path,
                                                 side == "traced")[0]
                    if report.outcome(f"bounds {path}", check(
                            setup, "bounds", path, finished)):
                        paired[side] += finished.wall
    finally:
        if setup is not None:
            setup.sandbox.close()
        spawner.close()

    raw = summarize(timed)
    if raw is None:
        report.outcome("cli", ["no successful op in some class"])
        return report
    for name, unit in (("cli.bounds_p50_ms", "ms"),
                       ("cli.bounds_p90_ms", "ms"),
                       ("cli.recursive_geomean_s", "s"),
                       ("cli.run_geomean_ms", "ms")):
        report.metric(name, raw[name], unit, raw["samples"][name])
    report.metric("setup_s", speed.setup_s(rescaled=False), "s",
                  len(speed.setups))
    report.metric("peak_rss_mb", peak_rss, "MB", ops)
    report.metric("host.slowdown", speed.slowdown, "ratio",
                  len(speed.samples))
    scaled = summarize(timed, scaled=True)
    report.end_to_end = {
        "typical_ms": scaled["cli.bounds_p50_ms"],
        "tail_ms": scaled["cli.bounds_p90_ms"],
        "light_ms": scaled["cli.run_geomean_ms"],
        "heavy_ms": scaled["cli.recursive_geomean_s"] * 1000,
        "rate_per_s": scaled["rate_per_s"],
        "setup_s": speed.setup_s(rescaled=True), "peak_rss_mb": peak_rss}
    if trace:
        merged = tracer.merge(summaries)
        layers = tracer.layer_metrics(merged, traced_wall)
        for name in ("cli.startup", "cli.import", "cli.argparse"):
            values = merged["per_process"].get(name) or [0.0]
            layers[name + "_ms"] = stats.median(values) * 1000
        layers["trace.overhead_pct"] = (
            (paired["traced"] / paired["untraced"] - 1) * 100)
        report.per_layer = layers
        report.trace_samples = len(summaries)
    return report
