"""Parallel differential-testing campaign engine.

``run_campaign`` fans generated seeds over a ``multiprocessing`` pool;
each worker runs the full oracle hierarchy of ``repro.testing.oracles``
for its seed.  Failing seeds are shrunk to minimal generator parameters
and written out as standalone ``.c`` reproducers; every seed contributes
one JSONL record (verdict, timings, throughput inputs) to the campaign
report.  A content-hash corpus cache skips seeds whose exact source was
already verified under the same oracle configuration, so warm re-runs
cost one generation plus one hash per seed.

The CLI front end is ``python -m repro fuzz``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Optional

from repro import obs
from repro.obs.metrics import empty_snapshot, merge_snapshots
from repro.testing.faults import validate_plant
from repro.testing.oracles import (ABLATIONS, ORACLE_VERSION, SeedVerdict,
                                   check_seed)
from repro.testing.progen import generate_program
from repro.testing.shrink import ShrinkResult, shrink_failure

DEFAULT_CACHE_DIR = os.path.join(".repro-cache", "corpus")


@dataclass
class CampaignConfig:
    """Everything one campaign run needs (picklable: workers receive it)."""

    seeds: int = 50                 #: number of seeds to check
    start: int = 0                  #: first seed (campaign = [start, start+seeds))
    jobs: int = 1                   #: worker processes (1 = in-process, no pool)
    metric: str = "compiler"        #: oracle metric (compiler | uniform | zero)
    plant: Optional[str] = None     #: metric-layer fault name (faults registry)
    gen_kwargs: dict = field(default_factory=dict)
    ablations: Optional[list[str]] = None   #: None = all of oracles.ABLATIONS
    probes: bool = True             #: bound-tightness stack probes
    deep: bool = False              #: interpret RTL/Mach levels too
    shrink: bool = True             #: minimize failing seeds
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR   #: None disables the cache
    report_path: Optional[str] = None              #: JSONL campaign report
    repro_dir: Optional[str] = None                #: minimized .c reproducers
    time_budget: Optional[float] = None            #: wall-clock cap, seconds
    obs: bool = False               #: per-seed spans + worker metric deltas
    status_interval: Optional[float] = None        #: progress-line period, s
    bounds_backend: Optional[str] = None           #: fm | z3 | cross

    def cache_key(self, source: str) -> str:
        """Content hash identifying (source, oracle configuration)."""
        tag = json.dumps({
            "v": ORACLE_VERSION, "metric": self.metric, "plant": self.plant,
            "ablations": sorted(self.ablations or ABLATIONS),
            "probes": self.probes, "deep": self.deep,
            "backend": self.bounds_backend or "fm",
        }, sort_keys=True)
        return hashlib.sha256((tag + "\0" + source).encode()).hexdigest()


@dataclass
class CampaignReport:
    """Aggregate result of a campaign run."""

    config: CampaignConfig
    verdicts: list[SeedVerdict]
    shrunk: dict[int, ShrinkResult]
    elapsed: float
    repro_files: dict[int, str]
    #: Campaign-wide metrics snapshot (parent + merged worker deltas);
    #: only populated when the campaign ran with ``config.obs``.
    metrics: Optional[dict] = None

    @property
    def failures(self) -> list[SeedVerdict]:
        return [v for v in self.verdicts if not v.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for v in self.verdicts if v.cached)

    @property
    def throughput(self) -> float:
        """Seeds checked per second of wall clock."""
        return len(self.verdicts) / self.elapsed if self.elapsed else 0.0

    def stage_seconds(self) -> dict[str, float]:
        """Cumulative per-stage worker time across all seeds."""
        total: dict[str, float] = {}
        for verdict in self.verdicts:
            for key, value in verdict.timings.items():
                total[key] = total.get(key, 0.0) + value
        return total

    def summary(self) -> dict:
        record = {
            "seeds": len(self.verdicts),
            "failures": len(self.failures),
            "cache_hits": self.cache_hits,
            "elapsed_s": round(self.elapsed, 3),
            "seeds_per_s": round(self.throughput, 2),
            "stage_seconds": {k: round(v, 3)
                              for k, v in sorted(self.stage_seconds().items())},
        }
        if self.failures:
            record["failing_seeds"] = [
                {"seed": v.seed, "oracle": v.oracle, "ablation": v.ablation,
                 "repro": self.repro_files.get(v.seed)}
                for v in self.failures]
        return record


def pool_warmup() -> None:
    """Pool initializer: pay the import/compile cold start once per worker.

    Importing the whole toolchain and compiling a trivial program in the
    initializer keeps the first real seed of every worker from absorbing
    module import time and the cold start of a first compilation.
    Shared with the serving pool (``repro.serve.pool``): a daemon worker
    has exactly the same cold start as a campaign worker.
    """
    try:
        import repro.analyzer  # noqa: F401
        import repro.asm.decode  # noqa: F401
        from repro.driver import compile_c

        compile_c("int main(void) { return 0; }", filename="<warmup>")
    except Exception:
        pass  # never let warm-up kill a worker; the seeds still run


def chunksize_for(n_work: int, jobs: int) -> int:
    """Seeds per IPC round-trip for an ``imap_unordered`` campaign.

    Aim for ~4 chunks per worker over the whole campaign: big enough to
    amortize dispatch overhead on large workloads, small enough that the
    tail stays balanced (seed costs vary widely) and a time-budget
    ``terminate()`` does not strand a long chunk.  Floor of 1 for
    workloads smaller than the worker count.
    """
    return max(1, n_work // (4 * max(1, jobs)))


def _status_line(done: int, total: int, cached: int, failed: int,
                 elapsed: float) -> str:
    """One-line campaign progress summary with throughput and ETA."""
    rate = done / elapsed if elapsed > 0 else 0.0
    if rate > 0 and done < total:
        eta = (total - done) / rate
        eta_text = f"eta {eta:.0f}s"
    else:
        eta_text = "eta --"
    return (f"[fuzz] {done}/{total} seeds  ok {done - failed}  "
            f"fail {failed}  cached {cached}  "
            f"{rate:.1f} seeds/s  {eta_text}")


def _check_one(payload: tuple[int, CampaignConfig]) -> SeedVerdict:
    """Pool worker: cache lookup, then the full oracle hierarchy.

    With ``config.obs`` the seed runs instrumented: one ``campaign.seed``
    span (children: compile passes, interpreter runs, checker calls), a
    per-seed metrics *delta* and a worker heartbeat gauge.  Delta and
    spans ride back to the parent on the verdict
    (``obs_metrics``/``obs_spans``), which merges them — the
    multiprocessing pool aggregates without shared memory.
    """
    seed, config = payload
    if not config.obs:
        return _check_one_plain(seed, config)
    obs.enable()
    # Discard anything inherited through fork() or left by pool warm-up
    # so the attached snapshot is exactly this seed's delta.
    obs.drain_metrics()
    obs.drain_spans()
    with obs.span("campaign.seed", seed=seed) as span:
        verdict = _check_one_plain(seed, config)
        span.set(ok=verdict.ok, cached=verdict.cached,
                 events=verdict.events)
        if not verdict.ok:
            span.set(oracle=verdict.oracle, ablation=verdict.ablation)
    obs.observe("campaign.seed_seconds", span.dur)
    pid = os.getpid()
    obs.set_gauge(f"campaign.worker.{pid}.heartbeat", time.time())
    obs.add(f"campaign.worker.{pid}.seeds")
    verdict.obs_metrics = obs.drain_metrics()
    verdict.obs_spans = obs.drain_spans()
    return verdict


def _check_one_plain(seed: int, config: CampaignConfig) -> SeedVerdict:
    if config.bounds_backend is not None:
        # Applied per seed rather than in the pool initializer: the config
        # travels with the work item, so fork/spawn workers both honor it.
        from repro.logic.bexpr import set_default_backend
        set_default_backend(config.bounds_backend)
    source = generate_program(seed, **config.gen_kwargs)
    cache_file = None
    if config.cache_dir is not None:
        cache_file = os.path.join(config.cache_dir,
                                  config.cache_key(source) + ".ok")
        if os.path.exists(cache_file):
            return SeedVerdict(seed=seed, ok=True, cached=True,
                               gen_kwargs=dict(config.gen_kwargs))
    verdict = check_seed(seed, gen_kwargs=config.gen_kwargs,
                         ablations=config.ablations,
                         metric_name=config.metric, plant=config.plant,
                         probes=config.probes, deep=config.deep,
                         source=source)
    if verdict.ok:
        # Only verified seeds enter the corpus: failures must re-run so a
        # fixed oracle (bumping ORACLE_VERSION) re-judges them.
        if cache_file is not None:
            os.makedirs(config.cache_dir, exist_ok=True)
            tmp = cache_file + f".tmp{os.getpid()}"
            with open(tmp, "w") as handle:
                json.dump({"seed": seed, "events": verdict.events}, handle)
            os.replace(tmp, cache_file)
        verdict.source = None    # keep pool pickles small
    return verdict


def run_campaign(config: CampaignConfig,
                 progress=None, status=None) -> CampaignReport:
    """Run one campaign; returns the aggregate report.

    ``progress`` is an optional callable invoked with each
    ``SeedVerdict`` as it arrives (out of order under a pool).
    ``status`` is an optional callable receiving periodic one-line
    progress summaries (done/total, verdict counts, throughput, ETA)
    every ``config.status_interval`` seconds.
    """
    # A typo'd plant must fail here, before any worker runs a seed.
    validate_plant(config.plant)
    if config.obs:
        obs.enable()
    started = time.perf_counter()
    work = [(seed, config)
            for seed in range(config.start, config.start + config.seeds)]
    verdicts: list[SeedVerdict] = []
    # Worker observability payloads accumulate off-registry: the
    # in-process (jobs=1) worker path drains the shared registry per
    # seed, so parent-side state must not live there until the end.
    merged_metrics = empty_snapshot()
    adopted_spans: list[dict] = []
    failed = cached = 0
    last_status = started

    def deadline_hit() -> bool:
        return (config.time_budget is not None
                and time.perf_counter() - started > config.time_budget)

    def harvest(verdict: SeedVerdict) -> None:
        """Fold one verdict's telemetry into the parent-side aggregates."""
        nonlocal failed, cached, last_status
        if verdict.obs_metrics is not None:
            merge_snapshots(merged_metrics, verdict.obs_metrics)
            verdict.obs_metrics = None
        if verdict.obs_spans:
            adopted_spans.extend(verdict.obs_spans)
            verdict.obs_spans = None
        failed += 0 if verdict.ok else 1
        cached += 1 if verdict.cached else 0
        now = time.perf_counter()
        if (status is not None and config.status_interval is not None
                and now - last_status >= config.status_interval):
            last_status = now
            status(_status_line(len(verdicts), len(work), cached, failed,
                                now - started))

    if config.jobs <= 1:
        for payload in work:
            verdicts.append(_check_one(payload))
            harvest(verdicts[-1])
            if progress:
                progress(verdicts[-1])
            if deadline_hit():
                break
    else:
        chunksize = chunksize_for(len(work), config.jobs)
        with Pool(processes=config.jobs, initializer=pool_warmup) as pool:
            for verdict in pool.imap_unordered(_check_one, work,
                                               chunksize=chunksize):
                verdicts.append(verdict)
                harvest(verdict)
                if progress:
                    progress(verdict)
                if deadline_hit():
                    pool.terminate()
                    break
    verdicts.sort(key=lambda v: v.seed)

    if config.obs:
        # Merge the pool-wide worker deltas back into the live registry
        # and count the parent-side campaign telemetry.
        obs.merge(merged_metrics)
        obs.adopt_spans(adopted_spans)
        obs.add("campaign.seeds", len(verdicts))
        obs.add("campaign.cache.hits", cached)
        obs.add("campaign.cache.misses", len(verdicts) - cached)
        for verdict in verdicts:
            if verdict.ok:
                obs.add("campaign.verdict.ok")
            else:
                obs.add("campaign.verdict.fail")
                obs.add(f"campaign.verdict.fail.{verdict.oracle}")

    shrunk: dict[int, ShrinkResult] = {}
    repro_files: dict[int, str] = {}
    for verdict in verdicts:
        if verdict.ok:
            continue
        if config.shrink and verdict.oracle != "internal-error":
            result = shrink_failure(verdict, metric_name=config.metric,
                                    plant=config.plant, deep=config.deep)
            shrunk[verdict.seed] = result
            obs.add("campaign.shrink.attempts", result.attempts)
            obs.add("campaign.shrink.minimized")
            source = result.source
            kwargs = result.gen_kwargs
        else:
            source = verdict.source or generate_program(
                verdict.seed, **verdict.gen_kwargs)
            kwargs = verdict.gen_kwargs
        if config.repro_dir is not None:
            os.makedirs(config.repro_dir, exist_ok=True)
            path = os.path.join(config.repro_dir,
                                f"seed{verdict.seed}_{verdict.oracle}.c")
            header = (f"/* seed {verdict.seed}; oracle {verdict.oracle}"
                      f"@{verdict.ablation}; gen_kwargs {kwargs!r}\n"
                      f"   {verdict.detail}\n"
                      f"   re-check: python -m repro bounds <this file> */\n")
            with open(path, "w") as handle:
                handle.write(header + source)
            repro_files[verdict.seed] = path
            # A differential failure implicating the codegen tier is
            # debugged from the Python that tier generates for this
            # program (a default run may have finished on the decoded
            # engine without executing it), so dump that source next to
            # the .c (CI uploads both).
            try:
                from repro.asm.codegen import codegen_source
                from repro.driver import compile_c

                compilation = compile_c(
                    source, filename=path,
                    options=ABLATIONS.get(verdict.ablation))
                generated = (f"# codegen-tier source for {path} "
                             f"(ablation {verdict.ablation!r})\n"
                             + codegen_source(compilation.asm))
                with open(path[:-2] + ".codegen.py", "w") as handle:
                    handle.write(generated)
            except Exception:
                pass   # reproducer may not compile; the .c is the artifact

    elapsed = time.perf_counter() - started
    if status is not None and config.status_interval is not None:
        status(_status_line(len(verdicts), len(work), cached, failed,
                            elapsed))
    report = CampaignReport(config=config, verdicts=verdicts, shrunk=shrunk,
                            elapsed=elapsed, repro_files=repro_files)
    if config.obs:
        report.metrics = obs.snapshot()
    if config.report_path is not None:
        report_dir = os.path.dirname(config.report_path)
        if report_dir:
            os.makedirs(report_dir, exist_ok=True)
        with open(config.report_path, "w") as handle:
            for verdict in verdicts:
                record = verdict.as_json()
                if verdict.seed in repro_files:
                    record["repro"] = repro_files[verdict.seed]
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"summary": report.summary()}) + "\n")
    return report


def run_smoke_campaign(seeds: int = 12, jobs: int = 2,
                       time_budget: float = 60.0,
                       cache_dir: Optional[str] = None) -> CampaignReport:
    """The CI smoke entry: a small, time-boxed campaign (also used by the
    pytest self-test).  Uses a cold cache by default so CI always
    exercises the oracles."""
    config = CampaignConfig(seeds=seeds, jobs=jobs, cache_dir=cache_dir,
                            time_budget=time_budget)
    return run_campaign(config)
