"""The campaign workload's process under test.

    python perfbench/campaign_child.py

Set-up: import the campaign and run its pool warm-up, then print
``ready``.  Then read JSON lines from stdin.  The first,
``{"trace": bool, "plant": name-or-null}``, turns tracing on (and, for
the benchmark's self-test, plants a metric fault from
``repro.testing.faults``).  Each further line ``[seed, kind]`` checks one
seed with ``run_campaign`` in-process (``jobs=1``, no corpus cache, no
shrinking) and answers one JSON line.  End of input prints a final line
with the peak resident set and the span summary, and exits; end of input
before any command exits at once (a set-up that is only timed).
"""

import gc
import json
import sys
import time

#: Generator options per seed kind: the nightly job's two campaigns.
GEN_KWARGS = {"plain": {}, "recfp": {"recursion": True, "funcptr": True}}


def peak_rss_mb() -> float:
    """This process's own peak resident set.  (``getrusage`` would also
    count the peak of the process that spawned it, carried over at exec.)
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    from repro.testing.campaign import (CampaignConfig, pool_warmup,
                                        run_campaign)

    pool_warmup()
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    options = json.loads(line)
    recorder = None
    check = run_campaign
    if options["trace"]:
        from perfbench.tracer import Recorder, install

        recorder = Recorder()
        install(recorder)
        check = recorder.wrap("testing.campaign", run_campaign)
    for line in sys.stdin:
        seed, kind = json.loads(line)
        config = CampaignConfig(seeds=1, start=seed, jobs=1, cache_dir=None,
                                shrink=False, gen_kwargs=GEN_KWARGS[kind],
                                plant=options["plant"])
        began = time.perf_counter()
        verdicts = check(config).verdicts
        seconds = time.perf_counter() - began
        ok = len(verdicts) == 1 and verdicts[0].ok
        detail = "" if ok else "; ".join(
            f"[{v.oracle}@{v.ablation}] {v.detail}" for v in verdicts
            if not v.ok) or "no verdict"
        # Seeds come in seeded order; collecting each seed's garbage
        # before the next keeps the peak resident set from depending on
        # the order.  (Not timed; done before answering, so it never
        # overlaps the parent's host-speed samples.)
        gc.collect()
        print(json.dumps({"seconds": seconds, "ok": ok, "detail": detail}),
              flush=True)
    print(json.dumps({"maxrss_mb": peak_rss_mb(),
                      "summary": recorder.summary() if recorder else None}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
