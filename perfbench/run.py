"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  Human-readable lines (every metric under
its name in ``perfbench/MAP.md``, with unit and sample count, and the
settings children inherit) come first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metric names and
units are those of ``BENCHMARK.json``.  ``--smoke`` shrinks every
workload to a few ops for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

WORKLOADS = ("cli", "campaign", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops per workload (the benchmark's tests)")
    args = parser.parse_args(argv)
    # A terminated run still stops its children: SystemExit unwinds
    # through every workload's cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import sandbox

    sandbox.check_tree()
    with open(root / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    workload = importlib.import_module(f"perfbench.wl_{args.workload}")
    trace = bool(args.trace)
    try:
        report = workload.run(seed=args.seed, seconds=args.seconds,
                              trace=trace, smoke=args.smoke)
    finally:
        try:
            sandbox.WORK_ROOT.rmdir()
        except OSError:
            pass
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in report.lines():
        print(line)
    if trace:
        absent = []
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in units:
            if name not in report.per_layer:
                report.per_layer[name] = 0.0
                absent.append(name)
        print(f"# per-layer metrics (from {report.trace_samples} traced "
              f"ops):")
        for name, unit in units.items():
            if name not in absent:
                print(f"  {name:34s} {report.per_layer[name]:14.4f} "
                      f"{unit:8s} {report.trace_samples}")
        if absent:
            print(f"# absent on this workload (reported as 0): "
                  f"{', '.join(absent)}")
    print(report.result_line(spec, trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
