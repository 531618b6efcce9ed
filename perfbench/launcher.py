"""Traced start of one ``python -m repro`` op (the cli workload's traced run).

    python perfbench/launcher.py SUMMARY_OUT ARGS...

runs ``repro.__main__.main(ARGS)`` — the real CLI composition — with the
layer functions wrapped, after timing the interpreter start-up (from the
parent's spawn timestamp to this file's first statement) and
``import repro.__main__``.  The span summary is written to SUMMARY_OUT
as JSON once, at the end, followed by a line with the moment the file
was written: from there to the parent reaping the process is the
interpreter's exit, which every op pays.
"""

import time

_FIRST_STATEMENT = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    summary_out, argv = sys.argv[1], sys.argv[2:]
    from perfbench.tracer import Recorder, install

    recorder = Recorder()
    recorder.add("cli.startup", float(os.environ["PERFBENCH_SPAWNED_AT"]),
                 _FIRST_STATEMENT)
    started = time.perf_counter()
    import repro.__main__ as cli
    recorder.add("cli.import", started, time.perf_counter())
    install(recorder)
    try:
        return recorder.wrap("cli.main", cli.main)(argv)
    finally:
        with open(summary_out, "w") as handle:
            json.dump(recorder.summary(), handle)
            handle.write(f"\n{time.perf_counter()!r}\n")


if __name__ == "__main__":
    sys.exit(main())
