"""Starts the cli workload's ops, so each one's peak memory is its own.

    python -I perfbench/spawner.py

Linux carries the peak resident set of the process that spawns a child
into the child's own at exec.  A child of the benchmark process (tens of
megabytes: the catalog, the references, the host-speed table) would
therefore report the benchmark's peak whenever that is the larger.  This
process stays small.  It reads one JSON request per line (``argv``,
``cwd``, ``env``, the ``stdout`` and ``stderr`` files and a ``timeout``),
runs the child to completion and answers one JSON line: the exit code,
the spawn and exit moments (``perf_counter``, one monotonic clock
system-wide) and the child's peak resident set in KiB.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    env = request["env"]
    with open(request["stdout"], "wb") as out, \
            open(request["stderr"], "wb") as err:
        started = time.perf_counter()
        # The traced launcher's cli.startup span runs from here to its
        # first statement.
        env["PERFBENCH_SPAWNED_AT"] = repr(started)
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        # wait4 gives the exact exit moment and the child's rusage; a
        # timer kills a hung child.
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "started": started, "ended": ended,
            "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
