"""What every process the benchmark starts inherits.

Each set-up gets a :class:`Sandbox`: a fresh directory under
``.perfbench_work/`` in the checkout holding a private bytecode cache
(``PYTHONPYCACHEPREFIX``) and the working directory of the children, so
``.repro-cache/`` and ``repro-failures/`` never land in the
repository.  Children get a pinned ``PYTHONHASHSEED``, a
``PYTHONPATH`` of the checkout's ``src`` plus its root, and no
``PYTHONDONTWRITEBYTECODE`` (with it set, ``import repro.__main__``
recompiles every module on every start).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
WORK_ROOT = ROOT / ".perfbench_work"
HASH_SEED = "0"


def check_tree() -> None:
    """Refuse to run outside a full checkout (no sources, no benchmark)."""
    if not (SRC / "repro" / "__main__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}; run from "
                         "the root of a repository checkout")


class Sandbox:
    """A private working directory and bytecode cache for child processes."""

    def __init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK_ROOT))
        self.pycache = self.dir / "pycache"
        self.cwd = self.dir / "cwd"
        self.cwd.mkdir()
        self._outputs = 0

    def env(self) -> dict[str, str]:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("PYTHON")}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
        env["PYTHONPYCACHEPREFIX"] = str(self.pycache)
        env["PYTHONHASHSEED"] = HASH_SEED
        return env

    def settings(self) -> dict:
        """The inherited settings, as recorded in the benchmark output."""
        return {"PYTHONHASHSEED": HASH_SEED,
                "PYTHONPYCACHEPREFIX": "<sandbox>/pycache (warmed in set-up)",
                "PYTHONDONTWRITEBYTECODE": "unset",
                "cwd": "<sandbox>/cwd",
                "process": "fresh per op (cli), per set-up (campaign, serve)"}

    def warm_bytecode(self) -> None:
        """Compile the package and the benchmark into the cache."""
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(SRC / "repro"), str(BENCH_DIR)], env=self.env(),
                       cwd=self.cwd, stdout=subprocess.DEVNULL, check=True)

    def output_file(self, tag: str) -> Path:
        self._outputs += 1
        return self.dir / f"{tag}-{self._outputs}.out"

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class Finished:
    """One child process run to completion."""

    __slots__ = ("code", "stdout", "stderr", "ended", "wall", "maxrss_mb")

    def __init__(self, code: int, stdout: str, stderr: str, ended: float,
                 wall: float, maxrss_mb: float) -> None:
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.ended = ended          #: perf_counter() when reaped
        self.wall = wall
        self.maxrss_mb = maxrss_mb


class Spawner:
    """The benchmark's handle on ``spawner.py``, which starts op processes.

    Output goes to files in the sandbox (never a pipe that could fill).
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, sandbox: Sandbox, argv: list[str],
            timeout: float = 170.0) -> Finished:
        """Run ``argv`` in ``sandbox`` to completion, timed spawn → exit."""
        out_path = sandbox.output_file("stdout")
        err_path = sandbox.output_file("stderr")
        self.proc.stdin.write(json.dumps({
            "argv": argv, "cwd": str(sandbox.cwd), "env": sandbox.env(),
            "stdout": str(out_path), "stderr": str(err_path),
            "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner died")
        done = json.loads(line)
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        return Finished(done["code"], stdout, stderr, done["ended"],
                        done["ended"] - done["started"],
                        done["maxrss_kb"] / 1024.0)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=180)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
