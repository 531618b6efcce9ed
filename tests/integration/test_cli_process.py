"""``python -m repro`` as a real process: what it imports and how it exits.

A one-shot op (``bounds``, ``run``, ...) loads no test harness, serving
stack or multiprocessing, and ends without interpreter finalization.
Each case here runs the CLI in a fresh interpreter, because neither
property shows when ``main()`` is called in-process: the test process
has imported everything already and does not exit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Optional

import pytest

from repro.__main__ import main
from repro.obs.export import validate_metrics_document, validate_spans_jsonl
from repro.programs.loader import program_path

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
CRC32 = str(program_path("mibench/crc32.c"))
BLOWFISH = str(program_path("mibench/blowfish.c"))
FIB = str(program_path("recursive/fib.c"))
#: Overflows typecheck's recursion (one frame chain per operator).
CHAIN = "int main(void){int x = 1; return " + "+".join(["x"] * 2000) + ";}\n"
#: No ``main``: nothing to bound or to run.
NO_MAIN = "int f(void) { return 1; }\n"
#: Modules a one-shot op must not import.
HARNESS = ("repro.testing", "repro.serve", "multiprocessing")


def _env(**overrides: Optional[str]) -> dict[str, str]:
    """The test's environment with ``src`` importable; an override of
    None removes that variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _repro(*argv: str, stdout=subprocess.PIPE,
           **env: Optional[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          stdout=stdout, stderr=subprocess.PIPE,
                          env=_env(**env), cwd=REPO, timeout=300)


def _repro_into_closed_pipe(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI with stdout a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    try:
        return _repro(*argv, stdout=write)
    finally:
        os.close(write)


def _in_process(capsys, *argv: str) -> tuple[int, str]:
    capsys.readouterr()
    code = main(list(argv))
    return code, capsys.readouterr().out


_IMPORTS = """
import contextlib, io, json, sys
from repro.__main__ import _build_parser, main

_build_parser()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded = sorted(name for name in sys.modules
                    if any(name == prefix or name.startswith(prefix + ".")
                           for prefix in {harness!r}))
    print(json.dumps([argv[0], code, loaded]))
"""


def test_one_shot_ops_import_no_harness(tmp_path):
    """Building the parser and running every one-shot subcommand loads
    no ``repro.testing``, ``repro.serve`` or ``multiprocessing`` module:
    the campaign stack costs a ``bounds`` op tens of milliseconds."""
    tiny = tmp_path / "tiny.c"
    tiny.write_text("int twice(int x) { return x * 2; }\n"
                    "int main(void) { print_int(twice(3)); return 0; }\n")
    cert = str(tmp_path / "tiny.json")
    commands = [["bounds", "--check", CRC32], ["run", str(tiny)],
                ["dump", str(tiny)], ["trace", str(tiny)],
                ["certify", str(tiny), "-o", cert],
                ["check-cert", str(tiny), cert], ["profile", str(tiny)]]
    finished = subprocess.run(
        [sys.executable, "-c", _IMPORTS.format(harness=HARNESS),
         json.dumps(commands)],
        capture_output=True, text=True, env=_env(), cwd=REPO, timeout=300)
    assert finished.returncode == 0, finished.stderr
    rows = [json.loads(line) for line in finished.stdout.splitlines()]
    assert [row[0] for row in rows] == [argv[0] for argv in commands]
    for command, code, loaded in rows:
        assert (code, loaded) == (0, []), command


class TestExitPath:
    """The process ends with ``main()``'s code and all of its output."""

    def test_bounds_output_matches_in_process(self, capsys):
        code, out = _in_process(capsys, "bounds", "--check", CRC32)
        finished = _repro("bounds", "--check", CRC32)
        assert (finished.returncode, code) == (0, 0)
        assert finished.stdout.decode() == out

    def test_run_exits_with_the_program_return_code(self, capsys):
        code, out = _in_process(capsys, "run", CRC32)
        finished = _repro("run", CRC32)
        assert finished.returncode == code == 1
        assert finished.stdout.decode() == out
        assert out.splitlines()[-1].startswith("# measured stack usage")

    def test_check_cert_of_a_recursive_program(self, capsys, tmp_path):
        """A parametric bound prints symbolically; the op exits 0."""
        cert = str(tmp_path / "fib.json")
        assert _repro("certify", FIB, "-o", cert).returncode == 0
        code, out = _in_process(capsys, "check-cert", FIB, cert)
        finished = _repro("check-cert", FIB, cert)
        assert (finished.returncode, code, finished.stderr) == (0, 0, b"")
        assert finished.stdout.decode() == out
        assert "(M(fib) + (fib$#n * M(fib)))" in out

    def test_run_out_of_fuel_exits_125(self):
        finished = _repro("run", CRC32, "--fuel", "10")
        assert finished.returncode == 125
        assert b"# Diverges" in finished.stdout

    def test_missing_file_is_one_error_line(self):
        finished = _repro("bounds", "/nonexistent/x.c")
        assert finished.returncode == 2
        assert finished.stdout == b""
        lines = finished.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("argv", [("bounds",), ("bounds", "--check"),
                                      ("run",), ("profile",)],
                             ids=["bounds", "bounds-check", "run", "profile"])
    def test_no_main_is_one_error_line(self, argv, tmp_path):
        source = tmp_path / "nomain.c"
        source.write_text(NO_MAIN)
        finished = _repro(*argv, str(source))
        assert finished.returncode == 2
        assert finished.stderr.decode().splitlines() == [
            "error: program has no analyzed function 'main'"]

    def test_no_main_trace_goes_wrong(self, tmp_path):
        source = tmp_path / "nomain.c"
        source.write_text(NO_MAIN)
        finished = _repro("trace", str(source))
        assert (finished.returncode, finished.stderr) == (0, b"")
        assert finished.stdout.startswith(b"# GoesWrong; 0 events")

    def test_exports_are_complete(self, tmp_path):
        spans, metrics = tmp_path / "t.jsonl", tmp_path / "m.json"
        finished = _repro("bounds", "--check", CRC32,
                          "--trace-out", str(spans),
                          "--metrics-out", str(metrics))
        assert finished.returncode == 0, finished.stderr
        with open(spans) as handle:
            assert validate_spans_jsonl(handle) > 0
        with open(metrics) as handle:
            validate_metrics_document(json.load(handle))

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_unwritable_stdout_unbuffered(self):
        """Each print fails inside ``main()``: a diagnosed I/O error."""
        with open("/dev/full", "wb") as full:
            finished = _repro("bounds", CRC32, stdout=full,
                              PYTHONUNBUFFERED="1")
        assert finished.returncode == 2
        lines = finished.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_unwritable_stdout_buffered(self):
        """The output fails only when flushed after ``main()``: the op
        falls back to a normal exit, whose failed flush sets status 120,
        exactly as without the finalization shortcut."""
        with open("/dev/full", "wb") as full:
            finished = _repro("bounds", CRC32, stdout=full,
                              PYTHONUNBUFFERED=None)
        assert finished.returncode == 120
        assert b"No space left on device" in finished.stderr

    @pytest.mark.parametrize("argv", [("bounds", "--check", CRC32),
                                      ("dump", BLOWFISH, "--level", "asm")],
                             ids=["bounds", "dump"])
    def test_closed_pipe_exits_141_in_silence(self, argv):
        """A reader that has closed the pipe (``... | head``) ends the op
        as SIGPIPE would, every time: whether the failed write happens
        inside ``main()`` or in the final flush must not show."""
        for _ in range(5):
            finished = _repro_into_closed_pipe(*argv)
            assert (finished.returncode, finished.stderr) == (141, b"")

    def test_closed_pipe_still_exports(self, tmp_path):
        spans = tmp_path / "t.jsonl"
        finished = _repro_into_closed_pipe("bounds", "--check", CRC32,
                                           "--trace-out", str(spans))
        assert finished.returncode == 141, finished.stderr
        with open(spans) as handle:
            assert validate_spans_jsonl(handle) > 0

    def test_internal_error_exits_70(self, tmp_path):
        source = tmp_path / "chain.c"
        source.write_text(CHAIN)
        finished = _repro("bounds", str(source))
        assert finished.returncode == 70
        assert finished.stdout == b""
        last = finished.stderr.decode().splitlines()[-1]
        assert last.startswith("internal error: RecursionError")
