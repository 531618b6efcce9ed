"""The ASMsz machine's word view at its edges.

The decoded engine and the generated code move every int32 load and
store, every pushed return address and every ``ret``'s pop through
``AsmMachine.words``, a native-endian view of the memory as 32-bit
words; the legacy engine encodes each access through ``Chunk``.  Each
test below holds the four ways to run a program (legacy, decoded,
codegen, and the tiered default, before and after the program is
compiled) to one behavior, reason, step count, watermark and output,
where the view could go wrong: byte order, a memory whose length is not
a multiple of 4, and the last whole word of memory.  On a big-endian
host the view would read words byte-swapped, so every engine but the
legacy one refuses to start there.
"""

from __future__ import annotations

import sys

import pytest

from repro.__main__ import main
from repro.asm import ast as asm
from repro.asm.machine import AsmMachine, run_program
from repro.driver import compile_c
from repro.errors import ReproError
from repro.memory.chunks import Chunk


def _fingerprint(program: asm.AsmProgram, engine, stack_bytes: int):
    output: list = []
    behavior, machine = run_program(program, stack_bytes=stack_bytes,
                                    output=output, fuel=1_000_000,
                                    engine=engine)
    return (type(behavior).__name__, getattr(behavior, "reason", None),
            getattr(behavior, "return_code", None), tuple(behavior.trace),
            tuple(output), machine.steps, machine.measured_stack_usage)


def _agreed(program: asm.AsmProgram, stack_bytes: int = 1 << 12):
    """The one fingerprint every way of running ``program`` gives.

    The default run goes first, while the program is not compiled (it
    stays decoded), and last, once ``engine="codegen"`` has compiled it
    (it runs generated code from step 0).
    """
    runs = {engine: _fingerprint(program, engine, stack_bytes)
            for engine in (None, "legacy", "decoded", "codegen")}
    runs["tiered, compiled"] = _fingerprint(program, None, stack_bytes)
    legacy = runs["legacy"]
    assert all(run == legacy for run in runs.values()), runs
    return legacy


def _program(*body: asm.PInstr) -> asm.AsmProgram:
    return asm.AsmProgram(
        [], {"main": asm.AsmFunction("main", [*body], frame_size=0)},
        externals=set())


def _print(reg: str) -> asm.Pbuiltin:
    return asm.Pbuiltin("print_int", [reg], [False], None, False)


class TestByteOrder:
    """Little-endian on every engine, whichever width wrote the bytes."""

    GLOBAL = """
        int w;
        unsigned char b[4];
        int main(void) {
            unsigned char *p = (unsigned char *)&w;
            int *q = (int *)b;
            w = 0x11223344;
            print_int(p[0]); print_int(p[1]);
            print_int(p[2]); print_int(p[3]);
            b[0] = 0x78; b[1] = 0x56; b[2] = 0x34; b[3] = 0x12;
            print_int(*q);
            return p[0];
        }
    """

    STACK = """
        int main(void) {
            int x;
            unsigned char *p = (unsigned char *)&x;
            x = -2;
            print_int(p[0]); print_int(p[3]);
            p[0] = 1; p[3] = 0x80;
            print_int(x);
            return p[1];
        }
    """

    def test_global_word_and_bytes(self):
        program = compile_c(self.GLOBAL).asm
        kind, _reason, code, _trace, output, _steps, _wm = _agreed(program)
        assert kind == "Converges" and code == 0x44
        assert output == (0x44, 0x33, 0x22, 0x11, 0x12345678)

    def test_stack_word_and_bytes(self):
        program = compile_c(self.STACK).asm
        kind, _reason, code, _trace, output, _steps, _wm = _agreed(program)
        assert kind == "Converges" and code == 0xFF
        assert output == (0xFE, 0xFF, -(1 << 31) | 0xFFFF01)

    def test_return_address_bytes(self):
        """``call`` pushes the return address as a word and ``ret`` pops
        one: read its bytes in the callee, then write the halt address
        over it byte by byte and return through it."""
        callee = asm.AsmFunction("f", [
            *[instr for offset in range(4) for instr in (
                asm.Pload(Chunk.INT8_UNSIGNED, "eax", asm.AStack(offset)),
                _print("eax"))],
            *[instr for offset, byte in enumerate((0x00, 0x00, 0xFF, 0xFF))
              for instr in (
                  asm.Pmovimm("ecx", byte),
                  asm.Pstore(Chunk.INT8_UNSIGNED, "ecx",
                             asm.AStack(offset)))],
            asm.Pmovimm("eax", 7),
            asm.Pret()], frame_size=0)
        main_ = asm.AsmFunction("main", [
            asm.Pcall("f"), asm.Pmovimm("eax", 1), asm.Pret()],
            frame_size=0)
        program = asm.AsmProgram([], {"main": main_, "f": callee},
                                 externals=set())
        kind, _reason, code, _trace, output, steps, _wm = _agreed(program)
        # main is function 0: its return address is CODE_BASE + pc 1.
        assert output == (1, 0, 0, 0x40)
        # f's ret halts the run: main's two instructions never run.
        assert (kind, code, steps) == ("Converges", 7, 1 + len(callee.body))


class TestStackNotAMultipleOfFour:
    """``stack_bytes`` of 4k + 1, 4k + 2 and 4k + 3 leave a partial word
    at the end of memory, past the view's last word."""

    SOURCE = ("int f(int x) { int a[4]; a[x & 3] = x; return a[x & 3]; }"
              " int main(void) { print_int(f(5)); return f(2); }")

    def test_requirement_is_a_multiple_of_four(self):
        program = compile_c(self.SOURCE).asm
        kind, *_rest, watermark = _agreed(program)
        assert kind == "Converges"
        assert watermark % 4 == 0

    @pytest.mark.parametrize("extra", [1, 2, 3])
    @pytest.mark.parametrize("side", [-4, 0],
                             ids=["below-requirement", "above-requirement"])
    def test_agrees(self, side, extra):
        program = compile_c(self.SOURCE).asm
        required = _agreed(program)[-1] + 4
        stack_bytes = required + side + extra
        machine = AsmMachine(program, stack_bytes=stack_bytes)
        assert len(machine.memory) % 4 == extra
        assert len(machine.words) == len(machine.memory) // 4
        kind, reason, *_rest = _agreed(program, stack_bytes)
        # ESP starts off word alignment, so the halt address push is
        # already misaligned.
        assert kind == "GoesWrong" and reason.startswith("misaligned store")


class TestLastWord:
    """Main's return address sits in the last word of memory: at
    ``[esp + 0]`` when main starts."""

    def test_last_word_is_in_range(self):
        program = _program(
            asm.Pload(Chunk.INT32, "eax", asm.AStack(0)),
            _print("eax"),
            asm.Pstore(Chunk.INT32, "eax", asm.AStack(0)),
            asm.Plea("ecx", asm.AStack(0)),
            asm.Pload(Chunk.INT32, "edx", asm.ABase("ecx", 0)),
            asm.Pmovimm("eax", 1),
            asm.Pbinop("add", "eax", "edx"),
            asm.Pret())
        kind, _reason, code, _trace, output, steps, _wm = _agreed(program)
        assert (kind, code, steps) == ("Converges", 1 - 0x10000, 8)
        assert output == (-0x10000,)

    @pytest.mark.parametrize("past", [1, 2, 3, 4])
    @pytest.mark.parametrize("access", ["load", "store", "base", "fused"])
    def test_past_the_last_word_is_out_of_range(self, access, past):
        """1-3 bytes past the last word is out of range and misaligned;
        the range error comes first, as on the legacy engine."""
        addr = asm.AStack(past)
        first = {
            "load": [asm.Pload(Chunk.INT32, "eax", addr)],
            "store": [asm.Pstore(Chunk.INT32, "eax", addr)],
            "base": [asm.Plea("ecx", addr),
                     asm.Pload(Chunk.INT32, "eax", asm.ABase("ecx", 0))],
            "fused": [asm.Pload(Chunk.INT32, "eax", addr),
                      asm.Pbinop("add", "edx", "eax")],
        }[access]
        program = _program(asm.Pmovimm("edx", 3), *first,
                           asm.Pmovimm("eax", 0), asm.Pret())
        stack_bytes = 1 << 12
        memlen = len(AsmMachine(program, stack_bytes=stack_bytes).memory)
        address = memlen - 4 + past
        kind, reason, _code, _trace, _out, steps, _wm = _agreed(
            program, stack_bytes)
        assert kind == "GoesWrong"
        assert reason == (f"memory access at {address:#x} (size 4) "
                          "out of range")
        assert steps == 1 + len(first) - (access == "fused")


class TestBigEndianHost:
    """The word view is native-endian: on a big-endian host only the
    legacy engine runs, and the others say so."""

    @pytest.fixture
    def big_endian(self, monkeypatch):
        monkeypatch.setattr(sys, "byteorder", "big")

    @pytest.mark.parametrize("engine", [None, "decoded", "codegen"])
    def test_word_engines_refuse(self, big_endian, engine):
        program = compile_c("int main(void) { return 3; }").asm
        with pytest.raises(ReproError, match="--engine legacy"):
            AsmMachine(program, engine=engine)
        with pytest.raises(ReproError, match="--engine legacy"):
            run_program(program, engine=engine)

    def test_legacy_still_runs(self, big_endian):
        program = compile_c("int main(void) { return 3; }").asm
        behavior, machine = run_program(program, engine="legacy")
        assert behavior.return_code == 3 and machine.steps

    @pytest.mark.parametrize("engine", [[], ["--engine", "codegen"]],
                             ids=["default", "codegen"])
    def test_cli_exits_2_with_one_line(self, big_endian, engine, tmp_path,
                                       capsys):
        path = tmp_path / "three.c"
        path.write_text("int main(void) { return 3; }")
        assert main(["run", str(path), "--stack", "64", *engine]) == 2
        assert capsys.readouterr().err == (
            "error: the decoded and codegen ASMsz engines need a "
            "little-endian host, and this one is big-endian: run with "
            "--engine legacy\n")
        assert main(["run", str(path), "--stack", "64",
                     "--engine", "legacy"]) == 3
