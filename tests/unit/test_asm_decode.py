"""Differential suite: the pre-decoded interpreter vs. the legacy loop.

The decoded engine (`repro.asm.decode`) must be observationally identical
to the legacy `AsmMachine.step` chain: same traces, same outputs, same ESP
watermark, same step counts, and the same `GoesWrong` reason at the same
point when the stack is undersized.  Anything less would silently change
what Theorem 1 is being tested against.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.asm.machine import AsmMachine, run_program
from repro.driver import compile_c, configure_frontend_cache
from repro.events.trace import Converges, GoesWrong
from repro.programs.catalog import ALL_RUNNABLE
from repro.programs.loader import load_source
from repro.testing.oracles import ABLATIONS
from repro.testing.progen import generate_program

# Generous enough for every catalog program at the default stack.
FUEL = 150_000_000


def _behavior_fingerprint(behavior, machine, output):
    return (
        type(behavior).__name__,
        tuple(behavior.trace),
        getattr(behavior, "return_code", None),
        getattr(behavior, "reason", None),
        tuple(output),
        machine.measured_stack_usage,
        machine.steps,
    )


def _run_both(asm, stack_bytes=1 << 20, fuel=FUEL):
    legacy_out: list = []
    decoded_out: list = []
    b_legacy, m_legacy = run_program(asm, stack_bytes=stack_bytes,
                                     output=legacy_out, fuel=fuel,
                                     decoded=False)
    b_decoded, m_decoded = run_program(asm, stack_bytes=stack_bytes,
                                       output=decoded_out, fuel=fuel,
                                       decoded=True)
    return (_behavior_fingerprint(b_legacy, m_legacy, legacy_out),
            _behavior_fingerprint(b_decoded, m_decoded, decoded_out))


@pytest.mark.parametrize("path", ALL_RUNNABLE)
def test_catalog_program_agrees(path):
    compilation = compile_c(load_source(path), filename=path)
    legacy, decoded = _run_both(compilation.asm)
    assert legacy == decoded
    assert legacy[0] == "Converges"


@pytest.mark.parametrize("path", ["paper_example.c", "mibench/dijkstra.c",
                                  "recursive/fib.c", "certikos/proc.c"])
def test_stack_overflow_behavior_agrees(path):
    """Both engines must overflow at the same point with the same reason."""
    compilation = compile_c(load_source(path), filename=path)
    _behavior, machine = run_program(compilation.asm, fuel=FUEL)
    needed = machine.measured_stack_usage
    # 4 bytes fewer than the measured requirement must overflow (the
    # Theorem 1 probe); sweep a few undersized stacks for good measure.
    for stack_bytes in {needed - 4, needed // 2, 8}:
        if stack_bytes < 4:
            continue
        legacy, decoded = _run_both(compilation.asm, stack_bytes=stack_bytes)
        assert legacy == decoded
        assert legacy[0] == "GoesWrong"
        if stack_bytes == needed - 4:
            # The aligned Theorem 1 probe must fail as a stack overflow;
            # other sizes may leave ESP misaligned and die earlier (both
            # engines must still agree on *how*).
            assert "stack overflow" in legacy[3]


@pytest.mark.parametrize("seed", range(0, 40, 5))
def test_generated_seed_agrees(seed):
    source = generate_program(seed)
    for name, options in ABLATIONS.items():
        compilation = compile_c(source, filename=f"seed{seed}.c",
                                options=options)
        legacy, decoded = _run_both(compilation.asm)
        assert legacy == decoded, f"disagreement under ablation {name!r}"


def test_fuel_exhaustion_agrees():
    compilation = compile_c(load_source("compcert/mandelbrot.c"),
                            filename="compcert/mandelbrot.c")
    legacy, decoded = _run_both(compilation.asm, fuel=10_000)
    assert legacy == decoded
    assert legacy[0] == "Diverges"
    assert legacy[6] == 10_000  # both engines charge one step per op


def test_register_file_view():
    """Decoded machines keep name-keyed register access for the monitor
    and the legacy step loop."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    machine = AsmMachine(compilation.asm, decoded=True)
    assert "eax" in machine.iregs
    machine.iregs["eax"] = 41
    assert machine.iregs["eax"] == 41
    assert machine.iregs.as_dict()["eax"] == 41
    assert set(machine.fregs.keys()) == set(AsmMachine(
        compilation.asm, decoded=False).fregs.keys())


def test_legacy_step_works_on_decoded_machine():
    """The two engines share machine state: stepping the legacy loop on a
    decoded machine must be possible (the differential oracle relies on
    it)."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    machine = AsmMachine(compilation.asm, decoded=True)
    machine.start()
    for _ in range(100):
        if machine.done:
            break
        machine.step()
    assert machine.steps == 100 or machine.done


@pytest.mark.parametrize("engine, fuel", [("decoded", FUEL),
                                          ("codegen", 7)],
                         ids=["decoded", "codegen-deopt"])
def test_decode_cache_dies_with_the_program(engine, fuel):
    """The decode cache is weak: once the program is dropped, nothing it
    cached keeps it alive.  A codegen run that deopts at a fuel tail
    decodes the program too."""
    configure_frontend_cache(False)
    try:
        compilation = compile_c(load_source("paper_example.c"),
                                filename="paper_example.c")
        _behavior, machine = run_program(compilation.asm, fuel=fuel,
                                         engine=engine)
        assert machine._bound is not None  # the decoded engine ran
        program = weakref.ref(compilation.asm)
        del compilation, machine
        gc.collect()
        assert program() is None
    finally:
        configure_frontend_cache(True)
