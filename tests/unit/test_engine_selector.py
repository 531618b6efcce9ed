"""`engine=` is the one engine selector of every execution entry point.

Each entry point accepts every engine its level has, and they all run
the program the same way; it rejects a name the level does not have
with ``ValueError``, and it has no other selector (the old ``decoded=``
boolean is a ``TypeError``).  Clight, RTL and Mach have ``legacy`` and
``decoded``; ASMsz also has ``codegen``.
"""

from __future__ import annotations

import pytest

from repro import engines
from repro.asm import ast as asm_ast
from repro.asm import machine as asm_machine
from repro.clight import semantics as clight_sem
from repro.driver import compile_c
from repro.mach import semantics as mach_sem
from repro.measure.monitor import measure_c_program, measure_compilation
from repro.programs.loader import load_source
from repro.rtl import semantics as rtl_sem

SOURCE = load_source("paper_example.c")
COMPILATION = compile_c(SOURCE, filename="paper_example.c")


def _streamed(sem, attr):
    def run(**selector):
        trace: list = []
        outcome = sem.run_streamed(getattr(COMPILATION, attr), trace.append,
                                   **selector)
        return outcome.kind, outcome.return_code, outcome.steps, trace
    return run


def _program(sem, attr):
    def run(**selector):
        behavior = sem.run_program(getattr(COMPILATION, attr), **selector)
        return type(behavior).__name__, behavior.return_code, behavior.trace
    return run


def _machine(**selector):
    machine = asm_machine.AsmMachine(COMPILATION.asm, **selector)
    machine.start()
    return (machine.esp, machine.min_esp,
            [machine.iregs[name] for name in asm_ast.INT_REG_NAMES])


def _asm_run(behavior, machine):
    return (type(behavior).__name__, behavior.return_code, behavior.trace,
            machine.measured_stack_usage, machine.steps)


def _measured(measured):
    return (type(measured.behavior).__name__, measured.return_code,
            measured.measured_bytes, measured.output)


#: entry point -> (engines of its level, one run with the given selector)
ENTRY_POINTS = {
    "clight.run_streamed": (engines.SEMANTICS_ENGINES,
                            _streamed(clight_sem, "clight")),
    "clight.run_program": (engines.SEMANTICS_ENGINES,
                           _program(clight_sem, "clight")),
    "rtl.run_streamed": (engines.SEMANTICS_ENGINES,
                         _streamed(rtl_sem, "rtl")),
    "rtl.run_program": (engines.SEMANTICS_ENGINES,
                        _program(rtl_sem, "rtl")),
    "mach.run_streamed": (engines.SEMANTICS_ENGINES,
                          _streamed(mach_sem, "mach")),
    "mach.run_program": (engines.SEMANTICS_ENGINES,
                         _program(mach_sem, "mach")),
    "AsmMachine": (engines.ASM_ENGINES, _machine),
    "asm.machine.run_program": (engines.ASM_ENGINES, lambda **selector: (
        _asm_run(*asm_machine.run_program(COMPILATION.asm, **selector)))),
    "Compilation.run": (engines.ASM_ENGINES, lambda **selector: (
        _asm_run(*COMPILATION.run(**selector)))),
    "measure_compilation": (engines.ASM_ENGINES, lambda **selector: (
        _measured(measure_compilation(COMPILATION, **selector)))),
    "measure_c_program": (engines.ASM_ENGINES, lambda **selector: (
        _measured(measure_c_program(SOURCE, **selector)))),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_takes_only_engine(entry):
    allowed, run = ENTRY_POINTS[entry]
    default = run()
    for engine in allowed:
        assert run(engine=engine) == default, f"{entry} on {engine}"
    for unknown in ({"codegen"} - set(allowed)) | {"jit", ""}:
        with pytest.raises(ValueError):
            run(engine=unknown)
    with pytest.raises(TypeError):
        run(decoded=True)
