"""Differential suite: the codegen tier vs. the decoded/legacy oracles.

The generated-Python engine (`repro.asm.codegen`) must be observationally
identical to the decoded closure interpreter (which `test_asm_decode.py`
already holds to the legacy loop): same traces, same outputs, same ESP
watermark, same step counts, and the same `GoesWrong` reason at the same
point when the stack is undersized.  Superinstruction fusion and
constant folding make this the tier with the most room for silent
divergence, so the sweep covers the full catalog, undersized stacks,
generated seeds at every ablation, and the fuel edge the trampoline's
unrolled accounting has to get exactly right.

The default run (no engine given) is tiered: it starts on the decoded
engine and enters generated code part-way.  The tier-up suite at the
end holds it to `engine="decoded"` with the switch forced at every
early step, at the real budget, and never.
"""

from __future__ import annotations

import math

import pytest

from repro.asm import ast as asm_ast
from repro.asm import codegen
from repro.asm import machine as machine_mod
from repro.asm.machine import AsmMachine, run_program
from repro.clight import semantics as clight_sem
from repro.driver import compile_c
from repro.events.stream import null_sink
from repro.mach import semantics as mach_sem
from repro.programs.catalog import ALL_RUNNABLE
from repro.programs.loader import load_source
from repro.rtl import semantics as rtl_sem
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


def _run_engine(asm, engine, stack_bytes=1 << 20, fuel=FUEL):
    output: list = []
    behavior, machine = run_program(asm, stack_bytes=stack_bytes,
                                    output=output, fuel=fuel, engine=engine)
    return _behavior_fingerprint(behavior, machine, output)


@pytest.mark.parametrize("path", ALL_RUNNABLE)
def test_catalog_program_agrees(path):
    compilation = compile_c(load_source(path), filename=path)
    decoded = _run_engine(compilation.asm, "decoded")
    generated = _run_engine(compilation.asm, "codegen")
    assert decoded == generated
    assert decoded[0] == "Converges"


@pytest.mark.parametrize("path", ["paper_example.c", "mibench/dijkstra.c",
                                  "recursive/fib.c", "certikos/proc.c"])
def test_all_three_tiers_agree(path):
    """The full triple, including legacy, on a catalog cross-section."""
    compilation = compile_c(load_source(path), filename=path)
    legacy = _run_engine(compilation.asm, "legacy")
    decoded = _run_engine(compilation.asm, "decoded")
    generated = _run_engine(compilation.asm, "codegen")
    assert legacy == decoded == generated


@pytest.mark.parametrize("path", ["paper_example.c", "mibench/dijkstra.c",
                                  "recursive/fib.c", "certikos/proc.c"])
def test_stack_overflow_behavior_agrees(path):
    """Overflow at the same point with the same reason — fused push+call
    and espadd+call superinstructions must not shift the failure."""
    compilation = compile_c(load_source(path), filename=path)
    _behavior, machine = run_program(compilation.asm, fuel=FUEL,
                                     engine="codegen")
    needed = machine.measured_stack_usage
    for stack_bytes in {needed - 4, needed // 2, 8}:
        if stack_bytes < 4:
            continue
        decoded = _run_engine(compilation.asm, "decoded",
                              stack_bytes=stack_bytes)
        generated = _run_engine(compilation.asm, "codegen",
                                stack_bytes=stack_bytes)
        assert decoded == generated
        assert decoded[0] == "GoesWrong"
        if stack_bytes == needed - 4:
            assert "stack overflow" in decoded[3]


#: Generated seeds: plain, and with recursion and function pointers.  The
#: campaign's programs run too few steps per instruction to tier up, so
#: this sweep is the codegen tier's coverage on generated programs.
SEEDS = ([(seed, {}) for seed in range(0, 40, 5)]
         + [(seed, {"recursion": True, "funcptr": True})
            for seed in range(0, 40, 5)])


def _seed_id(case):
    seed, kwargs = case
    return f"{seed}-recfp" if kwargs else str(seed)


@pytest.mark.parametrize("case", SEEDS, ids=_seed_id)
def test_generated_seed_agrees(case):
    seed, kwargs = case
    source = generate_program(seed, **kwargs)
    for name, options in ABLATIONS.items():
        compilation = compile_c(source, filename=f"seed{seed}.c",
                                options=options)
        decoded = _run_engine(compilation.asm, "decoded")
        generated = _run_engine(compilation.asm, "codegen")
        assert decoded == generated, f"disagreement under ablation {name!r}"


@pytest.mark.parametrize("fuel", [0, 1, 7, 16, 17, 10_000])
def test_fuel_edges_agree(fuel):
    """The unrolled trampoline charges exactly one step per op — every
    batch boundary and the deopt tail must match the decoded count."""
    compilation = compile_c(load_source("compcert/mandelbrot.c"),
                            filename="compcert/mandelbrot.c")
    decoded = _run_engine(compilation.asm, "decoded", fuel=fuel)
    generated = _run_engine(compilation.asm, "codegen", fuel=fuel)
    assert decoded == generated
    if fuel:
        assert decoded[0] == "Diverges"
        assert decoded[6] == fuel


def test_compiled_program_is_cached():
    """compile() runs once per program; reruns reuse the code object."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    first = codegen.codegen_program(compilation.asm)
    again = codegen.codegen_program(compilation.asm)
    assert first is again
    # A fresh (equal) program object is a different cache key.
    other = compile_c(load_source("paper_example.c"),
                      filename="paper_example.c")
    assert codegen.codegen_program(other.asm) is not first


def test_codegen_source_is_python():
    """The dumped source (the CI repro artifact) must be compilable."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    source = codegen.codegen_source(compilation.asm)
    compile(source, "<check>", "exec")
    assert "def B" in source


def test_engine_selector_rejects_unknown_engines():
    """Only ASMsz has a codegen engine: Clight, RTL and Mach reject it,
    and every level rejects a name it does not know."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    for sem, program in ((clight_sem, compilation.clight),
                         (rtl_sem, compilation.rtl),
                         (mach_sem, compilation.mach)):
        for engine in ("codegen", "jit"):
            with pytest.raises(ValueError):
                sem.run_streamed(program, null_sink, engine=engine)
    with pytest.raises(ValueError):
        run_program(compilation.asm, engine="jit")


def test_engine_attribute_on_machine():
    """No engine given: the decoded engine, tiering up; an explicit
    engine never tiers."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    default = AsmMachine(compilation.asm)
    assert (default.engine, default.tiered) == ("decoded", True)
    for engine in ("legacy", "decoded", "codegen"):
        machine = AsmMachine(compilation.asm, engine=engine)
        assert (machine.engine, machine.tiered) == (engine, False)


def test_install_source_skips_generation():
    """The persistent-artifact path: stored source, same observables.

    Generation is deterministic — two independent compilations of the
    same C source generate identical Python — so installing one
    compilation's source onto the other's program is exactly what a
    restarted daemon does when it replays the store, and every
    observable must match a from-scratch generation.
    """
    source_c = load_source("paper_example.c")
    first = compile_c(source_c, filename="paper_example.c")
    second = compile_c(source_c, filename="paper_example.c")
    assert first.asm is not second.asm
    generated = codegen.codegen_source(first.asm)
    assert codegen.cached_program(second.asm) is None
    installed = codegen.install_source(second.asm, generated)
    assert codegen.cached_program(second.asm) is installed
    # codegen_program now reuses the installed object: no regeneration.
    assert codegen.codegen_program(second.asm) is installed
    assert installed.source == codegen.codegen_source(second.asm)
    fresh = run_program(first.asm, fuel=100_000, engine="codegen")
    replayed = run_program(second.asm, fuel=100_000, engine="codegen")
    assert type(fresh[0]) is type(replayed[0])
    assert fresh[0].return_code == replayed[0].return_code
    assert fresh[1].steps == replayed[1].steps
    assert fresh[1].measured_stack_usage == replayed[1].measured_stack_usage


def test_install_source_rejects_unloadable_text():
    """Poisoned artifacts never reach the cache.

    Loadability is the *last* line of defense — the serving layer's
    payload hash catches subtler corruption (a truncated source can
    still be syntactically valid Python) before it gets here.
    """
    fresh = compile_c(load_source("paper_example.c"),
                      filename="paper_example.c")
    with pytest.raises(ValueError):
        codegen.install_source(fresh.asm, "def B0(:\n")  # syntax error
    with pytest.raises(ValueError):
        codegen.install_source(fresh.asm, "x = 1\n")     # no bind()
    with pytest.raises(ValueError):
        codegen.install_source(fresh.asm, "bind = 7\n")  # not callable
    assert codegen.cached_program(fresh.asm) is None


# ---------------------------------------------------------------------------
# The tiered default run
# ---------------------------------------------------------------------------

#: Tier-up points the suite forces (decoded steps before the switch),
#: after one run at the real budget.
FORCED_BUDGETS = (0, 1, 3, math.inf)


def _run_default(asm, stack_bytes=1 << 20, fuel=FUEL):
    output: list = []
    behavior, machine = run_program(asm, stack_bytes=stack_bytes,
                                    output=output, fuel=fuel)
    return _behavior_fingerprint(behavior, machine, output), machine


def _assert_tiered_agrees(asm, monkeypatch, **run):
    """The default run matches ``engine="decoded"`` at the real budget
    (``asm`` not compiled yet) and with the switch forced at each of
    :data:`FORCED_BUDGETS`."""
    decoded = _run_engine(asm, "decoded", **run)
    assert _run_default(asm, **run)[0] == decoded, "real budget"
    for forced in FORCED_BUDGETS:
        with monkeypatch.context() as patch:
            patch.setattr(machine_mod, "_tier_up_budget",
                          lambda program: forced)
            tiered, machine = _run_default(asm, **run)
        assert tiered == decoded, f"tier-up forced at step {forced}"
        if forced == 0 and machine.steps:
            assert machine.tier_up_at == 0
        elif forced == math.inf:
            assert machine.tier_up_at is None
    return decoded


@pytest.mark.parametrize("path", ALL_RUNNABLE)
def test_tiered_default_agrees_on_catalog(path, monkeypatch):
    compilation = compile_c(load_source(path), filename=path)
    assert _assert_tiered_agrees(compilation.asm, monkeypatch)[0] \
        == "Converges"


@pytest.mark.parametrize("path", ["paper_example.c", "mibench/dijkstra.c",
                                  "recursive/fib.c", "certikos/proc.c"])
def test_tiered_default_overflow_agrees(path, monkeypatch):
    source = load_source(path)
    needed = run_program(compile_c(source, filename=path).asm, fuel=FUEL,
                         engine="decoded")[1].measured_stack_usage
    for stack_bytes in (needed - 4, needed // 2, 8):
        # A fresh compilation each time: the real budget is only taken
        # while the program's code is not compiled yet.
        compilation = compile_c(source, filename=path)
        decoded = _assert_tiered_agrees(compilation.asm, monkeypatch,
                                        stack_bytes=stack_bytes)
        assert decoded[0] == "GoesWrong"


@pytest.mark.parametrize("fuel", [0, 1, 7, 16, 17, 100, 10_000, 123_457])
def test_tiered_default_fuel_edges_agree(fuel, monkeypatch):
    compilation = compile_c(load_source("compcert/mandelbrot.c"),
                            filename="compcert/mandelbrot.c")
    decoded = _assert_tiered_agrees(compilation.asm, monkeypatch, fuel=fuel)
    assert decoded[0] == "Diverges" and decoded[6] == fuel


@pytest.mark.parametrize("case", SEEDS, ids=_seed_id)
def test_tiered_default_agrees_on_seeds(case, monkeypatch):
    seed, kwargs = case
    source = generate_program(seed, **kwargs)
    for name, options in ABLATIONS.items():
        compilation = compile_c(source, filename=f"seed{seed}.c",
                                options=options)
        _assert_tiered_agrees(compilation.asm, monkeypatch)


def test_long_run_tiers_up():
    """At the real budget a long run really enters generated code, once
    its warm-up is over; a short one never compiles."""
    compilation = compile_c(load_source("compcert/mandelbrot.c"),
                            filename="compcert/mandelbrot.c")
    asm = compilation.asm
    assert codegen.cached_program(asm) is None
    instructions = sum(len(f.body) for f in asm.functions.values())
    decoded = _run_engine(asm, "decoded")
    tiered, machine = _run_default(asm)
    assert tiered == decoded
    warm_up = machine_mod.TIER_UP_STEPS_PER_INSTR * instructions
    assert warm_up <= machine.tier_up_at < decoded[6]
    assert codegen.cached_program(asm) is not None
    # Compiled now, so the next run enters generated code at once.
    again, machine = _run_default(asm)
    assert again == decoded and machine.tier_up_at == 0

    short = compile_c(load_source("certikos/proc.c"),
                      filename="certikos/proc.c")
    _fingerprint, machine = _run_default(short.asm)
    assert machine.tier_up_at is None
    assert codegen.cached_program(short.asm) is None


def test_explicit_codegen_compiles_before_first_step():
    """``engine="codegen"`` runs generated code from step 0 even on a
    5-step program, which never reaches the tiered budget — the codegen
    fault operators rely on it."""
    program = asm_ast.AsmProgram(
        [], {"main": asm_ast.AsmFunction("main", [
            asm_ast.Pmovimm("eax", 5),
            asm_ast.Pmovimm("ecx", 3),
            asm_ast.Pbinop("add", "eax", "ecx"),
            asm_ast.Pmovimm("ecx", 0),
            asm_ast.Pret()], frame_size=0)},
        externals=set(), main="main")
    behavior, machine = run_program(program, fuel=1, engine="codegen")
    assert codegen.cached_program(program) is not None
    assert machine.tier_up_at == 0 and machine.steps == 1
    assert type(behavior).__name__ == "Diverges"
    behavior, machine = run_program(program, engine="codegen")
    assert behavior.return_code == 8 and machine.steps == 5

    fresh = asm_ast.AsmProgram([], dict(program.functions),
                               externals=set(), main="main")
    behavior, machine = run_program(fresh)
    assert behavior.return_code == 8 and machine.tier_up_at is None
    assert codegen.cached_program(fresh) is None
