"""Differential suite: the pre-decoded Clight/RTL/Mach interpreters vs.
the legacy ``step()`` machines.

Each decoded engine (`repro.clight.decode`, `repro.rtl.decode`,
`repro.mach.decode`) must be observationally identical to its legacy
loop: same traces, same outputs, same return codes, same outcome
classification and step counts — on the full catalog, on generated
seeds (plain, and with recursion and function pointers) at every
ablation point, on programs that go wrong or diverge, and at small
fuels.  The streaming entry points must also agree with themselves:
feeding a sink and materializing a trace are the same computation, on
every level and engine.
"""

from __future__ import annotations

import functools

import pytest

from repro.clight import semantics as clight_sem
from repro.driver import compile_c
from repro.events.stream import (BracketChecker, CountingSink, ExactMatcher,
                                 PrunedMatcher, Tee)
from repro.events.trace import WeightFold, prune
from repro.mach import semantics as mach_sem
from repro.programs.catalog import ALL_RUNNABLE
from repro.programs.loader import load_source
from repro.rtl import semantics as rtl_sem
from repro.testing.oracles import ABLATIONS, check_seed
from repro.testing.progen import generate_program

CLIGHT_FUEL = 5_000_000
INTERP_FUEL = 50_000_000

#: (name, semantics module, Compilation attribute, fuel) per level.
LEVELS = [
    ("clight", clight_sem, "clight", CLIGHT_FUEL),
    ("rtl", rtl_sem, "rtl", INTERP_FUEL),
    ("mach", mach_sem, "mach", INTERP_FUEL),
]


def _stream_fingerprint(sem, program, fuel, engine):
    trace: list = []
    output: list = []
    outcome = sem.run_streamed(program, trace.append, fuel=fuel,
                               output=output, engine=engine)
    return (outcome.kind, outcome.return_code, outcome.reason,
            outcome.events, outcome.steps, tuple(trace), tuple(output))


def _assert_levels_agree(compilation, context=""):
    for name, sem, attr, fuel in LEVELS:
        program = getattr(compilation, attr)
        legacy = _stream_fingerprint(sem, program, fuel, "legacy")
        decoded = _stream_fingerprint(sem, program, fuel, "decoded")
        assert legacy == decoded, f"{name} disagrees {context}"


@pytest.mark.parametrize("path", ALL_RUNNABLE)
def test_catalog_program_agrees(path):
    compilation = compile_c(load_source(path), filename=path)
    _assert_levels_agree(compilation, context=f"on {path}")


@pytest.mark.parametrize("seed", range(0, 30, 5))
def test_generated_seed_agrees_at_every_ablation(seed):
    source = generate_program(seed)
    for name, options in ABLATIONS.items():
        compilation = compile_c(source, filename=f"seed{seed}.c",
                                options=options)
        _assert_levels_agree(compilation, context=f"under ablation {name!r}")


@pytest.mark.parametrize("seed", range(0, 30, 5))
def test_recursive_funcptr_seed_agrees_at_every_ablation(seed):
    """Generated recursion and indirect calls, the program shapes the
    deep campaign's rec+fp seeds run through every level."""
    source = generate_program(seed, recursion=True, funcptr=True)
    for name, options in ABLATIONS.items():
        compilation = compile_c(source, filename=f"recfp{seed}.c",
                                options=options)
        _assert_levels_agree(compilation, context=f"under ablation {name!r}")


#: Programs that go wrong on every level, each at a different kind of
#: operation.  The engines must agree on the reason and on the step
#: count, which excludes the operation that raised.
WRONG_PROGRAMS = {
    "division-by-zero": "int z = 0; int main() { return 1 / z; }",
    "null-deref": "int main() { int *p = 0; return *p; }",
    "dangling-stack-pointer": "int *f() { int x = 1; return &x; } "
                              "int main() { int *p = f(); return *p; }",
    "out-of-bounds": "int a[2]; int main() { return a[5]; }",
    "uninitialized-branch": "int main() { int x; if (x) return 1; "
                            "return 0; }",
    "no-main": "int f(void) { return 1; }",
}


@pytest.mark.parametrize("source", WRONG_PROGRAMS.values(),
                         ids=WRONG_PROGRAMS.keys())
def test_going_wrong_agrees(source):
    compilation = compile_c(source)
    for name, sem, attr, fuel in LEVELS:
        program = getattr(compilation, attr)
        legacy = _stream_fingerprint(sem, program, fuel, "legacy")
        decoded = _stream_fingerprint(sem, program, fuel, "decoded")
        assert legacy == decoded, f"{name} disagrees"
        assert legacy[0] == "goes-wrong" and legacy[2], name


def test_no_main_goes_wrong_everywhere():
    """A program without ``main`` goes wrong before its first step, on
    every level and engine, ASMsz included."""
    from repro.asm.machine import run_program as run_asm
    from repro.engines import ASM_ENGINES, SEMANTICS_ENGINES
    from repro.events.trace import GoesWrong

    compilation = compile_c(WRONG_PROGRAMS["no-main"])
    for name, sem, attr, fuel in LEVELS:
        for engine in SEMANTICS_ENGINES:
            behavior = sem.run_program(getattr(compilation, attr),
                                       fuel=fuel, engine=engine)
            assert isinstance(behavior, GoesWrong), (name, engine)
            assert behavior.reason == "no main function", (name, engine)
            assert not behavior.trace, (name, engine)
    for engine in (*ASM_ENGINES, None):
        behavior, machine = run_asm(compilation.asm, engine=engine)
        assert isinstance(behavior, GoesWrong), engine
        assert behavior.reason == "no main function", engine
        assert machine.steps == 0, engine


@pytest.mark.parametrize("source", [
    "int main() { while (1) ; return 0; }",
    "int f() { return f(); } int main() { return f(); }",
], ids=["loop", "recursion"])
def test_divergence_agrees(source):
    """A run that never ends stops at the fuel on both engines, with
    the same trace so far."""
    compilation = compile_c(source)
    for name, sem, attr, _fuel in LEVELS:
        program = getattr(compilation, attr)
        legacy = _stream_fingerprint(sem, program, 5000, "legacy")
        decoded = _stream_fingerprint(sem, program, 5000, "decoded")
        assert legacy == decoded, f"{name} disagrees"
        assert legacy[0] == "diverges" and legacy[4] == 5000, name


@pytest.mark.parametrize("engine", ["legacy", "decoded"])
def test_run_program_matches_run_streamed(engine):
    """`run_program` is the materialized view of `run_streamed`."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    for name, sem, attr, fuel in LEVELS:
        program = getattr(compilation, attr)
        behavior = sem.run_program(program, fuel=fuel, engine=engine)
        trace: list = []
        outcome = sem.run_streamed(program, trace.append, fuel=fuel,
                                   engine=engine)
        assert type(behavior).__name__ == "Converges"
        assert outcome.converged
        assert tuple(behavior.trace) == tuple(trace)
        assert behavior.return_code == outcome.return_code


@pytest.mark.parametrize("fuel", [0, 1, 7, 15, 16, 17, 31, 32, 10_000])
def test_fuel_exhaustion_agrees(fuel):
    """Tiny fuels probe the done-at-exactly-fuel boundary on all levels:
    both engines diverge having taken exactly ``fuel`` steps."""
    compilation = compile_c(load_source("compcert/mandelbrot.c"),
                            filename="compcert/mandelbrot.c")
    for name, sem, attr, _fuel in LEVELS:
        program = getattr(compilation, attr)
        legacy = _stream_fingerprint(sem, program, fuel, "legacy")
        decoded = _stream_fingerprint(sem, program, fuel, "decoded")
        assert legacy == decoded, f"{name} disagrees at fuel {fuel}"
        for fingerprint in (legacy, decoded):
            assert fingerprint[0] == "diverges"
            assert fingerprint[4] == fuel, f"{name} steps at fuel {fuel}"


def test_streaming_consumers_see_the_materialized_trace():
    """One streamed pass feeds matcher+fold+bracket identically to the
    post-hoc folds over the materialized trace."""
    compilation = compile_c(load_source("recursive/fib.c"),
                            filename="recursive/fib.c")
    behavior = clight_sem.run_program(compilation.clight, fuel=CLIGHT_FUEL)
    metric = compilation.metric
    exact = ExactMatcher(behavior.trace)
    pruned = PrunedMatcher(prune(behavior.trace))
    fold = WeightFold(metric)
    bracket = BracketChecker()
    counting = CountingSink(Tee(exact, pruned, fold, bracket))
    outcome = clight_sem.run_streamed(compilation.clight, counting,
                                      fuel=CLIGHT_FUEL)
    assert outcome.converged
    assert counting.count == len(behavior.trace) == outcome.events
    assert exact.matched()
    assert pruned.matched()
    assert bracket.ok and not bracket.stack
    post_hoc = WeightFold(metric)
    for event in behavior.trace:
        post_hoc(event)
    assert (fold.total, fold.peak) == (post_hoc.total, post_hoc.peak)


@pytest.mark.parametrize("engine", ["legacy", "decoded"])
@pytest.mark.parametrize("level", [name for name, *_ in LEVELS])
def test_streaming_consumers_agree_on_every_level(level, engine):
    """The same one-pass check on every level and engine: the consumers
    a campaign tees onto a run see exactly the materialized trace."""
    _name, sem, attr, fuel = next(entry for entry in LEVELS
                                  if entry[0] == level)
    compilation = compile_c(load_source("recursive/fib.c"),
                            filename="recursive/fib.c")
    program = getattr(compilation, attr)
    behavior = sem.run_program(program, fuel=fuel, engine=engine)
    exact = ExactMatcher(behavior.trace)
    fold = WeightFold(compilation.metric)
    bracket = BracketChecker()
    counting = CountingSink(Tee(exact, fold, bracket))
    outcome = sem.run_streamed(program, counting, fuel=fuel, engine=engine)
    assert outcome.converged
    assert outcome.return_code == behavior.return_code
    assert counting.count == len(behavior.trace) == outcome.events
    assert exact.matched()
    assert bracket.ok and not bracket.stack
    post_hoc = WeightFold(compilation.metric)
    for event in behavior.trace:
        post_hoc(event)
    assert (fold.total, fold.peak) == (post_hoc.total, post_hoc.peak)


def test_deep_verdicts_identical_between_engines(monkeypatch):
    """The deep campaign mode must produce byte-identical verdicts
    whichever engine runs underneath."""
    from repro.testing import oracles

    def deep_verdicts():
        return [check_seed(seed, deep=True, probes=False).as_json()
                for seed in range(6)]

    decoded = deep_verdicts()
    # Deep mode imports the RTL and Mach entry points at call time, so
    # patching the modules reaches it; Clight is bound at import.
    monkeypatch.setattr(oracles, "stream_clight", functools.partial(
        clight_sem.run_streamed, engine="legacy"))
    monkeypatch.setattr(rtl_sem, "run_streamed", functools.partial(
        rtl_sem.run_streamed, engine="legacy"))
    monkeypatch.setattr(mach_sem, "run_streamed", functools.partial(
        mach_sem.run_streamed, engine="legacy"))
    legacy = deep_verdicts()
    for old, new in zip(legacy, decoded):
        old.pop("timings")
        new.pop("timings")
        assert old == new


def test_legacy_engines_stay_selectable():
    """`engine="legacy"` must keep exercising the original machines (the
    differential oracle depends on them remaining live code paths)."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    for name, sem, attr, fuel in LEVELS:
        behavior = sem.run_program(getattr(compilation, attr), fuel=fuel,
                                   engine="legacy")
        assert type(behavior).__name__ == "Converges"
