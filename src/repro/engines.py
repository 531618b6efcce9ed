"""The execution-engine names, the check every entry point runs, and the
one run driver of the Clight, RTL and Mach semantics.

Every execution entry point takes one selector, ``engine=``:

``"legacy"``
    the original step loop, kept as the differential oracle;
``"decoded"``
    the pre-decoded threaded-code interpreter;
``"codegen"``
    the program compiled to specialized Python source (ASMsz only).

``None`` picks the level's default.  On Clight, RTL and Mach that is the
decoded engine.  On ASMsz it is a tiered run: it starts on the decoded
engine and moves into generated code once it has paid for compiling it
(:mod:`repro.asm.machine`).

:func:`run` runs a Clight, RTL or Mach program on either engine and
:func:`drive` holds the two loops it runs, so a run is classified as a
behavior (converges, diverges, goes wrong) in one place for every level;
``clight.semantics.run_call`` and the legacy ASMsz run use
:func:`drive` too.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import obs
from repro.errors import DynamicError
from repro.events.stream import Consumer, CountingSink, StreamOutcome

#: The engines of the Clight, RTL and Mach semantics, oracle first.
SEMANTICS_ENGINES = ("legacy", "decoded")

#: The engines of the ASMsz machine, oracle first.
ASM_ENGINES = ("legacy", "decoded", "codegen")


def check(level: str, engine: Optional[str],
          allowed: tuple[str, ...]) -> str:
    """``engine``, or ``"decoded"`` for None; ValueError if ``level``
    has no such engine."""
    if engine is None:
        return "decoded"
    if engine not in allowed:
        raise ValueError(f"{level} has no engine {engine!r} "
                         f"(expected one of {allowed})")
    return engine


def run(level: str, program, sink: Consumer, fuel: int,
        output: Optional[list], engine: Optional[str],
        legacy: Callable, decoded: Callable) -> StreamOutcome:
    """Run ``program`` from ``main`` on ``engine``, feeding ``sink``.

    ``legacy(program, sink, output)`` builds ``level``'s step machine
    and emits main's call event; ``decoded(program, sink, output)``
    builds its threaded-code machine and returns ``(machine, main's
    entry op)``.  A program without ``main`` goes wrong.  With
    observability on, the run is one ``exec.<level>`` span and adds to
    the ``interp.<level>.{steps,seconds,runs}`` counters; the loops
    themselves carry no added work.
    """
    engine = check(level, engine, SEMANTICS_ENGINES)
    threaded = engine == "decoded"
    start = decoded if threaded else legacy
    if not obs.enabled:
        return _run(program, sink, fuel, output, start, threaded)
    name = level.lower()
    with obs.span(f"exec.{name}", engine=engine) as sp:
        outcome = _run(program, sink, fuel, output, start, threaded)
    sp.set(kind=outcome.kind, steps=outcome.steps, events=outcome.events)
    obs.add(f"interp.{name}.steps", outcome.steps)
    obs.add(f"interp.{name}.seconds", sp.dur)
    obs.add(f"interp.{name}.runs")
    return outcome


def _run(program, sink: Consumer, fuel: int, output: Optional[list],
         start: Callable, threaded: bool) -> StreamOutcome:
    if program.main not in program.functions:
        return StreamOutcome(StreamOutcome.GOES_WRONG,
                             reason="no main function")
    return drive(lambda counting: start(program, counting, output), sink,
                 fuel, threaded)


def drive(start: Callable, sink: Consumer, fuel: int,
          threaded: bool = False) -> StreamOutcome:
    """Run at most ``fuel`` steps of the machine ``start(sink)`` builds.

    The step loop calls ``machine.step()`` until ``machine.done``.  With
    ``threaded``, ``start`` returns ``(machine, op)`` and the loop is
    ``code = code(m)``; the op that finishes the program returns None.
    Either way, a run that is still going after ``fuel`` steps diverges,
    even if its last step finished the program; a ``DynamicError``
    goes wrong, and its step is not counted.
    """
    counting = CountingSink(sink)
    i = 0
    try:
        if threaded:
            m, code = start(counting)
            try:
                # No termination check: calling the None the last op
                # returned raises TypeError at exactly the iteration the
                # step loop would have broken out of, so ``i`` stays
                # step-accurate.
                for i in range(fuel):
                    code = code(m)
            except TypeError:
                if code is not None:  # a genuine TypeError inside an op
                    raise
            else:
                i = fuel
        else:
            m = start(counting)
            for i in range(fuel):
                if m.done:
                    break
                event = m.step()
                if event is not None:
                    counting(event)
            else:
                i = fuel
    except DynamicError as exc:
        return StreamOutcome(StreamOutcome.GOES_WRONG, reason=str(exc),
                             events=counting.count, steps=i)
    if i < fuel and m.done:
        return StreamOutcome(StreamOutcome.CONVERGES,
                             return_code=m.return_code,
                             events=counting.count, steps=i)
    return StreamOutcome(StreamOutcome.DIVERGES, events=counting.count,
                         steps=i)
