"""Engine selection shared by the four language backends.

Every execution entry point accepts two selectors:

``decoded`` (bool, legacy knob)
    The PR 2-3 era selector: ``True`` = the pre-decoded threaded-code
    engine, ``False`` = the original step loop.  Kept working verbatim
    so existing call sites, tests and benchmark monkeypatches are
    untouched.

``engine`` (str, the three-tier knob)
    ``"legacy"`` | ``"decoded"`` | ``"codegen"``.  Wins over
    ``decoded`` when both are given.

When neither is passed the module defaults decide: ``DEFAULT_DECODED``
(the old kill switch — ``False`` forces the legacy loop everywhere,
which ``bench_interp``/``bench_campaign`` rely on) and
``DEFAULT_ENGINE`` (the tier used when decoding is on at all).  ASMsz
has no ``DEFAULT_ENGINE``: its default run starts on the decoded engine
and tiers up into codegen part-way (``repro.asm.machine``).  The
defaults live in each language module so monkeypatching
``clight.semantics.DEFAULT_DECODED`` keeps its established meaning;
this module only holds the shared resolution rule and the
traceback-based step recovery used by the codegen drivers.
"""

from __future__ import annotations

from typing import Optional

#: The three execution tiers, slowest (and most trusted) first.
ENGINES = ("legacy", "decoded", "codegen")


def resolve(default_decoded: bool, default_engine: str,
            decoded: Optional[bool], engine: Optional[str]) -> str:
    """The one resolution rule every backend uses."""
    if engine is not None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r} (expected one of {ENGINES})")
        return engine
    if decoded is not None:
        return "decoded" if decoded else "legacy"
    if not default_decoded:
        return "legacy"
    return default_engine


def recover_steps(exc: BaseException, filename: str,
                  slot_by_line: dict[int, int]):
    """Exact step count from an exception that crossed a generated driver.

    The codegen drivers run many interpreter steps per loop iteration;
    the completed-step count at a raise is ``st`` (the frame local) plus
    the ordinal of the raising statement within the unrolled body
    (``slot_by_line``, keyed by line number in the generated source).
    Returns ``(steps, code_local)`` — ``code_local`` is the driver's
    ``code`` variable, which distinguishes genuine termination (the
    sentinel ``None`` was called) from a ``TypeError`` inside an op —
    or ``(None, None)`` if the exception never crossed the driver.
    """
    frame = None
    lineno = 0
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == filename:
            frame = tb.tb_frame
            lineno = tb.tb_lineno
        tb = tb.tb_next
    if frame is None:
        return None, None
    local = frame.f_locals
    steps = local.get("st", 0) + slot_by_line.get(lineno, 0)
    return steps, local.get("code")


#: Unroll factor of the generated dispatch loops (one fuel check per
#: batch instead of one per step).
UNROLL = 16


def build_driver(filename: str, entry_lines: list[str],
                 namespace: dict) -> tuple:
    """Compile a specialized dispatch driver for a semantics tier.

    ``entry_lines`` is the per-program constant-folded entry sequence
    (arity guards resolved, temp/register counts and stack-block specs
    inlined as literals); the builder appends the shared unrolled
    ``code = code(m)`` trampoline.  The driver's first statement sets
    ``code = True`` so :func:`recover_steps` can tell clean termination
    (the ``None`` sentinel was called) from a genuine ``TypeError``
    raised while the entry sequence is still running.

    Returns ``(run, slot_by_line, source)`` where ``run(m, rec, fuel)``
    executes the program (``rec`` is the decoded main record, read only
    for ``call_event``/``entry`` so uncached decoders stay safe) and
    ``slot_by_line`` feeds :func:`recover_steps`.
    """
    lines = ["def run(m, rec, fuel):",
             "    code = True"]
    for entry_line in entry_lines:
        lines.append("    " + entry_line)
    slots: dict[int, int] = {}
    lines.append("    st = 0")
    lines.append(f"    _n = fuel - {UNROLL}")
    lines.append("    while st <= _n:")
    for j in range(UNROLL):
        lines.append("        code = code(m)")
        slots[len(lines)] = j
    lines.append(f"        st += {UNROLL}")
    lines.append("    while st < fuel:")
    lines.append("        code = code(m)")
    slots[len(lines)] = 0
    lines.append("        st += 1")
    lines.append("    return fuel")
    source = "\n".join(lines) + "\n"
    ns = dict(namespace)
    exec(compile(source, filename, "exec"), ns)
    return ns["run"], slots, source
