"""The execution-engine names, and the check every entry point runs.

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
"""

from __future__ import annotations

from typing import Optional

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
