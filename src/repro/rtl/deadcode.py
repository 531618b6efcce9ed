"""Dead-code elimination over RTL.

Pure instructions (``Iop``, ``Iload``) whose destination is dead are
turned into ``Inop``.  Loads are only pure when they cannot trap — in our
memory model a load *can* go wrong (bad pointer), so removing a dead load
could turn a wrong program into a converging one.  That direction is
allowed by CompCert-style refinement (the source "goes wrong" escape
hatch), and CompCert's own CSE/deadcode make the same choice; the
differential tests therefore compare against the *source* behavior, never
the other way around.

Unreachable nodes are pruned afterwards, which keeps the graphs small for
the register allocator.
"""

from __future__ import annotations

from repro.rtl import ast as rtl
from repro.rtl.liveness import has_side_effect, walk_live_out


def deadcode(function: rtl.RTLFunction) -> int:
    """Rewrite in place; returns number of instructions removed.

    One round suffices: under faint-variable liveness a dead instruction
    keeps none of its operands live, so removing it leaves every live
    set, and hence every other verdict, unchanged.
    """
    removed = 0
    for node, instr, live in walk_live_out(function):
        if isinstance(instr, rtl.Inop) or has_side_effect(instr):
            continue
        defs = instr.defs()
        if defs and not any(d in live for d in defs):
            function.graph[node] = rtl.Inop(instr.successors()[0])
            removed += 1
    _prune_unreachable(function)
    return removed


def _prune_unreachable(function: rtl.RTLFunction) -> int:
    reachable: set[int] = set()
    worklist = [function.entry]
    while worklist:
        node = worklist.pop()
        if node in reachable:
            continue
        reachable.add(node)
        worklist.extend(function.graph[node].successors())
    dead = [node for node in function.graph if node not in reachable]
    for node in dead:
        del function.graph[node]
    return len(dead)


def deadcode_program(program: rtl.RTLProgram) -> int:
    return sum(deadcode(f) for f in program.functions.values())
