"""Backward liveness analysis over RTL.

Yields, for every node, the set of registers live *after* the node
(`live-out`), from one backward walk of each basic block.  Consumed by
dead-code elimination and by the register allocator's interference
construction.
"""

from __future__ import annotations

from typing import Iterator

from repro.rtl import ast as rtl
from repro.rtl.dataflow import solve_backward, walk_backward

Fact = set


def has_side_effect(instr: rtl.Instr) -> bool:
    """Instructions that must be kept even if their result is dead."""
    return isinstance(instr, (rtl.Istore, rtl.Icall, rtl.Ireturn, rtl.Icond))


def _transfer_faint(instr: rtl.Instr, live: Fact) -> None:
    defs = instr.defs()
    # A pure instruction whose destination is dead contributes no uses:
    # its operands need not stay live (this is what lets DCE cascade in
    # one round).  Its destination is not live, so ``live`` stays as is.
    if defs and not has_side_effect(instr) \
            and not any(d in live for d in defs):
        return
    _transfer_conservative(instr, live)


def _transfer_conservative(instr: rtl.Instr, live: Fact) -> None:
    # The register allocator's variant: it must stay correct even when
    # dead instructions are left in the code, so it keeps their uses live.
    for d in instr.defs():
        live.discard(d)
    live.update(instr.uses())


def _merge(old: Fact, new: Fact) -> bool:
    size = len(old)
    old |= new
    return len(old) != size


def walk_live_out(function: rtl.RTLFunction, conservative: bool = False
                  ) -> Iterator[tuple[int, rtl.Instr, Fact]]:
    """Yield ``(node, instr, registers live after node)`` for every node.

    The live set is the walk's own, updated in place once the consumer
    resumes (see :func:`repro.rtl.dataflow.walk_backward`): copy it to
    keep it.
    """
    transfer = _transfer_conservative if conservative else _transfer_faint
    blocks, facts = solve_backward(function, set(), transfer, _merge, set)
    return walk_backward(blocks, facts, transfer)


def live_before(instr: rtl.Instr, live_out: Fact,
                conservative: bool = False) -> Fact:
    """The registers live before ``instr``, given those live after it."""
    live = set(live_out)
    (_transfer_conservative if conservative else _transfer_faint)(instr, live)
    return live
