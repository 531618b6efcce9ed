"""Constant propagation over RTL (one of CompCert's RTL optimizations).

A forward dataflow over the flat lattice ``UNDEF < const < NAC`` per
register.  Instructions whose operands are all constants are folded (the
folding evaluator is the *same* :mod:`repro.ops` the interpreters use, so
the transformation cannot disagree with the semantics); conditional
branches on constants become unconditional.

Folding is careful about undefined behavior: if evaluating an operation
on the inferred constants raises (division by zero, overflowing
conversion), the result is treated as NAC and the instruction is kept —
the program keeps its original (wrong) behavior instead of the optimizer
changing it.
"""

from __future__ import annotations

from repro import ops
from repro.errors import DynamicError
from repro.memory.values import VFloat, VInt, Value
from repro.rtl import ast as rtl
from repro.rtl.dataflow import solve_forward, walk_forward

NAC = "NAC"  # not-a-constant (lattice top)
# Absence from the fact dict means "undefined yet" (lattice bottom).

Fact = dict  # reg -> Value | NAC


def _merge(old: Fact, new: Fact) -> bool:
    """Join ``new`` into ``old`` in place; True iff ``old`` changed.

    A register absent from one side takes the other side's value; two
    different values join to NAC.  Values propagate by reference, so the
    ``is`` test skips the ``Value.__eq__`` call for the overwhelmingly
    common unchanged register.
    """
    changed = False
    for reg, value in new.items():
        cur = old.get(reg, _MISSING)
        if cur is value or cur is NAC:
            continue
        if cur is _MISSING:
            old[reg] = value
            changed = True
        elif cur != value:
            old[reg] = NAC
            changed = True
    return changed


_MISSING = object()


def _transfer(instr: rtl.Instr, fact: Fact) -> None:
    if isinstance(instr, rtl.Iop):
        fact[instr.dest] = _eval(instr.op,
                                 [fact.get(r, NAC) for r in instr.args])
    elif isinstance(instr, (rtl.Iload, rtl.Icall)):
        if instr.dest is not None:
            fact[instr.dest] = NAC


def _eval(op: tuple, args: list):
    kind = op[0]
    if kind == "const":
        return VInt(op[1])
    if kind == "constf":
        return VFloat(op[1])
    if kind == "move":
        return args[0]
    if kind in ("addrglobal", "addrstack"):
        return NAC  # run-time addresses
    if any(not isinstance(a, Value) for a in args):
        return NAC
    try:
        if kind == "unop":
            return ops.eval_unop(op[1], args[0])
        if kind == "binop":
            return ops.eval_binop(op[1], args[0], args[1])
    except DynamicError:
        return NAC
    return NAC


def constprop(function: rtl.RTLFunction) -> int:
    """Rewrite ``function`` in place; returns the number of instructions
    changed (used by tests and the ablation bench)."""
    # Parameters have unknown run-time values: NAC at entry (leaving them
    # absent would make them lattice bottom and licence bogus folding).
    entry_fact = {param: NAC for param in function.params}
    blocks, facts = solve_forward(function, entry_fact, _transfer, _merge,
                                  dict)
    changed = 0
    for node, instr, fact in walk_forward(blocks, facts, _transfer):
        new_instr = _rewrite(instr, fact)
        if new_instr is not None:
            function.graph[node] = new_instr
            changed += 1
    return changed


def _rewrite(instr: rtl.Instr, fact: Fact):
    if isinstance(instr, rtl.Iop):
        if instr.op[0] in ("const", "constf"):
            return None
        value = _eval(instr.op, [fact.get(r, NAC) for r in instr.args])
        if isinstance(value, VInt):
            return rtl.Iop(("const", value.value), [], instr.dest, instr.succ)
        if isinstance(value, VFloat):
            return rtl.Iop(("constf", value.value), [], instr.dest, instr.succ)
        return None
    if isinstance(instr, rtl.Icond):
        value = fact.get(instr.arg, NAC)
        if isinstance(value, VInt):
            return rtl.Inop(instr.ifso if value.value != 0 else instr.ifnot)
        if isinstance(value, VFloat):
            # Conditions are integer-class by construction, but stay safe.
            return None
        return None
    return None


def constprop_program(program: rtl.RTLProgram) -> int:
    return sum(constprop(f) for f in program.functions.values())
