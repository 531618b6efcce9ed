"""Common-subexpression elimination over RTL (available expressions).

A forward *must* dataflow with two kinds of facts:

* expression availability — ``(op, canonical args) -> holding register``
  for pure operations, ``("load", chunk, canonical addr)`` for memory
  reads;
* copy equivalence — ``("copy", reg) -> canonical register``, maintained
  across register moves so that re-materialized addresses and values
  unify (poor man's value numbering).

Joins intersect; redefining a register kills the entries it holds, the
entries reading it, and its copy links; stores and calls kill all load
entries (calls may write memory, stores may alias).  An instruction
whose canonical key is available is rewritten into a register move,
which the register allocator usually coalesces away.

Like CompCert's CSE this pass is purely value-preserving, so trace
equality across levels is untouched; its effect on the *bounds* is via
shrunken live ranges and spill counts (see the ablation bench).
"""

from __future__ import annotations

from repro.rtl import ast as rtl
from repro.rtl.dataflow import solve_forward, walk_forward

Fact = dict

# operations never worth caching (cheaper to rematerialize than to hold)
_CHEAP = {"const", "constf", "move"}


def _canon(fact: Fact, reg: int) -> int:
    return fact.get(("copy", reg), reg)


def _key_of(instr: rtl.Instr, fact: Fact):
    if isinstance(instr, rtl.Iop) and instr.op[0] not in _CHEAP:
        return (instr.op, tuple(_canon(fact, a) for a in instr.args))
    if isinstance(instr, rtl.Iload):
        return ("load", instr.chunk, _canon(fact, instr.addr))
    return None


def _kill_reg(fact: Fact, reg: int) -> None:
    """Drop, in place, every entry that ``reg`` holds or that reads it."""
    dead = []
    for key, value in fact.items():
        if value == reg:
            dead.append(key)
        elif key[0] == "copy":
            if key[1] == reg:
                dead.append(key)
        elif key[0] == "load":
            if key[2] == reg:
                dead.append(key)
        elif reg in key[1]:
            dead.append(key)
    for key in dead:
        del fact[key]


def _kill_loads(fact: Fact) -> None:
    for key in [key for key in fact if key[0] == "load"]:
        del fact[key]


def _transfer(instr: rtl.Instr, fact: Fact) -> None:
    if isinstance(instr, rtl.Iop):
        dest = instr.dest
        if instr.op[0] == "move":
            source = _canon(fact, instr.args[0])
            _kill_reg(fact, dest)
            if source != dest:
                fact[("copy", dest)] = source
            return
        key = _key_of(instr, fact)  # canonicalize before the kill
        holder = fact.get(key) if key is not None else None
        _kill_reg(fact, dest)
        if holder is not None and holder != dest:
            # The rewrite will turn this into a move from the holder, so
            # the destination becomes a copy of it.
            fact[("copy", dest)] = holder
        elif key is not None and dest not in instr.args:
            fact[key] = dest
    elif isinstance(instr, rtl.Iload):
        key = _key_of(instr, fact)
        holder = fact.get(key)
        _kill_reg(fact, instr.dest)
        if holder is not None and holder != instr.dest:
            fact[("copy", instr.dest)] = holder
        elif instr.dest != instr.addr:
            fact[key] = instr.dest
    elif isinstance(instr, rtl.Istore):
        _kill_loads(fact)
    elif isinstance(instr, rtl.Icall):
        _kill_loads(fact)
        if instr.dest is not None:
            _kill_reg(fact, instr.dest)


def _merge(old: Fact, new: Fact) -> bool:
    """Intersect ``old`` with ``new`` in place; True iff ``old`` changed."""
    dead = [key for key, value in old.items() if new.get(key) != value]
    for key in dead:
        del old[key]
    return bool(dead)


def cse_function(function: rtl.RTLFunction) -> int:
    """Rewrite in place; returns the number of instructions simplified."""
    blocks, facts = solve_forward(function, {}, _transfer, _merge, dict)
    changed = 0
    for node, instr, fact in walk_forward(blocks, facts, _transfer):
        if not isinstance(instr, (rtl.Iop, rtl.Iload)):
            continue
        key = _key_of(instr, fact)
        if key is None:
            continue
        holder = fact.get(key)
        if holder is None:
            continue
        if holder == instr.dest:
            function.graph[node] = rtl.Inop(instr.successors()[0])
        else:
            function.graph[node] = rtl.Iop(("move",), [holder], instr.dest,
                                           instr.successors()[0])
        changed += 1
    return changed


def cse_program(program: rtl.RTLProgram) -> int:
    return sum(cse_function(f) for f in program.functions.values())
