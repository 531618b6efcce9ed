"""Pre-decoded (threaded-code) execution engine for ASMsz.

The legacy interpreter in :mod:`repro.asm.machine` dispatches every step
through a ~25-branch ``isinstance`` chain, resolves addressing modes and
operator tables per instruction, and keeps registers in string-keyed
dicts.  This module compiles each :class:`~repro.asm.ast.AsmProgram`
*once* into arrays of per-instruction closures — classic threaded code —
so the hot loop is reduced to ``pc = ops[pc](pc)``:

* operand registers become list indices resolved at decode time;
* immediates, jump targets, return addresses (even their little-endian
  byte encoding) and global addresses are precomputed;
* the dominant ``Pload``/``Pstore`` chunks get aligned-word fast paths
  that read and write the flat ``bytearray`` directly.

Decoding happens in two stages so the expensive part is shared:

1. :func:`decode_program` lowers the instruction objects into
   machine-independent *factories* and caches the result per program
   (``WeakKeyDictionary``, so the cache dies with the program: nothing
   in a cached value refers back to its key);
2. :func:`bind_machine` instantiates the factories against one
   :class:`AsmMachine` (registers, memory, stack base), which is a single
   closure allocation per instruction.

:func:`dispatch` is the one loop that runs these closures.  It serves
every ASM run that executes decoded ops: the ``engine="decoded"`` run,
the generated code's deopt (:mod:`repro.asm.codegen` falls back to it at
fuel tails and wild returns), and the warm-up of the tiered default
run, which :func:`run` hands over to generated code once the run has
taken enough steps to pay for compiling it.

The engine is observably equivalent to the legacy step loop by
construction: same events, same outputs, same ESP watermark, same
overflow point, and byte-identical error messages — the differential
suite in ``tests/unit/test_asm_decode.py`` checks this over the whole
program catalog, and the legacy loop stays available behind
``AsmMachine(..., engine="legacy")`` as the oracle.
"""

from __future__ import annotations

import math
import struct
import time
from typing import Callable, Optional
from weakref import WeakKeyDictionary

from repro import ints, obs
from repro.asm import ast as asm
from repro.errors import (DynamicError, MemoryError_, StackOverflowError_,
                          UndefinedBehaviorError)
from repro.events.trace import Behavior, Converges, Diverges, GoesWrong
from repro.memory.values import VFloat, VInt
from repro.runtime import call_external

# Constants mirrored from repro.asm.machine (imported there lazily to keep
# the module graph acyclic: machine -> decode only at bind time).
GLOBAL_BASE = 0x1000
HALT_ADDRESS = 0xFFFF0000
CODE_BASE = 0x40000000
FUNCTION_STRIDE = 0x100000

IREG_INDEX = {name: i for i, name in enumerate(asm.INT_REG_NAMES)}
FREG_INDEX = {name: i for i, name in enumerate(asm.FLOAT_REG_NAMES)}
EAX = IREG_INDEX["eax"]

_MASK = 0xFFFFFFFF
_F64 = struct.Struct("<d")

_wrap = ints.wrap
_to_signed = ints.to_signed


class RegisterFile:
    """Index-based register file with a dict-like name view.

    The decoded engine works on the raw ``array`` list; the name-keyed
    ``__getitem__``/``__setitem__`` keep the legacy ``step()`` path and
    external consumers (``machine.iregs["eax"]``) working unchanged.
    """

    __slots__ = ("array", "_index")

    def __init__(self, index: dict[str, int], zero) -> None:
        self.array = [zero] * len(index)
        self._index = index

    def __getitem__(self, name: str):
        return self.array[self._index[name]]

    def __setitem__(self, name: str, value) -> None:
        self.array[self._index[name]] = value

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def keys(self):
        return self._index.keys()

    def items(self):
        return ((name, self.array[i]) for name, i in self._index.items())

    def as_dict(self) -> dict:
        return dict(self.items())

    def __repr__(self) -> str:
        return f"RegisterFile({self.as_dict()!r})"


# ---------------------------------------------------------------------------
# Shared raise helpers (cold paths, byte-identical legacy messages)
# ---------------------------------------------------------------------------


def _overflow(machine, new_esp: int) -> None:
    raise StackOverflowError_(
        "stack overflow: ESP would drop "
        f"{machine.stack_base - new_esp} bytes below the stack block",
        needed=machine.stack_top - new_esp,
        available=machine.stack_top - machine.stack_base)


def _oob(address: int, size: int) -> None:
    raise MemoryError_(
        f"memory access at {address:#x} (size {size}) out of range")


def _set_esp(machine, new_esp: int) -> None:
    if new_esp < machine.stack_base:
        _overflow(machine, new_esp)
    machine.esp = new_esp
    if new_esp < machine.min_esp:
        machine.min_esp = new_esp


# ---------------------------------------------------------------------------
# Stage 1: machine-independent decode (cached per program)
# ---------------------------------------------------------------------------


class DecodedFunction:
    __slots__ = ("name", "factories", "body_len")

    def __init__(self, name: str, factories: list, body_len: int) -> None:
        self.name = name
        self.factories = factories
        self.body_len = body_len


class DecodedProgram:
    """Per-instruction closure factories for one ``AsmProgram``."""

    __slots__ = ("functions",)

    def __init__(self, program: asm.AsmProgram) -> None:
        self.functions: dict[str, DecodedFunction] = {}
        for fid, (name, function) in enumerate(program.functions.items()):
            factories = [
                _decode_instr(instr, pc, fid, function)
                for pc, instr in enumerate(function.body)]
            factories.append(_make_fell_off(name))
            self.functions[name] = DecodedFunction(
                name, factories, len(function.body))


_DECODE_CACHE: "WeakKeyDictionary[asm.AsmProgram, DecodedProgram]" = \
    WeakKeyDictionary()


def decode_program(program: asm.AsmProgram) -> DecodedProgram:
    """Decode ``program`` (cached: each program is decoded at most once)."""
    decoded = _DECODE_CACHE.get(program)
    if decoded is None:
        if obs.enabled:
            obs.add("decode.asm.cache.misses")
            with obs.span("decode.asm"):
                decoded = DecodedProgram(program)
        else:
            decoded = DecodedProgram(program)
        _DECODE_CACHE[program] = decoded
    elif obs.enabled:
        obs.add("decode.asm.cache.hits")
    return decoded


def _make_fell_off(name: str):
    """Sentinel op appended after the body (legacy: pc past the end)."""
    def factory(machine, ctx):
        def op(pc):
            raise DynamicError(f"{name}: fell off the end of the code")
        return op
    return factory


def _raising(make_error):
    """A factory whose op defers a decode-detected error to execution time
    (so programs that never reach the bad instruction behave as before)."""
    def factory(machine, ctx):
        def op(pc):
            raise make_error()
        return op
    return factory


def _decode_instr(instr: asm.PInstr, pc: int, fid: int,
                  function: asm.AsmFunction):
    """One instruction -> factory(machine, ctx) -> op(pc) closure."""
    if isinstance(instr, asm.Plabel):
        def factory(machine, ctx):
            def op(pc):
                return pc + 1
            return op
        return factory

    if isinstance(instr, asm.Pmovimm):
        d = IREG_INDEX[instr.dest]
        v = _wrap(instr.value)

        def factory(machine, ctx, d=d, v=v):
            ir = machine.iregs.array

            def op(pc, ir=ir, d=d, v=v):
                ir[d] = v
                return pc + 1
            return op
        return factory

    if isinstance(instr, asm.Pmovfimm):
        d = FREG_INDEX[instr.dest]
        v = instr.value

        def factory(machine, ctx, d=d, v=v):
            fr = machine.fregs.array

            def op(pc, fr=fr, d=d, v=v):
                fr[d] = v
                return pc + 1
            return op
        return factory

    if isinstance(instr, asm.Pmov):
        d, s = IREG_INDEX[instr.dest], IREG_INDEX[instr.src]

        def factory(machine, ctx, d=d, s=s):
            ir = machine.iregs.array

            def op(pc, ir=ir, d=d, s=s):
                ir[d] = ir[s]
                return pc + 1
            return op
        return factory

    if isinstance(instr, asm.Pmovf):
        d, s = FREG_INDEX[instr.dest], FREG_INDEX[instr.src]

        def factory(machine, ctx, d=d, s=s):
            fr = machine.fregs.array

            def op(pc, fr=fr, d=d, s=s):
                fr[d] = fr[s]
                return pc + 1
            return op
        return factory

    if isinstance(instr, asm.Plea):
        return _decode_lea(instr)

    if isinstance(instr, asm.Punop):
        return _decode_unop(instr)

    if isinstance(instr, asm.Pfneg):
        r = FREG_INDEX[instr.reg]

        def factory(machine, ctx, r=r):
            fr = machine.fregs.array

            def op(pc, fr=fr, r=r):
                fr[r] = -fr[r]
                return pc + 1
            return op
        return factory

    if isinstance(instr, asm.Pcvt):
        return _decode_cvt(instr)

    if isinstance(instr, asm.Pbinop):
        return _decode_binop(instr)

    if isinstance(instr, asm.Pbinopf):
        return _decode_binopf(instr)

    if isinstance(instr, asm.Pcmpf):
        return _decode_cmpf(instr)

    if isinstance(instr, asm.Pload):
        return _decode_load(instr)

    if isinstance(instr, asm.Pstore):
        return _decode_store(instr)

    if isinstance(instr, asm.Pespadd):
        return _decode_espadd(instr)

    if isinstance(instr, asm.Pjmp):
        target = function.labels.get(instr.label)
        if target is None:
            label = instr.label
            return _raising(lambda label=label: KeyError(label))

        def factory(machine, ctx, target=target):
            def op(pc, target=target):
                return target
            return op
        return factory

    if isinstance(instr, asm.Pjcc):
        target = function.labels.get(instr.label)
        if target is None:
            label = instr.label
            return _raising(lambda label=label: KeyError(label))
        r = IREG_INDEX[instr.reg]

        def factory(machine, ctx, r=r, target=target):
            ir = machine.iregs.array

            def op(pc, ir=ir, r=r, target=target):
                return target if ir[r] else pc + 1
            return op
        return factory

    if isinstance(instr, asm.Pcall):
        return _decode_call(instr, pc, fid)

    if isinstance(instr, asm.Pret):
        return _decode_ret()

    if isinstance(instr, asm.Pbuiltin):
        return _decode_builtin(instr)

    rep = repr(instr)
    return _raising(
        lambda rep=rep: DynamicError(f"unknown instruction {rep}"))


# -- addressing ---------------------------------------------------------------


def _address_maker(addr: asm.Addr):
    """Returns ``make(machine) -> compute(ir) -> int`` for one address,
    or the string ``"unknown-symbol"``/``"unknown-mode"`` markers."""
    if isinstance(addr, asm.AStack):
        offset = addr.offset

        def make(machine, offset=offset):
            def compute(ir, m=machine, offset=offset):
                return m.esp + offset
            return compute
        return make
    if isinstance(addr, asm.ABase):
        reg, offset = IREG_INDEX[addr.reg], addr.offset

        def make(machine, reg=reg, offset=offset):
            def compute(ir, reg=reg, offset=offset):
                return (ir[reg] + offset) & _MASK
            return compute
        return make
    if isinstance(addr, asm.AGlobal):
        symbol, offset = addr.symbol, addr.offset

        def make(machine, symbol=symbol, offset=offset):
            base = machine.global_addr.get(symbol)
            if base is None:
                def compute(ir, symbol=symbol):
                    raise UndefinedBehaviorError(
                        f"unknown symbol {symbol!r}")
                return compute
            absolute = base + offset

            def compute(ir, absolute=absolute):
                return absolute
            return compute
        return make
    rep = repr(addr)

    def make(machine, rep=rep):
        def compute(ir, rep=rep):
            raise DynamicError(f"unknown addressing mode {rep}")
        return compute
    return make


def _decode_lea(instr: asm.Plea):
    d = IREG_INDEX[instr.dest]
    make_addr = _address_maker(instr.addr)

    def factory(machine, ctx, d=d, make_addr=make_addr):
        ir = machine.iregs.array
        compute = make_addr(machine)

        def op(pc, ir=ir, d=d, compute=compute):
            ir[d] = compute(ir) & _MASK
            return pc + 1
        return op
    return factory


# -- ALU ----------------------------------------------------------------------


_UNOPS: dict[str, Callable[[int], int]] = {
    "neg": ints.neg,
    "notint": ints.not_,
    "notbool": lambda v: 0 if v != 0 else 1,
    "cast8signed": ints.sign_extend8,
    "cast8unsigned": ints.wrap8,
    "cast16signed": ints.sign_extend16,
    "cast16unsigned": ints.wrap16,
}


def _decode_unop(instr: asm.Punop):
    handler = _UNOPS.get(instr.op)
    if handler is None:
        opname = instr.op
        return _raising(
            lambda opname=opname: DynamicError(f"unknown unary op {opname!r}"))
    r = IREG_INDEX[instr.reg]

    def factory(machine, ctx, r=r, handler=handler):
        ir = machine.iregs.array

        def op(pc, ir=ir, r=r, handler=handler):
            ir[r] = handler(ir[r])
            return pc + 1
        return op
    return factory


def _decode_binop(instr: asm.Pbinop):
    from repro.asm.machine import _INT_BINOPS

    opname = instr.op
    handler = _INT_BINOPS.get(opname)
    if handler is None:
        return _raising(
            lambda opname=opname: DynamicError(
                f"unknown integer op {opname!r}"))
    d, s = IREG_INDEX[instr.dest], IREG_INDEX[instr.src]

    # The commonest wrap-only ops are inlined; the rest go through the
    # shared handler table (one call, same semantics as the legacy loop).
    if opname == "add":
        def factory(machine, ctx, d=d, s=s):
            ir = machine.iregs.array

            def op(pc, ir=ir, d=d, s=s):
                ir[d] = (ir[d] + ir[s]) & _MASK
                return pc + 1
            return op
        return factory
    if opname == "sub":
        def factory(machine, ctx, d=d, s=s):
            ir = machine.iregs.array

            def op(pc, ir=ir, d=d, s=s):
                ir[d] = (ir[d] - ir[s]) & _MASK
                return pc + 1
            return op
        return factory
    if opname in ("and", "or", "xor"):
        import operator
        fn = {"and": operator.and_, "or": operator.or_,
              "xor": operator.xor}[opname]

        def factory(machine, ctx, d=d, s=s, fn=fn):
            ir = machine.iregs.array

            def op(pc, ir=ir, d=d, s=s, fn=fn):
                ir[d] = fn(ir[d], ir[s])
                return pc + 1
            return op
        return factory

    def factory(machine, ctx, d=d, s=s, handler=handler):
        ir = machine.iregs.array

        def op(pc, ir=ir, d=d, s=s, handler=handler):
            ir[d] = handler(ir[d], ir[s])
            return pc + 1
        return op
    return factory


def _decode_binopf(instr: asm.Pbinopf):
    d, s = FREG_INDEX[instr.dest], FREG_INDEX[instr.src]
    opname = instr.op
    if opname == "addf":
        def factory(machine, ctx, d=d, s=s):
            fr = machine.fregs.array

            def op(pc, fr=fr, d=d, s=s):
                fr[d] = fr[d] + fr[s]
                return pc + 1
            return op
        return factory
    if opname == "subf":
        def factory(machine, ctx, d=d, s=s):
            fr = machine.fregs.array

            def op(pc, fr=fr, d=d, s=s):
                fr[d] = fr[d] - fr[s]
                return pc + 1
            return op
        return factory
    if opname == "mulf":
        def factory(machine, ctx, d=d, s=s):
            fr = machine.fregs.array

            def op(pc, fr=fr, d=d, s=s):
                fr[d] = fr[d] * fr[s]
                return pc + 1
            return op
        return factory
    if opname == "divf":
        def factory(machine, ctx, d=d, s=s):
            fr = machine.fregs.array

            def op(pc, fr=fr, d=d, s=s):
                a, b = fr[d], fr[s]
                if b == 0.0:
                    if a == 0.0 or a != a:
                        fr[d] = float("nan")
                    else:
                        fr[d] = float("inf") if (a > 0) == (b >= 0) \
                            else float("-inf")
                else:
                    fr[d] = a / b
                return pc + 1
            return op
        return factory
    return _raising(
        lambda opname=opname: DynamicError(f"unknown float op {opname!r}"))


def _decode_cmpf(instr: asm.Pcmpf):
    from repro.asm.machine import _FLOAT_CMP

    opname = instr.op
    handler = _FLOAT_CMP.get(opname)
    if handler is None:
        return _raising(
            lambda opname=opname: DynamicError(
                f"unknown float compare {opname!r}"))
    d = IREG_INDEX[instr.dest]
    a, b = FREG_INDEX[instr.src1], FREG_INDEX[instr.src2]

    def factory(machine, ctx, d=d, a=a, b=b, handler=handler):
        ir = machine.iregs.array
        fr = machine.fregs.array

        def op(pc, ir=ir, fr=fr, d=d, a=a, b=b, handler=handler):
            ir[d] = 1 if handler(fr[a], fr[b]) else 0
            return pc + 1
        return op
    return factory


def _decode_cvt(instr: asm.Pcvt):
    opname = instr.op
    if opname == "intoffloat":
        d, s = IREG_INDEX[instr.dest], FREG_INDEX[instr.src]

        def factory(machine, ctx, d=d, s=s):
            ir = machine.iregs.array
            fr = machine.fregs.array

            def op(pc, ir=ir, fr=fr, d=d, s=s,
                   conv=ints.of_float_signed):
                ir[d] = conv(fr[s])
                return pc + 1
            return op
        return factory
    if opname == "uintofloat":  # pragma: no cover - not emitted
        pass
    if opname == "uintoffloat":
        d, s = IREG_INDEX[instr.dest], FREG_INDEX[instr.src]

        def factory(machine, ctx, d=d, s=s):
            ir = machine.iregs.array
            fr = machine.fregs.array

            def op(pc, ir=ir, fr=fr, d=d, s=s):
                value = fr[s]
                if value != value:
                    raise UndefinedBehaviorError("float-to-uint of NaN")
                truncated = int(value)
                if truncated < 0 or truncated > ints.MAX_UNSIGNED:
                    raise UndefinedBehaviorError(
                        f"float-to-uint out of range: {value!r}")
                ir[d] = truncated
                return pc + 1
            return op
        return factory
    if opname == "floatofint":
        d, s = FREG_INDEX[instr.dest], IREG_INDEX[instr.src]

        def factory(machine, ctx, d=d, s=s):
            ir = machine.iregs.array
            fr = machine.fregs.array

            def op(pc, ir=ir, fr=fr, d=d, s=s,
                   conv=ints.to_float_signed):
                fr[d] = conv(ir[s])
                return pc + 1
            return op
        return factory
    if opname == "floatofuint":
        d, s = FREG_INDEX[instr.dest], IREG_INDEX[instr.src]

        def factory(machine, ctx, d=d, s=s):
            ir = machine.iregs.array
            fr = machine.fregs.array

            def op(pc, ir=ir, fr=fr, d=d, s=s,
                   conv=ints.to_float_unsigned):
                fr[d] = conv(ir[s])
                return pc + 1
            return op
        return factory
    return _raising(
        lambda opname=opname: DynamicError(f"unknown conversion {opname!r}"))


# -- memory -------------------------------------------------------------------


def _decode_load(instr: asm.Pload):
    chunk = instr.chunk
    make_addr = _address_maker(instr.addr)
    size = chunk.size
    alignment = chunk.alignment

    if chunk.is_float:
        d = FREG_INDEX[instr.dest]

        def factory(machine, ctx, d=d, make_addr=make_addr):
            fr = machine.fregs.array
            ir = machine.iregs.array
            mem = machine.memory
            memlen = len(mem)
            compute = make_addr(machine)

            def op(pc, fr=fr, ir=ir, mem=mem, memlen=memlen, d=d,
                   compute=compute, unpack=_F64.unpack_from):
                a = compute(ir)
                if a < GLOBAL_BASE or a + 8 > memlen:
                    _oob(a, 8)
                if a & 3:
                    raise MemoryError_(f"misaligned load at {a:#x}")
                fr[d] = unpack(mem, a)[0]
                return pc + 1
            return op
        return factory

    d = IREG_INDEX[instr.dest]
    if size == 4:
        def factory(machine, ctx, d=d, make_addr=make_addr):
            ir = machine.iregs.array
            mem = machine.memory
            memlen = len(mem)
            compute = make_addr(machine)

            def op(pc, ir=ir, mem=mem, memlen=memlen, d=d,
                   compute=compute, from_bytes=int.from_bytes):
                a = compute(ir)
                if a < GLOBAL_BASE or a + 4 > memlen:
                    _oob(a, 4)
                if a & 3:
                    raise MemoryError_(f"misaligned load at {a:#x}")
                ir[d] = from_bytes(mem[a:a + 4], "little")
                return pc + 1
            return op
        return factory

    # Narrow integer chunks: read the raw bytes, then widen exactly as the
    # chunk decoder would (sign-extension into the unsigned representation).
    decoder = {1: {True: ints.sign_extend8, False: ints.wrap8},
               2: {True: ints.sign_extend16, False: ints.wrap16}}[
        size][chunk.value.endswith("s")]

    def factory(machine, ctx, d=d, make_addr=make_addr, size=size,
                alignment=alignment, decoder=decoder):
        ir = machine.iregs.array
        mem = machine.memory
        memlen = len(mem)
        compute = make_addr(machine)
        align_mask = alignment - 1

        def op(pc, ir=ir, mem=mem, memlen=memlen, d=d, compute=compute,
               size=size, align_mask=align_mask, decoder=decoder,
               from_bytes=int.from_bytes):
            a = compute(ir)
            if a < GLOBAL_BASE or a + size > memlen:
                _oob(a, size)
            if a & align_mask:
                raise MemoryError_(f"misaligned load at {a:#x}")
            ir[d] = decoder(from_bytes(mem[a:a + size], "little"))
            return pc + 1
        return op
    return factory


def _decode_store(instr: asm.Pstore):
    chunk = instr.chunk
    make_addr = _address_maker(instr.addr)
    size = chunk.size

    if chunk.is_float:
        s = FREG_INDEX[instr.src]

        def factory(machine, ctx, s=s, make_addr=make_addr):
            fr = machine.fregs.array
            ir = machine.iregs.array
            mem = machine.memory
            memlen = len(mem)
            compute = make_addr(machine)

            def op(pc, fr=fr, ir=ir, mem=mem, memlen=memlen, s=s,
                   compute=compute, pack=_F64.pack_into):
                a = compute(ir)
                if a < GLOBAL_BASE or a + 8 > memlen:
                    _oob(a, 8)
                if a & 3:
                    raise MemoryError_(f"misaligned store at {a:#x}")
                pack(mem, a, float(fr[s]))
                return pc + 1
            return op
        return factory

    s = IREG_INDEX[instr.src]
    if size == 4:
        def factory(machine, ctx, s=s, make_addr=make_addr):
            ir = machine.iregs.array
            mem = machine.memory
            memlen = len(mem)
            compute = make_addr(machine)

            def op(pc, ir=ir, mem=mem, memlen=memlen, s=s,
                   compute=compute):
                a = compute(ir)
                if a < GLOBAL_BASE or a + 4 > memlen:
                    _oob(a, 4)
                if a & 3:
                    raise MemoryError_(f"misaligned store at {a:#x}")
                mem[a:a + 4] = (ir[s] & _MASK).to_bytes(4, "little")
                return pc + 1
            return op
        return factory

    align_mask = chunk.alignment - 1
    byte_mask = (1 << (8 * size)) - 1

    def factory(machine, ctx, s=s, make_addr=make_addr, size=size,
                align_mask=align_mask, byte_mask=byte_mask):
        ir = machine.iregs.array
        mem = machine.memory
        memlen = len(mem)
        compute = make_addr(machine)

        def op(pc, ir=ir, mem=mem, memlen=memlen, s=s, compute=compute,
               size=size, align_mask=align_mask, byte_mask=byte_mask):
            a = compute(ir)
            if a < GLOBAL_BASE or a + size > memlen:
                _oob(a, size)
            if a & align_mask:
                raise MemoryError_(f"misaligned store at {a:#x}")
            mem[a:a + size] = (ir[s] & byte_mask).to_bytes(size, "little")
            return pc + 1
        return op
    return factory


# -- control ------------------------------------------------------------------


def _decode_espadd(instr: asm.Pespadd):
    delta = instr.delta
    if delta >= 0:
        # Releasing stack can never overflow (ESP is >= base already) and
        # can never lower the watermark.
        def factory(machine, ctx, delta=delta):
            def op(pc, m=machine, delta=delta):
                m.esp += delta
                return pc + 1
            return op
        return factory

    def factory(machine, ctx, delta=delta):
        base = machine.stack_base

        def op(pc, m=machine, delta=delta, base=base):
            esp = m.esp + delta
            if esp < base:
                _overflow(m, esp)
            m.esp = esp
            if esp < m.min_esp:
                m.min_esp = esp
            return pc + 1
        return op
    return factory


def _decode_call(instr: asm.Pcall, pc: int, fid: int):
    symbol = instr.symbol
    return_address = CODE_BASE + fid * FUNCTION_STRIDE + (pc + 1)
    ra_bytes = return_address.to_bytes(4, "little")

    def factory(machine, ctx, symbol=symbol, ra_bytes=ra_bytes):
        func_ops = ctx["func_ops"]
        callee_ops = func_ops.get(symbol)
        if callee_ops is None:
            def op(pc, symbol=symbol):
                raise DynamicError(f"call to unknown symbol {symbol!r} "
                                   "(externals use builtins)")
            return op
        mem = machine.memory
        memlen = len(mem)
        base = machine.stack_base

        def op(pc, m=machine, mem=mem, memlen=memlen, base=base,
               callee_ops=callee_ops, ra_bytes=ra_bytes):
            esp = m.esp - 4
            if esp < base:
                _overflow(m, esp)
            m.esp = esp
            if esp < m.min_esp:
                m.min_esp = esp
            if esp + 4 > memlen:
                _oob(esp, 4)
            if esp & 3:
                raise MemoryError_(f"misaligned store at {esp:#x}")
            mem[esp:esp + 4] = ra_bytes
            m._ops = callee_ops
            m._pc = 0
            return None
        return op
    return factory


def _decode_ret():
    def factory(machine, ctx):
        mem = machine.memory
        memlen = len(mem)
        ir = machine.iregs.array
        ops_by_id = ctx["ops_by_id"]
        names_by_id = ctx["names_by_id"]
        lens_by_id = ctx["lens_by_id"]
        n_functions = len(ops_by_id)

        def op(pc, m=machine, mem=mem, memlen=memlen, ir=ir,
               ops_by_id=ops_by_id, names_by_id=names_by_id,
               lens_by_id=lens_by_id, n_functions=n_functions,
               from_bytes=int.from_bytes):
            esp = m.esp
            if esp < GLOBAL_BASE or esp + 4 > memlen:
                _oob(esp, 4)
            if esp & 3:
                raise MemoryError_(f"misaligned load at {esp:#x}")
            address = from_bytes(mem[esp:esp + 4], "little")
            m.esp = esp + 4
            if address == HALT_ADDRESS:
                m.done = True
                m.return_code = _to_signed(ir[EAX])
                return None
            if address < CODE_BASE:
                raise DynamicError(
                    f"return to non-code address {address:#x}")
            fid, index = divmod(address - CODE_BASE, FUNCTION_STRIDE)
            if fid >= n_functions:
                raise DynamicError(f"return to unknown function id {fid}")
            if index > lens_by_id[fid]:
                raise DynamicError(
                    f"{names_by_id[fid]}: fell off the end of the code")
            m._ops = ops_by_id[fid]
            m._pc = index
            return None
        return op
    return factory


def _decode_builtin(instr: asm.Pbuiltin):
    name = instr.name
    arg_specs = tuple(zip(instr.arg_is_float,
                          [FREG_INDEX[r] if f else IREG_INDEX[r]
                           for r, f in zip(instr.args, instr.arg_is_float)]))
    dest = instr.dest
    dest_is_float = instr.dest_is_float
    dest_index = None
    if dest is not None:
        dest_index = FREG_INDEX[dest] if dest_is_float else IREG_INDEX[dest]

    def factory(machine, ctx, name=name, arg_specs=arg_specs,
                dest_index=dest_index, dest_is_float=dest_is_float,
                has_dest=dest is not None):
        ir = machine.iregs.array
        fr = machine.fregs.array

        def op(pc, m=machine, ir=ir, fr=fr, name=name, arg_specs=arg_specs,
               dest_index=dest_index, dest_is_float=dest_is_float,
               has_dest=has_dest):
            args = [VFloat(fr[i]) if is_float else VInt(ir[i])
                    for is_float, i in arg_specs]
            result, event = call_external(name, args, alloc=m._malloc,
                                          output=m.output)
            if has_dest:
                if dest_is_float:
                    if not isinstance(result, VFloat):
                        raise DynamicError(
                            f"builtin {name} did not return a float")
                    fr[dest_index] = result.value
                else:
                    if not isinstance(result, VInt):
                        raise DynamicError(
                            f"builtin {name} did not return an integer")
                    ir[dest_index] = result.value
            if event is not None:
                m._trace.append(event)
            return pc + 1
        return op
    return factory


# ---------------------------------------------------------------------------
# Stage 2: bind against one machine
# ---------------------------------------------------------------------------


def bind_machine(machine) -> None:
    """Instantiate the (cached) decoded program against ``machine``.

    Stores ``machine._bound = (func_ops, ops_by_id)``: closures over this
    machine's register arrays, memory and stack base.  Call targets are
    resolved through list identity — the per-function op lists are created
    empty first, so mutually recursive calls capture the right list before
    it is filled.
    """
    decoded = decode_program(machine.program)
    program = machine.program
    func_ops: dict[str, list] = {name: [] for name in program.functions}
    ops_by_id = [func_ops[name] for name in program.functions]
    names_by_id = list(program.functions)
    lens_by_id = [decoded.functions[name].body_len
                  for name in program.functions]
    ctx = {"func_ops": func_ops, "ops_by_id": ops_by_id,
           "names_by_id": names_by_id, "lens_by_id": lens_by_id}
    for name, dfn in decoded.functions.items():
        func_ops[name].extend(factory(machine, ctx)
                              for factory in dfn.factories)
    machine._bound = (func_ops, ops_by_id)


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------


def dispatch(m, steps: int, fid: int, pc: int, fuel: int,
             tier_up: float = math.inf):
    """Run decoded ops from instruction ``pc`` of function ``fid``.

    ``steps`` is the count already completed.  The loop stops at halt or
    once ``fuel`` steps are done and returns ``(None, steps)``.  Once
    ``tier_up`` steps are done, it single-steps to the next basic-block
    leader and returns ``(block, steps)`` instead: that block's generated
    function, which continues the run with the same machine state and
    step count.  This return value is the protocol of a generated block,
    which is why generated code deopts by calling this function.  An
    exception records the completed steps (the raising one included) in
    ``m._cg_steps`` before it propagates.
    """
    if m._bound is None:
        bind_machine(m)
    ops_by_id = m._bound[1]
    ops = ops_by_id[fid]
    limit = min(fuel, tier_up)
    blocks = None
    try:
        while True:
            while steps < limit:
                steps += 1
                npc = ops[pc](pc)
                if npc is None:
                    if m.done:
                        return None, steps
                    ops = m._ops
                    pc = m._pc
                else:
                    pc = npc
            if steps >= fuel:
                return None, steps
            if blocks is None:
                from repro.asm import codegen
                blocks = codegen.bind_blocks(m, fuel)
                fid_of = {id(o): i for i, o in enumerate(ops_by_id)}
            block = blocks.get(
                CODE_BASE + fid_of[id(ops)] * FUNCTION_STRIDE + pc)
            if block is not None:
                return block, steps
            limit = steps + 1
    except BaseException:
        m._cg_steps = steps
        raise


def run(machine, fuel: int, tier_up: float = math.inf) -> Behavior:
    """Run a decoded machine to a behavior (legacy-equivalent).

    The run starts on the decoded engine and, once ``tier_up`` steps are
    done, continues in the program's generated code
    (:mod:`repro.asm.codegen`) from the next basic-block leader.
    ``math.inf`` never leaves the decoded engine (``engine="decoded"``);
    ``0`` runs generated code from the first step (``engine="codegen"``)
    and binds the decoded engine only if that code deopts.
    """
    trace: list = []
    machine._trace = trace
    machine._cg_steps = 0
    st = 0
    try:
        machine.start()
        fid = machine.function_ids[machine.program.main]
        try:
            if tier_up:
                block, st = dispatch(machine, 0, fid, 0, fuel, tier_up)
            else:
                from repro.asm import codegen
                block = codegen.bind_blocks(machine, fuel)[
                    CODE_BASE + fid * FUNCTION_STRIDE]
            if block is not None:
                machine.tier_up_at = st
                machine._cg_entered = time.perf_counter()
                while block is not None:
                    block, st = block(st)
        except BaseException:
            st = machine._cg_steps
            raise
        finally:
            machine.steps += st
            if machine.tier_up_at is not None and machine._cg_left is None:
                machine._cg_left = (st, time.perf_counter())
    except DynamicError as exc:
        return GoesWrong(trace, reason=str(exc))
    if not machine.done:
        return Diverges(trace)
    assert machine.return_code is not None
    return Converges(trace, machine.return_code)
