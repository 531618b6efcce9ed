"""Per-program Python codegen for ASMsz — the third execution tier.

Where :mod:`repro.asm.decode` lowers each instruction to one closure and
dispatches ``pc = ops[pc](pc)``, this module goes one step further: each
:class:`~repro.asm.ast.AsmProgram` is compiled *to Python source* — one
function per basic block, trampoline dispatch between blocks (the
closest Python gets to computed goto), registers and ESP in local
variables, immediates / jump targets / global addresses / return
addresses constant-folded into the text, int32 loads, stores, pushes
and pops indexing the machine's word view (``w32[address >> 2]``) —
and the ``compile()``d code object is cached per program in the same
``WeakKeyDictionary`` pattern ``decode_program`` uses.  Fuel is charged
per *block* (one compare per basic block instead of one loop iteration
per instruction), and the hot instruction pairs are fused into
superinstructions:

* ``cmp`` + ``jcc`` — the comparison feeds the branch directly, and the
  flag register is materialized on the taken/untaken edge;
* ``espadd(-N)`` + ``call`` — frame allocation and the return-address
  push share a single overflow check against the final ESP (sound
  because the final ESP is the minimum of the pair), with a cold helper
  reconstructing which of the two instructions overflowed;
* ``load`` + ALU op — the loaded word feeds the ALU without a second
  dispatch.

Observable equivalence is non-negotiable: trace, output, return code,
ESP watermark, overflow point, step counts and byte-identical error
messages all match the decoded and legacy engines (the differential
suite in ``tests/unit/test_asm_codegen.py`` proves it over the catalog
and generated seeds).  Two mechanisms keep the exactness cheap:

* every cold error helper records the precise completed-step count in
  ``machine._cg_steps`` before raising, so the trampoline in
  :func:`repro.asm.decode.run` settles ``machine.steps`` exactly as the
  decoded engine does;
* when a block cannot run to completion on the remaining fuel — or a
  ``ret`` lands at an address that is not a block leader — execution
  *deopts*: the machine binds the decoded engine lazily and runs the
  rest in :func:`repro.asm.decode.dispatch`, so every fuel-boundary and
  wild-return corner case is decided by the oracle engine itself.

The generated module maps every block leader's code address (the
encoding return addresses use) to its block function.  ``ret`` looks its
target up there, and the tiered default run enters generated code
through the same map: it starts on the decoded engine and, once it has
taken enough steps to pay for ``compile()``, single-steps to the next
leader and calls that block with the same machine state and step count
— the reverse of a deopt.

``_MISCOMPILE`` is a deliberate-bug knob used by the codegen-layer fault
operators in ``testing/faults.py``: it makes the generator emit one of
three classic fusion miscompiles so the mutation matrix can prove the
differential oracles would catch a real one.
"""

from __future__ import annotations

import time
from typing import Optional
from weakref import WeakKeyDictionary

from repro import ints, obs
from repro.asm import ast as asm
from repro.asm.decode import (CODE_BASE, EAX, FREG_INDEX, FUNCTION_STRIDE,
                              GLOBAL_BASE, HALT_ADDRESS, IREG_INDEX, _F64,
                              dispatch)
from repro.c.types import align_up
from repro.errors import (DynamicError, MemoryError_, StackOverflowError_,
                          UndefinedBehaviorError)
from repro.memory.values import VFloat, VInt
from repro.runtime import call_external

_MASK = 0xFFFFFFFF

#: Deliberate-miscompile knob for the codegen-layer fault operators.
#: ``None`` (always, outside the mutation matrix) = faithful codegen;
#: the three strings make ``_generate`` emit one classic fusion bug.
#: While set, the cache is bypassed so the bug never leaks into it.
MISCOMPILES = ("swap-branch", "drop-espadjust", "stale-const")
_MISCOMPILE: Optional[str] = None


# ---------------------------------------------------------------------------
# Cold helpers (shared by all generated programs via the ``H`` dict)
# ---------------------------------------------------------------------------


def _h_overflow(m, st: int, new_esp: int):
    m._cg_steps = st
    raise StackOverflowError_(
        "stack overflow: ESP would drop "
        f"{m.stack_base - new_esp} bytes below the stack block",
        needed=m.stack_top - new_esp,
        available=m.stack_top - m.stack_base)


def _h_fused_overflow(m, st_espadd: int, e0: int):
    """Disambiguate a combined espadd+call overflow check.

    The generated fast path checked only the final ESP (``e0 - 4``).  If
    the frame allocation itself overflowed, the caller left ``m.esp`` at
    the pre-espadd value and the overflow point is ``e0``; otherwise the
    espadd committed (ESP and watermark move to ``e0``) and the return
    address push overflowed at ``e0 - 4`` — exactly the decoded engine's
    two raise sites.
    """
    if e0 < m.stack_base:
        _h_overflow(m, st_espadd, e0)
    m.esp = e0
    if e0 < m.min_esp:
        m.min_esp = e0
    _h_overflow(m, st_espadd + 1, e0 - 4)


def _h_mem(m, st: int, address: int, size: int, align_mask: int, kind: str):
    """Range-or-alignment failure for one fused memory guard."""
    m._cg_steps = st
    if address < GLOBAL_BASE or address + size > len(m.memory):
        raise MemoryError_(
            f"memory access at {address:#x} (size {size}) out of range")
    raise MemoryError_(f"misaligned {kind} at {address:#x}")


def _h_dyn(m, st: int, message: str):
    m._cg_steps = st
    raise DynamicError(message)


def _h_key(m, st: int, label):
    # Unknown jump labels escape as a bare KeyError, exactly like the
    # decoded engine's deferred decode error (never caught as a behavior).
    m._cg_steps = st
    raise KeyError(label)


def _h_ub(m, st: int, message: str):
    m._cg_steps = st
    raise UndefinedBehaviorError(message)


def _h_check_int(result, name: str) -> int:
    if not isinstance(result, VInt):
        raise DynamicError(f"builtin {name} did not return an integer")
    return result.value


def _h_check_float(result, name: str) -> float:
    if not isinstance(result, VFloat):
        raise DynamicError(f"builtin {name} did not return a float")
    return result.value


def _h_deopt(m, st: int, fid: int, pc: int, fuel: int):
    """Leave generated code for the decoded engine at ``(fid, pc)``.

    Used for fuel tails (the next block might not fit in the remaining
    fuel) and for ``ret`` targets that are not block leaders.  The
    decoded engine runs the remainder of the program, so every boundary
    case is literally decided by the oracle tier.
    """
    m._cg_left = (st, time.perf_counter())
    return dispatch(m, st, fid, pc, fuel)


def _h_ret_slow(m, st: int, address: int, fuel: int):
    """``ret`` to an address that is not a block leader.

    Replays the decoded engine's dispatch chain (non-code address,
    unknown function id, past-the-end index) with byte-identical
    messages, then deopts into the middle of the target block.
    """
    if address < CODE_BASE:
        _h_dyn(m, st, f"return to non-code address {address:#x}")
    fid, index = divmod(address - CODE_BASE, FUNCTION_STRIDE)
    functions = list(m.program.functions)
    if fid >= len(functions):
        _h_dyn(m, st, f"return to unknown function id {fid}")
    name = functions[fid]
    if index > len(m.program.functions[name].body):
        _h_dyn(m, st, f"{name}: fell off the end of the code")
    return _h_deopt(m, st, fid, index, fuel)


_H = {
    "ovf": _h_overflow,
    "fovf": _h_fused_overflow,
    "mem": _h_mem,
    "dyn": _h_dyn,
    "key": _h_key,
    "ub": _h_ub,
    "deopt": _h_deopt,
    "ret_slow": _h_ret_slow,
    "ext": call_external,
    "vint": VInt,
    "vfloat": VFloat,
    "chk_int": _h_check_int,
    "chk_float": _h_check_float,
    "unpack": _F64.unpack_from,
    "pack": _F64.pack_into,
    "divs": ints.div_s,
    "divu": ints.div_u,
    "mods": ints.mod_s,
    "modu": ints.mod_u,
    "ioffs": ints.of_float_signed,
    "uoffs": ints.of_float_unsigned,
}


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


#: Two-address integer ALU templates ({d}/{s} are local register names).
#: Signed compares use the sign-bit flip so no to_signed call survives
#: into the hot path; division/modulo stay on the checked ints table.
_BINOP_STMT = {
    "add": "{d} = ({d} + {s}) & 4294967295",
    "sub": "{d} = ({d} - {s}) & 4294967295",
    "mul": "{d} = ({d} * {s}) & 4294967295",
    "and": "{d} = {d} & {s}",
    "or": "{d} = {d} | {s}",
    "xor": "{d} = {d} ^ {s}",
    "shl": "{d} = ({d} << ({s} & 31)) & 4294967295",
    "shru": "{d} = {d} >> ({s} & 31)",
    "shrs": ("{d} = (({d} - 4294967296 if {d} >= 2147483648 else {d})"
             " >> ({s} & 31)) & 4294967295"),
}

#: Compare ops as raw boolean expressions (for fused cmp+jcc and for the
#: flag-materializing standalone form).
_CMP_EXPR = {
    "cmp_eq": "{d} == {s}",
    "cmp_ne": "{d} != {s}",
    "cmp_ltu": "{d} < {s}",
    "cmp_leu": "{d} <= {s}",
    "cmp_gtu": "{d} > {s}",
    "cmp_geu": "{d} >= {s}",
    "cmp_lts": "({d} ^ 2147483648) < ({s} ^ 2147483648)",
    "cmp_les": "({d} ^ 2147483648) <= ({s} ^ 2147483648)",
    "cmp_gts": "({d} ^ 2147483648) > ({s} ^ 2147483648)",
    "cmp_ges": "({d} ^ 2147483648) >= ({s} ^ 2147483648)",
}

_FCMP_OP = {"cmpf_eq": "==", "cmpf_ne": "!=", "cmpf_lt": "<",
            "cmpf_le": "<=", "cmpf_gt": ">", "cmpf_ge": ">="}

_CAST_STMTS = {
    "neg": ["{r} = (-{r}) & 4294967295"],
    "notint": ["{r} = (~{r}) & 4294967295"],
    "notbool": ["{r} = 0 if {r} else 1"],
    "cast8signed": ["_t = {r} & 255",
                    "{r} = _t | 4294967040 if _t & 128 else _t"],
    "cast8unsigned": ["{r} = {r} & 255"],
    "cast16signed": ["_t = {r} & 65535",
                     "{r} = _t | 4294901760 if _t & 32768 else _t"],
    "cast16unsigned": ["{r} = {r} & 65535"],
}

#: Binops safe to fuse behind a load (no table call, cannot raise).
_FUSABLE_AFTER_LOAD = set(_BINOP_STMT) | set(_CMP_EXPR)


def _global_layout(program: asm.AsmProgram) -> dict[str, int]:
    """Global addresses, machine-independent (mirrors AsmMachine.__init__)."""
    layout: dict[str, int] = {}
    address = GLOBAL_BASE
    for var in program.globals:
        address = align_up(address, max(var.alignment, 1))
        layout[var.name] = address
        address += var.size
    return layout


class _Writer:
    __slots__ = ("lines",)

    def __init__(self) -> None:
        self.lines: list[str] = []

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _instr_effects(ins: asm.PInstr, glb: dict[str, int]):
    """(int reads, int writes, float reads, float writes, reads esp,
    writes esp) for one instruction — drives the load/spill discipline."""
    ri: set[int] = set()
    wi: set[int] = set()
    rf: set[int] = set()
    wf: set[int] = set()
    resp = False
    wesp = False

    def addr(a: asm.Addr) -> None:
        nonlocal resp
        if isinstance(a, asm.AStack):
            resp = True
        elif isinstance(a, asm.ABase):
            ri.add(IREG_INDEX[a.reg])

    if isinstance(ins, asm.Pmovimm):
        wi.add(IREG_INDEX[ins.dest])
    elif isinstance(ins, asm.Pmovfimm):
        wf.add(FREG_INDEX[ins.dest])
    elif isinstance(ins, asm.Pmov):
        ri.add(IREG_INDEX[ins.src])
        wi.add(IREG_INDEX[ins.dest])
    elif isinstance(ins, asm.Pmovf):
        rf.add(FREG_INDEX[ins.src])
        wf.add(FREG_INDEX[ins.dest])
    elif isinstance(ins, asm.Plea):
        addr(ins.addr)
        wi.add(IREG_INDEX[ins.dest])
    elif isinstance(ins, asm.Punop):
        ri.add(IREG_INDEX[ins.reg])
        wi.add(IREG_INDEX[ins.reg])
    elif isinstance(ins, asm.Pfneg):
        rf.add(FREG_INDEX[ins.reg])
        wf.add(FREG_INDEX[ins.reg])
    elif isinstance(ins, asm.Pcvt):
        if ins.op in ("intoffloat", "uintoffloat"):
            rf.add(FREG_INDEX[ins.src])
            wi.add(IREG_INDEX[ins.dest])
        elif ins.op in ("floatofint", "floatofuint"):
            ri.add(IREG_INDEX[ins.src])
            wf.add(FREG_INDEX[ins.dest])
    elif isinstance(ins, asm.Pbinop):
        ri.add(IREG_INDEX[ins.dest])
        ri.add(IREG_INDEX[ins.src])
        wi.add(IREG_INDEX[ins.dest])
    elif isinstance(ins, asm.Pbinopf):
        rf.add(FREG_INDEX[ins.dest])
        rf.add(FREG_INDEX[ins.src])
        wf.add(FREG_INDEX[ins.dest])
    elif isinstance(ins, asm.Pcmpf):
        rf.add(FREG_INDEX[ins.src1])
        rf.add(FREG_INDEX[ins.src2])
        wi.add(IREG_INDEX[ins.dest])
    elif isinstance(ins, asm.Pload):
        addr(ins.addr)
        if ins.chunk.is_float:
            wf.add(FREG_INDEX[ins.dest])
        else:
            wi.add(IREG_INDEX[ins.dest])
    elif isinstance(ins, asm.Pstore):
        addr(ins.addr)
        if ins.chunk.is_float:
            rf.add(FREG_INDEX[ins.src])
        else:
            ri.add(IREG_INDEX[ins.src])
    elif isinstance(ins, asm.Pespadd):
        resp = True
        wesp = True
    elif isinstance(ins, asm.Pjcc):
        ri.add(IREG_INDEX[ins.reg])
    elif isinstance(ins, asm.Pcall):
        resp = True
        wesp = True
    elif isinstance(ins, asm.Pret):
        resp = True
        wesp = True
    elif isinstance(ins, asm.Pbuiltin):
        for reg, is_float in zip(ins.args, ins.arg_is_float):
            (rf if is_float else ri).add(
                FREG_INDEX[reg] if is_float else IREG_INDEX[reg])
        if ins.dest is not None:
            if ins.dest_is_float:
                wf.add(FREG_INDEX[ins.dest])
            else:
                wi.add(IREG_INDEX[ins.dest])
    return ri, wi, rf, wf, resp, wesp


def _addr_expr(a: asm.Addr, glb: dict[str, int]):
    """(expression, deferred-error-stmt-or-None) for one address."""
    if isinstance(a, asm.AStack):
        return f"esp + {a.offset}", None
    if isinstance(a, asm.ABase):
        reg = IREG_INDEX[a.reg]
        return f"(r{reg} + {a.offset}) & 4294967295", None
    if isinstance(a, asm.AGlobal):
        base = glb.get(a.symbol)
        if base is None:
            msg = f"unknown symbol {a.symbol!r}"
            return None, ("ub", msg)
        return repr(base + a.offset), None
    return None, ("dyn", f"unknown addressing mode {a!r}")


def _float_literal(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        return f'float("{value!r}")'
    return repr(value)


class _BlockEmitter:
    """Emits one basic block ``[start, end)`` of one function."""

    def __init__(self, w: _Writer, fid: int, fn: asm.AsmFunction,
                 start: int, end: int, glb: dict[str, int],
                 fids: dict[str, int], body_len: int,
                 miscompile: Optional[str]) -> None:
        self.w = w
        self.fid = fid
        self.fn = fn
        self.start = start
        self.end = end
        self.glb = glb
        self.fids = fids
        self.body_len = body_len
        self.miscompile = miscompile
        self.instrs = fn.body[start:end]
        self.K = end - start
        # Effect analysis: which registers live in locals, which need
        # loading on entry (read before first write) and spilling on exit.
        ri_first: set[int] = set()
        rf_first: set[int] = set()
        wi: set[int] = set()
        wf: set[int] = set()
        resp = wesp = False
        for ins in self.instrs:
            ri, iwi, rf, iwf, iresp, iwesp = _instr_effects(ins, glb)
            ri_first |= (ri - wi)
            rf_first |= (rf - wf)
            wi |= iwi
            wf |= iwf
            resp |= iresp
            wesp |= iwesp
        self.ri_first, self.rf_first = ri_first, rf_first
        self.wi, self.wf = wi, wf
        self.uses_esp = resp or wesp
        self.wesp = wesp

    # -- helpers ------------------------------------------------------------

    def _spill_lines(self) -> list[str]:
        lines = [f"ir[{i}] = r{i}" for i in sorted(self.wi)]
        lines += [f"fr[{i}] = f{i}" for i in sorted(self.wf)]
        if self.wesp:
            lines.append("m.esp = esp")
        return lines

    def _raise_stmt(self, ind: int, call: str) -> None:
        # Cold path: commit ESP (registers are never observable through a
        # behavior, but the watermark and deopt need ESP exact) and call a
        # helper that records the step count and raises.
        if self.wesp:
            self.w.line(ind, "m.esp = esp")
        self.w.line(ind, call)

    def _step(self, j: int) -> str:
        """Completed-step expression when the instruction at block offset
        ``j`` raises (the raising instruction counts, as in run_decoded)."""
        return f"st + {j + 1}"

    def _deopt(self, target_pc: int) -> str:
        return f"return deopt(m, st, {self.fid}, {target_pc}, fuel)"

    # -- per-instruction statement emission ---------------------------------

    def _emit_mem_guard(self, ind: int, addr_var: str, size: int,
                        align_mask: int, kind: str, j: int) -> None:
        terms = [f"{addr_var} < 4096", f"{addr_var} + {size} > memlen"]
        if align_mask:
            terms.append(f"{addr_var} & {align_mask}")
        self.w.line(ind, f"if {' or '.join(terms)}:")
        self._raise_stmt(
            ind + 1,
            f"memerr(m, {self._step(j)}, {addr_var}, {size}, "
            f"{align_mask}, {kind!r})")

    def _emit_load(self, ind: int, ins: asm.Pload, j: int) -> None:
        expr, err = _addr_expr(ins.addr, self.glb)
        if err is not None:
            self._raise_stmt(ind, f"{err[0]}(m, {self._step(j)}, {err[1]!r})")
            return
        chunk = ins.chunk
        self.w.line(ind, f"_a = {expr}")
        if chunk.is_float:
            self._emit_mem_guard(ind, "_a", 8, 3, "load", j)
            self.w.line(ind, f"f{FREG_INDEX[ins.dest]} = unpack(mem, _a)[0]")
            return
        d = IREG_INDEX[ins.dest]
        size = chunk.size
        if size == 4:
            self._emit_mem_guard(ind, "_a", 4, 3, "load", j)
            self.w.line(ind, f"r{d} = w32[_a >> 2]")
            return
        signed = chunk.value.endswith("s")
        self._emit_mem_guard(ind, "_a", size, chunk.alignment - 1, "load", j)
        if size == 1:
            self.w.line(ind, "_t = mem[_a]")
            if signed:
                self.w.line(ind, f"r{d} = _t | 4294967040 if _t & 128 else _t")
            else:
                self.w.line(ind, f"r{d} = _t")
        else:
            self.w.line(ind, '_t = fb(mem[_a:_a + 2], "little")')
            if signed:
                self.w.line(
                    ind, f"r{d} = _t | 4294901760 if _t & 32768 else _t")
            else:
                self.w.line(ind, f"r{d} = _t")

    def _emit_store(self, ind: int, ins: asm.Pstore, j: int) -> None:
        expr, err = _addr_expr(ins.addr, self.glb)
        if err is not None:
            self._raise_stmt(ind, f"{err[0]}(m, {self._step(j)}, {err[1]!r})")
            return
        chunk = ins.chunk
        self.w.line(ind, f"_a = {expr}")
        if chunk.is_float:
            self._emit_mem_guard(ind, "_a", 8, 3, "store", j)
            self.w.line(
                ind, f"pack(mem, _a, float(f{FREG_INDEX[ins.src]}))")
            return
        s = IREG_INDEX[ins.src]
        size = chunk.size
        if size == 4:
            self._emit_mem_guard(ind, "_a", 4, 3, "store", j)
            self.w.line(ind, f"w32[_a >> 2] = r{s} & 4294967295")
            return
        self._emit_mem_guard(ind, "_a", size, chunk.alignment - 1, "store", j)
        if size == 1:
            self.w.line(ind, f"mem[_a] = r{s} & 255")
            return
        byte_mask = (1 << (8 * size)) - 1
        self.w.line(
            ind,
            f"mem[_a:_a + {size}] = "
            f'(r{s} & {byte_mask}).to_bytes({size}, "little")')

    def _emit_espadd(self, ind: int, ins: asm.Pespadd, j: int) -> None:
        delta = ins.delta
        if delta >= 0:
            self.w.line(ind, f"esp = esp + {delta}")
            return
        self.w.line(ind, f"_e = esp - {-delta}")
        self.w.line(ind, "if _e < base:")
        self._raise_stmt(ind + 1, f"ovf(m, {self._step(j)}, _e)")
        self.w.line(ind, "esp = _e")
        self.w.line(ind, "if esp < m.min_esp:")
        self.w.line(ind + 1, "m.min_esp = esp")

    def _emit_builtin(self, ind: int, ins: asm.Pbuiltin, j: int) -> None:
        args = []
        for reg, is_float in zip(ins.args, ins.arg_is_float):
            if is_float:
                args.append(f"VF(f{FREG_INDEX[reg]})")
            else:
                args.append(f"VI(r{IREG_INDEX[reg]})")
        self.w.line(ind, f"m._cg_steps = {self._step(j)}")
        self.w.line(
            ind,
            f"_res, _ev = ext({ins.name!r}, [{', '.join(args)}], "
            "alloc=malloc, output=m.output)")
        if ins.dest is not None:
            if ins.dest_is_float:
                self.w.line(
                    ind,
                    f"f{FREG_INDEX[ins.dest]} = ckf(_res, {ins.name!r})")
            else:
                self.w.line(
                    ind,
                    f"r{IREG_INDEX[ins.dest]} = cki(_res, {ins.name!r})")
        self.w.line(ind, "if _ev is not None:")
        self.w.line(ind + 1, "tr.append(_ev)")

    def _emit_straight(self, ind: int, ins: asm.PInstr, j: int) -> None:
        """One non-control instruction at block offset ``j``."""
        w, step = self.w, self._step(j)
        if isinstance(ins, asm.Plabel):
            return
        if isinstance(ins, asm.Pmovimm):
            w.line(ind, f"r{IREG_INDEX[ins.dest]} = {ints.wrap(ins.value)}")
            return
        if isinstance(ins, asm.Pmovfimm):
            w.line(ind,
                   f"f{FREG_INDEX[ins.dest]} = {_float_literal(ins.value)}")
            return
        if isinstance(ins, asm.Pmov):
            w.line(ind,
                   f"r{IREG_INDEX[ins.dest]} = r{IREG_INDEX[ins.src]}")
            return
        if isinstance(ins, asm.Pmovf):
            w.line(ind,
                   f"f{FREG_INDEX[ins.dest]} = f{FREG_INDEX[ins.src]}")
            return
        if isinstance(ins, asm.Plea):
            expr, err = _addr_expr(ins.addr, self.glb)
            if err is not None:
                self._raise_stmt(ind, f"{err[0]}(m, {step}, {err[1]!r})")
                return
            w.line(ind,
                   f"r{IREG_INDEX[ins.dest]} = ({expr}) & 4294967295")
            return
        if isinstance(ins, asm.Punop):
            stmts = _CAST_STMTS.get(ins.op)
            if stmts is None:
                self._raise_stmt(
                    ind,
                    f"dyn(m, {step}, {f'unknown unary op {ins.op!r}'!r})")
                return
            r = f"r{IREG_INDEX[ins.reg]}"
            for stmt in stmts:
                w.line(ind, stmt.format(r=r))
            return
        if isinstance(ins, asm.Pfneg):
            r = FREG_INDEX[ins.reg]
            w.line(ind, f"f{r} = -f{r}")
            return
        if isinstance(ins, asm.Pcvt):
            self._emit_cvt(ind, ins, j)
            return
        if isinstance(ins, asm.Pbinop):
            self._emit_binop(ind, ins, j, src_expr=None)
            return
        if isinstance(ins, asm.Pbinopf):
            self._emit_binopf(ind, ins, j)
            return
        if isinstance(ins, asm.Pcmpf):
            op = _FCMP_OP.get(ins.op)
            if op is None:
                self._raise_stmt(
                    ind, f"dyn(m, {step}, "
                    f"{f'unknown float compare {ins.op!r}'!r})")
                return
            d = IREG_INDEX[ins.dest]
            a, b = FREG_INDEX[ins.src1], FREG_INDEX[ins.src2]
            w.line(ind, f"r{d} = 1 if f{a} {op} f{b} else 0")
            return
        if isinstance(ins, asm.Pload):
            self._emit_load(ind, ins, j)
            return
        if isinstance(ins, asm.Pstore):
            self._emit_store(ind, ins, j)
            return
        if isinstance(ins, asm.Pespadd):
            self._emit_espadd(ind, ins, j)
            return
        if isinstance(ins, asm.Pbuiltin):
            self._emit_builtin(ind, ins, j)
            return
        self._raise_stmt(
            ind, f"dyn(m, {step}, {f'unknown instruction {ins!r}'!r})")

    def _emit_cvt(self, ind: int, ins: asm.Pcvt, j: int) -> None:
        w, step = self.w, self._step(j)
        if ins.op == "intoffloat":
            w.line(ind, f"m._cg_steps = {step}")
            w.line(ind, f"r{IREG_INDEX[ins.dest]} = "
                        f"ioffs(f{FREG_INDEX[ins.src]})")
            return
        if ins.op == "uintoffloat":
            w.line(ind, f"m._cg_steps = {step}")
            w.line(ind, f"r{IREG_INDEX[ins.dest]} = "
                        f"uoffs(f{FREG_INDEX[ins.src]})")
            return
        if ins.op == "floatofint":
            s = IREG_INDEX[ins.src]
            w.line(ind, f"f{FREG_INDEX[ins.dest]} = float("
                        f"r{s} - 4294967296 if r{s} > 2147483647 else r{s})")
            return
        if ins.op == "floatofuint":
            w.line(ind,
                   f"f{FREG_INDEX[ins.dest]} = float(r{IREG_INDEX[ins.src]})")
            return
        self._raise_stmt(
            ind, f"dyn(m, {step}, {f'unknown conversion {ins.op!r}'!r})")

    def _emit_binop(self, ind: int, ins: asm.Pbinop, j: int,
                    src_expr: Optional[str]) -> None:
        """Integer ALU op; ``src_expr`` overrides the source operand (used
        by the fused load+op superinstruction)."""
        w = self.w
        d = f"r{IREG_INDEX[ins.dest]}"
        s = src_expr if src_expr is not None else f"r{IREG_INDEX[ins.src]}"
        stmt = _BINOP_STMT.get(ins.op)
        if stmt is not None:
            w.line(ind, stmt.format(d=d, s=s))
            return
        cond = _CMP_EXPR.get(ins.op)
        if cond is not None:
            w.line(ind, f"{d} = 1 if {cond.format(d=d, s=s)} else 0")
            return
        if ins.op in ("divs", "divu", "mods", "modu"):
            w.line(ind, f"m._cg_steps = {self._step(j)}")
            w.line(ind, f"{d} = {ins.op}({d}, {s})")
            return
        self._raise_stmt(
            ind, f"dyn(m, {self._step(j)}, "
            f"{f'unknown integer op {ins.op!r}'!r})")

    def _emit_binopf(self, ind: int, ins: asm.Pbinopf, j: int) -> None:
        w = self.w
        d, s = FREG_INDEX[ins.dest], FREG_INDEX[ins.src]
        if ins.op == "addf":
            w.line(ind, f"f{d} = f{d} + f{s}")
        elif ins.op == "subf":
            w.line(ind, f"f{d} = f{d} - f{s}")
        elif ins.op == "mulf":
            w.line(ind, f"f{d} = f{d} * f{s}")
        elif ins.op == "divf":
            w.line(ind, f"_x = f{d}")
            w.line(ind, f"_y = f{s}")
            w.line(ind, "if _y == 0.0:")
            w.line(ind + 1, "if _x == 0.0 or _x != _x:")
            w.line(ind + 2, f"f{d} = _NAN")
            w.line(ind + 1, "else:")
            w.line(ind + 2, f"f{d} = _INF if (_x > 0) == (_y >= 0) else _NINF")
            w.line(ind, "else:")
            w.line(ind + 1, f"f{d} = _x / _y")
        else:
            self._raise_stmt(
                ind, f"dyn(m, {self._step(j)}, "
                f"{f'unknown float op {ins.op!r}'!r})")

    def _emit_fused_load_op(self, ind: int, load: asm.Pload,
                            binop: asm.Pbinop, j: int) -> None:
        """Superinstruction: aligned word load feeding an ALU op."""
        expr, _err = _addr_expr(load.addr, self.glb)
        d = IREG_INDEX[load.dest]
        self.w.line(ind, f"_a = {expr}")
        self._emit_mem_guard(ind, "_a", 4, 3, "load", j)
        self.w.line(ind, f"r{d} = w32[_a >> 2]")
        if self.miscompile == "stale-const":
            # Classic fusion bug: the folded operand goes stale — the ALU
            # consumes a constant instead of the freshly loaded word.
            self._emit_binop(ind, binop, j + 1, src_expr="0")
        else:
            self._emit_binop(ind, binop, j + 1, src_expr=f"r{d}")

    # -- terminators --------------------------------------------------------

    def _emit_call(self, ind: int, ins: asm.Pcall, j: int,
                   fused_espadd: Optional[asm.Pespadd]) -> None:
        fid_target = self.fids.get(ins.symbol)
        pc = self.start + j
        if fid_target is None:
            msg = (f"call to unknown symbol {ins.symbol!r} "
                   "(externals use builtins)")
            self._raise_stmt(ind, f"dyn(m, {self._step(j)}, {msg!r})")
            return
        ra = CODE_BASE + self.fid * FUNCTION_STRIDE + (pc + 1)
        w = self.w
        if fused_espadd is not None:
            drop = -fused_espadd.delta
            if self.miscompile == "drop-espadjust":
                # Classic fusion bug: the frame allocation folded into the
                # push disappears — the callee runs in the caller's frame.
                w.line(ind, "_e0 = esp")
            else:
                w.line(ind, f"_e0 = esp - {drop}")
            w.line(ind, "_e = _e0 - 4")
            w.line(ind, "if _e < base:")
            w.line(ind + 1, "m.esp = esp")
            w.line(ind + 1, f"fovf(m, {self._step(j - 1)}, _e0)")
        else:
            w.line(ind, "_e = esp - 4")
            w.line(ind, "if _e < base:")
            w.line(ind + 1, "m.esp = esp")
            w.line(ind + 1, f"ovf(m, {self._step(j)}, _e)")
        w.line(ind, "esp = _e")
        w.line(ind, "if esp < m.min_esp:")
        w.line(ind + 1, "m.min_esp = esp")
        w.line(ind, "if esp + 4 > memlen or esp & 3:")
        w.line(ind + 1, "m.esp = esp")
        w.line(ind + 1,
               f"memerr(m, {self._step(j)}, esp, 4, 3, 'store')")
        w.line(ind, f"w32[esp >> 2] = {ra}")
        for stmt in self._spill_lines():
            w.line(ind, stmt)
        if not self.wesp:  # unreachable (calls write esp) — safety net
            w.line(ind, "m.esp = esp")
        w.line(ind, f"return B{fid_target}_0, st + {self.K}")

    def _emit_ret(self, ind: int, j: int) -> None:
        w = self.w
        w.line(ind, "if esp < 4096 or esp + 4 > memlen or esp & 3:")
        self._raise_stmt(
            ind + 1, f"memerr(m, {self._step(j)}, esp, 4, 3, 'load')")
        w.line(ind, "_ra = w32[esp >> 2]")
        w.line(ind, "esp = esp + 4")
        for stmt in self._spill_lines():
            w.line(ind, stmt)
        w.line(ind, f"if _ra == {HALT_ADDRESS}:")
        w.line(ind + 1, "m.done = True")
        w.line(ind + 1, f"_v = ir[{EAX}]")
        w.line(ind + 1,
               "m.return_code = _v - 4294967296 if _v > 2147483647 else _v")
        w.line(ind + 1, f"return None, st + {self.K}")
        w.line(ind, "_t = BLOCKS.get(_ra)")
        w.line(ind, "if _t is None:")
        w.line(ind + 1, f"return retslow(m, st + {self.K}, _ra, fuel)")
        w.line(ind, f"return _t, st + {self.K}")

    # -- whole-block emission ------------------------------------------------

    def emit(self) -> None:
        w = self.w
        fid, start, end, K = self.fid, self.start, self.end, self.K
        instrs = self.instrs
        last = instrs[-1]

        # Terminal-fusion analysis.
        fused_cmp = None            # Pbinop/Pcmpf feeding a fused jcc
        fused_espadd = None         # Pespadd folded into a call
        jcc_target = None
        self_loop = False
        if isinstance(last, asm.Pjcc):
            jcc_target = self.fn.labels.get(last.label)
            if jcc_target is not None:
                self_loop = jcc_target == start
                if len(instrs) >= 2:
                    prev = instrs[-2]
                    if isinstance(prev, asm.Pbinop) \
                            and prev.op in _CMP_EXPR \
                            and IREG_INDEX[prev.dest] == IREG_INDEX[last.reg]:
                        fused_cmp = prev
                    elif isinstance(prev, asm.Pcmpf) \
                            and _FCMP_OP.get(prev.op) is not None \
                            and IREG_INDEX[prev.dest] == IREG_INDEX[last.reg]:
                        fused_cmp = prev
        elif isinstance(last, asm.Pjmp):
            target = self.fn.labels.get(last.label)
            self_loop = target == start
        elif isinstance(last, asm.Pcall) and len(instrs) >= 2 \
                and self.fids.get(last.symbol) is not None:
            prev = instrs[-2]
            if isinstance(prev, asm.Pespadd) and prev.delta < 0:
                fused_espadd = prev

        # Straight-line body: everything before the terminator, minus any
        # instruction consumed by a terminal fusion; plus load+op pairs.
        n_straight = len(instrs) - 1
        if isinstance(last, (asm.Pjmp, asm.Pjcc, asm.Pcall, asm.Pret)):
            if fused_cmp is not None or fused_espadd is not None:
                n_straight -= 1
        else:
            n_straight = len(instrs)  # fallthrough block

        w.line(1, f"def B{fid}_{start}(st):")
        w.line(2, f"if st + {K} > fuel:")
        w.line(3, self._deopt(start))
        for i in sorted(self.ri_first):
            w.line(2, f"r{i} = ir[{i}]")
        for i in sorted(self.rf_first):
            w.line(2, f"f{i} = fr[{i}]")
        if self.uses_esp:
            w.line(2, "esp = m.esp")

        body_ind = 3 if self_loop else 2
        if self_loop:
            w.line(2, "while True:")

        j = 0
        while j < n_straight:
            ins = instrs[j]
            nxt = instrs[j + 1] if j + 1 < n_straight else None
            if isinstance(ins, asm.Pload) and not ins.chunk.is_float \
                    and ins.chunk.size == 4 \
                    and _addr_expr(ins.addr, self.glb)[1] is None \
                    and isinstance(nxt, asm.Pbinop) \
                    and nxt.op in _FUSABLE_AFTER_LOAD \
                    and IREG_INDEX[nxt.src] == IREG_INDEX[ins.dest]:
                self._emit_fused_load_op(body_ind, ins, nxt, j)
                j += 2
                continue
            self._emit_straight(body_ind, ins, j)
            j += 1

        spills = self._spill_lines()

        if self_loop:
            w.line(3, f"st += {K}")
            if isinstance(last, asm.Pjmp):
                w.line(3, f"if st + {K} > fuel:")
                for stmt in spills:
                    w.line(4, stmt)
                w.line(4, self._deopt(start))
                return  # while True re-enters; no fallthrough exists
            # Conditional self-loop.
            if fused_cmp is not None:
                cond = self._fused_cond(fused_cmp)
                flag = IREG_INDEX[fused_cmp.dest]
                if self.miscompile == "swap-branch":
                    cond = f"not ({cond})"
                w.line(3, f"if {cond}:")
                w.line(4, f"r{flag} = 1")
                w.line(4, f"if st + {K} > fuel:")
                for stmt in spills:
                    w.line(5, stmt)
                w.line(5, self._deopt(start))
                w.line(4, "continue")
                w.line(3, f"r{flag} = 0")
                w.line(3, "break")
            else:
                w.line(3, f"if r{IREG_INDEX[last.reg]}:")
                w.line(4, f"if st + {K} > fuel:")
                for stmt in spills:
                    w.line(5, stmt)
                w.line(5, self._deopt(start))
                w.line(4, "continue")
                w.line(3, "break")
            for stmt in spills:
                w.line(2, stmt)
            w.line(2, f"return B{fid}_{end}, st")
            return

        # Non-loop terminators.
        if isinstance(last, asm.Pret):
            self._emit_ret(2, len(instrs) - 1)
            return
        if isinstance(last, asm.Pcall):
            self._emit_call(2, last, len(instrs) - 1, fused_espadd)
            return
        if isinstance(last, asm.Pjmp):
            target = self.fn.labels.get(last.label)
            if target is None:
                self._raise_stmt(
                    2, f"key(m, st + {K}, {last.label!r})")
                return
            for stmt in spills:
                w.line(2, stmt)
            w.line(2, f"return B{fid}_{target}, st + {K}")
            return
        if isinstance(last, asm.Pjcc):
            if jcc_target is None:
                self._raise_stmt(
                    2, f"key(m, st + {K}, {last.label!r})")
                return
            taken = f"B{fid}_{jcc_target}"
            fall = f"B{fid}_{end}"
            if fused_cmp is not None:
                cond = self._fused_cond(fused_cmp)
                flag = IREG_INDEX[fused_cmp.dest]
                if self.miscompile == "swap-branch":
                    # Classic fusion bug: the branch polarity flips when
                    # the compare is folded into the jump.
                    cond = f"not ({cond})"
                w.line(2, f"if {cond}:")
                w.line(3, f"r{flag} = 1")
                for stmt in spills:
                    w.line(3, stmt)
                w.line(3, f"return {taken}, st + {K}")
                w.line(2, f"r{flag} = 0")
                for stmt in spills:
                    w.line(2, stmt)
                w.line(2, f"return {fall}, st + {K}")
                return
            for stmt in spills:
                w.line(2, stmt)
            w.line(2, f"if r{IREG_INDEX[last.reg]}:")
            w.line(3, f"return {taken}, st + {K}")
            w.line(2, f"return {fall}, st + {K}")
            return
        # Fallthrough into the next leader.
        for stmt in spills:
            w.line(2, stmt)
        w.line(2, f"return B{fid}_{end}, st + {K}")

    def _fused_cond(self, cmp) -> str:
        if isinstance(cmp, asm.Pcmpf):
            a, b = FREG_INDEX[cmp.src1], FREG_INDEX[cmp.src2]
            return f"f{a} {_FCMP_OP[cmp.op]} f{b}"
        d = f"r{IREG_INDEX[cmp.dest]}"
        s = f"r{IREG_INDEX[cmp.src]}"
        return _CMP_EXPR[cmp.op].format(d=d, s=s)


def _generate(program: asm.AsmProgram,
              miscompile: Optional[str] = None) -> str:
    """The per-program Python source: ``bind(m, fuel, H) -> BLOCKS``, the
    block functions by the code address of their leader."""
    glb = _global_layout(program)
    names = list(program.functions)
    fids = {name: i for i, name in enumerate(names)}
    w = _Writer()
    w.line(0, "def bind(m, fuel, H):")
    w.line(1, "ir = m.iregs.array")
    w.line(1, "fr = m.fregs.array")
    w.line(1, "mem = m.memory")
    w.line(1, "w32 = m.words")
    w.line(1, "memlen = len(mem)")
    w.line(1, "base = m.stack_base")
    w.line(1, "tr = m._trace")
    w.line(1, "malloc = m._malloc")
    w.line(1, "fb = int.from_bytes")
    w.line(1, 'ovf = H["ovf"]; fovf = H["fovf"]; memerr = H["mem"]')
    w.line(1, 'dyn = H["dyn"]; key = H["key"]; ub = H["ub"]')
    w.line(1, 'deopt = H["deopt"]; retslow = H["ret_slow"]')
    w.line(1, 'ext = H["ext"]; VI = H["vint"]; VF = H["vfloat"]')
    w.line(1, 'cki = H["chk_int"]; ckf = H["chk_float"]')
    w.line(1, 'unpack = H["unpack"]; pack = H["pack"]')
    w.line(1, 'divs = H["divs"]; divu = H["divu"]')
    w.line(1, 'mods = H["mods"]; modu = H["modu"]')
    w.line(1, 'ioffs = H["ioffs"]; uoffs = H["uoffs"]')
    w.line(1, '_NAN = float("nan"); _INF = float("inf")')
    w.line(1, '_NINF = float("-inf")')

    blocks: list[tuple[int, str]] = []
    for fid, name in enumerate(names):
        fn = program.functions[name]
        body = fn.body
        n = len(body)
        leaders = {0, n}
        leaders.update(fn.labels.values())
        for pc, ins in enumerate(body):
            if isinstance(ins, (asm.Pjmp, asm.Pjcc, asm.Pcall, asm.Pret)):
                leaders.add(pc + 1)
        order = sorted(leaders)
        for i, start in enumerate(order):
            if start == n:
                break
            _BlockEmitter(w, fid, fn, start, order[i + 1], glb, fids, n,
                          miscompile).emit()
        # Past-the-end sentinel (one step, then the legacy fell-off error).
        w.line(1, f"def B{fid}_{n}(st):")
        w.line(2, "if st + 1 > fuel:")
        w.line(3, f"return deopt(m, st, {fid}, {n}, fuel)")
        msg = f"{name}: fell off the end of the code"
        w.line(2, f"return dyn(m, st + 1, {msg!r})")
        blocks += [(CODE_BASE + fid * FUNCTION_STRIDE + start,
                    f"B{fid}_{start}") for start in order]

    w.line(1, "BLOCKS = {")
    for address, block in blocks:
        w.line(2, f"{address}: {block},")
    w.line(1, "}")
    w.line(1, "return BLOCKS")
    return w.source()


# ---------------------------------------------------------------------------
# Compile cache + the trampoline
# ---------------------------------------------------------------------------


class CompiledAsm:
    """One program's generated source and its exec'd ``bind`` callable."""

    __slots__ = ("source", "bind")

    def __init__(self, source: str, bind) -> None:
        self.source = source
        self.bind = bind


_CODEGEN_CACHE: "WeakKeyDictionary[asm.AsmProgram, CompiledAsm]" = \
    WeakKeyDictionary()


def _compile(program: asm.AsmProgram,
             miscompile: Optional[str]) -> CompiledAsm:
    source = _generate(program, miscompile)
    namespace: dict = {}
    exec(compile(source, "<codegen:asm>", "exec"), namespace)
    return CompiledAsm(source, namespace["bind"])


def codegen_program(program: asm.AsmProgram) -> CompiledAsm:
    """Generate + compile ``program`` (cached: once per program object)."""
    if _MISCOMPILE is not None:
        # Fault-injection mode: never serve or populate the cache.
        return _compile(program, _MISCOMPILE)
    compiled = _CODEGEN_CACHE.get(program)
    if compiled is not None:
        if obs.enabled:
            obs.add("codegen.asm.cache.hits")
        return compiled
    if obs.enabled:
        obs.add("codegen.asm.cache.misses")
        started = time.perf_counter()
        with obs.span("codegen.asm"):
            compiled = _compile(program, None)
        obs.observe("codegen.compile_seconds",
                    time.perf_counter() - started)
    else:
        compiled = _compile(program, None)
    _CODEGEN_CACHE[program] = compiled
    return compiled


def codegen_source(program: asm.AsmProgram) -> str:
    """The generated Python source (CI dumps this next to a shrunk .c)."""
    return codegen_program(program).source


def cached_program(program: asm.AsmProgram) -> Optional[CompiledAsm]:
    """Peek the per-program cache without counting a hit or compiling.

    The serving layer's seam: a probe reports whether its code object
    was already live or had to be generated.  Returns ``None`` while the
    fault-injection knob is set (the cache is bypassed in that mode).
    """
    if _MISCOMPILE is not None:
        return None
    return _CODEGEN_CACHE.get(program)


def bind_blocks(machine, fuel: int) -> dict:
    """The program's generated blocks bound to ``machine`` for one run.

    Keys are code addresses (``CODE_BASE + fid * FUNCTION_STRIDE + pc``)
    of basic-block leaders; each value takes the completed step count and
    returns ``(next block or None, steps)``.  Generates and compiles the
    program on first use.
    """
    return codegen_program(machine.program).bind(machine, fuel, _H)
