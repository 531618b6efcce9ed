"""Pre-decoded (threaded-code) execution engine for Mach.

Compiles each :class:`~repro.mach.ast.MachFunction` body into a flat
``code`` list of closures ``op(m) -> next_op | None`` (one entry per
instruction plus a fall-off-the-end return sentinel).  Labels, frame
slot offsets, register names and operation tuples are all resolved at
decode time; the machine-global register file becomes one flat list
with indices assigned program-wide (registers are machine-global in
Mach, so the index map spans every function).

As on Clight and RTL, each run decodes afresh (:func:`start`): decode
is O(instructions).  :func:`repro.engines.drive` runs the
``code = code(m)`` loop.

Observable equivalence with :class:`~repro.mach.semantics.MachMachine`:
one closure per legacy ``step()`` (labels included), same event order
with one shared ``CallEvent``/``ReturnEvent`` per function, identical
memory-allocation order, and byte-identical error messages.  Legacy
crash paths that escape ``DynamicError`` (unknown callees, labels and
frame slots raise ``KeyError``) are reproduced lazily at execution time,
never at decode time.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.clight.decode import (_DIRECT_INT_BINOPS, _FAST_INT_UNOPS, UNDEF,
                                 _VFALSE, _VTRUE)
from repro.errors import DynamicError, MemoryError_, UndefinedBehaviorError
from repro.events.stream import Consumer
from repro.events.trace import CallEvent, ReturnEvent
from repro.mach import ast as mach
from repro.memory import Chunk, Memory
from repro.memory.values import VFloat, VInt, VPtr
from repro.ops import (_FLOAT_BINOPS, _FLOAT_COMPARES, _INT_BINOPS,
                       _INT_COMPARES, eval_binop, eval_unop)
from repro.regalloc.locations import LFReg, LReg, LSlot, RESULT_INT
from repro.runtime import call_external


class DecodedMachFunction:
    """Per-function decode result (two-phase: created, then filled)."""

    __slots__ = ("name", "entry", "frame_size", "frame_tag", "no_frame_msg",
                 "slots", "call_event", "ret_event")

    def __init__(self, function: mach.MachFunction) -> None:
        self.name = function.name
        self.frame_size = function.frame.size
        self.slots = function.frame.slot_offsets
        self.frame_tag = f"frame {function.name}"
        self.no_frame_msg = f"{function.name}: frame access without a frame"
        self.call_event = CallEvent(function.name)
        self.ret_event = ReturnEvent(function.name)
        self.entry: Callable = None  # filled by decode_program


class DecodedMachProgram:
    __slots__ = ("functions", "globals_index", "reg_index", "n_regs",
                 "result_slot")

    def __init__(self, program: mach.MachProgram) -> None:
        self.functions = {name: DecodedMachFunction(fn)
                          for name, fn in program.functions.items()}
        self.globals_index = {var.name: index
                              for index, var in enumerate(program.globals)}
        # Machine-global register file: one index map for the program.
        self.reg_index: dict[str, int] = {}
        self.result_slot = self.reg_slot(RESULT_INT)
        self.n_regs = 0  # finalized by decode_program

    def reg_slot(self, name: str) -> int:
        slot = self.reg_index.get(name)
        if slot is None:
            slot = len(self.reg_index)
            self.reg_index[name] = slot
        return slot


def _decode_read(loc, frec: DecodedMachFunction, dprog: DecodedMachProgram):
    """Closure ``rd(m) -> Value`` for one location; returns ``(rd, slot)``
    where ``slot`` is the register index when the location is a plain
    register (letting callers inline the list access)."""
    if isinstance(loc, (LReg, LFReg)):
        slot = dprog.reg_slot(loc.name)

        def rd(m):
            return m.regs[slot]
        return rd, slot
    assert isinstance(loc, LSlot)
    chunk = Chunk.FLOAT64 if loc.is_float_class else Chunk.INT32
    offset = frec.slots.get(loc)
    if offset is None:
        return _missing_slot(loc, frec), None
    no_frame_msg = frec.no_frame_msg

    def rd(m):
        frame = m.frame
        if frame is None:
            raise DynamicError(no_frame_msg)
        return m.memory.load_at(chunk, frame.block, offset)
    return rd, None


def _missing_slot(loc, frec: DecodedMachFunction):
    # Legacy order: the frame is required first (DynamicError), then the
    # slot lookup raises KeyError, which escapes the behavior classifier.
    def rd(m):
        if m.frame is None:
            raise DynamicError(frec.no_frame_msg)
        raise KeyError(loc)
    return rd


def _decode_write(loc, frec: DecodedMachFunction, dprog: DecodedMachProgram):
    """Closure ``wr(m, value)``; also ``(wr, slot)`` like :func:`_decode_read`."""
    if isinstance(loc, (LReg, LFReg)):
        slot = dprog.reg_slot(loc.name)

        def wr(m, value):
            m.regs[slot] = value
        return wr, slot
    assert isinstance(loc, LSlot)
    chunk = Chunk.FLOAT64 if loc.is_float_class else Chunk.INT32
    offset = frec.slots.get(loc)
    if offset is None:
        missing = _missing_slot(loc, frec)

        def wr(m, value):
            missing(m)
        return wr, None
    no_frame_msg = frec.no_frame_msg

    def wr(m, value):
        frame = m.frame
        if frame is None:
            raise DynamicError(no_frame_msg)
        m.memory.store_at(chunk, frame.block, offset, value)
    return wr, None


def _decode_machop(instr: mach.MOp, index: int, code: list,
                   frec: DecodedMachFunction, dprog: DecodedMachProgram):
    op = instr.op
    kind = op[0]
    succ = index + 1
    wr, dslot = _decode_write(instr.dest, frec, dprog)
    if kind == "const":
        value = VInt(op[1])
        if dslot is not None:
            def oc(m):
                m.regs[dslot] = value
                return code[succ]
            return oc

        def oc(m):
            wr(m, value)
            return code[succ]
        return oc
    if kind == "constf":
        value = VFloat(op[1])
        if dslot is not None:
            def oc(m):
                m.regs[dslot] = value
                return code[succ]
            return oc

        def oc(m):
            wr(m, value)
            return code[succ]
        return oc
    if kind == "move":
        rd, sslot = _decode_read(instr.args[0], frec, dprog)
        if dslot is not None and sslot is not None:
            def oc(m):
                regs = m.regs
                regs[dslot] = regs[sslot]
                return code[succ]
            return oc

        def oc(m):
            wr(m, rd(m))
            return code[succ]
        return oc
    if kind == "addrglobal":
        gindex = dprog.globals_index.get(op[1])
        if gindex is None:
            name = op[1]

            def oc(m):
                raise UndefinedBehaviorError(f"unknown global {name!r}")
            return oc
        if dslot is not None:
            def oc(m):
                m.regs[dslot] = m.gptrs[gindex]
                return code[succ]
            return oc

        def oc(m):
            wr(m, m.gptrs[gindex])
            return code[succ]
        return oc
    if kind == "addrstack":
        offset = op[1]

        def oc(m):
            frame = m.frame
            if frame is None:
                raise DynamicError(frec.no_frame_msg)
            wr(m, VPtr(frame.block, offset))
            return code[succ]
        return oc
    if kind == "unop":
        uop = op[1]
        rd, sslot = _decode_read(instr.args[0], frec, dprog)
        fn = _FAST_INT_UNOPS.get(uop)
        if fn is not None and dslot is not None and sslot is not None:
            def oc(m):
                regs = m.regs
                value = regs[sslot]
                if type(value) is VInt:
                    regs[dslot] = VInt(fn(value.value))
                else:
                    regs[dslot] = eval_unop(uop, value)
                return code[succ]
            return oc
        if uop == "notbool" and dslot is not None and sslot is not None:
            def oc(m):
                regs = m.regs
                value = regs[sslot]
                if type(value) is VInt:
                    regs[dslot] = _VFALSE if value.value != 0 else _VTRUE
                else:
                    regs[dslot] = eval_unop(uop, value)
                return code[succ]
            return oc

        def oc(m):
            wr(m, eval_unop(uop, rd(m)))
            return code[succ]
        return oc
    if kind == "binop":
        bop = op[1]
        rd0, s0 = _decode_read(instr.args[0], frec, dprog)
        rd1, s1 = _decode_read(instr.args[1], frec, dprog)
        if dslot is not None and s0 is not None and s1 is not None:
            return _decode_reg_binop(bop, s0, s1, dslot, succ, code)
        value_of = _binop_value(bop)

        def oc(m):
            wr(m, value_of(rd0(m), rd1(m)))
            return code[succ]
        return oc
    detail = repr(op)

    def oc(m):
        raise DynamicError(f"unknown Mach operation {detail}")
    return oc


def _binop_value(bop):
    """``f(left, right) -> Value`` with the monomorphic paths inlined."""
    fn = _DIRECT_INT_BINOPS.get(bop) or _INT_BINOPS.get(bop)
    if fn is not None and bop not in ("add", "sub"):
        def value_of(left, right):
            if type(left) is VInt and type(right) is VInt:
                return VInt(fn(left.value, right.value))
            return eval_binop(bop, left, right)
        return value_of
    cmp_fn = _INT_COMPARES.get(bop)
    if cmp_fn is not None:
        def value_of(left, right):
            if type(left) is VInt and type(right) is VInt:
                return _VTRUE if cmp_fn(left.value, right.value) else _VFALSE
            return eval_binop(bop, left, right)
        return value_of
    return lambda left, right: eval_binop(bop, left, right)


def _decode_reg_binop(bop, s0, s1, dslot, succ, code):
    """All-register binop: the Mach analogue of the RTL specialization."""
    if bop == "add":
        def oc(m):
            regs = m.regs
            left = regs[s0]
            right = regs[s1]
            tl = type(left)
            if tl is VInt:
                if type(right) is VInt:
                    regs[dslot] = VInt(left.value + right.value)
                    return code[succ]
                if type(right) is VPtr:
                    regs[dslot] = right.add(left.value)
                    return code[succ]
            elif tl is VPtr and type(right) is VInt:
                regs[dslot] = left.add(right.value)
                return code[succ]
            regs[dslot] = eval_binop(bop, left, right)
            return code[succ]
        return oc
    if bop == "sub":
        def oc(m):
            regs = m.regs
            left = regs[s0]
            right = regs[s1]
            tl = type(left)
            if tl is VInt and type(right) is VInt:
                regs[dslot] = VInt(left.value - right.value)
                return code[succ]
            if tl is VPtr:
                if type(right) is VInt:
                    regs[dslot] = left.add(-right.value)
                    return code[succ]
                if type(right) is VPtr and left.block == right.block:
                    regs[dslot] = VInt(left.offset - right.offset)
                    return code[succ]
            regs[dslot] = eval_binop(bop, left, right)
            return code[succ]
        return oc
    fn = _DIRECT_INT_BINOPS.get(bop) or _INT_BINOPS.get(bop)
    if fn is not None:
        def oc(m):
            regs = m.regs
            left = regs[s0]
            right = regs[s1]
            if type(left) is VInt and type(right) is VInt:
                regs[dslot] = VInt(fn(left.value, right.value))
            else:
                regs[dslot] = eval_binop(bop, left, right)
            return code[succ]
        return oc
    fn = _INT_COMPARES.get(bop)
    if fn is not None:
        def oc(m):
            regs = m.regs
            left = regs[s0]
            right = regs[s1]
            if type(left) is VInt and type(right) is VInt:
                regs[dslot] = _VTRUE if fn(left.value, right.value) \
                    else _VFALSE
            elif (type(left) is VPtr and type(right) is VPtr
                    and left.block == right.block):
                regs[dslot] = _VTRUE if fn(left.offset, right.offset) \
                    else _VFALSE
            else:
                regs[dslot] = eval_binop(bop, left, right)
            return code[succ]
        return oc
    ffn = _FLOAT_BINOPS.get(bop)
    if ffn is not None:
        def oc(m):
            regs = m.regs
            left = regs[s0]
            right = regs[s1]
            if type(left) is VFloat and type(right) is VFloat:
                regs[dslot] = VFloat(ffn(left.value, right.value))
            else:
                regs[dslot] = eval_binop(bop, left, right)
            return code[succ]
        return oc
    ffn = _FLOAT_COMPARES.get(bop)
    if ffn is not None:
        def oc(m):
            regs = m.regs
            left = regs[s0]
            right = regs[s1]
            if type(left) is VFloat and type(right) is VFloat:
                regs[dslot] = _VTRUE if ffn(left.value, right.value) \
                    else _VFALSE
            else:
                regs[dslot] = eval_binop(bop, left, right)
            return code[succ]
        return oc

    def oc(m):
        regs = m.regs
        regs[dslot] = eval_binop(bop, regs[s0], regs[s1])
        return code[succ]
    return oc


def _do_return(m):
    """Pop the activation; the result is already in EAX/XMM0."""
    if m.frame is not None:
        m.memory.free(m.frame)
    event = m.frec.ret_event
    cstack = m.cstack
    if not cstack:
        m.done = True
        value = m.regs[m.result_slot]
        m.return_code = value.signed if isinstance(value, VInt) else 0
        m.sink(event)
        return None
    frec, frame, caller_frame, ret_op = cstack.pop()
    m.frec = frec
    m.frame = frame
    m.caller_frame = caller_frame
    m.sink(event)
    return ret_op


def _decode_function(function: mach.MachFunction, program: mach.MachProgram,
                     dprog: DecodedMachProgram) -> None:
    frec = dprog.functions[function.name]
    body = function.body
    n = len(body)
    code: list = [None] * (n + 1)
    code[n] = _do_return  # fell off the end of the body
    labels = function.labels
    for index, instr in enumerate(body):
        succ = index + 1
        if isinstance(instr, mach.MLabel):
            code[index] = (lambda succ: lambda m: code[succ])(succ)
        elif isinstance(instr, mach.MOp):
            code[index] = _decode_machop(instr, index, code, frec, dprog)
        elif isinstance(instr, mach.MLoad):
            code[index] = _decode_mload(instr, succ, code, frec, dprog)
        elif isinstance(instr, mach.MStore):
            code[index] = _decode_mstore(instr, succ, code, frec, dprog)
        elif isinstance(instr, mach.MStoreArg):
            code[index] = _decode_storearg(instr, succ, code, frec, dprog)
        elif isinstance(instr, mach.MGetParam):
            code[index] = _decode_getparam(instr, succ, code, frec, dprog)
        elif isinstance(instr, mach.MCall):
            code[index] = _decode_mcall(instr, succ, code, program, dprog)
        elif isinstance(instr, mach.MExtCall):
            code[index] = _decode_extcall(instr, succ, code, frec, dprog)
        elif isinstance(instr, mach.MGoto):
            target = labels.get(instr.label)
            if target is None:
                label = instr.label
                code[index] = (lambda label: _raise_key(label))(label)
            else:
                code[index] = (lambda target: lambda m: code[target])(target)
        elif isinstance(instr, mach.MCond):
            code[index] = _decode_mcond(instr, succ, code, labels, frec,
                                        dprog)
        elif isinstance(instr, mach.MReturn):
            code[index] = _do_return
        else:
            detail = repr(instr)

            def unknown(m, detail=detail):
                raise DynamicError(f"unknown Mach instruction {detail}")
            code[index] = unknown
    frec.entry = code[0]


def _raise_key(key):
    def op(m):
        raise KeyError(key)
    return op


def _decode_mload(instr, succ, code, frec, dprog):
    chunk = instr.chunk
    rd, aslot = _decode_read(instr.addr, frec, dprog)
    wr, dslot = _decode_write(instr.dest, frec, dprog)
    if aslot is not None and dslot is not None:
        def op(m):
            regs = m.regs
            ptr = regs[aslot]
            if type(ptr) is not VPtr:
                raise MemoryError_(f"load through non-pointer {ptr!r}")
            regs[dslot] = m.memory.load_at(chunk, ptr.block, ptr.offset)
            return code[succ]
        return op

    def op(m):
        ptr = rd(m)
        if type(ptr) is not VPtr:
            raise MemoryError_(f"load through non-pointer {ptr!r}")
        wr(m, m.memory.load_at(chunk, ptr.block, ptr.offset))
        return code[succ]
    return op


def _decode_mstore(instr, succ, code, frec, dprog):
    chunk = instr.chunk
    rd_addr, aslot = _decode_read(instr.addr, frec, dprog)
    rd_src, sslot = _decode_read(instr.src, frec, dprog)
    # chunk.normalize is the identity for word stores: skip the call.
    normalize = None if chunk is Chunk.INT32 else chunk.normalize

    def op(m):
        ptr = rd_addr(m)
        if type(ptr) is not VPtr:
            raise MemoryError_(f"store through non-pointer {ptr!r}")
        value = rd_src(m)
        if normalize is not None:
            value = normalize(value)
        m.memory.store_at(chunk, ptr.block, ptr.offset, value)
        return code[succ]
    return op


def _decode_storearg(instr, succ, code, frec, dprog):
    chunk = Chunk.FLOAT64 if instr.is_float else Chunk.INT32
    offset = instr.offset
    rd_src, _sslot = _decode_read(instr.src, frec, dprog)

    def op(m):
        frame = m.frame
        if frame is None:  # checked before the source is read, as legacy
            raise DynamicError(frec.no_frame_msg)
        m.memory.store_at(chunk, frame.block, offset, rd_src(m))
        return code[succ]
    return op


def _decode_getparam(instr, succ, code, frec, dprog):
    chunk = Chunk.FLOAT64 if instr.is_float else Chunk.INT32
    offset = instr.offset
    wr, dslot = _decode_write(instr.dest, frec, dprog)
    message = f"{frec.name}: parameter read without a caller"

    def op(m):
        caller_frame = m.caller_frame
        if caller_frame is None:
            raise DynamicError(message)
        value = m.memory.load_at(chunk, caller_frame.block,
                                 (caller_frame.offset + offset) & 0xFFFFFFFF)
        wr(m, value)
        return code[succ]
    return op


def _decode_mcall(instr, succ, code, program, dprog):
    callee = program.functions.get(instr.callee)
    if callee is None:
        # Legacy raises KeyError out of the behavior classifier.
        return _raise_key(instr.callee)
    rec = dprog.functions[instr.callee]
    has_frame = callee.frame.size > 0

    def op(m):
        m.cstack.append((m.frec, m.frame, m.caller_frame, code[succ]))
        caller_frame = m.frame
        m.frame = m.memory.alloc(rec.frame_size, tag=rec.frame_tag) \
            if has_frame else None
        m.caller_frame = caller_frame
        m.frec = rec
        m.sink(rec.call_event)
        return rec.entry
    return op


def _decode_extcall(instr, succ, code, frec, dprog):
    callee_name = instr.callee
    readers = tuple(_decode_read(arg, frec, dprog)[0] for arg in instr.args)
    if instr.dest is not None:
        wr, _dslot = _decode_write(instr.dest, frec, dprog)
    else:
        wr = None

    def op(m):
        args = [rd(m) for rd in readers]
        result, event = call_external(callee_name, args, alloc=m.alloc_heap,
                                      output=m.output)
        if wr is not None:
            wr(m, result)
        if event is not None:
            m.sink(event)
        return code[succ]
    return op


def _decode_mcond(instr, succ, code, labels, frec, dprog):
    rd, aslot = _decode_read(instr.arg, frec, dprog)
    target = labels.get(instr.label)
    if target is None:
        # Legacy only resolves the label when the branch is taken.
        label = instr.label

        def op(m):
            if rd(m).is_true():
                raise KeyError(label)
            return code[succ]
        return op
    if aslot is not None:
        def op(m):
            value = m.regs[aslot]
            if type(value) is VInt:
                return code[target] if value.value != 0 else code[succ]
            return code[target] if value.is_true() else code[succ]
        return op

    def op(m):
        return code[target] if rd(m).is_true() else code[succ]
    return op


def decode_program(program: mach.MachProgram) -> DecodedMachProgram:
    """Decode every function of ``program`` into threaded code.

    Not cached: Mach programs are rebuilt per lowering and decode is
    O(instructions).
    """
    dprog = DecodedMachProgram(program)
    for function in program.functions.values():
        _decode_function(function, program, dprog)
    dprog.n_regs = len(dprog.reg_index)
    return dprog


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------


class DecodedMachMachine:
    __slots__ = ("memory", "gptrs", "output", "sink", "regs", "frame",
                 "caller_frame", "frec", "cstack", "result_slot", "done",
                 "return_code")

    def __init__(self, program: mach.MachProgram, dprog: DecodedMachProgram,
                 sink: Consumer, output: Optional[list] = None) -> None:
        self.memory = Memory()
        self.gptrs = self.memory.alloc_globals(program.globals)
        self.output = output
        self.sink = sink
        self.regs: list = [UNDEF] * dprog.n_regs
        self.frame: Optional[VPtr] = None
        self.caller_frame: Optional[VPtr] = None
        self.frec: Optional[DecodedMachFunction] = None
        self.cstack: list = []
        self.result_slot = dprog.result_slot
        self.done = False
        self.return_code: Optional[int] = None

    def alloc_heap(self, size: int) -> VPtr:
        return self.memory.alloc(size, tag="malloc")


def start(program: mach.MachProgram, sink: Consumer, output: Optional[list]):
    """Decode ``program``, build its machine and enter ``main``, emitting
    main's call event into ``sink``: returns ``(machine, main's entry
    op)`` for :func:`repro.engines.drive`."""
    dprog = decode_program(program)
    m = DecodedMachMachine(program, dprog, sink, output=output)
    rec = dprog.functions[program.main]
    if rec.frame_size > 0:
        m.frame = m.memory.alloc(rec.frame_size, tag=rec.frame_tag)
    m.frec = rec
    m.sink(rec.call_event)
    return m, rec.entry
