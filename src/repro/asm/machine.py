"""The ASMsz machine: flat memory, finite preallocated stack.

Memory layout (one address space, as on hardware)::

    0 .. 0x1000           unmapped (NULL page; any access goes wrong)
    0x1000 ..             globals, in declaration order
    ...                   malloc arena (bump allocator backing the builtin)
    ...                   the stack block of ``stack_bytes`` bytes
    stack_top             initial ESP

Startup emulates ``call main``: it pushes the halt sentinel as ``main``'s
return address — those 4 bytes are the ``+4`` of the paper's Theorem 1
(footnote 3: "we have to account for the return address of the 'caller'
of main").  The ESP watermark the monitor reads is measured from *after*
that push, exactly like a ``ptrace`` monitor that attaches at the entry of
``main``; this is what makes every verified bound come out exactly 4
bytes above the measurement (paper §6).

Stack overflow is a genuine behavior: any ESP decrement (frame
allocation or call) that would drop below the stack base raises
:class:`~repro.errors.StackOverflowError_` and the run goes wrong.
"""

from __future__ import annotations

import math
from typing import Optional

from repro import engines, ints, obs
from repro.asm import ast as asm
from repro.c.types import align_up
from repro.errors import (DynamicError, MemoryError_, StackOverflowError_,
                          UndefinedBehaviorError)
from repro.events.trace import Behavior, Event
from repro.memory.chunks import Chunk
from repro.memory.values import VFloat, VInt, Value
from repro.runtime import call_external

GLOBAL_BASE = 0x1000
HALT_ADDRESS = 0xFFFF0000
CODE_BASE = 0x40000000
DEFAULT_STACK_BYTES = 1 << 20
DEFAULT_ARENA_BYTES = 1 << 20
DEFAULT_FUEL = 50_000_000

#: A run given no engine is tiered: it starts on the decoded engine and
#: enters the program's generated code (:mod:`repro.asm.codegen`) after
#: this many steps per ASM instruction in the program, or at once when
#: the program is already compiled.  Generating and compiling costs as
#: much as 120-450 decoded steps per instruction lose to generated code,
#: so a run that ends below this budget never pays for ``compile()``,
#: and one that goes past it loses less than one compile to the warm-up
#: (the measured crossover is in docs/PERFORMANCE.md).
TIER_UP_STEPS_PER_INSTR = 100

_INT_BINOPS = {
    "add": ints.add, "sub": ints.sub, "mul": ints.mul,
    "divs": ints.div_s, "divu": ints.div_u,
    "mods": ints.mod_s, "modu": ints.mod_u,
    "and": ints.and_, "or": ints.or_, "xor": ints.xor,
    "shl": ints.shl, "shrs": ints.shr_s, "shru": ints.shr_u,
    "cmp_eq": ints.eq, "cmp_ne": ints.ne,
    "cmp_lts": ints.lt_s, "cmp_les": ints.le_s,
    "cmp_gts": ints.gt_s, "cmp_ges": ints.ge_s,
    "cmp_ltu": ints.lt_u, "cmp_leu": ints.le_u,
    "cmp_gtu": ints.gt_u, "cmp_geu": ints.ge_u,
}

_FLOAT_CMP = {
    "cmpf_eq": lambda a, b: a == b,
    "cmpf_ne": lambda a, b: a != b,
    "cmpf_lt": lambda a, b: a < b,
    "cmpf_le": lambda a, b: a <= b,
    "cmpf_gt": lambda a, b: a > b,
    "cmpf_ge": lambda a, b: a >= b,
}


class AsmMachine:
    def __init__(self, program: asm.AsmProgram,
                 stack_bytes: int = DEFAULT_STACK_BYTES,
                 arena_bytes: int = DEFAULT_ARENA_BYTES,
                 output: Optional[list] = None,
                 engine: Optional[str] = None) -> None:
        self.program = program
        self.output = output
        #: Whether a run may move from the decoded engine into generated
        #: code part-way: only when the caller chose no engine.
        self.tiered = engine is None
        self.engine = engines.check("ASMsz", engine, engines.ASM_ENGINES)

        # Global layout.
        self.global_addr: dict[str, int] = {}
        address = GLOBAL_BASE
        for var in program.globals:
            address = align_up(address, max(var.alignment, 1))
            self.global_addr[var.name] = address
            address += var.size
        self.arena_base = align_up(address, 16)
        self.arena_ptr = self.arena_base
        self.arena_end = self.arena_base + arena_bytes
        self.stack_base = align_up(self.arena_end, 16)
        self.stack_top = self.stack_base + stack_bytes
        self.memory = bytearray(self.stack_top)
        for var in program.globals:
            base = self.global_addr[var.name]
            self.memory[base:base + var.size] = var.image

        # Code layout.
        self.function_ids: dict[str, int] = {}
        self.functions_by_id: list[asm.AsmFunction] = []
        for index, (name, function) in enumerate(program.functions.items()):
            self.function_ids[name] = index
            self.functions_by_id.append(function)

        # Register file.  The decoded engine uses index-based lists (with
        # a dict-like name view so ``machine.iregs["eax"]`` keeps working);
        # the legacy engine keeps the original string-keyed dicts.
        if self.engine != "legacy":
            from repro.asm.decode import FREG_INDEX, IREG_INDEX, RegisterFile
            self.iregs = RegisterFile(IREG_INDEX, 0)
            self.fregs = RegisterFile(FREG_INDEX, 0.0)
        else:
            self.iregs = {name: 0 for name in asm.INT_REG_NAMES}
            self.fregs = {name: 0.0 for name in asm.FLOAT_REG_NAMES}
        self.esp = self.stack_top
        self.min_esp = self.esp
        self.esp_baseline = self.esp  # set properly by start()

        self.current: Optional[asm.AsmFunction] = None
        self.pc = 0
        self.done = False
        self.return_code: Optional[int] = None
        self.steps = 0

        # Decoded-engine state: bound per-instruction closures plus the
        # (ops, pc) hand-off cells used at call/return boundaries, bound
        # on the first decoded step (a run that starts in generated code
        # binds them only if it deopts: fuel tails, wild return addresses).
        self._ops: Optional[list] = None
        self._pc = 0
        self._trace: list = []
        self._bound = None
        self._cg_steps = 0
        #: The step at which the run entered generated code (0 for
        #: ``engine="codegen"``); None while it has run only decoded ops.
        self.tier_up_at: Optional[int] = None
        # perf_counter() at that step, and (step, perf_counter()) when
        # the run left generated code: a deopt or the end of the run.
        self._cg_entered = 0.0
        self._cg_left: Optional[tuple[int, float]] = None

    # -- startup --------------------------------------------------------------

    def start(self) -> None:
        """Emulate the runtime's ``call main``."""
        main = self.program.functions.get(self.program.main)
        if main is None:
            raise DynamicError("no main function")
        self._push_return_address(HALT_ADDRESS)
        self.esp_baseline = self.esp
        self.min_esp = self.esp
        self.current = main
        self.pc = 0

    @property
    def measured_stack_usage(self) -> int:
        """The ptrace-monitor reading: ESP watermark below main's entry."""
        return self.esp_baseline - self.min_esp

    @property
    def measured_heap_usage(self) -> int:
        """Arena bytes consumed by malloc (the heap-resource analogue)."""
        return self.arena_ptr - self.arena_base

    # -- memory ----------------------------------------------------------------

    def _check_access(self, address: int, size: int) -> None:
        if address < GLOBAL_BASE or address + size > len(self.memory):
            raise MemoryError_(
                f"memory access at {address:#x} (size {size}) out of range")

    def load(self, chunk: Chunk, address: int) -> int | float:
        self._check_access(address, chunk.size)
        if address % chunk.alignment != 0:
            raise MemoryError_(f"misaligned load at {address:#x}")
        raw = bytes(self.memory[address:address + chunk.size])
        if chunk.is_float:
            return chunk.decode_float(raw)
        return chunk.decode_int(raw)

    def store(self, chunk: Chunk, address: int, value: int | float) -> None:
        self._check_access(address, chunk.size)
        if address % chunk.alignment != 0:
            raise MemoryError_(f"misaligned store at {address:#x}")
        if chunk.is_float:
            raw = chunk.encode_float(float(value))
        else:
            raw = chunk.encode_int(int(value))
        self.memory[address:address + chunk.size] = raw

    def _set_esp(self, new_esp: int) -> None:
        if new_esp < self.stack_base:
            raise StackOverflowError_(
                "stack overflow: ESP would drop "
                f"{self.stack_base - new_esp} bytes below the stack block",
                needed=self.stack_top - new_esp,
                available=self.stack_top - self.stack_base)
        self.esp = new_esp
        if new_esp < self.min_esp:
            self.min_esp = new_esp

    def _push_return_address(self, address: int) -> None:
        self._set_esp(self.esp - 4)
        self.store(Chunk.INT32, self.esp, address)

    # -- addressing ---------------------------------------------------------------

    def _resolve(self, addr: asm.Addr) -> int:
        if isinstance(addr, asm.AStack):
            return self.esp + addr.offset
        if isinstance(addr, asm.ABase):
            return ints.wrap(self.iregs[addr.reg] + addr.offset)
        if isinstance(addr, asm.AGlobal):
            try:
                return self.global_addr[addr.symbol] + addr.offset
            except KeyError:
                raise UndefinedBehaviorError(
                    f"unknown symbol {addr.symbol!r}") from None
        raise DynamicError(f"unknown addressing mode {addr!r}")

    # -- execution ------------------------------------------------------------------

    def step(self) -> Optional[Event]:
        assert self.current is not None
        self.steps += 1
        if self.pc >= len(self.current.body):
            raise DynamicError(
                f"{self.current.name}: fell off the end of the code")
        instr = self.current.body[self.pc]
        self.pc += 1
        return self._execute(instr)

    def _execute(self, instr: asm.PInstr) -> Optional[Event]:
        iregs = self.iregs
        fregs = self.fregs

        if isinstance(instr, asm.Plabel):
            return None
        if isinstance(instr, asm.Pmovimm):
            iregs[instr.dest] = ints.wrap(instr.value)
            return None
        if isinstance(instr, asm.Pmovfimm):
            fregs[instr.dest] = instr.value
            return None
        if isinstance(instr, asm.Pmov):
            iregs[instr.dest] = iregs[instr.src]
            return None
        if isinstance(instr, asm.Pmovf):
            fregs[instr.dest] = fregs[instr.src]
            return None
        if isinstance(instr, asm.Plea):
            iregs[instr.dest] = ints.wrap(self._resolve(instr.addr))
            return None
        if isinstance(instr, asm.Punop):
            iregs[instr.reg] = self._unop(instr.op, iregs[instr.reg])
            return None
        if isinstance(instr, asm.Pfneg):
            fregs[instr.reg] = -fregs[instr.reg]
            return None
        if isinstance(instr, asm.Pcvt):
            self._convert(instr)
            return None
        if isinstance(instr, asm.Pbinop):
            handler = _INT_BINOPS.get(instr.op)
            if handler is None:
                raise DynamicError(f"unknown integer op {instr.op!r}")
            iregs[instr.dest] = handler(iregs[instr.dest], iregs[instr.src])
            return None
        if isinstance(instr, asm.Pbinopf):
            self._float_binop(instr)
            return None
        if isinstance(instr, asm.Pcmpf):
            handler = _FLOAT_CMP.get(instr.op)
            if handler is None:
                raise DynamicError(f"unknown float compare {instr.op!r}")
            iregs[instr.dest] = 1 if handler(fregs[instr.src1],
                                             fregs[instr.src2]) else 0
            return None
        if isinstance(instr, asm.Pload):
            value = self.load(instr.chunk, self._resolve(instr.addr))
            if instr.chunk.is_float:
                fregs[instr.dest] = float(value)
            else:
                iregs[instr.dest] = int(value)
            return None
        if isinstance(instr, asm.Pstore):
            value = fregs[instr.src] if instr.chunk.is_float \
                else iregs[instr.src]
            self.store(instr.chunk, self._resolve(instr.addr), value)
            return None
        if isinstance(instr, asm.Pespadd):
            self._set_esp(self.esp + instr.delta)
            return None
        if isinstance(instr, asm.Pjmp):
            self.pc = self.current.labels[instr.label]
            return None
        if isinstance(instr, asm.Pjcc):
            if iregs[instr.reg] != 0:
                self.pc = self.current.labels[instr.label]
            return None
        if isinstance(instr, asm.Pcall):
            return self._call(instr.symbol)
        if isinstance(instr, asm.Pret):
            return self._return()
        if isinstance(instr, asm.Pbuiltin):
            return self._builtin(instr)
        raise DynamicError(f"unknown instruction {instr!r}")

    def _unop(self, op: str, value: int) -> int:
        if op == "neg":
            return ints.neg(value)
        if op == "notint":
            return ints.not_(value)
        if op == "notbool":
            return 0 if value != 0 else 1
        if op == "cast8signed":
            return ints.sign_extend8(value)
        if op == "cast8unsigned":
            return ints.wrap8(value)
        if op == "cast16signed":
            return ints.sign_extend16(value)
        if op == "cast16unsigned":
            return ints.wrap16(value)
        raise DynamicError(f"unknown unary op {op!r}")

    def _convert(self, instr: asm.Pcvt) -> None:
        if instr.op == "intoffloat":
            self.iregs[instr.dest] = ints.of_float_signed(
                self.fregs[instr.src])
            return
        if instr.op == "uintoffloat":
            value = self.fregs[instr.src]
            if value != value:
                raise UndefinedBehaviorError("float-to-uint of NaN")
            truncated = int(value)
            if truncated < 0 or truncated > ints.MAX_UNSIGNED:
                raise UndefinedBehaviorError(
                    f"float-to-uint out of range: {value!r}")
            self.iregs[instr.dest] = truncated
            return
        if instr.op == "floatofint":
            self.fregs[instr.dest] = ints.to_float_signed(
                self.iregs[instr.src])
            return
        if instr.op == "floatofuint":
            self.fregs[instr.dest] = ints.to_float_unsigned(
                self.iregs[instr.src])
            return
        raise DynamicError(f"unknown conversion {instr.op!r}")

    def _float_binop(self, instr: asm.Pbinopf) -> None:
        a = self.fregs[instr.dest]
        b = self.fregs[instr.src]
        if instr.op == "addf":
            result = a + b
        elif instr.op == "subf":
            result = a - b
        elif instr.op == "mulf":
            result = a * b
        elif instr.op == "divf":
            if b == 0.0:
                if a == 0.0 or a != a:
                    result = float("nan")
                else:
                    result = float("inf") if (a > 0) == (b >= 0) \
                        else float("-inf")
            else:
                result = a / b
        else:
            raise DynamicError(f"unknown float op {instr.op!r}")
        self.fregs[instr.dest] = result

    def _call(self, symbol: str) -> Optional[Event]:
        callee = self.program.functions.get(symbol)
        if callee is None:
            raise DynamicError(f"call to unknown symbol {symbol!r} "
                               "(externals use builtins)")
        assert self.current is not None
        return_address = (CODE_BASE
                          + self.function_ids[self.current.name] * 0x100000
                          + self.pc)
        self._push_return_address(return_address)
        self.current = callee
        self.pc = 0
        return None

    def _return(self) -> Optional[Event]:
        address = int(self.load(Chunk.INT32, self.esp))
        self._set_esp(self.esp + 4)
        if address == HALT_ADDRESS:
            self.done = True
            self.return_code = ints.to_signed(self.iregs["eax"])
            return None
        if address < CODE_BASE:
            raise DynamicError(f"return to non-code address {address:#x}")
        fid, index = divmod(address - CODE_BASE, 0x100000)
        if fid >= len(self.functions_by_id):
            raise DynamicError(f"return to unknown function id {fid}")
        self.current = self.functions_by_id[fid]
        self.pc = index
        return None

    def _builtin(self, instr: asm.Pbuiltin) -> Optional[Event]:
        args: list[Value] = []
        for reg, is_float in zip(instr.args, instr.arg_is_float):
            if is_float:
                args.append(VFloat(self.fregs[reg]))
            else:
                args.append(VInt(self.iregs[reg]))
        result, event = call_external(instr.name, args, alloc=self._malloc,
                                      output=self.output)
        if instr.dest is not None:
            if instr.dest_is_float:
                if not isinstance(result, VFloat):
                    raise DynamicError(
                        f"builtin {instr.name} did not return a float")
                self.fregs[instr.dest] = result.value
            else:
                if not isinstance(result, VInt):
                    raise DynamicError(
                        f"builtin {instr.name} did not return an integer")
                self.iregs[instr.dest] = result.value
        return event

    def _malloc(self, size: int) -> Value:
        aligned = align_up(max(size, 1), 8)
        if self.arena_ptr + aligned > self.arena_end:
            return VInt(0)  # out of arena: malloc returns NULL
        address = self.arena_ptr
        self.arena_ptr += aligned
        return VInt(address)


def run_program(program: asm.AsmProgram,
                stack_bytes: int = DEFAULT_STACK_BYTES,
                fuel: int = DEFAULT_FUEL,
                output: Optional[list] = None,
                engine: Optional[str] = None
                ) -> tuple[Behavior, AsmMachine]:
    """Run on ASMsz; returns the behavior and the machine (for the monitor).

    ``engine`` selects the tier (``"legacy"``/``"decoded"``/``"codegen"``);
    None runs tiered (:data:`TIER_UP_STEPS_PER_INSTR`).
    """
    machine = AsmMachine(program, stack_bytes=stack_bytes, output=output,
                         engine=engine)
    if obs.enabled:
        # One span per run, wrapped around the whole loop: the hot path
        # itself carries zero added per-step work, enabled or not.
        with obs.span("exec.asm", engine=machine.engine) as sp:
            behavior = _execute(machine, fuel)
        sp.set(kind=type(behavior).__name__, steps=machine.steps,
               watermark=machine.measured_stack_usage)
        obs.add("interp.asm.steps", machine.steps)
        obs.add("interp.asm.seconds", sp.dur)
        obs.add("interp.asm.runs")
        if machine.tier_up_at is not None:
            sp.set(tier_up_at=machine.tier_up_at)
            if machine.tiered:
                obs.add("interp.asm.tier_ups")
            left_at, left_clock = machine._cg_left
            obs.add("interp.codegen.steps", left_at - machine.tier_up_at)
            obs.add("interp.codegen.seconds",
                    left_clock - machine._cg_entered)
            obs.add("interp.codegen.runs")
        return behavior, machine
    return _execute(machine, fuel), machine


def _tier_up_budget(program: asm.AsmProgram) -> int:
    """Decoded steps a tiered run takes before it enters generated code.

    Zero when the program's code object is already compiled: the run has
    nothing left to pay for.
    """
    from repro.asm.codegen import cached_program

    if cached_program(program) is not None:
        return 0
    return TIER_UP_STEPS_PER_INSTR * sum(
        len(function.body) for function in program.functions.values())


def _execute(machine: AsmMachine, fuel: int) -> Behavior:
    """Run ``machine`` to a behavior on its selected engine."""
    if machine.engine != "legacy":
        from repro.asm.decode import run

        if machine.engine == "codegen":
            tier_up = 0
        elif machine.tiered:
            tier_up = _tier_up_budget(machine.program)
        else:
            tier_up = math.inf
        return run(machine, fuel, tier_up)

    def start(_sink) -> AsmMachine:
        machine.start()
        return machine

    trace: list[Event] = []
    return engines.drive(start, trace.append, fuel).to_behavior(trace)
