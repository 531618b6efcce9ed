"""An RTL interpreter emitting the same event traces as Clight.

Used by the differential test-suite to check quantitative refinement of
the Cminor → RTL pass and of the RTL-level optimizations: same pruned
traces, identical call/ret memory events.  :func:`run_streamed` runs
this module's step machine or the decoded engine
(:mod:`repro.rtl.decode`) through the one run driver,
:func:`repro.engines.run`.
"""

from __future__ import annotations

from typing import Optional

from repro import engines, ops
from repro.errors import DynamicError, MemoryError_, UndefinedBehaviorError
from repro.events.stream import Consumer, StreamOutcome
from repro.events.trace import Behavior, CallEvent, Event, ReturnEvent
from repro.memory import Memory
from repro.memory.values import VFloat, VInt, VPtr, VUndef, Value
from repro.rtl import ast as rtl
from repro.runtime import call_external

DEFAULT_FUEL = 5_000_000


class _Activation:
    __slots__ = ("function", "pc", "regs", "frame", "dest")

    def __init__(self, function: rtl.RTLFunction, pc: int,
                 regs: dict[int, Value], frame: Optional[VPtr],
                 dest: Optional[int]) -> None:
        self.function = function
        self.pc = pc
        self.regs = regs
        self.frame = frame
        self.dest = dest  # where the *caller* wants the result


class RTLMachine:
    def __init__(self, program: rtl.RTLProgram,
                 output: Optional[list] = None) -> None:
        self.program = program
        self.memory = Memory()
        self.globals: dict[str, VPtr] = {
            var.name: ptr for var, ptr in zip(
                program.globals, self.memory.alloc_globals(program.globals))}
        self.stack: list[_Activation] = []
        self.output = output
        self.done = False
        self.return_code: Optional[int] = None

    # -- helpers ---------------------------------------------------------------

    def _enter(self, function: rtl.RTLFunction, args: list[Value],
               dest: Optional[int]) -> Event:
        if len(args) != len(function.params):
            raise UndefinedBehaviorError(
                f"{function.name}: arity mismatch")
        regs: dict[int, Value] = {}
        for reg, value in zip(function.params, args):
            regs[reg] = value
        frame = None
        if function.stacksize > 0:
            frame = self.memory.alloc(function.stacksize,
                                      tag=f"frame {function.name}")
        self.stack.append(_Activation(function, function.entry, regs, frame,
                                      dest))
        return CallEvent(function.name)

    def _reg(self, regs: dict[int, Value], reg: int) -> Value:
        return regs.get(reg, VUndef())

    def _eval_op(self, act: _Activation, op: tuple, args: list[Value]) -> Value:
        kind = op[0]
        if kind == "const":
            return VInt(op[1])
        if kind == "constf":
            return VFloat(op[1])
        if kind == "move":
            return args[0]
        if kind == "addrglobal":
            try:
                return self.globals[op[1]]
            except KeyError:
                raise UndefinedBehaviorError(f"unknown global {op[1]!r}") from None
        if kind == "addrstack":
            if act.frame is None:
                raise UndefinedBehaviorError(
                    f"{act.function.name}: addrstack without a frame")
            return act.frame.add(op[1])
        if kind == "unop":
            return ops.eval_unop(op[1], args[0])
        if kind == "binop":
            return ops.eval_binop(op[1], args[0], args[1])
        raise DynamicError(f"unknown RTL operation {op!r}")

    # -- one step ----------------------------------------------------------------

    def step(self) -> Optional[Event]:
        act = self.stack[-1]
        instr = act.function.graph.get(act.pc)
        if instr is None:
            raise DynamicError(f"{act.function.name}: no instruction at "
                               f"node {act.pc}")
        if isinstance(instr, rtl.Inop):
            act.pc = instr.succ
            return None
        if isinstance(instr, rtl.Iop):
            args = [self._reg(act.regs, r) for r in instr.args]
            act.regs[instr.dest] = self._eval_op(act, instr.op, args)
            act.pc = instr.succ
            return None
        if isinstance(instr, rtl.Iload):
            addr = self._reg(act.regs, instr.addr)
            if not isinstance(addr, VPtr):
                raise MemoryError_(f"load through non-pointer {addr!r}")
            act.regs[instr.dest] = self.memory.load(instr.chunk, addr)
            act.pc = instr.succ
            return None
        if isinstance(instr, rtl.Istore):
            addr = self._reg(act.regs, instr.addr)
            if not isinstance(addr, VPtr):
                raise MemoryError_(f"store through non-pointer {addr!r}")
            value = self._reg(act.regs, instr.src)
            self.memory.store(instr.chunk, addr, instr.chunk.normalize(value))
            act.pc = instr.succ
            return None
        if isinstance(instr, rtl.Icond):
            value = self._reg(act.regs, instr.arg)
            act.pc = instr.ifso if value.is_true() else instr.ifnot
            return None
        if isinstance(instr, rtl.Icall):
            args = [self._reg(act.regs, r) for r in instr.args]
            act.pc = instr.succ
            if self.program.is_internal(instr.callee):
                callee = self.program.functions[instr.callee]
                return self._enter(callee, args, instr.dest)
            result, event = call_external(
                instr.callee, args,
                alloc=lambda size: self.memory.alloc(size, tag="malloc"),
                output=self.output)
            if instr.dest is not None:
                act.regs[instr.dest] = result
            return event
        if isinstance(instr, rtl.Ireturn):
            value = self._reg(act.regs, instr.arg) if instr.arg is not None \
                else None
            return self._return(value)
        raise DynamicError(f"unknown instruction {instr!r}")

    def _return(self, value: Optional[Value]) -> Event:
        act = self.stack.pop()
        if act.frame is not None:
            self.memory.free(act.frame)
        event = ReturnEvent(act.function.name)
        if not self.stack:
            self.done = True
            if value is None:
                value = VInt(0)
            self.return_code = value.signed if isinstance(value, VInt) else 0
            return event
        caller = self.stack[-1]
        if act.dest is not None:
            caller.regs[act.dest] = value if value is not None else VUndef()
        return event


def _start(program: rtl.RTLProgram, sink: Consumer,
           output: Optional[list]) -> RTLMachine:
    machine = RTLMachine(program, output=output)
    sink(machine._enter(program.functions[program.main], [], None))
    return machine


def _start_decoded(program: rtl.RTLProgram, sink: Consumer,
                   output: Optional[list]):
    from repro.rtl import decode
    return decode.start(program, sink, output)


def run_streamed(program: rtl.RTLProgram, sink: Consumer,
                 fuel: int = DEFAULT_FUEL, output: Optional[list] = None,
                 engine: Optional[str] = None) -> StreamOutcome:
    """Run ``program``, pushing every event into ``sink`` as emitted.

    ``engine`` is ``"decoded"`` (the default, :mod:`repro.rtl.decode`)
    or ``"legacy"`` (the step loop below, the differential oracle);
    both produce the same events, outcome classification and step
    counts by construction, and :func:`repro.engines.run` runs and
    classifies both.
    """
    return engines.run("RTL", program, sink, fuel, output, engine,
                       _start, _start_decoded)


def run_program(program: rtl.RTLProgram, fuel: int = DEFAULT_FUEL,
                output: Optional[list] = None,
                engine: Optional[str] = None) -> Behavior:
    trace: list[Event] = []
    outcome = run_streamed(program, trace.append, fuel, output=output,
                           engine=engine)
    return outcome.to_behavior(trace)
