"""Continuation-based small-step semantics for Clight (paper §4.2).

States are triples ``(S, K, sigma)`` of a statement, a continuation and a
program state; the continuation grammar extends the paper's with the
loop/post split of CompCert's ``Sloop`` and with ``Kblock`` for the
front end's ``switch`` lowering::

    K ::= Kstop | Kseq S K | Kloop1 S1 S2 K | Kloop2 S1 S2 K
        | Kblock K | Kcall x f theta blocks K

Each internal function call emits ``call(f)``; each return emits
``ret(f)``; external calls emit their I/O event.  The run driver,
:func:`repro.engines.run`, feeds the events to a consumer and classifies
the run as a behavior.
"""

from __future__ import annotations

from typing import Optional

from repro import engines, ops
from repro.clight import ast as cl
from repro.errors import DynamicError, MemoryError_, UndefinedBehaviorError
from repro.events.stream import Consumer, StreamOutcome
from repro.events.trace import Behavior, CallEvent, Event, ReturnEvent
from repro.memory import Memory
from repro.memory.values import VFloat, VInt, VPtr, VUndef, Value
from repro.runtime import call_external

DEFAULT_FUEL = 2_000_000


# ---------------------------------------------------------------------------
# Continuations
# ---------------------------------------------------------------------------


class Kont:
    __slots__ = ()


class Kstop(Kont):
    __slots__ = ()


class Kseq(Kont):
    __slots__ = ("stmt", "next")

    def __init__(self, stmt: cl.Stmt, next_: Kont) -> None:
        self.stmt = stmt
        self.next = next_


class Kloop1(Kont):
    """Executing the loop body; continue jumps to the post statement."""

    __slots__ = ("body", "post", "next")

    def __init__(self, body: cl.Stmt, post: cl.Stmt, next_: Kont) -> None:
        self.body = body
        self.post = post
        self.next = next_


class Kloop2(Kont):
    """Executing the post statement; afterwards the loop re-enters."""

    __slots__ = ("body", "post", "next")

    def __init__(self, body: cl.Stmt, post: cl.Stmt, next_: Kont) -> None:
        self.body = body
        self.post = post
        self.next = next_


class Kblock(Kont):
    __slots__ = ("next",)

    def __init__(self, next_: Kont) -> None:
        self.next = next_


class Kcall(Kont):
    """A stack frame: where to resume in the caller."""

    __slots__ = ("dest", "function", "temps", "stackblocks", "next")

    def __init__(self, dest: Optional[str], function: str,
                 temps: dict, stackblocks: dict, next_: Kont) -> None:
        self.dest = dest
        self.function = function
        self.temps = temps
        self.stackblocks = stackblocks
        self.next = next_


# ---------------------------------------------------------------------------
# Global environment and expression evaluation
# ---------------------------------------------------------------------------


class GlobalEnv:
    """Globals allocated in memory, plus the function table (Sigma, Delta)."""

    def __init__(self, program: cl.Program, memory: Memory) -> None:
        self.program = program
        self.memory = memory
        self.globals: dict[str, VPtr] = {
            var.name: ptr for var, ptr in zip(
                program.globals, memory.alloc_globals(program.globals))}


def eval_expr(expr: cl.Expr, temps: dict, stackblocks: dict,
              genv: GlobalEnv) -> Value:
    """Big-step evaluation of a pure Clight expression."""
    if isinstance(expr, cl.EConstInt):
        return VInt(expr.value)
    if isinstance(expr, cl.EConstFloat):
        return VFloat(expr.value)
    if isinstance(expr, cl.ETemp):
        return temps.get(expr.name, VUndef())
    if isinstance(expr, cl.EAddrGlobal):
        try:
            return genv.globals[expr.name]
        except KeyError:
            raise UndefinedBehaviorError(
                f"unknown global {expr.name!r}") from None
    if isinstance(expr, cl.EAddrStack):
        try:
            return stackblocks[expr.name]
        except KeyError:
            raise UndefinedBehaviorError(
                f"unknown stack variable {expr.name!r}") from None
    if isinstance(expr, cl.ELoad):
        addr = eval_expr(expr.addr, temps, stackblocks, genv)
        if not isinstance(addr, VPtr):
            raise MemoryError_(f"load through non-pointer {addr!r}")
        return genv.memory.load(expr.chunk, addr)
    if isinstance(expr, cl.EUnop):
        return ops.eval_unop(expr.op, eval_expr(expr.arg, temps, stackblocks, genv))
    if isinstance(expr, cl.EBinop):
        left = eval_expr(expr.left, temps, stackblocks, genv)
        right = eval_expr(expr.right, temps, stackblocks, genv)
        return ops.eval_binop(expr.op, left, right)
    raise DynamicError(f"unknown expression {type(expr).__name__}")


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------


class ClightMachine:
    """Small-step executor for one Clight program."""

    def __init__(self, program: cl.Program, output: Optional[list] = None) -> None:
        self.program = program
        self.memory = Memory()
        self.genv = GlobalEnv(program, self.memory)
        self.output = output
        # Current activation.
        self.stmt: cl.Stmt = cl.SSkip()
        self.kont: Kont = Kstop()
        self.temps: dict[str, Value] = {}
        self.stackblocks: dict[str, VPtr] = {}
        self.current_function: Optional[str] = None
        self.return_code: Optional[int] = None
        self.done = False

    # -- program entry ---------------------------------------------------------

    def enter_main(self) -> Event:
        main = self.program.function(self.program.main)
        if main.params:
            raise DynamicError("main with parameters is not supported")
        return self._enter_function(main, [], dest=None, kont=Kstop())

    def _enter_function(self, function: cl.Function, args: list[Value],
                        dest: Optional[str], kont: Kont) -> Event:
        if len(args) != len(function.params):
            raise UndefinedBehaviorError(
                f"{function.name} expects {len(function.params)} args, "
                f"got {len(args)}")
        new_temps: dict[str, Value] = {}
        for name, value in zip(function.params, args):
            new_temps[name] = value
        new_blocks: dict[str, VPtr] = {}
        for var in function.stackvars:
            new_blocks[var.name] = self.memory.alloc(
                var.size, tag=f"{function.name}.{var.name}")
        call_kont = Kcall(dest, self.current_function or "", self.temps,
                          self.stackblocks, kont)
        self.temps = new_temps
        self.stackblocks = new_blocks
        self.current_function = function.name
        self.stmt = function.body
        self.kont = call_kont
        return CallEvent(function.name)

    # -- one step ----------------------------------------------------------------

    def step(self) -> Optional[Event]:
        """Perform one small step; returns the emitted event, if any."""
        stmt = self.stmt
        if isinstance(stmt, cl.SSkip):
            return self._step_skip()
        if isinstance(stmt, cl.SSeq):
            self.stmt = stmt.first
            self.kont = Kseq(stmt.second, self.kont)
            return None
        if isinstance(stmt, cl.SSet):
            self.temps[stmt.temp] = self._eval(stmt.expr)
            self.stmt = cl.SSkip()
            return None
        if isinstance(stmt, cl.SStore):
            addr = self._eval(stmt.addr)
            value = self._eval(stmt.value)
            if not isinstance(addr, VPtr):
                raise MemoryError_(f"store through non-pointer {addr!r}")
            self.memory.store(stmt.chunk, addr, stmt.chunk.normalize(value))
            self.stmt = cl.SSkip()
            return None
        if isinstance(stmt, cl.SIf):
            cond = self._eval(stmt.cond)
            self.stmt = stmt.then if cond.is_true() else stmt.otherwise
            return None
        if isinstance(stmt, cl.SLoop):
            self.stmt = stmt.body
            self.kont = Kloop1(stmt.body, stmt.post, self.kont)
            return None
        if isinstance(stmt, cl.SBlock):
            self.stmt = stmt.body
            self.kont = Kblock(self.kont)
            return None
        if isinstance(stmt, cl.SBreak):
            return self._step_break()
        if isinstance(stmt, cl.SContinue):
            return self._step_continue()
        if isinstance(stmt, cl.SReturn):
            value = self._eval(stmt.value) if stmt.value is not None else None
            return self._do_return(value)
        if isinstance(stmt, cl.SCall):
            return self._step_call(stmt)
        raise DynamicError(f"unknown statement {type(stmt).__name__}")

    def _eval(self, expr: cl.Expr) -> Value:
        return eval_expr(expr, self.temps, self.stackblocks, self.genv)

    def _step_skip(self) -> Optional[Event]:
        kont = self.kont
        if isinstance(kont, Kseq):
            self.stmt = kont.stmt
            self.kont = kont.next
            return None
        if isinstance(kont, Kloop1):
            self.stmt = kont.post
            self.kont = Kloop2(kont.body, kont.post, kont.next)
            return None
        if isinstance(kont, Kloop2):
            self.stmt = cl.SLoop(kont.body, kont.post)
            self.kont = kont.next
            return None
        if isinstance(kont, Kblock):
            self.kont = kont.next
            return None
        if isinstance(kont, Kcall):
            # Fall through the end of a function body: return no value.
            return self._do_return(None)
        assert isinstance(kont, Kstop)
        self.done = True
        self.return_code = 0
        return None

    def _step_break(self) -> Optional[Event]:
        kont = self.kont
        while isinstance(kont, Kseq):
            kont = kont.next
        if isinstance(kont, (Kloop1, Kloop2, Kblock)):
            self.stmt = cl.SSkip()
            self.kont = kont.next
            return None
        raise DynamicError("break outside of a loop or block")

    def _step_continue(self) -> Optional[Event]:
        kont = self.kont
        while isinstance(kont, (Kseq, Kblock)):
            kont = kont.next
        if isinstance(kont, Kloop1):
            self.stmt = kont.post
            self.kont = Kloop2(kont.body, kont.post, kont.next)
            return None
        raise DynamicError("continue outside of a loop body")

    def _do_return(self, value: Optional[Value]) -> Event:
        assert self.current_function is not None
        function_name = self.current_function
        for ptr in self.stackblocks.values():
            self.memory.free(ptr)
        kont = self.kont
        while not isinstance(kont, (Kcall, Kstop)):
            kont = kont.next
        if isinstance(kont, Kstop):
            raise DynamicError("return with a corrupt continuation")
        event = ReturnEvent(function_name)
        if isinstance(kont.next, Kstop):
            # The outermost function returned: the program converges.
            self.done = True
            if kont.dest is not None:
                kont.temps[kont.dest] = value if value is not None else VUndef()
            if value is None:
                value = VInt(0)
            self.return_code = value.signed if isinstance(value, VInt) else 0
            return event
        self.temps = kont.temps
        self.stackblocks = kont.stackblocks
        self.current_function = kont.function
        if kont.dest is not None:
            self.temps[kont.dest] = value if value is not None else VUndef()
        self.stmt = cl.SSkip()
        self.kont = kont.next
        return event

    def _step_call(self, stmt: cl.SCall) -> Optional[Event]:
        args = [self._eval(arg) for arg in stmt.args]
        if self.program.is_internal(stmt.callee):
            function = self.program.function(stmt.callee)
            self.stmt = cl.SSkip()
            return self._enter_function(function, args, stmt.dest, self.kont)
        result, event = call_external(
            stmt.callee, args,
            alloc=lambda size: self.memory.alloc(size, tag="malloc"),
            output=self.output)
        if stmt.dest is not None:
            self.temps[stmt.dest] = result
        self.stmt = cl.SSkip()
        return event


def _start(program: cl.Program, sink: Consumer,
           output: Optional[list]) -> ClightMachine:
    machine = ClightMachine(program, output=output)
    sink(machine.enter_main())
    return machine


def _start_decoded(program: cl.Program, sink: Consumer,
                   output: Optional[list]):
    from repro.clight import decode
    return decode.start(program, sink, output)


def run_streamed(program: cl.Program, sink: Consumer,
                 fuel: int = DEFAULT_FUEL, output: Optional[list] = None,
                 engine: Optional[str] = None) -> StreamOutcome:
    """Run ``program``, pushing every event into ``sink`` as it is emitted.

    This is the streaming entry point: consumers (pruned-trace matchers,
    weight folds, plain ``list.append``) see the events without the
    interpreter materializing a trace.  ``engine`` is ``"decoded"`` (the
    default, :mod:`repro.clight.decode`) or ``"legacy"`` (this module's
    statement-tree step loop, the differential oracle); both produce the
    same events, outcome classification and step counts by construction,
    and :func:`repro.engines.run` runs and classifies both.
    """
    return engines.run("Clight", program, sink, fuel, output, engine,
                       _start, _start_decoded)


def run_program(program: cl.Program, fuel: int = DEFAULT_FUEL,
                output: Optional[list] = None,
                engine: Optional[str] = None) -> Behavior:
    """Run ``program`` from ``main`` and classify the result as a behavior."""
    trace: list[Event] = []
    outcome = run_streamed(program, trace.append, fuel, output=output,
                           engine=engine)
    return outcome.to_behavior(trace)


def run_call(program: cl.Program, function_name: str, args: list[Value],
             fuel: int = DEFAULT_FUEL) -> tuple[Behavior, Optional[Value]]:
    """Run a single function call (used by the logic's soundness tests).

    Returns the behavior of the call together with the returned value when
    the call converges.
    """
    result_holder: dict[str, Value] = {}

    def start(sink: Consumer) -> ClightMachine:
        machine = ClightMachine(program)
        machine.temps = result_holder
        sink(machine._enter_function(program.function(function_name), args,
                                     "$result", Kstop()))
        return machine

    trace: list[Event] = []
    outcome = engines.drive(start, trace.append, fuel)
    return (outcome.to_behavior(trace),
            result_holder.get("$result") if outcome.converged else None)
