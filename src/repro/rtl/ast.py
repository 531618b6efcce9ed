"""RTL abstract syntax.

A function body is a graph ``node -> instruction``; every instruction
names its successor node(s).  Virtual registers are integers; the
function records which registers hold floats (the two register classes of
the IA32-like target).

Operations of :class:`Iop` are encoded as tuples:

* ``("const", n)`` — 32-bit integer constant;
* ``("constf", x)`` — float constant;
* ``("addrglobal", name)`` — address of a global;
* ``("addrstack", offset)`` — address of the merged frame block + offset;
* ``("move",)`` — register copy;
* ``("unop", op)`` / ``("binop", op)`` — operators of :mod:`repro.ops`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.clight.ast import GlobalVar
from repro.memory.chunks import Chunk

Reg = int
Node = int


class Instr:
    __slots__ = ()

    def successors(self) -> tuple[Node, ...]:
        raise NotImplementedError

    def uses(self) -> tuple[Reg, ...]:
        return ()

    def defs(self) -> tuple[Reg, ...]:
        return ()

    def with_successors(self, succs: Sequence[Node]) -> "Instr":
        raise NotImplementedError


class Inop(Instr):
    __slots__ = ("succ",)

    def __init__(self, succ: Node) -> None:
        self.succ = succ

    def successors(self) -> tuple[Node, ...]:
        return (self.succ,)

    def with_successors(self, succs):
        return Inop(succs[0])

    def __repr__(self) -> str:
        return f"nop -> {self.succ}"


class Iop(Instr):
    __slots__ = ("op", "args", "dest", "succ")

    def __init__(self, op: tuple, args: Sequence[Reg], dest: Reg,
                 succ: Node) -> None:
        self.op = op
        self.args = tuple(args)
        self.dest = dest
        self.succ = succ

    def successors(self) -> tuple[Node, ...]:
        return (self.succ,)

    def uses(self) -> tuple[Reg, ...]:
        return self.args

    def defs(self) -> tuple[Reg, ...]:
        return (self.dest,)

    def with_successors(self, succs):
        return Iop(self.op, self.args, self.dest, succs[0])

    def __repr__(self) -> str:
        args = ", ".join(f"r{a}" for a in self.args)
        return f"r{self.dest} = {self.op}({args}) -> {self.succ}"


class Iload(Instr):
    __slots__ = ("chunk", "addr", "dest", "succ")

    def __init__(self, chunk: Chunk, addr: Reg, dest: Reg, succ: Node) -> None:
        self.chunk = chunk
        self.addr = addr
        self.dest = dest
        self.succ = succ

    def successors(self) -> tuple[Node, ...]:
        return (self.succ,)

    def uses(self) -> tuple[Reg, ...]:
        return (self.addr,)

    def defs(self) -> tuple[Reg, ...]:
        return (self.dest,)

    def with_successors(self, succs):
        return Iload(self.chunk, self.addr, self.dest, succs[0])

    def __repr__(self) -> str:
        return f"r{self.dest} = load {self.chunk.value} [r{self.addr}] -> {self.succ}"


class Istore(Instr):
    __slots__ = ("chunk", "addr", "src", "succ")

    def __init__(self, chunk: Chunk, addr: Reg, src: Reg, succ: Node) -> None:
        self.chunk = chunk
        self.addr = addr
        self.src = src
        self.succ = succ

    def successors(self) -> tuple[Node, ...]:
        return (self.succ,)

    def uses(self) -> tuple[Reg, ...]:
        return (self.addr, self.src)

    def with_successors(self, succs):
        return Istore(self.chunk, self.addr, self.src, succs[0])

    def __repr__(self) -> str:
        return f"store {self.chunk.value} [r{self.addr}] = r{self.src} -> {self.succ}"


class Icall(Instr):
    __slots__ = ("dest", "callee", "args", "succ")

    def __init__(self, dest: Optional[Reg], callee: str,
                 args: Sequence[Reg], succ: Node) -> None:
        self.dest = dest
        self.callee = callee
        self.args = tuple(args)
        self.succ = succ

    def successors(self) -> tuple[Node, ...]:
        return (self.succ,)

    def uses(self) -> tuple[Reg, ...]:
        return self.args

    def defs(self) -> tuple[Reg, ...]:
        return (self.dest,) if self.dest is not None else ()

    def with_successors(self, succs):
        return Icall(self.dest, self.callee, self.args, succs[0])

    def __repr__(self) -> str:
        dest = f"r{self.dest} = " if self.dest is not None else ""
        args = ", ".join(f"r{a}" for a in self.args)
        return f"{dest}{self.callee}({args}) -> {self.succ}"


class Icond(Instr):
    """Branch on the truthiness of one (integer-class) register."""

    __slots__ = ("arg", "ifso", "ifnot")

    def __init__(self, arg: Reg, ifso: Node, ifnot: Node) -> None:
        self.arg = arg
        self.ifso = ifso
        self.ifnot = ifnot

    def successors(self) -> tuple[Node, ...]:
        return (self.ifso, self.ifnot)

    def uses(self) -> tuple[Reg, ...]:
        return (self.arg,)

    def with_successors(self, succs):
        return Icond(self.arg, succs[0], succs[1])

    def __repr__(self) -> str:
        return f"if r{self.arg} -> {self.ifso} else {self.ifnot}"


class Ireturn(Instr):
    __slots__ = ("arg",)

    def __init__(self, arg: Optional[Reg]) -> None:
        self.arg = arg

    def successors(self) -> tuple[Node, ...]:
        return ()

    def uses(self) -> tuple[Reg, ...]:
        return (self.arg,) if self.arg is not None else ()

    def with_successors(self, succs):
        return self

    def __repr__(self) -> str:
        return f"return r{self.arg}" if self.arg is not None else "return"


class RTLFunction:
    def __init__(self, name: str, params: Sequence[Reg],
                 float_regs: set[Reg], stacksize: int,
                 graph: dict[Node, Instr], entry: Node, next_reg: Reg,
                 returns_float: bool, param_is_float: Sequence[bool]) -> None:
        self.name = name
        self.params = list(params)
        self.float_regs = float_regs
        self.stacksize = stacksize
        self.graph = graph
        self.entry = entry
        self.next_reg = next_reg
        self.returns_float = returns_float
        self.param_is_float = list(param_is_float)

    def fresh_reg(self, is_float: bool = False) -> Reg:
        reg = self.next_reg
        self.next_reg += 1
        if is_float:
            self.float_regs.add(reg)
        return reg

    def fork(self) -> "RTLFunction":
        """A copy whose graph, registers and parameters can be rewritten
        without touching this function's (see :meth:`RTLProgram.fork`)."""
        return RTLFunction(self.name, self.params, set(self.float_regs),
                           self.stacksize, dict(self.graph), self.entry,
                           self.next_reg, self.returns_float,
                           self.param_is_float)

    def instructions(self):
        return self.graph.items()

    def pretty(self) -> str:
        lines = [f"{self.name}(params={self.params}, stack={self.stacksize}, "
                 f"entry={self.entry})"]
        for node in sorted(self.graph, reverse=True):
            lines.append(f"  {node:4}: {self.graph[node]!r}")
        return "\n".join(lines)


class RTLProgram:
    def __init__(self, globals_: Sequence[GlobalVar],
                 functions: dict[str, RTLFunction],
                 externals: set[str], main: str = "main") -> None:
        self.globals = list(globals_)
        self.functions = dict(functions)
        self.externals = set(externals)
        self.main = main

    def fork(self) -> "RTLProgram":
        """A copy the RTL passes can rewrite without touching this program.

        The instruction objects are shared: no pass mutates one.
        Constprop, CSE and deadcode replace or delete entries of
        ``graph``, and tail-call recognition adds nodes and fresh
        registers, so a fork copies each function's ``graph``,
        ``float_regs`` and ``params`` and nothing else.
        """
        return RTLProgram(self.globals,
                          {name: function.fork()
                           for name, function in self.functions.items()},
                          self.externals, self.main)

    def is_internal(self, name: str) -> bool:
        return name in self.functions
