"""Abstract syntax of our Clight (paper §4.1, extended as noted).

Statement grammar, extending the paper's subset with ``Continue`` (the
paper lists it as an easy addition) and ``Block`` (the structured target of
the frontend's ``switch`` lowering; ``break`` exits the nearest enclosing
``Block`` *or* loop)::

    S ::= skip | x = E | store(chunk, Ea, Ev) | x = f(E*) | S1; S2
        | loop S1 S2 | block S | if (E) S1 else S2
        | break | continue | return E?

``loop S1 S2`` is CompCert's ``Sloop``: run ``S1``; ``continue`` inside
``S1`` jumps to ``S2``; after ``S1`` (or on continue) run ``S2``; then
repeat.  ``break`` in either part exits the loop.

Expressions are pure; memory reads are explicit ``ELoad`` nodes and all
operators carry their machine interpretation (no C-level overloading
remains).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.memory.chunks import Chunk


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    __slots__ = ()


class EConstInt(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"EConstInt({self.value})"


class EConstFloat(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"EConstFloat({self.value!r})"


class ETemp(Expr):
    """The value of a pure temporary (the paper's theta environment)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"ETemp({self.name})"


class EAddrGlobal(Expr):
    """The address of a global variable (looked up in Delta)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"EAddrGlobal({self.name})"


class EAddrStack(Expr):
    """The address of an addressable (memory-resident) local variable."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"EAddrStack({self.name})"


class ELoad(Expr):
    """A memory read ``load(chunk, addr)``."""

    __slots__ = ("chunk", "addr")

    def __init__(self, chunk: Chunk, addr: Expr) -> None:
        self.chunk = chunk
        self.addr = addr

    def __repr__(self) -> str:
        return f"ELoad({self.chunk.value}, {self.addr!r})"


class EUnop(Expr):
    __slots__ = ("op", "arg")

    def __init__(self, op: str, arg: Expr) -> None:
        self.op = op
        self.arg = arg

    def __repr__(self) -> str:
        return f"EUnop({self.op}, {self.arg!r})"


class EBinop(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"EBinop({self.op}, {self.left!r}, {self.right!r})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    __slots__ = ()


class SSkip(Stmt):
    __slots__ = ()

    def __repr__(self) -> str:
        return "skip"


class SSet(Stmt):
    """``temp = expr`` (pure assignment to a temporary)."""

    __slots__ = ("temp", "expr")

    def __init__(self, temp: str, expr: Expr) -> None:
        self.temp = temp
        self.expr = expr

    def __repr__(self) -> str:
        return f"{self.temp} = {self.expr!r}"


class SStore(Stmt):
    """``store(chunk, addr, value)`` (the only write to memory)."""

    __slots__ = ("chunk", "addr", "value")

    def __init__(self, chunk: Chunk, addr: Expr, value: Expr) -> None:
        self.chunk = chunk
        self.addr = addr
        self.value = value

    def __repr__(self) -> str:
        return f"store({self.chunk.value}, {self.addr!r}, {self.value!r})"


class SCall(Stmt):
    """``temp = f(args)`` — direct call; ``temp`` may be None."""

    __slots__ = ("dest", "callee", "args")

    def __init__(self, dest: Optional[str], callee: str,
                 args: Sequence[Expr]) -> None:
        self.dest = dest
        self.callee = callee
        self.args = list(args)

    def __repr__(self) -> str:
        prefix = f"{self.dest} = " if self.dest else ""
        return f"{prefix}{self.callee}({', '.join(map(repr, self.args))})"


class SSeq(Stmt):
    __slots__ = ("first", "second")

    def __init__(self, first: Stmt, second: Stmt) -> None:
        self.first = first
        self.second = second

    def __repr__(self) -> str:
        return f"({self.first!r}; {self.second!r})"


class SIf(Stmt):
    __slots__ = ("cond", "then", "otherwise")

    def __init__(self, cond: Expr, then: Stmt, otherwise: Stmt) -> None:
        self.cond = cond
        self.then = then
        self.otherwise = otherwise

    def __repr__(self) -> str:
        return f"if ({self.cond!r}) {self.then!r} else {self.otherwise!r}"


class SLoop(Stmt):
    """CompCert's ``Sloop body post`` (see module docstring)."""

    __slots__ = ("body", "post")

    def __init__(self, body: Stmt, post: Stmt) -> None:
        self.body = body
        self.post = post

    def __repr__(self) -> str:
        return f"loop {self.body!r} // {self.post!r}"


class SBlock(Stmt):
    """A break-binding block: ``break`` inside exits the block."""

    __slots__ = ("body",)

    def __init__(self, body: Stmt) -> None:
        self.body = body

    def __repr__(self) -> str:
        return f"block {self.body!r}"


class SBreak(Stmt):
    __slots__ = ()

    def __repr__(self) -> str:
        return "break"


class SContinue(Stmt):
    __slots__ = ()

    def __repr__(self) -> str:
        return "continue"


class SReturn(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr]) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"return {self.value!r}" if self.value is not None else "return"


def seq(*stmts: Stmt) -> Stmt:
    """Right-nested sequence of statements, dropping skips."""
    items = [s for s in stmts if not isinstance(s, SSkip)]
    if not items:
        return SSkip()
    result = items[-1]
    for stmt in reversed(items[:-1]):
        result = SSeq(stmt, result)
    return result


# ---------------------------------------------------------------------------
# Functions and programs
# ---------------------------------------------------------------------------


class StackVar:
    """An addressable local: allocated as a memory block at function entry."""

    __slots__ = ("name", "size", "alignment")

    def __init__(self, name: str, size: int, alignment: int) -> None:
        self.name = name
        self.size = size
        self.alignment = alignment

    def __repr__(self) -> str:
        return f"StackVar({self.name}, {self.size}b, align {self.alignment})"


class Function:
    """A Clight function.

    ``params`` are temporaries bound at entry; ``temps`` lists every
    temporary (including params and compiler-generated ones);
    ``stackvars`` are the addressable locals; ``returns_float`` drives the
    calling convention downstream.
    """

    __slots__ = ("name", "params", "temps", "stackvars", "body",
                 "returns_float", "param_is_float", "float_temps")

    def __init__(self, name: str, params: Sequence[str], temps: Sequence[str],
                 stackvars: Sequence[StackVar], body: Stmt,
                 returns_float: bool = False,
                 param_is_float: Sequence[bool] = (),
                 float_temps: Sequence[str] = ()) -> None:
        self.name = name
        self.params = list(params)
        self.temps = list(temps)
        self.stackvars = list(stackvars)
        self.body = body
        self.returns_float = returns_float
        self.param_is_float = list(param_is_float) or [False] * len(self.params)
        self.float_temps = set(float_temps)


class GlobalVar:
    """A global variable with its byte image (relocations not supported)."""

    __slots__ = ("name", "size", "alignment", "image")

    def __init__(self, name: str, size: int, alignment: int,
                 image: bytes) -> None:
        if len(image) != size:
            raise ValueError(f"image of {name} has {len(image)} bytes, "
                             f"declared size {size}")
        self.name = name
        self.size = size
        self.alignment = alignment
        self.image = image


class Program:
    __slots__ = ("globals", "functions", "externals", "main")

    def __init__(self, globals_: Sequence[GlobalVar],
                 functions: Sequence[Function],
                 externals: Sequence[str],
                 main: str = "main") -> None:
        self.globals = list(globals_)
        self.functions = {f.name: f for f in functions}
        self.externals = set(externals)
        self.main = main

    def function(self, name: str) -> Function:
        return self.functions[name]

    def is_internal(self, name: str) -> bool:
        return name in self.functions
