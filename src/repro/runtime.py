"""External (builtin) functions shared by all interpreters.

Externals follow the paper's conventions: they consume **no stack space**
(the stack-metric convention ``M(g(v |-> v)) = 0``) and, for the observable
ones, they emit an I/O event recording their arguments and result.  The
events carry plain Python numbers so that traces compare equal across
abstraction levels (block pointers at the Clight level and flat addresses
at the assembly level would otherwise differ spuriously — CompCert
sidesteps the same issue by making ``malloc`` non-observable).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro import ints
from repro.errors import DynamicError, UndefinedBehaviorError
from repro.events.trace import IOEvent
from repro.memory.values import VFloat, VInt, VPtr, Value

# name -> arity; the C signatures are repro.c.typecheck.BUILTIN_SIGNATURES.
# Each external's event (none for abort) is coded in call_external.
EXTERNAL_INFO: dict[str, int] = {
    "print_int": 1,
    "print_float": 1,
    "print_char": 1,
    "sin": 1,
    "cos": 1,
    "sqrt": 1,
    "fabs": 1,
    "floor": 1,
    "pow": 2,
    "atan": 1,
    "exp": 1,
    "log": 1,
    # malloc is observable through its *size* only: the returned pointer
    # differs between the block memory and the flat arena, so it stays
    # out of the event and trace preservation across levels is untouched.
    # The size event is what the heap-resource metric prices
    # (repro.events.heap, the paper's §8 outlook).
    "malloc": 1,
    "abort": 0,
}


def is_known_external(name: str) -> bool:
    return name in EXTERNAL_INFO


def _float_arg(name: str, value: Value) -> float:
    if not isinstance(value, VFloat):
        raise UndefinedBehaviorError(f"{name} expects a float argument")
    return value.value


def _int_arg(name: str, value: Value) -> int:
    if not isinstance(value, VInt):
        raise UndefinedBehaviorError(f"{name} expects an integer argument")
    return value.value


_MATH: dict[str, Callable[..., float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "fabs": abs,
    "floor": math.floor,
    "pow": pow,
    "atan": math.atan,
    "exp": math.exp,
    "log": math.log,
}


def call_external(name: str, args: list[Value],
                  alloc: Callable[[int], Value],
                  output: Optional[list] = None
                  ) -> tuple[Value, Optional[IOEvent]]:
    """Execute builtin ``name``.

    ``alloc`` is the level-specific allocator backing ``malloc`` (a block
    allocation at the Clight..Mach levels, an arena bump at the assembly
    level).  Returns the result value and the I/O event to emit (or None
    for non-observable externals).  ``output`` collects printed values for
    examples that want to show program output.
    """
    if name not in EXTERNAL_INFO:
        raise DynamicError(f"call to unknown external function {name!r}")
    arity = EXTERNAL_INFO[name]
    if len(args) != arity:
        raise UndefinedBehaviorError(
            f"{name} expects {arity} arguments, got {len(args)}")

    if name == "print_int":
        value = ints.to_signed(_int_arg(name, args[0]))
        if output is not None:
            output.append(value)
        return VInt(0), IOEvent(name, [value], 0)
    if name == "print_char":
        value = _int_arg(name, args[0]) & 0xFF
        if output is not None:
            output.append(chr(value))
        return VInt(0), IOEvent(name, [value], 0)
    if name == "print_float":
        value = _float_arg(name, args[0])
        if output is not None:
            output.append(value)
        return VInt(0), IOEvent(name, [value], 0)
    if name in _MATH:
        float_args = [_float_arg(name, a) for a in args]
        try:
            result = _MATH[name](*float_args)
        except ValueError:
            result = float("nan")
        except OverflowError:
            result = float("inf")
        return VFloat(result), IOEvent(name, float_args, result)
    if name == "malloc":
        size = _int_arg(name, args[0])
        return alloc(size), IOEvent(name, [size], 0)
    if name == "abort":
        raise DynamicError("abort() called")
    raise DynamicError(f"unimplemented external {name!r}")
