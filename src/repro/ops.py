"""Evaluation of the machine-level operators shared by all IRs.

Clight, Cminor and RTL all use the same explicit operator vocabulary (the
front end compiles C's overloaded operators into it), so one evaluation
module serves every interpreter.  Operators are polymorphic over pointers
the same way CompCert's are: ``add``/``sub`` perform pointer arithmetic,
``sub`` of two pointers into the same block yields their offset distance,
and comparisons are defined on pointers within one block (plus ``==``/
``!=`` against NULL).
"""

from __future__ import annotations

from typing import Callable

from repro import ints
from repro.errors import UndefinedBehaviorError
from repro.memory.values import VFloat, VInt, VPtr, VUndef, Value

UNOPS = (
    "neg", "notint", "notbool", "negf",
    "intoffloat", "uintoffloat", "floatofint", "floatofuint",
    "cast8signed", "cast8unsigned", "cast16signed", "cast16unsigned",
)

_INT_BINOPS: dict[str, Callable[[int, int], int]] = {
    "add": ints.add,
    "sub": ints.sub,
    "mul": ints.mul,
    "divs": ints.div_s,
    "divu": ints.div_u,
    "mods": ints.mod_s,
    "modu": ints.mod_u,
    "and": ints.and_,
    "or": ints.or_,
    "xor": ints.xor,
    "shl": ints.shl,
    "shrs": ints.shr_s,
    "shru": ints.shr_u,
}

_INT_COMPARES: dict[str, Callable[[int, int], int]] = {
    "cmp_eq": ints.eq,
    "cmp_ne": ints.ne,
    "cmp_lts": ints.lt_s,
    "cmp_les": ints.le_s,
    "cmp_gts": ints.gt_s,
    "cmp_ges": ints.ge_s,
    "cmp_ltu": ints.lt_u,
    "cmp_leu": ints.le_u,
    "cmp_gtu": ints.gt_u,
    "cmp_geu": ints.ge_u,
}

_FLOAT_BINOPS: dict[str, Callable[[float, float], float]] = {
    "addf": lambda a, b: a + b,
    "subf": lambda a, b: a - b,
    "mulf": lambda a, b: a * b,
}

_FLOAT_COMPARES: dict[str, Callable[[float, float], bool]] = {
    "cmpf_eq": lambda a, b: a == b,
    "cmpf_ne": lambda a, b: a != b,
    "cmpf_lt": lambda a, b: a < b,
    "cmpf_le": lambda a, b: a <= b,
    "cmpf_gt": lambda a, b: a > b,
    "cmpf_ge": lambda a, b: a >= b,
}

BINOPS = tuple(
    list(_INT_BINOPS) + list(_INT_COMPARES) + list(_FLOAT_BINOPS)
    + list(_FLOAT_COMPARES) + ["divf"]
)

# Comparison conditions reused by RTL branch instructions and assembly.
INT_CONDITIONS = ("eq", "ne", "lts", "les", "gts", "ges", "ltu", "leu",
                  "gtu", "geu")
FLOAT_CONDITIONS = ("eq", "ne", "lt", "le", "gt", "ge")


def eval_unop(op: str, value: Value) -> Value:
    if isinstance(value, VUndef):
        raise UndefinedBehaviorError(f"unop {op} on undefined value")
    if op == "neg":
        return VInt(ints.neg(_int(value, op)))
    if op == "notint":
        return VInt(ints.not_(_int(value, op)))
    if op == "notbool":
        if isinstance(value, VInt):
            return VInt(0 if value.value != 0 else 1)
        if isinstance(value, VFloat):
            return VInt(0 if value.value != 0.0 else 1)
        if isinstance(value, VPtr):
            return VInt(0)
        raise UndefinedBehaviorError(f"notbool on {value!r}")
    if op == "negf":
        return VFloat(-_float(value, op))
    if op == "intoffloat":
        return VInt(ints.of_float_signed(_float(value, op)))
    if op == "uintoffloat":
        return VInt(ints.of_float_unsigned(_float(value, op)))
    if op == "floatofint":
        return VFloat(ints.to_float_signed(_int(value, op)))
    if op == "floatofuint":
        return VFloat(ints.to_float_unsigned(_int(value, op)))
    if op == "cast8signed":
        return VInt(ints.sign_extend8(_int(value, op)))
    if op == "cast8unsigned":
        return VInt(ints.wrap8(_int(value, op)))
    if op == "cast16signed":
        return VInt(ints.sign_extend16(_int(value, op)))
    if op == "cast16unsigned":
        return VInt(ints.wrap16(_int(value, op)))
    raise UndefinedBehaviorError(f"unknown unary operator {op!r}")


def eval_binop(op: str, left: Value, right: Value) -> Value:
    if isinstance(left, VUndef) or isinstance(right, VUndef):
        raise UndefinedBehaviorError(f"binop {op} on undefined value")
    if op == "add":
        if isinstance(left, VPtr) and isinstance(right, VInt):
            return left.add(right.value)
        if isinstance(left, VInt) and isinstance(right, VPtr):
            return right.add(left.value)
        return VInt(ints.add(_int(left, op), _int(right, op)))
    if op == "sub":
        if isinstance(left, VPtr) and isinstance(right, VInt):
            return left.add(ints.neg(right.value))
        if isinstance(left, VPtr) and isinstance(right, VPtr):
            if left.block != right.block:
                raise UndefinedBehaviorError(
                    "subtraction of pointers into different blocks")
            return VInt(ints.sub(left.offset, right.offset))
        return VInt(ints.sub(_int(left, op), _int(right, op)))
    if op in _INT_BINOPS:
        return VInt(_INT_BINOPS[op](_int(left, op), _int(right, op)))
    if op in _INT_COMPARES:
        return _compare(op, left, right)
    if op in _FLOAT_BINOPS:
        return VFloat(_FLOAT_BINOPS[op](_float(left, op), _float(right, op)))
    if op == "divf":
        a, b = _float(left, op), _float(right, op)
        if b == 0.0:
            # IEEE semantics: produce inf/nan rather than going wrong,
            # matching CompCert's float division.
            if a == 0.0 or a != a:
                return VFloat(float("nan"))
            return VFloat(float("inf") if (a > 0) == (b >= 0) else float("-inf"))
        return VFloat(a / b)
    if op in _FLOAT_COMPARES:
        return VInt(1 if _FLOAT_COMPARES[op](_float(left, op), _float(right, op)) else 0)
    raise UndefinedBehaviorError(f"unknown binary operator {op!r}")


def _compare(op: str, left: Value, right: Value) -> VInt:
    if isinstance(left, VInt) and isinstance(right, VInt):
        return VInt(_INT_COMPARES[op](left.value, right.value))
    if isinstance(left, VPtr) and isinstance(right, VPtr):
        if left.block == right.block:
            return VInt(_INT_COMPARES[op](left.offset, right.offset))
        if op == "cmp_eq":
            return VInt(0)
        if op == "cmp_ne":
            return VInt(1)
        raise UndefinedBehaviorError(
            "ordered comparison of pointers into different blocks")
    # Pointer against NULL (integer zero).
    if isinstance(left, VPtr) and isinstance(right, VInt) and right.value == 0:
        if op == "cmp_eq":
            return VInt(0)
        if op == "cmp_ne":
            return VInt(1)
    if isinstance(right, VPtr) and isinstance(left, VInt) and left.value == 0:
        if op == "cmp_eq":
            return VInt(0)
        if op == "cmp_ne":
            return VInt(1)
    raise UndefinedBehaviorError(f"comparison {op} on {left!r} and {right!r}")


def _int(value: Value, op: str) -> int:
    if not isinstance(value, VInt):
        raise UndefinedBehaviorError(f"{op} expects an integer, got {value!r}")
    return value.value


def _float(value: Value, op: str) -> float:
    if not isinstance(value, VFloat):
        raise UndefinedBehaviorError(f"{op} expects a float, got {value!r}")
    return value.value
