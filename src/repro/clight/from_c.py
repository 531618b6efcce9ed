"""Lowering from the typed C AST to Clight (paper §4.1).

This pass plays the role of CompCert's ``SimplExpr``/``SimplLocals``:

* C expressions, which may contain side effects (assignments, calls,
  ``++``/``--``, short-circuit operators), are compiled into *pure* Clight
  expressions plus a prefix of effectful statements;
* scalar locals whose address is never taken become pure temporaries;
  everything else (arrays, structs, address-taken scalars, and the copies
  of address-taken parameters) becomes a ``StackVar`` allocated in memory
  at function entry;
* all C-level operator overloading is resolved into the explicit machine
  operators of :mod:`repro.ops` (signedness, float variants, pointer
  scaling);
* ``while``/``do``/``for`` become CompCert-style ``SLoop``; ``switch``
  becomes a ``SBlock`` over an if-chain with duplicated fall-through
  suffixes.
"""

from __future__ import annotations

import math
import struct as _struct
from typing import Optional

from repro import ops
from repro.analyzer.values import FPResolution, resolve_function_pointers
from repro.c import ast as c
from repro.c import types as ct
from repro.c.typecheck import ProgramEnv
from repro.clight import ast as cl
from repro.errors import LoweringError, StaticError, UnsupportedFeatureError
from repro.memory.chunks import Chunk
from repro.memory.values import VFloat

_Effects = list  # list[cl.Stmt]


def clight_of_program(program: c.Program, env: ProgramEnv) -> cl.Program:
    """Lower a type-checked C program to Clight."""
    # Resolve indirect calls to finite candidate sets first: the lowering
    # compiles each one into a fid-comparison dispatch over its candidates
    # so that the Clight call graph is entirely direct.
    fp = resolve_function_pointers(program, env)
    globals_ = [_lower_global(decl) for decl in program.globals]
    functions = [_FnLowerer(function, env, fp).lower()
                 for function in program.functions]
    return cl.Program(globals_, functions, env.externals.keys())


# ---------------------------------------------------------------------------
# Globals: constant evaluation into byte images
# ---------------------------------------------------------------------------


def _lower_global(decl: c.GlobalDecl) -> cl.GlobalVar:
    size = decl.ctype.size
    image = bytearray(size)
    if decl.init is not None:
        _fill_image(image, 0, decl.ctype, decl.init)
    return cl.GlobalVar(decl.name, size, max(decl.ctype.alignment, 1),
                        bytes(image))


def _fill_image(image: bytearray, offset: int, ctype: ct.CType,
                init: c.Initializer) -> None:
    if isinstance(init, c.InitScalar):
        value = _const_value(init.expr)
        chunk = ctype.chunk()
        if chunk.is_float:
            image[offset:offset + 8] = _struct.pack("<d", float(value))
        else:
            image[offset:offset + chunk.size] = chunk.encode_int(int(value))
        return
    assert isinstance(init, c.InitList)
    if isinstance(ctype, ct.TArray):
        for index, item in enumerate(init.items):
            _fill_image(image, offset + index * ctype.element.size,
                        ctype.element, item)
        return
    if isinstance(ctype, ct.TStruct):
        for item, field in zip(init.items, ctype.fields):
            _fill_image(image, offset + field.offset, field.ctype, item)
        return
    if len(init.items) == 1:
        _fill_image(image, offset, ctype, init.items[0])
        return
    raise LoweringError(f"bad initializer shape for {ctype}")


def _const_value(expr: c.Expr):
    """Evaluate a constant expression (for global initializers)."""
    if isinstance(expr, c.IntLit):
        return expr.value
    if isinstance(expr, c.CharLit):
        return expr.value
    if isinstance(expr, c.FloatLit):
        return expr.value
    if isinstance(expr, c.SizeOf):
        target = expr.arg_type if expr.arg_type is not None else expr.arg_expr.ty
        return target.size
    if isinstance(expr, c.Cast):
        inner = _const_value(expr.operand)
        target = expr.target_type
        if target.is_pointer:
            if int(inner) == 0:
                return 0  # the NULL pointer constant
            raise UnsupportedFeatureError(
                "global pointer initializers other than NULL are not "
                "supported", expr.loc)
        if target.is_float:
            return float(inner)
        if target.is_integer:
            assert isinstance(target, ct.TInt)
            if isinstance(inner, float) and not math.isfinite(inner):
                raise StaticError(
                    f"conversion of {inner!r} to an integer is undefined",
                    expr.loc)
            value = int(inner)
            mask = (1 << (8 * target.width)) - 1
            value &= mask
            if target.signed and value > mask >> 1:
                value -= mask + 1
            return value
        raise UnsupportedFeatureError(
            "non-arithmetic constant cast in global initializer", expr.loc)
    if isinstance(expr, c.Unary):
        inner = _const_value(expr.operand)
        if expr.op == "-":
            return -inner
        if expr.op == "+":
            return inner
        if expr.op == "~":
            return ~int(inner)
        if expr.op == "!":
            return 0 if inner else 1
    if isinstance(expr, c.Binary):
        left = _const_value(expr.left)
        right = _const_value(expr.right)
        if expr.op == "/" and (isinstance(left, float)
                               or isinstance(right, float)):
            return ops.eval_binop("divf", VFloat(float(left)),
                                  VFloat(float(right))).value
        if expr.op in ("/", "%") and right == 0:
            raise StaticError("division by zero in a constant expression",
                              expr.loc)
        if expr.op in ("<<", ">>") and right < 0:
            raise StaticError("negative shift count in a constant "
                              "expression", expr.loc)
        table = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "/": lambda: int(left) // int(right),
            "%": lambda: int(left) % int(right),
            "<<": lambda: int(left) << int(right),
            ">>": lambda: int(left) >> int(right),
            "&": lambda: int(left) & int(right),
            "|": lambda: int(left) | int(right),
            "^": lambda: int(left) ^ int(right),
        }
        if expr.op in table:
            return table[expr.op]()
    raise UnsupportedFeatureError(
        "global initializers must be constant expressions", expr.loc)


# ---------------------------------------------------------------------------
# Function lowering
# ---------------------------------------------------------------------------


class _FnLowerer:
    def __init__(self, function: c.FunctionDef, env: ProgramEnv,
                 fp: Optional[FPResolution] = None) -> None:
        self.function = function
        self.env = env
        self.fp = fp if fp is not None else FPResolution({}, 0)
        self.locals_types: dict[str, ct.CType] = function.locals_types  # type: ignore[attr-defined]
        self.addressable: set[str] = function.addressable  # type: ignore[attr-defined]
        self.param_copies: set[str] = function.param_copies  # type: ignore[attr-defined]
        self.temps: list[str] = []
        self.float_temps: set[str] = set()
        self._fresh_counter = 0

    # -- entry point ----------------------------------------------------------

    def lower(self) -> cl.Function:
        function = self.function
        params: list[str] = []
        param_is_float: list[bool] = []
        prologue: _Effects = []
        stackvars: list[cl.StackVar] = []

        for name, ctype in self.locals_types.items():
            if name in self.addressable:
                stackvars.append(cl.StackVar(name, ctype.size,
                                             max(ctype.alignment, 1)))
            else:
                self._register_temp(name, ctype.is_float)

        for param in function.params:
            if param.name in self.param_copies:
                incoming = f"{param.name}$in"
                self._register_temp(incoming, param.ctype.is_float)
                params.append(incoming)
                prologue.append(cl.SStore(
                    param.ctype.chunk(), cl.EAddrStack(param.name),
                    cl.ETemp(incoming)))
            else:
                params.append(param.name)
            param_is_float.append(param.ctype.is_float)

        body = self.lower_stmt(function.body)
        if function.name == "main" and not isinstance(function.result, ct.TVoid):
            body = cl.seq(body, cl.SReturn(cl.EConstInt(0)))
        full_body = cl.seq(*prologue, body)
        return cl.Function(
            function.name, params, self.temps, stackvars, full_body,
            returns_float=function.result.is_float,
            param_is_float=param_is_float,
            float_temps=self.float_temps)

    def _register_temp(self, name: str, is_float: bool) -> None:
        if name not in self.temps:
            self.temps.append(name)
        if is_float:
            self.float_temps.add(name)

    def _fresh(self, is_float: bool) -> str:
        self._fresh_counter += 1
        name = f"$t{self._fresh_counter}"
        self._register_temp(name, is_float)
        return name

    # -- statements -------------------------------------------------------------

    def lower_stmt(self, stmt: c.Stmt) -> cl.Stmt:
        if isinstance(stmt, c.SSkip):
            return cl.SSkip()
        if isinstance(stmt, c.SBlock):
            return cl.seq(*[self.lower_stmt(child) for child in stmt.body])
        if isinstance(stmt, c.SDecl):
            return self._lower_decl(stmt)
        if isinstance(stmt, c.SDeclGroup):
            return cl.seq(*[self._lower_decl(decl) for decl in stmt.decls])
        if isinstance(stmt, c.SExpr):
            effects, _expr, _ty = self.rvalue(stmt.expr)
            return cl.seq(*effects)
        if isinstance(stmt, c.SIf):
            effects, cond, _ = self.rvalue(stmt.cond)
            then = self.lower_stmt(stmt.then)
            otherwise = (self.lower_stmt(stmt.otherwise)
                         if stmt.otherwise is not None else cl.SSkip())
            return cl.seq(*effects, cl.SIf(cond, then, otherwise))
        if isinstance(stmt, c.SWhile):
            return self._lower_while(stmt)
        if isinstance(stmt, c.SDoWhile):
            return self._lower_do_while(stmt)
        if isinstance(stmt, c.SFor):
            return self._lower_for(stmt)
        if isinstance(stmt, c.SSwitch):
            return self._lower_switch(stmt)
        if isinstance(stmt, c.SBreak):
            return cl.SBreak()
        if isinstance(stmt, c.SContinue):
            return cl.SContinue()
        if isinstance(stmt, c.SReturn):
            if stmt.value is None:
                return cl.SReturn(None)
            effects, value, _ = self.rvalue(stmt.value)
            return cl.seq(*effects, cl.SReturn(value))
        raise LoweringError(f"unknown statement {type(stmt).__name__}")

    def _lower_decl(self, stmt: c.SDecl) -> cl.Stmt:
        if stmt.init is None:
            return cl.SSkip()
        if stmt.name in self.addressable:
            return cl.seq(*self._init_stores(
                cl.EAddrStack(stmt.name), 0, stmt.ctype, stmt.init,
                zero_fill=isinstance(stmt.init, c.InitList)))
        assert isinstance(stmt.init, c.InitScalar)
        effects, value, _ = self.rvalue(stmt.init.expr)
        return cl.seq(*effects, cl.SSet(stmt.name, value))

    def _init_stores(self, base: cl.Expr, offset: int, ctype: ct.CType,
                     init: Optional[c.Initializer], zero_fill: bool) -> _Effects:
        """Stores initializing an addressable local, zero-filling gaps of
        brace-initialized aggregates (C99 6.7.8p21)."""
        out: _Effects = []
        if init is None:
            if not zero_fill:
                return out
            if isinstance(ctype, ct.TArray):
                for index in range(ctype.length):
                    out.extend(self._init_stores(
                        base, offset + index * ctype.element.size,
                        ctype.element, None, True))
                return out
            if isinstance(ctype, ct.TStruct):
                for field in ctype.fields:
                    out.extend(self._init_stores(
                        base, offset + field.offset, field.ctype, None, True))
                return out
            zero: cl.Expr = (cl.EConstFloat(0.0) if ctype.is_float
                             else cl.EConstInt(0))
            out.append(cl.SStore(ctype.chunk(), _addr_plus(base, offset), zero))
            return out
        if isinstance(init, c.InitScalar):
            effects, value, _ = self.rvalue(init.expr)
            out.extend(effects)
            out.append(cl.SStore(ctype.chunk(), _addr_plus(base, offset), value))
            return out
        assert isinstance(init, c.InitList)
        if isinstance(ctype, ct.TArray):
            for index in range(ctype.length):
                item = init.items[index] if index < len(init.items) else None
                out.extend(self._init_stores(
                    base, offset + index * ctype.element.size,
                    ctype.element, item, True))
            return out
        if isinstance(ctype, ct.TStruct):
            for index, field in enumerate(ctype.fields):
                item = init.items[index] if index < len(init.items) else None
                out.extend(self._init_stores(
                    base, offset + field.offset, field.ctype, item, True))
            return out
        if len(init.items) == 1:
            return self._init_stores(base, offset, ctype, init.items[0], zero_fill)
        raise LoweringError("bad initializer shape")

    def _lower_while(self, stmt: c.SWhile) -> cl.Stmt:
        effects, cond, _ = self.rvalue(stmt.cond)
        guard = cl.seq(*effects,
                       cl.SIf(cond, cl.SSkip(), cl.SBreak()))
        body = self.lower_stmt(stmt.body)
        return cl.SLoop(cl.seq(guard, body), cl.SSkip())

    def _lower_do_while(self, stmt: c.SDoWhile) -> cl.Stmt:
        body = self.lower_stmt(stmt.body)
        effects, cond, _ = self.rvalue(stmt.cond)
        post = cl.seq(*effects, cl.SIf(cond, cl.SSkip(), cl.SBreak()))
        return cl.SLoop(body, post)

    def _lower_for(self, stmt: c.SFor) -> cl.Stmt:
        init = self.lower_stmt(stmt.init) if stmt.init is not None else cl.SSkip()
        if stmt.cond is not None:
            effects, cond, _ = self.rvalue(stmt.cond)
            guard = cl.seq(*effects, cl.SIf(cond, cl.SSkip(), cl.SBreak()))
        else:
            guard = cl.SSkip()
        body = self.lower_stmt(stmt.body)
        if stmt.step is not None:
            step_effects, _value, _ = self.rvalue(stmt.step)
            post = cl.seq(*step_effects)
        else:
            post = cl.SSkip()
        return cl.seq(init, cl.SLoop(cl.seq(guard, body), post))

    def _lower_switch(self, stmt: c.SSwitch) -> cl.Stmt:
        effects, scrutinee, scrutinee_ty = self.rvalue(stmt.scrutinee)
        temp = self._fresh(False)
        effects = list(effects) + [cl.SSet(temp, scrutinee)]
        # Build the fall-through suffixes from the last case backwards.
        lowered = [cl.seq(*[self.lower_stmt(s) for s in stmts])
                   for _value, stmts in stmt.cases]
        suffixes: list[cl.Stmt] = [cl.SSkip()] * len(lowered)
        for index in range(len(lowered) - 1, -1, -1):
            following = suffixes[index + 1] if index + 1 < len(lowered) else cl.SSkip()
            suffixes[index] = cl.seq(lowered[index], following)
        # Dispatch: compare in order; `default` is the final else branch.
        default_branch: cl.Stmt = cl.SSkip()
        for index, (value, _stmts) in enumerate(stmt.cases):
            if value is None:
                default_branch = suffixes[index]
        chain: cl.Stmt = default_branch
        for index in range(len(stmt.cases) - 1, -1, -1):
            value, _stmts = stmt.cases[index]
            if value is None:
                continue
            test = cl.EBinop("cmp_eq", cl.ETemp(temp), cl.EConstInt(value))
            chain = cl.SIf(test, suffixes[index], chain)
        return cl.seq(*effects, cl.SBlock(chain))

    # -- lvalues ------------------------------------------------------------------

    def lvalue(self, expr: c.Expr) -> tuple[_Effects, cl.Expr, ct.CType]:
        """Lower an lvalue to (effects, address expression, inherent type)."""
        if isinstance(expr, c.Name):
            return self._lvalue_name(expr)
        if isinstance(expr, c.Index):
            return self._lvalue_index(expr)
        if isinstance(expr, c.Member):
            return self._lvalue_member(expr)
        if isinstance(expr, c.Unary) and expr.op == "*":
            effects, addr, ptr_ty = self.rvalue(expr.operand)
            assert isinstance(ptr_ty, ct.TPointer)
            return effects, addr, ptr_ty.target
        raise LoweringError(f"not an lvalue: {type(expr).__name__}")

    def _lvalue_name(self, expr: c.Name) -> tuple[_Effects, cl.Expr, ct.CType]:
        if expr.binding == "global":
            return [], cl.EAddrGlobal(expr.ident), self.env.globals[expr.ident]
        ctype = self.locals_types[expr.ident]
        if expr.ident in self.addressable:
            return [], cl.EAddrStack(expr.ident), ctype
        raise LoweringError(
            f"address of non-addressable temp {expr.ident!r}")

    def _lvalue_index(self, expr: c.Index) -> tuple[_Effects, cl.Expr, ct.CType]:
        base_effects, base, base_ty = self.rvalue(expr.base)
        index_effects, index, _ = self.rvalue(expr.index)
        (base_effects, base), (index_effects, index) = self._protect2(
            (base_effects, base, False), (index_effects, index, False))
        assert isinstance(base_ty, ct.TPointer)
        element = base_ty.target
        scaled = _scale_index(index, element.size)
        return (base_effects + index_effects,
                cl.EBinop("add", base, scaled), element)

    def _lvalue_member(self, expr: c.Member) -> tuple[_Effects, cl.Expr, ct.CType]:
        if expr.through_pointer:
            effects, base, ptr_ty = self.rvalue(expr.base)
            assert isinstance(ptr_ty, ct.TPointer)
            struct = ptr_ty.target
        else:
            effects, base, struct = self.lvalue(expr.base)
        assert isinstance(struct, ct.TStruct)
        field = struct.field(expr.field)
        return effects, _addr_plus(base, field.offset), field.ctype

    # -- rvalues ------------------------------------------------------------------

    def rvalue(self, expr: c.Expr) -> tuple[_Effects, cl.Expr, ct.CType]:
        """Lower an expression used for its value.

        Returns (effects, pure expression, C type after decay).
        """
        if isinstance(expr, c.IntLit):
            ty = ct.UINT if expr.unsigned_suffix or expr.value > ct.MAX_INT_LIT_SIGNED else ct.INT
            return [], cl.EConstInt(expr.value), ty
        if isinstance(expr, c.CharLit):
            return [], cl.EConstInt(expr.value), ct.INT
        if isinstance(expr, c.FloatLit):
            return [], cl.EConstFloat(expr.value), ct.DOUBLE
        if isinstance(expr, c.SizeOf):
            target = expr.arg_type if expr.arg_type is not None else expr.arg_expr.ty
            return [], cl.EConstInt(target.size), ct.UINT
        if isinstance(expr, c.Name) and expr.binding == "function":
            # A function designator used as a value: its fid constant.
            return ([], cl.EConstInt(self.fp.fid(expr.ident)),
                    ct.TPointer(self.env.functions[expr.ident]))
        if isinstance(expr, c.Name) and expr.binding == "local" \
                and expr.ident not in self.addressable:
            return [], cl.ETemp(expr.ident), self.locals_types[expr.ident]
        if isinstance(expr, (c.Name, c.Index, c.Member)) or (
                isinstance(expr, c.Unary) and expr.op == "*"):
            effects, addr, ctype = self.lvalue(expr)
            if isinstance(ctype, ct.TArray):
                return effects, addr, ct.TPointer(ctype.element)
            if isinstance(ctype, ct.TStruct):
                raise UnsupportedFeatureError(
                    "struct value used outside member access", expr.loc)
            return effects, cl.ELoad(ctype.chunk(), addr), ctype
        if isinstance(expr, c.Unary):
            return self._rvalue_unary(expr)
        if isinstance(expr, c.IncDec):
            return self._rvalue_incdec(expr)
        if isinstance(expr, c.Binary):
            return self._rvalue_binary(expr)
        if isinstance(expr, c.Logical):
            return self._rvalue_logical(expr)
        if isinstance(expr, c.Conditional):
            return self._rvalue_conditional(expr)
        if isinstance(expr, c.Assign):
            return self._rvalue_assign(expr)
        if isinstance(expr, c.Call):
            return self._rvalue_call(expr)
        if isinstance(expr, c.Cast):
            return self._rvalue_cast(expr)
        if isinstance(expr, c.Comma):
            left_effects, _value, _ = self.rvalue(expr.left)
            right_effects, value, ty = self.rvalue(expr.right)
            return left_effects + right_effects, value, ty
        raise LoweringError(f"unknown expression {type(expr).__name__}")

    def _rvalue_unary(self, expr: c.Unary) -> tuple[_Effects, cl.Expr, ct.CType]:
        if expr.op == "&":
            if isinstance(expr.operand, c.Name) \
                    and expr.operand.binding == "function":
                return self.rvalue(expr.operand)  # &f is the same as f
            effects, addr, ctype = self.lvalue(expr.operand)
            return effects, addr, ct.TPointer(ctype)
        effects, value, ty = self.rvalue(expr.operand)
        if expr.op == "+":
            return effects, value, ty
        if expr.op == "-":
            op = "negf" if ty.is_float else "neg"
            return effects, cl.EUnop(op, value), ty
        if expr.op == "~":
            return effects, cl.EUnop("notint", value), ty
        if expr.op == "!":
            if ty.is_float:
                test = cl.EBinop("cmpf_eq", value, cl.EConstFloat(0.0))
                return effects, test, ct.INT
            return effects, cl.EUnop("notbool", value), ct.INT
        raise LoweringError(f"unary {expr.op}")

    def _rvalue_incdec(self, expr: c.IncDec) -> tuple[_Effects, cl.Expr, ct.CType]:
        target = expr.operand
        delta = 1 if expr.op == "++" else -1
        ty = expr.ty
        assert ty is not None
        # Plain temporary: operate directly on the temp.
        if isinstance(target, c.Name) and target.binding == "local" \
                and target.ident not in self.addressable:
            temp = target.ident
            old = cl.ETemp(temp)
            new = self._apply_delta(old, ty, delta)
            if expr.is_prefix:
                return [cl.SSet(temp, new)], cl.ETemp(temp), ty
            saved = self._fresh(ty.is_float)
            return ([cl.SSet(saved, old), cl.SSet(temp, new)],
                    cl.ETemp(saved), ty)
        effects, addr, ctype = self.lvalue(target)
        addr_temp = self._fresh(False)
        effects = effects + [cl.SSet(addr_temp, addr)]
        loaded = cl.ELoad(ctype.chunk(), cl.ETemp(addr_temp))
        old_temp = self._fresh(ctype.is_float)
        effects.append(cl.SSet(old_temp, loaded))
        new = self._apply_delta(cl.ETemp(old_temp), ctype, delta)
        new_temp = self._fresh(ctype.is_float)
        effects.append(cl.SSet(new_temp, new))
        effects.append(cl.SStore(ctype.chunk(), cl.ETemp(addr_temp),
                                 cl.ETemp(new_temp)))
        result = new_temp if expr.is_prefix else old_temp
        return effects, cl.ETemp(result), ctype

    def _apply_delta(self, value: cl.Expr, ctype: ct.CType, delta: int) -> cl.Expr:
        if isinstance(ctype, ct.TPointer):
            return cl.EBinop("add", value,
                             cl.EConstInt(delta * ctype.target.size))
        if ctype.is_float:
            op = "addf" if delta > 0 else "subf"
            return cl.EBinop(op, value, cl.EConstFloat(1.0))
        raw = cl.EBinop("add", value, cl.EConstInt(delta))
        return _narrow(raw, ctype)

    def _rvalue_binary(self, expr: c.Binary) -> tuple[_Effects, cl.Expr, ct.CType]:
        left_effects, left, left_ty = self.rvalue(expr.left)
        right_effects, right, right_ty = self.rvalue(expr.right)
        (left_effects, left), (right_effects, right) = self._protect2(
            (left_effects, left, left_ty.is_float),
            (right_effects, right, right_ty.is_float))
        effects = left_effects + right_effects
        op = expr.op
        result_ty = expr.ty
        assert result_ty is not None

        # Pointer arithmetic.
        if isinstance(left_ty, ct.TPointer) and op in ("+", "-") \
                and right_ty.is_integer:
            scaled = _scale_index(right, left_ty.target.size)
            clight_op = "add" if op == "+" else "sub"
            return effects, cl.EBinop(clight_op, left, scaled), left_ty
        if isinstance(right_ty, ct.TPointer) and op == "+" and left_ty.is_integer:
            scaled = _scale_index(left, right_ty.target.size)
            return effects, cl.EBinop("add", right, scaled), right_ty
        if isinstance(left_ty, ct.TPointer) and isinstance(right_ty, ct.TPointer):
            if op == "-":
                diff = cl.EBinop("sub", left, right)
                size = left_ty.target.size
                if size != 1:
                    diff = cl.EBinop("divs", diff, cl.EConstInt(size))
                return effects, diff, ct.INT
            return (effects,
                    cl.EBinop(_pointer_compare_op(op), left, right), ct.INT)
        if isinstance(left_ty, ct.TPointer) or isinstance(right_ty, ct.TPointer):
            # pointer vs NULL comparison (checker guaranteed legality)
            return (effects,
                    cl.EBinop(_pointer_compare_op(op), left, right), ct.INT)

        operand_ty = left_ty  # checker converted both sides to a common type
        clight_op = _select_binop(op, operand_ty)
        return effects, cl.EBinop(clight_op, left, right), result_ty

    def _rvalue_logical(self, expr: c.Logical) -> tuple[_Effects, cl.Expr, ct.CType]:
        result = self._fresh(False)
        left_effects, left, _ = self.rvalue(expr.left)
        right_effects, right, right_ty = self.rvalue(expr.right)
        if right_ty.is_float:
            truthy: cl.Expr = cl.EBinop("cmpf_ne", right, cl.EConstFloat(0.0))
        else:
            truthy = cl.EUnop("notbool", cl.EUnop("notbool", right))
        set_from_right = cl.seq(
            *right_effects, cl.SSet(result, truthy))
        if expr.op == "&&":
            stmt = cl.SIf(left, set_from_right,
                          cl.SSet(result, cl.EConstInt(0)))
        else:
            stmt = cl.SIf(left, cl.SSet(result, cl.EConstInt(1)),
                          set_from_right)
        return left_effects + [stmt], cl.ETemp(result), ct.INT

    def _rvalue_conditional(self, expr: c.Conditional) -> tuple[_Effects, cl.Expr, ct.CType]:
        ty = expr.ty
        assert ty is not None
        result = self._fresh(ty.is_float)
        cond_effects, cond, _ = self.rvalue(expr.cond)
        then_effects, then_value, _ = self.rvalue(expr.then)
        else_effects, else_value, _ = self.rvalue(expr.otherwise)
        stmt = cl.SIf(cond,
                      cl.seq(*then_effects, cl.SSet(result, then_value)),
                      cl.seq(*else_effects, cl.SSet(result, else_value)))
        return cond_effects + [stmt], cl.ETemp(result), ty

    def _rvalue_assign(self, expr: c.Assign) -> tuple[_Effects, cl.Expr, ct.CType]:
        target = expr.target
        target_ty = expr.ty
        assert target_ty is not None

        if expr.op == "=":
            value_effects, value, _ = self.rvalue(expr.value)
            return self._store_to(target, target_ty, value_effects, value)

        # Compound assignment: target = (T)((C)target op (C)value).
        binary_op = expr.op[:-1]
        value_effects, value, value_ty = self.rvalue(expr.value)

        if isinstance(target_ty, ct.TPointer):
            scaled = _scale_index(value, target_ty.target.size)
            make_new = lambda old: cl.EBinop(
                "add" if binary_op == "+" else "sub", old, scaled)
            return self._update_target(target, target_ty, value_effects, make_new)

        if binary_op in ("<<", ">>"):
            common = ct.integer_promotion(target_ty)
        else:
            common = ct.usual_arithmetic_conversion(target_ty, value_ty)
        clight_op = _select_binop(binary_op, common)
        converted_value = _convert(value, value_ty, common)

        def make_new(old: cl.Expr) -> cl.Expr:
            widened = _convert(old, target_ty, common)
            raw = cl.EBinop(clight_op, widened, converted_value)
            return _convert(raw, common, target_ty)

        return self._update_target(target, target_ty, value_effects, make_new)

    def _store_to(self, target: c.Expr, target_ty: ct.CType,
                  value_effects: _Effects, value: cl.Expr
                  ) -> tuple[_Effects, cl.Expr, ct.CType]:
        if isinstance(target, c.Name) and target.binding == "local" \
                and target.ident not in self.addressable:
            narrowed = _narrow(value, target_ty)
            effects = value_effects + [cl.SSet(target.ident, narrowed)]
            return effects, cl.ETemp(target.ident), target_ty
        addr_effects, addr, ctype = self.lvalue(target)
        (addr_effects, addr), (value_effects, value) = self._protect2(
            (addr_effects, addr, False),
            (value_effects, value, target_ty.is_float))
        saved = self._fresh(target_ty.is_float)
        effects = addr_effects + value_effects + [
            cl.SSet(saved, value),
            cl.SStore(ctype.chunk(), addr, cl.ETemp(saved)),
        ]
        return effects, cl.ETemp(saved), target_ty

    def _update_target(self, target: c.Expr, target_ty: ct.CType,
                       value_effects: _Effects, make_new
                       ) -> tuple[_Effects, cl.Expr, ct.CType]:
        """Read-modify-write for compound assignment and similar forms."""
        if isinstance(target, c.Name) and target.binding == "local" \
                and target.ident not in self.addressable:
            temp = target.ident
            new = make_new(cl.ETemp(temp))
            effects = value_effects + [cl.SSet(temp, new)]
            return effects, cl.ETemp(temp), target_ty
        addr_effects, addr, ctype = self.lvalue(target)
        addr_temp = self._fresh(False)
        effects = addr_effects + [cl.SSet(addr_temp, addr)] + value_effects
        loaded = cl.ELoad(ctype.chunk(), cl.ETemp(addr_temp))
        new_temp = self._fresh(target_ty.is_float)
        effects.append(cl.SSet(new_temp, make_new(loaded)))
        effects.append(cl.SStore(ctype.chunk(), cl.ETemp(addr_temp),
                                 cl.ETemp(new_temp)))
        return effects, cl.ETemp(new_temp), target_ty

    def _rvalue_call(self, expr: c.Call) -> tuple[_Effects, cl.Expr, ct.CType]:
        if expr.indirect:
            return self._rvalue_indirect_call(expr)
        signature = self.env.function_type(expr.callee)
        effects: _Effects = []
        arg_parts: list[tuple[_Effects, cl.Expr, bool]] = []
        for arg in expr.args:
            arg_effects, value, arg_ty = self.rvalue(arg)
            arg_parts.append((arg_effects, value, arg_ty.is_float))
        protected = self._protect(arg_parts)
        arg_exprs: list[cl.Expr] = []
        for arg_effects, value in protected:
            effects.extend(arg_effects)
            arg_exprs.append(value)
        result_ty = signature.result
        if isinstance(result_ty, ct.TVoid):
            effects.append(cl.SCall(None, expr.callee, arg_exprs))
            return effects, cl.EConstInt(0), ct.INT
        dest = self._fresh(result_ty.is_float)
        effects.append(cl.SCall(dest, expr.callee, arg_exprs))
        return effects, cl.ETemp(dest), result_ty

    def _rvalue_indirect_call(self, expr: c.Call
                              ) -> tuple[_Effects, cl.Expr, ct.CType]:
        """Devirtualize ``fp(args)`` into a fid-comparison dispatch.

        The value analysis annotated the call with its finite candidate
        set, so the lowering emits

            if (fp == fid(f1)) d = f1(args);
            else if (fp == fid(f2)) d = f2(args);
            else loop {} // unreachable: fp holds one of the candidates

        leaving a fully *direct* call graph: the automatic analyzer
        prices the dispatch as the max over the candidates through the
        ordinary ``DIf``/``DCall`` rules, and the derivation stays
        checkable with no new logic.  The dead else-arm costs no stack.
        """
        signature = expr.signature
        candidates = expr.fp_candidates
        assert signature is not None and candidates, \
            "indirect call not annotated by the value analysis"
        parts: list[tuple[_Effects, cl.Expr, bool]] = []
        fp_effects, fp_value, _ = self.rvalue(expr.callee_expr)
        parts.append((fp_effects, fp_value, False))
        for arg in expr.args:
            arg_effects, value, arg_ty = self.rvalue(arg)
            parts.append((arg_effects, value, arg_ty.is_float))
        protected = self._protect(parts)
        effects: _Effects = []
        values: list[cl.Expr] = []
        for part_effects, value in protected:
            effects.extend(part_effects)
            values.append(value)
        fp_value, arg_exprs = values[0], values[1:]
        result_ty = signature.result
        dest: Optional[str] = None
        if not isinstance(result_ty, ct.TVoid):
            dest = self._fresh(result_ty.is_float)
        # The else-arm of the last comparison is unreachable (the value
        # analysis over-approximates the pointer's targets); an empty
        # loop keeps it both event-free and stack-free.
        dispatch: cl.Stmt = cl.SLoop(cl.SSkip(), cl.SSkip())
        for name in reversed(candidates):
            test = cl.EBinop("cmp_eq", fp_value,
                             cl.EConstInt(self.fp.fid(name)))
            dispatch = cl.SIf(test, cl.SCall(dest, name, list(arg_exprs)),
                              dispatch)
        effects.append(dispatch)
        if dest is None:
            return effects, cl.EConstInt(0), ct.INT
        return effects, cl.ETemp(dest), result_ty

    def _rvalue_cast(self, expr: c.Cast) -> tuple[_Effects, cl.Expr, ct.CType]:
        effects, value, from_ty = self.rvalue(expr.operand)
        target = expr.target_type
        if isinstance(target, ct.TVoid):
            return effects, cl.EConstInt(0), ct.INT
        return effects, _convert(value, from_ty, target), target

    # -- evaluation-order protection ----------------------------------------------

    def _protect(self, parts: list[tuple[_Effects, cl.Expr, bool]]
                 ) -> list[tuple[_Effects, cl.Expr]]:
        """Stash each value into a temp if a *later* part has effects.

        Keeps left-to-right evaluation observable: a pure expression must
        not be re-evaluated after a later side effect may have changed the
        temps or memory it reads.
        """
        out: list[tuple[_Effects, cl.Expr]] = []
        for index, (effects, value, is_float) in enumerate(parts):
            later_effects = any(parts[j][0] for j in range(index + 1, len(parts)))
            if later_effects and not _is_trivially_stable(value):
                temp = self._fresh(is_float)
                out.append((effects + [cl.SSet(temp, value)], cl.ETemp(temp)))
            else:
                out.append((effects, value))
        return out

    def _protect2(self, first: tuple[_Effects, cl.Expr, bool],
                  second: tuple[_Effects, cl.Expr, bool]):
        protected = self._protect([first, second])
        return protected[0], protected[1]


# ---------------------------------------------------------------------------
# Pure helpers
# ---------------------------------------------------------------------------


def _addr_plus(base: cl.Expr, offset: int) -> cl.Expr:
    if offset == 0:
        return base
    return cl.EBinop("add", base, cl.EConstInt(offset))


def _scale_index(index: cl.Expr, size: int) -> cl.Expr:
    if size == 1:
        return index
    if isinstance(index, cl.EConstInt):
        return cl.EConstInt(index.value * size)
    return cl.EBinop("mul", index, cl.EConstInt(size))


def _is_trivially_stable(expr: cl.Expr) -> bool:
    return isinstance(expr, (cl.EConstInt, cl.EConstFloat, cl.EAddrGlobal,
                             cl.EAddrStack))


def _narrow(value: cl.Expr, ctype: ct.CType) -> cl.Expr:
    """Re-normalize a 32-bit value into a narrow integer type's range."""
    if isinstance(ctype, ct.TInt) and ctype.width < 4:
        op = {
            (1, True): "cast8signed",
            (1, False): "cast8unsigned",
            (2, True): "cast16signed",
            (2, False): "cast16unsigned",
        }[(ctype.width, ctype.signed)]
        return cl.EUnop(op, value)
    return value


def _convert(value: cl.Expr, from_ty: ct.CType, to_ty: ct.CType) -> cl.Expr:
    """Compile a C conversion into explicit Clight operators."""
    if from_ty == to_ty:
        return value
    if isinstance(to_ty, ct.TPointer):
        return value  # pointer-to-pointer or literal 0
    if to_ty.is_float:
        if from_ty.is_float:
            return value
        assert isinstance(from_ty, ct.TInt)
        op = "floatofint" if from_ty.signed or from_ty.width < 4 \
            else "floatofuint"
        return cl.EUnop(op, value)
    assert isinstance(to_ty, ct.TInt)
    if from_ty.is_float:
        op = "intoffloat" if to_ty.signed else "uintoffloat"
        truncated = cl.EUnop(op, value)
        return _narrow(truncated, to_ty)
    # int -> int: only narrowing needs work (values are 32-bit normalized)
    return _narrow(value, to_ty)


def _select_binop(op: str, operand_ty: ct.CType) -> str:
    if operand_ty.is_float:
        table = {"+": "addf", "-": "subf", "*": "mulf", "/": "divf",
                 "==": "cmpf_eq", "!=": "cmpf_ne", "<": "cmpf_lt",
                 "<=": "cmpf_le", ">": "cmpf_gt", ">=": "cmpf_ge"}
        return table[op]
    assert isinstance(operand_ty, ct.TInt)
    signed = operand_ty.signed
    table = {
        "+": "add", "-": "sub", "*": "mul",
        "/": "divs" if signed else "divu",
        "%": "mods" if signed else "modu",
        "&": "and", "|": "or", "^": "xor",
        "<<": "shl", ">>": "shrs" if signed else "shru",
        "==": "cmp_eq", "!=": "cmp_ne",
        "<": "cmp_lts" if signed else "cmp_ltu",
        "<=": "cmp_les" if signed else "cmp_leu",
        ">": "cmp_gts" if signed else "cmp_gtu",
        ">=": "cmp_ges" if signed else "cmp_geu",
    }
    return table[op]


def _pointer_compare_op(op: str) -> str:
    table = {"==": "cmp_eq", "!=": "cmp_ne", "<": "cmp_ltu",
             "<=": "cmp_leu", ">": "cmp_gtu", ">=": "cmp_geu"}
    return table[op]
