"""Recursive-descent parser for the C subset, with precedence climbing
for binary operators.

Produces the untyped AST of :mod:`repro.c.ast`.  The parser keeps the
``typedef`` table and ``struct`` tag table it needs to disambiguate
declarations from expressions; struct types must be defined before use
(forward references are only allowed behind a pointer inside the same
struct definition, which none of the benchmarks need, so they are simply
rejected).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.c import ast
from repro.c import types as ct
from repro.c.lexer import Token, tokenize
from repro.errors import ParseError, UnsupportedFeatureError

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: Binary operators, loosest first: ``||`` and ``&&`` build ``Logical``.
_PRECEDENCE: list[list[str]] = [
    ["||"], ["&&"], ["|"], ["^"], ["&"],
    ["==", "!="], ["<", "<=", ">", ">="],
    ["<<", ">>"], ["+", "-"], ["*", "/", "%"],
]
#: Each binary operator's index in ``_PRECEDENCE``.
_BINARY_LEVEL = {op: level for level, ops in enumerate(_PRECEDENCE)
                 for op in ops}


def parse(source: str, filename: str = "<string>",
          macros: Optional[dict[str, str]] = None) -> ast.Program:
    """Parse a translation unit into an :class:`ast.Program`."""
    tokens = tokenize(source, filename, macros)
    return _Parser(tokens).parse_program()


class _Parser:
    def __init__(self, tokens: Sequence[Token]) -> None:
        self._tokens = list(tokens)
        self._pos = 0
        self._typedefs: dict[str, ct.CType] = {}
        self._structs: dict[str, ct.TStruct] = {}
        self._enum_constants: dict[str, int] = {}

    # -- token plumbing ------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        if not ahead:
            return self._tokens[self._pos]
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _expect_op(self, text: str) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "op" or token.text != text:
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.loc)
        self._pos += 1
        return token

    def _expect_keyword(self, text: str) -> Token:
        token = self._next()
        if not token.is_keyword(text):
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.loc)
        return token

    def _expect_ident(self) -> Token:
        token = self._next()
        if token.kind != "id":
            raise ParseError(f"expected identifier, found {token.text!r}", token.loc)
        return token

    def _accept_op(self, text: str) -> bool:
        token = self._tokens[self._pos]
        if token.kind == "op" and token.text == text:
            self._pos += 1
            return True
        return False

    def _accept_keyword(self, text: str) -> bool:
        if self._peek().is_keyword(text):
            self._next()
            return True
        return False

    # -- programs ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        globals_: list[ast.GlobalDecl] = []
        functions: list[ast.FunctionDef] = []
        externs: list[ast.ExternDecl] = []
        while self._peek().kind != "eof":
            if self._accept_keyword("typedef"):
                self._parse_typedef()
                continue
            if self._peek().is_keyword("struct") and self._peek(2).is_op("{"):
                # struct definition at top level: struct Tag { ... };
                self._parse_type_specifier()
                self._expect_op(";")
                continue
            if self._peek().is_keyword("enum") and (
                    self._peek(1).is_op("{") or self._peek(2).is_op("{")):
                self._parse_type_specifier()
                self._expect_op(";")
                continue
            self._parse_toplevel_decl(globals_, functions, externs)
        return ast.Program(globals_, functions, externs, self._structs)

    def _parse_typedef(self) -> None:
        base = self._parse_type_specifier()
        name_token, ctype = self._parse_declarator(base)
        self._expect_op(";")
        self._typedefs[name_token.text] = ctype

    def _parse_toplevel_decl(self, globals_: list, functions: list,
                             externs: list) -> None:
        # Storage classes and qualifiers do not affect stack bounds; an
        # extern data declaration is a zero-initialized definition (every
        # benchmark is a single file).
        while self._accept_keyword("extern") or \
                self._accept_keyword("static") or self._accept_keyword("const"):
            pass
        base = self._parse_type_specifier()
        if self._accept_op(";"):
            return  # bare struct declaration
        name_token, ctype = self._parse_declarator(base)

        if self._peek().is_op("(") or isinstance(ctype, ct.TFunction):
            # Declarator did not consume parameters only when ctype is not
            # a function; _parse_declarator handles parameter lists, so at
            # this point a TFunction means we saw `T name(params)`.
            if not isinstance(ctype, ct.TFunction):
                raise ParseError("malformed function declarator", name_token.loc)
            if self._accept_op(";"):
                externs.append(ast.ExternDecl(name_token.text, ctype, name_token.loc))
                return
            body = self._parse_block()
            params = self._pending_params
            functions.append(ast.FunctionDef(
                name_token.text, ctype.result, params, body, name_token.loc))
            return

        # Global variable(s).
        while True:
            init: Optional[ast.Initializer] = None
            if self._accept_op("="):
                init = self._parse_initializer()
            globals_.append(ast.GlobalDecl(name_token.text, ctype, init, name_token.loc))
            if self._accept_op(","):
                name_token, ctype = self._parse_declarator(base)
                continue
            self._expect_op(";")
            return

    # -- types ---------------------------------------------------------------

    def _is_type_start(self, token: Token, ahead: int = 0) -> bool:
        if token.kind == "keyword" and token.text in (
                "void", "char", "short", "int", "long", "unsigned", "signed",
                "float", "double", "struct", "enum", "const"):
            return True
        return token.kind == "id" and token.text in self._typedefs

    def _parse_type_specifier(self) -> ct.CType:
        token = self._peek()
        if token.kind == "id" and token.text in self._typedefs:
            self._next()
            return self._typedefs[token.text]
        if token.is_keyword("struct"):
            return self._parse_struct_specifier()
        if token.is_keyword("enum"):
            return self._parse_enum_specifier()
        if token.is_keyword("union"):
            raise UnsupportedFeatureError("union is not supported", token.loc)
        if token.is_keyword("const"):
            self._next()
            return self._parse_type_specifier()

        signed: Optional[bool] = None
        base: Optional[str] = None
        saw_long = 0
        while True:
            token = self._peek()
            if token.is_keyword("unsigned"):
                signed = False
            elif token.is_keyword("signed"):
                signed = True
            elif token.is_keyword("long"):
                saw_long += 1
            elif token.kind == "keyword" and token.text in (
                    "void", "char", "short", "int", "float", "double"):
                if base is not None:
                    raise ParseError("duplicate type specifier", token.loc)
                base = token.text
            elif token.is_keyword("const"):
                pass
            else:
                break
            self._next()

        if base is None and signed is None and saw_long == 0:
            raise ParseError(f"expected a type, found {self._peek().text!r}",
                             self._peek().loc)
        if saw_long > 1:
            raise UnsupportedFeatureError("long long is not supported", self._peek().loc)
        if base in (None, "int"):
            # 'unsigned', 'long', 'unsigned long' and friends: all 32-bit.
            return ct.INT if signed in (None, True) else ct.UINT
        if base == "void":
            return ct.VOID
        if base == "char":
            return ct.CHAR if signed in (None, True) else ct.UCHAR
        if base == "short":
            return ct.SHORT if signed in (None, True) else ct.USHORT
        if base in ("float", "double"):
            return ct.DOUBLE
        raise ParseError(f"cannot parse type specifier near {base!r}", self._peek().loc)

    def _parse_struct_specifier(self) -> ct.CType:
        self._expect_keyword("struct")
        tag_token = self._expect_ident()
        tag = tag_token.text
        if not self._peek().is_op("{"):
            if tag not in self._structs:
                raise UnsupportedFeatureError(
                    f"struct {tag} used before its definition", tag_token.loc)
            return self._structs[tag]
        if tag in self._structs and self._structs[tag].is_complete:
            raise ParseError(f"struct {tag} redefined", tag_token.loc)
        self._expect_op("{")
        # Register an incomplete struct so members can hold pointers to
        # the struct being defined (linked-list nodes etc.).
        struct = ct.TStruct.incomplete(tag)
        self._structs[tag] = struct
        members: list[tuple[str, ct.CType]] = []
        while not self._accept_op("}"):
            base = self._parse_type_specifier()
            while True:
                name_token, ctype = self._parse_declarator(base)
                if isinstance(ctype, ct.TFunction):
                    raise UnsupportedFeatureError(
                        "function members are not supported", name_token.loc)
                if _mentions_function_pointer(ctype):
                    # The value analysis tracks function pointers only in
                    # scalar variables; a struct member would escape it.
                    raise UnsupportedFeatureError(
                        "function-pointer struct members are not supported",
                        name_token.loc)
                members.append((name_token.text, ctype))
                if self._accept_op(","):
                    continue
                self._expect_op(";")
                break
        struct.complete(members)
        return struct

    def _parse_enum_specifier(self) -> ct.CType:
        """``enum [Tag] { A, B = const, ... }`` — enumerators become
        integer constants usable in expressions; the type is ``int``."""
        self._expect_keyword("enum")
        if self._peek().kind == "id":
            self._next()  # tag, recorded nowhere: the type is plain int
        if self._accept_op("{"):
            value = 0
            while True:
                name_token = self._expect_ident()
                if self._accept_op("="):
                    value = self._const_int(self.parse_conditional())
                if name_token.text in self._enum_constants:
                    raise ParseError(
                        f"enumerator {name_token.text!r} redefined",
                        name_token.loc)
                self._enum_constants[name_token.text] = value
                value += 1
                if self._accept_op(","):
                    if self._peek().is_op("}"):
                        break
                    continue
                break
            self._expect_op("}")
        return ct.INT

    def _parse_declarator(self, base: ct.CType) -> tuple[Token, ct.CType]:
        """Parse ``* ... name [dims] | (params)`` around a base type."""
        while self._accept_op("*"):
            base = ct.TPointer(base)
            while self._accept_keyword("const"):
                pass
        # Function-pointer declarator: ``base (*name)(params)``.
        if self._peek().is_op("(") and self._peek(1).is_op("*"):
            self._next()
            self._next()
            name_token = self._expect_ident()
            self._expect_op(")")
            self._expect_op("(")
            params, varargs = self._parse_params(allow_unnamed=True)
            if varargs:
                raise ParseError("variadic function pointers are not "
                                 "supported", name_token.loc)
            param_types = [p.ctype for p in params]
            return name_token, ct.TPointer(
                ct.TFunction(base, param_types, varargs))
        name_token = self._expect_ident()
        # Function declarator?
        if self._peek().is_op("("):
            self._next()
            params, varargs = self._parse_params()
            self._pending_params = params
            param_types = [p.ctype for p in params]
            return name_token, ct.TFunction(base, param_types, varargs)
        # Array dimensions.
        dims: list[int] = []
        while self._accept_op("["):
            size_expr = self.parse_assignment()
            self._expect_op("]")
            dims.append(self._const_int(size_expr))
        for dim in reversed(dims):
            base = ct.TArray(base, dim)
        return name_token, base

    _pending_params: list = []

    def _parse_params(self,
                      allow_unnamed: bool = False
                      ) -> tuple[list[ast.ParamDecl], bool]:
        params: list[ast.ParamDecl] = []
        varargs = False
        if self._accept_op(")"):
            return params, varargs
        if self._peek().is_keyword("void") and self._peek(1).is_op(")"):
            self._next()
            self._next()
            return params, varargs
        while True:
            if self._accept_op("..."):
                varargs = True
                self._expect_op(")")
                return params, varargs
            base = self._parse_type_specifier()
            while self._accept_op("*"):
                base = ct.TPointer(base)
            if self._peek().is_op("(") and self._peek(1).is_op("*"):
                # Function-pointer parameter: ``base (*name)(params)``.
                # The inner parameter list is abstract (names optional).
                open_token = self._next()
                self._next()
                if self._peek().is_op(")") and allow_unnamed:
                    name = ""
                    loc = open_token.loc
                else:
                    name_token = self._expect_ident()
                    name = name_token.text
                    loc = name_token.loc
                self._expect_op(")")
                self._expect_op("(")
                inner, inner_varargs = self._parse_params(allow_unnamed=True)
                if inner_varargs:
                    raise ParseError("variadic function pointers are not "
                                     "supported", loc)
                fp_type = ct.TPointer(ct.TFunction(
                    base, [p.ctype for p in inner], inner_varargs))
                params.append(ast.ParamDecl(name, fp_type))
                if self._accept_op(","):
                    continue
                self._expect_op(")")
                return params, varargs
            if allow_unnamed and not self._peek().kind == "id":
                params.append(ast.ParamDecl("", base))
                if self._accept_op(","):
                    continue
                self._expect_op(")")
                return params, varargs
            name_token = self._expect_ident()
            ctype: ct.CType = base
            if self._accept_op("["):
                # Array parameters decay to pointers; the size (possibly
                # empty) is accepted and discarded.
                if not self._peek().is_op("]"):
                    self.parse_assignment()
                self._expect_op("]")
                ctype = ct.TPointer(ctype)
            if isinstance(ctype, ct.TArray):
                ctype = ct.TPointer(ctype.element)
            params.append(ast.ParamDecl(name_token.text, ctype))
            if self._accept_op(","):
                continue
            self._expect_op(")")
            return params, varargs

    def _const_int(self, expr: ast.Expr) -> int:
        value = _fold_const(expr)
        if value is None:
            raise ParseError("expected a constant integer expression",
                             expr.loc)
        return value

    # -- initializers ----------------------------------------------------------

    def _parse_initializer(self) -> ast.Initializer:
        token = self._peek()
        if token.is_op("{"):
            self._next()
            items: list[ast.Initializer] = []
            if not self._peek().is_op("}"):
                while True:
                    items.append(self._parse_initializer())
                    if self._accept_op(","):
                        if self._peek().is_op("}"):
                            break
                        continue
                    break
            self._expect_op("}")
            return ast.InitList(items, token.loc)
        expr = self.parse_assignment()
        return ast.InitScalar(expr, expr.loc)

    # -- statements ------------------------------------------------------------

    def _parse_block(self) -> ast.SBlock:
        open_token = self._expect_op("{")
        body: list[ast.Stmt] = []
        while not self._accept_op("}"):
            body.append(self.parse_statement())
        return ast.SBlock(body, open_token.loc)

    def parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.is_op("{"):
            return self._parse_block()
        if token.is_op(";"):
            self._next()
            return ast.SSkip(token.loc)
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("do"):
            return self._parse_do_while()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("switch"):
            return self._parse_switch()
        if token.is_keyword("break"):
            self._next()
            self._expect_op(";")
            return ast.SBreak(token.loc)
        if token.is_keyword("continue"):
            self._next()
            self._expect_op(";")
            return ast.SContinue(token.loc)
        if token.is_keyword("return"):
            self._next()
            value = None if self._peek().is_op(";") else self.parse_expr()
            self._expect_op(";")
            return ast.SReturn(value, token.loc)
        if token.is_keyword("goto"):
            raise UnsupportedFeatureError("goto is not supported", token.loc)
        if self._is_type_start(token) and not token.is_op("("):
            return self._parse_local_decl()
        expr = self.parse_expr()
        self._expect_op(";")
        return ast.SExpr(expr, expr.loc)

    def _parse_local_decl(self) -> ast.Stmt:
        loc = self._peek().loc
        base = self._parse_type_specifier()
        decls: list[ast.Stmt] = []
        while True:
            name_token, ctype = self._parse_declarator(base)
            if isinstance(ctype, ct.TFunction):
                raise UnsupportedFeatureError(
                    "local function declarations are not supported",
                    name_token.loc)
            init = None
            if self._accept_op("="):
                init = self._parse_initializer()
            decls.append(ast.SDecl(name_token.text, ctype, init, name_token.loc))
            if self._accept_op(","):
                continue
            self._expect_op(";")
            break
        if len(decls) == 1:
            return decls[0]
        return ast.SDeclGroup(decls, loc)

    def _parse_if(self) -> ast.Stmt:
        token = self._expect_keyword("if")
        self._expect_op("(")
        cond = self.parse_expr()
        self._expect_op(")")
        then = self.parse_statement()
        otherwise = self.parse_statement() if self._accept_keyword("else") else None
        return ast.SIf(cond, then, otherwise, token.loc)

    def _parse_while(self) -> ast.Stmt:
        token = self._expect_keyword("while")
        self._expect_op("(")
        cond = self.parse_expr()
        self._expect_op(")")
        body = self.parse_statement()
        return ast.SWhile(cond, body, token.loc)

    def _parse_do_while(self) -> ast.Stmt:
        token = self._expect_keyword("do")
        body = self.parse_statement()
        self._expect_keyword("while")
        self._expect_op("(")
        cond = self.parse_expr()
        self._expect_op(")")
        self._expect_op(";")
        return ast.SDoWhile(body, cond, token.loc)

    def _parse_for(self) -> ast.Stmt:
        token = self._expect_keyword("for")
        self._expect_op("(")
        init: Optional[ast.Stmt] = None
        if not self._peek().is_op(";"):
            if self._is_type_start(self._peek()):
                init = self._parse_local_decl()
            else:
                expr = self.parse_expr()
                self._expect_op(";")
                init = ast.SExpr(expr, expr.loc)
        else:
            self._next()
        cond = None if self._peek().is_op(";") else self.parse_expr()
        self._expect_op(";")
        step = None if self._peek().is_op(")") else self.parse_expr()
        self._expect_op(")")
        body = self.parse_statement()
        return ast.SFor(init, cond, step, body, token.loc)

    def _parse_switch(self) -> ast.Stmt:
        token = self._expect_keyword("switch")
        self._expect_op("(")
        scrutinee = self.parse_expr()
        self._expect_op(")")
        self._expect_op("{")
        cases: list[tuple[Optional[int], list[ast.Stmt]]] = []
        current: Optional[list[ast.Stmt]] = None
        while not self._accept_op("}"):
            if self._accept_keyword("case"):
                value = self._const_int(self.parse_conditional())
                self._expect_op(":")
                current = []
                cases.append((value, current))
                continue
            if self._accept_keyword("default"):
                self._expect_op(":")
                current = []
                cases.append((None, current))
                continue
            if current is None:
                raise ParseError("statement before first case label",
                                 self._peek().loc)
            current.append(self.parse_statement())
        return ast.SSwitch(scrutinee, cases, token.loc)

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        expr = self.parse_assignment()
        while self._peek().is_op(","):
            comma = self._next()
            right = self.parse_assignment()
            expr = ast.Comma(expr, right, comma.loc)
        return expr

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_conditional()
        token = self._peek()
        if token.kind == "op" and token.text in _ASSIGN_OPS:
            self._next()
            right = self.parse_assignment()
            return ast.Assign(token.text, left, right, token.loc)
        return left

    def parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._peek().is_op("?"):
            token = self._next()
            then = self.parse_expr()
            self._expect_op(":")
            otherwise = self.parse_conditional()
            return ast.Conditional(cond, then, otherwise, token.loc)
        return cond

    def _parse_binary(self, level: int) -> ast.Expr:
        """Precedence climbing: every operator at ``level`` or tighter
        takes a right operand one level tighter (left-associative)."""
        left = self._parse_unary()
        while True:
            token = self._tokens[self._pos]   # only an op spells an operator
            op_level = _BINARY_LEVEL.get(token.text, -1)
            if op_level < level:
                return left
            self._pos += 1
            right = self._parse_binary(op_level + 1)
            if op_level < 2:  # "||" and "&&"
                left = ast.Logical(token.text, left, right, token.loc)
            else:
                left = ast.Binary(token.text, left, right, token.loc)

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "op" and token.text in ("-", "+", "~", "!", "&", "*"):
            self._next()
            operand = self._parse_unary()
            return ast.Unary(token.text, operand, token.loc)
        if token.is_op("++") or token.is_op("--"):
            self._next()
            operand = self._parse_unary()
            return ast.IncDec(token.text, operand, True, token.loc)
        if token.is_keyword("sizeof"):
            self._next()
            if self._peek().is_op("(") and self._is_type_start(self._peek(1)):
                self._next()
                arg_type = self._parse_abstract_type()
                self._expect_op(")")
                return ast.SizeOf(arg_type, None, token.loc)
            operand = self._parse_unary()
            return ast.SizeOf(None, operand, token.loc)
        if token.is_op("(") and self._is_type_start(self._peek(1)):
            self._next()
            target_type = self._parse_abstract_type()
            self._expect_op(")")
            operand = self._parse_unary()
            return ast.Cast(target_type, operand, token.loc)
        return self._parse_postfix()

    def _parse_abstract_type(self) -> ct.CType:
        base = self._parse_type_specifier()
        while self._accept_op("*"):
            base = ct.TPointer(base)
        return base

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_op("["):
                self._next()
                index = self.parse_expr()
                self._expect_op("]")
                expr = ast.Index(expr, index, token.loc)
            elif token.is_op("."):
                self._next()
                field = self._expect_ident()
                expr = ast.Member(expr, field.text, False, token.loc)
            elif token.is_op("->"):
                self._next()
                field = self._expect_ident()
                expr = ast.Member(expr, field.text, True, token.loc)
            elif token.is_op("++") or token.is_op("--"):
                self._next()
                expr = ast.IncDec(token.text, expr, False, token.loc)
            elif token.is_op("("):
                if (isinstance(expr, ast.Unary) and expr.op == "*"
                        and isinstance(expr.operand, ast.Name)):
                    # ``(*fp)(args)`` is the same call as ``fp(args)``.
                    expr = expr.operand
                if not isinstance(expr, ast.Name):
                    raise UnsupportedFeatureError(
                        "calls through arbitrary expressions are not "
                        "supported (only named function pointers)", token.loc)
                self._next()
                args: list[ast.Expr] = []
                if not self._peek().is_op(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if self._accept_op(","):
                            continue
                        break
                self._expect_op(")")
                expr = ast.Call(expr.ident, args, token.loc)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._next()
        if token.kind == "int":
            return ast.IntLit(token.value, False, token.loc)
        if token.kind == "uint":
            return ast.IntLit(token.value, True, token.loc)
        if token.kind == "float":
            return ast.FloatLit(token.value, token.loc)
        if token.kind == "char":
            return ast.CharLit(token.value, token.loc)
        if token.kind == "id":
            if token.text in self._enum_constants:
                return ast.IntLit(self._enum_constants[token.text], False,
                                  token.loc)
            return ast.Name(token.text, token.loc)
        if token.is_op("("):
            expr = self.parse_expr()
            self._expect_op(")")
            return expr
        raise ParseError(f"unexpected token {token.text!r}", token.loc)


# ---------------------------------------------------------------------------
# Constant folding for array sizes and case labels
# ---------------------------------------------------------------------------


def _mentions_function_pointer(ctype: ct.CType) -> bool:
    if isinstance(ctype, ct.TPointer):
        return isinstance(ctype.target, ct.TFunction) or \
            _mentions_function_pointer(ctype.target)
    if isinstance(ctype, ct.TArray):
        return _mentions_function_pointer(ctype.element)
    return False


def _fold_const(expr: ast.Expr) -> Optional[int]:
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.CharLit):
        return expr.value
    if isinstance(expr, ast.Unary):
        inner = _fold_const(expr.operand)
        if inner is None:
            return None
        if expr.op == "-":
            return -inner
        if expr.op == "+":
            return inner
        if expr.op == "~":
            return ~inner
        if expr.op == "!":
            return 0 if inner else 1
        return None
    if isinstance(expr, ast.Binary):
        left = _fold_const(expr.left)
        right = _fold_const(expr.right)
        if left is None or right is None:
            return None
        try:
            return {
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left // right if right else None,
                "%": lambda: left % right if right else None,
                "<<": lambda: left << right,
                ">>": lambda: left >> right,
                "&": lambda: left & right,
                "|": lambda: left | right,
                "^": lambda: left ^ right,
                "==": lambda: int(left == right),
                "!=": lambda: int(left != right),
                "<": lambda: int(left < right),
                "<=": lambda: int(left <= right),
                ">": lambda: int(left > right),
                ">=": lambda: int(left >= right),
            }[expr.op]()
        except KeyError:
            return None
    return None
