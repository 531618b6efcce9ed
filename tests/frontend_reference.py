"""The C frontend's hot loops as they were before precedence climbing:
a test oracle for the differential frontend tests.

Kept verbatim from the version the scanner pattern, the precedence-
climbing parser and the explicit-stack walk replaced:

* the lexer's character-at-a-time comment stripper (``_splice_lines``)
  and line scanner (``_tokenize_line``, with its ``_scan_number``, which
  lets ``int()`` raise ``ValueError`` on a malformed literal);
* the parser's ``min()``-clamped ``_peek``, its ``_next``-based
  ``_accept_op`` and ``_expect_op``, and the ten-level recursive
  ``_parse_binary``;
* the value analysis's generator-per-level ``_walk``.

The directive handler is copied too, because it calls the line scanner;
macro expansion, character literals, statements, declarations, unary and
postfix expressions are shared with :mod:`repro.c`, so a difference the
tests find is in the replaced code.  ``token_tuples`` and ``ast_dump``
make the outputs comparable.  Not part of the package: nothing outside
``tests/`` and the CI speed floor imports it.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from repro.c import ast
from repro.c import types as ct
from repro.c.lexer import KEYWORDS, OPERATORS, Token, _expand, _scan_char
from repro.c.parser import _Parser
from repro.errors import LexError, ParseError, SourceLocation

_OPERATOR_RE = re.compile("|".join(map(re.escape, OPERATORS)))


def reference_tokenize(source: str, filename: str = "<string>",
                       predefined_macros: Optional[dict[str, str]] = None
                       ) -> list[Token]:
    macros: dict[str, list[Token]] = {}
    if predefined_macros:
        for name, replacement in predefined_macros.items():
            macros[name] = _tokenize_line(str(replacement), filename, 0)
    out: list[Token] = []
    active_stack: list[bool] = []
    for line_no, line in enumerate(_splice_lines(source), start=1):
        stripped = line.lstrip()
        if stripped.startswith("#"):
            _preprocess_directive(stripped, filename, line_no, macros,
                                  active_stack)
            continue
        if active_stack and not all(active_stack):
            continue
        out.extend(_expand(_tokenize_line(line, filename, line_no), macros,
                           filename, line_no))
    if active_stack:
        raise LexError("unterminated #if block", SourceLocation(filename, 0, 0))
    out.append(Token("eof", "", None, SourceLocation(filename, 0, 0)))
    return out


def reference_parse(source: str, filename: str = "<string>",
                    macros: Optional[dict[str, str]] = None) -> ast.Program:
    return ReferenceParser(
        reference_tokenize(source, filename, macros)).parse_program()


def _splice_lines(source: str) -> Iterator[str]:
    chars: list[str] = []
    i = 0
    n = len(source)
    while i < n:
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexError("unterminated block comment")
            chars.extend(ch for ch in source[i:end + 2] if ch == "\n")
            i = end + 2
        elif source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
        else:
            chars.append(source[i])
            i += 1
    text = "".join(chars)
    pending = ""
    for raw_line in text.split("\n"):
        if raw_line.endswith("\\"):
            pending += raw_line[:-1] + " "
            yield ""
            continue
        yield pending + raw_line
        pending = ""
    if pending:
        yield pending


def _preprocess_directive(line: str, filename: str, line_no: int,
                          macros: dict[str, list[Token]],
                          active_stack: list[bool]) -> None:
    loc = SourceLocation(filename, line_no, 1)
    body = line[1:].strip()
    if not body:
        return
    directive, _, rest = body.partition(" ")
    rest = rest.strip()
    if directive in ("ifdef", "ifndef"):
        name = rest.split()[0] if rest else ""
        defined = name in macros
        active_stack.append(defined if directive == "ifdef" else not defined)
        return
    if directive == "else":
        if not active_stack:
            raise LexError("#else without #if", loc)
        active_stack[-1] = not active_stack[-1]
        return
    if directive == "endif":
        if not active_stack:
            raise LexError("#endif without #if", loc)
        active_stack.pop()
        return
    if active_stack and not all(active_stack):
        return
    if directive == "include":
        return
    if directive == "define":
        name, _, replacement = rest.partition(" ")
        if not name:
            raise LexError("#define without a name", loc)
        if "(" in name:
            raise LexError(
                f"function-like macro {name!r} is not supported", loc)
        macros[name] = _tokenize_line(replacement.strip(), filename, line_no)
        return
    if directive == "undef":
        macros.pop(rest.split()[0] if rest else "", None)
        return
    raise LexError(f"unsupported preprocessor directive #{directive}", loc)


def _tokenize_line(line: str, filename: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in " \t\r\f\v":
            i += 1
            continue
        loc = SourceLocation(filename, line_no, i + 1)
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (line[i].isalnum() or line[i] == "_"):
                i += 1
            text = line[start:i]
            kind = "keyword" if text in KEYWORDS else "id"
            tokens.append(Token(kind, text, text, loc))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and line[i + 1].isdigit()):
            token, i = _scan_number(line, i, loc)
            tokens.append(token)
            continue
        if ch == "'":
            token, i = _scan_char(line, i, loc)
            tokens.append(token)
            continue
        if ch == '"':
            raise LexError("string literals are not supported", loc)
        match = _OPERATOR_RE.match(line, i)
        if match is None:
            raise LexError(f"unexpected character {ch!r}", loc)
        op = match.group()
        tokens.append(Token("op", op, op, loc))
        i = match.end()
    return tokens


def _scan_number(line: str, i: int, loc: SourceLocation) -> tuple[Token, int]:
    n = len(line)
    start = i
    is_float = False
    if line.startswith(("0x", "0X"), i):
        i += 2
        while i < n and (line[i] in "0123456789abcdefABCDEF"):
            i += 1
        text = line[start:i]
        value = int(text, 16)
    else:
        while i < n and line[i].isdigit():
            i += 1
        if i < n and line[i] == ".":
            is_float = True
            i += 1
            while i < n and line[i].isdigit():
                i += 1
        if i < n and line[i] in "eE":
            peek = i + 1
            if peek < n and line[peek] in "+-":
                peek += 1
            if peek < n and line[peek].isdigit():
                is_float = True
                i = peek
                while i < n and line[i].isdigit():
                    i += 1
        text = line[start:i]
        if is_float:
            value = float(text)
        else:
            value = int(text, 8) if text.startswith("0") and len(text) > 1 else int(text)
    unsigned_suffix = False
    while i < n and line[i] in "uUlLfF":
        if line[i] in "uU":
            unsigned_suffix = True
        if line[i] in "fF" and not is_float:
            break
        i += 1
    if is_float:
        return Token("float", line[start:i], float(value), loc), i
    token = Token("int", line[start:i], int(value), loc)
    if unsigned_suffix:
        token.kind = "uint"
    return token, i


class ReferenceParser(_Parser):
    """The parser with its replaced token accessors and binary ladder."""

    _PRECEDENCE: list[list[str]] = [
        ["||"], ["&&"], ["|"], ["^"], ["&"],
        ["==", "!="], ["<", "<=", ">", ">="],
        ["<<", ">>"], ["+", "-"], ["*", "/", "%"],
    ]

    def _peek(self, ahead: int = 0) -> Token:
        index = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _expect_op(self, text: str) -> Token:
        token = self._next()
        if not token.is_op(text):
            raise ParseError(f"expected {text!r}, found {token.text!r}",
                             token.loc)
        return token

    def _accept_op(self, text: str) -> bool:
        if self._peek().is_op(text):
            self._next()
            return True
        return False

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(self._PRECEDENCE):
            return self._parse_unary()
        ops = self._PRECEDENCE[level]
        left = self._parse_binary(level + 1)
        while self._peek().kind == "op" and self._peek().text in ops:
            token = self._next()
            right = self._parse_binary(level + 1)
            if token.text in ("&&", "||"):
                left = ast.Logical(token.text, left, right, token.loc)
            else:
                left = ast.Binary(token.text, left, right, token.loc)
        return left


def reference_walk(node: ast.Node):
    yield node
    for slot in _slots(type(node)):
        value = getattr(node, slot, None)
        if isinstance(value, ast.Node):
            yield from reference_walk(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, ast.Node):
                    yield from reference_walk(item)
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, list):
                            for child in sub:
                                if isinstance(child, ast.Node):
                                    yield from reference_walk(child)
                        elif isinstance(sub, ast.Node):
                            yield from reference_walk(sub)


def _slots(cls) -> list[str]:
    slots: list[str] = []
    for klass in cls.__mro__:
        slots.extend(getattr(klass, "__slots__", ()))
    return slots


def token_tuples(tokens) -> list[tuple]:
    return [(t.kind, t.text, t.value, repr(t.loc)) for t in tokens]


def ast_dump(node, out: list) -> list:
    """A flat, comparable dump of everything the parser built, over
    ``__slots__``; C types are printed by name (a struct can point to
    itself)."""
    if isinstance(node, (ast.Node, ast.ParamDecl)):
        out.append(type(node).__name__)
        for klass in type(node).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                out.append(slot)
                ast_dump(getattr(node, slot, None), out)
    elif isinstance(node, (list, tuple)):
        out.append(len(node))
        for item in node:
            ast_dump(item, out)
    elif isinstance(node, dict):
        for key, value in node.items():
            out.append(key)
            ast_dump(value, out)
    elif isinstance(node, ct.CType):
        out.append(f"{type(node).__name__}:{node}")
    else:
        out.append(repr(node))
    return out
