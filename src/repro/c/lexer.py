"""Lexer for the C subset, with a minimal preprocessor.

The preprocessor handles exactly what the benchmark sources need:

* ``#define NAME tokens`` — object-like macros, substituted by token
  splicing (recursively, with a redefinition check);
* ``#include <...>`` / ``#include "..."`` — ignored (the runtime builtins
  are predeclared by the type checker);
* ``#ifdef/#ifndef/#else/#endif`` — evaluated against the macro table.

Function-like macros, ``##``, and ``#if`` expressions are rejected.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional, Sequence

from repro.errors import LexError, SourceLocation

KEYWORDS = {
    "void", "char", "short", "int", "long", "unsigned", "signed", "float",
    "double", "struct", "union", "enum", "typedef", "extern", "static",
    "const", "volatile", "if", "else", "while", "do", "for", "switch",
    "case", "default", "break", "continue", "return", "goto", "sizeof",
}

# Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "<<=", ">>=", "...",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "[", "]", "{", "}", ";", ",", ".", "?", ":",
]

#: ``OPERATORS`` as one alternation: ``re`` takes the first alternative
#: that matches, the operator the list order picks.
_OPERATOR_RE = re.compile("|".join(map(re.escape, OPERATORS)))


class Token:
    """kind is one of: 'id', 'keyword', 'int', 'float', 'char', 'op', 'eof'."""

    __slots__ = ("kind", "text", "value", "loc")

    def __init__(self, kind: str, text: str, value: object,
                 loc: SourceLocation) -> None:
        self.kind = kind
        self.text = text
        self.value = value
        self.loc = loc

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text


def tokenize(source: str, filename: str = "<string>",
             predefined_macros: Optional[dict[str, str]] = None) -> list[Token]:
    """Preprocess and tokenize ``source`` into a token list ending in EOF."""
    macros: dict[str, list[Token]] = {}
    if predefined_macros:
        for name, replacement in predefined_macros.items():
            macros[name] = _tokenize_line(str(replacement), filename, 0)
    out: list[Token] = []
    # Conditional-inclusion stack: each entry is True if the current
    # region is active.
    active_stack: list[bool] = []

    for line_no, line in enumerate(_splice_lines(source), start=1):
        stripped = line.lstrip()
        if stripped.startswith("#"):
            _preprocess_directive(stripped, filename, line_no, macros, active_stack)
            continue
        if active_stack and not all(active_stack):
            continue
        out.extend(_expand(_tokenize_line(line, filename, line_no), macros, filename, line_no))

    if active_stack:
        raise LexError("unterminated #if block", SourceLocation(filename, 0, 0))
    out.append(Token("eof", "", None, SourceLocation(filename, 0, 0)))
    return out


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def _splice_lines(source: str) -> Iterator[str]:
    """Split into logical lines, joining backslash continuations and
    stripping comments (which may span lines)."""
    # Remove block comments first, preserving line structure.
    chars: list[str] = []
    i = 0
    n = len(source)
    while i < n:
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexError("unterminated block comment")
            # keep the newlines inside the comment so line numbers stay right
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
            # emit an empty line to keep the count aligned
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
        return  # runtime builtins are predeclared; headers are ignored
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


def _expand(tokens: Sequence[Token], macros: dict[str, list[Token]],
            filename: str, line_no: int,
            expanding: frozenset[str] = frozenset()) -> list[Token]:
    out: list[Token] = []
    for token in tokens:
        if token.kind == "id" and token.text in macros and token.text not in expanding:
            replacement = macros[token.text]
            out.extend(_expand(replacement, macros, filename, line_no,
                               expanding | {token.text}))
        else:
            out.append(token)
    return out


# ---------------------------------------------------------------------------
# Scanning one logical line
# ---------------------------------------------------------------------------


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
            break  # hex digit ranges already consumed f/F above
        i += 1

    if is_float:
        return Token("float", line[start:i], float(value), loc), i
    token = Token("int", line[start:i], int(value), loc)
    # Stash the suffix on the token text; the parser checks for it.
    if unsigned_suffix:
        token.kind = "uint"
    return token, i


_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
            "a": 7, "b": 8, "f": 12, "v": 11}


def _scan_char(line: str, i: int, loc: SourceLocation) -> tuple[Token, int]:
    n = len(line)
    i += 1  # opening quote
    if i >= n:
        raise LexError("unterminated character literal", loc)
    if line[i] == "\\":
        i += 1
        if i >= n or line[i] not in _ESCAPES:
            raise LexError("unsupported escape in character literal", loc)
        value = _ESCAPES[line[i]]
        i += 1
    else:
        value = ord(line[i])
        i += 1
    if i >= n or line[i] != "'":
        raise LexError("unterminated character literal", loc)
    return Token("char", line[loc.column - 1:i + 1], value, loc), i + 1
