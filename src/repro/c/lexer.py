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

#: One token after any blanks; ``re`` takes the first alternative that
#: matches: an identifier or keyword, the start of a number (which
#: ``_scan_number`` reads), an operator (maximal munch in ``OPERATORS``
#: order), or the rest (a word starting outside ASCII, or one character).
_TOKEN_RE = re.compile(
    r"[ \t\r\f\v]*(?:(?P<word>[A-Za-z_]\w*)"
    r"|(?P<number>\d|\.\d)"
    r"|(?P<op>" + "|".join(map(re.escape, OPERATORS)) + r")"
    r"|(?P<rare>[^\W\d]\w*|[^ \t\r\f\v]))")
#: A block comment, a line comment, or a "/*" with no "*/" after it.
_COMMENT_RE = re.compile(r"/\*.*?\*/|//[^\n]*|/\*", re.S)


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
    text = _COMMENT_RE.sub(_strip_comment, source)
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


def _strip_comment(match: re.Match[str]) -> str:
    # A block comment becomes the newlines it spanned, so line numbers stay
    # right.  Stopping at the first unclosed "/*" keeps the scan linear.
    if match.group() == "/*":
        raise LexError("unterminated block comment")
    return "\n" * match.group().count("\n")


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
    pos = 0
    match = _TOKEN_RE.match
    while (found := match(line, pos)) is not None:
        kind = found.lastgroup
        start, pos = found.span(kind)
        text = line[start:pos]
        loc = SourceLocation(filename, line_no, start + 1)
        if kind == "word":
            token = Token("keyword" if text in KEYWORDS else "id", text,
                          text, loc)
        elif kind == "op":
            token = Token("op", text, text, loc)
        elif kind == "number" or text[0].isdigit():
            token, pos = _scan_number(line, start, loc)
        elif text == "'":
            token, pos = _scan_char(line, start, loc)
        elif text[0].isalpha():
            token = Token("id", text, text, loc)
        elif text == '"':
            raise LexError("string literals are not supported", loc)
        else:
            raise LexError(f"unexpected character {text[0]!r}", loc)
        tokens.append(token)
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
        base = 16
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
        base = 8 if text.startswith("0") and len(text) > 1 else 10
    try:
        value = float(text) if is_float else int(text, base)
    except ValueError:
        raise LexError(f"malformed numeric literal {text!r}", loc) from None
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
