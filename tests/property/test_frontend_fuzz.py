"""Mutation fuzzer for the C frontend, against the frontend it replaced.

Hypothesis mutates catalog sources one way each: drop a token, duplicate
a token, wrap an operand in up to 50 parentheses, or swap a binary
operator.  The new frontend and ``tests/frontend_reference.py`` must then
agree: the same tokens or the same ``LexError``, and the same AST or the
same ``ParseError``/``UnsupportedFeatureError``, message and location
included.  Where the reference raises something else (a ``ValueError``
on a malformed literal, a ``RecursionError`` on deep parentheses), the
new frontend must succeed or raise a ``ReproError``.

A second property prints random expressions over every binary operator,
the unary operators and parentheses with ``repro.c.pretty``, drops some
of the printed parentheses (half the time all of them) so precedence and
associativity decide, and requires both parsers to build the same AST.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.c import ast
from repro.c import types as ct
from repro.c.lexer import tokenize
from repro.c.parser import _PRECEDENCE, parse
from repro.c.pretty import pretty_program
from repro.errors import ReproError
from repro.programs.loader import all_programs, load_source
from tests.frontend_reference import (ast_dump, reference_parse,
                                      reference_tokenize, token_tuples)

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

BINARY_OPS = [op for level in _PRECEDENCE for op in level]
OPERANDS = ("id", "int", "uint", "float", "char")


def _located_tokens(source: str) -> list[tuple[int, object]]:
    """``(offset, token)`` for each token found verbatim at its location
    (not those a macro or an inline comment moved)."""
    starts = [0]
    for line in source.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    located = []
    for token in reference_tokenize(source)[:-1]:
        line, column = token.loc.line, token.loc.column
        if 0 < line < len(starts):
            offset = starts[line - 1] + column - 1
            if source.startswith(token.text, offset):
                located.append((offset, token))
    return located


CATALOG = {path: (load_source(path), _located_tokens(load_source(path)))
           for path in all_programs()}


@st.composite
def mutants(draw) -> str:
    source, located = CATALOG[draw(st.sampled_from(sorted(CATALOG)))]
    how = draw(st.sampled_from(["drop", "duplicate", "wrap", "swap"]))
    if how == "wrap":
        located = [(o, t) for o, t in located if t.kind in OPERANDS]
    elif how == "swap":
        located = [(o, t) for o, t in located
                   if t.kind == "op" and t.text in BINARY_OPS]
    offset, token = draw(st.sampled_from(located))
    end = offset + len(token.text)
    if how == "drop":
        middle = ""
    elif how == "duplicate":
        middle = f"{token.text} {token.text}"
    elif how == "wrap":
        depth = draw(st.integers(1, 50))
        middle = "(" * depth + token.text + ")" * depth
    else:
        middle = draw(st.sampled_from(BINARY_OPS))
    return source[:offset] + middle + source[end:]


def _outcome(frontend, source: str, comparable) -> tuple:
    try:
        return ("ok", comparable(frontend(source, "m.c")))
    except ReproError as error:
        loc = getattr(error, "loc", None)
        return ("diagnosed", type(error).__name__, str(error), repr(loc))
    except Exception as error:       # noqa: BLE001 — the reference's crashes
        return ("crash", type(error).__name__)


def _agree(new: tuple, reference: tuple) -> None:
    if reference[0] == "crash":
        assert new[0] != "crash", (new, reference)
    else:
        assert new == reference


@SETTINGS
@given(mutants())
def test_mutants_tokenize_and_parse_alike(source):
    _agree(_outcome(tokenize, source, token_tuples),
           _outcome(reference_tokenize, source, token_tuples))
    dump = lambda program: ast_dump(program, [])   # noqa: E731
    _agree(_outcome(parse, source, dump),
           _outcome(reference_parse, source, dump))


def _expressions() -> st.SearchStrategy:
    leaves = st.one_of(
        st.sampled_from("abc").map(ast.Name),
        st.integers(0, 9).map(ast.IntLit))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(st.sampled_from(BINARY_OPS), inner, inner).map(
            lambda t: (ast.Logical if t[0] in ("&&", "||") else ast.Binary)(
                *t)),
        st.tuples(st.sampled_from("-+~!"), inner).map(
            lambda t: ast.Unary(*t))), max_leaves=12)


def _program(expr: ast.Expr) -> ast.Program:
    body = ast.SBlock([ast.SReturn(expr)])
    return ast.Program([], [ast.FunctionDef("main", ct.INT, [], body)],
                       [], {})


@SETTINGS
@given(_expressions(), st.data())
def test_printed_expressions_parse_alike(expr, data):
    printed = pretty_program(_program(expr))
    start = printed.index("return ") + len("return ")
    end = printed.index(";", start)
    pairs, stack = [], []
    for index in range(start, end):
        if printed[index] == "(":
            stack.append(index)
        elif printed[index] == ")":
            pairs.append((stack.pop(), index))
    drop_all = data.draw(st.booleans())
    dropped = {index for pair in pairs
               if drop_all or data.draw(st.booleans()) for index in pair}
    source = "".join(char for index, char in enumerate(printed)
                     if index not in dropped)
    assert ast_dump(parse(source), []) == ast_dump(reference_parse(source), [])
