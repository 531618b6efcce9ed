"""The C frontend against the frontend it replaced (``tests/frontend_reference.py``).

The scanner pattern, the precedence-climbing parser and the explicit-
stack walk must change no token, no AST node and no visit order: every
downstream byte (Clight, ASM, frame sizes, bounds, certificates) follows
from those three.  ASTs are compared by a structural dump over
``__slots__``, with C types printed by name (a struct can point to
itself).
"""

from __future__ import annotations

import pytest

from repro.analyzer import values
from repro.c import ast
from repro.c.lexer import tokenize
from repro.c.parser import parse
from repro.c.typecheck import typecheck
from repro.programs.loader import all_programs, load_source
from repro.testing.progen import generate_program
from tests.frontend_reference import (ast_dump, reference_parse,
                                      reference_tokenize, reference_walk,
                                      token_tuples)

CATALOG = all_programs()


def _sources() -> list[tuple[str, str]]:
    sources = [(path, load_source(path)) for path in CATALOG]
    sources += [(f"seed{seed}", generate_program(seed))
                for seed in range(100)]
    sources += [(f"rf{seed}",
                 generate_program(seed, recursion=True, funcptr=True))
                for seed in range(100)]
    return sources


SOURCES = _sources()


def test_the_catalog_is_all_there():
    assert len(CATALOG) == 24


@pytest.mark.parametrize("name, source", SOURCES,
                         ids=[name for name, _ in SOURCES])
def test_same_tokens_and_ast(name, source):
    assert token_tuples(tokenize(source, name)) \
        == token_tuples(reference_tokenize(source, name))
    assert ast_dump(parse(source, name), []) \
        == ast_dump(reference_parse(source, name), [])


def _typed(source: str, name: str):
    program = parse(source, name)
    return program, typecheck(program)


WALKED = CATALOG + [f"rf{seed}" for seed in range(40)]


@pytest.mark.parametrize("name", WALKED)
def test_walk_visits_nodes_in_the_same_order(name):
    source = dict(SOURCES)[name]
    program, _env = _typed(source, name)
    for function in program.functions:
        assert [id(node) for node in values._walk(function.body)] \
            == [id(node) for node in reference_walk(function.body)]


def _resolution(source: str, name: str) -> tuple:
    program, env = _typed(source, name)
    resolution = values.resolve_function_pointers(program, env)
    candidates = [node.fp_candidates
                  for function in program.functions
                  for node in reference_walk(function.body)
                  if isinstance(node, ast.Call) and node.indirect]
    return resolution.fids, resolution.sites, candidates


@pytest.mark.parametrize("name", WALKED)
def test_same_candidates_and_numbering(name, monkeypatch):
    source = dict(SOURCES)[name]
    walked = _resolution(source, name)
    monkeypatch.setattr(values, "_walk", reference_walk)
    assert walked == _resolution(source, name)


def test_function_pointer_seeds_have_indirect_calls():
    """The walk tests see numbered sites, not only empty resolutions."""
    sites = [_resolution(dict(SOURCES)[name], name)[1] for name in WALKED]
    assert sum(1 for count in sites if count > 1) >= 10
