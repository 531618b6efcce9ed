"""Proof certificates: serialized derivations, independently re-checkable.

The paper's analyzer emits logic derivations precisely so that bounds
from different producers (the automatic analyzer, interactive proofs,
other static analyzers) *compose* and can be *re-checked* without
trusting the producer.  This module gives that story a wire format: a
whole-program analysis result — Γ specs plus one derivation per function
— serializes to JSON, and :func:`load_certificate` reconstructs it
against a (possibly different) copy of the program, where the ordinary
checker re-validates every rule application.

Bound expressions are hash-consed, and a certificate keeps that sharing:
each distinct expression is one row of the ``bounds`` table, written
after the rows it references, and every bound field elsewhere is a row
number.  A statement is named by its number in a pre-order walk of the
function body, so a certificate is only meaningful relative to the
exact program it was produced for — re-checking against a modified
program fails fast, which is the behavior a certificate should have.
``docs/LOGIC.md`` ("Certificate format") describes the layout and what
the loader rejects.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.clight import ast as cl
from repro.errors import DerivationError
from repro.logic import bexpr as bx
from repro.logic import derivation as dv
from repro.logic.assertions import FunContext, FunSpec, Post

FORMAT = "repro-stack-certificate"
VERSION = 4

SUPPORTED_VERSIONS = (VERSION,)


def canonical_json(value: Any) -> str:
    """The canonical text of a JSON value: sorted keys, no indentation.

    A certificate is written in it, and so is everything ``repro serve``
    stores and answers, which lets a stored certificate's bytes stand in
    an answer as they are.
    """
    return json.dumps(value, sort_keys=True)


# ---------------------------------------------------------------------------
# The bounds table: one row per distinct bound expression
# ---------------------------------------------------------------------------


def _row(expr: bx.BExpr, ref: Callable[[bx.BExpr], int]) -> list:
    """The table row of ``expr``; ``ref`` writes its children first."""
    cls = type(expr)
    if cls is bx.BConst:
        return ["const", "inf" if expr.value == bx.INFINITY else expr.value]
    if cls is bx.BMetric:
        return ["metric", expr.function]
    if cls is bx.BParam:
        return ["param", expr.name]
    if cls is bx.BAdd:
        return ["add", *map(ref, expr.items)]
    if cls is bx.BMax:
        return ["max", *map(ref, expr.items)]
    if cls is bx.BScale:
        return ["scale", expr.factor, ref(expr.body)]
    if cls is bx.BFrameDiff:
        return ["framediff", ref(expr.total), ref(expr.part)]
    if cls is bx.BMul:
        return ["mul", ref(expr.left), ref(expr.right)]
    if cls is bx.BLog2:
        return ["log2", ref(expr.arg)]
    if cls is bx.BHalf:
        return ["half", expr.ceil, ref(expr.arg)]
    if cls is bx.BParamDiff:
        return ["pdiff", ref(expr.left), ref(expr.right)]
    raise DerivationError(f"unserializable bound {expr!r}")


class _BoundTable:
    """The ``bounds`` rows of a certificate being written."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._index: dict[bx.BExpr, int] = {}  # interned: keyed by identity

    def ref(self, expr: bx.BExpr) -> int:
        """The row number of ``expr``, appending its row if it is new."""
        index = self._index.get(expr)
        if index is None:
            row = _row(expr, self.ref)
            index = self._index[expr] = len(self.rows)
            self.rows.append(row)
        return index


#: Arguments after the kind of each row kind; ``None``: one or more.
_ROW_ARITY = {"const": 1, "metric": 1, "param": 1, "add": None, "max": None,
              "scale": 2, "framediff": 2, "mul": 2, "log2": 1, "half": 2,
              "pdiff": 2}


def _natural(value: Any) -> bool:
    return type(value) is int and value >= 0


def _decode_row(number: int, row: Any,
                table: list[bx.BExpr]) -> bx.BExpr:
    """Build row ``number`` from the rows before it, through the
    interning constructors."""
    where = f"bound row {number}"
    if not isinstance(row, list) or not row:
        raise DerivationError(f"{where} is not a non-empty list")
    kind, args = row[0], row[1:]
    if not isinstance(kind, str) or kind not in _ROW_ARITY:
        raise DerivationError(f"{where}: unknown bound kind {kind!r}")
    arity = _ROW_ARITY[kind]
    if (len(args) != arity) if arity else not args:
        raise DerivationError(
            f"{where}: {kind!r} takes {arity or 'one or more'} "
            f"argument(s), got {len(args)}")

    def ref(value: Any) -> bx.BExpr:
        # An earlier row, never this one or a later one: no cycles.
        if type(value) is not int or not 0 <= value < number:
            raise DerivationError(
                f"{where}: reference {value!r} is not an earlier row")
        return table[value]

    if kind == "const":
        value = args[0]
        if value == "inf":
            return bx.TOP
        # Reject out-of-domain constants with a diagnostic instead of
        # letting the BConst naturals guard crash the checker.
        if not _natural(value):
            raise DerivationError(
                f'{where}: bound constant must be a natural or "inf": '
                f"{value!r}")
        return bx.BConst(value)
    if kind in ("metric", "param"):
        if not isinstance(args[0], str):
            raise DerivationError(f"{where}: {kind} name must be a string")
        return bx.BMetric(args[0]) if kind == "metric" else bx.BParam(args[0])
    if kind == "add":
        return bx.BAdd([ref(item) for item in args])
    if kind == "max":
        return bx.BMax([ref(item) for item in args])
    if kind == "scale":
        if not _natural(args[0]):
            raise DerivationError(
                f"{where}: scaling factor must be a natural: {args[0]!r}")
        return bx.BScale(args[0], ref(args[1]))
    if kind == "framediff":
        return bx.BFrameDiff(ref(args[0]), ref(args[1]))
    if kind == "mul":
        return bx.BMul(ref(args[0]), ref(args[1]))
    if kind == "log2":
        return bx.BLog2(ref(args[0]))
    if kind == "half":
        if not isinstance(args[0], bool):
            raise DerivationError(f"{where}: half's ceil must be a boolean")
        return bx.BHalf(ref(args[1]), args[0])
    return bx.BParamDiff(ref(args[0]), ref(args[1]))


def _decode_bounds(rows: Any) -> list[bx.BExpr]:
    """The bound expression of every row, each built once."""
    if not isinstance(rows, list):
        raise DerivationError("bounds must be a list of rows")
    table: list[bx.BExpr] = []
    for number, row in enumerate(rows):
        table.append(_decode_row(number, row, table))
    return table


def _bound(table: list[bx.BExpr], value: Any, where: str) -> bx.BExpr:
    """The expression a bound field references."""
    if type(value) is not int or not 0 <= value < len(table):
        raise DerivationError(
            f"{where}: {value!r} is not a row of the bounds table")
    return table[value]


def total_bounds(document: dict) -> dict[str, bx.BExpr]:
    """Each function's advertised ``total_bound``, as an expression."""
    table = _decode_bounds(document["bounds"])
    return {name: _bound(table, entry["total_bound"], f"{name}: total_bound")
            for name, entry in document["functions"].items()}


# ---------------------------------------------------------------------------
# Statement numbers
# ---------------------------------------------------------------------------

#: The sub-statements of each compound statement, in numbering order.
_CHILDREN = {cl.SSeq: ("first", "second"), cl.SIf: ("then", "otherwise"),
             cl.SLoop: ("body", "post"), cl.SBlock: ("body",)}


def _statements(body: cl.Stmt) -> list[cl.Stmt]:
    """The statements of a function body in pre-order; a certificate
    names each by its index here."""
    order: list[cl.Stmt] = []
    stack = [body]
    while stack:
        stmt = stack.pop()
        order.append(stmt)
        stack.extend(getattr(stmt, attribute) for attribute
                     in reversed(_CHILDREN.get(type(stmt), ())))
    return order


# ---------------------------------------------------------------------------
# Derivations <-> JSON
# ---------------------------------------------------------------------------


def _derivation_to_json(node: dv.Derivation, numbers: dict[int, int],
                        ref: Callable[[bx.BExpr], int]) -> dict:
    conclusion = node.conclusion
    number = numbers.get(id(conclusion.stmt))
    if number is None:
        raise DerivationError(
            "derivation mentions a statement outside the function body")
    data: dict[str, Any] = {
        "rule": node.rule,
        "stmt": number,
        "pre": ref(conclusion.pre),
        "post": [ref(part) for part in conclusion.post.parts()],
    }
    if isinstance(node, dv.DCall):
        data["callee"] = node.callee
        data["spec_args"] = {name: ref(expr)
                             for name, expr in node.spec_args.items()}
    if isinstance(node, dv.DExternal):
        data["callee"] = node.callee
    if isinstance(node, dv.DFrame):
        data["frame"] = ref(node.frame)
    children = node.children()
    if children:
        data["children"] = [_derivation_to_json(child, numbers, ref)
                            for child in children]
    return data


_RULES_SIMPLE = {
    "Q:SKIP": dv.DSkip, "Q:SET": dv.DSet, "Q:STORE": dv.DStore,
    "Q:BREAK": dv.DBreak, "Q:CONTINUE": dv.DContinue,
    "Q:RETURN": dv.DReturn,
}


#: Premise count per rule: a serialized rule application with the wrong
#: arity (e.g. a truncated tree) must fail with a diagnostic naming the
#: rule, never an ``IndexError``.
_RULE_ARITY = {
    "Q:SEQ": 2, "Q:IF": 2, "Q:LOOP": 2,
    "Q:BLOCK": 1, "Q:FRAME": 1, "Q:CONSEQ": 1,
    "Q:CALL": 0, "Q:EXTERNAL": 0,
    **{rule: 0 for rule in _RULES_SIMPLE},
}


def _derivation_from_json(data: Any, statements: list[cl.Stmt],
                          table: list[bx.BExpr]) -> dv.Derivation:
    if not isinstance(data, dict):
        raise DerivationError("derivation node is not an object")
    rule, number = data.get("rule"), data.get("stmt")
    if type(number) is not int or not 0 <= number < len(statements):
        raise DerivationError(
            f"{rule} application: statement number {number!r} does not "
            f"match the program ({len(statements)} statements)")
    where = f"{rule} application at statement {number}"
    post = data.get("post")
    if not isinstance(post, list) or len(post) != 4:
        raise DerivationError(f"{where}: post must be four bound references")
    skip, brk, ret, cont = (_bound(table, part, f"{where}: post")
                            for part in post)
    triple = dv.Triple(_bound(table, data.get("pre"), f"{where}: pre"),
                       statements[number], Post(skip, brk, ret, cont))
    arity = _RULE_ARITY.get(rule) if isinstance(rule, str) else None
    if arity is None:
        raise DerivationError(f"unknown rule {rule!r} in certificate")
    raw_children = data.get("children", [])
    if not isinstance(raw_children, list) or len(raw_children) != arity:
        count = len(raw_children) if isinstance(raw_children, list) else "?"
        raise DerivationError(
            f"{where} has {count} premise(s), expected {arity} "
            "(truncated rule tree?)")
    children = [_derivation_from_json(child, statements, table)
                for child in raw_children]

    if rule in _RULES_SIMPLE:
        return _RULES_SIMPLE[rule](triple)
    if rule == "Q:SEQ":
        return dv.DSeq(triple, children[0], children[1])
    if rule == "Q:IF":
        return dv.DIf(triple, children[0], children[1])
    if rule == "Q:LOOP":
        return dv.DLoop(triple, children[0], children[1])
    if rule == "Q:BLOCK":
        return dv.DBlock(triple, children[0])
    if rule in ("Q:CALL", "Q:EXTERNAL"):
        callee = data.get("callee")
        if not isinstance(callee, str):
            raise DerivationError(f"{where}: callee must be a function name")
        if rule == "Q:EXTERNAL":
            return dv.DExternal(triple, callee)
        spec_args = data.get("spec_args", {})
        if not isinstance(spec_args, dict):
            raise DerivationError(f"{where}: spec_args must be an object")
        return dv.DCall(triple, callee, {
            name: _bound(table, value, f"{where}: spec_args[{name!r}]")
            for name, value in spec_args.items()})
    if rule == "Q:FRAME":
        return dv.DFrame(triple, _bound(table, data.get("frame"),
                                        f"{where}: frame"), children[0])
    return dv.DConseq(triple, children[0])


# ---------------------------------------------------------------------------
# Whole-program certificates
# ---------------------------------------------------------------------------


def certificate_document(analysis) -> dict:
    """The certificate of an :class:`~repro.analyzer.auto.AnalysisResult`
    as a JSON-ready document (what :func:`export_certificate` writes)."""
    table = _BoundTable()
    functions = {}
    for name, function_analysis in analysis.functions.items():
        statements = _statements(analysis.program.function(name).body)
        numbers = {id(stmt): number for number, stmt in enumerate(statements)}
        spec = analysis.gamma[name]
        functions[name] = {
            "spec": {
                "params": spec.params,
                "pre": table.ref(spec.pre),
                "post": table.ref(spec.post),
            },
            "total_bound": table.ref(function_analysis.total_bound),
            "derivation": _derivation_to_json(
                function_analysis.derivation, numbers, table.ref),
        }
    document = {"format": FORMAT, "version": VERSION, "bounds": table.rows,
                "functions": functions}
    # Verification domains of parametric (inferred-recursion) specs: part
    # of the *claim*, so they travel inside the certificate and the
    # re-check below replays the induction over exactly these instances.
    domains = getattr(analysis, "param_domains", None)
    if domains:
        document["param_domains"] = {name: list(values)
                                     for name, values in domains.items()}
    return document


def export_certificate(analysis) -> str:
    """The certificate of an analysis, in its canonical text."""
    return canonical_json(certificate_document(analysis))


def _domains_from_json(data: Any) -> dict[str, list[int]] | None:
    """Parse and sanity-check the ``param_domains`` table."""
    if data is None:
        return None
    if not isinstance(data, dict):
        raise DerivationError("param_domains must be an object")
    domains: dict[str, list[int]] = {}
    for name, values in data.items():
        if (not isinstance(values, list) or not values
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           for v in values)):
            raise DerivationError(
                f"verification domain of {name!r} must be a non-empty "
                "list of integers (an empty domain would make the "
                "induction pass vacuously)")
        domains[name] = values
    return domains or None


def load_certificate(text: str, program: cl.Program):
    """Parse a certificate against ``program`` and re-check every proof.

    Returns ``(gamma, bounds, report)`` where ``bounds`` maps each
    function to its symbolic total bound.  Raises
    :class:`DerivationError` if the certificate is malformed, refers to
    statements that do not exist in ``program``, or any derivation fails
    the checker — certificates carry no authority of their own.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as error:
        # json.JSONDecodeError subclasses ValueError; nesting deeper
        # than the parser's stack is a RecursionError.
        raise DerivationError(f"certificate is not valid JSON: {error}")
    return check_certificate(data, program)


def check_certificate(data: Any, program: cl.Program):
    """:func:`load_certificate` on an already parsed certificate."""
    from repro.logic.checker import (CheckerContext, CheckReport,
                                     check_function_spec)

    if not isinstance(data, dict):
        raise DerivationError("certificate is not a JSON object")
    if data.get("format") != FORMAT:
        raise DerivationError("not a stack-bound certificate")
    if data.get("version") not in SUPPORTED_VERSIONS:
        raise DerivationError(
            f"unsupported certificate version {data.get('version')}; "
            "re-run `repro certify`")
    param_domains = _domains_from_json(data.get("param_domains"))
    table = _decode_bounds(data.get("bounds"))
    functions = data.get("functions", {})
    if not isinstance(functions, dict):
        raise DerivationError("functions must be an object")
    # A certificate for another program names functions this one lacks:
    # say so before any statement number fails to match.
    for name in functions:
        if not program.is_internal(name):
            raise DerivationError(
                f"certificate covers unknown function {name!r}")

    gamma = FunContext()
    derivations: dict[str, dv.Derivation] = {}
    bounds: dict[str, bx.BExpr] = {}
    for name, entry in functions.items():
        try:
            spec_data = entry["spec"]
            params = spec_data["params"]
            if not isinstance(params, list) or not all(
                    isinstance(param, str) for param in params):
                raise DerivationError(
                    f"{name}: spec params must be a list of names")
            spec = FunSpec(name, params,
                           _bound(table, spec_data["pre"], f"{name}: spec"),
                           _bound(table, spec_data["post"], f"{name}: spec"))
            gamma.add(spec)
            bounds[name] = _bound(table, entry["total_bound"],
                                  f"{name}: total_bound")
            derivations[name] = _derivation_from_json(
                entry["derivation"],
                _statements(program.function(name).body), table)
        except DerivationError:
            raise
        except (KeyError, TypeError, IndexError, RecursionError) as error:
            raise DerivationError(
                f"malformed certificate entry for {name!r} "
                f"({type(error).__name__}: {error})")
        # The checker below validates the derivation against the spec,
        # but the advertised total M(f) + P_f is *reported*, not derived
        # — re-derive it so a lying total_bound field carries no
        # authority.  Ground totals are pinned exactly; parametric totals
        # are pinned over the certificate's own verification domains.
        expected = bx.badd(bx.bmetric(name), spec.pre)
        try:
            if not bx.bound_equal(bounds[name], expected,
                                  param_domains=param_domains).holds:
                raise DerivationError(
                    f"{name}: advertised total_bound does not equal "
                    f"M({name}) + spec precondition")
        except (ValueError, ArithmeticError, RecursionError) as error:
            raise DerivationError(
                f"{name}: cannot validate total_bound: {error}")

    ctx = CheckerContext(gamma, externals=program.externals,
                         param_domains=param_domains)
    report = CheckReport()
    for name, derivation in derivations.items():
        try:
            check_function_spec(program.function(name), derivation, ctx,
                                report)
        except (ValueError, ArithmeticError) as error:
            # The sampled comparator raises ValueError when a parameter
            # has no declared domain, and evaluation raises on undefined
            # arithmetic such as half of -∞; in a certificate either is
            # a proof defect, not a usage error.
            raise DerivationError(
                f"{name}: sampled side condition not coverable: {error}")
        except RecursionError:
            raise DerivationError(
                f"{name}: derivation nests too deeply to check")
    return gamma, bounds, report
