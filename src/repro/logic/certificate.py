"""Proof certificates: serialized derivations, independently re-checkable.

The paper's analyzer emits logic derivations precisely so that bounds
from different producers (the automatic analyzer, interactive proofs,
other static analyzers) *compose* and can be *re-checked* without
trusting the producer.  This module gives that story a wire format: a
whole-program analysis result — Γ specs plus one derivation per function
— serializes to JSON, and :func:`load_certificate` reconstructs it
against a (possibly different) copy of the program, where the ordinary
checker re-validates every rule application.

Statements inside derivation nodes are referenced *by path* into the
program's Clight AST (e.g. ``["seq.first", "loop.body"]``), so a
certificate is only meaningful relative to the exact program it was
produced for — re-checking against a modified program fails fast, which
is the behavior a certificate should have.
"""

from __future__ import annotations

import json
from typing import Any

from repro.clight import ast as cl
from repro.errors import DerivationError
from repro.logic import bexpr as bx
from repro.logic import derivation as dv
from repro.logic.assertions import FunContext, FunSpec, Post

FORMAT = "repro-stack-certificate"
VERSION = 3

#: Version 2 certificates (no parametric specs, hence no verification
#: domains) are still accepted: nothing in their payload changed meaning.
SUPPORTED_VERSIONS = (2, 3)


# ---------------------------------------------------------------------------
# Bound expressions <-> JSON
# ---------------------------------------------------------------------------


def bexpr_to_json(expr: bx.BExpr) -> Any:
    if isinstance(expr, bx.BConst):
        return {"k": "const",
                "v": "inf" if expr.value == bx.INFINITY else expr.value}
    if isinstance(expr, bx.BMetric):
        return {"k": "metric", "f": expr.function}
    if isinstance(expr, bx.BParam):
        return {"k": "param", "p": expr.name}
    if isinstance(expr, bx.BAdd):
        return {"k": "add", "items": [bexpr_to_json(i) for i in expr.items]}
    if isinstance(expr, bx.BMax):
        return {"k": "max", "items": [bexpr_to_json(i) for i in expr.items]}
    if isinstance(expr, bx.BScale):
        return {"k": "scale", "by": expr.factor,
                "body": bexpr_to_json(expr.body)}
    if isinstance(expr, bx.BFrameDiff):
        return {"k": "framediff", "total": bexpr_to_json(expr.total),
                "part": bexpr_to_json(expr.part)}
    if isinstance(expr, bx.BMul):
        return {"k": "mul", "l": bexpr_to_json(expr.left),
                "r": bexpr_to_json(expr.right)}
    if isinstance(expr, bx.BLog2):
        return {"k": "log2", "arg": bexpr_to_json(expr.arg)}
    if isinstance(expr, bx.BHalf):
        return {"k": "half", "ceil": expr.ceil,
                "arg": bexpr_to_json(expr.arg)}
    if isinstance(expr, bx.BParamDiff):
        return {"k": "pdiff", "l": bexpr_to_json(expr.left),
                "r": bexpr_to_json(expr.right)}
    raise DerivationError(f"unserializable bound {expr!r}")


def bexpr_from_json(data: Any) -> bx.BExpr:
    kind = data["k"]
    if kind == "const":
        value = data["v"]
        if value == "inf":
            return bx.BConst(bx.INFINITY)
        # Reject out-of-domain constants with a diagnostic instead of
        # letting the BConst naturals guard crash the checker.
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise DerivationError(
                f'bound constant must be a natural or "inf": {value!r}')
        return bx.BConst(value)
    if kind == "metric":
        return bx.BMetric(data["f"])
    if kind == "param":
        return bx.BParam(data["p"])
    if kind == "add":
        return bx.BAdd([bexpr_from_json(i) for i in data["items"]])
    if kind == "max":
        return bx.BMax([bexpr_from_json(i) for i in data["items"]])
    if kind == "scale":
        return bx.BScale(data["by"], bexpr_from_json(data["body"]))
    if kind == "framediff":
        return bx.BFrameDiff(bexpr_from_json(data["total"]),
                             bexpr_from_json(data["part"]))
    if kind == "mul":
        return bx.BMul(bexpr_from_json(data["l"]), bexpr_from_json(data["r"]))
    if kind == "log2":
        return bx.BLog2(bexpr_from_json(data["arg"]))
    if kind == "half":
        return bx.BHalf(bexpr_from_json(data["arg"]), data["ceil"])
    if kind == "pdiff":
        return bx.BParamDiff(bexpr_from_json(data["l"]),
                             bexpr_from_json(data["r"]))
    raise DerivationError(f"unknown bound kind {kind!r}")


# ---------------------------------------------------------------------------
# Statement paths
# ---------------------------------------------------------------------------

_CHILDREN = {
    cl.SSeq: (("seq.first", "first"), ("seq.second", "second")),
    cl.SIf: (("if.then", "then"), ("if.else", "otherwise")),
    cl.SLoop: (("loop.body", "body"), ("loop.post", "post")),
    cl.SBlock: (("block.body", "body"),),
}


def _statement_paths(stmt: cl.Stmt, prefix: tuple[str, ...],
                     table: dict[int, tuple[str, ...]]) -> None:
    table[id(stmt)] = prefix
    for cls, edges in _CHILDREN.items():
        if isinstance(stmt, cls):
            for label, attribute in edges:
                _statement_paths(getattr(stmt, attribute),
                                 prefix + (label,), table)
            return


def _resolve_path(stmt: cl.Stmt, path: list[str]) -> cl.Stmt:
    for label in path:
        for cls, edges in _CHILDREN.items():
            if isinstance(stmt, cls):
                match = {lab: attr for lab, attr in edges}.get(label)
                if match is not None:
                    stmt = getattr(stmt, match)
                    break
        else:
            raise DerivationError(
                f"certificate path {label!r} does not match the program "
                f"(statement is {type(stmt).__name__})")
    return stmt


# ---------------------------------------------------------------------------
# Derivations <-> JSON
# ---------------------------------------------------------------------------


def _post_to_json(post: Post) -> Any:
    return [bexpr_to_json(part) for part in post.parts()]


def _post_from_json(data: Any) -> Post:
    skip, brk, ret, cont = (bexpr_from_json(part) for part in data)
    return Post(skip, brk, ret, cont)


def derivation_to_json(node: dv.Derivation,
                       paths: dict[int, tuple[str, ...]]) -> Any:
    conclusion = node.conclusion
    stmt_path = paths.get(id(conclusion.stmt))
    if stmt_path is None:
        raise DerivationError(
            "derivation mentions a statement outside the function body")
    data: dict[str, Any] = {
        "rule": node.rule,
        "stmt": list(stmt_path),
        "pre": bexpr_to_json(conclusion.pre),
        "post": _post_to_json(conclusion.post),
    }
    if isinstance(node, dv.DCall):
        data["callee"] = node.callee
        data["spec_args"] = {name: bexpr_to_json(expr)
                             for name, expr in node.spec_args.items()}
    if isinstance(node, dv.DExternal):
        data["callee"] = node.callee
    if isinstance(node, dv.DFrame):
        data["frame"] = bexpr_to_json(node.frame)
    children = list(node.children())
    if children:
        data["children"] = [derivation_to_json(child, paths)
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


def derivation_from_json(data: Any, body: cl.Stmt) -> dv.Derivation:
    stmt = _resolve_path(body, data["stmt"])
    triple = dv.Triple(bexpr_from_json(data["pre"]), stmt,
                       _post_from_json(data["post"]))
    rule = data["rule"]
    arity = _RULE_ARITY.get(rule)
    if arity is None:
        raise DerivationError(f"unknown rule {rule!r} in certificate")
    raw_children = data.get("children", ())
    if len(raw_children) != arity:
        raise DerivationError(
            f"{rule} application at path {data['stmt']!r} has "
            f"{len(raw_children)} premise(s), expected {arity} "
            "(truncated rule tree?)")
    children = [derivation_from_json(child, body) for child in raw_children]

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
    if rule == "Q:CALL":
        spec_args = {name: bexpr_from_json(expr)
                     for name, expr in data.get("spec_args", {}).items()}
        return dv.DCall(triple, data["callee"], spec_args)
    if rule == "Q:EXTERNAL":
        return dv.DExternal(triple, data["callee"])
    if rule == "Q:FRAME":
        return dv.DFrame(triple, bexpr_from_json(data["frame"]), children[0])
    return dv.DConseq(triple, children[0])


# ---------------------------------------------------------------------------
# Whole-program certificates
# ---------------------------------------------------------------------------


def certificate_document(analysis) -> dict:
    """The certificate of an :class:`~repro.analyzer.auto.AnalysisResult`
    as a JSON-ready document (what :func:`export_certificate` writes)."""
    functions = {}
    for name, function_analysis in analysis.functions.items():
        body = analysis.program.function(name).body
        paths: dict[int, tuple[str, ...]] = {}
        _statement_paths(body, (), paths)
        spec = analysis.gamma[name]
        functions[name] = {
            "spec": {
                "params": spec.params,
                "pre": bexpr_to_json(spec.pre),
                "post": bexpr_to_json(spec.post),
            },
            "total_bound": bexpr_to_json(function_analysis.total_bound),
            "derivation": derivation_to_json(
                function_analysis.derivation, paths),
        }
    document = {"format": FORMAT, "version": VERSION,
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
    """Serialize an :class:`~repro.analyzer.auto.AnalysisResult` to JSON."""
    return json.dumps(certificate_document(analysis), indent=1)


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
    except ValueError as error:  # json.JSONDecodeError subclasses ValueError
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
            f"unsupported certificate version {data.get('version')}")
    param_domains = _domains_from_json(data.get("param_domains"))

    gamma = FunContext()
    derivations: dict[str, dv.Derivation] = {}
    bounds: dict[str, bx.BExpr] = {}
    for name, entry in data.get("functions", {}).items():
        if not program.is_internal(name):
            raise DerivationError(
                f"certificate covers unknown function {name!r}")
        try:
            spec_data = entry["spec"]
            spec = FunSpec(name, spec_data["params"],
                           bexpr_from_json(spec_data["pre"]),
                           bexpr_from_json(spec_data["post"]))
            gamma.add(spec)
            bounds[name] = bexpr_from_json(entry["total_bound"])
            derivations[name] = derivation_from_json(
                entry["derivation"], program.function(name).body)
        except DerivationError:
            raise
        except (KeyError, TypeError, IndexError) as error:
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
        except (ValueError, ArithmeticError) as error:
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
    return gamma, bounds, report
