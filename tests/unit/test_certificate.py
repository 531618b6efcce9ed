"""Unit tests for proof certificates (export + independent re-check)."""

import json

import pytest

from repro.analyzer import StackAnalyzer
from repro.c.parser import parse
from repro.c.typecheck import typecheck
from repro.clight.from_c import clight_of_program
from repro.driver import compile_frontend
from repro.errors import DerivationError
from repro.logic import bexpr as bx
from repro.logic import derivation as dv
from repro.logic.bexpr import evaluate
from repro.logic.certificate import (_BoundTable, _decode_bounds,
                                     _derivation_from_json, _statements,
                                     certificate_document,
                                     export_certificate, load_certificate)
from repro.programs.catalog import AUTO_ANALYZABLE, RECURSIVE
from repro.programs.loader import load_source
from repro.testing.progen import generate_program


def lower(source):
    program = parse(source)
    env = typecheck(program)
    return clight_of_program(program, env)


SOURCE = ("int leaf() { return 1; } "
          "int mid(int n) { int s = 0; "
          "for (int i = 0; i < n; i++) s += leaf(); return s; } "
          "int main() { print_int(mid(3)); return 0; }")


def _forge(data, *row):
    """Append a bound row to a certificate document; its reference."""
    data["bounds"].append(list(row))
    return len(data["bounds"]) - 1


class TestBoundTable:
    CASES = [
        bx.BConst(0),
        bx.BConst(bx.INFINITY),
        bx.bmetric("f"),
        bx.bparam("n"),
        bx.badd(bx.bmetric("f"), bx.BConst(4)),
        bx.bmax(bx.bmetric("f"), bx.bmetric("g")),
        bx.BScale(3, bx.bmetric("f")),
        bx.BFrameDiff(bx.bmax(bx.bmetric("f"), bx.bmetric("g")),
                      bx.bmetric("f")),
        bx.BMul(bx.bparam("n"), bx.bmetric("f")),
        bx.BLog2(bx.BParamDiff(bx.bparam("hi"), bx.bparam("lo"))),
        bx.BHalf(bx.bparam("n"), ceil=True),
    ]

    @pytest.mark.parametrize("expr", CASES, ids=lambda e: repr(e))
    def test_roundtrip(self, expr):
        table = _BoundTable()
        ref = table.ref(expr)
        rows = json.loads(json.dumps(table.rows))
        assert _decode_bounds(rows)[ref] is expr

    def test_roundtrip_evaluates_identically(self):
        expr = bx.badd(bx.BMul(bx.bparam("n"), bx.bmetric("f")),
                       bx.bmax(bx.bmetric("g"), bx.BConst(8)))
        table = _BoundTable()
        ref = table.ref(expr)
        restored = _decode_bounds(table.rows)[ref]
        metric = {"f": 4, "g": 16}
        for n in (0, 3, 9):
            assert evaluate(expr, metric, {"n": n}) == \
                evaluate(restored, metric, {"n": n})

    def test_each_distinct_expression_is_one_row(self):
        shared = bx.badd(bx.bmetric("f"), bx.BConst(4))
        table = _BoundTable()
        first = table.ref(bx.bmax(shared, bx.BFrameDiff(shared,
                                                        bx.bmetric("f"))))
        assert table.ref(shared) < first
        assert table.rows == [["metric", "f"], ["const", 4], ["add", 0, 1],
                              ["framediff", 2, 0], ["max", 2, 3]]
        # Writing an expression again adds no row.
        assert table.ref(shared) == 2 and len(table.rows) == 5


def test_statements_are_numbered_in_pre_order():
    """The documented order: Sseq first then second, Sif then then
    else, Sloop body then post, Sblock body."""
    from repro.clight import ast as cl

    leaves = [cl.SSkip() for _ in range(4)]
    loop = cl.SLoop(cl.SBlock(leaves[2]), leaves[3])
    branch = cl.SIf(None, leaves[0], leaves[1])
    body = cl.SSeq(branch, loop)
    assert _statements(body) == [body, branch, leaves[0], leaves[1], loop,
                                 loop.body, leaves[2], leaves[3]]


#: The catalog, plus 8 plain and 8 recursion + function-pointer seeds.
CORPUS = (AUTO_ANALYZABLE + RECURSIVE + [f"seed{seed}" for seed in range(8)]
          + [f"recfp{seed}" for seed in range(8)])


def _program(label):
    if label.startswith("seed"):
        source = generate_program(int(label[4:]))
    elif label.startswith("recfp"):
        source = generate_program(int(label[5:]), recursion=True,
                                  funcptr=True)
    else:
        source = load_source(label)
    return compile_frontend(source, filename=label)


def _same_nodes(ours, theirs):
    """Walk two derivations in step: every statement and bound of the
    decoded one is the analysis's own object."""
    stack = [(ours, theirs)]
    while stack:
        a, b = stack.pop()
        assert type(a) is type(b)
        assert a.conclusion.stmt is b.conclusion.stmt
        assert a.conclusion.pre is b.conclusion.pre
        for x, y in zip(a.conclusion.post.parts(), b.conclusion.post.parts()):
            assert x is y
        if isinstance(a, dv.DFrame):
            assert a.frame is b.frame
        if isinstance(a, dv.DCall):
            assert a.spec_args.keys() == b.spec_args.keys()
            for name, expr in a.spec_args.items():
                assert expr is b.spec_args[name]
        assert len(a.children()) == len(b.children())
        stack.extend(zip(a.children(), b.children()))


@pytest.mark.parametrize("label", CORPUS)
def test_decoded_nodes_are_the_analysis_nodes(label):
    program = _program(label)
    analysis = StackAnalyzer(program).analyze()
    data = json.loads(export_certificate(analysis))
    table = _decode_bounds(data["bounds"])
    for name, entry in data["functions"].items():
        decoded = _derivation_from_json(
            entry["derivation"], _statements(program.function(name).body),
            table)
        _same_nodes(decoded, analysis.functions[name].derivation)
        spec = analysis.gamma[name]
        assert table[entry["spec"]["pre"]] is spec.pre
        assert table[entry["spec"]["post"]] is spec.post
        assert table[entry["total_bound"]] is \
            analysis.functions[name].total_bound
    # One row per distinct expression, children first.
    assert len({id(expr) for expr in table}) == len(table)
    for number, row in enumerate(data["bounds"]):
        refs = {"const": [], "metric": [], "param": [], "scale": row[2:],
                "half": row[2:]}.get(row[0], row[1:])
        assert all(ref < number for ref in refs), (number, row)


class TestCertificates:
    def test_export_is_canonical_json(self):
        program = lower(SOURCE)
        analysis = StackAnalyzer(program).analyze()
        text = export_certificate(analysis)
        data = json.loads(text)
        assert data["format"] == "repro-stack-certificate"
        assert data["version"] == 4
        assert set(data["functions"]) == {"leaf", "mid", "main"}
        assert text == json.dumps(certificate_document(analysis),
                                  sort_keys=True)

    def test_load_and_recheck(self):
        program = lower(SOURCE)
        analysis = StackAnalyzer(program).analyze()
        text = export_certificate(analysis)
        gamma, bounds, report = load_certificate(text, program)
        assert report.fully_exact
        assert "mid" in gamma
        metric = {"leaf": 4, "mid": 8, "main": 8}
        assert evaluate(bounds["main"], metric) == 8 + 8 + 4

    def test_certificate_against_fresh_parse(self):
        # The consumer has its own copy of the program (a fresh parse of
        # the same source) — exactly the interoperability scenario.
        producer_program = lower(SOURCE)
        analysis = StackAnalyzer(producer_program).analyze()
        text = export_certificate(analysis)
        consumer_program = lower(SOURCE)
        _gamma, _bounds, report = load_certificate(text, consumer_program)
        assert report.fully_exact

    def test_tampered_bound_rejected(self):
        program = lower(SOURCE)
        analysis = StackAnalyzer(program).analyze()
        data = json.loads(export_certificate(analysis))
        # Claim main's body needs nothing.
        spec = data["functions"]["main"]["spec"]
        spec["pre"] = spec["post"] = _forge(data, "const", 0)
        with pytest.raises(DerivationError):
            load_certificate(json.dumps(data), program)

    def test_certificate_for_different_program_rejected(self):
        program = lower(SOURCE)
        analysis = StackAnalyzer(program).analyze()
        text = export_certificate(analysis)
        other = lower("int leaf() { return 2; } "
                      "int mid(int n) { return leaf() + n; } "
                      "int main() { return mid(1); }")
        with pytest.raises(DerivationError):
            load_certificate(text, other)

    def test_unknown_function_rejected(self):
        program = lower(SOURCE)
        analysis = StackAnalyzer(program).analyze()
        data = json.loads(export_certificate(analysis))
        data["functions"]["ghost"] = data["functions"]["leaf"]
        with pytest.raises(DerivationError):
            load_certificate(json.dumps(data), program)

    def test_bad_format_rejected(self):
        program = lower(SOURCE)
        with pytest.raises(DerivationError):
            load_certificate(json.dumps({"format": "nope"}), program)

    def test_malformed_json_rejected_with_diagnostic(self):
        # A truncated file must yield a DerivationError, not leak the
        # raw json.JSONDecodeError to the caller.
        program = lower(SOURCE)
        text = export_certificate(StackAnalyzer(program).analyze())
        with pytest.raises(DerivationError, match="not valid JSON"):
            load_certificate(text[:len(text) // 2], program)

    def test_too_deeply_nested_json_rejected_with_diagnostic(self):
        program = lower(SOURCE)
        with pytest.raises(DerivationError, match="not valid JSON"):
            load_certificate("[" * 100_000, program)

    def test_non_object_json_rejected(self):
        program = lower(SOURCE)
        with pytest.raises(DerivationError, match="JSON object"):
            load_certificate("[1, 2, 3]", program)

    def test_version_skew_rejected(self):
        program = lower(SOURCE)
        data = json.loads(export_certificate(StackAnalyzer(program)
                                             .analyze()))
        data["version"] += 1
        with pytest.raises(DerivationError,
                           match="unsupported certificate version"):
            load_certificate(json.dumps(data), program)

    @pytest.mark.parametrize("version", [2, 3])
    def test_older_versions_ask_for_a_new_certificate(self, version):
        program = lower(SOURCE)
        data = json.loads(export_certificate(StackAnalyzer(program)
                                             .analyze()))
        data["version"] = version
        with pytest.raises(DerivationError,
                           match=f"unsupported certificate version "
                                 f"{version}; re-run `repro certify`"):
            load_certificate(json.dumps(data), program)

    def test_truncated_rule_tree_names_the_rule(self):
        # Deleting a premise must produce a diagnostic naming the rule
        # application, not an IndexError from blind child indexing.
        program = lower(SOURCE)
        data = json.loads(export_certificate(StackAnalyzer(program)
                                             .analyze()))

        def truncate(node):
            if node.get("children"):
                node["children"] = node["children"][:-1]
                return True
            return False

        assert any(truncate(entry["derivation"])
                   for entry in data["functions"].values())
        with pytest.raises(DerivationError, match=r"Q:\w+ application"):
            load_certificate(json.dumps(data), program)

    def test_corrupt_total_bound_rejected(self):
        # total_bound is advertised, not derived: the loader re-derives
        # M(f) + P_f and a lying field must carry no authority.
        program = lower(SOURCE)
        data = json.loads(export_certificate(StackAnalyzer(program)
                                             .analyze()))
        data["functions"]["main"]["total_bound"] = _forge(data, "const", 0)
        with pytest.raises(DerivationError, match="total_bound"):
            load_certificate(json.dumps(data), program)

    def test_negative_constant_rejected(self):
        program = lower(SOURCE)
        data = json.loads(export_certificate(StackAnalyzer(program)
                                             .analyze()))
        data["functions"]["leaf"]["spec"]["pre"] = _forge(data, "const", -1)
        with pytest.raises(DerivationError, match="natural"):
            load_certificate(json.dumps(data), program)

    def test_missing_field_rejected(self):
        program = lower(SOURCE)
        data = json.loads(export_certificate(StackAnalyzer(program)
                                             .analyze()))
        del data["functions"]["leaf"]["spec"]
        with pytest.raises(DerivationError, match="malformed certificate"):
            load_certificate(json.dumps(data), program)

    def test_certificates_for_benchmarks(self):
        program = lower(load_source("certikos/proc.c"))
        analysis = StackAnalyzer(program).analyze()
        text = export_certificate(analysis)
        _gamma, bounds, report = load_certificate(text, program)
        assert report.fully_exact
        assert set(bounds) == set(program.functions)


def _first(data, rule):
    """The first derivation node of ``rule`` in a certificate."""
    for entry in data["functions"].values():
        stack = [entry["derivation"]]
        while stack:
            node = stack.pop()
            if node["rule"] == rule:
                return node
            stack.extend(node.get("children", ()))
    raise AssertionError(f"no {rule} node")


#: One table or reference defect per case: (edit, diagnostic).
TABLE_DEFECTS = {
    "row-not-a-list": (lambda d: d["bounds"].__setitem__(0, {"k": 1}),
                       "not a non-empty list"),
    "empty-row": (lambda d: d["bounds"].__setitem__(0, []),
                  "not a non-empty list"),
    "unknown-kind": (lambda d: d["bounds"].__setitem__(0, ["sub", 0]),
                     "unknown bound kind"),
    "wrong-arity": (lambda d: d["bounds"].append(["log2", 0, 0]),
                    "takes 1 argument"),
    "empty-add": (lambda d: d["bounds"].append(["add"]),
                  "takes one or more"),
    "bool-reference": (lambda d: d["bounds"].append(["log2", True]),
                       "not an earlier row"),
    "float-reference": (lambda d: d["bounds"].append(["log2", 0.0]),
                        "not an earlier row"),
    "negative-reference": (lambda d: d["bounds"].append(["log2", -1]),
                           "not an earlier row"),
    "reference-past-the-table": (lambda d: d["bounds"].append(
        ["log2", len(d["bounds"]) + 5]), "not an earlier row"),
    "self-reference": (lambda d: d["bounds"].append(
        ["log2", len(d["bounds"])]), "not an earlier row"),
    "forward-reference": (lambda d: d["bounds"].insert(0, ["log2", 1]),
                          "not an earlier row"),
    "float-constant": (lambda d: d["bounds"].append(["const", 1.5]),
                       "natural"),
    "bool-constant": (lambda d: d["bounds"].append(["const", True]),
                      "natural"),
    "negative-scale": (lambda d: d["bounds"].append(["scale", -2, 0]),
                       "natural"),
    "non-bool-ceil": (lambda d: d["bounds"].append(["half", 1, 0]),
                      "boolean"),
    "non-string-metric": (lambda d: d["bounds"].append(["metric", 3]),
                          "string"),
    "bounds-not-a-list": (lambda d: d.__setitem__("bounds", {}),
                          "list of rows"),
    "field-out-of-range": (lambda d: d["functions"]["leaf"]["spec"]
                           .__setitem__("pre", len(d["bounds"])),
                           "not a row"),
    "bool-field": (lambda d: d["functions"]["leaf"].__setitem__(
        "total_bound", False), "not a row"),
    "stmt-out-of-range": (lambda d: _first(d, "Q:SEQ")["children"][0]
                          .__setitem__("stmt", 10_000), "statement number"),
    "stmt-not-an-int": (lambda d: _first(d, "Q:SEQ").__setitem__(
        "stmt", [0]), "statement number"),
    "post-of-three": (lambda d: _first(d, "Q:SEQ")["post"].pop(),
                      "four bound references"),
    "post-not-a-list": (lambda d: _first(d, "Q:SEQ").__setitem__(
        "post", 0), "four bound references"),
    "callee-not-a-name": (lambda d: _first(d, "Q:CALL").__setitem__(
        "callee", ["leaf"]), "callee"),
    "spec-args-not-an-object": (lambda d: _first(d, "Q:CALL").__setitem__(
        "spec_args", [1]), "spec_args"),
    "params-not-names": (lambda d: d["functions"]["leaf"]["spec"]
                         .__setitem__("params", [[1]]), "params"),
}


@pytest.mark.parametrize("defect", sorted(TABLE_DEFECTS))
def test_table_defects_are_diagnosed(defect):
    program = lower(SOURCE)
    data = json.loads(export_certificate(StackAnalyzer(program).analyze()))
    edit, needle = TABLE_DEFECTS[defect]
    edit(data)
    with pytest.raises(DerivationError, match=needle):
        load_certificate(json.dumps(data), program)


def test_a_duplicate_row_is_the_same_node():
    """Forged rows are appended, so a row may equal an earlier one: it
    decodes to the same interned expression, and the loader accepts it."""
    program = lower(SOURCE)
    data = json.loads(export_certificate(StackAnalyzer(program).analyze()))
    _gamma, bounds, _report = load_certificate(json.dumps(data), program)
    entry = data["functions"]["main"]
    entry["total_bound"] = _forge(data, *data["bounds"][entry["total_bound"]])
    _gamma, again, _report = load_certificate(json.dumps(data), program)
    assert again["main"] is bounds["main"]
