"""Unit tests for the fault-operator registry (repro.testing.faults)."""

import json
import os
import re

import pytest

from repro.analyzer import StackAnalyzer
from repro.driver import compile_c, compile_frontend
from repro.events.trace import CallEvent, IOEvent, ReturnEvent
from repro.logic.certificate import export_certificate
from repro.programs.loader import load_source
from repro.testing.faults import (LAYERS, UnknownFaultError,
                                  apply_metric_fault, get_operator,
                                  metric_fault_names, operators,
                                  refinement_oracles_reject, validate_plant)

SOURCE = """
int leaf(int x) { int a[4]; a[x & 3] = x; return a[0] + 1; }
int main(void) { print_int(leaf(3)); return 0; }
"""


@pytest.fixture(scope="module")
def compilation():
    return compile_c(SOURCE, filename="faults_unit.c")


@pytest.fixture(scope="module")
def cert_text(compilation):
    return export_certificate(StackAnalyzer(compilation.clight).analyze())


@pytest.fixture(scope="module")
def recursive_cert_text():
    program = compile_frontend(load_source("recursive/bsearch.c"),
                               filename="bsearch.c")
    return export_certificate(StackAnalyzer(program).analyze())


class TestRegistry:
    def test_issue_floor_of_twelve_operators(self):
        assert len(operators()) >= 12

    def test_every_layer_is_populated(self):
        for layer in LAYERS:
            assert operators(layer), f"no operators in layer {layer!r}"

    def test_names_are_unique_and_resolvable(self):
        names = [op.name for op in operators()]
        assert len(names) == len(set(names))
        for name in names:
            assert get_operator(name).name == name

    def test_unknown_operator_raises(self):
        with pytest.raises(UnknownFaultError, match="registered"):
            get_operator("drop-everything")

    def test_plants_are_exactly_the_metric_layer(self):
        assert metric_fault_names() == [op.name
                                        for op in operators("metric")]

    def test_threat_model_table_names_exactly_the_registry(self):
        # docs/TESTING.md: one row per layer, operators in column three.
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               os.pardir, "docs", "TESTING.md")) as handle:
            text = handle.read()
        table = text[text.index("| layer | artifact attacked |"):]
        rows = [row.split("|")
                for row in table[:table.index("\n\n")].splitlines()[2:]]
        assert {row[1].strip(" `"): set(re.findall(r"`([^`]+)`", row[3]))
                for row in rows} == \
            {layer: {op.name for op in operators(layer)} for layer in LAYERS}

    def test_validate_plant(self):
        validate_plant(None)
        for name in metric_fault_names():
            validate_plant(name)
        with pytest.raises(UnknownFaultError, match="known plants"):
            validate_plant("drop-sp")
        with pytest.raises(UnknownFaultError):
            validate_plant("json-malform")  # right registry, wrong layer


class TestMetricOperators:
    def test_drop_ra_removes_four_bytes_everywhere(self, compilation):
        clean = compilation.metric
        mutant = apply_metric_fault("drop-ra", compilation)
        for name in compilation.frame_sizes:
            assert mutant.cost(name) == clean.cost(name) - 4

    def test_shrink_and_misalign_hit_main(self, compilation):
        main = compilation.asm.main
        clean = compilation.metric.cost(main)
        assert apply_metric_fault("shrink-frame",
                                  compilation).cost(main) == clean - 8
        assert apply_metric_fault("misalign-frame",
                                  compilation).cost(main) == clean - 2

    def test_unknown_plant_fails_before_any_work(self, compilation):
        with pytest.raises(UnknownFaultError):
            apply_metric_fault("nope", compilation)


class TestCertificateOperators:
    """Each operator mutates certificate text into *different* text."""

    CERT_OPS = ["const-decrement", "post-slot-swap", "frame-premise-drop",
                "call-retarget", "stmt-renumber", "total-bound-corrupt",
                "frame-negative", "spec-corrupt", "bound-ref-forward",
                "rule-tree-truncate", "version-skew", "json-malform"]

    #: Operators that forge a bound expression.
    FORGING_OPS = ["const-decrement", "rec-depth-off-by-one",
                   "total-bound-corrupt", "frame-negative", "spec-corrupt"]

    @pytest.mark.parametrize("name", CERT_OPS)
    def test_operator_produces_a_distinct_mutant(self, name, cert_text):
        mutated = get_operator(name).apply(cert_text)
        if mutated is None:
            pytest.skip(f"{name} has no site in this program's certificate")
        assert mutated != cert_text

    @pytest.mark.parametrize("name", FORGING_OPS)
    def test_forged_bounds_are_new_rows(self, name, cert_text,
                                        recursive_cert_text):
        """A forgery appends rows and leaves every existing row as it
        was, so no other use of a shared row changes."""
        applied = 0
        for text in (cert_text, recursive_cert_text):
            mutated = get_operator(name).apply(text)
            if mutated is None:
                continue
            applied += 1
            rows, forged = json.loads(text)["bounds"], \
                json.loads(mutated)["bounds"]
            assert len(forged) > len(rows)
            assert forged[:len(rows)] == rows
        assert applied

    def test_stmt_renumber_moves_one_application(self, cert_text):
        def numbers(text):
            found = []
            for entry in json.loads(text)["functions"].values():
                stack = [entry["derivation"]]
                while stack:
                    node = stack.pop()
                    found.append(node["stmt"])
                    stack.extend(node.get("children", ()))
            return found

        before = numbers(cert_text)
        after = numbers(get_operator("stmt-renumber").apply(cert_text))
        assert sum(a != b for a, b in zip(before, after)) == 1

    def test_version_skew_bumps_version(self, cert_text):
        mutated = get_operator("version-skew").apply(cert_text)
        assert (json.loads(mutated)["version"]
                == json.loads(cert_text)["version"] + 1)

    def test_json_malform_is_not_json(self, cert_text):
        mutated = get_operator("json-malform").apply(cert_text)
        with pytest.raises(ValueError):
            json.loads(mutated)


class TestRefinementOperators:
    TRACE = (CallEvent("main"), CallEvent("f"),
             IOEvent("print_int", (1,), 0),
             ReturnEvent("f"), ReturnEvent("main"))

    def test_call_drop_orphans_the_return(self):
        mutated = get_operator("call-drop").apply(self.TRACE)
        rejected, oracle, _ = refinement_oracles_reject(mutated, self.TRACE)
        assert rejected and oracle == "well-bracketing"

    def test_ret_drop_needs_the_empty_stack_check(self):
        # Dropping the final ret(main) leaves a *prefix* of a bracketed
        # trace — only the converged-trace emptiness requirement sees it.
        mutated = get_operator("ret-drop").apply(self.TRACE)
        rejected, oracle, _ = refinement_oracles_reject(mutated, self.TRACE)
        assert rejected and oracle == "well-bracketing"

    def test_duplicates_are_rejected(self):
        for name in ("call-duplicate", "ret-duplicate"):
            mutated = get_operator(name).apply(self.TRACE)
            rejected, _oracle, _ = refinement_oracles_reject(mutated,
                                                             self.TRACE)
            assert rejected, name

    def test_io_drop_breaks_the_pruned_match(self):
        mutated = get_operator("io-drop").apply(self.TRACE)
        rejected, oracle, _ = refinement_oracles_reject(mutated, self.TRACE)
        assert rejected and oracle == "pruned-trace"

    def test_operators_are_inapplicable_on_empty_traces(self):
        for op in operators("refinement"):
            assert op.apply(()) is None

    def test_clean_trace_is_accepted(self):
        rejected, _oracle, _ = refinement_oracles_reject(self.TRACE,
                                                         self.TRACE)
        assert not rejected


class TestServingOperators:
    """Each serving scenario injects its fault and names who caught it."""

    def test_registry_has_the_three_scenarios(self):
        names = {op.name for op in operators("serving")}
        assert {"stale-cache-entry", "response-truncate",
                "worker-death"} <= names

    def test_stale_cache_entry_is_caught_by_store_integrity(self):
        detected, caught_by, diagnostic = \
            get_operator("stale-cache-entry").apply()
        assert detected, diagnostic
        assert caught_by == "store-integrity"

    def test_response_truncate_is_caught_by_the_schema_validator(self):
        detected, caught_by, diagnostic = \
            get_operator("response-truncate").apply()
        assert detected, diagnostic
        assert caught_by == "response-schema"

    def test_worker_death_is_caught_by_the_request_timeout(self):
        detected, caught_by, diagnostic = \
            get_operator("worker-death").apply()
        assert detected, diagnostic
        assert caught_by == "request-timeout"

    def test_serving_operators_are_not_plants(self):
        # --plant is a compiler-layer concept; the serving scenarios
        # must never leak into the campaign's plant namespace.
        for op in operators("serving"):
            assert op.name not in metric_fault_names()


class TestComparatorOperators:
    """Each comparator fault must be caught by the cross-check backend."""

    def test_registry_has_both_scenarios(self):
        names = {op.name for op in operators("comparator")}
        assert {"fm-strict-gap-drop", "fm-nonneg-drop"} <= names

    @pytest.mark.parametrize("name", ["fm-strict-gap-drop",
                                      "fm-nonneg-drop"])
    def test_fault_is_caught_by_the_cross_check(self, name):
        detected, caught_by, diagnostic = get_operator(name).apply()
        assert detected, diagnostic
        # With z3 installed the differential itself disagrees; without it
        # the witness audit flags the uncertifiable refusal.  Either way
        # the lie does not survive.
        assert caught_by in ("smt-differential", "witness-audit")

    @pytest.mark.parametrize("name", ["fm-strict-gap-drop",
                                      "fm-nonneg-drop"])
    def test_fault_does_not_leak(self, name):
        from repro.logic import bexpr

        get_operator(name).apply()
        assert bexpr._FAULT is None
        assert bexpr.get_default_backend() == "fm"

    def test_comparator_operators_are_not_plants(self):
        for op in operators("comparator"):
            assert op.name not in metric_fault_names()


class TestCatalogCorpusIsAnalyzable:
    def test_default_catalog_members_analyze(self):
        from repro.testing.faults import DEFAULT_CATALOG

        for path in DEFAULT_CATALOG:
            program = compile_frontend(load_source(path), filename=path)
            StackAnalyzer(program).analyze()
