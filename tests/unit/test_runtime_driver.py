"""Unit tests for the builtin runtime and the top-level driver."""

import math

import pytest

from repro.driver import (CompilerOptions, VerifiedBounds, compile_c,
                          verify_stack_bounds)
from repro.errors import DynamicError, UndefinedBehaviorError
from repro.events.trace import Converges, IOEvent
from repro.memory.values import VFloat, VInt, VPtr
from repro.runtime import EXTERNAL_INFO, call_external, is_known_external


def _alloc(size):
    return VPtr(99, 0)


class TestRuntime:
    def test_print_int_event(self):
        result, event = call_external("print_int", [VInt(-5)], _alloc)
        assert event == IOEvent("print_int", [-5], 0)

    def test_print_outputs_collected(self):
        output = []
        call_external("print_int", [VInt(3)], _alloc, output)
        call_external("print_char", [VInt(65)], _alloc, output)
        call_external("print_float", [VFloat(0.5)], _alloc, output)
        assert output == [3, "A", 0.5]

    def test_math_builtins(self):
        result, event = call_external("sqrt", [VFloat(9.0)], _alloc)
        assert result == VFloat(3.0)
        result, _ = call_external("pow", [VFloat(2.0), VFloat(10.0)], _alloc)
        assert result == VFloat(1024.0)

    def test_math_domain_error_is_nan(self):
        result, _ = call_external("sqrt", [VFloat(-1.0)], _alloc)
        assert result.value != result.value

    def test_malloc_event_carries_size_not_pointer(self):
        result, event = call_external("malloc", [VInt(16)], _alloc)
        assert event == IOEvent("malloc", [16], 0)
        assert result == VPtr(99, 0)

    def test_abort_raises(self):
        with pytest.raises(DynamicError):
            call_external("abort", [], _alloc)

    def test_arity_checked(self):
        with pytest.raises(UndefinedBehaviorError):
            call_external("sin", [], _alloc)

    def test_wrong_class_checked(self):
        with pytest.raises(UndefinedBehaviorError):
            call_external("sin", [VInt(1)], _alloc)

    def test_unknown_external(self):
        with pytest.raises(DynamicError):
            call_external("nonsense", [], _alloc)
        assert not is_known_external("nonsense")
        assert is_known_external("sin")

    def test_external_info_consistent(self):
        """The runtime and the typechecker know the same externals, with
        the same arity: a call the typechecker accepts is one the
        runtime can execute."""
        from repro.c.typecheck import BUILTIN_SIGNATURES

        assert set(EXTERNAL_INFO) == set(BUILTIN_SIGNATURES)
        for name, arity in EXTERNAL_INFO.items():
            assert arity == len(BUILTIN_SIGNATURES[name].params), name


class TestDriver:
    SOURCE = ("int helper(int x) { return x * 2; } "
              "int main() { print_int(helper(21)); return 0; }")

    def test_compile_c_produces_all_levels(self):
        compilation = compile_c(self.SOURCE)
        assert compilation.clight.function("main")
        assert "main" in compilation.rtl.functions
        assert "main" in compilation.linear.functions
        assert "main" in compilation.mach.functions
        assert "main" in compilation.asm.functions

    def test_macros_forwarded(self):
        compilation = compile_c("int main() { return N; }",
                                macros={"N": "17"})
        behavior, _machine = compilation.run()
        assert behavior.return_code == 17

    def test_metric_covers_all_functions(self):
        compilation = compile_c(self.SOURCE)
        assert set(compilation.frame_sizes) == {"helper", "main"}
        for name, sf in compilation.frame_sizes.items():
            assert compilation.metric.cost(name) == sf + 4

    def test_verify_stack_bounds_end_to_end(self):
        bounds = verify_stack_bounds(self.SOURCE)
        table = bounds.all_bytes()
        assert set(table) == {"helper", "main"}
        assert table["main"] >= table["helper"]
        assert bounds.stack_requirement() == table["main"]

    def test_verified_program_runs_at_bound(self):
        bounds = verify_stack_bounds(self.SOURCE)
        behavior, machine = bounds.compilation.run(
            stack_bytes=bounds.stack_requirement() + 4)
        assert isinstance(behavior, Converges)
        assert machine.measured_stack_usage == bounds.stack_requirement() - 4

    def test_options_disable_passes(self):
        options = CompilerOptions(constprop=False, deadcode=False)
        compilation = compile_c(self.SOURCE, options=options)
        behavior, _machine = compilation.run()
        assert behavior.return_code == 0

    def test_spill_everything_inflates_frames(self):
        default = compile_c(self.SOURCE)
        spilled = compile_c(self.SOURCE,
                            options=CompilerOptions(spill_everything=True))
        assert spilled.frame_sizes["main"] >= default.frame_sizes["main"]
        behavior, _machine = spilled.run()
        assert behavior.return_code == 0

    def test_symbolic_bounds_exposed(self):
        bounds = verify_stack_bounds(self.SOURCE)
        assert "M(helper)" in repr(bounds.symbolic("main"))

    def test_inexact_derivation_check_raises(self, monkeypatch):
        """A sampled (non-exact) derivation re-check must raise
        AnalysisError — a bare assert would vanish under ``python -O``
        (regression for the guard in verify_stack_bounds)."""
        from repro.analyzer import AnalysisResult
        from repro.errors import AnalysisError
        from repro.logic.checker import CheckReport

        def sampled_check(self, externals=None):
            report = CheckReport()
            report.nodes = 1
            report.sampled_conditions = 1
            return report

        monkeypatch.setattr(AnalysisResult, "check", sampled_check)
        with pytest.raises(AnalysisError, match="sampled"):
            verify_stack_bounds(self.SOURCE)
        # With the re-check disabled the sampled report is never consulted.
        bounds = verify_stack_bounds(self.SOURCE, check_derivations=False)
        assert bounds.stack_requirement() > 0
