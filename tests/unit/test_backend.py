"""Unit tests for the backend passes: Cminor, RTL, optimizations,
register allocation, Linear, Mach."""

import pytest

from repro.c.parser import parse
from repro.c.typecheck import typecheck
from repro.clight import ast as cl
from repro.clight.from_c import clight_of_program
from repro.clight.semantics import run_program as run_clight
from repro.cminor import FRAME_VAR, cminor_of_clight
from repro.cminor.lower import layout_stackvars
from repro.events.refinement import check_quantitative_refinement
from repro.linear import ast as lin
from repro.linear.lower import linear_of_rtl
from repro.mach import ast as mach
from repro.mach.lower import arg_offsets, mach_of_linear
from repro.mach.semantics import run_program as run_mach
from repro.regalloc import (FLOAT_REGS, INT_REGS, LFReg, LReg, LSlot,
                            allocate_function)
from repro.rtl import ast as rtl
from repro.rtl.constprop import constprop, constprop_program
from repro.rtl.deadcode import deadcode
from repro.rtl.liveness import live_before, walk_live_out
from repro.rtl.lower import rtl_of_cminor
from repro.rtl.semantics import run_program as run_rtl


def lower(source):
    program = parse(source)
    env = typecheck(program)
    return clight_of_program(program, env)


def to_rtl(source):
    return rtl_of_cminor(cminor_of_clight(lower(source)))


def live_out_map(function, conservative=False):
    return {node: set(live) for node, _instr, live
            in walk_live_out(function, conservative)}


class TestCminor:
    def test_layout_respects_alignment(self):
        layout = layout_stackvars([
            cl.StackVar("c", 1, 1),
            cl.StackVar("d", 8, 4),
            cl.StackVar("i", 4, 4),
        ])
        assert layout.offsets == {"c": 0, "d": 4, "i": 12}
        assert layout.size == 16  # rounded to 8

    def test_empty_layout(self):
        layout = layout_stackvars([])
        assert layout.size == 0

    def test_single_frame_var(self):
        cminor = cminor_of_clight(lower(
            "int main() { int a[3]; int b[2]; a[0] = b[0] = 1; "
            "return a[0] + b[1]; }"))
        main = cminor.functions["main"]
        assert len(main.stackvars) == 1
        assert main.stackvars[0].name == FRAME_VAR
        assert main.stackvars[0].size == 24  # 12 + 8 rounded to 8

    def test_cminor_runs_identically(self):
        source = ("int main() { int a[4]; int x = 0; "
                  "for (int i = 0; i < 4; i++) a[i] = i * i; "
                  "for (int i = 0; i < 4; i++) x += a[i]; return x; }")
        clight = lower(source)
        cminor = cminor_of_clight(clight)
        b1 = run_clight(clight)
        b2 = run_clight(cminor.program)
        assert b1.trace == b2.trace
        assert b1.return_code == b2.return_code == 14


class TestRTLLowering:
    def test_every_function_lowered(self):
        program = to_rtl("int f() { return 1; } int main() { return f(); }")
        assert set(program.functions) == {"f", "main"}

    def test_graph_reachable_and_terminated(self):
        program = to_rtl(
            "int main() { int s = 0; for (int i = 0; i < 3; i++) s += i; "
            "return s; }")
        main = program.functions["main"]
        seen = set()
        stack = [main.entry]
        returns = 0
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            instr = main.graph[node]
            if isinstance(instr, rtl.Ireturn):
                returns += 1
            stack.extend(instr.successors())
        assert returns >= 1

    def test_float_condition_normalized(self):
        program = to_rtl("int main() { double d = 1.0; if (d) return 1; "
                         "return 0; }")
        main = program.functions["main"]
        for instr in main.graph.values():
            if isinstance(instr, rtl.Icond):
                assert instr.arg not in main.float_regs

    def test_rtl_executes(self):
        program = to_rtl(
            "int fib(int n) { if (n < 2) return 1; "
            "return fib(n-1) + fib(n-2); } "
            "int main() { return fib(10); }")
        behavior = run_rtl(program)
        assert behavior.return_code == 89


class TestConstprop:
    def test_constant_folded(self):
        program = to_rtl("int main() { int x = 2 + 3; return x * 4; }")
        changed = constprop_program(program)
        assert changed > 0
        behavior = run_rtl(program)
        assert behavior.return_code == 20

    def test_constant_branch_folded(self):
        program = to_rtl("int main() { if (1 < 2) return 7; return 8; }")
        constprop_program(program)
        main = program.functions["main"]
        conds = [i for i in main.graph.values()
                 if isinstance(i, rtl.Icond)]
        assert not conds
        assert run_rtl(program).return_code == 7

    def test_params_not_folded(self):
        program = to_rtl("int f(int x) { return x + 0 * x; } "
                         "int main() { return f(5); }")
        constprop_program(program)
        assert run_rtl(program).return_code == 5

    def test_division_by_zero_not_folded(self):
        # 1/0 must stay in the code (the program keeps its wrong behavior).
        program = to_rtl("int main() { int z = 0; return 1 / z; }")
        constprop_program(program)
        behavior = run_rtl(program)
        from repro.events.trace import GoesWrong

        assert isinstance(behavior, GoesWrong)

    def test_loop_variable_not_folded(self):
        program = to_rtl(
            "int main() { int s = 0; for (int i = 0; i < 4; i++) s += i; "
            "return s; }")
        constprop_program(program)
        assert run_rtl(program).return_code == 6

    def test_infinite_conversion_not_folded(self):
        # 1e400 reads as infinity; its conversion to int goes wrong.
        program = to_rtl("int main(void) { int x = 1e400; return x; }")
        constprop_program(program)
        from repro.events.trace import GoesWrong

        assert isinstance(run_rtl(program), GoesWrong)


@pytest.mark.parametrize("ctype", ["int", "unsigned"])
def test_infinite_double_to_integer_goes_wrong_at_every_level(ctype):
    """An out-of-range conversion goes wrong in Clight's semantics; every
    interpreter agrees, whatever the target's signedness."""
    from repro.driver import compile_c
    from repro.events.trace import GoesWrong

    compilation = compile_c("double g = 1e300;\nint main(void) { "
                            f"g = g * g; return ({ctype})g; }}\n")
    for behavior in (run_clight(compilation.clight),
                     run_rtl(compilation.rtl), run_mach(compilation.mach)):
        assert isinstance(behavior, GoesWrong)
        assert "conversion out of range: inf" in behavior.reason


class TestDeadcode:
    def test_dead_computation_removed(self):
        program = to_rtl("int main() { int dead = 1 + 2; return 7; }")
        main = program.functions["main"]
        before = sum(1 for i in main.graph.values()
                     if isinstance(i, rtl.Iop))
        removed = deadcode(main)
        assert removed > 0
        after = sum(1 for i in main.graph.values()
                    if isinstance(i, rtl.Iop))
        assert after < before
        assert run_rtl(program).return_code == 7

    def test_stores_never_removed(self):
        program = to_rtl("int g; int main() { g = 5; return 0; }")
        main = program.functions["main"]
        deadcode(main)
        stores = [i for i in main.graph.values()
                  if isinstance(i, rtl.Istore)]
        assert stores

    def test_cascading_removal(self):
        program = to_rtl(
            "int main() { int a = 1; int b = a + 2; int c = b * 3; "
            "return 9; }")
        main = program.functions["main"]
        deadcode(main)
        ops = [i for i in main.graph.values()
               if isinstance(i, rtl.Iop) and i.op[0] == "binop"]
        assert not ops

    def test_unreachable_pruned(self):
        program = to_rtl("int main() { if (1) return 1; return 2; }")
        main = program.functions["main"]
        constprop(main)
        deadcode(main)
        returns = [i for i in main.graph.values()
                   if isinstance(i, rtl.Ireturn)]
        # only the taken return (plus the synthetic fallback if reachable)
        assert len(returns) <= 2


class TestLiveness:
    def test_param_live_at_entry(self):
        program = to_rtl("int f(int x) { return x; } "
                         "int main() { return f(1); }")
        f = program.functions["f"]
        live = live_out_map(f)
        param = f.params[0]
        entry_live_in = live_before(f.graph[f.entry], live[f.entry])
        assert param in entry_live_in


class TestRegalloc:
    def test_all_vregs_mapped(self):
        program = to_rtl("int main() { int a = 1, b = 2, c = 3; "
                         "return a + b * c; }")
        main = program.functions["main"]
        allocation = allocate_function(main)
        for node, instr in main.graph.items():
            for reg in list(instr.uses()) + list(instr.defs()):
                assert reg in allocation.mapping

    def test_classes_respected(self):
        program = to_rtl("int main() { double d = 1.5; int i = 2; "
                         "return i + (d > 1.0); }")
        main = program.functions["main"]
        allocation = allocate_function(main)
        for reg, loc in allocation.mapping.items():
            assert loc.is_float_class == (reg in main.float_regs)

    def test_values_live_across_calls_spilled(self):
        program = to_rtl(
            "int f() { return 1; } "
            "int main() { int keep = 42; f(); return keep; }")
        main = program.functions["main"]
        allocation = allocate_function(main)
        live = live_out_map(main, conservative=True)
        for node, instr in main.graph.items():
            if isinstance(instr, rtl.Icall):
                for reg in live[node]:
                    if reg == instr.dest:
                        continue
                    assert isinstance(allocation.loc(reg), LSlot), \
                        f"r{reg} live across a call but in a register"

    def test_spill_slots_independent_of_graph_order(self):
        # r1 is live across the first call and r9 across the second.  1
        # and 9 share a bucket of a small set's hash table, so a spill
        # set iterated in insertion order would number their slots in
        # whatever order the calls were visited.
        nodes = [
            (6, rtl.Iop(("const", 1), [], 1, 5)),
            (5, rtl.Icall(None, "f", [], 4)),
            (4, rtl.Iop(("binop", "add"), [1, 1], 9, 3)),
            (3, rtl.Icall(None, "f", [], 2)),
            (2, rtl.Ireturn(9)),
        ]

        def build(items):
            return rtl.RTLFunction("g", [], set(), 0, dict(items), 6, 10,
                                   False, [])

        forward = allocate_function(build(nodes))
        backward = allocate_function(build(reversed(nodes)))
        assert isinstance(forward.loc(1), LSlot)
        assert isinstance(forward.loc(9), LSlot)
        assert forward.mapping == backward.mapping

    def test_params_get_distinct_locations(self):
        program = to_rtl("int f(int a, int b, int c) { return a*100+b*10+c; }"
                         " int main() { return f(1, 2, 3); }")
        f = program.functions["f"]
        allocation = allocate_function(f)
        locations = [allocation.loc(p) for p in f.params]
        assert len({repr(l) for l in locations}) == 3

    def test_spill_everything_mode(self):
        program = to_rtl("int main() { int a = 1; return a; }")
        main = program.functions["main"]
        allocation = allocate_function(main, spill_everything=True)
        assert all(isinstance(loc, LSlot)
                   for loc in allocation.mapping.values())

    def test_scratch_registers_never_allocated(self):
        program = to_rtl(
            "int main() { int a=1,b=2,c=3,d=4,e=5,f=6,g=7,h=8; "
            "return a+b+c+d+e+f+g+h; }")
        main = program.functions["main"]
        allocation = allocate_function(main)
        for loc in allocation.mapping.values():
            if isinstance(loc, LReg):
                assert loc.name in INT_REGS
            if isinstance(loc, LFReg):
                assert loc.name in FLOAT_REGS


class TestLinearAndMach:
    def test_linearization_preserves_behavior(self):
        source = ("int gcd(int a, int b) { while (b) { int t = a % b; "
                  "a = b; b = t; } return a; } "
                  "int main() { return gcd(48, 18); }")
        program = to_rtl(source)
        linear = linear_of_rtl(program)
        machp = mach_of_linear(linear)
        assert run_mach(machp).return_code == 6

    def test_arg_offsets(self):
        offsets, total = arg_offsets([False, True, False])
        assert offsets == [0, 4, 12]
        assert total == 16

    def test_frame_info_layout(self):
        frame = mach.FrameInfo(out_size=8, int_slots=2, float_slots=1,
                               locals_size=12)
        assert frame.out_size == 8
        assert frame.slot_offset(LSlot(0, False)) == 8
        assert frame.slot_offset(LSlot(1, False)) == 12
        assert frame.slot_offset(LSlot(0, True)) == 16
        assert frame.locals_base == 24
        assert frame.size == 40  # 24 + 12 = 36 rounded to 8

    def test_metric_adds_return_address(self):
        program = lower("int main() { return 0; }")
        from repro.driver import compile_clight

        compilation = compile_clight(program)
        sf = compilation.frame_sizes["main"]
        assert compilation.metric.cost("main") == sf + 4

    def test_leaf_frame_can_be_empty(self):
        from repro.driver import compile_clight

        compilation = compile_clight(lower(
            "int f() { return 1; } int main() { return f(); }"))
        assert compilation.frame_sizes["f"] == 0
        assert compilation.metric.cost("f") == 4

    def test_mach_traces_match_clight(self):
        source = ("int sq(int x) { return x * x; } "
                  "int main() { int s = 0; "
                  "for (int i = 0; i < 5; i++) s += sq(i); "
                  "print_int(s); return s; }")
        clight = lower(source)
        from repro.driver import compile_clight

        compilation = compile_clight(clight)
        b_clight = run_clight(clight)
        b_mach = run_mach(compilation.mach)
        assert b_clight.trace == b_mach.trace
        check_quantitative_refinement(b_mach, b_clight, compilation.metric)
