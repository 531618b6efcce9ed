"""The block-level dataflow solvers, against a pointwise reference.

The reference is the plain per-instruction Kildall worklist that the
block solvers replaced: a fact before (forward) or after (backward)
every node, with allocate-and-compare joins.  It stays here as the
differential oracle, on hand-built CFGs and on random ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cminor import cminor_of_clight
from repro.driver import compile_frontend
from repro.memory.chunks import Chunk
from repro.programs.loader import all_programs, load_source
from repro.rtl import ast as rtl
from repro.rtl import constprop as cp
from repro.rtl import cse
from repro.rtl import liveness as lv
from repro.rtl.constprop import constprop_program
from repro.rtl.cse import cse_program
from repro.rtl.dataflow import (Blocks, solve_backward, solve_forward,
                                walk_backward, walk_forward)
from repro.rtl.deadcode import deadcode, deadcode_program
from repro.rtl.lower import rtl_of_cminor
from repro.rtl.tailcall import tailcall_program
from repro.testing.progen import generate_program


# -- the pointwise reference ------------------------------------------------

def predecessors(graph):
    preds = {node: [] for node in graph}
    for node, instr in graph.items():
        for succ in instr.successors():
            preds.setdefault(succ, []).append(node)
    return preds


def reference_forward(function, entry_fact, join, transfer, equal):
    """Facts *before* each node; unreachable nodes are absent."""
    graph = function.graph
    facts = {function.entry: entry_fact}
    worklist = [function.entry]
    while worklist:
        node = worklist.pop()
        instr = graph[node]
        out = transfer(node, instr, facts[node])
        for succ in instr.successors():
            if succ not in facts:
                facts[succ] = out
                worklist.append(succ)
            else:
                merged = join(facts[succ], out)
                if not equal(merged, facts[succ]):
                    facts[succ] = merged
                    worklist.append(succ)
    return facts


def reference_backward(function, exit_fact, join, transfer, equal):
    """Facts *after* each node (the join over successors' before-facts)."""
    graph = function.graph
    preds = predecessors(graph)
    after = {node: exit_fact for node in graph}
    before = {}
    worklist = list(graph)
    while worklist:
        node = worklist.pop()
        instr = graph[node]
        new_before = transfer(node, instr, after[node])
        if node in before and equal(new_before, before[node]):
            continue
        before[node] = new_before
        for pred in preds.get(node, ()):
            merged = join(after[pred], new_before)
            if not equal(merged, after[pred]):
                after[pred] = merged
                worklist.append(pred)
    return after


def pointwise(transfer, copy):
    """An in-place block transfer as the reference's functional one."""
    def step(_node, instr, fact):
        out = copy(fact)
        transfer(instr, out)
        return out
    return step


def walked(walk, copy):
    """Node -> a copy of the fact a block walk yields there."""
    return {node: copy(fact) for node, _instr, fact in walk}


def constprop_join(a, b):
    out = dict(a)
    for reg, value in b.items():
        if reg not in out:
            out[reg] = value
        elif out[reg] != value:
            out[reg] = cp.NAC
    return out


def block_liveness(function, conservative):
    return walked(lv.walk_live_out(function, conservative), set)


def reference_liveness(function, conservative):
    transfer = (lv._transfer_conservative if conservative
                else lv._transfer_faint)
    return reference_backward(function, frozenset(), lambda a, b: a | b,
                              pointwise(transfer, set), lambda a, b: a == b)


def block_constprop_facts(function):
    entry = {param: cp.NAC for param in function.params}
    blocks, facts = solve_forward(function, entry, cp._transfer, cp._merge,
                                  dict)
    return walked(walk_forward(blocks, facts, cp._transfer), dict)


def reference_constprop_facts(function):
    entry = {param: cp.NAC for param in function.params}
    return reference_forward(function, entry, constprop_join,
                             pointwise(cp._transfer, dict),
                             lambda a, b: a == b)


def cse_facts(function):
    blocks, facts = solve_forward(function, {}, cse._transfer, cse._merge,
                                  dict)
    return walked(walk_forward(blocks, facts, cse._transfer), dict)


def assert_cse_post_fixpoint(function):
    """Every fact CSE claims at a node holds after each predecessor.

    CSE's transfer is not monotone, so this, not agreement with the
    reference, is its soundness condition: ``fact[succ]`` is contained
    in ``transfer(fact[pred])`` on every edge, and nothing is available
    at the entry.
    """
    facts = cse_facts(function)
    assert facts[function.entry] == {}
    for node, fact in facts.items():
        instr = function.graph[node]
        out = dict(fact)
        cse._transfer(instr, out)
        for succ in instr.successors():
            assert facts[succ].items() <= out.items(), \
                f"{function.name}: edge {node}->{succ}"


def assert_well_formed(function, blocks):
    graph = function.graph
    nodes = [node for leader in blocks.leaders
             for node in blocks.body[leader]]
    assert sorted(nodes) == sorted(graph)  # every node exactly once
    assert blocks.leaders[0] == function.entry
    preds = predecessors(graph)
    for leader in blocks.leaders:
        body = blocks.body[leader]
        assert body[0] == leader
        for node, nxt in zip(body, body[1:]):
            assert graph[node].successors() == (nxt,)
            assert preds[nxt] == [node]
        for succ in blocks.successors(leader):
            assert succ in blocks.body


# -- hand-built CFGs --------------------------------------------------------

def diamond():
    """1: cond -> 2 | 3;  2,3 -> 4;  4: return."""
    graph = {
        1: rtl.Icond(10, 2, 3),
        2: rtl.Iop(("const", 1), [], 11, 4),
        3: rtl.Iop(("const", 2), [], 11, 4),
        4: rtl.Ireturn(11),
    }
    return rtl.RTLFunction("d", [10], set(), 0, graph, 1, 20, False, [False])


def loop():
    """1 -> 2; 2: cond -> 3 (body) | 4; 3 -> 2; 4: return."""
    graph = {
        1: rtl.Iop(("const", 0), [], 5, 2),
        2: rtl.Icond(5, 3, 4),
        3: rtl.Iop(("binop", "add"), [5, 5], 5, 2),
        4: rtl.Ireturn(5),
    }
    return rtl.RTLFunction("l", [], set(), 0, graph, 1, 10, False, [])


def seen_instrs(function):
    """Forward facts: the set of instructions executed on some path."""
    def transfer(instr, fact):
        fact.add(instr)

    def merge(old, new):
        size = len(old)
        old |= new
        return len(old) != size

    blocks, facts = solve_forward(function, set(), transfer, merge, set)
    return walked(walk_forward(blocks, facts, transfer), set)


def live_out(function):
    blocks, facts = solve_backward(function, set(),
                                   lv._transfer_conservative, lv._merge, set)
    return walked(walk_backward(blocks, facts, lv._transfer_conservative),
                  set)


class TestPredecessors:
    def test_diamond(self):
        preds = Blocks(diamond()).predecessors()
        assert sorted(preds[4]) == [2, 3]
        assert preds[1] == []

    def test_loop_back_edge(self):
        preds = Blocks(loop()).predecessors()
        assert sorted(preds[2]) == [1, 3]


class TestForward:
    def test_reaches_all_reachable(self):
        function = diamond()
        facts = seen_instrs(function)
        assert set(facts) == {1, 2, 3, 4}
        # node 4 merges both branch histories
        assert {function.graph[2], function.graph[3]} <= facts[4]

    def test_unreachable_nodes_absent(self):
        function = diamond()
        function.graph[9] = rtl.Ireturn(None)  # orphan
        assert 9 not in seen_instrs(function)

    def test_loop_reaches_fixpoint(self):
        function = loop()
        facts = seen_instrs(function)
        assert function.graph[3] in facts[2]  # the back edge propagated


class TestBackward:
    def test_liveness_shape(self):
        after = live_out(diamond())
        # r11 is live after nodes 2 and 3 (used by the return).
        assert 11 in after[2] and 11 in after[3]
        assert 11 not in after[4]

    def test_loop_backward_fixpoint(self):
        after = live_out(loop())
        # r5 stays live around the loop.
        assert 5 in after[1]
        assert 5 in after[3]


def corner(graph, entry):
    return rtl.RTLFunction("c", [7], set(), 0, graph, entry, 20, False,
                           [False])


CORNERS = {
    # 2 jumps to itself: a one-node loop.
    "self-loop": corner({
        1: rtl.Iop(("const", 0), [], 5, 2),
        2: rtl.Iop(("binop", "add"), [5, 7], 5, 2),
    }, 1),
    # Both arms of the branch are node 2, twice a predecessor of it.
    "same-arm cond": corner({
        1: rtl.Icond(7, 2, 2),
        2: rtl.Iop(("const", 3), [], 5, 3),
        3: rtl.Ireturn(5),
    }, 1),
    # What tail-call elimination makes: a jump back into the entry.
    "entry back edge": corner({
        1: rtl.Iop(("binop", "add"), [7, 7], 7, 2),
        2: rtl.Icond(7, 1, 3),
        3: rtl.Ireturn(7),
    }, 1),
    # 5 -> 6 -> 5 is unreachable and every node of it has one
    # predecessor and one successor: no node is a leader by rule.
    "leaderless cycle": corner({
        1: rtl.Ireturn(7),
        5: rtl.Iop(("binop", "add"), [8, 9], 9, 6),
        6: rtl.Iop(("move",), [9], 8, 5),
    }, 1),
}


@pytest.mark.parametrize("name", sorted(CORNERS))
def test_corner_cfgs_match_reference(name):
    function = CORNERS[name]
    assert_well_formed(function, Blocks(function))
    for conservative in (False, True):
        assert block_liveness(function, conservative) == \
            reference_liveness(function, conservative)
    assert block_constprop_facts(function) == \
        reference_constprop_facts(function)
    assert_cse_post_fixpoint(function)


# -- random CFGs ------------------------------------------------------------

OPS = [("const", 3), ("const", 0), ("move",), ("binop", "add"),
       ("binop", "mul"), ("binop", "divs"), ("binop", "cmp_lts"),
       ("unop", "neg"), ("addrglobal", "g")]
ARITY = {"const": 0, "addrglobal": 0, "move": 1, "unop": 1, "binop": 2}


@st.composite
def random_functions(draw, define_all=False):
    """A random RTL function over a handful of registers.

    Successors are arbitrary, so self-loops, branches with equal arms and
    jumps back into the entry all occur.  Up to three extra nodes form an
    unreachable cycle that has no leader by rule.  With ``define_all``
    the entry block first assigns a constant to every register, and no
    edge enters that block past its first node.
    """
    size = draw(st.integers(1, 9))
    nregs = draw(st.integers(1, 4))
    nodes = list(range(1, size + 1))
    reg = st.integers(0, nregs - 1)
    graph = {}
    entry = 100 if define_all else draw(st.sampled_from(nodes))
    target = st.sampled_from(nodes + ([entry] if define_all else []))

    def instr(succ):
        kind = draw(st.sampled_from(["op", "op", "load", "store", "call",
                                     "nop"]))
        if kind == "op":
            op = draw(st.sampled_from(OPS))
            args = [draw(reg) for _ in range(ARITY[op[0]])]
            return rtl.Iop(op, args, draw(reg), succ)
        if kind == "load":
            return rtl.Iload(Chunk.INT32, draw(reg), draw(reg), succ)
        if kind == "store":
            return rtl.Istore(Chunk.INT32, draw(reg), draw(reg), succ)
        if kind == "call":
            dest = draw(st.one_of(st.none(), reg))
            return rtl.Icall(dest, "f", [draw(reg)], succ)
        return rtl.Inop(succ)

    for node in nodes:
        shape = draw(st.sampled_from(["straight", "straight", "cond",
                                      "return"]))
        if shape == "cond":
            graph[node] = rtl.Icond(draw(reg), draw(target), draw(target))
        elif shape == "return":
            graph[node] = rtl.Ireturn(draw(st.one_of(st.none(), reg)))
        else:
            graph[node] = instr(draw(target))
    cycle = [50 + i for i in range(draw(st.integers(0, 3)))]
    for index, node in enumerate(cycle):
        graph[node] = instr(cycle[(index + 1) % len(cycle)])
    if define_all:
        chain = [entry + r for r in range(nregs)] + [nodes[0]]
        for r in range(nregs):
            graph[chain[r]] = rtl.Iop(("const", r + 1), [], r, chain[r + 1])
    return rtl.RTLFunction("r", [], set(), 0, graph, entry, nregs, False, [])


@settings(max_examples=300, deadline=None)
@given(random_functions())
def test_random_cfgs_liveness_matches_reference(function):
    assert_well_formed(function, Blocks(function))
    for conservative in (False, True):
        assert block_liveness(function, conservative) == \
            reference_liveness(function, conservative)
    assert_cse_post_fixpoint(function)


@settings(max_examples=300, deadline=None)
@given(random_functions(define_all=True))
def test_random_cfgs_constprop_matches_reference(function):
    # Constprop reads an absent register as NAC but joins absence as
    # bottom, which is not monotone; with every register defined in the
    # entry block no absent register is ever read, and the fixpoint is
    # unique.
    assert_well_formed(function, Blocks(function))
    assert block_constprop_facts(function) == \
        reference_constprop_facts(function)


# -- the clients on real programs --------------------------------------------

@pytest.fixture(scope="module")
def clights():
    """The catalog, 50 plain seeds and 10 recursion + function-pointer
    seeds, through the frontend."""
    sources = [(name, load_source(name)) for name in all_programs()]
    sources += [(f"seed {s}", generate_program(s)) for s in range(50)]
    sources += [(f"rec+fp seed {s}",
                 generate_program(s, recursion=True, funcptr=True))
                for s in range(10)]
    return [(name, compile_frontend(source, name))
            for name, source in sources]


def test_one_deadcode_round_suffices(clights):
    # The RTL passes in the driver's order, at each ablation whose RTL
    # differs (``spill`` only changes the allocator).
    for name, clight in clights:
        for passes in ([constprop_program], [constprop_program, cse_program],
                       [constprop_program, tailcall_program]):
            program = rtl_of_cminor(cminor_of_clight(clight))
            for rtl_pass in passes:
                rtl_pass(program)
            deadcode_program(program)
            for function in program.functions.values():
                assert deadcode(function) == 0, f"{name}: {function.name}"


def test_cse_facts_are_a_post_fixpoint(clights):
    for _name, clight in clights:
        program = rtl_of_cminor(cminor_of_clight(clight))
        constprop_program(program)  # what CSE sees in the pipeline
        for function in program.functions.values():
            assert_cse_post_fixpoint(function)
