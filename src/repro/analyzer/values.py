"""Function-pointer value analysis: finite candidate sets for indirect calls.

The automatic stack analyzer needs a *static* call graph, but C programs
dispatch through function pointers.  Following the CompCert value-analysis
tradition (Blazy et al., "Formal verification of a C value analysis based
on abstract interpretation"), this module resolves every indirect call to
a finite set of candidate targets, so the certified analyzer can price an
indirect call as the *maximum* over its possible callees instead of
rejecting the program.

The abstract domain is deliberately small — a set of function names per
function-pointer *cell* — because the type checker already confines
function pointers to scalar locals and parameters (no globals, no arrays,
no struct members, no address-taken pointers; see
:mod:`repro.c.typecheck`).  Under that discipline every write to a
function pointer is syntactically visible, so a flow-insensitive
constraint system over

    cell ::= (function, local)        a local/parameter fp variable

is sound: ``solution(cell)`` over-approximates every value the variable
can hold at runtime.  Constraints come from three places:

* declarations with initializers       ``int (*f)(int) = add;``
* assignments                          ``f = cond ? add : sub;``
* argument passing at call sites       ``apply(add, 3)`` — including
  arguments of *indirect* calls, whose target set is itself part of the
  fixpoint.

The solver then annotates every indirect ``Call`` node with its sorted
``fp_candidates`` and assigns a small integer *function id* (fid) to each
function whose address is taken.  The Clight lowering
(:mod:`repro.clight.from_c`) materializes function-pointer values as
these fids and compiles each indirect call into a fid-comparison chain
over the candidates — after which the call graph is direct again and the
quantitative logic's ``DIf``/``DCall`` rules price the dispatch as the
max over targets, with an ordinary checkable derivation.

``_FAULT`` is a test-only mutation knob (see :mod:`repro.testing.faults`):
``"widen"`` adds every address-taken function to every candidate set,
which the differential oracle catches because the devirtualized dispatch
chain no longer matches the manual bound.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro import obs
from repro.c import ast as c
from repro.c import types as ct
from repro.c.typecheck import ProgramEnv
from repro.errors import AnalysisError

# Test-only fault injection: None | "widen" (see module docstring).
_FAULT: Optional[str] = None

Cell = tuple[str, str]  # (function name, unique local/param name)


def _is_fp(ctype: Optional[ct.CType]) -> bool:
    return isinstance(ctype, ct.TPointer) and \
        isinstance(ctype.target, ct.TFunction)


class FPResolution:
    """Result of the analysis: fid numbering plus per-call annotations
    (the candidate sets live on the ``Call`` nodes themselves)."""

    def __init__(self, fids: dict[str, int], sites: int) -> None:
        self.fids = fids
        self.sites = sites

    @property
    def any_indirect(self) -> bool:
        return self.sites > 0

    def fid(self, name: str) -> int:
        return self.fids[name]


class _Flow:
    """A flow value: a set of known targets plus a set of cell references."""

    __slots__ = ("consts", "cells")

    def __init__(self) -> None:
        self.consts: set[str] = set()
        self.cells: set[Cell] = set()

    def union(self, other: "_Flow") -> "_Flow":
        self.consts |= other.consts
        self.cells |= other.cells
        return self


class _Resolver:
    def __init__(self, program: c.Program, env: ProgramEnv) -> None:
        self.program = program
        self.env = env
        self.defs = {fn.name: fn for fn in program.functions}
        # cell -> incoming flows (constraint right-hand sides)
        self.inflows: dict[Cell, _Flow] = {}
        # indirect call sites: (caller name, Call node, callee cell)
        self.sites: list[tuple[str, c.Call, Cell]] = []
        self.designators: set[str] = set()

    # -- constraint collection ------------------------------------------------

    def collect(self) -> None:
        for fn in self.program.functions:
            for node in _walk(fn.body):
                if isinstance(node, c.SDecl) and _is_fp(node.ctype) \
                        and isinstance(node.init, c.InitScalar):
                    self._flow_into((fn.name, node.name), node.init.expr, fn)
                elif isinstance(node, c.Assign) \
                        and isinstance(node.target, c.Name) \
                        and _is_fp(node.target.ty):
                    self._flow_into((fn.name, node.target.ident),
                                    node.value, fn)
                elif isinstance(node, c.Call):
                    self._collect_call(fn, node)

    def _collect_call(self, fn: c.FunctionDef, call: c.Call) -> None:
        if call.indirect:
            signature = call.signature
            cell = (fn.name, call.callee)
            self.sites.append((fn.name, call, cell))
            self.inflows.setdefault(cell, _Flow())
        elif self.env.is_internal(call.callee):
            signature = self.env.function_type(call.callee)
        else:  # external callee: its signature cannot mention fp types
            for arg in call.args:
                if _is_fp(arg.ty):
                    raise AnalysisError(
                        "function pointers cannot be passed to external "
                        f"function {call.callee!r}")
            return
        for index, param in enumerate(signature.params):
            if not _is_fp(param):
                continue
            if call.indirect:
                # The argument flows into this parameter of *every*
                # candidate — resolved during the fixpoint below.
                continue
            target_fn = self.defs[call.callee]
            target_cell = (call.callee, target_fn.params[index].name)
            self._flow_into(target_cell, call.args[index], fn)

    def _flow_into(self, cell: Cell, expr: c.Expr,
                   fn: c.FunctionDef) -> None:
        flow = self.inflows.setdefault(cell, _Flow())
        flow.union(self._eval(expr, fn))

    def _eval(self, expr: c.Expr, fn: c.FunctionDef) -> _Flow:
        """Abstract evaluation of a function-pointer-typed expression."""
        flow = _Flow()
        if isinstance(expr, c.Name):
            if expr.binding == "function":
                self.designators.add(expr.ident)
                flow.consts.add(expr.ident)
                return flow
            if expr.binding == "local":
                flow.cells.add((fn.name, expr.ident))
                return flow
        if isinstance(expr, c.Unary) and expr.op == "&":
            return self._eval(expr.operand, fn)
        if isinstance(expr, c.Cast):
            return self._eval(expr.operand, fn)
        if isinstance(expr, c.Conditional):
            return self._eval(expr.then, fn).union(
                self._eval(expr.otherwise, fn))
        if isinstance(expr, c.Comma):
            return self._eval(expr.right, fn)
        if isinstance(expr, c.Assign) and expr.op == "=" \
                and isinstance(expr.target, c.Name):
            # ``g = (f = add)``: the assignment's value is its RHS.
            return self._eval(expr.value, fn)
        if isinstance(expr, c.IntLit) and expr.value == 0:
            return flow  # the null pointer contributes no targets
        raise AnalysisError(
            "unresolvable function-pointer expression "
            f"({type(expr).__name__}) in {fn.name!r}: the value analysis "
            "only tracks function names, fp variables, casts, "
            "conditionals and null")

    # -- fixpoint -------------------------------------------------------------

    def solve(self) -> dict[Cell, set[str]]:
        solution: dict[Cell, set[str]] = {cell: set() for cell in self.inflows}
        changed = True
        while changed:
            changed = False
            for cell, flow in self.inflows.items():
                value = set(flow.consts)
                for dep in flow.cells:
                    value |= solution.get(dep, set())
                if not value <= solution[cell]:
                    solution[cell] |= value
                    changed = True
            # Arguments of indirect calls flow into the fp parameters of
            # every *currently known* candidate of that call.
            for caller, call, cell in self.sites:
                signature = call.signature
                indices = [i for i, p in enumerate(signature.params)
                           if _is_fp(p)]
                if not indices:
                    continue
                for target in solution.get(cell, set()):
                    target_fn = self.defs[target]
                    for index in indices:
                        tcell = (target, target_fn.params[index].name)
                        flow = self.inflows.setdefault(tcell, _Flow())
                        solution.setdefault(tcell, set())
                        before = set(flow.consts), set(flow.cells)
                        flow.union(self._eval(call.args[index],
                                              self.defs[caller]))
                        if before != (flow.consts, flow.cells):
                            changed = True
        return solution

    # -- checking and annotation ----------------------------------------------

    def annotate(self, solution: dict[Cell, set[str]]) -> FPResolution:
        for cell, targets in solution.items():
            fname, local = cell
            declared = self._cell_signature(cell)
            for target in sorted(targets):
                actual = self.env.functions.get(target)
                if actual != declared.target:
                    raise AnalysisError(
                        f"function pointer {local!r} in {fname!r} has type "
                        f"{declared} but may hold {target!r} of type "
                        f"{actual}")
        order = {fn.name: index for index, fn in
                 enumerate(self.program.functions)}
        for caller, call, cell in self.sites:
            targets = solution.get(cell, set())
            if _FAULT == "widen":
                targets = targets | self.designators
            if not targets:
                raise AnalysisError(
                    f"indirect call in {caller!r} has no possible targets "
                    "(the function pointer can only be null here)")
            call.fp_candidates = sorted(targets, key=lambda t: order[t])
            obs.add("analyzer.values.candidates", len(targets))
        fids = {name: index + 1
                for index, name in enumerate(
                    fn.name for fn in self.program.functions
                    if fn.name in self.designators)}
        return FPResolution(fids, len(self.sites))

    def _cell_signature(self, cell: Cell) -> ct.TPointer:
        fname, local = cell
        fn = self.defs[fname]
        for param in fn.params:
            if param.name == local:
                return param.ctype  # type: ignore[return-value]
        ty = fn.locals_types[local]  # type: ignore[attr-defined]
        assert _is_fp(ty)
        return ty  # type: ignore[return-value]


def _walk(node: c.Node):
    """Yield every AST node reachable from ``node`` (statements,
    expressions and initializers), including ``node`` itself, in pre-order
    with children in slot order: the order numbers the indirect calls."""
    stack = [node]
    while stack:
        node = stack.pop()
        if not isinstance(node, c.Node):
            continue
        yield node
        # Children go on the stack last-first, anything else is skipped
        # when popped.
        for slot in _child_slots(type(node)):
            value = getattr(node, slot, None)
            if isinstance(value, c.Node):
                stack.append(value)
            elif isinstance(value, (list, tuple)):
                for item in reversed(value):
                    if isinstance(item, tuple):  # switch cases: (value, stmts)
                        for sub in reversed(item):
                            if isinstance(sub, list):
                                stack.extend(reversed(sub))
                            else:
                                stack.append(sub)
                    else:
                        stack.append(item)


@functools.cache
def _child_slots(cls) -> tuple[str, ...]:
    """``cls``'s slots, last first, without ``Node.loc`` and ``Expr.ty``,
    which never hold a node."""
    return tuple(reversed([slot for klass in cls.__mro__
                           if klass not in (c.Node, c.Expr)
                           for slot in getattr(klass, "__slots__", ())]))


def resolve_function_pointers(program: c.Program,
                              env: ProgramEnv) -> FPResolution:
    """Resolve every indirect call in ``program`` to a finite candidate
    set (annotated on the ``Call`` nodes) and number the address-taken
    functions.  Raises :class:`AnalysisError` when a function-pointer
    value escapes the supported fragment."""
    with obs.span("analyzer.values.resolve") as sp:
        resolver = _Resolver(program, env)
        resolver.collect()
        if not resolver.sites and not resolver.designators:
            sp.set(sites=0)
            return FPResolution({}, 0)
        solution = resolver.solve()
        resolution = resolver.annotate(solution)
        obs.add("analyzer.values.sites", resolution.sites)
        obs.add("analyzer.values.designators", len(resolution.fids))
        sp.set(sites=resolution.sites, designators=len(resolution.fids))
        return resolution
