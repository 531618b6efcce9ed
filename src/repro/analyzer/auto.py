"""``auto_bound``: certified automatic stack-bound inference (paper §5).

For every Clight statement the analyzer returns a bound ``B`` and a
derivation concluding ``{B} S {(B, B, B, B)}`` — the statement needs at
most ``B`` bytes of stack for its calls and restores all of it on every
exit.  Composite statements are combined exactly as in the paper's Fig. 5:
sub-derivations are lifted to the common bound ``max(B1, B2)`` with
Q:FRAME (the frame constant being the difference ``max - Bi``), then
joined with the structural rule.

For call-free and ground-callee programs every side condition of the
emitted derivation is discharged *exactly* by the checker — the analyzer
never relies on sampled comparisons.  Calls to *parametric* callees
(recursive functions with inferred ranking-function specs, see
:mod:`repro.analyzer.recursion`) additionally need a *plan*: the spec
instantiation to use at that call site (the paper's auxiliary-state
choice).  With a plan the emitted ``Q:CALL`` node is still checked
exactly by construction; the sampled side conditions appear only at the
single framing step that closes a recursive function's induction.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional

from repro import obs
from repro.analyzer.callgraph import build_call_graph
from repro.clight import ast as cl
from repro.errors import AnalysisError
from repro.events.metrics import StackMetric
from repro.logic import derivation as dv
from repro.logic.assertions import FunContext, FunSpec, Post
from repro.logic.bexpr import (BExpr, BFrameDiff, ZERO, badd, bmax, bmetric,
                               evaluate, param_names)
from repro.logic.checker import CheckerContext, CheckReport, \
    check_function_spec

# A plan maps ``id(SCall statement) -> spec_args`` for calls whose callee
# has a parametric spec; see repro.analyzer.recursion.build_call_plans.
Plans = Mapping[int, Mapping[str, BExpr]]


def auto_bound(stmt: cl.Stmt, gamma: FunContext,
               externals: Optional[set[str]] = None,
               plans: Optional[Plans] = None
               ) -> tuple[BExpr, dv.Derivation]:
    """Bound one statement; returns ``(B, derivation of {B} S {B,B,B,B})``."""
    externals = externals or set()

    if isinstance(stmt, cl.SSkip):
        return ZERO, dv.DSkip(_uniform_triple(ZERO, stmt))
    if isinstance(stmt, cl.SSet):
        return ZERO, dv.DSet(_uniform_triple(ZERO, stmt))
    if isinstance(stmt, cl.SStore):
        return ZERO, dv.DStore(_uniform_triple(ZERO, stmt))
    if isinstance(stmt, cl.SBreak):
        return ZERO, dv.DBreak(_uniform_triple(ZERO, stmt))
    if isinstance(stmt, cl.SContinue):
        return ZERO, dv.DContinue(_uniform_triple(ZERO, stmt))
    if isinstance(stmt, cl.SReturn):
        return ZERO, dv.DReturn(_uniform_triple(ZERO, stmt))
    if isinstance(stmt, cl.SCall):
        return _bound_call(stmt, gamma, externals, plans)
    if isinstance(stmt, cl.SSeq):
        bound1, deriv1 = auto_bound(stmt.first, gamma, externals, plans)
        bound2, deriv2 = auto_bound(stmt.second, gamma, externals, plans)
        total = bmax(bound1, bound2)
        node = dv.DSeq(_uniform_triple(total, stmt),
                       _lift(deriv1, total), _lift(deriv2, total))
        return total, node
    if isinstance(stmt, cl.SIf):
        bound1, deriv1 = auto_bound(stmt.then, gamma, externals, plans)
        bound2, deriv2 = auto_bound(stmt.otherwise, gamma, externals, plans)
        total = bmax(bound1, bound2)
        node = dv.DIf(_uniform_triple(total, stmt),
                      _lift(deriv1, total), _lift(deriv2, total))
        return total, node
    if isinstance(stmt, cl.SLoop):
        bound1, deriv1 = auto_bound(stmt.body, gamma, externals, plans)
        bound2, deriv2 = auto_bound(stmt.post, gamma, externals, plans)
        total = bmax(bound1, bound2)
        node = dv.DLoop(_uniform_triple(total, stmt),
                        _lift(deriv1, total), _lift(deriv2, total))
        return total, node
    if isinstance(stmt, cl.SBlock):
        bound, deriv = auto_bound(stmt.body, gamma, externals, plans)
        node = dv.DBlock(_uniform_triple(bound, stmt), deriv)
        return bound, node
    raise AnalysisError(f"statement not supported by the analyzer: "
                        f"{type(stmt).__name__}")


def _bound_call(stmt: cl.SCall, gamma: FunContext, externals: set[str],
                plans: Optional[Plans]) -> tuple[BExpr, dv.Derivation]:
    if stmt.callee in gamma:
        spec = gamma[stmt.callee]
        cost = bmetric(stmt.callee)
        if spec.params:
            spec_args = dict(plans.get(id(stmt), ())) if plans else {}
            if set(spec_args) != set(spec.params):
                raise AnalysisError(
                    f"{stmt.callee!r} has a parametric spec and no plan "
                    "instantiates it at this call site — the automatic "
                    "analyzer needs the value analysis to supply spec "
                    "arguments (or frame it manually)")
            pre_inst, post_inst = spec.instantiate(spec_args)
            total = badd(pre_inst, cost)
            post = badd(post_inst, cost)
            triple = dv.Triple(total, stmt, Post(post, post, post, post))
            return total, dv.DCall(triple, stmt.callee, spec_args)
        total = badd(spec.pre, cost)
        post = badd(spec.post, cost)
        triple = dv.Triple(total, stmt, Post(post, post, post, post))
        return total, dv.DCall(triple, stmt.callee, {})
    if stmt.callee in externals:
        return ZERO, dv.DExternal(_uniform_triple(ZERO, stmt), stmt.callee)
    raise AnalysisError(
        f"call to {stmt.callee!r}: no specification in Γ and not a known "
        "external (is the call graph processed in topological order?)")


def _uniform_triple(bound: BExpr, stmt: cl.Stmt) -> dv.Triple:
    return dv.Triple(bound, stmt, Post.uniform(bound))


def _lift(deriv: dv.Derivation, target: BExpr) -> dv.Derivation:
    """Frame a derivation up to ``target`` (Fig. 5's Q:FRAME step)."""
    current = deriv.conclusion.pre
    if repr(current) == repr(target):
        return deriv
    diff = BFrameDiff(target, current)
    lifted = dv.Triple(
        badd(current, diff), deriv.conclusion.stmt,
        deriv.conclusion.post.map(lambda q: badd(q, diff)))
    return dv.DFrame(lifted, diff, deriv)


# ---------------------------------------------------------------------------
# Whole-program analysis
# ---------------------------------------------------------------------------


class FunctionAnalysis:
    """Per-function result: spec, derivation, total symbolic bound."""

    __slots__ = ("name", "body_bound", "total_bound", "derivation")

    def __init__(self, name: str, body_bound: BExpr, total_bound: BExpr,
                 derivation: dv.Derivation) -> None:
        self.name = name
        self.body_bound = body_bound
        self.total_bound = total_bound
        self.derivation = derivation

    def __repr__(self) -> str:
        return f"FunctionAnalysis({self.name}: {self.total_bound!r})"


class AnalysisResult:
    """The output of a whole-program automatic analysis.

    ``param_domains`` holds the verification domains of every inferred
    parametric spec (empty for recursion-free programs), ``recipes`` the
    argument recipes callers use to instantiate parametric callees, and
    ``recursive`` the names whose bounds were inferred by the
    ranking-function analysis.
    """

    def __init__(self, program: cl.Program, gamma: FunContext,
                 functions: dict[str, FunctionAnalysis],
                 elapsed_seconds: float,
                 param_domains: Optional[dict] = None,
                 recipes: Optional[dict] = None,
                 recursive: Optional[list[str]] = None) -> None:
        self.program = program
        self.gamma = gamma
        self.functions = functions
        self.elapsed_seconds = elapsed_seconds
        self.param_domains = dict(param_domains or {})
        self.recipes = dict(recipes or {})
        self.recursive = list(recursive or [])

    def bound_expr(self, name: str) -> BExpr:
        """The symbolic bound for *calling* ``name`` (includes its frame)."""
        analysis = self.functions.get(name)
        if analysis is None:
            raise AnalysisError(f"program has no analyzed function {name!r}")
        return analysis.total_bound

    def bound_bytes(self, name: str, metric: StackMetric,
                    params: Optional[Mapping[str, int]] = None) -> int:
        """The concrete byte bound under a compiler-produced metric.

        Parametric bounds (recursive functions) additionally need concrete
        argument values in ``params``.
        """
        expr = self.bound_expr(name)
        free = sorted(param_names(expr))
        missing = [p for p in free if not params or p not in params]
        if missing:
            raise AnalysisError(
                f"bound of {name} is parametric over {missing}; supply "
                "concrete values via the params argument "
                f"(recipe: {self.recipes.get(name)})")
        value = evaluate(expr, metric.as_dict(), dict(params or {}))
        if value == float("inf"):
            raise AnalysisError(f"bound of {name} is unbounded")
        return int(value)

    def check(self, externals: Optional[set[str]] = None,
              bounds_backend: Optional[str] = None) -> CheckReport:
        """Re-validate every emitted derivation with the logic checker."""
        ctx = CheckerContext(self.gamma,
                             externals=externals or self.program.externals,
                             param_domains=self.param_domains or None,
                             bounds_backend=bounds_backend)
        report = CheckReport()
        with obs.span("analyze.check", functions=len(self.functions)) as sp:
            for name, analysis in self.functions.items():
                function = self.program.function(name)
                check_function_spec(function, analysis.derivation, ctx,
                                    report)
            sp.set(nodes=report.nodes, exact=report.exact_conditions)
        obs.observe("analyze.check_seconds", sp.dur)
        obs.add("checker.nodes", report.nodes)
        return report


class StackAnalyzer:
    """Analyze a whole Clight program, callees before callers.

    Functions are visited per strongly connected component in reverse
    topological order.  Singleton components go through plain
    ``auto_bound``; self-recursive functions go through the
    ranking-function inference of :mod:`repro.analyzer.recursion`; mutual
    recursion (a component of size > 1) is still outside the fragment and
    raises :class:`AnalysisError` with the component attached.
    """

    def __init__(self, program: cl.Program) -> None:
        self.program = program

    def analyze(self) -> AnalysisResult:
        from repro.analyzer.recursion import (build_call_plans,
                                              infer_recursive_spec)

        start = time.perf_counter()
        with obs.span("analyze.auto") as sp:
            graph = build_call_graph(self.program)
            gamma = FunContext()
            results: dict[str, FunctionAnalysis] = {}
            externals = set(self.program.externals)
            param_domains: dict[str, list[int]] = {}
            recipes: dict[str, dict] = {}
            recursive: list[str] = []
            for component in graph.sccs():
                if len(component) > 1:
                    raise AnalysisError(
                        "the automatic analyzer does not support mutual "
                        f"recursion: {' <-> '.join(sorted(component))}",
                        sccs=[sorted(component)])
                name = component[0]
                function = self.program.function(name)
                if name in graph.calls[name]:
                    inferred = infer_recursive_spec(
                        function, gamma, externals, recipes, param_domains)
                    gamma.add(inferred.spec)
                    recipes[name] = inferred.recipe
                    param_domains.update(inferred.param_domains)
                    recursive.append(name)
                    total = badd(bmetric(name), inferred.spec.pre)
                    results[name] = FunctionAnalysis(
                        name, inferred.spec.pre, total, inferred.derivation)
                    continue
                plans = build_call_plans(function, gamma, recipes)
                body_bound, derivation = auto_bound(function.body, gamma,
                                                    externals, plans)
                free = sorted(param_names(body_bound))
                if free:
                    # A non-recursive function whose bound depends on its
                    # arguments (it calls a parametric callee with values
                    # derived from its formals): publish a parametric spec
                    # and a pass-through recipe for *its* callers.
                    spec = FunSpec(name, free, body_bound, body_bound,
                                   description="auto_bound (parametric)")
                    recipe = {}
                    prefix = f"{name}$"
                    for param in free:
                        if not param.startswith(prefix):
                            raise AnalysisError(
                                f"{name}: bound depends on foreign "
                                f"parameter {param!r}")
                        formal = param[len(prefix):]
                        recipe[param] = ("formal",
                                         function.params.index(formal))
                        param_domains.setdefault(
                            param, _DEFAULT_PARAM_DOMAIN)
                    recipes[name] = recipe
                else:
                    spec = FunSpec.constant(name, body_bound,
                                            description="auto_bound")
                gamma.add(spec)
                total = badd(bmetric(name), body_bound)
                results[name] = FunctionAnalysis(name, body_bound, total,
                                                 derivation)
            sp.set(functions=len(results), recursive=len(recursive))
        obs.observe("analyze.auto_seconds", sp.dur)
        elapsed = time.perf_counter() - start
        return AnalysisResult(self.program, gamma, results, elapsed,
                              param_domains, recipes, recursive)


_DEFAULT_PARAM_DOMAIN = list(range(0, 601))
