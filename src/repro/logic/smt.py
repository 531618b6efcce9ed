"""``repro.logic.smt``: an independent SMT cross-check for the bounds algebra.

The Fourier–Motzkin procedure in :mod:`repro.logic.bexpr` is the single
point every trust claim of the pipeline flows through: the analyzer, the
derivation checker and the certificate loader all discharge their side
conditions with :func:`~repro.logic.bexpr.bound_le`.  PR 9 demonstrated
that this procedure can silently lie (the ``Q:FRAME`` domination condition
went undischarged for months and only a fault operator caught it), so this
module adds a *second, independent* decision procedure and runs the two
agree-or-fail, following the untrusted-solver / differentially-checked
split of Blazy et al.'s verified value analysis.

Three backends are selectable (``--bounds-backend`` on the CLI, the
``bounds_backend`` knob on :class:`~repro.logic.checker.CheckerContext`,
or :func:`repro.logic.bexpr.set_default_backend`):

``fm``
    The existing Fourier–Motzkin / exhaustive-evaluation procedure.
    The default; nothing changes.
``z3``
    Decide with z3 alone: ``BExpr`` terms translate into integer-sorted
    z3 formulas — metric atoms are universally quantified non-negative
    integers, parameters range over their declared verification domains,
    and ``log2``/``half`` are axiomatized with finite defining tables
    derived from those domains, so parametric recursion specs are in
    scope.  Falls back to FM (with an ``obs`` counter) on queries outside
    the translatable fragment or when z3 answers *unknown*.
``cross``
    The differential mode: run **both** procedures on every query and
    raise a structured :class:`ComparatorDisagreement` — carrying the
    query, both verdicts and a concrete witness valuation — on any
    mismatch.  The FM verdict is always the one returned, so ``cross``
    never *changes* an answer, it only refuses to let a lying one pass
    silently.  When z3 is not installed the mode degrades gracefully to
    FM plus two z3-free audits (logged via the
    ``logic.crosscheck.fm_only`` counter):

    * **witness audit** — an exact (ground) FM refusal must be certified
      by :func:`~repro.logic.bexpr.find_violation_metric`; a refusal
      with no evaluable witness means the comparator's failure region
      was mis-built (this is what catches ``fm-strict-gap-drop`` and
      ``fm-nonneg-drop`` without z3);
    * **sample audit** — an exact FM affirmation is re-evaluated on the
      default metric sample grid; any violating point means the
      comparator affirmed an inequality evaluation refutes.

Infinity (``∞ ∈ N ∪ {∞}``) is handled by translating every subterm to a
``(value, is_infinite)`` pair with the propagation rules of
:func:`repro.logic.bexpr.evaluate`; values are only ever compared under
``¬is_infinite`` guards, so unconstrained auxiliary variables in dead
(infinite) branches cannot fabricate violations.

FM blowup refusals (the elimination passed its constraint ``limit`` and
conservatively refused) are recognized via
:func:`repro.logic.bexpr.fm_blowup_count` and never reported as
disagreements — a conservative refusal is sound, just incomplete.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro import obs
from repro.errors import ReproError
from repro.logic import bexpr as bx
from repro.logic.bexpr import (BAdd, BConst, BExpr, BFrameDiff, BHalf, BLog2,
                               BMax, BMetric, BMul, BParam, BParamDiff,
                               BScale, CompareResult, INFINITY)

__all__ = [
    "BACKENDS", "Z3_AVAILABLE", "ComparatorDisagreement", "SmtUnavailable",
    "SmtUnsupported", "crosscheck_bound_le", "dispatch_bound_le",
    "smt_bound_le",
]

BACKENDS = ("fm", "z3", "cross")

try:
    import z3 as _z3  # optional: declared as the [smt] extra
    Z3_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised on z3-less installs
    _z3 = None
    Z3_AVAILABLE = False

#: Per-query solver budget; *unknown* after this long is treated as an
#: unsupported query (FM keeps the authoritative answer).
Z3_TIMEOUT_MS = 10_000


class SmtUnavailable(ReproError):
    """The z3 backend was requested but the ``z3`` module is missing."""


class SmtUnsupported(ReproError):
    """The query is outside the fragment the translation can express
    (e.g. ``log2`` of an expression with no finite upper bound), or z3
    answered *unknown* within the budget."""


class ComparatorDisagreement(ReproError):
    """The two decision procedures disagreed on one query.

    Structured for programmatic consumption: ``query`` holds the
    operation and both expressions (with the parameter domains), ``fm``
    and ``smt`` the two verdicts (``smt`` is ``None`` when an audit —
    not the z3 differential — caught the lie), ``caught_by`` names the
    detecting check (``smt-differential`` / ``witness-audit`` /
    ``sample-audit``) and ``witness`` carries a concrete valuation
    refuting the losing verdict when one is known.
    """

    def __init__(self, query: dict, fm: Optional[bool], smt: Optional[bool],
                 caught_by: str, witness: Optional[dict] = None,
                 detail: str = "") -> None:
        self.query = query
        self.fm = fm
        self.smt = smt
        self.caught_by = caught_by
        self.witness = witness
        self.detail = detail
        message = (f"bounds-backend disagreement [{caught_by}] on "
                   f"{query['op']}({query['small']!r}, {query['large']!r}): "
                   f"fm={fm} smt={smt}")
        if witness:
            message += f" witness={witness}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Backend dispatch (called from bexpr.bound_le)
# ---------------------------------------------------------------------------


def dispatch_bound_le(small: BExpr, large: BExpr,
                      param_domains: Optional[Mapping[str, Iterable[int]]],
                      metric_samples, backend: str) -> CompareResult:
    """Decide ``small <= large`` under a non-default backend."""
    if backend == "z3":
        obs.add("logic.backend.z3.queries")
        if not Z3_AVAILABLE:
            raise SmtUnavailable(
                "bounds backend 'z3' requested but the z3 module is not "
                "importable; install the [smt] extra or use "
                "--bounds-backend=fm/cross")
        try:
            result, _witness = _smt_decide(small, large, param_domains)
            return result
        except SmtUnsupported:
            obs.add("logic.smt.unsupported")
            return bx.fm_bound_le(small, large, param_domains, metric_samples)
    if backend == "cross":
        return crosscheck_bound_le(small, large, param_domains,
                                   metric_samples)
    raise ValueError(f"unknown bounds backend {backend!r}; "
                     f"known: {', '.join(BACKENDS)}")


def crosscheck_bound_le(small: BExpr, large: BExpr,
                        param_domains: Optional[Mapping[str,
                                                        Iterable[int]]] = None,
                        metric_samples=None) -> CompareResult:
    """Run FM and the SMT backend agree-or-fail; return the FM verdict.

    Raises :class:`ComparatorDisagreement` on any unexplained mismatch.
    The z3-free audits run regardless of z3 availability, so ``cross``
    always buys *some* independence over plain ``fm``.
    """
    obs.add("logic.backend.cross.queries")
    blow0 = bx.fm_blowup_count()
    fm = bx.fm_bound_le(small, large, param_domains, metric_samples)
    blown = bx.fm_blowup_count() != blow0

    smt_result = witness = None
    if Z3_AVAILABLE:
        try:
            smt_result, witness = _smt_decide(small, large, param_domains)
        except SmtUnsupported:
            obs.add("logic.smt.unsupported")
        except ValueError:
            # Parameters without verification domains: FM can still have
            # answered via its 0 <= large fast path, so for the cross
            # mode this is an out-of-scope query, not an error.
            obs.add("logic.smt.unsupported")
    else:
        obs.add("logic.crosscheck.fm_only")

    query = {"op": "bound_le", "small": small, "large": large,
             "param_domains": dict(param_domains or {})}

    if smt_result is not None and smt_result.holds != fm.holds:
        if blown and not fm.holds:
            # FM refused because elimination blew past its limit: a
            # conservative refusal, not a lie.  z3's affirmation is the
            # sharper answer but cross mode never changes verdicts.
            obs.add("logic.crosscheck.blowup_refusals")
        else:
            detail = ""
            if witness is None and not fm.holds:
                witness = bx.find_violation_metric(small, large)
            elif witness is not None:
                # Self-explaining disagreements: say whether z3's model
                # really violates the inequality under the reference
                # evaluator.  Validated + fm affirmed sampled = the
                # sample grid missed a genuine violation; unvalidated =
                # the z3 translation itself is the liar.
                if _witness_refutes(small, large, witness):
                    detail = ("witness validated by evaluation"
                              + ("; sampled affirmation has a gap"
                                 if not fm.exact else ""))
                else:
                    detail = "witness does NOT validate under evaluation"
            _disagree(query, fm.holds, smt_result.holds,
                      caught_by="smt-differential", witness=witness,
                      detail=detail)

    if fm.exact and not blown:
        if fm.holds:
            refutation = _sample_refute(small, large)
            if refutation is not None:
                _disagree(query, fm.holds, None, caught_by="sample-audit",
                          witness=refutation,
                          detail="evaluation refutes an exact affirmation")
        else:
            audit_witness = bx.find_violation_metric(small, large)
            if audit_witness is None and bx.fm_blowup_count() == blow0:
                _disagree(query, fm.holds, None, caught_by="witness-audit",
                          detail="exact refusal with no evaluable witness")
    return fm


def _disagree(query: dict, fm: Optional[bool], smt: Optional[bool],
              caught_by: str, witness: Optional[dict] = None,
              detail: str = "") -> None:
    obs.add("logic.crosscheck.disagreements")
    raise ComparatorDisagreement(query, fm, smt, caught_by,
                                 witness=witness, detail=detail)


def _witness_refutes(small: BExpr, large: BExpr, witness: dict) -> bool:
    atoms = bx.metric_atoms(small) | bx.metric_atoms(large)
    metric = {name: 0 for name in atoms}
    metric.update(witness.get("metric", {}))
    params = dict(witness.get("params", {}))
    try:
        return bx.evaluate(small, metric, params) > \
            bx.evaluate(large, metric, params)
    except Exception:
        return False


def _sample_refute(small: BExpr, large: BExpr) -> Optional[dict]:
    """A default-grid metric refuting an exact (ground) affirmation.

    Exact affirmations hold for *all* metrics if FM is honest, so any
    violating sample is proof of a comparator bug — never a false
    positive.  Parametric expressions are skipped: the one exact verdict
    they can receive is the ``0 <= large`` fast path, which needs no
    audit (evaluation clamps into N ∪ {∞}).
    """
    if bx.param_names(small) or bx.param_names(large):
        return None
    atoms = bx.metric_atoms(small) | bx.metric_atoms(large)
    for metric in bx._default_metric_samples(atoms):
        if bx.evaluate(small, metric) > bx.evaluate(large, metric):
            return {"metric": dict(metric)}
    return None


# ---------------------------------------------------------------------------
# The z3 decision procedure
# ---------------------------------------------------------------------------

#: Query-level memo: interning makes (small, large, domains) hashable and
#: the checker re-asks about the same subtrees constantly.
_CACHE: dict = {}


def smt_bound_le(small: BExpr, large: BExpr,
                 param_domains: Optional[Mapping[str, Iterable[int]]] = None,
                 metric_samples=None) -> CompareResult:
    """Decide ``small <= large`` with z3 alone.

    Metric atoms are universally quantified non-negative integers;
    parameters range over their declared (finite) verification domains —
    the same question FM's two fragments answer, decided by an
    independent engine.  ``metric_samples`` is accepted for signature
    compatibility and ignored: z3 covers all metrics at once.
    """
    result, _witness = _smt_decide(small, large, param_domains)
    return result


def _smt_decide(small: BExpr, large: BExpr,
                param_domains: Optional[Mapping[str, Iterable[int]]]
                ) -> tuple[CompareResult, Optional[dict]]:
    if not Z3_AVAILABLE:
        raise SmtUnavailable("the z3 module is not importable")
    domains = {name: tuple(values)
               for name, values in (param_domains or {}).items()}
    key = (small, large, tuple(sorted(domains.items())))
    cached = _CACHE.get(key)
    if cached is not None:
        holds, exact, witness = cached
        return CompareResult(holds, exact), witness
    obs.add("logic.smt.queries")

    params = bx.param_names(small) | bx.param_names(large)
    missing = params - set(domains)
    if missing:
        # Mirror the FM sampled path: an unconstrained parameter has no
        # verification domain to decide over.
        raise ValueError(
            f"no verification domain for parameters {sorted(missing)}")

    env = _Env(domains)
    small_val, small_inf = _translate(small, env)
    large_val, large_inf = _translate(large, env)

    z3 = _z3
    solver = z3.Solver()
    solver.set("timeout", Z3_TIMEOUT_MS)
    for constraint in env.constraints:
        solver.add(constraint)

    def clamp(value):
        return z3.If(value < 0, z3.IntVal(0), value)

    # ``small <= large`` fails iff small is infinite while large is not,
    # or both are finite and the clamped values compare the wrong way.
    solver.add(z3.Or(
        z3.And(small_inf, z3.Not(large_inf)),
        z3.And(z3.Not(small_inf), z3.Not(large_inf),
               clamp(small_val) > clamp(large_val))))

    verdict = solver.check()
    exact = not params
    if verdict == z3.unsat:
        _CACHE[key] = (True, exact, None)
        return CompareResult(True, exact), None
    if verdict == z3.sat:
        witness = _extract_witness(solver.model(), env)
        _CACHE[key] = (False, exact, witness)
        return CompareResult(False, exact), witness
    raise SmtUnsupported(f"z3 answered {verdict!r} within "
                         f"{Z3_TIMEOUT_MS} ms")


def _extract_witness(model, env: "_Env") -> dict:
    """Concrete (metric, params) valuation from a violation model."""
    witness: dict = {"metric": {}, "params": {}}
    for name, var in env.metric_vars.items():
        witness["metric"][name] = model.eval(
            var, model_completion=True).as_long()
    for name, var in env.param_vars.items():
        witness["params"][name] = model.eval(
            var, model_completion=True).as_long()
    return witness


class _Env:
    """Translation state: variable pools plus the defining constraints."""

    def __init__(self, domains: Mapping[str, tuple]) -> None:
        self.domains = domains
        self.constraints: list = []
        self.metric_vars: dict = {}
        self.param_vars: dict = {}
        self._fresh = 0

    def metric(self, name: str):
        var = self.metric_vars.get(name)
        if var is None:
            var = _z3.Int(f"M!{name}")
            self.metric_vars[name] = var
            self.constraints.append(var >= 0)
        return var

    def param(self, name: str):
        var = self.param_vars.get(name)
        if var is None:
            var = _z3.Int(f"P!{name}")
            self.param_vars[name] = var
            values = self.domains.get(name, ())
            self.constraints.append(
                _z3.Or(*[var == int(v) for v in values])
                if values else _z3.BoolVal(False))
        return var

    def fresh(self, prefix: str):
        self._fresh += 1
        return _z3.Int(f"{prefix}!{self._fresh}")


def _translate(expr: BExpr, env: _Env):
    """``expr`` as a ``(value, is_infinite)`` pair of z3 terms.

    The pair encodes ``N ∪ {∞}`` exactly as :func:`bexpr.evaluate` does:
    ``value`` is only meaningful under ``¬is_infinite`` of every
    enclosing consumer, and the top-level comparison guards accordingly.
    """
    z3 = _z3
    false = z3.BoolVal(False)
    if isinstance(expr, BConst):
        if expr.value == INFINITY:
            return z3.IntVal(0), z3.BoolVal(True)
        return z3.IntVal(int(expr.value)), false
    if isinstance(expr, BMetric):
        return env.metric(expr.function), false
    if isinstance(expr, BParam):
        return env.param(expr.name), false
    if isinstance(expr, BAdd):
        pairs = [_translate(item, env) for item in expr.items]
        value = pairs[0][0]
        for val, _inf in pairs[1:]:
            value = value + val
        return value, _or_infs(pairs)
    if isinstance(expr, BMax):
        pairs = [_translate(item, env) for item in expr.items]
        value = pairs[0][0]
        for val, _inf in pairs[1:]:
            value = z3.If(val > value, val, value)
        return value, _or_infs(pairs)
    if isinstance(expr, BScale):
        if expr.factor == 0:
            # Max-plus normal form semantics: scaling by 0 is the zero
            # bound (matches _mpnf, the authority on the ground order).
            return z3.IntVal(0), false
        val, inf = _translate(expr.body, env)
        return z3.IntVal(expr.factor) * val, inf
    if isinstance(expr, BFrameDiff):
        total_val, total_inf = _translate(expr.total, env)
        part_val, part_inf = _translate(expr.part, env)
        diff = total_val - part_val
        value = z3.If(part_inf, z3.IntVal(0),
                      z3.If(diff < 0, z3.IntVal(0), diff))
        return value, total_inf
    if isinstance(expr, BMul):
        left_val, left_inf = _translate(expr.left, env)
        right_val, right_inf = _translate(expr.right, env)
        return left_val * right_val, z3.Or(left_inf, right_inf)
    if isinstance(expr, BParamDiff):
        left_val, left_inf = _translate(expr.left, env)
        right_val, right_inf = _translate(expr.right, env)
        return left_val - right_val, z3.Or(left_inf, right_inf)
    if isinstance(expr, BHalf):
        val, inf = _translate(expr.arg, env)
        half = env.fresh("half")
        if expr.ceil:   # half = ceil(val / 2)
            env.constraints.append(val <= 2 * half)
            env.constraints.append(2 * half <= val + 1)
        else:           # half = floor(val / 2)
            env.constraints.append(2 * half <= val)
            env.constraints.append(val <= 2 * half + 1)
        return half, inf
    if isinstance(expr, BLog2):
        return _translate_log2(expr, env)
    raise SmtUnsupported(f"no z3 translation for {type(expr).__name__}")


def _or_infs(pairs):
    infs = [inf for _val, inf in pairs]
    return infs[0] if len(infs) == 1 else _z3.Or(*infs)


def _translate_log2(expr: BLog2, env: _Env):
    """Axiomatize the paper-convention ``log2`` with a finite table.

    ``log2(a) = ∞`` for ``a < 0``, ``0`` for ``a ∈ {0, 1}``, else
    ``ceil(log2 a)``.  The defining disjunction needs a finite exponent
    range, so the argument must have a finite upper bound derivable from
    the verification domains — exactly the shape parametric recursion
    specs have.  Metric atoms inside ``log2`` (which no analyzer or spec
    produces) have no bound and raise :class:`SmtUnsupported`.
    """
    z3 = _z3
    val, arg_inf = _translate(expr.arg, env)
    hi = _upper_bound(expr.arg, env)
    if hi is None:
        raise SmtUnsupported(f"log2 argument has no finite upper bound: "
                             f"{expr.arg!r}")
    result = env.fresh("log2")
    guard = z3.Not(arg_inf)
    env.constraints.append(
        z3.Implies(z3.And(guard, val >= 0, val <= 1), result == 0))
    exponent = 1
    while (1 << (exponent - 1)) < max(hi, 2):
        low, high = (1 << (exponent - 1)) + 1, 1 << exponent
        env.constraints.append(
            z3.Implies(z3.And(guard, val >= low, val <= high),
                       result == exponent))
        exponent += 1
    return result, z3.Or(arg_inf, val < 0)


def _upper_bound(expr: BExpr, env: _Env) -> Optional[int]:
    """A finite upper bound of ``expr``'s finite value, or ``None``.

    Interval arithmetic over the declared parameter domains; metric
    atoms are unbounded above.  Only soundness *upward* matters — the
    bound sizes the ``log2`` defining table.
    """
    lo, hi = _interval(expr, env)
    del lo
    return hi


def _interval(expr: BExpr, env: _Env) -> tuple[Optional[int], Optional[int]]:
    """Conservative ``(lower, upper)`` integer interval (None = unbounded)."""
    if isinstance(expr, BConst):
        if expr.value == INFINITY:
            return 0, None
        return int(expr.value), int(expr.value)
    if isinstance(expr, BMetric):
        return 0, None
    if isinstance(expr, BParam):
        values = env.domains.get(expr.name)
        if not values:
            return None, None
        return min(values), max(values)
    if isinstance(expr, BAdd):
        lo, hi = 0, 0
        for item in expr.items:
            ilo, ihi = _interval(item, env)
            lo = None if lo is None or ilo is None else lo + ilo
            hi = None if hi is None or ihi is None else hi + ihi
        return lo, hi
    if isinstance(expr, BMax):
        los, his = zip(*(_interval(item, env) for item in expr.items))
        lo = None if any(l is None for l in los) else max(los)
        hi = None if any(h is None for h in his) else max(his)
        return lo, hi
    if isinstance(expr, BScale):
        if expr.factor == 0:
            return 0, 0
        lo, hi = _interval(expr.body, env)
        return (None if lo is None else expr.factor * lo,
                None if hi is None else expr.factor * hi)
    if isinstance(expr, BFrameDiff):
        _tlo, thi = _interval(expr.total, env)
        return 0, thi
    if isinstance(expr, (BMul, BParamDiff)):
        llo, lhi = _interval(expr.left, env)
        rlo, rhi = _interval(expr.right, env)
        if isinstance(expr, BParamDiff):
            lo = None if llo is None or rhi is None else llo - rhi
            hi = None if lhi is None or rlo is None else lhi - rlo
            return lo, hi
        corners = [a * b for a in (llo, lhi) for b in (rlo, rhi)
                   if a is not None and b is not None]
        if None in (llo, lhi, rlo, rhi) or not corners:
            return None, None
        return min(corners), max(corners)
    if isinstance(expr, BLog2):
        _alo, ahi = _interval(expr.arg, env)
        if ahi is None:
            return 0, None
        return 0, max(ahi, 2).bit_length()
    if isinstance(expr, BHalf):
        lo, hi = _interval(expr.arg, env)
        shift = 1 if expr.ceil else 0
        return (None if lo is None else (lo + shift) // 2,
                None if hi is None else (hi + shift) // 2)
    return None, None
