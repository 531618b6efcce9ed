"""Runtime validation of logic bounds against the operational semantics.

The paper's Theorem 2 states that a derived precondition bounds the
weight of every trace of the statement.  Its Coq proof is step-indexed;
the executable counterpart here drives the Clight machine on concrete
inputs and checks the inequality ``W_M(trace) <= P(sigma)(M)`` for the
observed traces, for arbitrary user-supplied metrics.  The Table 2 suite
calls it across an input sweep of every recursive benchmark function.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.clight import ast as cl
from repro.clight.semantics import run_call
from repro.events.metrics import StackMetric
from repro.events.trace import GoesWrong, weight_of_trace
from repro.logic.bexpr import BExpr, evaluate
from repro.memory.values import VInt


class SoundnessViolation(AssertionError):
    pass


def validate_call_bound(program: cl.Program, function: str,
                        args: Sequence[int], bound: BExpr,
                        metric: StackMetric,
                        params: Optional[Mapping[str, int]] = None,
                        fuel: int = 2_000_000) -> int:
    """Run one call and check its trace weight against a parametric bound.

    ``args`` are integer arguments; ``params`` is the valuation for the
    bound's parameters (defaults to binding the function's formal
    parameter names positionally).
    """
    clight_fn = program.function(function)
    if params is None:
        params = dict(zip(clight_fn.params, args))
    behavior, _result = run_call(program, function,
                                 [VInt(a) for a in args], fuel=fuel)
    if isinstance(behavior, GoesWrong):
        raise SoundnessViolation(
            f"{function}{tuple(args)} goes wrong ({behavior.reason})")
    observed = weight_of_trace(metric, behavior.trace)
    allowed = evaluate(bound, metric.as_dict(), dict(params))
    if observed > allowed:
        raise SoundnessViolation(
            f"{function}{tuple(args)}: weight {observed} exceeds "
            f"bound {allowed}")
    return observed
