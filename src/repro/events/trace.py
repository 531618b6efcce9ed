"""Events, traces, behaviors, valuations and weights (paper §3.1).

The grammar reproduced here::

    I/O events      nu  ::= f(v* |-> v)
    Memory events   mu  ::= call(f) | ret(f)
    Finite traces   t   ::= eps | nu . t | mu . t
    Behaviors       B   ::= conv(t, n) | div(T) | fail(t)

Weights::

    V_M(eps)    = 0
    V_M(a . t)  = M(a) + V_M(t)
    W_M(B)      = sup { V_M(t) | t in prefs(B) }

Because the Python interpreters observe executions with finite fuel, a
diverging behavior carries the finite prefix that was observed; all weight
computations are exact on that prefix, which is what every test and
benchmark consumes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence


class Event:
    """Abstract trace event."""

    __slots__ = ()

    @property
    def is_memory_event(self) -> bool:
        raise NotImplementedError


class IOEvent(Event):
    """An observable external-function event ``f(args |-> result)``.

    These are CompCert's original events; they must be preserved exactly by
    compilation.
    """

    __slots__ = ("name", "args", "result")

    def __init__(self, name: str, args: Sequence[object], result: object) -> None:
        self.name = name
        self.args = tuple(args)
        self.result = result

    @property
    def is_memory_event(self) -> bool:
        return False

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({args} |-> {self.result!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IOEvent)
            and other.name == self.name
            and other.args == self.args
            and other.result == self.result
        )

    def __hash__(self) -> int:
        return hash(("IOEvent", self.name, self.args, self.result))


class CallEvent(Event):
    """Memory event ``call(f)``: an internal function was entered."""

    __slots__ = ("function",)

    def __init__(self, function: str) -> None:
        self.function = function

    @property
    def is_memory_event(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"call({self.function})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CallEvent) and other.function == self.function

    def __hash__(self) -> int:
        return hash(("CallEvent", self.function))


class ReturnEvent(Event):
    """Memory event ``ret(f)``: an internal function returned."""

    __slots__ = ("function",)

    def __init__(self, function: str) -> None:
        self.function = function

    @property
    def is_memory_event(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"ret({self.function})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ReturnEvent) and other.function == self.function

    def __hash__(self) -> int:
        return hash(("ReturnEvent", self.function))


Trace = tuple  # a finite trace is a tuple of events


# ---------------------------------------------------------------------------
# Behaviors
# ---------------------------------------------------------------------------


class Behavior:
    """A program behavior together with its (observed) finite trace."""

    __slots__ = ("trace",)

    def __init__(self, trace: Iterable[Event]) -> None:
        self.trace: Trace = tuple(trace)

    def pruned(self) -> "Behavior":
        """The behavior with all memory events deleted (paper's B-bar)."""
        raise NotImplementedError


class Converges(Behavior):
    """``conv(t, n)``: terminating execution with return code ``n``."""

    __slots__ = ("return_code",)

    def __init__(self, trace: Iterable[Event], return_code: int) -> None:
        super().__init__(trace)
        self.return_code = return_code

    def pruned(self) -> "Converges":
        return Converges(prune(self.trace), self.return_code)

    def __repr__(self) -> str:
        return f"conv({list(self.trace)!r}, {self.return_code})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Converges)
            and other.trace == self.trace
            and other.return_code == self.return_code
        )

    def __hash__(self) -> int:
        return hash(("Converges", self.trace, self.return_code))


class Diverges(Behavior):
    """``div(T)``: non-terminating execution.

    ``trace`` holds the finite prefix observed before fuel ran out.
    """

    __slots__ = ()

    def pruned(self) -> "Diverges":
        return Diverges(prune(self.trace))

    def __repr__(self) -> str:
        return f"div({list(self.trace)!r} ...)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Diverges) and other.trace == self.trace

    def __hash__(self) -> int:
        return hash(("Diverges", self.trace))


class GoesWrong(Behavior):
    """``fail(t)``: the execution went wrong after emitting ``t``."""

    __slots__ = ("reason",)

    def __init__(self, trace: Iterable[Event], reason: str = "") -> None:
        super().__init__(trace)
        self.reason = reason

    def pruned(self) -> "GoesWrong":
        return GoesWrong(prune(self.trace), self.reason)

    def __repr__(self) -> str:
        return f"fail({list(self.trace)!r}; {self.reason})"

    def __eq__(self, other: object) -> bool:
        # The failure reason is diagnostic only and not part of the
        # semantic object, so it does not participate in equality.
        return isinstance(other, GoesWrong) and other.trace == self.trace

    def __hash__(self) -> int:
        return hash(("GoesWrong", self.trace))


# ---------------------------------------------------------------------------
# Trace operations
# ---------------------------------------------------------------------------


def prune(trace: Iterable[Event]) -> Trace:
    """Delete all memory events (the paper's overline operation)."""
    return tuple(event for event in trace if not event.is_memory_event)


def prefixes(trace: Sequence[Event]) -> Iterator[Trace]:
    """All finite prefixes of a finite trace, shortest first."""
    for length in range(len(trace) + 1):
        yield tuple(trace[:length])


class WeightFold:
    """One-pass streaming valuation and weight under a metric.

    The single shared implementation of the paper's ``V_M`` / ``W_M``
    folds: feed a trace event by event (the fold is itself an event
    consumer) and read ``total`` for the valuation ``V_M(t)`` and
    ``peak`` for the weight ``sup { V_M(t') | t' prefix of t }``.  The
    empty prefix counts, so ``peak`` is never negative.  Used by
    :func:`valuation` / :func:`weight_of_trace`, the heap accounting,
    the stack monitor, and the campaign's streaming deep-mode oracles.
    """

    __slots__ = ("metric", "total", "peak")

    def __init__(self, metric: Callable[[Event], int]) -> None:
        self.metric = metric
        self.total = 0
        self.peak = 0

    def __call__(self, event: Event) -> None:
        total = self.total + self.metric(event)
        self.total = total
        if total > self.peak:
            self.peak = total

    feed = __call__


def weight_fold(metric: Callable[[Event], int],
                events: Iterable[Event] = ()) -> WeightFold:
    """A :class:`WeightFold` primed with ``events`` (possibly empty)."""
    fold = WeightFold(metric)
    feed = fold.feed
    for event in events:
        feed(event)
    return fold


def valuation(metric: Callable[[Event], int], trace: Iterable[Event]) -> int:
    """``V_M(t)``: the sum of the metric over the events of ``t``."""
    return weight_fold(metric, trace).total


def weight_of_trace(metric: Callable[[Event], int], trace: Sequence[Event]) -> int:
    """``sup { V_M(t') | t' prefix of t }`` computed in one pass."""
    return weight_fold(metric, trace).peak


def weight(metric: Callable[[Event], int], behavior: Behavior) -> int:
    """``W_M(B)`` over the observed trace of ``B``.

    For stack metrics the valuation of the empty prefix is 0, so the weight
    is always non-negative.
    """
    return weight_of_trace(metric, behavior.trace)


def open_calls(trace: Iterable[Event]) -> dict[str, int]:
    """Per-function count of calls not yet matched by a return.

    For a stack metric ``M``, ``V_M(t) = sum_f M(call f) * open_calls(t)[f]``;
    this decomposition drives the all-metrics refinement check.
    """
    counts: dict[str, int] = {}
    for event in trace:
        if isinstance(event, CallEvent):
            counts[event.function] = counts.get(event.function, 0) + 1
        elif isinstance(event, ReturnEvent):
            counts[event.function] = counts.get(event.function, 0) - 1
    return counts


def is_well_bracketed(trace: Sequence[Event],
                      require_empty: bool = False) -> bool:
    """Check that call/ret events nest like a call stack.

    Every trace emitted by our interpreters satisfies this; it is asserted
    in property tests as a sanity invariant.  With ``require_empty`` the
    trace must also close every frame it opens — the right notion for a
    *converged* execution, where a leftover open call means a ``ret``
    event went missing (a fault plain nesting cannot see, since any
    prefix of a bracketed trace is bracketed).
    """
    stack: list[str] = []
    for event in trace:
        if isinstance(event, CallEvent):
            stack.append(event.function)
        elif isinstance(event, ReturnEvent):
            if not stack or stack[-1] != event.function:
                return False
            stack.pop()
    return not (require_empty and stack)


def call_depth_profile(trace: Sequence[Event]) -> list[int]:
    """The call-stack depth after each event (diagnostic helper)."""
    profile: list[int] = []
    depth = 0
    for event in trace:
        if isinstance(event, CallEvent):
            depth += 1
        elif isinstance(event, ReturnEvent):
            depth -= 1
        profile.append(depth)
    return profile
