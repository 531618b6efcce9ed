"""Streaming event consumers (one-pass trace processing).

The interpreters can push every event they emit into an incremental
*consumer* instead of materializing a full ``Trace`` list that is then
re-walked once per check.  A consumer is any callable taking one
:class:`~repro.events.trace.Event`; this module provides the consumers
the campaign and the measurement code need:

* :class:`WeightFold` (re-exported from :mod:`repro.events.trace`) — the
  single shared implementation of the paper's valuation/weight fold
  ``V_M`` / ``W_M``;
* :class:`PrunedMatcher` / :class:`ExactMatcher` — incremental trace
  comparison against a reference trace (classic refinement's pruned
  I/O-trace equality, and the exact memory-event equality the deep
  campaign mode checks below Mach);
* :class:`BracketChecker` — streaming well-bracketedness of call/ret;
* :class:`Tee` — fan one event stream out to several consumers.

``StreamOutcome`` is the trace-free counterpart of a ``Behavior``: what a
streamed run produced (kind, return code, failure reason, event and step
counts) without holding onto the events themselves.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.events.trace import (Behavior, CallEvent, Converges, Diverges,
                                Event, GoesWrong, ReturnEvent, WeightFold,
                                weight_fold)

__all__ = [
    "BracketChecker", "Consumer", "CountingSink", "ExactMatcher",
    "PrunedMatcher", "StreamOutcome", "Tee", "WeightFold", "null_sink",
    "weight_fold",
]

#: A consumer is any callable fed one event at a time.
Consumer = Callable[[Event], None]


def null_sink(event: Event) -> None:
    """A consumer that drops every event (count-only runs)."""


class StreamOutcome:
    """The result of one streamed execution, without the trace.

    ``kind`` is ``"converges"``, ``"diverges"`` or ``"goes-wrong"`` —
    mirroring the three behaviors — and ``events``/``steps`` count what
    the run emitted and executed.
    """

    __slots__ = ("kind", "return_code", "reason", "events", "steps")

    CONVERGES = "converges"
    DIVERGES = "diverges"
    GOES_WRONG = "goes-wrong"

    def __init__(self, kind: str, return_code: Optional[int] = None,
                 reason: str = "", events: int = 0, steps: int = 0) -> None:
        self.kind = kind
        self.return_code = return_code
        self.reason = reason
        self.events = events
        self.steps = steps

    @property
    def converged(self) -> bool:
        return self.kind == self.CONVERGES

    def to_behavior(self, trace: Iterable[Event]) -> Behavior:
        """Attach a trace, recovering the equivalent ``Behavior``."""
        if self.kind == self.CONVERGES:
            assert self.return_code is not None
            return Converges(trace, self.return_code)
        if self.kind == self.GOES_WRONG:
            return GoesWrong(trace, reason=self.reason)
        return Diverges(trace)

    def __repr__(self) -> str:
        extra = (f", rc={self.return_code}" if self.return_code is not None
                 else "") + (f", reason={self.reason!r}" if self.reason else "")
        return (f"StreamOutcome({self.kind}, {self.events} events, "
                f"{self.steps} steps{extra})")


class CountingSink:
    """Wrap a consumer, counting the events that pass through."""

    __slots__ = ("sink", "count")

    def __init__(self, sink: Consumer) -> None:
        self.sink = sink
        self.count = 0

    def __call__(self, event: Event) -> None:
        self.count += 1
        self.sink(event)

    feed = __call__


# ---------------------------------------------------------------------------
# Incremental trace comparison
# ---------------------------------------------------------------------------


class ExactMatcher:
    """Incrementally compare a stream against a reference trace.

    ``ok`` goes (and stays) False on the first position mismatch;
    :meth:`matched` additionally requires the stream to have the
    reference's exact length, i.e. full trace equality.
    """

    __slots__ = ("reference", "pos", "ok")

    def __init__(self, reference: Sequence[Event]) -> None:
        self.reference = reference
        self.pos = 0
        self.ok = True

    def __call__(self, event: Event) -> None:
        pos = self.pos
        self.pos = pos + 1
        if self.ok and (pos >= len(self.reference)
                        or self.reference[pos] != event):
            self.ok = False

    feed = __call__

    def matched(self) -> bool:
        return self.ok and self.pos == len(self.reference)


class PrunedMatcher(ExactMatcher):
    """An :class:`ExactMatcher` that sees only non-memory (I/O) events.

    The reference must already be pruned (``prune(trace)``); memory
    events in the stream are skipped, realizing the paper's overline
    comparison without building the pruned target trace.
    """

    __slots__ = ()

    def __call__(self, event: Event) -> None:
        if not event.is_memory_event:
            ExactMatcher.__call__(self, event)

    feed = __call__


class BracketChecker:
    """Streaming check that call/ret events nest like a call stack."""

    __slots__ = ("stack", "ok")

    def __init__(self) -> None:
        self.stack: list[str] = []
        self.ok = True

    def __call__(self, event: Event) -> None:
        if isinstance(event, CallEvent):
            self.stack.append(event.function)
        elif isinstance(event, ReturnEvent):
            if not self.stack or self.stack[-1] != event.function:
                self.ok = False
            else:
                self.stack.pop()

    feed = __call__

    def balanced(self) -> bool:
        """Nested *and* every opened frame closed (for converged runs)."""
        return self.ok and not self.stack


class Tee:
    """Feed each event to every wrapped consumer, in order."""

    __slots__ = ("consumers",)

    def __init__(self, *consumers: Consumer) -> None:
        self.consumers = consumers

    def __call__(self, event: Event) -> None:
        for consumer in self.consumers:
            consumer(event)

    feed = __call__
