"""Exception hierarchy shared by every subsystem of the reproduction.

The pipeline distinguishes *static* errors (raised while parsing, type
checking, lowering, or analyzing a program) from *dynamic* errors (raised
while one of the interpreters executes a program).  Dynamic errors
correspond to the paper's "going wrong" behaviors: the soundness statements
only apply to programs that do not go wrong, so the interpreters surface
every wrong behavior as a distinct exception instead of silently recovering.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


# ---------------------------------------------------------------------------
# Static (compile-time) errors
# ---------------------------------------------------------------------------


class SourceLocation:
    """A position in a C source file, carried by front-end errors."""

    __slots__ = ("filename", "line", "column")

    def __init__(self, filename: str, line: int, column: int) -> None:
        self.filename = filename
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __repr__(self) -> str:
        return f"SourceLocation({self.filename!r}, {self.line}, {self.column})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return (self.filename, self.line, self.column) == (
            other.filename,
            other.line,
            other.column,
        )


class StaticError(ReproError):
    """A compile-time error, optionally carrying a source location."""

    def __init__(self, message: str, loc: SourceLocation | None = None) -> None:
        self.loc = loc
        if loc is not None:
            message = f"{loc}: {message}"
        super().__init__(message)


class LexError(StaticError):
    """The lexer met a character sequence that is not a token."""


class ParseError(StaticError):
    """The parser met a token sequence outside the supported C subset."""


class TypeError_(StaticError):
    """The type checker rejected the program.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class UnsupportedFeatureError(StaticError):
    """The program uses a C feature outside the supported subset.

    Mirrors the paper's explicit exclusions: ``goto``, variable-length
    arrays, and ``alloca``.  Function pointers are supported in a
    restricted fragment (scalar locals and parameters, resolved to finite
    candidate sets by :mod:`repro.analyzer.values`); uses outside that
    fragment raise this error.
    """


class LoweringError(ReproError):
    """An internal invariant was violated during a compiler pass."""


class AnalysisError(ReproError):
    """The automatic stack analyzer cannot bound the program.

    Raised for recursion patterns outside the structural fragment the
    ranking-function inference handles, and for function-pointer call
    sites whose candidate set the value analysis cannot resolve.

    ``sccs`` optionally carries the offending strongly connected
    components of the call graph as structured data (a list of sorted
    name lists), so callers can dispatch on *which* functions were
    recursive instead of re-running SCC detection or parsing the message.
    """

    def __init__(self, message: str,
                 sccs: "list[list[str]] | None" = None) -> None:
        super().__init__(message)
        self.sccs = list(sccs) if sccs is not None else None


class DerivationError(ReproError):
    """A quantitative-logic derivation failed to check.

    This is the executable analogue of a Coq proof script failing: some
    rule application in the derivation tree does not satisfy its side
    conditions.
    """


# ---------------------------------------------------------------------------
# Dynamic (run-time) errors: the "goes wrong" behaviors
# ---------------------------------------------------------------------------


class DynamicError(ReproError):
    """Base class for wrong behaviors of the interpreters."""


class MemoryError_(DynamicError):
    """An invalid memory access (bad block, bad offset, freed block)."""


class UndefinedBehaviorError(DynamicError):
    """Evaluation reached an undefined operation (e.g. division by zero)."""


class StackOverflowError_(DynamicError):
    """ASMsz only: the program needed more stack than was preallocated.

    The whole point of the paper is that a verified bound rules this out
    (Theorem 1), so the finite-stack machine must be able to produce it.
    """

    def __init__(self, message: str, needed: int | None = None, available: int | None = None) -> None:
        super().__init__(message)
        self.needed = needed
        self.available = available

