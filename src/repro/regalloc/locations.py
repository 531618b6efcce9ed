"""Machine locations: physical registers and stack slots.

The register file is x86-32-like: four allocatable integer registers
(EAX, EBX, ECX, EDX) with ESI/EDI reserved as assembler scratch, and six
allocatable XMM registers with XMM6/XMM7 reserved.  ESP is the stack
pointer and is never allocatable (there is no frame pointer — the paper's
ASMsz does all frame addressing with ESP arithmetic).
"""

from __future__ import annotations

INT_REGS = ("eax", "ebx", "ecx", "edx")
INT_SCRATCH = ("esi", "edi")
FLOAT_REGS = ("xmm0", "xmm1", "xmm2", "xmm3", "xmm4", "xmm5")
FLOAT_SCRATCH = ("xmm6", "xmm7")

RESULT_INT = "eax"
RESULT_FLOAT = "xmm0"


class Loc:
    """A machine location."""

    __slots__ = ()

    @property
    def is_float_class(self) -> bool:
        raise NotImplementedError


class LReg(Loc):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def is_float_class(self) -> bool:
        return False

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LReg) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("LReg", self.name))


class LFReg(Loc):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def is_float_class(self) -> bool:
        return True

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LFReg) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("LFReg", self.name))


class LSlot(Loc):
    """A spill slot; the Mach layout pass assigns its byte offset."""

    __slots__ = ("index", "_is_float")

    def __init__(self, index: int, is_float: bool) -> None:
        self.index = index
        self._is_float = is_float

    @property
    def is_float_class(self) -> bool:
        return self._is_float

    def __repr__(self) -> str:
        marker = "f" if self._is_float else "i"
        return f"slot{marker}{self.index}"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LSlot) and other.index == self.index
                and other._is_float == self._is_float)

    def __hash__(self) -> int:
        return hash(("LSlot", self.index, self._is_float))
