"""Machine-integer arithmetic for the 32-bit target.

Every integer value that flows through the compiler and the interpreters is
kept in its *unsigned 32-bit representation* (a Python int in
``[0, 2**32)``), mirroring CompCert's ``Int.int`` module where a single
bit-pattern type carries both signed and unsigned views.  Operations that
depend on signedness come in two flavours (e.g. :func:`div_s` and
:func:`div_u`), and conversions between the views are explicit.

Division and shift semantics follow C99 / x86:

* signed division truncates toward zero,
* signed modulo has the sign of the dividend,
* division or modulo by zero is undefined behavior,
* ``INT_MIN / -1`` overflows and is undefined behavior (x86 ``idiv`` faults),
* shift counts are taken modulo 32 (x86 semantics).
"""

from __future__ import annotations

from repro.errors import UndefinedBehaviorError

WORD_BITS = 32
WORD_SIZE = 4
MODULUS = 1 << WORD_BITS
MAX_UNSIGNED = MODULUS - 1
MAX_SIGNED = (MODULUS >> 1) - 1
MIN_SIGNED = -(MODULUS >> 1)


def wrap(value: int) -> int:
    """Reduce an arbitrary Python int to its unsigned 32-bit representation."""
    return value & MAX_UNSIGNED


def to_signed(value: int) -> int:
    """Interpret an unsigned 32-bit representation as a signed integer."""
    value = wrap(value)
    if value > MAX_SIGNED:
        return value - MODULUS
    return value


def to_unsigned(value: int) -> int:
    """Interpret any Python int (possibly negative) as unsigned 32-bit."""
    return wrap(value)


def wrap8(value: int) -> int:
    """Reduce to unsigned 8-bit (used by the i8 memory chunk)."""
    return value & 0xFF


def wrap16(value: int) -> int:
    """Reduce to unsigned 16-bit (used by the i16 memory chunk)."""
    return value & 0xFFFF


def sign_extend8(value: int) -> int:
    """Sign-extend an 8-bit pattern to the unsigned 32-bit representation."""
    value = wrap8(value)
    if value & 0x80:
        value -= 0x100
    return wrap(value)


def sign_extend16(value: int) -> int:
    """Sign-extend a 16-bit pattern to the unsigned 32-bit representation."""
    value = wrap16(value)
    if value & 0x8000:
        value -= 0x10000
    return wrap(value)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def add(a: int, b: int) -> int:
    return wrap(a + b)


def sub(a: int, b: int) -> int:
    return wrap(a - b)


def mul(a: int, b: int) -> int:
    return wrap(a * b)


def neg(a: int) -> int:
    return wrap(-a)


def div_s(a: int, b: int) -> int:
    """Signed division, truncating toward zero (C99, x86 ``idiv``)."""
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        raise UndefinedBehaviorError("signed division by zero")
    if sa == MIN_SIGNED and sb == -1:
        raise UndefinedBehaviorError("signed division overflow (INT_MIN / -1)")
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return wrap(quotient)


def mod_s(a: int, b: int) -> int:
    """Signed remainder with the sign of the dividend (C99, x86 ``idiv``)."""
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        raise UndefinedBehaviorError("signed modulo by zero")
    if sa == MIN_SIGNED and sb == -1:
        raise UndefinedBehaviorError("signed modulo overflow (INT_MIN % -1)")
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return wrap(remainder)


def div_u(a: int, b: int) -> int:
    """Unsigned division (x86 ``div``)."""
    a, b = wrap(a), wrap(b)
    if b == 0:
        raise UndefinedBehaviorError("unsigned division by zero")
    return a // b


def mod_u(a: int, b: int) -> int:
    """Unsigned remainder (x86 ``div``)."""
    a, b = wrap(a), wrap(b)
    if b == 0:
        raise UndefinedBehaviorError("unsigned modulo by zero")
    return a % b


# ---------------------------------------------------------------------------
# Bitwise operations
# ---------------------------------------------------------------------------


def and_(a: int, b: int) -> int:
    return wrap(a) & wrap(b)


def or_(a: int, b: int) -> int:
    return wrap(a) | wrap(b)


def xor(a: int, b: int) -> int:
    return wrap(a) ^ wrap(b)


def not_(a: int) -> int:
    return wrap(~a)


def shl(a: int, count: int) -> int:
    """Left shift; the count is taken modulo 32 as on x86."""
    return wrap(wrap(a) << (count & 31))


def shr_u(a: int, count: int) -> int:
    """Logical (unsigned) right shift."""
    return wrap(a) >> (count & 31)


def shr_s(a: int, count: int) -> int:
    """Arithmetic (signed) right shift."""
    return wrap(to_signed(a) >> (count & 31))


# ---------------------------------------------------------------------------
# Comparisons: return 1 or 0 in the unsigned representation
# ---------------------------------------------------------------------------


def _bool(b: bool) -> int:
    return 1 if b else 0


def eq(a: int, b: int) -> int:
    return _bool(wrap(a) == wrap(b))


def ne(a: int, b: int) -> int:
    return _bool(wrap(a) != wrap(b))


def lt_s(a: int, b: int) -> int:
    return _bool(to_signed(a) < to_signed(b))


def le_s(a: int, b: int) -> int:
    return _bool(to_signed(a) <= to_signed(b))


def gt_s(a: int, b: int) -> int:
    return _bool(to_signed(a) > to_signed(b))


def ge_s(a: int, b: int) -> int:
    return _bool(to_signed(a) >= to_signed(b))


def lt_u(a: int, b: int) -> int:
    return _bool(wrap(a) < wrap(b))


def le_u(a: int, b: int) -> int:
    return _bool(wrap(a) <= wrap(b))


def gt_u(a: int, b: int) -> int:
    return _bool(wrap(a) > wrap(b))


def ge_u(a: int, b: int) -> int:
    return _bool(wrap(a) >= wrap(b))


# ---------------------------------------------------------------------------
# Conversions with IEEE double
# ---------------------------------------------------------------------------


def of_float_signed(x: float) -> int:
    """Truncate a double toward zero into a signed 32-bit integer.

    Out-of-range conversions are undefined behavior in C; x86's
    ``cvttsd2si`` produces the indefinite value, which CompCert models as
    going wrong.  We raise.  The range test comes before ``int()``, and
    NaN and the infinities fail it, so every bad input raises the same
    error.
    """
    if not MIN_SIGNED - 1.0 < x < MAX_SIGNED + 1.0:
        raise UndefinedBehaviorError(
            f"float-to-int conversion out of range: {x!r}")
    return wrap(int(x))


def of_float_unsigned(x: float) -> int:
    """Truncate a double toward zero into an unsigned 32-bit integer
    (undefined behavior out of range, as for :func:`of_float_signed`)."""
    if not -1.0 < x < MODULUS:
        raise UndefinedBehaviorError(
            f"float-to-uint conversion out of range: {x!r}")
    return int(x)


def to_float_signed(a: int) -> float:
    """Convert the signed view of a 32-bit integer to a double (exact)."""
    return float(to_signed(a))


def to_float_unsigned(a: int) -> float:
    """Convert the unsigned view of a 32-bit integer to a double (exact)."""
    return float(wrap(a))
