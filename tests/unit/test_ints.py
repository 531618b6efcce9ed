"""Unit tests for 32-bit machine arithmetic (repro.ints)."""

import pytest

from repro import ints
from repro.errors import UndefinedBehaviorError


class TestWrapAndViews:
    def test_wrap_identity_in_range(self):
        assert ints.wrap(0) == 0
        assert ints.wrap(ints.MAX_UNSIGNED) == ints.MAX_UNSIGNED

    def test_wrap_overflow(self):
        assert ints.wrap(1 << 32) == 0
        assert ints.wrap((1 << 32) + 5) == 5

    def test_wrap_negative(self):
        assert ints.wrap(-1) == ints.MAX_UNSIGNED
        assert ints.wrap(-2) == ints.MAX_UNSIGNED - 1

    def test_signed_view(self):
        assert ints.to_signed(0) == 0
        assert ints.to_signed(ints.MAX_UNSIGNED) == -1
        assert ints.to_signed(0x80000000) == ints.MIN_SIGNED
        assert ints.to_signed(0x7FFFFFFF) == ints.MAX_SIGNED

    def test_roundtrip_signed(self):
        for value in (-1, 0, 1, ints.MIN_SIGNED, ints.MAX_SIGNED, -12345):
            assert ints.to_signed(ints.to_unsigned(value)) == value

    def test_sign_extensions(self):
        assert ints.sign_extend8(0x7F) == 0x7F
        assert ints.sign_extend8(0x80) == ints.wrap(-128)
        assert ints.sign_extend8(0xFF) == ints.wrap(-1)
        assert ints.sign_extend16(0x8000) == ints.wrap(-32768)
        assert ints.sign_extend16(0x7FFF) == 0x7FFF

    def test_narrow_wraps(self):
        assert ints.wrap8(0x1FF) == 0xFF
        assert ints.wrap16(0x12345) == 0x2345


class TestArithmetic:
    def test_add_wraps(self):
        assert ints.add(ints.MAX_UNSIGNED, 1) == 0

    def test_sub_wraps(self):
        assert ints.sub(0, 1) == ints.MAX_UNSIGNED

    def test_mul_wraps(self):
        assert ints.mul(1 << 16, 1 << 16) == 0

    def test_neg(self):
        assert ints.to_signed(ints.neg(ints.to_unsigned(5))) == -5
        assert ints.neg(0) == 0

    def test_signed_division_truncates_toward_zero(self):
        assert ints.to_signed(ints.div_s(ints.to_unsigned(-7), 2)) == -3
        assert ints.to_signed(ints.div_s(7, ints.to_unsigned(-2))) == -3
        assert ints.to_signed(ints.div_s(7, 2)) == 3

    def test_signed_modulo_sign_of_dividend(self):
        assert ints.to_signed(ints.mod_s(ints.to_unsigned(-7), 2)) == -1
        assert ints.to_signed(ints.mod_s(7, ints.to_unsigned(-2))) == 1

    def test_division_by_zero_is_ub(self):
        with pytest.raises(UndefinedBehaviorError):
            ints.div_s(1, 0)
        with pytest.raises(UndefinedBehaviorError):
            ints.div_u(1, 0)
        with pytest.raises(UndefinedBehaviorError):
            ints.mod_s(1, 0)
        with pytest.raises(UndefinedBehaviorError):
            ints.mod_u(1, 0)

    def test_int_min_overflow_is_ub(self):
        int_min = ints.to_unsigned(ints.MIN_SIGNED)
        minus_one = ints.to_unsigned(-1)
        with pytest.raises(UndefinedBehaviorError):
            ints.div_s(int_min, minus_one)
        with pytest.raises(UndefinedBehaviorError):
            ints.mod_s(int_min, minus_one)

    def test_unsigned_division(self):
        assert ints.div_u(ints.MAX_UNSIGNED, 2) == ints.MAX_UNSIGNED // 2
        assert ints.mod_u(10, 3) == 1


class TestBitwise:
    def test_basic_ops(self):
        assert ints.and_(0b1100, 0b1010) == 0b1000
        assert ints.or_(0b1100, 0b1010) == 0b1110
        assert ints.xor(0b1100, 0b1010) == 0b0110
        assert ints.not_(0) == ints.MAX_UNSIGNED

    def test_shift_counts_mod_32(self):
        assert ints.shl(1, 32) == 1
        assert ints.shl(1, 33) == 2
        assert ints.shr_u(4, 34) == 1

    def test_arithmetic_vs_logical_shift(self):
        minus_two = ints.to_unsigned(-2)
        assert ints.to_signed(ints.shr_s(minus_two, 1)) == -1
        assert ints.shr_u(minus_two, 1) == 0x7FFFFFFF


class TestComparisons:
    def test_signed_vs_unsigned_ordering(self):
        minus_one = ints.to_unsigned(-1)
        assert ints.lt_s(minus_one, 0) == 1
        assert ints.lt_u(minus_one, 0) == 0
        assert ints.gt_u(minus_one, 0) == 1

    def test_equality(self):
        assert ints.eq(5, 5) == 1
        assert ints.ne(5, 6) == 1
        assert ints.eq(ints.to_unsigned(-1), ints.MAX_UNSIGNED) == 1

    def test_boundary_ordering(self):
        assert ints.le_s(ints.to_unsigned(ints.MIN_SIGNED),
                         ints.to_unsigned(ints.MAX_SIGNED)) == 1
        assert ints.ge_u(0x80000000, 0x7FFFFFFF) == 1


class TestFloatConversions:
    def test_truncation_toward_zero(self):
        assert ints.to_signed(ints.of_float_signed(2.9)) == 2
        assert ints.to_signed(ints.of_float_signed(-2.9)) == -2

    def test_nan_is_ub(self):
        with pytest.raises(UndefinedBehaviorError):
            ints.of_float_signed(float("nan"))

    def test_out_of_range_is_ub(self):
        for value in (2.0 ** 40, -(2.0 ** 40), float("inf"), float("-inf"),
                      2.0 ** 31, -(2.0 ** 31) - 1.0):
            with pytest.raises(UndefinedBehaviorError):
                ints.of_float_signed(value)
        for value in (2.0 ** 40, 2.0 ** 32, -1.0, float("inf"),
                      float("-inf"), float("nan")):
            with pytest.raises(UndefinedBehaviorError):
                ints.of_float_unsigned(value)

    def test_range_edges_truncate(self):
        assert ints.of_float_signed(2.0 ** 31 - 0.5) == ints.MAX_SIGNED
        assert ints.to_signed(ints.of_float_signed(-(2.0 ** 31) - 0.5)) \
            == ints.MIN_SIGNED
        assert ints.of_float_unsigned(2.0 ** 32 - 0.5) == ints.MAX_UNSIGNED
        assert ints.of_float_unsigned(-0.5) == 0

    def test_int_to_float_exact(self):
        assert ints.to_float_signed(ints.to_unsigned(-5)) == -5.0
        assert ints.to_float_unsigned(ints.MAX_UNSIGNED) == float(2 ** 32 - 1)
