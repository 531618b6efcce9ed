"""Unit tests for the bound-expression language."""

import math

import pytest

from repro import obs
from repro.logic.bexpr import (BConst, BFrameDiff, BHalf, BLog2, BMax, BMul,
                               BParam, BParamDiff, BScale, INFINITY, NotGround,
                               TOP, ZERO, badd, bconst, bmax, bmetric,
                               bound_equal, bound_le, bparam, evaluate,
                               fold_with_params, maxplus_normal_form,
                               metric_atoms, param_names, substitute_params)

M = {"f": 8, "g": 16, "h": 24}


class TestConstruction:
    def test_badd_drops_zero(self):
        assert repr(badd(bmetric("f"), ZERO)) == "M(f)"

    def test_badd_flattens(self):
        expr = badd(badd(bconst(1), bconst(2)), bconst(3))
        assert evaluate(expr) == 6

    def test_bmax_flattens_and_drops_zero(self):
        expr = bmax(bmax(bmetric("f"), ZERO), bmetric("g"))
        assert evaluate(expr, M) == 16

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            bconst(-1)

    def test_operator_sugar(self):
        expr = bmetric("f") + 4
        assert evaluate(expr, M) == 12
        assert evaluate(3 * bmetric("f"), M) == 24


class TestEvaluation:
    def test_metric_atom(self):
        assert evaluate(bmetric("g"), M) == 16

    def test_missing_metric_raises(self):
        with pytest.raises(ValueError):
            evaluate(bmetric("f"))

    def test_param(self):
        assert evaluate(bparam("n"), params={"n": 7}) == 7

    def test_missing_param_raises(self):
        with pytest.raises(ValueError):
            evaluate(bparam("n"))

    def test_infinity_propagates(self):
        assert evaluate(badd(TOP, bconst(1))) == INFINITY
        assert evaluate(bmax(TOP, bconst(1))) == INFINITY

    def test_frame_diff(self):
        expr = BFrameDiff(bmax(bmetric("f"), bmetric("g")), bmetric("f"))
        assert evaluate(expr, M) == 8

    def test_frame_diff_clamps(self):
        expr = BFrameDiff(bconst(3), bconst(10))
        assert evaluate(expr) == 0

    def test_log2_conventions(self):
        assert evaluate(BLog2(bconst(0))) == 0
        assert evaluate(BLog2(bconst(1))) == 0
        assert evaluate(BLog2(bconst(2))) == 1
        assert evaluate(BLog2(bconst(3))) == 2  # ceiling
        assert evaluate(BLog2(bconst(1024))) == 10

    def test_log2_of_infinity_is_infinite(self):
        assert evaluate(BLog2(TOP)) == INFINITY
        assert fold_with_params(BLog2(TOP), {}) is TOP
        assert not bound_le(BLog2(TOP), bconst(5)).holds
        assert bound_le(bconst(5), BLog2(TOP)).holds

    def test_log2_of_negative_is_infinite(self):
        expr = BLog2(BParamDiff(bparam("lo"), bparam("hi")))
        assert evaluate(expr, params={"lo": 1, "hi": 5}) == INFINITY

    def test_param_diff_clamped_at_top_level(self):
        expr = BParamDiff(bparam("a"), bparam("b"))
        assert evaluate(expr, params={"a": 2, "b": 5}) == 0

    def test_mul_and_scale(self):
        expr = BMul(bparam("n"), bmetric("f"))
        assert evaluate(expr, M, {"n": 3}) == 24
        assert evaluate(BScale(5, bmetric("f")), M) == 40


class TestStructure:
    def test_metric_atoms(self):
        expr = badd(bmetric("f"), bmax(bmetric("g"), bconst(4)))
        assert metric_atoms(expr) == {"f", "g"}

    def test_param_names(self):
        expr = BMul(bparam("n"), badd(bmetric("f"), bparam("k")))
        assert param_names(expr) == {"n", "k"}

    def test_substitute_params(self):
        expr = BMul(bparam("n"), bmetric("f"))
        inst = substitute_params(expr, {"n": bconst(4)})
        assert evaluate(inst, M) == 32


class TestNormalForm:
    def test_const(self):
        assert maxplus_normal_form(bconst(5)) == frozenset({(5, frozenset())})

    def test_add_distributes_over_max(self):
        # f + max(g, h) = max(f+g, f+h)
        expr = badd(bmetric("f"), bmax(bmetric("g"), bmetric("h")))
        terms = maxplus_normal_form(expr)
        assert len(terms) == 2

    def test_dominated_terms_pruned(self):
        # max(f, f + g) = f + g  (metrics are nonnegative)
        expr = bmax(bmetric("f"), badd(bmetric("f"), bmetric("g")))
        terms = maxplus_normal_form(expr)
        assert len(terms) == 1

    def test_scale_multiplies_atoms(self):
        terms = maxplus_normal_form(BScale(3, badd(bmetric("f"), bconst(2))))
        ((const, atoms),) = terms
        assert const == 6 and dict(atoms) == {"f": 3}

    def test_parametric_raises(self):
        with pytest.raises(NotGround):
            maxplus_normal_form(bparam("n"))


class TestOrder:
    def test_zero_is_bottom(self):
        result = bound_le(ZERO, BFrameDiff(bmetric("f"), bmetric("g")))
        assert result.holds and result.exact

    def test_monotone_in_atoms(self):
        assert bound_le(bmetric("f"), badd(bmetric("f"), bmetric("g"))).holds

    def test_max_upper_bound(self):
        small = bmetric("f")
        large = bmax(bmetric("f"), bmetric("g"))
        assert bound_le(small, large).holds
        assert not bound_le(large, small).holds

    def test_sum_not_below_max(self):
        # f + g <= max(f, g) must FAIL (choose f = g = 1).
        assert not bound_le(badd(bmetric("f"), bmetric("g")),
                            bmax(bmetric("f"), bmetric("g"))).holds

    def test_constants_compare(self):
        assert bound_le(bconst(3), bconst(4)).holds
        assert not bound_le(bconst(4), bconst(3)).holds

    def test_top_dominates(self):
        assert bound_le(badd(bmetric("f"), bconst(1000)), TOP).holds

    def test_frame_rewrite_makes_equal(self):
        total = bmax(bmetric("f"), bmetric("g"))
        framed = badd(bmetric("f"), BFrameDiff(total, bmetric("f")))
        result = bound_equal(framed, total)
        assert result.holds and result.exact

    @pytest.mark.parametrize("added, subtracted, domains", [
        # BParamDiff and BFrameDiff both print as "(x - y)".
        (BParamDiff(bparam("x"), bparam("y")),
         BFrameDiff(bparam("x"), bparam("y")), {"x": [0], "y": [5]}),
        # A certificate may name a parameter "M(f)", printed like M(f).
        (BParam("M(f)"), bmetric("f"), {"M(f)": [0]}),
    ])
    def test_frame_rewrite_needs_the_same_node(self, added, subtracted,
                                               domains):
        """Q:FRAME's ``part + (total - part) -> total`` fires only when
        the added term is the subtracted node itself, not a look-alike."""
        large = badd(added, BFrameDiff(bconst(10), subtracted))
        params = {name: values[0] for name, values in domains.items()}
        assert evaluate(large, {"f": 8}, params) < 10
        assert not bound_le(bconst(10), large, param_domains=domains).holds

    def test_paper_figure5_shape(self):
        # {max(mf, mg)} f(); g() {max(mf, mg)}: both call bounds are
        # below the max.
        mf, mg = bmetric("f"), bmetric("g")
        total = bmax(mf, mg)
        assert bound_le(mf, total).holds
        assert bound_le(mg, total).holds

    def test_parametric_needs_domain(self):
        with pytest.raises(ValueError):
            bound_le(bparam("n"), bconst(10))

    def test_parametric_with_domain(self):
        result = bound_le(bparam("n"), bconst(10),
                          param_domains={"n": range(0, 11)})
        assert result.holds and not result.exact
        result = bound_le(bparam("n"), bconst(10),
                          param_domains={"n": range(0, 12)})
        assert not result.holds

    def test_parametric_equal_counts_every_grid_point_once(self):
        """Both directions of a passing sampled equality compare every
        (metric sample, valuation) pair: 4 default samples x 601."""
        n, f = bparam("n"), bmetric("f")
        obs.reset()
        obs.enable()
        try:
            result = bound_equal(badd(n, f), badd(f, n),
                                 param_domains={"n": range(0, 601)})
            points = obs.registry.snapshot()["counters"][
                "logic.sampled.points"]
        finally:
            obs.disable()
            obs.reset()
        assert result.holds and not result.exact
        assert points == 2404

    def test_grid_failure_falls_back_to_first_violation(self):
        """At n = 0 the left side exceeds the right; at n = 1 the right
        side raises (half of -∞).  The point-by-point order refutes
        before reaching the raising point, and so does bound_le."""
        # log2(0 - n) is 0 at n = 0 and ∞ at n = 1.
        minus_log = BParamDiff(ZERO, BLog2(BParamDiff(ZERO, bparam("n"))))
        raising = BHalf(minus_log)
        assert not bound_le(bconst(3), raising,
                            param_domains={"n": [0, 1]}).holds
        with pytest.raises(OverflowError):
            bound_le(bconst(3), raising, param_domains={"n": [1, 0]})

    def test_parametric_scaled_metric(self):
        small = BMul(bparam("n"), bmetric("f"))
        large = BMul(badd(bparam("n"), bconst(1)), bmetric("f"))
        assert bound_le(small, large,
                        param_domains={"n": range(0, 50)}).holds


class TestFolding:
    def test_fold_to_ground(self):
        expr = BMul(badd(bconst(1), BLog2(bparam("n"))), bmetric("f"))
        ground = fold_with_params(expr, {"n": 16})
        assert evaluate(ground, M) == 5 * 8
        # ground expressions have exact comparisons
        assert bound_le(ground, BScale(5, bmetric("f"))).exact

    def test_fold_negative_diff_to_infinity_in_log(self):
        expr = BLog2(BParamDiff(bparam("hi"), bparam("lo")))
        assert evaluate(fold_with_params(expr, {"hi": 0, "lo": 4})) == INFINITY

    def test_fold_clamps_negative(self):
        expr = BParamDiff(bparam("a"), bparam("b"))
        folded = fold_with_params(expr, {"a": 1, "b": 9})
        assert evaluate(folded) == 0

    def test_fold_mixed_add(self):
        expr = badd(bmetric("f"), bparam("n"), bconst(2))
        folded = fold_with_params(expr, {"n": 5})
        assert evaluate(folded, M) == 8 + 7

    def test_fold_max(self):
        expr = bmax(bparam("n"), bmetric("f"))
        folded = fold_with_params(expr, {"n": 100})
        assert evaluate(folded, M) == 100

    def test_fold_consistent_with_evaluate(self):
        expr = badd(BMul(bparam("n"), bmetric("g")),
                    bmax(bmetric("f"), BScale(2, bparam("n"))))
        for n in (0, 1, 5, 33):
            folded = fold_with_params(expr, {"n": n})
            assert evaluate(folded, M) == evaluate(expr, M, {"n": n})
