"""Property-based tests for the bound-expression language.

The central property: the exact max-plus comparator agrees with pointwise
evaluation on arbitrary metrics — soundness *and* completeness of the
decision procedure on the ground fragment.  On the parametric fragment,
the sampled comparator agrees with a point-by-point loop over
``evaluate``, verdicts and raised exceptions alike.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.logic.bexpr import (INFINITY, BConst, BFrameDiff, BHalf, BLog2,
                               BMul, BParamDiff, BScale, NotGround, ZERO,
                               _default_metric_samples, _rewrite_frames,
                               badd, bmax, bmetric, bound_equal, bound_le,
                               bparam, evaluate, find_violation_metric,
                               fold_with_params, maxplus_normal_form,
                               metric_atoms, param_names)

ATOMS = ("f", "g", "h")
PARAMS = ("m", "n")
# ∞ twice: it is what makes NaN and -∞ (0·∞, ∞ - ∞, n - ∞) reachable.
CONSTANTS = (0, 1, 7, INFINITY, INFINITY)


@st.composite
def ground_bounds(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return BConst(draw(st.integers(0, 100)))
        return bmetric(draw(st.sampled_from(ATOMS)))
    kind = draw(st.integers(0, 2))
    left = draw(ground_bounds(depth=depth - 1))
    right = draw(ground_bounds(depth=depth - 1))
    if kind == 0:
        return badd(left, right)
    if kind == 1:
        return bmax(left, right)
    return BScale(draw(st.integers(0, 4)), left)


@st.composite
def parametric_bounds(draw, depth=3):
    """The whole algebra: parameters, ∞, and every parametric operator,
    including differences that go negative and scaling by 0."""
    if depth == 0 or draw(st.booleans()):
        leaf = draw(st.integers(0, 2))
        if leaf == 0:
            return BConst(draw(st.sampled_from(CONSTANTS)))
        if leaf == 1:
            return bmetric(draw(st.sampled_from(ATOMS[:2])))
        return bparam(draw(st.sampled_from(PARAMS)))
    kind = draw(st.integers(0, 7))
    left = draw(parametric_bounds(depth=depth - 1))
    if kind == 0:
        return badd(left, draw(parametric_bounds(depth=depth - 1)))
    if kind == 1:
        return bmax(left, draw(parametric_bounds(depth=depth - 1)))
    if kind == 2:
        return BScale(draw(st.integers(0, 3)), left)
    if kind == 3:
        return BMul(left, draw(parametric_bounds(depth=depth - 1)))
    if kind == 4:
        return BParamDiff(left, draw(parametric_bounds(depth=depth - 1)))
    if kind == 5:
        return BFrameDiff(left, draw(parametric_bounds(depth=depth - 1)))
    if kind == 6:
        return BLog2(left)
    return BHalf(left, draw(st.booleans()))


@st.composite
def small_domains(draw):
    return {name: draw(st.lists(st.integers(-3, 9), max_size=4))
            for name in PARAMS}


def _is_ground(expr):
    try:
        maxplus_normal_form(expr)
    except NotGround:
        return False
    return True


def parametric_pair(a, b):
    """Not both ground after the Q:FRAME rewrite, so not decided exactly."""
    return not all(_is_ground(_rewrite_frames(side)) for side in (a, b))


def reference_le(small, large, domains):
    """``bound_le`` on the parametric fragment, point by point."""
    if small is ZERO:
        return True, True
    small, large = _rewrite_frames(small), _rewrite_frames(large)
    names = sorted(param_names(small) | param_names(large))
    atoms = metric_atoms(small) | metric_atoms(large)
    for metric in _default_metric_samples(atoms):
        for combo in itertools.product(*(domains[name] for name in names)):
            valuation = dict(zip(names, combo))
            if evaluate(small, metric, valuation) > \
                    evaluate(large, metric, valuation):
                return False, False
    return True, False


def reference_equal(a, b, domains):
    holds, exact = reference_le(a, b, domains)
    if not holds:
        return holds, exact
    holds, other_exact = reference_le(b, a, domains)
    return holds, exact and other_exact


def outcome(decide, *args):
    """``(holds, exact)``, or the type of the exception raised."""
    try:
        result = decide(*args)
    except Exception as error:  # the exception type is the outcome
        return type(error)
    return result if isinstance(result, tuple) else \
        (result.holds, result.exact)


@st.composite
def metric_dicts(draw):
    return {name: draw(st.integers(0, 50)) for name in ATOMS}


class TestNormalFormSemantics:
    @given(ground_bounds(), metric_dicts())
    def test_normal_form_preserves_evaluation(self, bound, metric):
        terms = maxplus_normal_form(bound)
        def term_value(term):
            const, atoms = term
            return const + sum(metric[name] * mult for name, mult in atoms)
        normalized = max(term_value(t) for t in terms)
        assert normalized == evaluate(bound, metric)

    @given(ground_bounds())
    def test_normal_form_deterministic(self, bound):
        assert maxplus_normal_form(bound) == maxplus_normal_form(bound)


class TestComparatorSoundnessCompleteness:
    @settings(max_examples=200)
    @given(ground_bounds(), ground_bounds(), metric_dicts())
    def test_le_sound(self, a, b, metric):
        """If the comparator says a <= b, evaluation never contradicts."""
        if bound_le(a, b).holds:
            assert evaluate(a, metric) <= evaluate(b, metric)

    @settings(max_examples=100)
    @given(ground_bounds(), ground_bounds())
    def test_le_refusals_have_witnesses(self, a, b):
        """Every refusal of the comparator is certified by evaluation: a
        concrete metric on which ``a > b`` (extracted from the failure
        polyhedron by Fourier–Motzkin back-substitution)."""
        result = bound_le(a, b)
        if result.holds:
            return
        metric = find_violation_metric(a, b)
        assert metric is not None, (a, b)
        full = {name: 0 for name in ATOMS}
        full.update(metric)
        assert evaluate(a, full) > evaluate(b, full), (a, b, full)

    def test_le_case_split_completeness(self):
        """Inequalities needing a case split over the metric are decided
        (the termwise check alone refuses them); regression for a latent
        incompleteness found by hypothesis."""
        f, g = bmetric("f"), bmetric("g")
        # M(f)+1 <= max(2*M(f), 1): take 1 at M(f)=0, 2*M(f) otherwise.
        assert bound_le(badd(f, BConst(1)), bmax(badd(f, f), BConst(1))).holds
        # Same shape over two atoms.
        assert bound_le(badd(f, g, BConst(1)),
                        bmax(badd(f, f, g, g), BConst(1))).holds
        # A genuine violation in a narrow window (M(f)=2..4) is refused
        # and certified.
        a = badd(f, BConst(4))
        b = bmax(badd(f, f), BConst(5))
        assert not bound_le(a, b).holds
        witness = find_violation_metric(a, b)
        assert witness is not None and evaluate(a, witness) > \
            evaluate(b, witness)

    @given(ground_bounds())
    def test_le_reflexive(self, a):
        assert bound_le(a, a).holds

    @given(ground_bounds(), ground_bounds())
    def test_le_join(self, a, b):
        joined = bmax(a, b)
        assert bound_le(a, joined).holds
        assert bound_le(b, joined).holds

    @given(ground_bounds(), ground_bounds(), ground_bounds())
    def test_le_transitive(self, a, b, c):
        if bound_le(a, b).holds and bound_le(b, c).holds:
            assert bound_le(a, c).holds

    @given(ground_bounds(), ground_bounds())
    def test_add_monotone(self, a, b):
        assert bound_le(a, badd(a, b)).holds


class TestSampledComparator:
    @settings(max_examples=300)
    @given(parametric_bounds(), parametric_bounds(), small_domains())
    def test_le_matches_pointwise_reference(self, a, b, domains):
        assume(parametric_pair(a, b))
        expected = outcome(reference_le, a, b, domains)
        assert outcome(bound_le, a, b, domains) == expected, (a, b, domains)

    @settings(max_examples=300)
    @given(parametric_bounds(), parametric_bounds(), small_domains())
    def test_equal_matches_pointwise_reference(self, a, b, domains):
        assume(parametric_pair(a, b))
        expected = outcome(reference_equal, a, b, domains)
        assert outcome(bound_equal, a, b, domains) == expected, \
            (a, b, domains)

    @given(ground_bounds(), ground_bounds())
    def test_ground_equal_is_both_directions(self, a, b):
        le, ge = bound_le(a, b), bound_le(b, a)
        expected = (False, le.exact) if not le.holds else \
            (ge.holds, le.exact and ge.exact)
        result = bound_equal(a, b)
        assert (result.holds, result.exact) == expected


class TestFrameDiff:
    @given(ground_bounds(), ground_bounds(), metric_dicts())
    def test_frame_identity(self, part, other, metric):
        """part + (total - part) evaluates to total when part <= total."""
        total = bmax(part, other)
        framed = badd(part, BFrameDiff(total, part))
        assert evaluate(framed, metric) == evaluate(total, metric)

    @given(ground_bounds(), ground_bounds())
    def test_frame_rewrite_exact(self, part, other):
        from repro.logic.bexpr import bound_equal

        total = bmax(part, other)
        framed = badd(part, BFrameDiff(total, part))
        result = bound_equal(framed, total)
        assert result.holds and result.exact
