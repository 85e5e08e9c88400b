import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goursatkit import catalog
from goursatkit.classify import (OVERSAMPLE, Box, ClassificationReport,
                                 TooFewRegularPoints, classify, first_kind_pde_residual,
                                 first_kind_residual, sample_regular_points,
                                 second_kind_pde_residual, second_kind_residuals,
                                 torsion_minors)
from goursatkit.expr import parse
from goursatkit.web import TorsionTensor, WebFunction, torsion

ONES4 = [1.0] * 4
ONES5 = [1.0] * 5


def _sample_point_by_point(web, box, count, seed):
    """The sampling loop from before draw batches were evaluated in one call."""
    rng = np.random.default_rng(seed)
    points, attempts = [], 0
    while len(points) < count and attempts < OVERSAMPLE * count:
        for p in box.sample(rng, count):
            attempts += 1
            if attempts > OVERSAMPLE * count:
                break
            if web.is_regular(p):
                points.append(p)
                if len(points) == count:
                    break
    return np.array(points)


def random_torsion(rng, n=5, span=2.0):
    return TorsionTensor.from_matrix(rng.uniform(-span, span, (n, n)))


class TestFirstKind:
    def test_product_web_zero(self):
        value, rel = first_kind_residual(torsion(catalog.product_web(4), ONES4))
        assert value == 0.0 and rel == 0.0

    def test_cross_web_quarter(self):
        value, _ = first_kind_residual(torsion(catalog.cross_web(4), ONES4))
        assert value == pytest.approx(0.25)

    def test_zero_torsion_flagged(self):
        t = torsion(catalog.separable_web(4), ONES4)
        value, rel = first_kind_residual(t)
        assert value == 0.0
        assert t.row_vanishes(1, (3, 4)) and t.row_vanishes(2, (3, 4))

    def test_pde_product_zero_everywhere(self):
        web = catalog.product_web(4)
        rng = np.random.default_rng(1)
        for _ in range(5):
            value, _ = first_kind_pde_residual(web, rng.uniform(0.5, 1.5, 4))
            assert value == 0.0

    def test_pde_cross_one(self):
        value, _ = first_kind_pde_residual(catalog.cross_web(4), ONES4)
        assert value == 1.0

    def test_pde_equals_scaled_torsion_form(self):
        # F13 F24 - F14 F23 == (F1 F2 F3 F4) * (a13 a24 - a14 a23)
        rng = np.random.default_rng(2)
        web = catalog.control_web(4)
        for _ in range(20):
            p = rng.uniform(0.5, 1.5, 4)
            jet = web.jet(p, 2)
            t_value, _ = first_kind_residual(torsion(web, p))
            pde_value, _ = first_kind_pde_residual(web, p)
            factor = float(np.prod(jet.gradient()))
            assert pde_value == pytest.approx(t_value * factor, rel=1e-12)


class TestSecondKind:
    def test_equal_first_row_gives_singular_det(self):
        vals = np.random.default_rng(3).uniform(-2, 2, (5, 5))
        vals[0, 2:5] = 0.7  # a13 = a14 = a15
        vals = (vals + vals.T) / 2
        vals[0, 2:5] = 0.7
        vals[2:5, 0] = 0.7
        res = second_kind_residuals(TorsionTensor.from_matrix(vals))
        assert abs(res.det24) < 1e-14

    @given(st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_equivalent_forms(self, seed):
        t = random_torsion(np.random.default_rng(seed))
        res = second_kind_residuals(t)
        assert res.sum25 == pytest.approx(res.det24, rel=1e-13, abs=1e-13 * res.scale)
        assert res.expr26 == pytest.approx(2 * res.det24, rel=1e-13, abs=1e-13 * res.scale)
        assert res.cross27 == pytest.approx(res.det24, rel=1e-12, abs=1e-12 * res.scale)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_cross_vanishes_iff_det_vanishes(self, seed):
        # solve the minor-sum condition for a25, then both det24 and cross27
        # must vanish; perturb a25 and both must move away together
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-2, 2, (5, 5))
        vals = (vals + vals.T) / 2
        a13, a14, a15 = vals[0, 2:5]
        a23, a24 = vals[1, 2], vals[1, 3]
        if abs(a14 - a13) < 1e-2:
            return
        a25 = (a14 * a23 - a13 * a24 + a15 * a24 - a15 * a23) / (a14 - a13)
        vals[1, 4] = vals[4, 1] = a25
        res = second_kind_residuals(TorsionTensor.from_matrix(vals))
        assert res.det24_rel < 1e-12 and res.cross27_rel < 1e-12
        vals[1, 4] = vals[4, 1] = a25 + 1.0
        res2 = second_kind_residuals(TorsionTensor.from_matrix(vals))
        assert abs(res2.det24) > 1e-3 and abs(res2.cross27) > 1e-3

    def test_family_web_determinant_zero(self):
        from goursatkit.families import family_web
        web = family_web(catalog.second_kind_demo_spec())
        p = np.array([1.1, 0.9, 1.0, 1.2, 0.8])
        res = second_kind_residuals(torsion(web, p))
        assert res.det24_rel < 1e-12

    def test_pde_identical_columns(self):
        web = WebFunction.from_expr(
            parse("x1*exp(0.3*(x3+x4+x5)) + x2*sin(x3+x4+x5)", 5))
        value, rel = second_kind_pde_residual(web, [1.0, 1.0, 0.3, 0.2, 0.1])
        assert rel < 1e-13

    def test_pde_uv_family_zero(self):
        from goursatkit.families import family_web
        web = family_web(catalog.second_kind_demo_spec())
        value, rel = second_kind_pde_residual(web, [1.1, 0.9, 1.0, 1.2, 0.8])
        assert rel < 1e-12

    def test_pde_control_nonzero(self):
        # det equals x5*(1 + x1*x3) for the bundled control web
        web = catalog.control_web(5)
        p = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
        value, rel = second_kind_pde_residual(web, p)
        assert value == pytest.approx(2.0, rel=1e-12)
        assert rel > 1e-3


class TestMinors:
    def test_proportional_rows_vanish(self):
        vals = np.random.default_rng(5).uniform(-2, 2, (5, 5))
        vals[1, 2:5] = 3.0 * vals[0, 2:5]
        vals = (vals + vals.T) / 2
        vals[1, 2:5] = 3.0 * vals[0, 2:5]
        vals[2:5, 1] = vals[1, 2:5]
        A, B, C = torsion_minors(TorsionTensor.from_matrix(vals))
        assert max(abs(A), abs(B), abs(C)) < 1e-14

    def test_cross_web_value(self):
        A, _, _ = torsion_minors(torsion(catalog.cross_web(5), ONES5))
        assert A == pytest.approx(0.25)

    def test_arity_four_rejected(self):
        with pytest.raises(ValueError, match="n >= 5"):
            torsion_minors(torsion(catalog.product_web(4), ONES4))

    @given(st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_sum_equals_det(self, seed):
        t = random_torsion(np.random.default_rng(seed))
        res = second_kind_residuals(t)
        A, B, C = torsion_minors(t)
        assert A + B + C == pytest.approx(res.det24, rel=1e-13, abs=1e-13 * res.scale)


class TestClassify:
    def test_first_kind_family_webs(self):
        rng = np.random.default_rng(6)
        _, web, box = catalog.random_family_web(rng, "first", 4)
        rep = classify(web, box, count=10, seed=1)
        assert rep.first_kind is True and rep.second_kind is None

    def test_second_kind_family_webs(self):
        rng = np.random.default_rng(7)
        _, web, box = catalog.random_family_web(rng, "second", 5)
        rep = classify(web, box, count=10, seed=1)
        assert rep.second_kind is True and rep.first_kind is False

    def test_cross_web_not_first_kind(self):
        rep = classify(catalog.cross_web(4), catalog.control_box(4), count=10, seed=1)
        assert rep.first_kind is False

    def test_deterministic_under_seed(self):
        web = catalog.control_web(4)
        box = catalog.control_box(4)
        r1 = classify(web, box, count=10, seed=9)
        r2 = classify(web, box, count=10, seed=9)
        assert np.array_equal(r1.points, r2.points)
        assert np.array_equal(r1.first_rel, r2.first_rel)

    def test_verdict_invariant_under_scaling_and_shift(self):
        box = catalog.control_box(4)
        base = catalog.product_web(4)
        shifted = WebFunction.from_expr(parse("(x1+x2)*(x3+x4) + 17", 4))
        for web in (base, base.scaled(2.0), base.scaled(-3.0), shifted):
            assert classify(web, box, count=8, seed=2).first_kind is True

    def test_too_few_regular_points(self):
        web = catalog.separable_web(4)
        tiny = Box.cube(4, -1e-11, 1e-11)
        with pytest.raises(TooFewRegularPoints):
            sample_regular_points(web, tiny, 5, seed=0)

    @pytest.mark.parametrize("bounds", [((-1e308, 1e308),) * 4, ((0.0, np.inf),) * 4,
                                        ((0.0, np.nan),) * 4, ((1.0, 1.0),) * 4])
    def test_box_needs_a_finite_width(self, bounds):
        # a width that overflows once passed and made the uniform draw raise
        with pytest.raises(ValueError, match="invalid box interval"):
            Box(bounds)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        box = Box.cube(4, 0.5, 1.5)
        with pytest.raises(ValueError, match="count must be >= 1"):
            sample_regular_points(catalog.product_web(4), box, count, seed=0)
        with pytest.raises(ValueError, match="count must be >= 1"):
            classify(catalog.product_web(4), box, count=count)

    def test_batched_sampling_matches_point_by_point(self):
        # ln(x1 - 1) fails at the draws with x1 < 1, and ln(x2 - 1), evaluated
        # on the rest, at those with x2 < 1
        def make():
            return WebFunction.from_expr(parse("ln(x1 - 1) + ln(x2 - 1) + x2*x3 + x4", 4))

        box = Box(((0.5, 2.5),) * 2 + ((0.5, 1.5),) * 2)
        second = 0
        for seed in range(4):
            draws = box.sample(np.random.default_rng(seed), 8)
            second += ((draws[:, 0] > 1.0) & (draws[:, 1] < 1.0)).sum()
            got = sample_regular_points(make(), box, 8, seed)
            assert np.array_equal(got, _sample_point_by_point(make(), box, 8, seed))
        assert second

    def test_degeneracy_flags(self):
        rep = classify(catalog.separable_web(4), catalog.control_box(4),
                       count=6, seed=0)
        assert rep.degenerate_rows == (True, True)
        assert rep.first_kind is True  # vacuous, flagged by degenerate_rows
        # one row at a time: F = x1*x4 + ... has a13 = 0, a14 != 0 and a row 2
        # of zeros
        for expr, flags in (("x1*x4 + x2^2/2 + x3^2/2 + x4^2/2", (False, True)),
                            ("x2*x3 + x1^2/2 + x3^2/2 + x4^2/2", (True, False))):
            web = WebFunction.from_expr(parse(expr, 4))
            rep = classify(web, catalog.control_box(4), count=6, seed=0)
            assert rep.degenerate_rows == flags

    def test_report_dict_shape(self):
        rep = classify(catalog.control_web(5), catalog.control_box(5),
                       count=6, seed=0)
        d = rep.to_dict()
        assert set(d) >= {"first_kind", "second_kind", "points",
                          "first_kind_residuals", "second_kind_residuals"}
        assert len(d["first_kind_residuals"]["torsion_form_rel"]) == 6

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("form", [0, 1])
    def test_non_finite_residual_in_either_form_fails_the_kind(self, bad, form):
        # Python's max(a, nan) keeps a, so a NaN in the second (PDE) form once
        # left the verdict true while a NaN in the first made it false
        def report(rel):
            forms = [np.zeros(3), np.zeros(3)]
            forms[form] = rel
            return ClassificationReport(
                n=5, tol=1e-7, seed=0, points=np.zeros((3, 5)),
                first_rel=forms[0], first_pde_rel=forms[1],
                second_rel=forms[0].copy(), second_pde_rel=forms[1].copy())

        clean = report(np.zeros(3))
        assert clean.first_kind is True and clean.second_kind is True
        rep = report(np.array([0.0, bad, 0.0]))
        assert rep.first_kind is False and rep.second_kind is False
