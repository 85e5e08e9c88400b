from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goursatkit import catalog
from goursatkit.classify import Box
from goursatkit.cli import build_web, parse_config_text
from goursatkit.expr import parse
from goursatkit.jets import JetDomainError, eval_jet
from goursatkit.web import (JET_ORDER, Gauge, NonFiniteJet, PfaffianDerivs, RegularityError,
                            TorsionTensor, WebFunction, coframe, pfaffian_derivs, torsion)

GOLDEN = Path(__file__).parent / "data" / "golden"

ONES4 = [1.0, 1.0, 1.0, 1.0]


class TestCoframe:
    def test_product_web(self):
        frame = coframe(catalog.product_web(4), ONES4)
        assert np.allclose(np.diag(frame), 2.0)
        assert np.allclose(frame - np.diag(np.diag(frame)), 0.0)

    def test_separable(self):
        frame = coframe(catalog.separable_web(4), ONES4)
        assert np.allclose(np.diag(frame), 1.0)

    def test_regularity_violation_reports_alpha(self):
        web = WebFunction.from_expr(parse("x1*x3", 4))
        with pytest.raises(RegularityError) as exc:
            coframe(web, [0.0, 1.0, 1.0, 1.0])
        assert exc.value.alpha == 2


class TestTorsion:
    def test_product_values(self):
        t = torsion(catalog.product_web(4), ONES4)
        for a, b in ((1, 3), (1, 4), (2, 3), (2, 4)):
            assert t.entry(a, b) == 0.25
        assert t.entry(1, 2) == 0.0 and t.entry(3, 4) == 0.0

    def test_irregular_point_raises(self):
        # F = (x1 + x2)(x3 + x4): F_3 = x1 + x2 vanishes at x1 = x2 = 0
        with pytest.raises(RegularityError) as exc:
            torsion(catalog.product_web(4), [0.0, 0.0, 1.0, 1.0])
        assert exc.value.alpha == 3

    def test_cross_values(self):
        t = torsion(catalog.cross_web(4), ONES4)
        assert (t.entry(1, 3), t.entry(2, 4), t.entry(1, 4), t.entry(2, 3)) == \
            (0.5, 0.5, 0.25, 0.0)

    def test_separable_zero(self):
        t = torsion(catalog.separable_web(5), [1.0] * 5)
        vals = t.values[~np.isnan(t.values)]
        assert np.all(vals == 0.0)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(2)
        web = catalog.control_web(4)
        for _ in range(10):
            t = torsion(web, rng.uniform(0.5, 1.5, 4))
            off = ~np.eye(4, dtype=bool)
            assert np.array_equal(t.values[off], t.values.T[off])

    def test_diagonal_not_defined(self):
        t = torsion(catalog.product_web(4), ONES4)
        with pytest.raises(IndexError):
            t.entry(2, 2)
        assert t.entry_or_zero(2, 2) == 0.0

    @given(st.sampled_from([2.0, -3.0]), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_scaling_divides_torsion(self, c, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.6, 1.4, 4)
        web = catalog.control_web(4)
        t1 = torsion(web, p).values
        t2 = torsion(web.scaled(c), p).values
        off = ~np.isnan(t1)
        assert np.allclose(t2[off], t1[off] / c, rtol=1e-13)


class TestPfaffianDerivs:
    def test_product_gauge_zero(self):
        d = pfaffian_derivs(catalog.product_web(4), ONES4)
        assert d.entry(1, 3, 1) == pytest.approx(-0.125, abs=1e-15)

    def test_product_gauge_shift(self):
        d = pfaffian_derivs(catalog.product_web(4), ONES4, Gauge.of([1, 0, 0, 0]))
        assert d.entry(1, 3, 1) == pytest.approx(-0.375, abs=1e-15)

    def test_affine_in_gauge(self):
        rng = np.random.default_rng(4)
        web = catalog.control_web(4)
        p = rng.uniform(0.6, 1.4, 4)
        t = torsion(web, p)
        d0 = pfaffian_derivs(web, p)
        w = Gauge.of(rng.uniform(-2, 2, 4))
        dw = pfaffian_derivs(web, p, w)
        shift = dw.values - d0.values + t.values[:, :, None] * np.asarray(w.w)
        assert np.nanmax(np.abs(shift)) < 1e-13

    def test_regauged_transport_matches_direct(self):
        web = catalog.control_web(4)
        p = [0.9, 1.1, 0.8, 1.2]
        t = torsion(web, p)
        w = Gauge.of([0.3, -0.7, 1.1, 0.2])
        direct = pfaffian_derivs(web, p, w)
        moved = pfaffian_derivs(web, p).regauged(t, w)
        assert np.allclose(np.nan_to_num(direct.values), np.nan_to_num(moved.values),
                           atol=1e-14)

    def test_separable_all_zero_any_gauge(self):
        d = pfaffian_derivs(catalog.separable_web(4), ONES4,
                            Gauge.of([0.5, -1.0, 2.0, 0.0]))
        assert np.nanmax(np.abs(d.values)) == 0.0

    def test_first_two_slots_symmetric(self):
        web = catalog.control_web(5)
        d = pfaffian_derivs(web, [1.0, 0.9, 1.1, 1.2, 0.8])
        for a in range(1, 6):
            for b in range(1, 6):
                if a == b:
                    continue
                for g in range(1, 6):
                    assert d.entry(a, b, g) == d.entry(b, a, g)

    def test_against_finite_differences_of_torsion(self):
        # independent oracle: a_abg at gauge 0 is (1/F_g) d_g a_ab minus the
        # torsion bracket; difference the torsion field directly
        from goursatkit.expr import parse
        web = WebFunction.from_expr(parse(
            "exp(0.3*x1*x3) + x2*x4*(1 + 0.2*x1) + sin(x2*x3)/2 + x1*x5^2", 5))
        p = np.array([1.1, 0.8, 1.2, 0.9, 1.3])
        t = torsion(web, p)
        d = pfaffian_derivs(web, p)
        grad = web.jet(p, 1).gradient()
        h = 1e-6
        for al, be in ((1, 3), (2, 4), (1, 5), (3, 4), (2, 5)):
            for g in range(1, 6):
                hi = p.copy(); hi[g - 1] += h
                lo = p.copy(); lo[g - 1] -= h
                fd = (torsion(web, hi).entry(al, be)
                      - torsion(web, lo).entry(al, be)) / (2 * h)
                bracket = t.entry_or_zero(g, al) + t.entry_or_zero(be, g)
                want = fd / grad[g - 1] - t.entry(al, be) * bracket
                got = d.entry(al, be, g)
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), \
                    (al, be, g, got, want)


class TestWebFunction:
    def test_jet_order_consistency(self):
        # the order-3 jet must truncate to the bits of an independent
        # order-2 evaluation of the same expression (catalog.control_web(4))
        expression = parse("x1*x3 + x2*x4 + x1*x4 + x1^2*x3^2/4", 4)
        web = WebFunction.from_expr(expression)
        p = [1.2, 0.8, 1.1, 0.9]
        slots = ["x1", "x2", "x3", "x4"]
        j2 = eval_jet(expression, dict(zip(slots, p)), slots, 2)
        assert j2.order == 2
        assert np.array_equal(web.jet(p, 3).data[: j2.space.size], j2.data)
        assert np.array_equal(web.jet(p, 2).data, j2.data)

    def test_irregular_point_raises_on_every_call(self):
        web = WebFunction.from_expr(parse("x1*x3", 4))
        for _ in range(2):
            with pytest.raises(RegularityError):
                web.jet([0.0, 1.0, 1.0, 1.0], 2)
        assert web.jet([0.0, 1.0, 1.0, 1.0], 2, check_regularity=False).value == 0.0

    def test_non_finite_jet_is_not_regular(self):
        # F_111 = -100*101*102 x1^(-103) overflows at x1 = 0.001
        web = WebFunction.from_expr(parse("x1^(-100)*x3 + x2*x4", 4))
        p = [0.001, 1.0, 1.0, 1.0]
        assert np.isfinite(web.jet(p, 1, check_regularity=False).data).all()
        with pytest.raises(NonFiniteJet):
            web.jet(p, 1)
        assert not web.is_regular(p)
        assert web.is_regular([0.002, 1.0, 1.0, 1.0])

    def test_failed_evaluation_is_evaluated_again(self):
        from goursatkit.jets import JetDomainError
        web = WebFunction.from_expr(parse("ln(x1) + x2*x3 + x4", 4))
        calls = []
        inner = web.evaluator
        web.evaluator = lambda points: calls.append(len(points)) or inner(points)
        for _ in range(2):
            with pytest.raises(JetDomainError):
                web.jet([-1.0, 1.0, 1.0, 1.0], 1)
        assert calls == [1, 1]

    def test_order_cap(self):
        web = catalog.product_web(4)
        with pytest.raises(ValueError):
            web.jet(ONES4, 4)

    def test_arity_floor(self):
        with pytest.raises(ValueError):
            WebFunction.from_expr(parse("x1*x2 + x3", 3))

    def test_unbound_parameter_rejected(self):
        with pytest.raises(ValueError):
            WebFunction.from_expr(parse("c*x1*x3 + x2*x4", 4, ["c"]))

    def test_bound_parameter(self):
        web = WebFunction.from_expr(parse("c*x1*x3 + x2*x4 + x1*x4", 4, ["c"]),
                                    params={"c": 2.0})
        t = torsion(web, ONES4)
        assert t.entry(1, 3) == pytest.approx(2.0 / (3.0 * 2.0))

    def test_classification_invariant_under_scaling(self):
        from goursatkit.classify import classify
        web = catalog.control_web(4)
        box = catalog.control_box(4)
        base = classify(web, box, count=8, seed=5)
        scaled = classify(web.scaled(-3.0), box, count=8, seed=5)
        assert base.first_kind == scaled.first_kind


def test_torsion_tensor_from_matrix_symmetrizes():
    raw = np.arange(16, dtype=float).reshape(4, 4)
    t = TorsionTensor.from_matrix(raw)
    assert t.entry(1, 2) == t.entry(2, 1)
    assert np.isnan(t.values[0, 0])


def test_pfaffian_from_array_symmetrizes_first_slots():
    raw = np.random.default_rng(0).normal(size=(5, 5, 5))
    d = PfaffianDerivs.from_array(raw)
    assert d.entry(1, 3, 2) == d.entry(3, 1, 2)


def _closed_n8():
    cfg = parse_config_text((GOLDEN / "closed-n8.cfg").read_text())
    return build_web(cfg), Box(cfg.box)


@pytest.mark.parametrize("make", [
    lambda: (catalog.control_web(6), catalog.control_box(6)),
    _closed_n8,
    lambda: catalog.random_family_web(np.random.default_rng(5), "second", 6)[1:],
], ids=["control", "closed-n8", "second-kind-family"])
def test_batch_jets_equal_one_point_jets(make):
    # one evaluation of a batch gives each point the bits of a one-point call
    web, box = make()
    points = box.sample(np.random.default_rng(1), 16)
    batch, failures = web.evaluator(points)
    assert failures == [None] * len(points)
    fresh = make()[0]
    for p, column in zip(points, batch.data.T):
        assert np.array_equal(fresh.jet(p, JET_ORDER, check_regularity=False).data, column)


def test_batch_failures_equal_one_point_failures():
    # ln(x1 - 1) fails first; ln(x2 - 1) then fails on some of the points left
    expr = parse("ln(x1 - 1) + ln(x2 - 1) + x2*x3 + x4", 4)
    points = Box(((0.5, 2.5),) * 2 + ((0.5, 1.5),) * 2).sample(np.random.default_rng(0), 16)
    batch, failures = WebFunction.from_expr(expr).evaluator(points)
    web = WebFunction.from_expr(expr)
    failed_at = set()
    for p, column, failure in zip(points, batch.data.T, failures):
        try:
            want = web.jet(p, JET_ORDER, check_regularity=False).data
        except JetDomainError as err:
            assert type(failure) is JetDomainError and str(failure) == str(err)
            assert np.isnan(column).all()
            failed_at.add("x1" if p[0] < 1.0 else "x2")
        else:
            assert failure is None and np.array_equal(column, want)
    assert failed_at == {"x1", "x2"}


@pytest.mark.parametrize("text, error, message", [
    ("ln(x1 - 1) + x2*x3 + x4", JetDomainError, "ln of non-positive jet value -0.5"),
    ("exp(2000*x1) + x2*x3 + x4", OverflowError, "exp of jet value 1000.0 overflows"),
], ids=["ln", "exp"])
def test_one_point_error_prints_a_plain_float(text, error, message):
    # the value is a float, not np.float64(-0.5), and exp names its argument
    web = WebFunction.from_expr(parse(text, 4))
    with pytest.raises(error) as exc, np.errstate(all="ignore"):
        web.jet([0.5, 1, 1, 1], 3)
    assert str(exc.value) == message
