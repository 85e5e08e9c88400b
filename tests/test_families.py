import numpy as np
import pytest

from goursatkit import catalog
from goursatkit.classify import (first_kind_residual, sample_regular_points, second_kind_pde,
                                 second_kind_residuals)
from goursatkit.exterior import coefficient_matrix, frobenius_residual, make_system, rank_at
from goursatkit.expr import evaluate, parse
from goursatkit import jets as J
from goursatkit.families import (NEWTON_MAX_ITER, PARAM, FamilySpec, FamilySpecError,
                                 NoConvergence, SingularEnvelope, _compose, _joint_jets,
                                 constraint, family_web, parameter_jet, solve_parameter,
                                 solve_parameter_with_info)
from goursatkit.jets import JetDomainError
from goursatkit.web import JET_ORDER, derivative_bundle, pfaffian_derivs, torsion

ONES4 = [1.0] * 4
ONES5 = [1.0] * 5


class TestSpecValidation:
    def test_first_kind_rejects_phi_with_x3(self):
        with pytest.raises(FamilySpecError):
            FamilySpec("first", parse("a*x3", 4, ["a"]), parse("a*x4", 4, ["a"]), 4, 0.0)

    def test_first_kind_rejects_psi_with_x1(self):
        with pytest.raises(FamilySpecError):
            FamilySpec("first", parse("a*x1", 4, ["a"]), parse("a*x1", 4, ["a"]), 4, 0.0)

    def test_second_kind_rejects_phi_with_x5(self):
        with pytest.raises(FamilySpecError):
            FamilySpec("second", parse("a*x5 + s", 5, ["a", "s"]),
                       parse("a + x3", 5, ["a"]), 5, 0.0)

    def test_second_kind_arity_floor(self):
        with pytest.raises(FamilySpecError):
            FamilySpec("second", parse("a*x1 + s", 4, ["a", "s"]),
                       parse("a + x3", 4, ["a"]), 4, 0.0)

    def test_second_kind_rejects_parameter_as_slot(self):
        # _compose would bind psi's value over the parameter's seed
        with pytest.raises(FamilySpecError, match="slot"):
            FamilySpec("second", parse("a*x1 + a^2", 5, ["a"]),
                       parse("a + x3", 5, ["a"]), 5, 0.0, slot="a")

    @pytest.mark.parametrize("a0", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_start(self, a0):
        with pytest.raises(FamilySpecError, match="a0"):
            FamilySpec("first", parse("a*x1", 4, ["a"]), parse("a*x3", 4, ["a"]), 4, a0)

    def test_shared_tail_variables_allowed(self):
        FamilySpec("first", parse("a*(x1 + x5)", 5, ["a"]),
                   parse("a*(x3 + x5) + a^2", 5, ["a"]), 5, 0.0)


class TestConstraint:
    def test_first_kind_root_and_offset(self):
        spec = catalog.first_kind_demo_spec()
        assert constraint(spec, ONES4, 4.0) == 0.0
        assert constraint(spec, ONES4, 0.0) == 4.0

    def test_domain_error_raises(self):
        spec = FamilySpec("first", parse("ln(a) + x1*x2", 4, ["a"]),
                          parse("a*(x3 + x4)", 4, ["a"]), 4, 1.0)
        with pytest.raises(JetDomainError):
            constraint(spec, ONES4, -1.0)

    def test_second_kind_form(self):
        # G = (x1 + x2) + psi for the demo family
        spec = catalog.second_kind_demo_spec()
        for a in (-5.0, -2.0, 1.0):
            env = {f"x{i}": 1.0 for i in range(1, 6)}
            env["a"] = a
            psi_val = evaluate(spec.psi, env)
            assert constraint(spec, ONES5, a) == pytest.approx(2.0 + psi_val, abs=1e-14)


class TestSolve:
    def test_first_kind_demo(self):
        a, iters = solve_parameter_with_info(catalog.first_kind_demo_spec(), ONES4)
        assert a == pytest.approx(4.0, abs=1e-12)
        assert iters <= 8

    def test_second_kind_demo(self):
        assert solve_parameter(catalog.second_kind_demo_spec(), ONES5) == \
            pytest.approx(-5.0, abs=1e-12)

    def test_singular_envelope(self):
        with pytest.raises(SingularEnvelope):
            solve_parameter(catalog.degenerate_spec(), ONES4)

    def test_singular_parameter_jet(self):
        with pytest.raises(SingularEnvelope):
            parameter_jet(catalog.degenerate_spec(), ONES4, 2, a=0.0)

    def test_no_root_exhausts_iterations(self):
        # G = sin(a) + 2 >= 1 has no root: every Newton step lowers |G|, so
        # the solve runs out of iterations rather than of finite steps
        spec = FamilySpec("first", parse("-cos(a) + 2*a + x1*x2", 4, ["a"]),
                          parse("x3*x4", 4, ["a"]), 4, 0.0)
        with pytest.raises(NoConvergence, match=f"after {NEWTON_MAX_ITER} iterations"):
            solve_parameter(spec, ONES4)

    def test_no_finite_step(self):
        # G = sqrt(a) + (x1 + x2 + x3 + x4) has no root, and from a0 = 1e-12
        # every halving of the first Newton step leaves the domain of a^1.5
        spec = FamilySpec("first", parse("2/3*a^1.5 + a*(x1 + x2)", 4, ["a"]),
                          parse("a*(x3 + x4)", 4, ["a"]), 4, 1e-12)
        with pytest.raises(NoConvergence, match="after 1 iterations"):
            solve_parameter(spec, ONES4)

    def test_quadratic_convergence_from_nearby_start(self):
        rng = np.random.default_rng(0)
        for n in (4, 5):
            spec = catalog.random_first_kind_spec(rng, n)
            p = rng.uniform(0.8, 1.2, n)
            root = solve_parameter(spec, p)
            start = root * 1.1 if root != 0 else 0.1
            _, iters = solve_parameter_with_info(spec, p, a0=start)
            assert iters <= 8

    def test_warm_start_tracking(self):
        spec = catalog.random_first_kind_spec(np.random.default_rng(1), 4,
                                              quadratic_tail=True)
        web = family_web(spec)
        pts = sample_regular_points(web, catalog.family_box(4), 10, seed=2)
        for p in pts:  # smooth branch: all solves succeed along the sweep
            web.jet(p, 2)


class TestFamilyWeb:
    def test_first_kind_closed_form(self):
        web = family_web(catalog.first_kind_demo_spec())
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(0.5, 1.5, 4)
            s = x.sum()
            jet = web.jet(x, 3)
            assert jet.value == pytest.approx(s * s / 2, abs=1e-10)
            assert np.allclose(jet.gradient(), s, atol=1e-10)
            assert np.allclose(jet.hessian(), 1.0, atol=1e-10)

    def test_second_kind_closed_form(self):
        web = family_web(catalog.second_kind_demo_spec())
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(0.7, 1.3, 5)
            u, v = x[0] + x[1], x[2] + x[3] + x[4]
            jet = web.jet(x, 3)
            assert jet.value == pytest.approx(-u * u / 2 - u * v, abs=1e-10)
            expected = np.array([-u - v, -u - v, -u, -u, -u])
            assert np.allclose(jet.gradient(), expected, atol=1e-10)
            hess = np.full((5, 5), -1.0)
            hess[2:, 2:] = 0.0
            assert np.allclose(jet.hessian(), hess, atol=1e-10)

    def test_envelope_property(self):
        # dF/dx_k equals the explicit partial at frozen parameter
        rng = np.random.default_rng(5)
        spec = catalog.random_first_kind_spec(rng, 5)
        web = family_web(spec)
        p = rng.uniform(0.85, 1.15, 5)
        a = solve_parameter(spec, p)
        jet = web.jet(p, 1)
        env = {f"x{i + 1}": p[i] for i in range(5)}
        env["a"] = a
        h = 1e-6
        for i in range(1, 6):
            hi = dict(env); hi[f"x{i}"] += h
            lo = dict(env); lo[f"x{i}"] -= h
            frozen = (evaluate(spec.phi, hi) + evaluate(spec.psi, hi)
                      - evaluate(spec.phi, lo) - evaluate(spec.psi, lo)) / (2 * h)
            assert jet.deriv((i,)) == pytest.approx(frozen, rel=1e-7, abs=1e-8)

    def test_parameter_jet_vs_finite_differences(self):
        for kind, n in (("first", 4), ("second", 5)):
            rng = np.random.default_rng(10 + n)
            spec = (catalog.random_first_kind_spec(rng, n) if kind == "first"
                    else catalog.random_second_kind_spec(rng, n))
            p = rng.uniform(0.9, 1.1, n)
            pj = parameter_jet(spec, p, 2)
            h = 1e-5
            for i in range(n):
                hi = p.copy(); hi[i] += h
                lo = p.copy(); lo[i] -= h
                fd = (solve_parameter(spec, hi, pj.value)
                      - solve_parameter(spec, lo, pj.value)) / (2 * h)
                an = pj.deriv((i + 1,))
                assert abs(fd - an) <= 1e-5 * max(abs(an), abs(fd), 1e-3)

    def test_first_kind_family_satisfies_condition(self):
        rng = np.random.default_rng(6)
        for n in (4, 5):
            spec, web, box = catalog.random_family_web(rng, "first", n)
            for p in sample_regular_points(web, box, 5, seed=1):
                _, rel = first_kind_residual(torsion(web, p))
                assert rel <= 1e-8

    def test_second_kind_family_satisfies_conditions(self):
        rng = np.random.default_rng(7)
        for n in (5, 6):
            spec, web, box = catalog.random_family_web(rng, "second", n)
            for p in sample_regular_points(web, box, 5, seed=1):
                res = second_kind_residuals(torsion(web, p))
                assert res.det24_rel <= 1e-8
                _, rel29 = second_kind_pde(derivative_bundle(web, [p]))
                assert rel29[0] <= 1e-8

    def test_concurrent_evaluation_over_distinct_points(self):
        from concurrent.futures import ThreadPoolExecutor
        web = family_web(catalog.second_kind_demo_spec())
        pts = sample_regular_points(web, catalog.family_box(5), 16, seed=6)
        serial = [web.jet(p, 2).value for p in pts]
        web2 = family_web(catalog.second_kind_demo_spec())
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda p: web2.jet(p, 2).value, pts))
        assert serial == parallel

    def test_jet_order_consistency(self):
        # a direct order-2 evaluation solves that order alone; it must equal
        # the prefix of the order-3 jet bit for bit
        import goursatkit.families as F
        spec = catalog.random_second_kind_spec(np.random.default_rng(11), 5)
        web = family_web(spec)
        points = np.random.default_rng(12).uniform(0.8, 1.2, (4, 5))
        roots, _, failures = F._newton(spec, points, spec.a0)
        assert failures == [None] * 4
        j2 = F._family_jets(spec, np.ascontiguousarray(points.T), roots, 2)
        assert j2.order == 2
        for p, column in zip(points, j2.data.T):
            assert np.array_equal(web.jet(p, 3).data[: j2.space.size], column)
            assert np.array_equal(web.jet(p, 2).data, column)

    def test_roots_independent_of_evaluation_order(self):
        # with the cubic term these constraints have more than one root; the
        # root found at a point must not depend on the points before it
        rng = np.random.default_rng(21)
        pts = rng.uniform(0.0, 3.0, (12, 5))
        for _ in range(6):
            spec = catalog.random_first_kind_spec(rng, 5, quadratic_tail=True)
            forward, reverse = family_web(spec), family_web(spec)
            ahead = [forward.evaluator(p[None]) for p in pts]
            behind = [reverse.evaluator(p[None]) for p in pts[::-1]][::-1]
            for p, (j1, f1), (j2, f2) in zip(pts, ahead, behind):
                assert f1 == f2 == [None], (spec, p)
                assert np.allclose(j1.data, j2.data, rtol=1e-10, atol=1e-10), (spec, p)

    def test_batched_newton_roots_equal_one_point_roots(self, monkeypatch):
        import goursatkit.families as F
        # the cubic specs above, and G = a/sqrt(1 + a^2) - mean(x), whose full
        # Newton steps from a0 = 5 overshoot, so the solves halve them
        rng = np.random.default_rng(21)
        pts = rng.uniform(0.0, 3.0, (12, 5))
        cases = [(catalog.random_first_kind_spec(rng, 5, quadratic_tail=True), pts)
                 for _ in range(6)]
        cases.append((FamilySpec("first", parse("sqrt(1 + a^2) - a*(x1 + x2)/4", 4, ["a"]),
                                 parse("-a*(x3 + x4)/4", 4, ["a"]), 4, 5.0),
                      rng.uniform(0.5, 0.99, (8, 4))))
        calls = []
        inner = F._parameter_jets
        monkeypatch.setattr(F, "_parameter_jets", lambda *args: calls.append(1) or inner(*args))
        halved = 0
        for spec, pts in cases:
            roots, iterations, failures = F._newton(spec, pts, spec.a0)
            for p, root, its, failure in zip(pts, roots, iterations, failures):
                calls.clear()
                if failure is None:
                    assert solve_parameter_with_info(spec, p) == (root, its)
                    # one evaluation at a0 and one per step when no step is halved
                    halved += len(calls) > its + 1
                else:
                    with pytest.raises(type(failure)):
                        solve_parameter(spec, p)
        assert halved

    def test_second_kind_family_not_first_kind(self):
        # the randomized second-kind construction must not collapse into the
        # smaller first-kind class, or the dimension claims become vacuous
        rng = np.random.default_rng(8)
        spec, web, box = catalog.random_family_web(rng, "second", 5)
        p = sample_regular_points(web, box, 1, seed=2)[0]
        _, rel = first_kind_residual(torsion(web, p))
        assert rel > 1e-3


def _record_evaluations(web):
    """Record the points of every call to the web's evaluator, one list of
    point bytes per call."""
    calls = []
    inner = web.evaluator

    def evaluator(points):
        calls.append([p.tobytes() for p in points])
        return inner(points)

    web.evaluator = evaluator
    return calls


@pytest.mark.parametrize("make", [
    lambda: (catalog.control_web(5), catalog.control_box(5)),
    lambda: (family_web(catalog.second_kind_demo_spec()), catalog.family_box(5)),
], ids=["closed-form", "family"])
def test_one_evaluation_per_point(make):
    # each public one-point call evaluates its point in one evaluator call
    web, box = make()
    points = sample_regular_points(web, box, 3, seed=4)
    system = make_system(web, "THETA_RHO")
    calls = _record_evaluations(web)
    one_point_calls = [lambda p: torsion(web, p), lambda p: pfaffian_derivs(web, p),
                       lambda p: frobenius_residual(system, p),
                       lambda p: rank_at(system, p), lambda p: coefficient_matrix(system, p)]
    for p in points:
        for call in one_point_calls:
            calls.clear()
            call(p)
            assert calls == [[p.tobytes()]]


def _every_node_spec() -> FamilySpec:
    """A second-kind family whose Phi has jet quotients, non-integer and
    negative powers, and every unary function."""
    return FamilySpec(
        "second",
        parse("a*(x1 + x2) + s^2/2 + s*x1/(2 + a*x2) + sin(a*x1)/10 + cos(s)^-3/7", 5,
              ["a", "s"]),
        parse("a*(1 + x3/20) + x3 + x4 + ln(x5 + a^2)/5 + sqrt(1 + a*x4)^1.5/10"
              " - exp(a*x3)/(3 + a^2)", 5, ["a"]),
        5, 0.5)


@pytest.mark.parametrize("make", [
    lambda: catalog.random_second_kind_spec(np.random.default_rng(0), 5),
    lambda: catalog.random_second_kind_spec(np.random.default_rng(1), 6),
    lambda: catalog.random_first_kind_spec(np.random.default_rng(2), 5, quadratic_tail=True),
    _every_node_spec,
], ids=["second-n5", "second-n6", "first-n5", "every-node"])
def test_truncated_joint_jet_is_the_full_joint_jet(make):
    """The joint jet the family solve reads holds, bit for bit, the entries
    of the joint jet over the full space."""
    spec = make()
    n, order = spec.arity, JET_ORDER + 1
    rng = np.random.default_rng(n)
    coords = rng.uniform(0.8, 1.2, (n, 64))
    a = spec.a0 + rng.uniform(-0.1, 0.1, 64)
    bindings = {f"x{i + 1}": J.seed(i + 1, coords[i], n + 1, order) for i in range(n)}
    bindings[PARAM] = J.seed(n + 1, a, n + 1, order)
    full = _compose(spec, bindings)
    got = _joint_jets(spec, coords, a, order)
    assert got.space is J.space(n + 1, order, True)
    assert np.isfinite(got.data).all()
    assert np.array_equal(got.data, full.data[[full.space.pos[t] for t in got.space.tuples]])
