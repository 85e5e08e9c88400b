"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <id> PASS/FAIL`` line (run pytest with -s
to see them on success; they also appear in captured output on failure).
"""

import numpy as np
import pytest

from goursatkit import catalog
from goursatkit import jets as J
from goursatkit.classify import (first_kind_pde, first_kind_residual, running_max,
                                 sample_bundle, second_kind_pde, second_kind_residuals)
from goursatkit.exterior import frobenius_reports, make_system
from goursatkit.expr import evaluate, parse
from goursatkit.families import (SingularEnvelope, family_web, solve_parameter,
                                 solve_parameter_with_info)
from goursatkit.identities import (condition_values, first_kind_derivative_residuals,
                                   implication_test, sample_derivs,
                                   sample_second_kind_torsion,
                                   second_kind_polynomial_residuals, witness_search)
from goursatkit.web import PfaffianDerivs, TorsionTensor
from genexpr import random_smooth_expression


def _report(ident: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {ident} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {ident}: {detail}"


def test_01_determinant_form_equivalence():
    rng = np.random.default_rng(101)
    # the tensors are drawn one by one and evaluated in one stacked call
    t = TorsionTensor.from_matrix(np.array([rng.uniform(-2, 2, (5, 5)) for _ in range(10_000)]))
    res = second_kind_residuals(t)
    worst = float(max(np.max(abs(res.sum25 - res.det24) / res.scale),
                      np.max(abs(res.expr26 - 2.0 * res.det24) / res.scale)))
    _report("1", worst <= 1e-12,
            f"10^4 random tensors, max |form gap| = {worst:.3e} (tol 1e-12*scale)")


def test_02_first_kind_family_soundness():
    rng = np.random.default_rng(102)
    worst14 = worst_pde = 0.0
    for trial in range(25):
        n = 4 if trial % 2 == 0 else 5
        spec = catalog.random_first_kind_spec(rng, n, quadratic_tail=(trial % 5 == 0))
        b = sample_bundle(family_web(spec), catalog.family_box(n), 10, seed=trial)
        worst14 = running_max(worst14, first_kind_residual(TorsionTensor(n, b.torsion_values()))[1])
        worst_pde = running_max(worst_pde, first_kind_pde(b)[1])
    _report("2", worst14 <= 1e-8 and worst_pde <= 1e-8,
            f"25 specs x 10 points: max rel residuals torsion {worst14:.3e}, "
            f"pde {worst_pde:.3e} (tol 1e-8)")


def test_03_second_kind_family_soundness():
    rng = np.random.default_rng(103)
    worst24 = worst29 = 0.0
    for trial in range(25):
        n = 5 if trial % 2 == 0 else 6
        spec = catalog.random_second_kind_spec(rng, n)
        b = sample_bundle(family_web(spec), catalog.family_box(n), 10, seed=trial)
        worst24 = running_max(worst24,
                              second_kind_residuals(TorsionTensor(n, b.torsion_values())).det24_rel)
        worst29 = running_max(worst29, second_kind_pde(b)[1])
    _report("3", worst24 <= 1e-8 and worst29 <= 1e-8,
            f"25 specs x 10 points: max rel residuals det {worst24:.3e}, "
            f"pde {worst29:.3e} (tol 1e-8)")


def test_04_closed_form_cross_checks():
    rng = np.random.default_rng(104)
    worst = 0.0
    web1 = family_web(catalog.first_kind_demo_spec())
    for _ in range(10):
        x = rng.uniform(0.5, 1.5, 4)
        s = x.sum()
        jet = web1.jet(x, 2)
        worst = max(worst, abs(jet.value - s * s / 2),
                    float(np.abs(jet.gradient() - s).max()),
                    float(np.abs(jet.hessian() - 1.0).max()))
    web2 = family_web(catalog.second_kind_demo_spec())
    for _ in range(10):
        x = rng.uniform(0.7, 1.3, 5)
        u, v = x[0] + x[1], x[2] + x[3] + x[4]
        jet = web2.jet(x, 2)
        grad = np.array([-u - v, -u - v, -u, -u, -u])
        hess = np.full((5, 5), -1.0)
        hess[2:, 2:] = 0.0
        worst = max(worst, abs(jet.value - (-u * u / 2 - u * v)),
                    float(np.abs(jet.gradient() - grad).max()),
                    float(np.abs(jet.hessian() - hess).max()))
    _report("4", worst <= 1e-10,
            f"both eliminable families, 10 points each: max deviation {worst:.3e} "
            f"(tol 1e-10)")


def test_05_theta_rho_integrability_and_control():
    rng = np.random.default_rng(105)
    worst = 0.0
    for trial in range(6):
        n = 5 if trial % 2 == 0 else 6
        spec = catalog.random_first_kind_spec(rng, n)
        web = family_web(spec)
        b = sample_bundle(web, catalog.family_box(n), 5, seed=trial)
        for fr in frobenius_reports(make_system(web, "THETA_RHO"), b):
            worst = max(worst, fr.max_residual)
    ctrl = catalog.control_web(4)
    b = sample_bundle(ctrl, catalog.control_box(4), 40, seed=5)
    big = sum(fr.max_residual >= 1e-3 for fr in frobenius_reports(make_system(ctrl, "S10"), b))
    ok = worst <= 1e-7 and big >= 0.9 * len(b.points)
    _report("5", ok,
            f"family residual max {worst:.3e} (tol 1e-7); control >= 1e-3 at "
            f"{big}/{len(b.points)} points (need >= 90%)")


def _first_point(web, box, seed):
    """The first regular point of ``seed`` as a one-point bundle, and its
    first-kind torsion residual."""
    b = sample_bundle(web, box, 1, seed=seed)
    return b, first_kind_residual(TorsionTensor(b.n, b.torsion_values()))[1][0]


def _kernel_dim(web, name, b):
    report, = frobenius_reports(make_system(web, name), b)
    return report.kernel_dim


def test_06_dimension_claims():
    rng = np.random.default_rng(106)
    checks = []
    for n in (4, 5):
        spec = catalog.random_first_kind_spec(rng, n)
        web = family_web(spec)
        b, rel = _first_point(web, catalog.family_box(n), n)
        checks.append(rel < 1e-7 and _kernel_dim(web, "S10_11", b) == 3)
        ctrl = catalog.control_web(n)
        cb, crel = _first_point(ctrl, catalog.control_box(n), n)
        checks.append(crel >= 1e-7 and _kernel_dim(ctrl, "S10_11", cb) == 2)
    for n in (5, 6):
        spec = catalog.random_second_kind_spec(rng, n)
        web = family_web(spec)
        b = sample_bundle(web, catalog.family_box(n), 1, seed=n)
        checks.append(_kernel_dim(web, "DELTA2", b) == 2)
        checks.append(_kernel_dim(web, "DELTA3", b) == 3)
        ctrl = catalog.control_web(n)
        cb = sample_bundle(ctrl, catalog.control_box(n), 1, seed=n)
        checks.append(_kernel_dim(ctrl, "DELTA2", cb) == 1)
        checks.append(_kernel_dim(ctrl, "DELTA3", cb) == 2)
    _report("6", all(checks),
            f"{sum(checks)}/{len(checks)} kernel-dimension branch checks hold")


def test_07_first_kind_derivative_identity():
    rng = np.random.default_rng(107)
    worst = gauge_worst = 0.0
    for trial in range(4):
        n = 4 if trial % 2 == 0 else 5
        spec = catalog.random_first_kind_spec(rng, n)
        web = family_web(spec)
        b = sample_bundle(web, catalog.family_box(n), 4, seed=trial)
        t = TorsionTensor(n, b.torsion_values())
        base = first_kind_derivative_residuals(t, PfaffianDerivs(n, b.pfaffian_values(np.zeros(n))))
        worst = max(worst, base.max_relative)
        # five gauges per point, drawn point by point; each g holds one gauge per point
        gauges = np.array([[rng.uniform(-1, 1, n) for _ in range(5)] for _ in b.points])
        for g in gauges.swapaxes(0, 1):
            alt = first_kind_derivative_residuals(t, PfaffianDerivs(n, b.pfaffian_values(g)))
            gauge_worst = max(gauge_worst, float(np.abs(alt.values - base.values).max()))
    _report("7", worst <= 1e-7 and gauge_worst <= 1e-9,
            f"gauge-0 max rel {worst:.3e} (tol 1e-7); gauge spread {gauge_worst:.3e} "
            f"(tol 1e-9)")


def test_08_polynomial_identities_on_variety():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(1000):
        t = sample_second_kind_torsion(rng)
        for rs in second_kind_polynomial_residuals(t).values():
            worst = max(worst, rs.max_relative)
    t_free = TorsionTensor.from_matrix(rng.uniform(-2, 2, (5, 5)))
    violation = max(rs.max_relative
                    for rs in second_kind_polynomial_residuals(t_free).values())
    _report("8", worst <= 1e-10 and violation > 1e-3,
            f"10^3 constrained samples max rel {worst:.3e} (tol 1e-10); "
            f"unconstrained witness {violation:.3e} (> 1e-3)")


def test_09_two_condition_systems_imply_third():
    worst = 0.0
    details = []
    for imposed, checked in ((("m", "n"), "r"), (("n", "r"), "m"), (("m", "r"), "n")):
        res = implication_test(1000, 109, imposed, checked)
        worst = max(worst, res.max_relative)
        details.append(f"{'+'.join(imposed)}->{checked}: {res.max_relative:.2e}")
    _report("9", worst <= 1e-8, "; ".join(details) + " (tol 1e-8)")


def test_10_one_product_closure_algebra():
    rng = np.random.default_rng(110)
    # per pair, the draws of TorsionTensor.from_matrix and sample_derivs, in
    # that order; the pairs are stacked and evaluated in one call
    pairs = [(rng.uniform(-2, 2, (5, 5)), sample_derivs(rng).values) for _ in range(10_000)]
    cv = condition_values(TorsionTensor.from_matrix(np.array([t for t, _ in pairs])),
                          PfaffianDerivs.from_array(np.array([d for _, d in pairs])))
    gap = abs(cv.residual40 - (cv.n_row1.values[:, 0] - cv.n_row1.values[:, 1]))
    worst = float(np.max(gap / np.maximum(cv.residual40_scale, 1.0)))
    # imposing the first two row-1 conditions forces the closure to vanish
    forced = []
    for _ in range(100):
        t = sample_second_kind_torsion(rng)
        arr = sample_derivs(rng).values.copy()
        a13, a14, a15 = (t.entry(1, q) for q in (3, 4, 5))
        for h in (1, 2):
            val = ((a15 - a14) * arr[0, 2, h - 1] + (a13 - a15) * arr[0, 3, h - 1]
                   + (a14 - a13) * arr[0, 4, h - 1])
            arr[0, 2, h - 1] -= val / (a15 - a14)
            arr[2, 0, h - 1] = arr[0, 2, h - 1]
        forced.append((t.values, arr))
    cv = condition_values(TorsionTensor(5, np.array([t for t, _ in forced])),
                          PfaffianDerivs.from_array(np.array([d for _, d in forced])))
    forced_worst = float(np.max(abs(cv.residual40) / np.maximum(cv.residual40_scale, 1.0)))
    ok = worst <= 1e-13 and forced_worst <= 1e-12
    _report("10", ok,
            f"10^4 arrays: closure == n_1 - n_2 to {worst:.3e} (tol 1e-13); "
            f"n_1 = n_2 = 0 forces closure to {forced_worst:.3e}")


def test_11_witness_42_without_44():
    wr = witness_search(1000, 111)
    ok = wr.found and wr.s_max_relative <= 1e-10 and wr.uv_max_relative > 1e-2
    _report("11", ok,
            f"witness after {wr.trials_used} trials: imposed rel {wr.s_max_relative:.2e}"
            f" (<= 1e-10), violated rel {wr.uv_max_relative:.2e} (> 1e-2)")


def test_12_numerics_hygiene():
    # finite differences on a thousand random smooth expressions
    rng = np.random.default_rng(112)
    worst_fd = 0.0
    for _ in range(1000):
        e, point = random_smooth_expression(rng)
        names = [f"x{i}" for i in range(1, e.arity + 1)]
        jet = J.eval_jet(e, point, names, 1)
        fscale = max(1.0, abs(jet.value))
        h = 1e-5
        for i in range(1, e.arity + 1):
            hi = dict(point); hi[f"x{i}"] += h
            lo = dict(point); lo[f"x{i}"] -= h
            try:
                fd = (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)
            except ArithmeticError:
                continue
            an = jet.deriv((i,))
            worst_fd = max(worst_fd,
                           abs(fd - an) / max(abs(an), abs(fd), 1e-3 * fscale))
    # polynomial jets exact
    worst_poly = 0.0
    for _ in range(50):
        c = [float(v) for v in rng.uniform(-2, 2, 4)]
        e = parse(f"({c[0]!r}) + ({c[1]!r})*x1 + ({c[2]!r})*x1^2*x2 + ({c[3]!r})*x2^3", 2)
        x, y = rng.uniform(-1.5, 1.5, 2)
        jet = J.eval_jet(e, {"x1": x, "x2": y}, ["x1", "x2"], 3)
        expect = {
            (): c[0] + c[1] * x + c[2] * x * x * y + c[3] * y ** 3,
            (1,): c[1] + 2 * c[2] * x * y,
            (2,): c[2] * x * x + 3 * c[3] * y * y,
            (1, 1): 2 * c[2] * y,
            (1, 2): 2 * c[2] * x,
            (2, 2): 6 * c[3] * y,
            (1, 1, 2): 2 * c[2],
            (2, 2, 2): 6 * c[3],
            (1, 1, 1): 0.0,
        }
        for idx, want in expect.items():
            got = jet.value if idx == () else jet.deriv(idx)
            scale = max(abs(want), 1.0)
            worst_poly = max(worst_poly, abs(got - want) / scale)
    # Newton behavior on the bundled specs
    iters = []
    for spec, point in ((catalog.first_kind_demo_spec(), [1.0] * 4),
                        (catalog.second_kind_demo_spec(), [1.0] * 5)):
        root = solve_parameter(spec, point)
        _, its = solve_parameter_with_info(spec, point, a0=root * 1.1)
        iters.append(its)
    try:
        solve_parameter(catalog.degenerate_spec(), [1.0] * 4)
        singular_ok = False
    except SingularEnvelope:
        singular_ok = True
    ok = worst_fd <= 1e-6 and worst_poly <= 1e-12 and max(iters) <= 8 and singular_ok
    _report("12", ok,
            f"FD max rel {worst_fd:.3e} (tol 1e-6); poly jets {worst_poly:.3e} "
            f"(tol 1e-12); newton iters {iters} (<= 8); singular raise {singular_ok}")
