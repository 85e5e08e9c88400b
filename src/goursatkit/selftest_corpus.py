"""Bundled corpus of pinned example checks for the CLI selftest.

Each check is a zero-argument callable returning (passed, detail).  Expected
numbers are frozen from hand derivations or offline symbolic differentiation;
see the matching pytest modules for the full derivations.
"""

from __future__ import annotations

import math

import numpy as np

from . import catalog
from . import exterior as E
from . import families as F
from . import identities as I
from . import jets as J
from . import web as W
from .classify import (classify as classify_web, first_kind_pde_residual,
                       first_kind_residual, sample_bundle, second_kind_residuals,
                       torsion_minors)
from .expr import ExprSyntaxError, evaluate, parse


def _close(got, want, tol=1e-10):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want)))
    return err <= tol, f"max |got - want| = {err:.3e}"


def check_parse_product():
    e = parse("x1*x3 + x2*x4", 4)
    return _close(evaluate(e, {"x1": 2, "x2": 0, "x3": 5, "x4": 0}), 10.0)


def check_parse_error_offset():
    try:
        parse("x1 +", 4)
    except ExprSyntaxError as err:
        return err.offset == 4, f"offset {err.offset}"
    return False, "no syntax error raised"


def check_parse_parameter():
    e = parse("a*(x1+x2) + a^2/2", 2, ["a"])
    return _close(evaluate(e, {"x1": 1, "x2": 2, "a": 4}), 20.0)


def check_roundtrip():
    texts = ["x1*x3 + x2*x4", "a*(x1+x2) + a^2/2", "exp(x1) - ln(x2)/3",
             "-x1^2 + sqrt(x2)*cos(x1)"]
    for t in texts:
        e = parse(t, 4, ["a"])
        again = parse(str(e), 4, ["a"])
        if again.root != e.root:
            return False, f"round-trip changed {t!r} -> {e}"
    return True, f"{len(texts)} expressions round-trip"


def check_jet_square():
    jet = J.seed(1, 3.0, 1, 2)
    sq = jet * jet
    return _close([sq.value, sq.deriv((1,)), sq.deriv((1, 1))], [9, 6, 2])


def check_jet_reciprocal():
    r = 1.0 / J.seed(1, 2.0, 1, 3)
    return _close([r.value, r.deriv((1,)), r.deriv((1, 1)), r.deriv((1, 1, 1))],
                  [0.5, -0.25, 0.25, -0.375])


def check_jet_exp_ln():
    e = J.apply_unary("exp", J.seed(1, 0.0, 1, 3))
    l = J.apply_unary("ln", J.seed(1, 1.0, 1, 2))
    ok1, d1 = _close([e.value, e.deriv((1,)), e.deriv((1, 1)), e.deriv((1, 1, 1))],
                     [1, 1, 1, 1])
    ok2, d2 = _close([l.value, l.deriv((1,)), l.deriv((1, 1))], [0, 1, -1])
    return ok1 and ok2, f"exp {d1}; ln {d2}"


def check_jet_bilinear():
    jet = J.eval_jet(parse("(x1+x2)*(x3+x4)", 4),
                     {"x1": 1, "x2": 2, "x3": 3, "x4": 4}, ["x1", "x3"], 2)
    return _close([jet.value, jet.deriv((1, 2))], [21, 1])


def check_jet_mixed_exp():
    jet = J.eval_jet(parse("exp(x1*x2)", 2), {"x1": 1, "x2": 1}, ["x1", "x2"], 2)
    return _close(jet.deriv((1, 2)), 2 * math.e)


def check_coframe_product():
    web = catalog.product_web(4)
    frame = W.coframe(web, [1, 1, 1, 1])
    return _close(np.diag(frame), [2, 2, 2, 2])


def check_torsion_product():
    t = W.torsion(catalog.product_web(4), [1, 1, 1, 1])
    vals = [t.entry(1, 3), t.entry(1, 4), t.entry(2, 3), t.entry(2, 4),
            t.entry(1, 2), t.entry(3, 4)]
    return _close(vals, [0.25, 0.25, 0.25, 0.25, 0, 0])


def check_torsion_cross():
    t = W.torsion(catalog.cross_web(4), [1, 1, 1, 1])
    return _close([t.entry(1, 3), t.entry(2, 4), t.entry(1, 4), t.entry(2, 3)],
                  [0.5, 0.5, 0.25, 0.0])


def check_pfaffian_values():
    web = catalog.product_web(4)
    p = [1, 1, 1, 1]
    d0 = W.pfaffian_derivs(web, p)
    d1 = W.pfaffian_derivs(web, p, W.Gauge.of([1, 0, 0, 0]))
    return _close([d0.entry(1, 3, 1), d1.entry(1, 3, 1)], [-0.125, -0.375])


def check_constraint_roots():
    spec = catalog.first_kind_demo_spec()
    p = [1.0] * 4
    g4 = F.constraint(spec, p, 4.0)
    g0 = F.constraint(spec, p, 0.0)
    root = F.solve_parameter(spec, p)
    return _close([g4, g0, root], [0, 4, 4])


def check_second_kind_root():
    spec = catalog.second_kind_demo_spec()
    root = F.solve_parameter(spec, [1.0] * 5)
    return _close(root, -5.0)


def check_singular_envelope():
    try:
        F.solve_parameter(catalog.degenerate_spec(), [1.0] * 4)
    except F.SingularEnvelope:
        return True, "raised as documented"
    return False, "no SingularEnvelope raised"


def check_first_family_closed_form():
    web = F.family_web(catalog.first_kind_demo_spec())
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(0.5, 1.5, 4)
        s = x.sum()
        jet = web.jet(x, 2)
        worst = max(worst, abs(jet.value - s * s / 2),
                    float(np.abs(jet.gradient() - s).max()),
                    float(np.abs(jet.hessian() - 1.0).max()))
    return worst < 1e-10, f"max deviation {worst:.3e}"


def check_second_family_closed_form():
    web = F.family_web(catalog.second_kind_demo_spec())
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(0.7, 1.3, 5)
        u, v = x[0] + x[1], x[2] + x[3] + x[4]
        jet = web.jet(x, 2)
        expected_grad = np.array([-u - v, -u - v, -u, -u, -u])
        hess = np.full((5, 5), -1.0)
        hess[2:, 2:] = 0.0
        worst = max(worst, abs(jet.value - (-u * u / 2 - u * v)),
                    float(np.abs(jet.gradient() - expected_grad).max()),
                    float(np.abs(jet.hessian() - hess).max()))
    return worst < 1e-10, f"max deviation {worst:.3e}"


def check_envelope_property():
    spec = catalog.second_kind_demo_spec()
    web = F.family_web(spec)
    p = np.array([1.1, 0.9, 1.0, 1.2, 0.8])
    a = F.solve_parameter(spec, p)
    jet = web.jet(p, 1)
    env = {f"x{i+1}": p[i] for i in range(5)}
    env["a"] = a
    psi_val = evaluate(spec.psi, env)
    env["s"] = psi_val
    frozen = []
    for i in range(1, 6):
        pj = J.eval_jet(spec.psi, env, [f"x{i}"], 1).deriv((1,))
        bindings = dict(env)
        bindings[f"x{i}"] = J.seed(1, env[f"x{i}"], 2, 1)
        bindings["s"] = J.seed(2, psi_val, 2, 1)
        phij = J.eval_with_bindings(spec.phi, bindings)
        frozen.append(phij.deriv((1,)) + phij.deriv((2,)) * pj)
    return _close(jet.gradient(), frozen)


def check_first_kind_residuals():
    t_prod = W.torsion(catalog.product_web(4), [1, 1, 1, 1])
    t_cross = W.torsion(catalog.cross_web(4), [1, 1, 1, 1])
    r_prod, _ = first_kind_residual(t_prod)
    r_cross, _ = first_kind_residual(t_cross)
    pde_cross, _ = first_kind_pde_residual(catalog.cross_web(4), [1, 1, 1, 1])
    return _close([r_prod, r_cross, pde_cross], [0, 0.25, 1.0])


def check_second_kind_relations():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        t = W.TorsionTensor.from_matrix(rng.uniform(-2, 2, (5, 5)))
        res = second_kind_residuals(t)
        worst = max(worst, abs(res.sum25 - res.det24) / res.scale,
                    abs(res.expr26 - 2 * res.det24) / res.scale,
                    abs(res.cross27 - res.det24) / res.scale)
    return worst < 1e-13, f"max relative disagreement {worst:.3e}"


def check_family_verdicts():
    rng = np.random.default_rng(13)
    spec1, web1, box1 = catalog.random_family_web(rng, "first", 4)
    rep1 = classify_web(web1, box1, count=8, seed=1)
    spec2, web2, box2 = catalog.random_family_web(rng, "second", 5)
    rep2 = classify_web(web2, box2, count=8, seed=1)
    repc = classify_web(catalog.cross_web(4), catalog.control_box(4), count=8, seed=1)
    ok = rep1.first_kind and rep2.second_kind and not repc.first_kind
    return ok, (f"first={rep1.first_kind} second={rep2.second_kind} "
                f"control_first={repc.first_kind}")


def check_theta_rho_coordinates():
    system = E.make_system(catalog.product_web(4), "THETA_RHO")
    p = [1, 1, 1, 1]
    got = E._generators(system, [p])[1][0]
    return _close(got, [[0, 0, 1, 1], [1, 1, 0, 0]])


def check_frobenius_foliation():
    rep = E.frobenius_residual(E.PfaffianSystem("COORDS", 4, (), (3, 4)), [1, 1, 1, 1])
    return rep.verdict == "integrable" and rep.max_residual == 0.0, rep.verdict


def check_frobenius_contact():
    # dx1 + x2 dx3 as the row F1 dx1 + F3 dx3, with F1 = 1, F3 = x2, F32 = 1
    web = W.WebFunction.from_expr(parse("x1 + x2*x3 + x4", 4))
    contact = E.CoFormField([(1, [(+1, (1,))]), (3, [(+1, (3,))])])
    rep = E.frobenius_residual(E.PfaffianSystem("CONTACT", 4, (contact,), (), web=web),
                               [0.5, 0.7, 0.2, 1.0])
    return rep.verdict == "non_integrable", f"residual {rep.max_residual:.3f}"


def check_frobenius_family():
    rng = np.random.default_rng(14)
    spec, web, box = catalog.random_family_web(rng, "first", 5)
    b = sample_bundle(web, box, 4, seed=2)
    system = E.make_system(web, "THETA_RHO")
    worst = max(r.max_residual for r in E.frobenius_reports(system, b))
    return worst <= 1e-7, f"max residual {worst:.3e}"


def check_rank_claims():
    rng = np.random.default_rng(15)
    _, web1, box1 = catalog.random_family_web(rng, "first", 5)
    b1 = sample_bundle(web1, box1, 1, seed=3)
    _, web2, box2 = catalog.random_family_web(rng, "second", 5)
    b2 = sample_bundle(web2, box2, 1, seed=3)
    ctrl = catalog.control_web(5)
    bc = sample_bundle(ctrl, catalog.control_box(5), 1, seed=3)

    def kernel_dim(web, name, b):
        report, = E.frobenius_reports(E.make_system(web, name), b)
        return report.kernel_dim

    dims = (
        kernel_dim(web1, "S10_11", b1),
        kernel_dim(ctrl, "S10_11", bc),
        kernel_dim(web2, "DELTA2", b2),
        kernel_dim(ctrl, "DELTA2", bc),
        kernel_dim(web2, "DELTA3", b2),
        kernel_dim(ctrl, "DELTA3", bc),
    )
    return dims == (3, 2, 2, 1, 3, 2), f"kernel dims {dims}"


def check_minors():
    rng = np.random.default_rng(16)
    vals = rng.uniform(-2, 2, (5, 5))
    vals[1, 2:5] = 2.0 * vals[0, 2:5]  # proportional rows
    vals = (vals + vals.T) / 2
    vals[1, 2:5] = 2.0 * vals[0, 2:5]
    vals[2:5, 1] = vals[1, 2:5]
    t = W.TorsionTensor.from_matrix(vals)
    A, B, C = torsion_minors(t)
    ok1, d1 = _close([A, B, C], [0, 0, 0], tol=1e-12)
    t2 = W.torsion(catalog.cross_web(5), [1, 1, 1, 1, 1])
    A2, _, _ = torsion_minors(t2)
    ok2, d2 = _close(A2, 0.25)
    return ok1 and ok2, f"proportional {d1}; cross A {d2}"


def check_eq15_family():
    web = F.family_web(catalog.first_kind_demo_spec())
    rng = np.random.default_rng(17)
    # drawn in turn: a point, then its gauge
    draws = [(rng.uniform(0.8, 1.2, 4), rng.uniform(-1, 1, 4)) for _ in range(3)]
    b = W.derivative_bundle(web, [p for p, _ in draws])
    t = W.TorsionTensor(4, b.torsion_values())
    rs = I.first_kind_derivative_residuals(t, W.PfaffianDerivs(4, b.pfaffian_values(np.zeros(4))))
    rs_g = I.first_kind_derivative_residuals(
        t, W.PfaffianDerivs(4, b.pfaffian_values([g for _, g in draws])))
    worst = rs.max_relative
    gworst = float(np.abs(rs_g.values - rs.values).max())
    return worst < 1e-7 and gworst < 1e-9, f"max rel {worst:.2e}, gauge diff {gworst:.2e}"


def check_polynomial_identities():
    rng = np.random.default_rng(18)
    worst = 0.0
    for _ in range(100):
        t = I.sample_second_kind_torsion(rng)
        for rs in I.second_kind_polynomial_residuals(t).values():
            worst = max(worst, rs.max_relative)
    free = W.TorsionTensor.from_matrix(rng.uniform(-2, 2, (5, 5)))
    violated = max(rs.max_relative
                   for rs in I.second_kind_polynomial_residuals(free).values())
    return worst < 1e-10 and violated > 1e-3, \
        f"constrained {worst:.2e}, unconstrained witness {violated:.2e}"


def check_residual40():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(200):
        t = W.TorsionTensor.from_matrix(rng.uniform(-2, 2, (5, 5)))
        d = I.sample_derivs(rng)
        cv = I.condition_values(t, d)
        worst = max(worst, abs(cv.residual40
                               - (cv.n_row1.values[0] - cv.n_row1.values[1])))
    return worst < 1e-13, f"max |residual40 - (n_1 - n_2)| = {worst:.3e}"


def check_implications():
    worst = 0.0
    for res in I.implication_tests(150, 20):
        worst = max(worst, res.max_relative)
    return worst < 1e-8, f"max third-system rel residual {worst:.3e}"


def check_witness():
    wr = I.witness_search(1000, 21)
    return wr.found and wr.uv_max_relative > 1e-2, \
        f"found={wr.found} after {wr.trials_used} trials, violation {wr.uv_max_relative:.3f}"


CHECKS = [
    ("expr.parse.product", check_parse_product),
    ("expr.parse.error-offset", check_parse_error_offset),
    ("expr.parse.parameter", check_parse_parameter),
    ("expr.print.roundtrip", check_roundtrip),
    ("jets.mul.square", check_jet_square),
    ("jets.div.reciprocal", check_jet_reciprocal),
    ("jets.unary.exp-ln", check_jet_exp_ln),
    ("jets.eval.bilinear", check_jet_bilinear),
    ("jets.eval.mixed-exponential", check_jet_mixed_exp),
    ("web.coframe.product", check_coframe_product),
    ("web.torsion.product", check_torsion_product),
    ("web.torsion.cross", check_torsion_cross),
    ("web.pfaffian.values-and-gauge", check_pfaffian_values),
    ("families.constraint.roots", check_constraint_roots),
    ("families.solve.second-kind", check_second_kind_root),
    ("families.solve.singular-envelope", check_singular_envelope),
    ("families.closed-form.first", check_first_family_closed_form),
    ("families.closed-form.second", check_second_family_closed_form),
    ("families.envelope-property", check_envelope_property),
    ("classify.first-kind.residuals", check_first_kind_residuals),
    ("classify.second-kind.relations", check_second_kind_relations),
    ("classify.family-verdicts", check_family_verdicts),
    ("exterior.theta-rho.coordinates", check_theta_rho_coordinates),
    ("exterior.frobenius.foliation", check_frobenius_foliation),
    ("exterior.frobenius.contact", check_frobenius_contact),
    ("exterior.frobenius.family", check_frobenius_family),
    ("exterior.rank.claims", check_rank_claims),
    ("identities.minors", check_minors),
    ("identities.first-kind-derivative", check_eq15_family),
    ("identities.polynomial-on-variety", check_polynomial_identities),
    ("identities.one-product-closure", check_residual40),
    ("identities.two-imply-third", check_implications),
    ("identities.witness-non-implication", check_witness),
]
