"""Goursat solution families: envelope elimination of the family parameter.

A first-kind family is

    F(x) = phi(x1, x2, x5.., a) + psi(x3, x4, x5.., a),
    dphi/da + dpsi/da = 0,

and a second-kind family is

    F(x) = phi(x1, x2, x6.., a, psi(x3, x4, x5, x6.., a)),
    dphi/da + dphi/dpsi * dpsi/da = 0,

with the second line defining a = a(x) implicitly.  Writing Phi(x, a) for
the composed right-hand side, the constraint is G(x, a) = dPhi/da = 0, so
F(x) = Phi(x, a(x)) with dF/dx_k = dPhi/dx_k at frozen a (the a-derivative
drops along the constraint).

Jets of F of order K are produced without symbolic elimination: the joint
jet of Phi over (x1..xn, a) is computed to order K+1, the constraint jet
G = dPhi/da is read off, the jet of a(x) is solved order by order from
G(x, a(x)) == 0 (each order is a division by dG/da), and Phi is re-expanded
along the solved increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import jets as J
from .expr import Expr
from .web import Point, WebFunction, as_point

PARAM = "a"  # the family parameter's symbol in phi and psi
# damped Newton solve for the parameter root
NEWTON_TOL = 1e-12  # |G| at or below this is a root
NEWTON_MAX_ITER = 50
MIN_SLOPE = 1e-10  # |dG/da| below this is a singular envelope
MAX_HALVINGS = 20  # step halvings per Newton step


class FamilySpecError(ValueError):
    """The (phi, psi) pair violates the family dependency pattern."""


class NoConvergence(ArithmeticError):
    def __init__(self, point, a_last: float, residual: float, iterations: int):
        super().__init__(
            f"parameter solve did not converge after {iterations} iterations "
            f"(last a={a_last!r}, |G|={residual:.3e}) at point {np.asarray(point)}"
        )
        self.a_last = a_last
        self.residual = residual


class SingularEnvelope(ArithmeticError):
    def __init__(self, point, a: float, slope: float):
        super().__init__(
            f"|dG/da| = {abs(slope):.3e} below the simple-root floor at "
            f"a={a!r}, point {np.asarray(point)}"
        )
        self.a = a
        self.slope = slope


@dataclass(frozen=True)
class FamilySpec:
    """Data (phi, psi, a0) defining a first- or second-kind family.

    The family parameter is the symbol ``a`` (``PARAM``); ``slot`` names the
    parameter symbol of ``phi`` that receives psi's value in second-kind
    families.
    """

    kind: str  # "first" | "second"
    phi: Expr
    psi: Expr
    arity: int
    a0: float
    slot: str = "s"

    def __post_init__(self):
        n = self.arity
        if self.kind not in ("first", "second"):
            raise FamilySpecError(f"kind must be 'first' or 'second', got {self.kind!r}")
        if self.kind == "first" and n < 4:
            raise FamilySpecError("first-kind families need arity n >= 4")
        if self.kind == "second" and n < 5:
            raise FamilySpecError("second-kind families need arity n >= 5")
        if self.phi.arity != n or self.psi.arity != n:
            raise FamilySpecError("phi and psi must be declared over the full arity")
        if self.kind == "first":
            banned_phi, banned_psi = {3, 4}, {1, 2}
            allowed_phi_params = {PARAM}
        else:
            banned_phi, banned_psi = {3, 4, 5}, {1, 2}
            allowed_phi_params = {PARAM, self.slot}
        bad = self.phi.variables_used & banned_phi
        if bad:
            raise FamilySpecError(f"phi must not depend on x{sorted(bad)} ({self.kind} kind)")
        bad = self.psi.variables_used & banned_psi
        if bad:
            raise FamilySpecError(f"psi must not depend on x{sorted(bad)} ({self.kind} kind)")
        if not self.phi.parameters_used <= allowed_phi_params:
            extra = self.phi.parameters_used - allowed_phi_params
            raise FamilySpecError(f"phi uses unexpected parameters {sorted(extra)}")
        if not self.psi.parameters_used <= {PARAM}:
            extra = self.psi.parameters_used - {PARAM}
            raise FamilySpecError(f"psi uses unexpected parameters {sorted(extra)}")


def _env(spec: FamilySpec, p: Point, a: float) -> dict:
    env = {f"x{i + 1}": float(p[i]) for i in range(spec.arity)}
    env[PARAM] = float(a)
    return env


def _composed_parameter_jet(spec: FamilySpec, p: Point, a: float, order: int) -> J.Jet:
    """Jet of Phi(x, .) in the parameter alone (x frozen at p)."""
    env = _env(spec, p, a)
    if spec.kind == "first":
        return (J.eval_jet(spec.phi, env, [PARAM], order)
                + J.eval_jet(spec.psi, env, [PARAM], order))
    psi = J.eval_jet(spec.psi, env, [PARAM], order)
    bindings: dict[str, J.Binding] = dict(env)
    bindings[PARAM] = J.seed(1, float(a), 1, order)
    bindings[spec.slot] = psi
    return J.eval_with_bindings(spec.phi, bindings, 1, order)


def constraint(spec: FamilySpec, p: Sequence[float], a: float) -> float:
    """The envelope constraint G(p, a) whose root defines the parameter."""
    point = as_point(p, spec.arity)
    return _composed_parameter_jet(spec, point, a, 1).deriv((1,))


def constraint_with_slope(spec: FamilySpec, p: Sequence[float], a: float) -> tuple[float, float]:
    point = as_point(p, spec.arity)
    jet = _composed_parameter_jet(spec, point, a, 2)
    return jet.deriv((1,)), jet.deriv((1, 1))


def solve_parameter(spec: FamilySpec, p: Sequence[float],
                    a0: float | None = None) -> float:
    a, _ = solve_parameter_with_info(spec, p, a0)
    return a


def solve_parameter_with_info(spec: FamilySpec, p: Sequence[float],
                              a0: float | None = None) -> tuple[float, int]:
    """Damped Newton iteration for the envelope root; returns (root, iterations)."""
    point = as_point(p, spec.arity)
    a = float(spec.a0 if a0 is None else a0)
    g, dg = constraint_with_slope(spec, point, a)
    for iteration in range(NEWTON_MAX_ITER + 1):
        if abs(g) <= NEWTON_TOL:
            if abs(dg) < MIN_SLOPE:
                raise SingularEnvelope(point, a, dg)
            return a, iteration
        if iteration == NEWTON_MAX_ITER:
            break
        if abs(dg) < MIN_SLOPE:
            raise SingularEnvelope(point, a, dg)
        step = -g / dg
        candidate = None
        for _ in range(MAX_HALVINGS + 1):
            try:
                g_new, dg_new = constraint_with_slope(spec, point, a + step)
            except (J.JetDomainError, ArithmeticError):
                step /= 2.0
                continue
            if math.isfinite(g_new) and math.isfinite(dg_new):
                candidate = (a + step, g_new, dg_new)
                if abs(g_new) < abs(g):
                    break
            step /= 2.0
        if candidate is None:
            raise NoConvergence(point, a, abs(g), iteration + 1)
        a, g, dg = candidate
    raise NoConvergence(point, a, abs(g), NEWTON_MAX_ITER)


def _joint_jet(spec: FamilySpec, p: Point, a: float, order: int) -> J.Jet:
    """Joint jet of Phi over the n+1 slots (x1..xn, a)."""
    n = spec.arity
    m = n + 1
    bindings: dict[str, J.Binding] = {
        f"x{i + 1}": J.seed(i + 1, float(p[i]), m, order) for i in range(n)
    }
    bindings[PARAM] = J.seed(m, float(a), m, order)
    if spec.kind == "first":
        return (J.eval_with_bindings(spec.phi, bindings, m, order)
                + J.eval_with_bindings(spec.psi, bindings, m, order))
    psi = J.eval_with_bindings(spec.psi, bindings, m, order)
    bindings[spec.slot] = psi
    return J.eval_with_bindings(spec.phi, bindings, m, order)


def _solve_delta(spec: FamilySpec, p: Point, a: float, order: int) -> tuple[J.Jet, J.Jet]:
    """Solve G(x, a + delta(x)) == 0 order by order; returns (joint Phi, delta)."""
    n = spec.arity
    joint = _joint_jet(spec, p, a, order + 1)
    G = joint.partial(n + 1)  # dPhi/da, a joint jet of the requested order
    slope = G.deriv((n + 1,))
    if abs(slope) < MIN_SLOPE:
        raise SingularEnvelope(p, a, slope)
    xspace = J.space(n, order)
    delta = J.constant(0.0, n, order)
    for k in range(1, order + 1):
        residual = J.substitute_last(G, delta)
        data = delta.data.copy()
        lo, hi = xspace.order_start[k], xspace.order_start[k + 1]
        data[lo:hi] = -residual.data[lo:hi] / slope
        delta = J.Jet(xspace, data)
    return joint, delta


def parameter_jet(spec: FamilySpec, p: Sequence[float], order: int,
                  a: float | None = None) -> J.Jet:
    """Jet of the eliminated parameter a(x) over the coordinate slots."""
    point = as_point(p, spec.arity)
    if a is None:
        a = solve_parameter(spec, point)
    _, delta = _solve_delta(spec, point, a, order)
    out = delta.data.copy()
    out[0] = a
    return J.Jet(delta.space, out)


def _family_jet(spec: FamilySpec, p: Point, a: float, order: int) -> J.Jet:
    n = spec.arity
    joint, delta = _solve_delta(spec, p, a, order)
    sp_k = J.space(n + 1, order)
    joint_k = J.Jet(sp_k, joint.data[: sp_k.size].copy())
    return J.substitute_last(joint_k, delta)


def family_web(spec: FamilySpec) -> WebFunction:
    """WebFunction whose jets flow through the implicit parameter solve.

    Each Newton solve starts from the most recent root (falling back to the
    spec's a0), which keeps a deterministic point sweep on a single smooth
    branch.  There is no root cache: the web's per-point jet memo already
    solves each point once.
    """
    warm: float | None = None

    def evaluator(point: Point, order: int) -> J.Jet:
        nonlocal warm
        try:
            a = solve_parameter(spec, point, warm)
        except (NoConvergence, SingularEnvelope):
            if warm is None:
                raise
            a = solve_parameter(spec, point, None)
        warm = a
        return _family_jet(spec, point, a, order)

    return WebFunction(arity=spec.arity, evaluator=evaluator)
