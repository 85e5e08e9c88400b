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
along the solved increment.  Only G reads the order-(K+1) entries, and only
those that hold the ``a`` slot, so the joint jet lives in the truncated
space ``jets.space(n + 1, K + 1, True)``, which builds no other order-(K+1)
entry.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import jets as J
from .expr import Expr
from .web import JET_ORDER, WebFunction, as_point

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


class FamilySpec:
    """Data (phi, psi, a0) defining a first- or second-kind family.

    The family parameter is the symbol ``a`` (``PARAM``); ``slot`` names the
    parameter symbol of ``phi`` that receives psi's value in second-kind
    families.
    """

    __slots__ = ("kind", "phi", "psi", "arity", "a0", "slot")

    def __init__(self, kind: str, phi: Expr, psi: Expr, arity: int, a0: float,
                 slot: str = "s"):
        self.kind = kind  # "first" | "second"
        self.phi = phi
        self.psi = psi
        self.arity = arity
        self.a0 = a0
        self.slot = slot
        n = arity
        if self.kind not in ("first", "second"):
            raise FamilySpecError(f"kind must be 'first' or 'second', got {self.kind!r}")
        if self.kind == "first" and n < 4:
            raise FamilySpecError("first-kind families need arity n >= 4")
        if self.kind == "second" and n < 5:
            raise FamilySpecError("second-kind families need arity n >= 5")
        if self.phi.arity != n or self.psi.arity != n:
            raise FamilySpecError("phi and psi must be declared over the full arity")
        if not np.isfinite(self.a0):
            raise FamilySpecError(f"a0 must be finite, got {self.a0!r}")
        if self.kind == "first":
            banned_phi, banned_psi = {3, 4}, {1, 2}
            allowed_phi_params = {PARAM}
        else:
            if self.slot == PARAM:  # _compose would bind psi over the parameter's seed
                raise FamilySpecError(f"the psi slot must not be the parameter '{PARAM}'")
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


def _compose(spec: FamilySpec, bindings: dict) -> J.Jet:
    """Phi, in the space of the bound jets, from the bindings of x1..xn and
    ``a``: phi + psi for the first kind, phi with psi's value in its slot
    for the second.  psi's compact jet is bound as it is, and the jet over
    all slots is built once, for Phi."""
    if spec.kind == "first":
        return (J.eval_compact(spec.phi, bindings) + J.eval_compact(spec.psi, bindings)).expanded()
    bindings[spec.slot] = J.eval_compact(spec.psi, bindings)
    return J.eval_with_bindings(spec.phi, bindings)


def _parameter_jets(spec: FamilySpec, coords: np.ndarray, a: np.ndarray,
                    order: int) -> J.Jet:
    """Jets of Phi(x, .) in the parameter alone, x frozen at the columns of
    ``coords`` (n, N), the parameter at ``a`` (N,)."""
    bindings: dict[str, J.Binding] = {f"x{i + 1}": coords[i] for i in range(spec.arity)}
    bindings[PARAM] = J.seed(1, a, 1, order)
    return _compose(spec, bindings)


def constraint(spec: FamilySpec, p: Sequence[float], a: float) -> float:
    """The envelope constraint G(p, a) whose root defines the parameter."""
    point = as_point(p, spec.arity)
    return J.at_one_point(J.space(1, 1), lambda rows: _parameter_jets(
        spec, point[:, None], np.array([float(a)]), 1)).deriv((1,))


def solve_parameter(spec: FamilySpec, p: Sequence[float],
                    a0: float | None = None) -> float:
    a, _ = solve_parameter_with_info(spec, p, a0)
    return a


def solve_parameter_with_info(spec: FamilySpec, p: Sequence[float],
                              a0: float | None = None) -> tuple[float, int]:
    """Damped Newton iteration for the envelope root; returns (root, iterations)."""
    point = as_point(p, spec.arity)
    roots, iterations, failures = _newton(spec, point[None], spec.a0 if a0 is None else a0)
    if failures[0] is not None:
        raise failures[0]
    return float(roots[0]), int(iterations[0])


@np.errstate(all="ignore")
def _newton(spec: FamilySpec, points: np.ndarray, a0: float) -> tuple[np.ndarray, np.ndarray, list]:
    """Damped Newton iteration from ``a0`` for the envelope root at every
    point of ``points`` (N, n) at once; each point follows the one-point
    control flow under masks.  Returns (roots, iterations, failures), a
    failure being None, :class:`SingularEnvelope`, :class:`NoConvergence`
    or the point's jet domain error at ``a0``."""
    coords = np.ascontiguousarray(points.T)

    def slopes(rows: np.ndarray, a: np.ndarray):
        failed: list = [None] * rows.size
        jet = J.per_point(J.space(1, 2), lambda sub: _parameter_jets(
            spec, coords[:, rows[sub]], a[sub], 2), failed)
        return jet.data[1], jet.data[2], failed

    a = np.full(len(points), float(a0))
    g, dg, failures = slopes(np.arange(len(points)), a)
    iterations = np.zeros(len(points), dtype=int)
    active = np.array([f is None for f in failures], dtype=bool)
    for iteration in range(NEWTON_MAX_ITER + 1):
        converged = active & (np.abs(g) <= NEWTON_TOL)
        iterations[converged] = iteration
        active &= ~converged
        checked = converged | active if iteration < NEWTON_MAX_ITER else converged
        for i in np.flatnonzero(checked & (np.abs(dg) < MIN_SLOPE)):
            failures[i] = SingularEnvelope(points[i], float(a[i]), float(dg[i]))
            active[i] = False
        if iteration == NEWTON_MAX_ITER or not active.any():
            break
        rows = np.flatnonzero(active)
        step = -g[rows] / dg[rows]
        found = np.zeros(rows.size, dtype=bool)
        new_a, new_g, new_dg = a[rows], g[rows], dg[rows]
        search = np.arange(rows.size)  # points still halving their step
        for _ in range(MAX_HALVINGS + 1):
            trial = a[rows[search]] + step[search]
            g_try, dg_try, _ = slopes(rows[search], trial)
            finite = np.isfinite(g_try) & np.isfinite(dg_try)
            at = search[finite]
            new_a[at], new_g[at], new_dg[at] = trial[finite], g_try[finite], dg_try[finite]
            found[at] = True
            better = finite & (np.abs(g_try) < np.abs(g[rows[search]]))
            search = search[~better]
            step[search] /= 2.0
            if not search.size:
                break
        for i in rows[~found]:
            failures[i] = NoConvergence(points[i], float(a[i]), float(abs(g[i])), iteration + 1)
            active[i] = False
        kept = rows[found]
        a[kept], g[kept], dg[kept] = new_a[found], new_g[found], new_dg[found]
    for i in np.flatnonzero(active):
        failures[i] = NoConvergence(points[i], float(a[i]), float(abs(g[i])), NEWTON_MAX_ITER)
    return a, iterations, failures


def _joint_jets(spec: FamilySpec, coords: np.ndarray, a: np.ndarray, order: int) -> J.Jet:
    """Joint jets of Phi over the n+1 slots (x1..xn, a) at the columns of
    ``coords`` (n, N) and ``a`` (N,), in the space truncated to the
    order-``order`` entries that hold the ``a`` slot."""
    n = spec.arity
    names = [f"x{i + 1}" for i in range(n)] + [PARAM]
    return _compose(spec, J.compact_seeds(names, [*coords, a], order, True))


def _solve_delta(spec: FamilySpec, coords: np.ndarray, a: np.ndarray,
                 order: int) -> tuple[J.Jet, J.Jet]:
    """Solve G(x, a + delta(x)) == 0 order by order at every column of
    ``coords``; returns (joint Phi, delta).  Raises
    :class:`~goursatkit.jets.PointFailures` for the singular points."""
    n = spec.arity
    joint = _joint_jets(spec, coords, a, order + 1)
    G = joint.partial(n + 1)  # dPhi/da, a joint jet of the requested order
    slope = G.data[G.space.pos[(n + 1,)]]
    singular = np.flatnonzero(np.abs(slope) < MIN_SLOPE)
    if singular.size:
        raise J.PointFailures({int(i): SingularEnvelope(coords[:, i], float(a[i]), float(slope[i]))
                               for i in singular})
    xspace = J.space(n, order)
    delta = np.zeros((xspace.size,) + slope.shape)
    # step k reads the order-k entries of the residual, and delta holds only
    # lower orders, so it composes the order-k prefixes of G and delta: an
    # order-k space leads the order-K one and is closed under sub-tuples, so
    # with a finite G each order-k entry sums the same terms in the same order
    for k in range(1, order + 1):
        g_k, x_k = J.space(n + 1, k), J.space(n, k)
        residual = J.substitute_last(J.Jet(g_k, G.data[:g_k.size]), J.Jet(x_k, delta[:x_k.size]))
        lo = x_k.order_start[k]
        delta[lo:x_k.size] = -residual.data[lo:] / slope
    return joint, J.Jet(xspace, delta)


def parameter_jet(spec: FamilySpec, p: Sequence[float], order: int,
                  a: float | None = None) -> J.Jet:
    """Jet of the eliminated parameter a(x) over the coordinate slots."""
    point = as_point(p, spec.arity)
    if a is None:
        a = solve_parameter(spec, point)
    delta = J.at_one_point(J.space(spec.arity, order), lambda rows: _solve_delta(
        spec, point[:, None], np.array([float(a)]), order)[1])
    out = delta.data.copy()
    out[0] = a
    return J.Jet(delta.space, out)


def _family_jets(spec: FamilySpec, coords: np.ndarray, a: np.ndarray, order: int) -> J.Jet:
    n = spec.arity
    joint, delta = _solve_delta(spec, coords, a, order)
    sp_k = J.space(n + 1, order)  # tuples are ordered by length, so sp_k leads the joint space
    return J.substitute_last(J.Jet(sp_k, joint.data[: sp_k.size]), delta)


def family_web(spec: FamilySpec) -> WebFunction:
    """WebFunction whose jets flow through the implicit parameter solve.

    Every Newton solve starts at the spec's a0, so a(x) depends on x alone;
    the solves of an evaluated batch run together, batched over points, and
    so do the jets at the roots.  There is no root cache: a run evaluates
    each point once.
    """
    n = spec.arity

    def evaluator(points: np.ndarray):
        roots, _, failures = _newton(spec, points, spec.a0)
        coords = np.ascontiguousarray(points.T)
        jet = J.per_point(J.space(n, JET_ORDER), lambda rows: _family_jets(
            spec, coords[:, rows], roots[rows], JET_ORDER), failures)
        return jet, failures

    return WebFunction(arity=n, evaluator=evaluator)
