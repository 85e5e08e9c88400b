"""Webs given by a defining function: co-frame, torsion, Pfaffian derivatives.

A codimension-one (n+1)-web in closed form consists of the n coordinate
foliations x_a = const together with the level sets of a defining function
F(x1..xn).  The working co-frame is w_a = F_a dx_a, which requires the
regularity condition F_a != 0 at every evaluated point.  In this frame the
web's torsion tensor is

    a_ab = F_ab / (F_a F_b),     a != b,

and its covariant (Pfaffian) derivatives with respect to a connection form
w = sum_g gauge[g] * w_g are

    a_abg = (1/F_g) d a_ab/dx_g - a_ab * (gauge[g] + a_ga + a_bg),

where torsion entries with repeated indices are taken as zero (the diagonal
is not defined by the structure equations; zero is the one convention that
makes the formula total).  The connection form is not derivable from the
defining function alone, so it enters as an explicit gauge vector, zero by
default; a_abg is affine in the gauge with slope -a_ab per component.

Jets of F are taken to the fixed order ``JET_ORDER = 3``, the order a_abg
needs.  A web evaluates a batch of points in one call (sampling passes each
draw batch); a run keeps its accepted draws' jets as a :class:`DerivativeBundle`
of stacked F_i, F_ij, F_ijk, which every suite reads; the per-point
functions here are one-point bundles, each evaluated in one call.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .jets import Jet, derivative_index, space

JET_ORDER = 3  # every jet is evaluated to this order; lower orders are its prefix
REGULARITY_THRESHOLD = 1e-9  # |F_a| at or below this fails the co-frame
DEGENERACY_TOL = 1e-10  # a torsion entry below this counts as vanishing

Point = np.ndarray


def as_point(p: Sequence[float], n: int) -> Point:
    """One point as an ``(n,)`` array, checked as :func:`as_points`."""
    return as_points([p], n)[0]


def as_points(points, n: int) -> np.ndarray:
    """Points as an ``(N, n)`` array of finite coordinates."""
    arr = np.asarray(points, dtype=float)
    if arr.shape == (0,):
        arr = arr.reshape(0, n)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"expected points with {n} coordinates, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


class RegularityError(ArithmeticError):
    """Some first derivative of the defining function vanished."""

    def __init__(self, alpha: int, value: float, threshold: float):
        super().__init__(
            f"|F_{alpha}| = {abs(value):.3e} <= {threshold:.1e}: "
            f"co-frame degenerates along x{alpha}"
        )
        self.alpha = alpha
        self.value = value


class NonFiniteJet(ArithmeticError):
    """The jet of the defining function has an infinite or NaN entry."""


class Gauge:
    """Coefficients of the connection form in the co-frame basis."""

    __slots__ = ("w",)

    def __init__(self, w: tuple[float, ...]):
        if not all(np.isfinite(w)):
            raise ValueError("gauge coefficients must be finite")
        self.w = w

    @classmethod
    def zero(cls, n: int) -> "Gauge":
        return cls((0.0,) * n)

    @classmethod
    def of(cls, values: Sequence[float]) -> "Gauge":
        return cls(tuple(float(v) for v in values))

    def __len__(self) -> int:
        return len(self.w)


class WebFunction:
    """Defining function with jet evaluation up to order ``JET_ORDER``.

    ``evaluator(points)`` takes an ``(N, n)`` array of points and returns
    the order-``JET_ORDER`` jet of F at all of them over the n coordinate
    slots (data ``(size, N)``) and one failure per point: None, or the
    ``ArithmeticError`` a one-point evaluation raises there (that point's
    jet column is then ignored).  It must be pure up to transparent caching,
    and a point's jet must not depend on the other points of its batch;
    evaluation from concurrent tasks over distinct points is safe for the
    built-in constructors.

    Every call evaluates its points; a run takes its jets from sampling.
    :meth:`jet` serves a lower order as the prefix of the order-``JET_ORDER``
    jet, which is exactly the jet a direct evaluation at the lower order
    gives.  The regularity check also rejects a point whose jet has a
    non-finite entry.
    """

    __slots__ = ("arity", "evaluator")

    def __init__(self, arity: int, evaluator: Callable[[np.ndarray], "tuple[Jet, list]"]):
        if arity < 4:
            raise ValueError("webs of this family need arity n >= 4")
        self.arity = arity
        self.evaluator = evaluator

    def jets(self, points) -> tuple[np.ndarray, list]:
        """Order-``JET_ORDER`` jet rows ``(N, size)`` at ``points``, evaluated
        in one evaluator call, and one failure per point (None where the
        point is usable)."""
        n = self.arity
        pts = as_points(points, n)
        jet, failures = self.evaluator(pts)
        data, failures = np.ascontiguousarray(jet.data.T), list(failures)
        small = np.abs(data[:, 1:n + 1]) <= REGULARITY_THRESHOLD
        finite = np.isfinite(data).all(axis=1)
        for i in np.flatnonzero(small.any(axis=1) | ~finite):
            if failures[i] is not None:
                continue
            if small[i].any():
                alpha = int(np.argmax(small[i])) + 1
                failures[i] = RegularityError(alpha, float(data[i, alpha]),
                                              REGULARITY_THRESHOLD)
            else:
                failures[i] = NonFiniteJet(f"non-finite jet entry at {pts[i].tolist()}")
        return data, failures

    def jet(self, p: Sequence[float], order: int) -> Jet:
        if not (1 <= order <= JET_ORDER):
            raise ValueError(f"order must be in 1..{JET_ORDER}")
        data, failures = self.jets([p])
        if failures[0] is not None:
            raise failures[0]
        sp = space(self.arity, order)
        return Jet(sp, data[0, :sp.size])

    @classmethod
    def from_expr(cls, expression, params: dict | None = None) -> "WebFunction":
        """Closed-form web from an :class:`~goursatkit.expr.Expr`."""
        from . import jets as J

        params = dict(params or {})
        n = expression.arity
        missing = expression.parameters_used - set(params)
        if missing:
            raise ValueError(f"unbound parameters: {sorted(missing)}")

        def evaluator(points: np.ndarray):
            coords = np.ascontiguousarray(points.T)

            def jet_at(rows: np.ndarray) -> Jet:
                bindings: dict = {f"x{i + 1}": J.seed(i + 1, coords[i, rows], n, JET_ORDER)
                                  for i in range(n)}
                bindings.update(params)
                return J.eval_with_bindings(expression, bindings)

            failures: list = [None] * len(points)
            return J.per_point(space(n, JET_ORDER), jet_at, failures), failures

        return cls(arity=n, evaluator=evaluator)


class TorsionTensor:
    """Off-diagonal symmetric matrix of torsion components at a point.

    The diagonal is not part of the tensor and reads back as NaN.  ``values``
    may carry leading point axes; the entry readers take one point and
    1-based indices in 1..n.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: np.ndarray):
        if values.shape[-2:] != (n, n):
            raise ValueError("torsion matrix shape mismatch")
        self.n = n
        self.values = values  # (..., n, n), diagonal NaN

    def entry(self, alpha: int, beta: int) -> float:
        if alpha == beta:
            raise IndexError("diagonal torsion components are not defined")
        if not 0 < min(alpha, beta) <= max(alpha, beta) <= self.n:  # numpy reads 0 as n
            raise IndexError(f"indices ({alpha}, {beta}) outside 1..{self.n}")
        return float(self.values[alpha - 1, beta - 1])

    def row_vanishes(self, p: int, cols: Sequence[int] = (3, 4, 5)) -> bool:
        """Whether row p vanishes on ``cols`` (at every point of a stack)."""
        cols = [c - 1 for c in cols if c != p]
        return bool(np.all(np.abs(self.values[..., p - 1, cols]) < DEGENERACY_TOL))

    @classmethod
    def from_matrix(cls, values: np.ndarray) -> "TorsionTensor":
        a = np.asarray(values, dtype=float).copy()
        n = a.shape[-1]
        if a.shape[-2:] != (n, n):
            raise ValueError("torsion matrix must be square")
        off = ~np.eye(n, dtype=bool)
        if not np.array_equal(a[..., off], a.swapaxes(-1, -2)[..., off]):
            a = (a + a.swapaxes(-1, -2)) / 2.0
        a[..., range(n), range(n)] = np.nan
        return cls(n, a)


class PfaffianDerivs:
    """Values a_abg at a point, symmetric in the first two slots; ``values``
    may carry leading point axes."""

    __slots__ = ("n", "values", "gauge")

    def __init__(self, n: int, values: np.ndarray, gauge: Gauge | None = None):
        self.n = n
        self.values = values  # (..., n, n, n); [a-1, b-1, g-1], diag(a,b) NaN
        self.gauge = gauge

    def entry(self, alpha: int, beta: int, gamma: int) -> float:
        if alpha == beta:
            raise IndexError("first two indices must differ")
        if not 0 < min(alpha, beta, gamma) <= max(alpha, beta, gamma) <= self.n:
            raise IndexError(f"indices ({alpha}, {beta}, {gamma}) outside 1..{self.n}")
        return float(self.values[alpha - 1, beta - 1, gamma - 1])

    @classmethod
    def from_array(cls, values: np.ndarray, gauge: Gauge | None = None) -> "PfaffianDerivs":
        a = np.asarray(values, dtype=float)
        n = a.shape[-1]
        a = (a + a.swapaxes(-3, -2)) / 2.0  # enforce first-slot symmetry
        a[..., range(n), range(n), :] = np.nan
        return cls(n, a, gauge or Gauge.zero(n))

    def regauged(self, torsion: TorsionTensor, new_gauge: Gauge) -> "PfaffianDerivs":
        """Exact affine transport to another gauge: shift by -a_ab * (w' - w)."""
        dw = np.asarray(new_gauge.w) - np.asarray(self.gauge.w)
        shifted = self.values - torsion.values[..., None] * dw
        shifted[..., range(self.n), range(self.n), :] = np.nan
        return PfaffianDerivs(self.n, shifted, new_gauge)


class DerivativeBundle:
    """The order-``JET_ORDER`` jets of F at N points, stacked on a leading
    point axis; ``grad``, ``hess`` and ``third`` gather F_i, F_ij and F_ijl
    (0-based slots) from them."""

    __slots__ = ("points", "data")

    def __init__(self, points: np.ndarray, data: np.ndarray):
        self.points = points  # (N, n)
        self.data = data      # (N, jet size), each row a point's Jet.data

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def __getitem__(self, rows: slice) -> "DerivativeBundle":
        return DerivativeBundle(self.points[rows], self.data[rows])

    def _order(self, k: int) -> np.ndarray:
        return self.data[:, derivative_index(self.n, k)]

    grad = property(lambda self: self._order(1))    # (N, n)
    hess = property(lambda self: self._order(2))    # (N, n, n)
    third = property(lambda self: self._order(3))   # (N, n, n, n)

    def torsion_values(self) -> np.ndarray:
        """a_ab = F_ab / (F_a F_b) at every point, (N, n, n), diagonal NaN."""
        values = self.hess / (self.grad[:, :, None] * self.grad[:, None, :])
        values[:, range(self.n), range(self.n)] = np.nan
        return values

    def pfaffian_values(self, w) -> np.ndarray:
        """a_abg at gauge ``w`` (n,) or one gauge per point (N, n), (N, n, n, n):
        (1/F_g) d_g a_ab - a_ab (a_ga + a_bg) - a_ab w_g with zero-diagonal
        torsion in the bracket.  Each pair a < b is computed and mirrored, so
        first-slot symmetry is exact; the gauge term is subtracted last, so the
        slope -a_ab is exact too."""
        g, h, n = self.grad, self.hess, self.n
        a = h / (g[:, :, None] * g[:, None, :])
        a[:, range(n), range(n)] = 0.0
        ga, gb = g[:, :, None, None], g[:, None, :, None]
        h_ab = h[:, :, :, None]
        da = (self.third - h_ab * h[:, :, None, :] / ga
              - h_ab * h[:, None, :, :] / gb) / (ga * gb)
        t_ab = a[:, :, :, None]
        bracket = a.swapaxes(1, 2)[:, :, None, :] + a[:, None, :, :]
        vals = (da / g[:, None, None, :] - t_ab * bracket
                - t_ab * np.asarray(w, dtype=float)[..., None, None, :])
        upper = np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None]
        vals = np.where(upper, vals, vals.swapaxes(1, 2))
        vals[:, range(n), range(n)] = np.nan
        return vals


def derivative_bundle(web: WebFunction, points) -> DerivativeBundle:
    """The jet rows of ``points``, evaluated in one call; raises the first
    point's failure, if any."""
    pts = as_points(points, web.arity)
    data, failures = web.jets(pts)
    for failure in failures:
        if failure is not None:
            raise failure
    return DerivativeBundle(pts, data)


def coframe(web: WebFunction, p: Sequence[float]) -> np.ndarray:
    """Rows are the co-frame covectors: row a has F_a in slot a, else 0."""
    jet = web.jet(p, 1)
    return np.diag(jet.gradient())


def torsion(web: WebFunction, p: Sequence[float]) -> TorsionTensor:
    return TorsionTensor(web.arity, derivative_bundle(web, [p]).torsion_values()[0])


def pfaffian_derivs(web: WebFunction, p: Sequence[float],
                    gauge: Gauge | None = None) -> PfaffianDerivs:
    n = web.arity
    gauge = gauge or Gauge.zero(n)
    if len(gauge) != n:
        raise ValueError("gauge length must equal the web arity")
    return PfaffianDerivs(n, derivative_bundle(web, [p]).pfaffian_values(gauge.w)[0], gauge)
