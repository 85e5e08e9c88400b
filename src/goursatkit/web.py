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
draw batch); a run reads each sample point's jet once into a
:class:`DerivativeBundle` of stacked F_i, F_ij, F_ijk, which every suite
reads; the per-point functions here are one-point bundles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .jets import Jet, derivative_index, space

JET_ORDER = 3  # every jet is evaluated to this order; lower orders are its prefix
REGULARITY_THRESHOLD = 1e-9  # |F_a| at or below this fails the co-frame
DEGENERACY_TOL = 1e-10  # a torsion entry below this counts as vanishing
_MEMO_SIZE = 4096  # points per web; the memo is cleared when full

Point = np.ndarray


def as_point(p: Sequence[float], n: int) -> Point:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"expected a point with {n} coordinates, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


def as_points(points, n: int) -> np.ndarray:
    """Points as an ``(N, n)`` array (each checked as :func:`as_point`)."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
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


@dataclass(frozen=True)
class Gauge:
    """Coefficients of the connection form in the co-frame basis."""

    w: tuple[float, ...]

    def __post_init__(self):
        if not all(np.isfinite(self.w)):
            raise ValueError("gauge coefficients must be finite")

    @classmethod
    def zero(cls, n: int) -> "Gauge":
        return cls((0.0,) * n)

    @classmethod
    def of(cls, values: Sequence[float]) -> "Gauge":
        return cls(tuple(float(v) for v in values))

    def __len__(self) -> int:
        return len(self.w)


@dataclass
class WebFunction:
    """Defining function with jet evaluation up to order ``JET_ORDER``.

    ``evaluator(points, order)`` takes an ``(N, n)`` array of points and
    returns the jet of F at all of them over the n coordinate slots (data
    ``(size, N)``) and one failure per point: None, or the
    ``ArithmeticError`` a one-point evaluation raises there (that point's
    jet column is then ignored).  It must be pure up to transparent caching,
    and a point's jet must not depend on the other points of its batch;
    evaluation from concurrent tasks over distinct points is safe for the
    built-in constructors.

    Each point's jet is evaluated once, at ``JET_ORDER``, and kept in a
    per-web memo keyed by the point's bytes (at most ``_MEMO_SIZE`` points;
    the memo is cleared when full).  A lower order is the prefix of that
    jet, which is exactly the jet a direct evaluation at the lower order
    gives.  The regularity check runs on every call and also
    rejects a point whose order-``JET_ORDER`` jet has a non-finite entry; a
    point the evaluator failed at leaves nothing in the memo.
    """

    arity: int
    evaluator: Callable[[np.ndarray, int], "tuple[Jet, list]"]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _memo_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                       repr=False, compare=False)

    def __post_init__(self):
        if self.arity < 4:
            raise ValueError("webs of this family need arity n >= 4")

    def jets(self, points, check_regularity: bool = True) -> tuple[np.ndarray, list]:
        """Order-``JET_ORDER`` jet rows ``(N, size)`` at ``points`` and one
        failure per point (None where the point is usable).  The points not
        in the memo are evaluated in one evaluator call."""
        n = self.arity
        pts = as_points(points, n)
        keys = [p.tobytes() for p in pts]
        with self._memo_lock:
            rows = [self._memo.get(key) for key in keys]
        failures: list = [None] * len(keys)
        missing = [i for i, row in enumerate(rows) if row is None]
        if missing:
            jet, missed = self.evaluator(pts[missing], JET_ORDER)
            fresh = np.ascontiguousarray(jet.data.T)
            with self._memo_lock:
                for i, row, failure in zip(missing, fresh, missed):
                    rows[i], failures[i] = row, failure
                    if failure is None:
                        if len(self._memo) >= _MEMO_SIZE:
                            self._memo.clear()
                        self._memo[keys[i]] = row
        data = np.array(rows).reshape(len(keys), space(n, JET_ORDER).size)
        if check_regularity:
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

    def jet(self, p: Sequence[float], order: int, check_regularity: bool = True) -> Jet:
        if not (1 <= order <= JET_ORDER):
            raise ValueError(f"order must be in 1..{JET_ORDER}")
        data, failures = self.jets(as_point(p, self.arity)[None], check_regularity)
        if failures[0] is not None:
            raise failures[0]
        sp = space(self.arity, order)
        return Jet(sp, data[0, :sp.size])

    def is_regular(self, p: Sequence[float]) -> bool:
        try:
            self.jet(p, 1)
            return True
        except ArithmeticError:
            return False

    def scaled(self, c: float) -> "WebFunction":
        """The web defined by c*F (same foliations, torsion divided by c)."""
        base = self.evaluator

        def evaluator(points: np.ndarray, order: int):
            jet, failures = base(points, order)
            return jet * c, failures

        return WebFunction(self.arity, evaluator)

    @classmethod
    def from_expr(cls, expression, params: dict | None = None) -> "WebFunction":
        """Closed-form web from an :class:`~goursatkit.expr.Expr`."""
        from . import jets as J

        params = dict(params or {})
        n = expression.arity
        missing = expression.parameters_used - set(params)
        if missing:
            raise ValueError(f"unbound parameters: {sorted(missing)}")

        def evaluator(points: np.ndarray, order: int):
            coords = np.ascontiguousarray(points.T)

            def jet_at(rows: np.ndarray) -> Jet:
                bindings: dict = {f"x{i + 1}": J.seed(i + 1, coords[i, rows], n, order)
                                  for i in range(n)}
                bindings.update(params)
                return J.eval_with_bindings(expression, bindings, n, order)

            failures: list = [None] * len(points)
            return J.per_point(space(n, order), jet_at, failures), failures

        return cls(arity=n, evaluator=evaluator)


@dataclass(frozen=True)
class TorsionTensor:
    """Off-diagonal symmetric matrix of torsion components at a point.

    The diagonal is not part of the tensor and reads back as NaN; use
    :meth:`entry_or_zero` where a formula sums over all indices.  ``values``
    may carry leading point axes; the entry readers take one point.
    """

    n: int
    values: np.ndarray = field(repr=False)  # (..., n, n), diagonal NaN

    def __post_init__(self):
        if self.values.shape[-2:] != (self.n, self.n):
            raise ValueError("torsion matrix shape mismatch")

    def entry(self, alpha: int, beta: int) -> float:
        if alpha == beta:
            raise IndexError("diagonal torsion components are not defined")
        return float(self.values[alpha - 1, beta - 1])

    def entry_or_zero(self, alpha: int, beta: int) -> float:
        if alpha == beta:
            return 0.0
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


@dataclass(frozen=True)
class PfaffianDerivs:
    """Values a_abg at a point, symmetric in the first two slots; ``values``
    may carry leading point axes."""

    n: int
    values: np.ndarray = field(repr=False)  # (..., n, n, n); [a-1, b-1, g-1], diag(a,b) NaN
    gauge: Gauge = None

    def entry(self, alpha: int, beta: int, gamma: int) -> float:
        if alpha == beta:
            raise IndexError("first two indices must differ")
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


@dataclass(frozen=True)
class DerivativeBundle:
    """The order-``JET_ORDER`` jets of F at N points, stacked on a leading
    point axis; ``grad``, ``hess`` and ``third`` gather F_i, F_ij and F_ijl
    (0-based slots) from them."""

    points: np.ndarray  # (N, n)
    data: np.ndarray    # (N, jet size), each row a point's Jet.data

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

    def jet1(self, idx: tuple[int, ...]) -> np.ndarray:
        """Order-1 jets (value, then gradient) of the partial F_idx (1-based
        slots, at most two), shape (N, n + 1)."""
        at = tuple(i - 1 for i in idx)
        return self.data[:, np.append(derivative_index(self.n, len(idx))[at],
                                      derivative_index(self.n, len(idx) + 1)[at])]

    @np.errstate(all="ignore")
    def torsion_values(self) -> np.ndarray:
        """a_ab = F_ab / (F_a F_b) at every point, (N, n, n), diagonal NaN."""
        values = self.hess / (self.grad[:, :, None] * self.grad[:, None, :])
        values[:, range(self.n), range(self.n)] = np.nan
        return values

    @np.errstate(all="ignore")
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
    """The memoized jet rows of ``points`` (sampling evaluated them); raises
    the first point's failure, if any."""
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
