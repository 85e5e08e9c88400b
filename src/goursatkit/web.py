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
needs; torsion reads the order-2 prefix and the co-frame the order-1 prefix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .jets import Jet

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


class RegularityError(ArithmeticError):
    """Some first derivative of the defining function vanished."""

    def __init__(self, alpha: int, value: float, threshold: float):
        super().__init__(
            f"|F_{alpha}| = {abs(value):.3e} <= {threshold:.1e}: "
            f"co-frame degenerates along x{alpha}"
        )
        self.alpha = alpha
        self.value = value


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

    ``evaluator(point, order)`` must return the jet of F at the point over
    the n coordinate slots and be pure up to transparent caching; evaluation
    from concurrent tasks over distinct points is safe for the built-in
    constructors.

    Each point's jet is evaluated once, at ``JET_ORDER``, and kept in a
    per-web memo keyed by the point's bytes (at most ``_MEMO_SIZE`` points;
    the memo is cleared when full).  A lower order is the prefix of that jet
    (``Jet.truncated``), which is exactly the jet a direct evaluation at the
    lower order gives.  The regularity check runs on every call; an
    evaluator that raises leaves nothing in the memo.
    """

    arity: int
    evaluator: Callable[[Point, int], Jet]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _memo_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                       repr=False, compare=False)

    def __post_init__(self):
        if self.arity < 4:
            raise ValueError("webs of this family need arity n >= 4")

    def jet(self, p: Sequence[float], order: int, check_regularity: bool = True) -> Jet:
        if not (1 <= order <= JET_ORDER):
            raise ValueError(f"order must be in 1..{JET_ORDER}")
        point = as_point(p, self.arity)
        key = point.tobytes()
        with self._memo_lock:
            top = self._memo.get(key)
        if top is None:
            top = self.evaluator(point, JET_ORDER)
            with self._memo_lock:
                if len(self._memo) >= _MEMO_SIZE:
                    self._memo.clear()
                self._memo[key] = top
        jet = top.truncated(order)
        if check_regularity:
            grad = jet.gradient()
            small = np.abs(grad) <= REGULARITY_THRESHOLD
            if small.any():
                alpha = int(np.argmax(small)) + 1
                raise RegularityError(alpha, float(grad[alpha - 1]), REGULARITY_THRESHOLD)
        return jet

    def is_regular(self, p: Sequence[float]) -> bool:
        try:
            self.jet(p, 1)
            return True
        except (RegularityError, ArithmeticError):
            return False

    def value(self, p: Sequence[float]) -> float:
        return self.jet(p, 1, check_regularity=False).value

    def scaled(self, c: float) -> "WebFunction":
        """The web defined by c*F (same foliations, torsion divided by c)."""
        base = self.evaluator
        return WebFunction(self.arity, lambda p, order: base(p, order) * c)

    @classmethod
    def from_expr(cls, expression, params: dict | None = None) -> "WebFunction":
        """Closed-form web from an :class:`~goursatkit.expr.Expr`."""
        from . import jets as J

        params = dict(params or {})
        n = expression.arity
        missing = expression.parameters_used - set(params)
        if missing:
            raise ValueError(f"unbound parameters: {sorted(missing)}")
        names = [f"x{i}" for i in range(1, n + 1)]

        def evaluator(point: Point, order: int) -> Jet:
            env = {name: float(point[i]) for i, name in enumerate(names)}
            env.update(params)
            return J.eval_jet(expression, env, names, order)

        return cls(arity=n, evaluator=evaluator)


@dataclass(frozen=True)
class TorsionTensor:
    """Off-diagonal symmetric matrix of torsion components at a point.

    The diagonal is not part of the tensor and reads back as NaN; use
    :meth:`entry_or_zero` where a formula sums over all indices.
    """

    n: int
    values: np.ndarray = field(repr=False)  # (n, n), diagonal NaN

    def __post_init__(self):
        if self.values.shape != (self.n, self.n):
            raise ValueError("torsion matrix shape mismatch")

    def entry(self, alpha: int, beta: int) -> float:
        if alpha == beta:
            raise IndexError("diagonal torsion components are not defined")
        return float(self.values[alpha - 1, beta - 1])

    def entry_or_zero(self, alpha: int, beta: int) -> float:
        if alpha == beta:
            return 0.0
        return float(self.values[alpha - 1, beta - 1])

    def block(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        return np.array([[self.entry(r, c) for c in cols] for r in rows])

    def row_vanishes(self, p: int, cols: Sequence[int] = (3, 4, 5)) -> bool:
        return all(abs(self.entry(p, c)) < DEGENERACY_TOL for c in cols if c != p)

    @classmethod
    def from_matrix(cls, values: np.ndarray) -> "TorsionTensor":
        a = np.asarray(values, dtype=float).copy()
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("torsion matrix must be square")
        off = ~np.eye(n, dtype=bool)
        if not np.array_equal(a[off], a.T[off]):
            a = (a + a.T) / 2.0
        np.fill_diagonal(a, np.nan)
        return cls(n, a)


@dataclass(frozen=True)
class PfaffianDerivs:
    """Values a_abg at a point, symmetric in the first two slots."""

    n: int
    values: np.ndarray = field(repr=False)  # (n, n, n); [a-1, b-1, g-1], diag(a,b) NaN
    gauge: Gauge = None

    def entry(self, alpha: int, beta: int, gamma: int) -> float:
        if alpha == beta:
            raise IndexError("first two indices must differ")
        return float(self.values[alpha - 1, beta - 1, gamma - 1])

    @classmethod
    def from_array(cls, values: np.ndarray, gauge: Gauge | None = None) -> "PfaffianDerivs":
        a = np.asarray(values, dtype=float).copy()
        n = a.shape[0]
        a = (a + a.transpose(1, 0, 2)) / 2.0  # enforce first-slot symmetry
        for i in range(n):
            a[i, i, :] = np.nan
        return cls(n, a, gauge or Gauge.zero(n))

    def regauged(self, torsion: TorsionTensor, new_gauge: Gauge) -> "PfaffianDerivs":
        """Exact affine transport to another gauge: shift by -a_ab * (w' - w)."""
        dw = np.asarray(new_gauge.w) - np.asarray(self.gauge.w)
        shifted = self.values - torsion.values[:, :, None] * dw[None, None, :]
        for i in range(self.n):
            shifted[i, i, :] = np.nan
        return PfaffianDerivs(self.n, shifted, new_gauge)


def coframe(web: WebFunction, p: Sequence[float]) -> np.ndarray:
    """Rows are the co-frame covectors: row a has F_a in slot a, else 0."""
    jet = web.jet(p, 1)
    return np.diag(jet.gradient())


def torsion(web: WebFunction, p: Sequence[float]) -> TorsionTensor:
    jet = web.jet(p, 2)
    grad = jet.gradient()
    hess = jet.hessian()
    values = hess / np.outer(grad, grad)
    np.fill_diagonal(values, np.nan)
    return TorsionTensor(web.arity, values)


def pfaffian_derivs(web: WebFunction, p: Sequence[float],
                    gauge: Gauge | None = None) -> PfaffianDerivs:
    n = web.arity
    gauge = gauge or Gauge.zero(n)
    if len(gauge) != n:
        raise ValueError("gauge length must equal the web arity")
    jet = web.jet(p, 3)
    grad = jet.gradient()
    hess = jet.hessian()
    third = np.empty((n, n, n))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                v = jet.deriv((i, j, k))
                third[i - 1, j - 1, k - 1] = v
                third[i - 1, k - 1, j - 1] = v
                third[j - 1, i - 1, k - 1] = v
                third[j - 1, k - 1, i - 1] = v
                third[k - 1, i - 1, j - 1] = v
                third[k - 1, j - 1, i - 1] = v

    a = hess / np.outer(grad, grad)
    np.fill_diagonal(a, 0.0)
    w = np.asarray(gauge.w)
    # a_abg = (1/F_g) d_g a_ab - a_ab (a_ga + a_bg) - a_ab w_g, with
    # zero-diagonal torsion inside the bracket.  Each (a, b) pair is computed
    # once and mirrored, so first-slot symmetry is exact; the gauge term is
    # subtracted separately, so the affine-in-gauge slope -a_ab is exact too.
    vals = np.full((n, n, n), np.nan)
    for al in range(n):
        for be in range(al + 1, n):
            t_ab = a[al, be]
            for g in range(n):
                da = (third[al, be, g]
                      - hess[al, be] * hess[al, g] / grad[al]
                      - hess[al, be] * hess[be, g] / grad[be]) / (grad[al] * grad[be])
                bracket = a[g, al] + a[be, g]
                val = da / grad[g] - t_ab * bracket - t_ab * w[g]
                vals[al, be, g] = val
                vals[be, al, g] = val
    return PfaffianDerivs(n, vals, gauge)
