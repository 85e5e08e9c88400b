"""Pfaffian systems in coordinates: ranks and Frobenius integrability.

Systems are lists of 1-form fields with jet-evaluable coefficients.  The
named systems are defined in one place, the ``SYSTEMS`` table below: each
generator is a list of (slot, coefficient) pairs whose coefficients are
signed sums of products of partial derivatives of the defining function F,
built with their Jacobians by jet arithmetic on a point's or a batch's jet.
:func:`frobenius_columns` works on all points at once (a stacked SVD and
determinant); :func:`frobenius_reports` is its per-point view and
:func:`frobenius_residual` its one-point call.

Integrability is tested by the differential-forms criterion: for each
generator t^i of a system spanned by t^1..t^k, the (k+2)-form
d t^i ^ t^1 ^ ... ^ t^k must vanish.  This avoids constructing a smooth
kernel basis and works at a single point from order-1 jets of the
coefficients.  Most generators are the constant coordinate forms dx_s,
s in sigma, and wedging with them kills every dx_sigma component, so a
batch builds no dx_s row: the wedge is expanded on the free slots, over
the minors of the field rows there, which also give the ranks.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import combinations
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .classify import fold_max
from .jets import Jet, _partial_index, space
from .web import (JET_ORDER, DerivativeBundle, Point, WebFunction, as_point, as_points,
                  derivative_bundle)

RANK_TOL = 1e-8  # singular values below this fraction of the largest count as zero
DEFAULT_FROBENIUS_TOL = 1e-7
NON_INTEGRABLE_FLOOR = 1e-3
NORM_FLOOR = 1e-12
NON_FINITE = "non-finite generator coefficients"


class CoFormField:
    """A 1-form field: coefficient values and their Jacobian at a point.

    ``evaluate(p)`` returns (c, dc) with c[i] the dx_{i+1} coefficient and
    dc[i, j] = d c_i / d x_{j+1}; a ``SYSTEMS`` ``row`` also runs on a batch jet.
    """

    __slots__ = ("arity", "label", "evaluate", "row")

    def __init__(self, arity: int, label: str,
                 evaluate: Callable[[Point], tuple[np.ndarray, np.ndarray]],
                 row: list | None = None):
        self.arity = arity
        self.label = label
        self.evaluate = evaluate
        self.row = row

    def coefficients(self, p: Sequence[float]) -> np.ndarray:
        return self.evaluate(as_point(p, self.arity))[0]

    @classmethod
    def constant(cls, coeffs: Sequence[float], label: str) -> "CoFormField":
        c = np.asarray(coeffs, dtype=float)
        n = len(c)
        zero = np.zeros((n, n))
        return cls(n, label, lambda p: (c.copy(), zero.copy()))


class PfaffianSystem:
    """Named list of 1-form fields plus constant coordinate forms dx_s, one
    per sigma slot (distinct ints in 1..arity); a ``SYSTEMS`` system keeps the
    web its rows are read from."""

    __slots__ = ("name", "arity", "fields", "sigma", "expected_kernel_dim", "web")

    def __init__(self, name: str, arity: int, fields: tuple[CoFormField, ...],
                 sigma: tuple[int, ...] = (), expected_kernel_dim: int | None = None,
                 web: WebFunction | None = None):
        if not fields and not sigma:
            raise ValueError("a system needs at least one generator")
        if len(fields) + len(sigma) > arity:
            raise ValueError("more generators than the arity allows")
        if len(set(sigma)) < len(sigma) or not all(
                isinstance(s, (int, np.integer)) and 1 <= s <= arity for s in sigma):
            raise ValueError(f"sigma slots must be distinct ints in 1..{arity}, got {sigma}")
        for f in fields:
            if f.arity != arity:
                raise ValueError("field arity mismatch")
        self.name = name
        self.arity = arity
        self.fields = fields
        self.sigma = sigma
        self.expected_kernel_dim = expected_kernel_dim
        self.web = web


# A coefficient is a signed sum of products of partial derivatives of F: a
# list of terms (sign, idx, idx, ...), one index tuple per factor, so
# [(+1, (3,), (1, 4)), (-1, (4,), (1, 3))] is F3 F14 - F4 F13.  A generator
# row lists (slot, coefficient) pairs; the form is sum coefficient dx_slot.
# SYSTEMS maps each name to (rows, first sigma slot s0, expected kernel
# dimension); the system adds dx_s for s0 <= s <= n.  Common nonzero factors
# of the torsion-weighted forms are cleared (kernels and integrability
# verdicts are unchanged; the normalized residual makes thresholds
# scale-free).
_THETA_1 = [(3, [(+1, (1, 3))]), (4, [(+1, (1, 4))])]
_THETA_2 = [(3, [(+1, (2, 3))]), (4, [(+1, (2, 4))])]
_RHO_3 = [(1, [(+1, (1, 3))]), (2, [(+1, (2, 3))])]
_RHO_4 = [(1, [(+1, (1, 4))]), (2, [(+1, (2, 4))])]

SYSTEMS = {
    "S10": ([_THETA_1], 5, 3),
    "S11": ([_THETA_2], 5, 3),
    "S12": ([_RHO_3], 5, 3),
    "S13": ([_RHO_4], 5, 3),
    "S10_11": ([_THETA_1, _THETA_2], 5, 2),
    "THETA_RHO": ([_THETA_1, _RHO_3], 5, 2),
    "DELTA2": ([[(3, [(+1, (3,))]), (4, [(+1, (4,))]), (5, [(+1, (5,))])],
                [(3, [(+1, (1, 3))]), (4, [(+1, (1, 4))]), (5, [(+1, (1, 5))])],
                [(3, [(+1, (2, 3))]), (4, [(+1, (2, 4))]), (5, [(+1, (2, 5))])],
                [(1, [(+1, (1,))]), (2, [(+1, (2,))])]], 6, 2),
    "DELTA3": ([[(1, [(+1, (1, b))]), (2, [(+1, (2, b))]), (3, [(+1, (b,), (3,))])]
                for b in (3, 4, 5)], 6, 3),
    "DELTA4": ([[(4, [(+1, (3,), (1, 4)), (-1, (4,), (1, 3))]),
                 (5, [(+1, (3,), (1, 5)), (-1, (5,), (1, 3))])]], 6, 4),
    "DELTA4B": ([[(4, [(+1, (3,), (2, 4)), (-1, (4,), (2, 3))]),
                  (5, [(+1, (3,), (2, 5)), (-1, (5,), (2, 3))])]], 6, 4),
    "DELTA4P": ([[(1, [(+1, (3,), (1, 4)), (-1, (4,), (1, 3))]),
                  (2, [(+1, (3,), (2, 4)), (-1, (4,), (2, 3))])]], 6, 4),
}

SYSTEM_NAMES = tuple(SYSTEMS)


def _row_label(row) -> str:
    """A SYSTEMS row in the README's notation, e.g. '(F3 F14 - F4 F13) dx4'."""
    def coefficient(terms) -> str:
        text = " ".join(("- " if sign < 0 else "+ ")
                        + " ".join("F" + "".join(map(str, idx)) for idx in factors)
                        for sign, *factors in terms).removeprefix("+ ")
        return f"({text})" if len(terms) > 1 else text
    return " + ".join(f"{coefficient(terms)} dx{slot}" for slot, terms in row)


@lru_cache(maxsize=None)
def _factor_index(m: int, idx: tuple[int, ...]) -> np.ndarray:
    """Positions, in a jet of F over m slots of order above len(idx), of the
    order-1 jet of F_idx: the ``_partial_index`` tables composed (lower
    orders are a prefix)."""
    pos = np.arange(space(m, len(idx) + 1).size)
    for taken, i in enumerate(idx):
        pos = pos[_partial_index(space(m, len(idx) + 1 - taken), i)]
    return pos


def _factor(jet: Jet, idx: tuple[int, ...]) -> Jet:
    """Order-1 jet of the partial F_idx (1-based slots) from a jet of F."""
    return Jet(space(jet.slots, 1), jet.data[_factor_index(jet.slots, idx)])


def _row_values(row, jet: Jet) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (..., n) and Jacobians (..., n, n) of a SYSTEMS row from the
    order-3 jet of F at a point or a batch: jet products of partials of F,
    each coefficient's terms summed from 0.0 in table order."""
    n, tail = jet.slots, jet.data.shape[1:]
    out = np.zeros(tail + (n, n + 1))
    for slot, terms in row:
        total = 0.0
        for sign, *factors in terms:
            product = reduce(mul, [_factor(jet, idx) for idx in factors])
            total = total + product.data * float(sign)
        out[..., slot - 1, :] = total.T  # the point axis, if any, first
    return out[..., 0], out[..., 1:]


def _row_at(web: WebFunction, row, p: Point) -> tuple[np.ndarray, np.ndarray]:
    return _row_values(row, web.jet(p, JET_ORDER))


def make_system(web: WebFunction, name: str) -> PfaffianSystem:
    n = web.arity
    name = name.upper()
    if name not in SYSTEMS:
        raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")
    if name.startswith("DELTA") and n < 5:
        raise ValueError(f"{name} needs arity n >= 5, got {n}")
    rows, first_sigma, kernel_dim = SYSTEMS[name]
    fields = tuple(CoFormField(n, _row_label(row), partial(_row_at, web, row), row)
                   for row in rows)
    return PfaffianSystem(name, n, fields, tuple(range(first_sigma, n + 1)), kernel_dim, web)


def coefficient_matrix(sys: PfaffianSystem, p: Sequence[float]) -> np.ndarray:
    return _stacked(sys, _generators(sys, [p])[1])[0]


def _stacked(sys: PfaffianSystem, coeffs: np.ndarray) -> np.ndarray:
    """Field rows (N, kf, n) with one dx_s row appended per sigma slot."""
    units = np.eye(sys.arity)[[s - 1 for s in sys.sigma]]
    return np.concatenate([coeffs, np.broadcast_to(units, (len(coeffs),) + units.shape)], 1)


def _generators(sys: PfaffianSystem, points) -> tuple:
    """The points (N, n), the coefficients (N, kf, n) of the field rows and
    their exterior derivatives dtheta = J.T - J (N, kf, n, n), in ``fields``
    order; the dx_s rows are left out.  ``points`` is an (N, n) array or a
    :class:`DerivativeBundle`.  Field rows run on the batch jet of the
    bundle (by default, of the web at the points, if any), other fields
    stack their ``evaluate`` output."""
    b = points if isinstance(points, DerivativeBundle) else None
    points = as_points(points if b is None else b.points, sys.arity)
    if b is None and sys.web is not None:
        b = derivative_bundle(sys.web, points)
    jet = None if b is None else Jet(space(sys.arity, JET_ORDER), b.data.T)
    coeffs = np.zeros((len(points), len(sys.fields), sys.arity))
    dtheta = np.zeros(coeffs.shape + (sys.arity,))
    for g, field in enumerate(sys.fields):
        if jet is not None and field.row is not None:
            coeffs[:, g], jac = _row_values(field.row, jet)
        else:
            jac = np.zeros((len(points), sys.arity, sys.arity))
            for i, p in enumerate(points):
                coeffs[i, g], jac[i] = field.evaluate(as_point(p, sys.arity))
        dtheta[:, g] = jac.swapaxes(-1, -2) - jac
    return points, coeffs, dtheta


def _rank(sv: np.ndarray, units: int = 0):
    """Numerical ranks from descending singular values (last axis) and ``units`` more 1.0s."""
    top = sv.max(axis=-1, initial=1.0 if units else 0.0, keepdims=True)
    count = (sv > RANK_TOL * top).sum(axis=-1) + units * (1.0 > RANK_TOL * top[..., 0])
    return np.where(top[..., 0] > 0.0, count, 0)[()]


def rank_at(sys: PfaffianSystem, p: Sequence[float]) -> tuple[int, int]:
    """(rank, kernel dimension) of the span at p, by the singular values of
    :func:`coefficient_matrix`; a non-finite coefficient raises ArithmeticError."""
    matrix = coefficient_matrix(sys, p)
    if not np.isfinite(matrix).all():
        raise ArithmeticError(NON_FINITE)
    rank = int(_rank(np.linalg.svd(matrix, compute_uv=False)))
    return rank, sys.arity - rank


@lru_cache(maxsize=None)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, 1)


@lru_cache(maxsize=None)
def _wedge_table(n: int, k: int) -> tuple[np.ndarray, ...]:
    """Index tables for dtheta ^ theta_1 ^ ... ^ theta_k in n slots.

    ``cols`` lists the k-subsets of the slots in ``combinations`` order.  The
    other tables have one row per sorted (k+2)-subset S and one column per
    position pair p<q inside S, both in ``combinations`` order: the pair's
    slots ``i = S_p``, ``j = S_q`` and the row ``rest`` of ``cols`` holding
    S without them; ``sign = (-1)^(p+q-1)`` has one entry per pair.
    """
    cols = list(combinations(range(n), k))
    row_of = {c: r for r, c in enumerate(cols)}
    subsets = np.array(list(combinations(range(n), k + 2)))
    p, q = np.array(list(combinations(range(k + 2), 2))).T
    rest = np.array([[row_of[tuple(x for r, x in enumerate(s) if r not in (a, b))]
                      for a, b in zip(p, q)] for s in subsets.tolist()])
    return (np.array(cols, dtype=np.intp), subsets[:, p], subsets[:, q], rest,
            (-1.0) ** (p + q - 1))


def _wedge_max(dtheta: np.ndarray, minors: np.ndarray, table: tuple):
    """Max absolute coefficient of dtheta ^ theta_1 ^ ... ^ theta_k, over the
    leading axes of ``dtheta`` (..., n, n) and ``minors`` (..., len(cols)).

    Expansion over index subsets: for each sorted subset S of size k+2 and
    each position pair p<q inside S, the contribution is
    (-1)^(p+q-1) dtheta[S_p, S_q] * minor of the theta rows on S without p, q.
    ``minors`` holds those minors for every row of the table's ``cols``.
    Each subset's pairs are added one position pair at a time, in order,
    skipping pairs with dtheta[S_p, S_q] == 0.
    """
    _, i, j, rest, sign = table
    total = 0.0
    for col in range(len(sign)):
        a = dtheta[..., i[:, col], j[:, col]]
        total = total + np.where(a == 0.0, 0.0, sign[col] * a * minors[..., rest[:, col]])
    size = np.abs(total)
    return np.max(size, axis=-1, where=size > 0.0, initial=0.0)


class FrobeniusReport:
    __slots__ = ("system", "point", "rank", "kernel_dim", "residuals", "tol", "verdict")

    def __init__(self, system: str, point: np.ndarray, rank: int, kernel_dim: int,
                 residuals: tuple[float, ...], tol: float, verdict: str):
        self.system, self.point, self.rank, self.kernel_dim = system, point, rank, kernel_dim
        self.residuals, self.tol, self.verdict = residuals, tol, verdict  # one of VERDICTS

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


# sorted, so counts indexed by verdict code come out in name order
VERDICTS = ("degenerate", "inconclusive", "integrable", "non_integrable")
DEGENERATE = VERDICTS.index("degenerate")


class FrobeniusColumns:
    """One system's results at N points, by column: ``finite`` (N,) is False
    where a generator coefficient is not finite (that row holds no result);
    ``ranks`` (N,); ``residuals`` (N, k), no part of a degenerate result;
    ``worst`` (N,), each row's ``fold_max``; ``codes`` (N,), indexes into VERDICTS."""

    __slots__ = ("system", "tol", "points", "finite", "ranks", "residuals", "worst", "codes")

    def __init__(self, system: str, tol: float, points, finite, ranks, residuals, worst, codes):
        self.system, self.tol, self.points, self.finite = system, tol, points, finite
        self.ranks, self.residuals, self.worst, self.codes = ranks, residuals, worst, codes


def frobenius_residual(sys: PfaffianSystem, p: Sequence[float],
                       tol: float = DEFAULT_FROBENIUS_TOL) -> FrobeniusReport:
    """:func:`frobenius_reports` at one point; a non-finite generator
    coefficient raises ArithmeticError."""
    report, = frobenius_reports(sys, [p], tol)
    if report is None:
        raise ArithmeticError(NON_FINITE)
    return report


def frobenius_reports(sys: PfaffianSystem, points,
                      tol: float = DEFAULT_FROBENIUS_TOL) -> list[FrobeniusReport | None]:
    """:func:`frobenius_columns` as one report per point, None where a
    generator coefficient is not finite."""
    c = frobenius_columns(sys, points, tol)
    rows = zip(c.points, c.finite.tolist(), c.ranks.tolist(), c.residuals.tolist(),
               c.codes.tolist())
    return [FrobeniusReport(sys.name, p, rank, sys.arity - rank,
                            () if code == DEGENERATE else tuple(res), tol, VERDICTS[code])
            if ok else None for p, ok, rank, res, code in rows]


def frobenius_columns(sys: PfaffianSystem, points,
                      tol: float = DEFAULT_FROBENIUS_TOL) -> FrobeniusColumns:
    """Normalized residuals of d t^i ^ t^1 ^ ... ^ t^k per generator at every
    point, as :class:`FrobeniusColumns`.  ``points`` is an ``(N, n)`` array,
    or a :class:`~goursatkit.web.DerivativeBundle`, whose points are taken
    with the jets it holds.

    The wedge is taken on the free slots F outside sigma:
    d t^i ^ t^1 ^ ... ^ t^k = +-(d t^i|F ^ fields|F) ^ dx_sigma has the same
    largest absolute coefficient, from the minors of the field rows on F.
    Residuals are divided by ||d t^i|| times the product of generator norms
    (floored at 1e-12); a generator with d t^i = 0 (every dx_s, a row never
    built: its norm is 1.0) contributes residual 0.  Ranks count singular
    values of the field rows on F beside |sigma| values 1.0, or of the full
    matrix at a point where a field is nonzero in a sigma slot.
    Verdict: 'integrable' below tol, 'non_integrable' above the 1e-3 floor,
    'inconclusive' between, 'degenerate' when the generators are dependent
    at p.  Every point sees the float operations of a one-point evaluation.
    """
    points, coeffs, dtheta = _generators(sys, points)
    n, kf, sigma = sys.arity, len(sys.fields), [s - 1 for s in sys.sigma]
    finite = np.isfinite(coeffs).all(axis=(1, 2))
    coeffs = np.where(finite[:, None, None], coeffs, 0.0)
    free = [s for s in range(n) if s not in sigma]
    rows = coeffs[:, :, free]
    ranks = _rank(np.linalg.svd(rows, compute_uv=False), len(sigma))
    touch = coeffs[..., sigma].any(axis=(1, 2))
    if touch.any():
        ranks[touch] = _rank(np.linalg.svd(_stacked(sys, coeffs[touch]), compute_uv=False))
    # a row times a column sums as np.linalg.norm does for one row
    norms = np.maximum(np.sqrt((coeffs[..., None, :] @ coeffs[..., None])[..., 0, 0]),
                       NORM_FLOOR)
    iu, ju = _triu(n)
    # take fills a C-ordered array, so each row sums as a single row does
    upper = np.take(dtheta.reshape(*dtheta.shape[:2], n * n), iu * n + ju, axis=-1)
    dnorm = np.sqrt(np.square(upper, out=upper).sum(axis=-1))
    raw = np.zeros_like(dnorm)
    if kf + 2 <= len(free):
        # the wedge on the free slots (see above): one stacked determinant takes every minor
        table = _wedge_table(len(free), kf)
        minors = np.linalg.det(rows[:, :, table[0]].transpose(0, 2, 1, 3))
        raw = _wedge_max(dtheta[..., free, :][..., free], minors[:, None, :], table)
    scale = np.maximum(dnorm * norms.prod(axis=-1)[:, None], NORM_FLOOR)
    residuals = np.zeros((len(points), kf + len(sigma)))  # the dx_s columns stay 0.0
    residuals[:, :kf] = np.where(dnorm == 0.0, 0.0, raw / scale)
    worst = fold_max(list(residuals.T))
    # codes into VERDICTS: degenerate, integrable, non_integrable, else inconclusive
    codes = np.select([ranks < residuals.shape[1], worst < tol, worst > NON_INTEGRABLE_FLOOR],
                      [0, 2, 3], 1)
    return FrobeniusColumns(sys.name, tol, points, finite, ranks, residuals, worst, codes)
