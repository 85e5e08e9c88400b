"""Pfaffian systems in coordinates: ranks, kernels, Frobenius integrability.

Systems are lists of 1-form fields with jet-evaluable coefficients.  The
named systems are defined in one place, the ``SYSTEMS`` table below: each
generator is a list of (slot, coefficient) pairs whose coefficients are
signed sums of products of partial derivatives of the defining function F,
and ``Jet.partial`` plus jet arithmetic supply their Jacobians.

Integrability is tested by the differential-forms criterion: for each
generator t^i of a system spanned by t^1..t^k, the (k+2)-form
d t^i ^ t^1 ^ ... ^ t^k must vanish.  This avoids constructing a smooth
kernel basis and works at a single point from order-1 jets of the
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .web import Point, WebFunction, as_point

RANK_TOL = 1e-8  # singular values below this fraction of the largest count as zero
DEFAULT_FROBENIUS_TOL = 1e-7
NON_INTEGRABLE_FLOOR = 1e-3
NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class CoFormField:
    """A 1-form field: coefficient values and their Jacobian at a point.

    ``evaluate(p)`` returns (c, dc) with c[i] the dx_{i+1} coefficient and
    dc[i, j] = d c_i / d x_{j+1}.
    """

    arity: int
    label: str
    evaluate: Callable[[Point], tuple[np.ndarray, np.ndarray]]

    def coefficients(self, p: Sequence[float]) -> np.ndarray:
        return self.evaluate(as_point(p, self.arity))[0]

    @classmethod
    def constant(cls, coeffs: Sequence[float], label: str) -> "CoFormField":
        c = np.asarray(coeffs, dtype=float)
        n = len(c)
        zero = np.zeros((n, n))
        return cls(n, label, lambda p: (c.copy(), zero.copy()))

    @classmethod
    def coordinate(cls, n: int, index: int) -> "CoFormField":
        c = np.zeros(n)
        c[index - 1] = 1.0
        return cls.constant(c, f"dx{index}")

    @classmethod
    def gradient(cls, web: WebFunction) -> "CoFormField":
        """dF: coefficients F_i, Jacobian the (symmetric) Hessian."""
        def ev(p: Point):
            jet = web.jet(p, 2, check_regularity=False)
            return jet.gradient(), jet.hessian()
        return cls(web.arity, "dF", ev)


@dataclass(frozen=True)
class PfaffianSystem:
    """Named list of 1-form fields plus constant coordinate forms dx_s."""

    name: str
    arity: int
    fields: tuple[CoFormField, ...]
    sigma: tuple[int, ...] = ()
    expected_kernel_dim: int | None = None

    def __post_init__(self):
        if len(self.fields) + len(self.sigma) > self.arity:
            raise ValueError("more generators than the arity allows")
        for f in self.fields:
            if f.arity != self.arity:
                raise ValueError("field arity mismatch")

    @property
    def generators(self) -> tuple[CoFormField, ...]:
        return self.fields + tuple(
            CoFormField.coordinate(self.arity, s) for s in self.sigma)


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


def _row_field(web: WebFunction, row) -> CoFormField:
    """The form of a SYSTEMS row; each coefficient is built as an order-1 jet
    from the order-3 jet of F, so its Jacobian comes out of the arithmetic."""
    n = web.arity

    def ev(p: Point):
        jet = web.jet(p, 3)

        def factor(idx: tuple[int, ...]):
            part = jet
            for i in idx:
                part = part.partial(i)
            return part.truncated(1)

        c = np.zeros(n)
        dc = np.zeros((n, n))
        for slot, terms in row:
            coeff = sum(sign * math.prod(factor(idx) for idx in factors)
                        for sign, *factors in terms)
            c[slot - 1] = coeff.data[0]
            dc[slot - 1] = coeff.data[1:]
        return c, dc

    return CoFormField(n, _row_label(row), ev)


def make_system(web: WebFunction, name: str) -> PfaffianSystem:
    n = web.arity
    name = name.upper()
    if name not in SYSTEMS:
        raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")
    if name.startswith("DELTA") and n < 5:
        raise ValueError(f"{name} needs arity n >= 5, got {n}")
    rows, first_sigma, kernel_dim = SYSTEMS[name]
    return PfaffianSystem(name, n, tuple(_row_field(web, row) for row in rows),
                          tuple(range(first_sigma, n + 1)), kernel_dim)


def coefficient_matrix(sys: PfaffianSystem, p: Sequence[float]) -> np.ndarray:
    return np.array([g.coefficients(p) for g in sys.generators])


def _rank(sv: np.ndarray) -> int:
    """Numerical rank from singular values in descending order."""
    if sv.size == 0 or not sv[0] > 0.0:
        return 0
    return int((sv > RANK_TOL * sv[0]).sum())


def rank_at(sys: PfaffianSystem, p: Sequence[float]) -> tuple[int, int]:
    """(rank, kernel dimension) of the span at p, by singular values."""
    rank = _rank(np.linalg.svd(coefficient_matrix(sys, p), compute_uv=False))
    return rank, sys.arity - rank


def kernel_basis(sys: PfaffianSystem, p: Sequence[float]) -> np.ndarray:
    """Orthonormal basis (columns) of the common kernel at p."""
    _, sv, vt = np.linalg.svd(coefficient_matrix(sys, p))
    return vt[_rank(sv):].T


def subspace_distance(b1: np.ndarray, b2: np.ndarray) -> float:
    """Operator-norm distance between orthogonal projectors onto the spans."""
    p1 = b1 @ b1.T
    p2 = b2 @ b2.T
    return float(np.linalg.norm(p1 - p2, 2))


def d_form(f: CoFormField, p: Sequence[float]) -> np.ndarray:
    """Exterior derivative coefficients (dt)_ij = d_i c_j - d_j c_i."""
    _, jac = f.evaluate(as_point(p, f.arity))
    return jac.T - jac


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
    return np.array(cols), subsets[:, p], subsets[:, q], rest, (-1.0) ** (p + q - 1)


def _wedge_max(dtheta: np.ndarray, minors: np.ndarray, table: tuple) -> float:
    """Max absolute coefficient of dtheta ^ theta_1 ^ ... ^ theta_k.

    Expansion over index subsets: for each sorted subset S of size k+2 and
    each position pair p<q inside S, the contribution is
    (-1)^(p+q-1) dtheta[S_p, S_q] * minor of the theta rows on S without p, q.
    ``minors`` holds those minors for every row of the table's ``cols``.
    Each subset's pairs are added one position pair at a time, in order,
    skipping pairs with dtheta[S_p, S_q] == 0.
    """
    _, i, j, rest, sign = table
    a = dtheta[i, j]
    terms = np.where(a == 0.0, 0.0, sign * a * minors[rest])
    total = np.zeros(len(terms))
    for column in terms.T:
        total = total + column
    size = np.abs(total)
    return float(np.max(size, where=size > 0.0, initial=0.0))


@dataclass(frozen=True)
class FrobeniusReport:
    system: str
    point: np.ndarray = field(repr=False)
    rank: int
    kernel_dim: int
    residuals: tuple[float, ...]
    tol: float
    verdict: str  # integrable | non_integrable | inconclusive | degenerate

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "point": np.asarray(self.point).tolist(),
            "rank": self.rank,
            "kernel_dim": self.kernel_dim,
            "residuals": list(self.residuals),
            "max_residual": self.max_residual,
            "tol": self.tol,
            "verdict": self.verdict,
        }


def frobenius_residual(sys: PfaffianSystem, p: Sequence[float],
                       tol: float = DEFAULT_FROBENIUS_TOL) -> FrobeniusReport:
    """Normalized residuals of d t^i ^ t^1 ^ ... ^ t^k per generator.

    Residuals are divided by ||d t^i|| times the product of generator norms
    (floored at 1e-12); a generator with d t^i = 0 contributes residual 0.
    Verdict: 'integrable' below tol, 'non_integrable' above the 1e-3 floor,
    'inconclusive' between, 'degenerate' when the generators are dependent
    at p.
    """
    point = as_point(p, sys.arity)
    gens = sys.generators
    k = len(gens)
    evaluated = [g.evaluate(point) for g in gens]
    coeffs = [c for c, _ in evaluated]
    mat = np.array(coeffs)
    rank = _rank(np.linalg.svd(mat, compute_uv=False))
    if rank < k:
        return FrobeniusReport(sys.name, point, rank, sys.arity - rank, (), tol,
                               "degenerate")
    norms = [max(float(np.linalg.norm(c)), NORM_FLOOR) for c in coeffs]
    norm_product = float(np.prod(norms))
    wedge = k + 2 <= sys.arity
    if wedge:
        # the k-column minors of the generator matrix, shared by every generator
        table = _wedge_table(sys.arity, k)
        minors = np.linalg.det(mat[:, table[0]].transpose(1, 0, 2))
    residuals = []
    for _, jac in evaluated:
        dtheta = jac.T - jac
        dnorm = float(np.sqrt((dtheta[_triu(sys.arity)] ** 2).sum()))
        if dnorm == 0.0:
            residuals.append(0.0)
            continue
        raw = _wedge_max(dtheta, minors, table) if wedge else 0.0
        residuals.append(raw / max(dnorm * norm_product, NORM_FLOOR))
    worst = max(residuals)
    if worst < tol:
        verdict = "integrable"
    elif worst > NON_INTEGRABLE_FLOOR:
        verdict = "non_integrable"
    else:
        verdict = "inconclusive"
    return FrobeniusReport(sys.name, point, rank, sys.arity - rank,
                           tuple(residuals), tol, verdict)
