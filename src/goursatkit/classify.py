"""First/second-kind conditions in torsion and PDE form, plus sampling classifier.

Every condition is reported both raw and relative; the relative form divides
by the largest monomial entering the condition, floored at 1e-12, so verdicts
are invariant under rescaling the defining function.  The torsion forms take
a tensor or a stack of them and the PDE forms a derivative bundle, so a run
evaluates every point at once; the per-point PDE functions are one-point
bundles.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Sequence

import numpy as np

from .web import DerivativeBundle, TorsionTensor, WebFunction, derivative_bundle

SCALE_FLOOR = 1e-12
DEFAULT_TOL = 1e-7
OVERSAMPLE = 10  # draws allowed per wanted regular point


class TooFewRegularPoints(RuntimeError):
    def __init__(self, found: int, wanted: int, attempts: int):
        super().__init__(
            f"only {found}/{wanted} regular sample points after {attempts} draws"
        )
        self.found = found
        self.wanted = wanted


class Box:
    """Axis-aligned sampling box, one (lo, hi) pair per coordinate."""

    __slots__ = ("bounds",)

    def __init__(self, bounds: tuple[tuple[float, float], ...]):
        for lo, hi in bounds:
            # a width that overflows would make the uniform draw raise
            if not (lo < hi and math.isfinite(float(hi) - float(lo))):
                raise ValueError(f"invalid box interval ({lo}, {hi})")
        self.bounds = bounds

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @classmethod
    def cube(cls, n: int, lo: float, hi: float) -> "Box":
        return cls(((float(lo), float(hi)),) * n)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lows = np.array([b[0] for b in self.bounds])
        highs = np.array([b[1] for b in self.bounds])
        return rng.uniform(lows, highs, size=(count, self.dim))


def sample_bundle(web: WebFunction, box: Box, count: int, seed: int) -> DerivativeBundle:
    """Deterministic regular-point sample with its jets; draws up to
    OVERSAMPLE*count points in batches of ``count``, each evaluated in one
    call, and keeps the regular draws and their jet rows in draw order."""
    if box.dim != web.arity:
        raise ValueError("box dimension must match the web arity")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    points, rows = [], []
    attempts = 0
    while len(points) < count and attempts < OVERSAMPLE * count:
        batch = box.sample(rng, count)
        data, failures = web.jets(batch)
        for p, row, failure in zip(batch, data, failures):
            attempts += 1
            if failure is None:
                points.append(p)
                rows.append(row)
                if len(points) == count:
                    break
    if len(points) < count:
        raise TooFewRegularPoints(len(points), count, attempts)
    return DerivativeBundle(np.array(points), np.array(rows))


def sample_regular_points(web: WebFunction, box: Box, count: int, seed: int) -> np.ndarray:
    """The points of :func:`sample_bundle`."""
    return sample_bundle(web, box, count, seed).points


def fold_max(items):
    """Elementwise Python ``max`` over items that are NaN or non-negative
    (never -0.0): a later item replaces the running value only when it is
    greater, so a NaN in first place is kept and a later NaN is skipped, as
    ``np.fmax`` skips it.  A scalar result is a numpy float."""
    best = items[0]
    for item in items[1:]:
        best = np.fmax(best, item)
    return np.where(np.isnan(items[0]), items[0], best)[()]


def running_max(worst: float, values: np.ndarray) -> float:
    """``worst = max(worst, x)`` folded over ``values``: only values greater
    than the running maximum can replace it, so NaNs never do."""
    return float(np.max(values, where=values > worst, initial=worst))


def _rel(value, monomials: Sequence):
    return np.abs(value) / fold_max([np.abs(m) for m in monomials] + [SCALE_FLOOR])


def _first_kind(m: np.ndarray) -> tuple:
    """m13*m24 - m14*m23 over the last two axes, raw and relative."""
    x = m[..., 0, 2] * m[..., 1, 3]
    y = m[..., 0, 3] * m[..., 1, 2]
    return x - y, _rel(x - y, (x, y))


def _row_det(top: np.ndarray, m: np.ndarray) -> tuple:
    """The rows [top3, top4, top5], [m13, m14, m15], [m23, m24, m25] over the
    last axes, and their determinant."""
    rows = np.stack([top[..., 2:5], m[..., 0, 2:5], m[..., 1, 2:5]], axis=-2)
    return rows, np.linalg.det(rows)


def first_kind_residual(t: TorsionTensor) -> tuple[float, float]:
    """a13*a24 - a14*a23, raw and relative (arrays for a stack of tensors)."""
    return _first_kind(t.values)


def first_kind_pde(b: DerivativeBundle) -> tuple[np.ndarray, np.ndarray]:
    """Cleared determinant F13*F24 - F14*F23 at every bundle point, raw and
    relative.

    Equals F1*F2*F3*F4 times the torsion-form residual, so the two forms
    agree after normalization.
    """
    return _first_kind(b.hess)


def first_kind_pde_residual(web: WebFunction, p: Sequence[float]) -> tuple[float, float]:
    """:func:`first_kind_pde` at one point."""
    raw, rel = first_kind_pde(derivative_bundle(web, [p]))
    return float(raw[0]), float(rel[0])


class SecondKindResiduals:
    """The four equivalent second-kind conditions evaluated on one tensor.

    det24 is the 3x3 determinant with a row of ones over the (1,2)x(3,4,5)
    torsion block; sum25 is the cyclic sum of its three 2x2 column minors
    (identically equal to det24); expr26 is the six-product expansion
    (identically 2*det24); cross27 clears denominators in the difference-ratio
    form for the index choice (p,q,a,b,c) = (1,2,3,4,5).
    """

    __slots__ = ("det24", "sum25", "expr26", "cross27", "scale")

    def __init__(self, det24: float, sum25: float, expr26: float, cross27: float,
                 scale: float):
        self.det24 = det24
        self.sum25 = sum25
        self.expr26 = expr26
        self.cross27 = cross27
        self.scale = scale

    @property
    def det24_rel(self) -> float:
        return abs(self.det24) / self.scale

    @property
    def cross27_rel(self) -> float:
        return abs(self.cross27) / self.scale


def torsion_minors(t: TorsionTensor) -> tuple[float, float, float]:
    """The cyclic 2x2 minors (A, B, C) of the (1,2)x(3,4,5) torsion block.

    A + B + C equals the row-of-ones determinant, hence vanishes exactly on
    second-kind webs.
    """
    if t.n < 5:
        raise ValueError("torsion minors need arity n >= 5")
    A, B, C = cyclic_minors(t.values)
    return float(A), float(B), float(C)


def cyclic_minors(values: np.ndarray) -> tuple:
    """:func:`torsion_minors` of a torsion matrix, or of a stack of them
    along leading axes (one array per minor)."""
    a13, a14, a15 = (values[..., 0, q] for q in (2, 3, 4))
    a23, a24, a25 = (values[..., 1, q] for q in (2, 3, 4))
    return (a13 * a24 - a14 * a23,
            a14 * a25 - a15 * a24,
            a15 * a23 - a13 * a25)


def second_kind_residuals(t: TorsionTensor) -> SecondKindResiduals:
    """The four forms on a tensor, or on a stack of them (array fields)."""
    if t.n < 5:
        raise ValueError("second-kind conditions need arity n >= 5")
    v = t.values
    a13, a14, a15 = (v[..., 0, q] for q in (2, 3, 4))
    a23, a24, a25 = (v[..., 1, q] for q in (2, 3, 4))
    _, det24 = _row_det(np.ones(v.shape[:-1]), v)
    A, B, C = cyclic_minors(v)
    sum25 = A + B + C
    expr26 = (a13 * (a24 - a25) + a14 * (a25 - a23) + a15 * (a23 - a24)
              + a23 * (a15 - a14) + a24 * (a13 - a15) + a25 * (a14 - a13))
    cross27 = (a13 - a14) * (a23 - a25) - (a23 - a24) * (a13 - a15)
    scale = fold_max([abs(a13 * a24), abs(a14 * a23), abs(a14 * a25),
                      abs(a15 * a24), abs(a15 * a23), abs(a13 * a25), SCALE_FLOOR])
    return SecondKindResiduals(det24, sum25, expr26, cross27, scale)


def second_kind_pde(b: DerivativeBundle) -> tuple[np.ndarray, np.ndarray]:
    """det [[F3,F4,F5],[F13,F14,F15],[F23,F24,F25]] at every bundle point, raw
    and relative to the largest expansion monomial."""
    if b.n < 5:
        raise ValueError("second-kind PDE needs arity n >= 5")
    rows, det = _row_det(b.grad, b.hess)
    monos = [rows[..., 0, c0] * rows[..., 1, c1] * rows[..., 2, c2]
             for c0, c1, c2 in permutations(range(3))]
    return det, _rel(det, monos)


def second_kind_pde_residual(web: WebFunction, p: Sequence[float]) -> tuple[float, float]:
    """:func:`second_kind_pde` at one point."""
    det, rel = second_kind_pde(derivative_bundle(web, [p]))
    return float(det[0]), float(rel[0])


class ClassificationReport:
    __slots__ = ("n", "tol", "seed", "points", "first_rel", "first_pde_rel", "second_rel",
                 "second_pde_rel", "degenerate_rows")

    def __init__(self, n: int, tol: float, seed: int, points: np.ndarray,
                 first_rel: np.ndarray, first_pde_rel: np.ndarray,
                 second_rel: np.ndarray | None = None, second_pde_rel: np.ndarray | None = None,
                 degenerate_rows: tuple[bool, bool] = (False, False)):
        self.n = n
        self.tol = tol
        self.seed = seed
        self.points = points
        self.first_rel = first_rel  # torsion form, per point
        self.first_pde_rel = first_pde_rel
        self.second_rel = second_rel
        self.second_pde_rel = second_pde_rel
        self.degenerate_rows = degenerate_rows

    # a kind holds when both of its forms are below tol at every point; a
    # non-finite residual in either form fails it
    @property
    def first_kind(self) -> bool:
        return bool(self.first_rel.max() < self.tol and self.first_pde_rel.max() < self.tol)

    @property
    def second_kind(self) -> bool | None:
        if self.second_rel is None:
            return None
        return bool(self.second_rel.max() < self.tol and self.second_pde_rel.max() < self.tol)

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "tol": self.tol,
            "seed": self.seed,
            "points": self.points.tolist(),
            "first_kind": self.first_kind,
            "first_kind_residuals": {
                "torsion_form_rel": self.first_rel.tolist(),
                "pde_form_rel": self.first_pde_rel.tolist(),
            },
            "degenerate_rows": list(self.degenerate_rows),
        }
        if self.second_rel is not None:
            out["second_kind"] = self.second_kind
            out["second_kind_residuals"] = {
                "det_form_rel": self.second_rel.tolist(),
                "pde_form_rel": self.second_pde_rel.tolist(),
            }
        else:
            out["second_kind"] = None
        return out


def classify(web: WebFunction, box: Box, count: int = 32,
             tol: float = DEFAULT_TOL, seed: int = 0) -> ClassificationReport:
    """Sample the box and test the kind conditions in all equivalent forms.

    Deterministic under a fixed seed; points failing regularity are resampled
    (up to ten times the requested count).
    """
    return classify_bundle(sample_bundle(web, box, count, seed), tol, seed)


def classify_bundle(b: DerivativeBundle, tol: float = DEFAULT_TOL,
                    seed: int = 0) -> ClassificationReport:
    """The kind conditions at every point of a derivative bundle."""
    t = TorsionTensor(b.n, b.torsion_values())
    has_second = b.n >= 5
    cols = (3, 4, 5) if has_second else (3, 4)
    return ClassificationReport(
        n=b.n, tol=tol, seed=seed, points=b.points,
        first_rel=first_kind_residual(t)[1], first_pde_rel=first_kind_pde(b)[1],
        second_rel=second_kind_residuals(t).det24_rel if has_second else None,
        second_pde_rel=second_kind_pde(b)[1] if has_second else None,
        degenerate_rows=(t.row_vanishes(1, cols), t.row_vanishes(2, cols)),
    )
