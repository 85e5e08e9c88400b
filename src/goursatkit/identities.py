"""Scalar identities linking torsion components and their Pfaffian derivatives.

Naming of the condition families (h ranges over derivative slots):

    m_h   mixed-row closure:  sum of the six products c_pq * a_pqh where
          c_pq is the derivative of the second-kind determinant with respect
          to a_pq; conditions: m_1 = m_2 = m_s = 0 (s >= 6),
          m_3 = C a34 + A a35, m_4 = B a34 + A a45, m_5 = B a35 + C a45.
    n_h   row-1 closure: (a15-a14) a13h + (a13-a15) a14h + (a14-a13) a15h;
          conditions: n_1 = n_2 = 0, n_3 = a13 [(a15-a13) a34 + (a13-a14) a35].
    r_h   row-2 closure: same pattern on the second torsion row;
          conditions: r_1 = r_2 = 0, r_3 = a23 [(a25-a23) a34 + (a23-a24) a35].
    s_h   cross-row difference closure:
          (a23-a25)(a14h - a13h) + (a15-a13)(a24h - a23h), h = 3, 4, 5;
          conditions: s_3 = -C a34, s_4 = B a34, s_5 = C (a35 - a45).
    u_k, v_k  first-column closures, k = 4, 5:
          u_k = (a23-a24) a13k - (a14-a13) a23k,
          v_k = (a23-a24) a14k - (a14-a13) a24k;
          conditions: u_4 = 2A a34, u_5 = 2A a35,
          v_4 - u_4 = -A a34, v_5 - u_5 = A (a34 - a35).

(A, B, C) are the cyclic 2x2 minors of the (1,2)x(3,4,5) torsion block.
All evaluators return condition residuals (left side minus right side), each
with the magnitude of its largest monomial for relative comparison.

Gauge behavior: n_h and r_h are gauge-invariant identically; s_h and m_h are
affine in the gauge with slopes proportional to second-kind residuals (the
cleared difference-ratio and twice the determinant), hence gauge-invariant on
second-kind data; u_k, v_k carry genuinely nonzero slopes and are reported at
the caller's gauge.

Trial axis: the condition algebra works on arrays with leading trial axes,
torsion ``(..., n, n)`` and derivatives ``(..., n, n, n)``, so one pass
evaluates a whole chunk of constrained-random trials; the per-tensor
functions run the same code with no trial axis.  Every trial sees the same
float operations in the same order as a one-trial formula: sums start from
0.0 and add left to right, and maxima are left folds that keep the earlier
value unless a later one is greater, as Python's ``sum`` and ``max`` do.  The
samplers take their trials in chunks of at most ``TRIAL_CHUNK`` and use the
same doubles in the same order as a one-trial-at-a-time loop (``_TrialStream``)
and reduce over exactly the trials that loop would use, so their results do
not depend on the chunk size.  The implication tests share one stream: each
reads a prefix of the same trial sequence, up to its own last accepted trial.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice, permutations
from typing import Sequence

import numpy as np

from .classify import SCALE_FLOOR, cyclic_minors, fold_max, running_max
from .web import Gauge, PfaffianDerivs, TorsionTensor

# trials evaluated per array pass: bounds memory, never changes a result
TRIAL_CHUNK = 256
# constrained-random trials: 5x5 torsion and (5,5,5) derivative draws,
# uniform in [-SPAN, SPAN]; a solve whose pivot is below PIVOT_FLOOR is redrawn
TRIAL_ARITY = 5
SPAN = 2.0
PIVOT_FLOOR = 1e-3

# coefficient of a_pqh in the m-closure: d(det)/d a_pq
M_COEFFS = (
    ((2, 4), (2, 5), (1, 3)),  # (a24 - a25) * a13h
    ((2, 5), (2, 3), (1, 4)),
    ((2, 3), (2, 4), (1, 5)),
    ((1, 5), (1, 4), (2, 3)),
    ((1, 3), (1, 5), (2, 4)),
    ((1, 4), (1, 3), (2, 5)),
)


def _e(x: np.ndarray, alpha: int, beta: int) -> np.ndarray:
    """Entry (alpha, beta), 1-based, of every matrix in the stack ``x``."""
    return x[..., alpha - 1, beta - 1]


def _sum(terms):
    """Left-to-right sum from 0.0, as Python's ``sum``."""
    total = 0.0
    for term in terms:
        total = total + term
    return total


def _scale(monomials: Sequence) -> np.ndarray:
    return fold_max([np.abs(m) for m in monomials] + [SCALE_FLOOR])


class ResidualSet:
    """Residual values paired with their relative-comparison scales."""

    __slots__ = ("values", "scales")

    def __init__(self, values: np.ndarray, scales: np.ndarray):
        self.values = values
        self.scales = scales

    @property
    def relative(self) -> np.ndarray:
        return np.abs(self.values) / self.scales

    @property
    def max_relative(self) -> float:
        return float(self.relative.max()) if self.values.size else 0.0


def first_kind_derivative_residuals(t: TorsionTensor, d: PfaffianDerivs) -> ResidualSet:
    """a24 a13c + a13 a24c - a14 a23c - a23 a14c for c = 1..4 (last axis).

    Vanishes on first-kind webs; the gauge contribution is
    -2 w_c (a13 a24 - a14 a23), so the residual is gauge-invariant exactly
    when the first-kind condition holds.
    """
    tv, dv = t.values, d.values
    monos = [[_e(tv, 2, 4) * dv[..., 0, 2, c], _e(tv, 1, 3) * dv[..., 1, 3, c],
              -_e(tv, 1, 4) * dv[..., 1, 2, c], -_e(tv, 2, 3) * dv[..., 0, 3, c]]
             for c in range(4)]
    return ResidualSet(np.stack([_sum(m) for m in monos], axis=-1),
                       np.stack([_scale(m) for m in monos], axis=-1))


# the index selections (p, q, a, b, c) of the polynomial identities, and the
# 0-based rows and columns that gather their (p, a), (p, b), (p, c) and
# (q, a), (q, b), (q, c) entries
_POLY_KEYS = tuple((p, q) + abc for p, q in ((1, 2), (2, 1)) for abc in permutations((3, 4, 5)))
_POLY_P = np.array([[key[0] - 1] * 3 for key in _POLY_KEYS])
_POLY_Q = np.array([[key[1] - 1] * 3 for key in _POLY_KEYS])
_POLY_COLS = np.array([[i - 1 for i in key[2:]] for key in _POLY_KEYS])


@np.errstate(all="ignore")
def _polynomial_residuals(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, scales) over the trial axes, then one axis for the selections
    in ``_POLY_KEYS`` order and one of length 2: the linear and the quadratic
    residual."""
    pa, pb, pc = np.moveaxis(t[..., _POLY_P, _POLY_COLS], -1, 0)
    qa, qb, qc = np.moveaxis(t[..., _POLY_Q, _POLY_COLS], -1, 0)
    lin = (pa * (qc - qb), pb * (qa - qc), pc * (qb - qa))
    quad = (pa * pa * (qb - qc), pb * pb * (qc - qa), pc * pc * (qa - qb),
            pa * qa * (pc - pb), pb * qb * (pa - pc), pc * qc * (pb - pa))
    return (np.stack([_sum(lin), _sum(quad)], axis=-1),
            np.stack([_scale(lin), _scale(quad)], axis=-1))


def second_kind_polynomial_residuals(t: TorsionTensor) -> dict[tuple, ResidualSet]:
    """The two torsion-only polynomial consequences of the second-kind
    condition, for every admissible index selection.

    Keyed by (p, q, a, b, c) with p != q in {1, 2} and (a, b, c) a permutation
    of (3, 4, 5); each value holds the linear and the quadratic residual.
    """
    values, scales = _polynomial_residuals(t.values)
    return {key: ResidualSet(values[..., k, :], scales[..., k, :])
            for k, key in enumerate(_POLY_KEYS)}


class ConditionValues:
    """Residuals of the named condition families at one point and gauge, or
    at a stack of points (leading axes on every field)."""

    __slots__ = ("m", "n_row1", "r_row2", "s_cross", "u_col", "v_col", "residual40",
                 "residual40_scale")

    def __init__(self, m: ResidualSet, n_row1: ResidualSet, r_row2: ResidualSet,
                 s_cross: ResidualSet, u_col: ResidualSet, v_col: ResidualSet,
                 residual40: float, residual40_scale: float):
        self.m = m              # length n
        self.n_row1 = n_row1    # h = 1, 2, 3
        self.r_row2 = r_row2    # h = 1, 2, 3
        self.s_cross = s_cross  # h = 3, 4, 5
        self.u_col = u_col      # k = 4, 5
        self.v_col = v_col      # k = 4, 5 (conditions on v_k - u_k)
        self.residual40 = residual40
        self.residual40_scale = residual40_scale

    def to_dict(self) -> dict:
        return {
            "m": self.m.values.tolist(),
            "n": self.n_row1.values.tolist(),
            "r": self.r_row2.values.tolist(),
            "s": self.s_cross.values.tolist(),
            "u": self.u_col.values.tolist(),
            "v": self.v_col.values.tolist(),
            "residual40": np.asarray(self.residual40).tolist(),
        }


def _closures(t: np.ndarray, levels: Sequence[int], cross: bool = True) -> dict:
    """What the residuals need of the torsion alone, once per torsion stack:
    per closure, its coefficients (m, n, r: keyed by the derivative entry
    each multiplies), then its right-hand sides at the slots in ``levels``,
    stacked first, +0.0 where there is none, which changes no float; the s
    and u/v closures only with ``cross``.  The evaluators take slices stacked
    alike and return (values, scale terms)."""
    A, B, C = cyclic_minors(t)
    a34, a35, a45 = _e(t, 3, 4), _e(t, 3, 5), _e(t, 4, 5)
    table = {"m": ({tgt: _e(t, *hi) - _e(t, *lo) for hi, lo, tgt in M_COEFFS},
                   {3: C * a34 + A * a35, 4: B * a34 + A * a45, 5: B * a35 + C * a45})}
    if cross:  # s: the coefficients of a14h - a13h, a24h - a23h; u, v: of a13k, a14k, a23k, a24k
        table.update(s=((_e(t, 2, 3) - _e(t, 2, 5), _e(t, 1, 5) - _e(t, 1, 3)),
                        {3: -C * a34, 4: B * a34, 5: C * (a35 - a45)}),
                     uv=((_e(t, 2, 3) - _e(t, 2, 4), _e(t, 1, 4) - _e(t, 1, 3)),
                         {4: 2 * A * a34, 5: 2 * A * a35}, {4: -A * a34, 5: A * (a34 - a35)}))
    for name, row in (("n", 1), ("r", 2)):
        a3, a4, a5 = (_e(t, row, q) for q in (3, 4, 5))
        table[name] = ({(row, 3): a5 - a4, (row, 4): a3 - a5, (row, 5): a4 - a3},
                       {3: a3 * ((a5 - a3) * a34 + (a3 - a4) * a35)})
    shape, zero = (len(levels),) + np.shape(A), np.zeros_like(A)  # levels may be empty
    return {name: (coeffs, *(np.reshape([rhs.get(h, zero) for h in levels], shape)
                             for rhs in sides)) for name, (coeffs, *sides) in table.items()}


def _residual(closure: tuple, slots: np.ndarray, at=slice(None)) -> tuple:
    """An m, n or r closure at the slots ``at``."""
    (coeffs, rhs), dh = closure, slots[at]
    monos = [c * _e(dh, *tgt) for tgt, c in coeffs.items()]
    return _sum(monos) - rhs[at], monos + [rhs[at]]


def _s_residual(closure: tuple, slots: np.ndarray) -> tuple:
    """s_h at h = 3, 4, 5."""
    (cs1, cs2), rhs = closure
    dh, rhs = slots[2:5], rhs[2:5]
    monos = [cs1 * (_e(dh, 1, 4) - _e(dh, 1, 3)), cs2 * (_e(dh, 2, 4) - _e(dh, 2, 3))]
    return _sum(monos) - rhs, monos + [rhs]


def _conditions(table: dict, d: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """The ConditionValues fields over the trial axes, from the closure
    table at every slot: six (values, scales) pairs in field order, then
    residual40 and its scale."""
    slots = np.moveaxis(d, -1, 0)
    (cu, cv), u_rhs, v_rhs = table["uv"]
    dh, u_rhs, v_rhs = slots[3:5], u_rhs[3:5], v_rhs[3:5]  # k = 4, 5
    uv = [cu * _e(dh, 1, 3), cv * _e(dh, 2, 3), cu * _e(dh, 1, 4), cv * _e(dh, 2, 4)]
    u, v, scale = uv[0] - uv[1], uv[2] - uv[3], _scale(uv)
    families = [_residual(table["m"], slots), _residual(table["n"], slots, slice(3)),
                _residual(table["r"], slots, slice(3)), _s_residual(table["s"], slots),
                (u - u_rhs, [scale, u_rhs]), ((v - u) - v_rhs, [scale, v_rhs])]
    # the one-product closure: n_1 - n_2 written with grouped differences
    terms40 = [c * (_e(slots[0], *tgt) - _e(slots[1], *tgt)) for tgt, c in table["n"][0].items()]
    return ([(np.moveaxis(x, 0, -1), np.moveaxis(_scale(terms), 0, -1)) for x, terms in families],
            _sum(terms40), _scale(terms40))


@np.errstate(all="ignore")
def condition_values(t: TorsionTensor, d: PfaffianDerivs) -> ConditionValues:
    """The condition families at one point, or at every point of stacked
    ``t`` and ``d`` (one pass of the batched algebra)."""
    if t.n < 5:
        raise ValueError("condition families need arity n >= 5")
    families, r40, r40_scale = _conditions(_closures(t.values, range(1, t.n + 1)), d.values)
    return ConditionValues(*(ResidualSet(v, s) for v, s in families),
                           residual40=r40[()], residual40_scale=r40_scale[()])


# --- constrained random sampling -------------------------------------------

@np.errstate(all="ignore")
def _candidates(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a23, a25, accepted) of the torsion candidates drawn as ``(..., 5, 5)``
    blocks: a25 solved with pivot a14 - a13, and a candidate kept unless
    that pivot is small or a25 is out of range."""
    # the symmetrized entries, each as (vals + vals.T) / 2.0 computes it
    a13, a14, a15, a23, a24 = ((_e(raw, p, q) + _e(raw, q, p)) / 2.0
                               for p, q in ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4)))
    a25 = (a14 * a23 - a13 * a24 + a15 * a24 - a15 * a23) / (a14 - a13)
    return a23, a25, ~(np.abs(a14 - a13) < PIVOT_FLOOR) & ~(np.abs(a25) > 10 * SPAN)


def sample_second_kind_torsion(rng: np.random.Generator) -> TorsionTensor:
    """Random 5x5 torsion matrix on the second-kind variety.

    All off-diagonal entries are uniform in [-SPAN, SPAN]; a25 is then solved
    from the vanishing of the row-of-ones determinant (linear with pivot
    a14 - a13, redrawn while the pivot is small).
    """
    while True:
        raw = rng.uniform(-SPAN, SPAN, size=(TRIAL_ARITY, TRIAL_ARITY))
        _, a25, accepted = _candidates(raw)
        if accepted:
            vals = (raw + raw.T) / 2.0
            vals[1, 4] = vals[4, 1] = a25
            return TorsionTensor.from_matrix(vals)


def sample_derivs(rng: np.random.Generator) -> PfaffianDerivs:
    """Random 5x5x5 Pfaffian derivatives, uniform in [-SPAN, SPAN], zero gauge."""
    return PfaffianDerivs.from_array(rng.uniform(-SPAN, SPAN, size=(TRIAL_ARITY,) * 3),
                                     Gauge.zero(TRIAL_ARITY))


class _TrialStream:
    """The draws of a one-trial-at-a-time loop on ``rng``, read ahead in blocks.

    Per trial that loop draws 5x5 torsion candidates until one is accepted
    (:func:`sample_second_kind_torsion`), then, where the trial needs derivatives, one
    (5, 5, 5) draw.  Every draw is a whole number of 25-double blocks, so the
    stream reads its blocks ``(B, 5, 5)`` at a time and computes every
    block's a25 and acceptance with :func:`_candidates`.  ``derivs`` says
    which trials draw: "always", "never", or "s-pivot" (those whose s-pivot
    is not small); ``slots``, if given, the derivative slots to gather.

    The walk over the blocks is that loop's, one block past a rejected
    candidate and one or six past a trial, taken in leaps: a bisection in the
    sorted numbers of the accepted blocks finds the next trial, and the
    trials from there a stride apart (six blocks, one if none draws) are
    taken at once, up to the first block on that stride that is rejected or
    a trial that draws nothing.

    Reading ahead leaves ``rng`` past the doubles the trials used, so the
    stream must own it.  Where a walk one block at a time would first find a
    trial that could run past the buffer, the stream reads the blocks the
    trials still wanted take without rejections.  A read computes and copies
    to the buffer only its new blocks, and each draw gathers from the buffer.
    """

    def __init__(self, rng: np.random.Generator, derivs: str, slots: Sequence[int] | None = None):
        self._rng, self._derivs = rng, derivs
        self._stride = 1 if derivs == "never" else 1 + TRIAL_ARITY
        self._slots = None if slots is None else np.asarray(slots, dtype=np.intp) - 1
        # the blocks read and their a25 from stream number ``_base`` on, and the
        # stream numbers of the first block not walked past and of the next to read
        self._raw, self._a25 = np.empty((0, TRIAL_ARITY, TRIAL_ARITY)), np.empty(0)
        self._base = self._start = self._end = 0
        # sorted stream numbers of the accepted blocks, and of the blocks whose
        # step is not the stride (rejected, or a trial that draws nothing)
        self._accepted: list[int] = []
        self._irregular: list[int] = []

    def _read(self, blocks: int) -> None:
        """Append ``blocks`` new blocks; with no room, move the kept ones to the front."""
        raw = self._rng.uniform(-SPAN, SPAN, size=(blocks, TRIAL_ARITY, TRIAL_ARITY))
        a23, a25, accepted = _candidates(raw)
        irregular = ~accepted
        if self._derivs == "s-pivot":  # as the s-pivot of the solved matrix
            irregular |= np.abs(a23 - a25) < PIVOT_FLOOR
        self._accepted += (np.flatnonzero(accepted) + self._end).tolist()
        self._irregular += (np.flatnonzero(irregular) + self._end).tolist()
        kept, lo = self._end - self._start, self._end - self._base
        if lo + blocks > len(self._a25):
            bufs = (self._raw, self._a25)
            if kept + blocks > len(self._a25):  # with room for a few top-ups
                size = kept + blocks + 8 * self._stride
                bufs = tuple(np.empty((size,) + x.shape[1:]) for x in bufs)
            for buf, x in zip(bufs, (self._raw, self._a25)):
                buf[:kept] = x[lo - kept:lo]
            (self._raw, self._a25), self._base, lo = bufs, self._start, kept
        self._raw[lo:lo + blocks], self._a25[lo:lo + blocks] = raw, a25
        self._end += blocks

    def draw(self, size: int) -> tuple:
        """The next ``size`` trials: (torsion stack; derivative stack ``d``, 0 where
        a trial draws none, with ``slots`` the pair ``d[:, :2, :, s]``, ``d[:, :, :2, s]``
        at their 0-based ``s``, or None if the stream draws none; drawn mask)."""
        at, drawn, p, stride = [], [], self._start, self._stride
        while len(at) < size:
            k = bisect_left(self._accepted, p)
            q = self._accepted[k] if k < len(self._accepted) else self._end
            if q + stride > self._end:
                self._read(stride * (size - len(at)))
                continue
            # the trials from q a stride apart, up to the last one wanted, the
            # end of the buffer or the first irregular block on the stride
            end = q + stride * min(size - len(at), (self._end - q) // stride)
            irregular = islice(self._irregular, bisect_left(self._irregular, q), None)
            p = min(end, next((x for x in irregular if x >= end or (x - q) % stride == 0), end))
            at += range(q, p, stride)
            drawn += [stride > 1] * ((p - q) // stride)
            if p == q:  # an accepted irregular block: a trial that draws nothing
                at.append(q)
                drawn.append(False)
                p += 1
        at, drawn = np.array(at, dtype=np.intp) - self._base, np.array(drawn, dtype=bool)
        t = self._raw[at]
        t = (t + t.swapaxes(-1, -2)) / 2.0
        t[:, 1, 4] = t[:, 4, 1] = self._a25[at]
        d = None
        if self._derivs != "never":
            # every trial started with a stride of blocks in the buffer
            blocks = at[:, None] + np.arange(1, TRIAL_ARITY + 1)
            d = (self._raw[blocks],) if self._slots is None else tuple(
                x[..., self._slots] for x in (self._raw[blocks[:, :2]], self._raw[:, :2][blocks]))
            for x in d:
                x[~drawn] = 0.0
            d = d[0] if self._slots is None else d
        del self._accepted[:bisect_left(self._accepted, p)]
        del self._irregular[:bisect_left(self._irregular, p)]
        self._start = p
        return t, d, drawn


def polynomial_sweep(trials: int, seed: int) -> float:
    """Worst relative residual of the polynomial identities over ``trials``
    second-kind torsion draws from ``default_rng(seed)``."""
    stream = _TrialStream(np.random.default_rng(seed), "never")
    worst, done = 0.0, 0
    while done < trials:
        size = min(TRIAL_CHUNK, trials - done)
        t, _, _ = stream.draw(size)
        values, scales = _polynomial_residuals(t)
        # per selection as ResidualSet.max_relative: a NaN propagates
        worst = running_max(worst, (np.abs(values) / scales).max(axis=-1))
        done += size
    return worst


@dataclass(frozen=True)
class ImplicationResult:
    imposed: tuple[str, str]
    checked: str
    trials: int
    rejected: int
    max_relative: float


# the implication tests as (imposed, checked); imposed may come in either order
PAIRINGS = ((("m", "n"), "r"), (("n", "r"), "m"), (("m", "r"), "n"))
# per sorted imposed pair, its solves in order: (closure, the derivative entry
# solved for, whose coefficient is the pivot); the mixed closure is solved last,
# and the n and r solves touch disjoint entries, so their order changes no float
_SOLVES = {
    ("m", "n"): (("n", (1, 3)), ("m", (2, 3))),
    ("n", "r"): (("n", (1, 3)), ("r", (2, 3))),
    ("m", "r"): (("r", (2, 3)), ("m", (1, 3))),
}


def _level_stack(d: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``(L, N, 2, 5)``: the stream's pair, symmetrized as PfaffianDerivs.from_array does."""
    return np.moveaxis((d[0] + d[1].swapaxes(1, 2)) / 2.0, -1, 0)


@np.errstate(all="ignore")
def _implication_trials(t: np.ndarray, d: tuple, pairs: Sequence[tuple[tuple[str, str], str]],
                        levels: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per pair, trial and level h, solve each imposed closure for its
    ``_SOLVES`` entry, then evaluate the checked one; returns per pair
    (accepted, worst relative residual of the checked one, folded over the
    levels in order), from the stream's pair ``d`` at the slots ``levels``.
    A trial is rejected at any level where a pivot is small or a solved
    closure fails to re-check.  With the m, n and r closures built once per
    chunk and the levels stacked, each solve and check is one array pass."""
    table, level = _closures(t, levels, cross=False), _level_stack(d)
    out, solved = [], {}
    for imposed, checked in pairs:
        accepted, dh = np.ones(len(t), dtype=bool), level.copy()
        for name, (i, j) in _SOLVES[tuple(sorted(imposed))]:
            # a solve depends only on the solves before it: none for the n and
            # r solves, which read only the row they write, and the same one
            # for an m solve in every pair that has it; so each is done once
            if (name, i, j) not in solved:
                pivot = table[name][0][i, j]
                value, _ = _residual(table[name], dh)
                # value is (closure - rhs) with the current unknown included; zero it
                dh[..., i - 1, j - 1] -= value / pivot
                check, _ = _residual(table[name], dh)
                solved[name, i, j] = dh[..., i - 1, j - 1].copy(), ~(
                    (np.abs(pivot) < PIVOT_FLOOR)
                    | (np.abs(check) > 1e-9 * fold_max([1.0, np.abs(value)]))).any(axis=0)
            dh[..., i - 1, j - 1], ok = solved[name, i, j]
            accepted &= ok
        value, terms = _residual(table[checked], dh)
        out.append((accepted, fold_max([np.zeros(len(t)), *(np.abs(value) / _scale(terms))])))
    return out


def implication_tests(trials: int, seed: int,
                      pairs: Sequence[tuple[tuple[str, str], str]] = PAIRINGS,
                      levels: Sequence[int] = (1, 2, 3)) -> list[ImplicationResult]:
    """:func:`implication_test` for each ``(imposed, checked)`` pair, all
    read from one trial stream.

    Every test reads a prefix of the same trial sequence, up to its
    ``trials``-th accepted trial, so each chunk is evaluated in one pass for
    every test that still needs trials, and a test drops the trials of a
    chunk after the one that completes it.
    """
    pairs = [(tuple(imposed), checked) for imposed, checked in pairs]
    if any((tuple(sorted(imposed)), checked) not in PAIRINGS for imposed, checked in pairs):
        raise ValueError("each pair must be one of PAIRINGS, up to the order of imposed")
    stream = _TrialStream(np.random.default_rng(seed), "always", levels)
    worst, rejected, done = [0.0] * len(pairs), [0] * len(pairs), [0] * len(pairs)
    while min(done, default=trials) < trials:
        # a chunk never holds more than the most missing accepted trials, so
        # every trial in it is one the one-at-a-time loop of some test draws
        t, d, _ = stream.draw(min(TRIAL_CHUNK, trials - min(done)))
        open_tests = [i for i in range(len(pairs)) if done[i] < trials]
        rows = _implication_trials(t, d, [pairs[i] for i in open_tests], levels)
        for i, (accepted, trial_worst) in zip(open_tests, rows):
            # the test's last trial is its (trials - done)-th accepted one
            last = np.flatnonzero(accepted)[trials - done[i] - 1:][:1]
            if last.size:
                accepted, trial_worst = accepted[:last[0] + 1], trial_worst[:last[0] + 1]
            rejected[i] += int(np.count_nonzero(~accepted))
            done[i] += int(np.count_nonzero(accepted))
            worst[i] = running_max(worst[i], trial_worst[accepted])
    return [ImplicationResult(imposed, checked, trials, r, w)
            for (imposed, checked), r, w in zip(pairs, rejected, worst)]


def implication_test(trials: int, seed: int, imposed: tuple[str, str],
                     checked: str, levels: Sequence[int] = (1, 2, 3)) -> ImplicationResult:
    """Impose two of the three condition systems on constrained random data
    and report the worst relative residual of the third.

    Rejected trials are redrawn until ``trials`` have been accepted.
    """
    return implication_tests(trials, seed, [(imposed, checked)], levels)[0]


@dataclass(frozen=True)
class WitnessResult:
    found: bool
    trials_used: int
    s_max_relative: float       # how well the imposed conditions hold
    uv_max_relative: float      # size of the checked residual at the witness


@np.errstate(all="ignore")
def _witness_trials(t: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve s_3 = s_4 = s_5 = 0 for a14h per trial; returns the relative
    residuals (worst s, worst of u and v) of the adjusted data.  Each s_h
    reads and solves its own slot only, so all three are solved at once."""
    table = _closures(t, range(1, TRIAL_ARITY + 1))
    pivot = table["s"][0][0]  # coefficient of a14h in s_h
    d = (d + d.swapaxes(-3, -2)) / 2.0  # as PfaffianDerivs.from_array
    value, _ = _s_residual(table["s"], np.moveaxis(d, -1, 0))
    d[:, 0, 3, 2:5] -= (value / pivot).T
    d[:, 3, 0, 2:5] = d[:, 0, 3, 2:5]
    families, _, _ = _conditions(table, d)
    # per family as ResidualSet.max_relative
    s_rel, u_rel, v_rel = ((np.abs(v) / s).max(axis=-1) for v, s in families[3:])
    return s_rel, fold_max([u_rel, v_rel])


def witness_search(trials: int, seed: int, threshold: float = 1e-2) -> WitnessResult:
    """Search for constrained data satisfying the cross-row difference
    conditions while violating one of the first-column conditions.

    Demonstrates that the s-family does not imply the u/v-family.  Trials
    whose s-pivot is small are skipped without a derivative draw.  A witness
    is usually among the first trials, so the chunks grow from one trial,
    doubling up to ``TRIAL_CHUNK``.
    """
    stream = _TrialStream(np.random.default_rng(seed), "s-pivot")
    used, chunk = 0, 1
    while used < trials:
        t, d, drawn = stream.draw(min(chunk, trials - used))
        s_rel, uv_rel = _witness_trials(t, d)
        hits = np.flatnonzero(drawn & (s_rel <= 1e-10) & (uv_rel > threshold))
        if hits.size:
            i = hits[0]
            return WitnessResult(True, used + int(i) + 1, float(s_rel[i]), float(uv_rel[i]))
        used += len(t)
        chunk = min(2 * chunk, TRIAL_CHUNK)
    return WitnessResult(False, trials, float("nan"), float("nan"))
