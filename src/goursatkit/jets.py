"""Truncated multivariate Taylor arithmetic (jets) up to order 4.

A jet over ``m`` active slots at order ``K`` stores the value and the raw
symmetric derivative tensors of orders 1..K in canonical form: one entry per
nondecreasing slot tuple, e.g. the entry for ``(1, 1, 3)`` is the third
partial derivative taken twice along slot 1 and once along slot 3.  Raw
derivatives (not Taylor coefficients) are stored, so reading a mixed partial
needs no factorial bookkeeping.

A jet's data may carry a trailing point axis: shape ``(size,)`` for one
point or ``(size, N)`` for N points, entries-major.  Every kernel indexes
axis 0, so one point and a batch share the same code, and each point's
entries come out bit for bit as if it had been evaluated alone.

All operations are pure; jets are treated as immutable values.  Products use
the position-subset Leibniz expansion (summing over all 2^k position masks of
a result tuple yields exactly the multinomial multiplicities), quotients are
solved triangularly order by order, and unary functions are composed through
Faa di Bruno set partitions.  Per-(m, K) index tables are precomputed once
and shared; they are built by array operations: each slot tuple is encoded
as a base-(m+1) number, and the sub-tuples a mask or a set partition picks
out of every entry of one order are encoded at once and found through one
code-to-position lookup array.  The terms of a product or of a Faa di
Bruno sum are grouped by their rank within their output entry; the entries
that have a rank-r term are a trailing range of the space, so each rank is
one gather and one slice-add, and the terms of an entry are summed in rank
order, as ``np.add.at`` over the ungrouped table would sum them.  ``Jet.partial(i)``
is a gather too: it reads the order K-1 jet of dF/dx_i out of the order K
jet, through an index table cached per space and slot; ``restrict_last`` gathers
through a table cached per (m, K, a_order, target order), and the derivative
tensors of one order through ``derivative_index`` tables cached per (m, k).

``space(m, K, True)`` is a truncated space: it holds every slot tuple of
order below K and only the order-K tuples that end in the last slot m.
A sub-tuple of a kept tuple is kept, so its Leibniz, quotient and Faa di
Bruno tables are complete for every kept entry, and every kept entry sums
the same terms in the same rank order as in the full space: its entries
are bit for bit the full space's.  It serves a jet that is only read
through ``partial(m)`` and through its entries of order below K; at
(7, 4) it keeps 204 of the 330 entries and 2,143 of the 4,159 Leibniz terms.

Every jet carries an order band ``(lo, hi)``: each entry whose order lies
outside ``lo..hi`` is exactly zero.  A seed has ``(0, 1)`` and a constant
``(0, 0)``; a sum joins its operands' bands, a product has ``(lo_a + lo_b,
min(K, hi_a + hi_b))``, a unary function the full band, and
``substitute_last`` gives its increment jet ``(1, K)``.  A product skips
the Leibniz ranks whose left factor's order (the popcount of the rank's
mask) lies outside the left band and cuts each rank to the orders whose
right factor lies in the right band; ``apply_unary`` cuts each Faa di
Bruno rank to the orders whose block sizes all lie in the inner band.

Every jet also carries a slot support, a bitmask with bit i - 1 for slot
i: each entry whose slot tuple holds a slot outside it is exactly zero.  A
seed of slot i has ``{i}`` and a constant ``{}``; a sum, a difference and a
product take the union of their operands' supports, a finite scalar
factor or nonzero divisor and a unary function keep it, and every other
jet (a quotient of jets, a partial, ``restrict_last``, ``substitute_last``,
a ``Jet(...)`` built elsewhere) has all slots.  A product keeps only the
Leibniz terms whose left sub-tuple lies in the left support and whose right
sub-tuple lies in the right one; ``apply_unary`` keeps only the outputs
whose tuple lies in the support, as each of their terms reads a block of
that tuple.  The outputs of one rank are distinct, so a rank that loses
some outputs adds its terms through an index array, in the same rank
order.  The plans are cached per space, bands and supports; on full bands
and supports nothing is skipped.  The product of two seeds at (7, 4, True)
reads 71 of the 2,143 Leibniz terms by bands alone, and at (8, 3) the
product of a jet over 2 slots and one over 3, on full bands, reads 56 of
the 1,121 by supports.

A skipped term is +-0.0, and an entry's sum starts at +0.0 and so is never
-0.0, so every entry comes out bit for bit as on full bands and supports.
That needs finite operands, as ``0 * inf`` is NaN: a product whose operand
holds a non-finite entry runs on full bands and supports, and so does a jet
scaled by a non-finite constant or divided by zero.  A Faa di Bruno term
multiplies up to MAX_ORDER + 1 factors, and a zero factor after an
overflowing partial product gives NaN too, so ``apply_unary`` skips terms
only when every inner entry and outer derivative is at most 2^200 in
magnitude.  :func:`eval_with_bindings` refuses a non-finite constant
operand (``1e308*10*x1``), but ``x1*1e308*10`` overflows only inside a jet
product.

A domain failure (ln/sqrt/power outside the domain, a near-zero divisor,
an exp overflow, a non-finite constant operand) at some points of a batch
raises :class:`PointFailures`, which names each failing point with its own
one-point error; :func:`per_point` evaluates a batch, drops the points that
failed and evaluates the rest again.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import expr as ex

MAX_ORDER = 4
MAX_SLOTS = 63  # a slot support is a bitmask, held in an int64 per entry

_DIV_FLOOR = 1e-300


class JetDomainError(ArithmeticError):
    """ln/sqrt/power/division outside its domain during jet propagation."""


class PointFailures(ArithmeticError):
    """Some points of a batch failed; ``failed`` maps the batch index of each
    failing point to the error a one-point evaluation would raise."""

    def __init__(self, failed: dict[int, ArithmeticError]):
        super().__init__(f"{len(failed)} point(s) failed, first: {next(iter(failed.values()))}")
        self.failed = failed


def _set_partitions(k: int) -> list[list[tuple[int, ...]]]:
    """All partitions of positions {0..k-1} into nonempty blocks."""
    if k == 0:
        return [[]]
    out: list[list[tuple[int, ...]]] = []

    def rec(i: int, blocks: list[list[int]]):
        if i == k:
            out.append([tuple(b) for b in blocks])
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


class JetSpace:
    """Shared index tables for jets over ``m`` slots at order ``K``.

    ``mul_i``, ``mul_j``, ``mul_out`` list the Leibniz terms a[i] * b[j] ->
    out and ``faa_out`` the outputs of the Faa di Bruno terms, both ordered
    by rank within their output entry, then by output.  ``mul_ranks`` and
    ``faa_ranks`` hold one rank each: the first output it reaches (every
    later entry has a term of that rank) and its operand indices.  A Faa di
    Bruno rank has one index array per block of its set partitions, which
    have the same number of blocks in every entry of the rank, so the rank
    takes the outer derivative of that order.  ``div_ranks[k]`` holds, per
    rank, the terms of the order-k entries whose quotient factor has lower
    order.

    A space with ``last`` set is truncated: its order-K tuples are only those
    that end in slot m, so a jet over it has ``partial(m)`` and no other
    partial of its full order.
    """

    __slots__ = ("m", "order", "last", "tuples", "pos", "order_start", "slot_masks", "mul_i",
                 "mul_j", "mul_out", "faa_out", "mul_ranks", "div_ranks", "faa_ranks")

    def __init__(self, m: int, order: int, last: bool, tuples: tuple, order_start: tuple,
                 slot_masks: np.ndarray, mul_ranks: tuple, faa_ranks: tuple):
        self.m = m
        self.order = order
        self.last = last
        self.tuples = tuples
        self.pos = {t: i for i, t in enumerate(tuples)}
        self.order_start = order_start  # order k entries live in [start[k], start[k+1])
        self.slot_masks = slot_masks  # per entry, bit i - 1 set for each slot i of its tuple
        self.mul_ranks = mul_ranks  # ((lo, i, j), ...)
        self.faa_ranks = faa_ranks  # ((lo, entries of block 1, of block 2, ...), ...)
        size = len(tuples)
        self.mul_i = np.concatenate([i for _, i, _ in mul_ranks])
        self.mul_j = np.concatenate([j for _, _, j in mul_ranks])
        self.mul_out = np.concatenate([np.arange(lo, size) for lo, _, _ in mul_ranks])
        self.faa_out = np.concatenate([np.arange(rank[0], size) for rank in faa_ranks])
        # a quotient's order-k entries take every rank but the full mask, c[t] * b[()]
        div_ranks: list[tuple] = [()]
        for k in range(1, order + 1):
            lo, hi = order_start[k], order_start[k + 1]
            div_ranks.append(tuple((i[lo - start:hi - start], j[lo - start:hi - start])
                                   for start, i, j in mul_ranks[:(1 << k) - 1]))
        self.div_ranks = tuple(div_ranks)  # div_ranks[k] = ((i, j), ...)

    @property
    def size(self) -> int:
        return len(self.tuples)


def _codes(digits: np.ndarray, blocks: Sequence, base: int) -> np.ndarray:
    """Codes of the sub-tuples that ``blocks`` (each a list of increasing
    positions) pick out of every row of ``digits``, one column per block; a
    code reads a tuple's slots as the digits of a base-``base`` number."""
    # Horner steps, not a matmul: no run touches numpy's integer matmul
    # otherwise, and its code pages would add to the peak RSS
    codes = np.zeros((len(digits), len(blocks)), dtype=np.intp)
    for col, block in enumerate(blocks):
        for p in block:
            codes[:, col] *= base
            codes[:, col] += digits[:, p]
    return codes


def _rank_table(size: int, lo: int, *columns: np.ndarray) -> tuple:
    """The terms of one rank as (first output, one index array per operand);
    they must reach every entry from their first output on, in order."""
    if any(len(col) != size - lo for col in columns):
        raise AssertionError("a rank must cover a trailing range of entries")
    return (lo,) + columns


@lru_cache(maxsize=None)
def space(m: int, order: int, last: bool | None = None, /) -> JetSpace:
    """The jet space over ``m`` slots at ``order``; truncated to the order-K
    tuples that end in slot m when ``last`` is true.

    Jets combine only within one space object, and the cache keys each
    spelling of the arguments apart, so ``last`` is positional and every
    value of it resolves to ``space(m, order)`` or ``space(m, order, True)``.
    """
    if last is not None and last is not True:
        return space(m, order, True) if last else space(m, order)
    if not (1 <= order <= MAX_ORDER):
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    if not 1 <= m <= MAX_SLOTS:
        raise ValueError(f"slot count must be in 1..{MAX_SLOTS}, got {m}")
    tuples: list[tuple[int, ...]] = [()]
    order_start = [0, 1]
    digits = [np.zeros((1, 0), dtype=np.intp)]  # digits[k]: the order-k tuples, (count, k)
    for k in range(1, order + 1):
        level = list(combinations_with_replacement(range(1, m + 1), k))
        if last and k == order:
            level = [t for t in level if t[-1] == m]
        tuples += level
        order_start.append(len(tuples))
        digits.append(np.array(level, dtype=np.intp))
    size = len(tuples)
    slot_masks = np.concatenate([np.bitwise_or.reduce(1 << (d - 1), axis=1) for d in digits])
    # slots are >= 1, so tuples of different lengths never share a code; the
    # sub-tuples of a kept tuple are kept, so every looked-up code is set
    base = m + 1
    lookup = np.zeros(base ** order, dtype=np.intp)  # code -> position
    for k in range(1, order + 1):
        lookup[_codes(digits[k], [range(k)], base)[:, 0]] = np.arange(order_start[k],
                                                                      order_start[k + 1])

    def sub_tuples(k: int, blocks: list) -> np.ndarray:
        return lookup[_codes(digits[k], blocks, base)]

    # Leibniz terms a[left] * b[right] -> t; a term's position mask is its
    # rank within its output entry, an order-k entry has the ranks below
    # 2^k, and the slots a mask picks out of a sorted tuple are sorted
    leibniz = [sub_tuples(k, [[b for b in range(k) if (mask >> b & 1) == side]
                              for mask in range(1 << k) for side in (1, 0)])
               for k in range(order + 1)]
    mul_ranks = []
    for rank in range(1 << order):
        ks = range(rank.bit_length(), order + 1)
        mul_ranks.append(_rank_table(size, order_start[ks[0]], *(
            np.concatenate([leibniz[k][:, 2 * rank + side] for k in ks]) for side in (0, 1))))

    # Faa di Bruno terms f^(blocks) * (product of the block entries) -> t,
    # ranked by set partition; at orders 1..MAX_ORDER the partitions of one
    # rank all have the same number of blocks, so their columns stack unpadded
    partitions = [_set_partitions(k) for k in range(order + 1)]
    faa = [sub_tuples(k, [block for part in partitions[k] for block in part])
           for k in range(order + 1)]
    faa_ranks = []
    for rank in range(len(partitions[order])):
        ks = [k for k in range(1, order + 1) if rank < len(partitions[k])]
        blocks = []
        for k in ks:
            first = sum(map(len, partitions[k][:rank]))  # the rank's first block column
            blocks.append(faa[k][:, first:first + len(partitions[k][rank])])
        faa_ranks.append(_rank_table(size, order_start[ks[0]],
                                     *np.concatenate(blocks).T.copy()))

    return JetSpace(m, order, bool(last), tuple(tuples), tuple(order_start), slot_masks,
                    tuple(mul_ranks), tuple(faa_ranks))


@lru_cache(maxsize=None)
def _partial_index(sp: JetSpace, i: int) -> np.ndarray:
    """Position in ``sp`` of t + (i,) for each t of space(sp.m, sp.order - 1)."""
    m = sp.m
    if not (1 <= i <= m):
        raise IndexError(f"slot index {i} out of range 1..{m}")
    if sp.last and i != m:
        raise ValueError(f"a space truncated to slot {m} has no partial along slot {i}")
    return np.asarray([sp.pos[tuple(sorted(t + (i,)))] for t in space(m, sp.order - 1).tuples],
                      dtype=np.intp)


@lru_cache(maxsize=None)
def derivative_index(m: int, k: int) -> np.ndarray:
    """Positions of the order-k derivatives as an ``(m,) * k`` array: entry
    ``[i, j, ...]`` is where slot tuple (i+1, j+1, ...) lives in every space
    over m slots of order >= k (tuples are ordered by length first)."""
    pos = space(m, k).pos
    return np.asarray([pos[tuple(sorted(t))] for t in product(range(1, m + 1), repeat=k)],
                      dtype=np.intp).reshape((m,) * k)


@lru_cache(maxsize=None)
def _inside(sp: JetSpace, support: int) -> np.ndarray:
    """Per entry of ``sp``, whether every slot of its tuple is in ``support``."""
    return (sp.slot_masks & ~support) == 0


def _cut(start: int, columns: tuple, keep: np.ndarray) -> tuple | None:
    """(outputs, columns): the outputs from ``start`` on that ``keep``
    selects, a slice when it selects them all, and the operand ``columns``
    cut to them; None when it selects none."""
    if keep.all():
        return slice(start, start + len(columns[0])), columns
    if not keep.any():
        return None
    at = np.flatnonzero(keep)
    return at + start, tuple(col[at] for col in columns)


@lru_cache(maxsize=None)
def _mul_plan(sp: JetSpace, band_a: tuple, band_b: tuple, support_a: int,
              support_b: int) -> tuple:
    """The Leibniz terms that can be nonzero in a product of jets with these
    bands and slot supports, per rank as (outputs, (i, j)), the outputs a
    slice or an index array: a rank's left factor has the order of its
    mask's popcount, the rank is cut to the output orders whose right factor
    lies in ``band_b``, and then to the terms whose left and right sub-tuples
    lie in ``support_a`` and ``support_b``."""
    inside_a, inside_b = _inside(sp, support_a), _inside(sp, support_b)
    plan = []
    for rank, (lo, i, j) in enumerate(sp.mul_ranks):
        left = rank.bit_count()
        first = max(rank.bit_length(), left + band_b[0])
        last = min(sp.order, left + band_b[1])
        if not (band_a[0] <= left <= band_a[1] and first <= last):
            continue
        start, stop = sp.order_start[first], sp.order_start[last + 1]
        i, j = i[start - lo:stop - lo], j[start - lo:stop - lo]
        term = _cut(start, (i, j), inside_a[i] & inside_b[j])
        if term is not None:
            plan.append(term)
    return tuple(plan)


@lru_cache(maxsize=None)
def _faa_plan(sp: JetSpace, band: tuple, support: int) -> tuple:
    """The Faa di Bruno terms that can be nonzero on an inner jet with this
    band and slot support, per rank as (outputs, block index arrays), the
    outputs a slice or an index array: each rank is cut to the orders whose
    set partition has every block size in ``band`` (up to MAX_ORDER those
    orders are contiguous; an order inside the cut that failed the test
    would only add zeros), and then to the outputs whose tuple lies in
    ``support``."""
    inside = _inside(sp, support)
    partitions = [_set_partitions(k) for k in range(sp.order + 1)]
    plan = []
    for rank, (lo, *blocks) in enumerate(sp.faa_ranks):
        kept = [k for k in range(1, sp.order + 1) if rank < len(partitions[k])
                and all(band[0] <= len(b) <= band[1] for b in partitions[k][rank])]
        if not kept:
            continue
        start, stop = sp.order_start[kept[0]], sp.order_start[kept[-1] + 1]
        term = _cut(start, tuple(b[start - lo:stop - lo] for b in blocks), inside[start:stop])
        if term is not None:
            plan.append(term)
    return tuple(plan)


def _domain(bad, values, message: str, error: type = JetDomainError) -> None:
    """Raise where ``bad`` holds: ``error`` for a scalar check,
    :class:`PointFailures` naming each bad point of a batch with its own
    ``error``.  ``message`` is formatted with the offending value as a float."""
    if np.ndim(bad) == 0:
        if bad:
            raise error(message.format(float(values)))
        return
    if bad.any():
        raise PointFailures({int(i): error(message.format(float(values[i])))
                             for i in np.flatnonzero(bad)})


def _nonzero_divisor(b) -> None:
    _domain(np.abs(b) <= _DIV_FLOOR, b, "division by numerically zero jet value {!r}")


def _finite(jet: "Jet") -> bool:
    """Whether every entry of ``jet`` is finite; those outside its band are 0."""
    s = jet.space.order_start
    return bool(np.isfinite(jet.data[s[jet.band[0]]:s[jet.band[1] + 1]]).all())


def _bounded(values) -> bool:
    """Whether every entry of ``values`` is at most 2^200 in magnitude (false
    on NaN): a Faa di Bruno term multiplies at most MAX_ORDER + 1 such
    factors, so none of its partial products overflows."""
    return bool(np.abs(values).max(initial=0.0) <= 2.0 ** 200)


class Jet:
    __slots__ = ("space", "data", "band", "support")

    def __init__(self, space: JetSpace, data: np.ndarray, band: tuple | None = None,
                 support: int | None = None):
        self.space = space
        self.data = data  # (size,) or (size, N), aligned with space.tuples; do not mutate
        # (lo, hi): every entry of an order outside lo..hi is exactly zero
        self.band = (0, space.order) if band is None else band
        # bit i - 1 for slot i: every entry whose tuple holds a slot outside
        # the support is exactly zero
        self.support = (1 << space.m) - 1 if support is None else support

    __array_ufunc__ = None  # numpy operands defer to the reflected jet operators

    @property
    def value(self) -> float:
        return float(self.data[0])

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def slots(self) -> int:
        return self.space.m

    def deriv(self, idx: Sequence[int]) -> float:
        """Raw partial derivative for slot indices ``idx`` (1-based, any order)."""
        sp = self.space
        key = tuple(sorted(idx))
        if len(key) > sp.order:
            raise KeyError(f"order {len(key)} exceeds jet order {sp.order}")
        if key not in sp.pos:
            cut = f", truncated to the order-{sp.order} tuples that end in slot {sp.m}" \
                if sp.last else ""
            raise KeyError(f"slot tuple {key} outside space (m={sp.m}{cut})")
        return float(self.data[sp.pos[key]])

    def _all_of_order(self, k: int) -> None:
        if self.space.last and k >= self.space.order:
            raise ValueError(f"a truncated space holds only part of its order-{k} entries")

    def gradient(self) -> np.ndarray:
        self._all_of_order(1)
        s = self.space.order_start
        return self.data[s[1]:s[2]].copy()

    def hessian(self) -> np.ndarray:
        self._all_of_order(2)
        return self.data[derivative_index(self.space.m, 2)]

    def partial(self, i: int) -> "Jet":
        """Order K-1 jet of the partial derivative along slot ``i`` (1-based)."""
        sp = self.space
        return Jet(space(sp.m, sp.order - 1), self.data[_partial_index(sp, i)])

    # arithmetic -----------------------------------------------------------
    # a non-jet operand is a constant: a scalar, or one value per point

    def _check(self, other: "Jet") -> None:
        if other.space is not self.space:
            raise ValueError(
                "jets must share one space "
                f"(got m={other.space.m},K={other.space.order},last={other.space.last} vs "
                f"m={self.space.m},K={self.space.order},last={self.space.last})"
            )

    def _shifted(self, value) -> "Jet":
        data = self.data.copy()
        data[0] = value
        return Jet(self.space, data, (0, self.band[1]), self.support)

    def _joined(self, other: "Jet", data: np.ndarray) -> "Jet":
        return Jet(self.space, data, (min(self.band[0], other.band[0]),
                                      max(self.band[1], other.band[1])),
                   self.support | other.support)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self._shifted(self.data[0] + other)
        self._check(other)
        return self._joined(other, self.data + other.data)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self._shifted(self.data[0] - other)
        self._check(other)
        return self._joined(other, self.data - other.data)

    def __rsub__(self, other):
        data = -self.data
        data[0] = other - self.data[0]
        return Jet(self.space, data, (0, self.band[1]), self.support)

    def __neg__(self):
        return Jet(self.space, -self.data, self.band, self.support)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if _finite_value(other):
                return Jet(self.space, self.data * other, self.band, self.support)
            return Jet(self.space, self.data * other)  # 0 * inf is NaN
        self._check(other)
        sp = self.space
        a, b = self.data, other.data
        band_a, band_b = self.band, other.band
        support_a, support_b = self.support, other.support
        full, every = (0, sp.order), (1 << sp.m) - 1
        if (band_a, band_b, support_a, support_b) != (full, full, every, every) \
                and not (_finite(self) and _finite(other)):
            # 0 * inf is NaN, so no term is skipped
            band_a = band_b = full
            support_a = support_b = every
        out = np.zeros(a.shape)
        # gathers are fresh arrays, so the products are taken in place; the
        # outputs of one rank are distinct, so += adds each term once
        for at, (i, j) in _mul_plan(sp, band_a, band_b, support_a, support_b):
            term = a[i]
            term *= b[j]
            out[at] += term
        return Jet(sp, out, (band_a[0] + band_b[0], min(sp.order, band_a[1] + band_b[1])),
                   support_a | support_b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            # 0 / 0 is NaN; np.all costs a scalar about 60 times what != does
            nonzero = np.all(other != 0) if isinstance(other, np.ndarray) else other != 0
            if _finite_value(other) and nonzero:
                return Jet(self.space, self.data / other, self.band, self.support)
            return Jet(self.space, self.data / other)
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(constant(other, self.space, self.data.shape[1:]), self)


def constant(value, sp: JetSpace, tail: tuple = ()) -> Jet:
    """Constant jet over the space ``sp``; ``value`` a scalar or one value
    per point (shape ``tail``)."""
    data = np.zeros((sp.size,) + tail)
    data[0] = value
    return Jet(sp, data, (0, 0), 0)


def seed(index: int, value, m: int, order: int, last: bool = False) -> Jet:
    """Jet over ``space(m, order, last)`` of the coordinate function of slot
    ``index`` (1-based) at ``value``, a scalar or one value per point."""
    sp = space(m, order, last)
    if not (1 <= index <= m):
        raise IndexError(f"slot index {index} out of range 1..{m}")
    if (index,) not in sp.pos:  # order 1 of a truncated space keeps slot m alone
        raise ValueError(f"the truncated space({m}, {order}, True) has no first-order entry "
                         f"for slot {index}")
    data = np.zeros((sp.size,) + np.shape(value))
    data[0] = value
    data[sp.pos[(index,)]] = 1.0
    return Jet(sp, data, (0, 1), 1 << (index - 1))


def divide(a: Jet, b: Jet) -> Jet:
    """Quotient a/b via the triangular solve of c*b = a, order by order."""
    if a.space is not b.space:
        raise ValueError("jets must share one space")
    sp = a.space
    b0 = b.data[0]
    _nonzero_divisor(b0)
    c = np.zeros(a.data.shape)
    c[0] = a.data[0] / b0
    for k in range(1, sp.order + 1):
        lo, hi = sp.order_start[k], sp.order_start[k + 1]
        (i, j), *ranks = sp.div_ranks[k]
        partial = c[i]
        partial *= b.data[j]
        partial += 0.0
        for i, j in ranks:
            term = c[i]
            term *= b.data[j]
            partial += term
        np.subtract(a.data[lo:hi], partial, out=partial)
        partial /= b0
        c[lo:hi] = partial
    return Jet(sp, c)


def _outer_derivatives(fn: str, v, order: int, exponent: float | None) -> list:
    """[f(v), f'(v), .., f^(order)(v)] for the supported unary functions;
    ``v`` is a scalar or one value per point."""
    if fn == "exp":
        e = np.exp(v)
        _domain(np.isinf(e) & np.isfinite(v), v, "exp of jet value {!r} overflows", OverflowError)
        return [e] * (order + 1)
    if fn == "ln":
        _domain(v <= 0, v, "ln of non-positive jet value {!r}")
        out = [np.log(v)]
        for j in range(1, order + 1):
            out.append((-1.0) ** (j - 1) * math.factorial(j - 1) / v**j)
        return out
    if fn == "sin":
        cycle = [np.sin(v), np.cos(v), -np.sin(v), -np.cos(v)]
        return [cycle[j % 4] for j in range(order + 1)]
    if fn == "cos":
        cycle = [np.cos(v), -np.sin(v), -np.cos(v), np.sin(v)]
        return [cycle[j % 4] for j in range(order + 1)]
    if fn == "sqrt":
        _domain(v <= 0, v, "sqrt of non-positive jet value {!r}")
        return _outer_derivatives("pow", v, order, 0.5)
    if fn == "pow":
        c = exponent
        if c is None:
            raise ValueError("pow requires an exponent")
        integral = c == int(c)
        if not integral:
            _domain(v <= 0, v, f"base {{!r}} not positive for non-integer exponent {c!r}")
        elif c < 0:
            _domain(v == 0, v, "zero base with negative exponent")
        out = []
        coef = 1.0
        for j in range(order + 1):
            power = c - j
            if coef == 0.0:
                out.append(0.0)
            else:
                # integral c >= 0 where v == 0; 0^0 == 1
                out.append(np.where(v == 0.0, coef if power == 0 else 0.0, coef * v**power))
            coef *= c - j
        return out
    raise ValueError(f"unknown unary function {fn!r}")


def apply_unary(fn: str, a: Jet, exponent: float | None = None) -> Jet:
    """Compose a univariate function with a jet via Faa di Bruno partitions."""
    tail = a.data.shape[1:]
    outer = np.stack([np.broadcast_to(d, tail) for d in
                      _outer_derivatives(fn, a.data[0], a.space.order, exponent)])
    sp = a.space
    band, support = a.band, a.support
    full, every, start = (0, sp.order), (1 << sp.m) - 1, sp.order_start
    if (band, support) != (full, every) and not (
            _bounded(a.data[start[max(band[0], 1)]:start[band[1] + 1]]) and _bounded(outer[1:])):
        # 0 * inf is NaN, and a skipped term may hold an overflowing product
        # of kept factors, so no term is skipped
        band, support = full, every
    out = np.zeros_like(a.data)
    out[0] = outer[0]
    # every entry of a rank has a partition into the same number of blocks,
    # so one outer derivative serves the rank
    for at, (first, *blocks) in _faa_plan(sp, band, support):
        terms = a.data[first]
        for block in blocks:
            terms *= a.data[block]
        terms *= outer[1 + len(blocks)]
        out[at] += terms
    return Jet(sp, out, None, support)


def power(a: Jet, exponent: float) -> Jet:
    return apply_unary("pow", a, exponent)


# a symbol is bound to a jet or a constant: a scalar or one value per point
Binding = Union[Jet, float, np.ndarray]


def _finite_value(value) -> bool:
    """Whether a scalar, or every entry of an array, is finite: math.isfinite
    tests a scalar about 40 times faster than np.isfinite."""
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    return math.isfinite(value)


def _finite_constant(value, node: ex.Node) -> None:
    if not _finite_value(value):
        _domain(~np.isfinite(value), value,
                f"the constant part '{ex.to_text(node)}' is not finite ({{!r}})")


def _unary(fn: str, arg, exponent=None):
    if isinstance(arg, Jet):
        return apply_unary(fn, arg, exponent)
    return _outer_derivatives(fn, arg, 0, exponent)[0]


def _walk(node: ex.Node, bindings: Mapping[str, Binding]):
    """The value of ``node``: a jet, or a constant where no symbol below it
    is bound to a jet.  A constant that meets a jet must be finite."""
    if isinstance(node, ex.Const):
        return np.float64(node.value)  # numpy scalars overflow to inf, as jets do
    if isinstance(node, (ex.Var, ex.Param)):
        if isinstance(node, ex.Var):
            name, missing = f"x{node.index}", f"missing binding for x{node.index}"
        else:
            name, missing = node.name, f"missing binding for parameter '{node.name}'"
        if name not in bindings:
            raise KeyError(missing)
        return bindings[name]
    if isinstance(node, ex.Call):
        return _unary(node.fn, _walk(node.arg, bindings))
    if node.op == "^":  # the parser folds every exponent to a constant
        return _unary("pow", _walk(node.left, bindings), node.right.value)
    left, right = _walk(node.left, bindings), _walk(node.right, bindings)
    if not isinstance(left, Jet):
        if isinstance(right, Jet):
            _finite_constant(left, node.left)
    elif not isinstance(right, Jet):
        _finite_constant(right, node.right)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if not isinstance(right, Jet):
        _nonzero_divisor(right)
    return left / right


def eval_with_bindings(expr: ex.Expr, bindings: Mapping[str, Binding]) -> Jet:
    """Evaluate an expression tree where symbols map to jets or constants.

    The result lives in the space of the jets bound to symbols ('x3', 'a',
    ...), which must share that space and one point axis; a ValueError is
    raised when no symbol is bound to a jet.  Symbols bound to a scalar or
    to one value per point are held constant.  Subtrees without a jet stay
    constants, so the tree is walked once per batch and only the jet nodes
    pay for jet arithmetic.  A constant that meets a jet, or is the result,
    must be finite, as a domain failure.  Every domain check is false on
    NaN, so with NaN-valued jets only the variable-free parts can raise.
    """
    sp = next((v.space for v in bindings.values() if isinstance(v, Jet)), None)
    if sp is None:
        raise ValueError("no symbol is bound to a jet, so the result has no jet space")
    out = _walk(expr.root, bindings)
    if isinstance(out, Jet):
        return out
    _finite_constant(out, expr.root)
    tail = np.broadcast_shapes(*(v.data.shape[1:] if isinstance(v, Jet) else np.shape(v)
                                 for v in bindings.values()))
    return constant(out, sp, tail)


@np.errstate(all="ignore")
def fold_constant(node: ex.Node) -> float:
    """The value of a variable-free subtree by the rules a run applies to it:
    a domain failure or an exp overflow raises, a power may overflow to inf."""
    return float(_walk(node, {}))


def eval_jet(expr: ex.Expr, point: Mapping[str, float],
             active: Sequence[str], order: int) -> Jet:
    """Jet of ``expr`` at ``point`` with respect to the ``active`` symbols.

    ``active`` lists variable/parameter names in slot order (slot i+1 is
    active[i]); all other symbols are held constant at their point value.
    """
    m = len(active)
    bindings: dict[str, Binding] = {}
    for i, name in enumerate(active):
        if name not in point:
            raise KeyError(f"point is missing active symbol '{name}'")
        bindings[name] = seed(i + 1, float(point[name]), m, order)
    for name, val in point.items():
        if name not in bindings:
            bindings[name] = float(val)
    return eval_with_bindings(expr, bindings)


@np.errstate(all="ignore")
def per_point(sp: JetSpace, evaluate: Callable[[np.ndarray], Jet], failures: list) -> Jet:
    """Jet over ``sp`` at every point of a batch, one column per entry of
    ``failures``.

    ``evaluate(rows)`` returns the jet at the batch points ``rows`` (an
    index array).  It is called on the points whose failure is None; when
    it raises :class:`PointFailures` those points get their errors and the
    rest are evaluated again, and any other ``ArithmeticError`` (a failing
    constant) fails every point it was called on.  Failed points get NaN
    columns.  Points do not interact, so a point's entries do not depend on
    which others failed.
    """
    data = np.full((sp.size, len(failures)), np.nan)
    rows = np.flatnonzero([f is None for f in failures])
    while rows.size:
        try:
            data[:, rows] = evaluate(rows).data
            break
        except PointFailures as err:
            failed = err.failed
        except ArithmeticError as err:
            failed = dict.fromkeys(range(rows.size), err)
        for i, error in failed.items():
            failures[rows[i]] = error
        rows = np.delete(rows, list(failed))
    return Jet(sp, data)


def at_one_point(sp: JetSpace, evaluate: Callable[[np.ndarray], Jet]) -> Jet:
    """:func:`per_point` for a batch of one point: raises its failure, or
    returns its one-point jet."""
    failures = [None]
    jet = per_point(sp, evaluate, failures)
    if failures[0] is not None:
        raise failures[0]
    return Jet(sp, jet.data[:, 0])


@lru_cache(maxsize=None)
def _restrict_index(m: int, order: int, a_order: int, target_order: int) -> np.ndarray:
    """Position in space(m, order) of t + (m,) * a_order for each leading t of
    space(m - 1, target_order) whose joint order fits in ``order``."""
    src = space(m, order)
    tail = (m,) * a_order
    # t holds slots below m, so t + tail is already nondecreasing
    return np.asarray([src.pos[t + tail] for t in space(m - 1, target_order).tuples
                       if len(t) + a_order <= order], dtype=np.intp)


def restrict_last(jet: Jet, a_order: int, target: JetSpace) -> Jet:
    """Sub-jet of (d/d last-slot)^a_order applied to ``jet``, over the
    remaining slots, divided by a_order!.

    Entries whose total joint order would exceed the source order are set to
    zero; callers only consume them multiplied by factors of order >= a_order,
    so truncation discards them.
    """
    src = jet.space
    if target.m != src.m - 1:
        raise ValueError("target space must drop exactly the last slot")
    idx = _restrict_index(src.m, src.order, a_order, target.order)
    data = np.zeros((target.size,) + jet.data.shape[1:])
    # tuples are ordered by length, so the entries that fit lead the target
    data[: idx.size] = jet.data[idx] / math.factorial(a_order)
    return Jet(target, data)


def substitute_last(joint: Jet, delta: Jet) -> Jet:
    """Compose a joint jet with an increment jet in its last slot.

    ``joint`` is a jet over m+1 slots (x1..xm, u) at the base point; ``delta``
    is a jet over x1..xm with value 0 describing u - u0 as a function of x.
    Returns the jet over x of the composition, truncated at delta's order.
    """
    if np.any(delta.data[0] != 0.0):
        raise ValueError("delta jet must have zero value")
    target = delta.space
    delta = Jet(target, delta.data, (1, target.order))
    out = restrict_last(joint, 0, target).data
    dpow = None
    for j in range(1, target.order + 1):
        dpow = delta if dpow is None else dpow * delta
        out += (restrict_last(joint, j, target) * dpow).data
    return Jet(target, out)
