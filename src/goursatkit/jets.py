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

Expressions are evaluated on compact jets.  A :class:`CompactJet` holds a
jet over a space ``top`` in the space of its own slots (a bitmask with bit
i - 1 for slot i of ``top``), through an order-preserving map of those
slots into the slots of ``top``: :func:`compact_seeds` gives each symbol a
seed over one slot, and :func:`eval_compact` holds a bound :class:`Jet`
over all of its slots.  ``x1*x3`` then lives in the space over two slots.
A scalar shift or factor and a unary function keep their operand's slots;
a jet-jet sum, difference or quotient embeds its operands into the space
over the union of their slots, through positions cached per (slots,
union, top).  A product runs in the union's space too, but reads each
factor in its own space: it keeps only the Leibniz terms whose left
sub-tuple lies in the left factor's slots and whose right sub-tuple lies
in the right one's, and a kept sub-tuple's position in its factor's space
is its rank among the entries over that factor's slots.  The outputs of
one rank are distinct, so a rank that loses some outputs adds its terms
through an index array, in the same rank order.  The plans are cached per
space, bands and slots; on full bands and slots nothing is skipped.  The
product of two seeds at (7, 4, True) reads 71 of the 2,143 Leibniz terms
by bands alone, and the product of a jet over 2 slots and one over 3, on
full bands, reads 56 of the 351 of their union's space (5, 3).
:func:`eval_with_bindings` builds the jet over all of ``top`` once, at
the end; a compact jet over all of them is the case where the map is the
identity, and the compact result of one evaluation may be bound in
another (a second-kind family binds psi's into phi).  An order-preserving
map keeps each tuple's position masks and set partitions in their order,
so every entry sums the same terms in the same rank order as over all
slots.  Over a truncated ``top``, the space of a set of slots keeps the
top-order tuples that end in the last slot when the set holds that slot,
and has no top-order tuple (its order is one less) when it does not; so
the family webs' joint jets over (x1..xn, a) are compact too.

The entries outside a compact jet's slots are not always +0.0: a negative
factor, a negation and ``c - x`` turn them to -0.0, a per-point factor to
one signed zero per point, and a quotient to the zero that solves
``c * b0 = outside``.  A compact jet records that outside value and writes
it wherever it is embedded or expanded, and a sum combines its operands'
outside values, so a -0.0 survives as it does over all slots.

A skipped term is +-0.0, and an entry's sum starts at +0.0 and so is never
-0.0, so every entry comes out bit for bit as on full bands over all
slots.  That needs finite operands, as ``0 * inf`` is NaN: a product whose
operand holds a non-finite entry runs on full bands, and so does a jet
scaled by a non-finite constant or divided by zero.  A Faa di Bruno term
multiplies up to MAX_ORDER + 1 factors, and a zero factor after an
overflowing partial product gives NaN too, so ``apply_unary`` skips terms
only when every inner entry and outer derivative is at most 2^200 in
magnitude.  Where these rules run a kernel on every entry, a compact
operand is first expanded to all slots, where such a term writes NaN
outside its slots too (``x3*x1^(-2000)``).  So does a quotient of compact
jets that holds a non-finite entry, from finite operands too
(``1e10/(x1*1e-299)`` overflows), as ``c[()] * b[t]`` is then NaN outside
the union.  Over a truncated ``top``, a compact jet without the last slot
has one order less, but its unary function tests f^(K) as the jet over
all slots does.  :func:`eval_with_bindings` refuses a non-finite constant
operand (``1e308*10*x1``), but ``x1*1e308*10`` overflows only inside a
jet product.

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
MAX_SLOTS = 63  # a slot set is a bitmask, held in an int64 per entry

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
    order.  The Leibniz tables (``mul_*``, ``div_ranks``) and the Faa di
    Bruno ones (``faa_*``) are built on first use: many spaces serve only
    gathers and embeddings.

    A space with ``last`` set is truncated: its order-K tuples are only those
    that end in slot m, so a jet over it has ``partial(m)`` and no other
    partial of its full order.
    """

    __slots__ = ("m", "order", "last", "tuples", "pos", "order_start", "slot_masks", "_digits",
                 "_lookup", "mul_i", "mul_j", "mul_out", "faa_out", "mul_ranks", "div_ranks",
                 "faa_ranks")

    def __init__(self, m: int, order: int, last: bool, digits: list):
        self.m = m
        self.order = order
        self.last = last
        self.tuples = tuple(t for d in digits for t in map(tuple, d.tolist()))
        self.pos = {t: i for i, t in enumerate(self.tuples)}
        # order k entries live in [start[k], start[k+1])
        self.order_start = tuple(np.cumsum([0] + [len(d) for d in digits]).tolist())
        # per entry, bit i - 1 set for each slot i of its tuple
        self.slot_masks = np.concatenate([np.bitwise_or.reduce(1 << (d - 1), axis=1)
                                          for d in digits])
        self._digits = digits  # digits[k]: the order-k tuples, (count, k)
        self._lookup = None

    def __getattr__(self, name: str):
        # called only for a slot not set yet: a table built on first use
        if name in ("mul_i", "mul_j", "mul_out", "mul_ranks", "div_ranks"):
            self._leibniz_tables()
        elif name in ("faa_out", "faa_ranks"):
            self._faa_tables()
        else:
            raise AttributeError(name)
        return object.__getattribute__(self, name)

    @property
    def size(self) -> int:
        return len(self.tuples)

    def _sub_tuples(self, k: int, blocks: list) -> np.ndarray:
        """Positions of the sub-tuples that ``blocks`` pick out of every
        order-k entry, one column per block."""
        base, start = self.m + 1, self.order_start
        if self._lookup is None:
            # slots are >= 1, so tuples of different lengths never share a
            # code; the sub-tuples of a kept tuple are kept, so every
            # looked-up code is set
            self._lookup = np.zeros(base ** self.order, dtype=np.intp)  # code -> position
            for j in range(1, self.order + 1):
                codes = _codes(self._digits[j], [range(j)], base)[:, 0]
                self._lookup[codes] = np.arange(start[j], start[j + 1])
        return self._lookup[_codes(self._digits[k], blocks, base)]

    def _leibniz_tables(self) -> None:
        # Leibniz terms a[left] * b[right] -> t; a term's position mask is its
        # rank within its output entry, an order-k entry has the ranks below
        # 2^k, and the slots a mask picks out of a sorted tuple are sorted
        order, start, size = self.order, self.order_start, self.size
        leibniz = [self._sub_tuples(k, [[b for b in range(k) if (mask >> b & 1) == side]
                                        for mask in range(1 << k) for side in (1, 0)])
                   for k in range(order + 1)]
        mul_ranks = []
        for rank in range(1 << order):
            ks = range(rank.bit_length(), order + 1)
            mul_ranks.append(_rank_table(size, start[ks[0]], *(
                np.concatenate([leibniz[k][:, 2 * rank + side] for k in ks]) for side in (0, 1))))
        self.mul_ranks = tuple(mul_ranks)  # ((lo, i, j), ...)
        self.mul_i = np.concatenate([i for _, i, _ in mul_ranks])
        self.mul_j = np.concatenate([j for _, _, j in mul_ranks])
        self.mul_out = np.concatenate([np.arange(lo, size) for lo, _, _ in mul_ranks])
        # a quotient's order-k entries take every rank but the full mask, c[t] * b[()]
        div_ranks: list[tuple] = [()]
        for k in range(1, order + 1):
            lo, hi = start[k], start[k + 1]
            div_ranks.append(tuple((i[lo - first:hi - first], j[lo - first:hi - first])
                                   for first, i, j in mul_ranks[:(1 << k) - 1]))
        self.div_ranks = tuple(div_ranks)  # div_ranks[k] = ((i, j), ...)

    def _faa_tables(self) -> None:
        # Faa di Bruno terms f^(blocks) * (product of the block entries) -> t,
        # ranked by set partition; at orders 1..MAX_ORDER the partitions of one
        # rank all have the same number of blocks, so their columns stack unpadded
        order, start, size = self.order, self.order_start, self.size
        partitions = [_set_partitions(k) for k in range(order + 1)]
        faa = [self._sub_tuples(k, [block for part in partitions[k] for block in part])
               for k in range(order + 1)]
        faa_ranks = []
        for rank in range(len(partitions[order])):
            ks = [k for k in range(1, order + 1) if rank < len(partitions[k])]
            blocks = []
            for k in ks:
                first = sum(map(len, partitions[k][:rank]))  # the rank's first block column
                blocks.append(faa[k][:, first:first + len(partitions[k][rank])])
            faa_ranks.append(_rank_table(size, start[ks[0]], *np.concatenate(blocks).T.copy()))
        self.faa_ranks = tuple(faa_ranks)  # ((lo, entries of block 1, of block 2, ...), ...)
        self.faa_out = np.concatenate([np.arange(rank[0], size) for rank in faa_ranks])


def _codes(digits: np.ndarray, blocks: Sequence, base: int) -> np.ndarray:
    """Codes of the sub-tuples that ``blocks`` (each a list of increasing
    positions) pick out of every row of ``digits``, one column per block; a
    code reads a tuple's slots as the digits of a base-``base`` number."""
    # weights[col, p]: the place value of position p in block col, 0 off
    # the block; a broadcast product, not a matmul: no run touches numpy's
    # integer matmul otherwise, and its code pages would add to the peak RSS
    weights = np.zeros((len(blocks), digits.shape[1]), dtype=np.intp)
    for col, block in enumerate(blocks):
        for rank, p in enumerate(block):
            weights[col, p] = base ** (len(block) - 1 - rank)
    return (digits[:, None, :] * weights).sum(axis=2)


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
    digits = [np.zeros((1, 0), dtype=np.intp)]
    for k in range(1, order + 1):
        level = list(combinations_with_replacement(range(1, m + 1), k))
        if last and k == order:
            level = [t for t in level if t[-1] == m]
        digits.append(np.array(level, dtype=np.intp).reshape(len(level), k))
    return JetSpace(m, order, bool(last), digits)


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
def _inside(sp: JetSpace, slots: int) -> np.ndarray:
    """Per entry of ``sp``, whether every slot of its tuple is in ``slots``."""
    return (sp.slot_masks & ~slots) == 0


@lru_cache(maxsize=None)
def _embedding(slots: int, union: int, top: JetSpace) -> tuple:
    """(space, positions, local) for two bitmasks over the slots of ``top``:
    the space over the slots of ``union`` (``top`` itself for all of
    them), where the entries of the space over the slots of ``slots`` sit
    in it, and the bitmask of those slots' ranks in ``union``.  Slot j of
    the smaller space is the j-th slot of ``slots``; the map keeps the
    order of the slots, and so the order of the tuples."""
    local, bit, rest = 0, 1, union
    while rest:
        low = rest & -rest
        if slots & low:
            local |= bit
        bit <<= 1
        rest ^= low
    sp = _space_of(union, top)
    return sp, np.flatnonzero(_inside(sp, local)), local


def _space_of(slots: int, top: JetSpace) -> JetSpace:
    """The space of a jet over ``top`` held on the slots of ``slots``
    (nonempty): ``top`` itself for all of them.  A truncated ``top`` keeps
    only the top-order tuples that end in its last slot, so the space holds
    them when ``slots`` holds that slot, and no top-order tuple otherwise."""
    if slots == (1 << top.m) - 1:
        return top
    if not top.last:
        return space(slots.bit_count(), top.order)
    if slots >> (top.m - 1):
        return space(slots.bit_count(), top.order, True)
    return space(slots.bit_count(), top.order - 1)


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
def _mul_plan(sp: JetSpace, band_a: tuple, band_b: tuple, slots_a: int, slots_b: int) -> tuple:
    """The Leibniz terms that can be nonzero in a product over ``sp`` of a
    jet over the slots of ``slots_a`` and one over those of ``slots_b``
    (bitmasks over ``sp``), each held in the space of its own slots, with
    these bands; per rank as (outputs, (i, j)), the outputs a slice or an
    index array, and ``i`` and ``j`` positions in the factors' spaces.  A
    rank's left factor has the order of its mask's popcount, the rank is cut
    to the output orders whose right factor lies in ``band_b``, and then to
    the terms whose left and right sub-tuples lie in ``slots_a`` and
    ``slots_b``."""
    inside_a, inside_b = _inside(sp, slots_a), _inside(sp, slots_b)
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
    # an order-preserving map: an entry's position in its factor's space is
    # its rank among the entries over that factor's slots
    rank_a, rank_b = np.cumsum(inside_a) - 1, np.cumsum(inside_b) - 1
    return tuple((at, (rank_a[i], rank_b[j])) for at, (i, j) in plan)


@lru_cache(maxsize=None)
def _faa_plan(sp: JetSpace, band: tuple) -> tuple:
    """The Faa di Bruno terms that can be nonzero on an inner jet with this
    band, per rank as (outputs, block index arrays), the outputs a slice:
    each rank is cut to the orders whose set partition has every block size
    in ``band`` (up to MAX_ORDER those orders are contiguous; an order
    inside the cut that failed the test would only add zeros)."""
    partitions = [_set_partitions(k) for k in range(sp.order + 1)]
    plan = []
    for rank, (lo, *blocks) in enumerate(sp.faa_ranks):
        kept = [k for k in range(1, sp.order + 1) if rank < len(partitions[k])
                and all(band[0] <= len(b) <= band[1] for b in partitions[k][rank])]
        if kept:
            start, stop = sp.order_start[kept[0]], sp.order_start[kept[-1] + 1]
            plan.append((slice(start, stop), tuple(b[start - lo:stop - lo] for b in blocks)))
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


def _narrow(jet: "Jet") -> bool:
    """Whether ``jet``'s band leaves out some order of its space."""
    return jet.band != (0, jet.space.order)


def _bounded(values) -> bool:
    """Whether every entry of ``values`` is at most 2^200 in magnitude (false
    on NaN): a Faa di Bruno term multiplies at most MAX_ORDER + 1 such
    factors, so none of its partial products overflows."""
    return bool(np.abs(values).max(initial=0.0) <= 2.0 ** 200)


class Jet:
    __slots__ = ("space", "data", "band")

    def __init__(self, space: JetSpace, data: np.ndarray, band: tuple | None = None):
        self.space = space
        self.data = data  # (size,) or (size, N), aligned with space.tuples; do not mutate
        # (lo, hi): every entry of an order outside lo..hi is exactly zero
        self.band = (0, space.order) if band is None else band

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
        if k > self.space.order:
            raise ValueError(f"an order-{self.space.order} jet holds no order-{k} entries")
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
        return Jet(self.space, data, (0, self.band[1]))

    def _joined(self, other: "Jet", data: np.ndarray) -> "Jet":
        return Jet(self.space, data, (min(self.band[0], other.band[0]),
                                      max(self.band[1], other.band[1])))

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
        return Jet(self.space, data, (0, self.band[1]))

    def __neg__(self):
        return Jet(self.space, -self.data, self.band)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if _finite_value(other):
                return Jet(self.space, self.data * other, self.band)
            return Jet(self.space, self.data * other)  # 0 * inf is NaN
        self._check(other)
        return _product(self, other, not (_narrow(self) or _narrow(other))
                        or (_finite(self) and _finite(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            if _exact_divisor(other):
                return Jet(self.space, self.data / other, self.band)
            return Jet(self.space, self.data / other)
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(constant(other, self.space, self.data.shape[1:]), self)


def _leibniz(x: np.ndarray, y: np.ndarray, size: int, plan: tuple) -> np.ndarray:
    """The Leibniz sums of ``plan`` over the factor data ``x`` and ``y``."""
    out = np.zeros((size,) + x.shape[1:])
    # gathers are fresh arrays, so the products are taken in place; the
    # outputs of one rank are distinct, so += adds each term once
    for at, (i, j) in plan:
        term = x[i]
        term *= y[j]
        out[at] += term
    return out


def _product(a: Jet, b: Jet, cut: bool) -> Jet:
    """a * b; with ``cut``, the Leibniz terms that read entries outside the
    factors' bands are skipped, which needs finite factors, as ``0 * inf``
    is NaN."""
    sp = a.space
    band_a, band_b = (a.band, b.band) if cut else ((0, sp.order), (0, sp.order))
    every = (1 << sp.m) - 1
    out = _leibniz(a.data, b.data, sp.size, _mul_plan(sp, band_a, band_b, every, every))
    return Jet(sp, out, (band_a[0] + band_b[0], min(sp.order, band_a[1] + band_b[1])))


def constant(value, sp: JetSpace, tail: tuple = ()) -> Jet:
    """Constant jet over the space ``sp``; ``value`` a scalar or one value
    per point (shape ``tail``)."""
    data = np.zeros((sp.size,) + tail)
    data[0] = value
    return Jet(sp, data, (0, 0))


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
    return Jet(sp, data, (0, 1))


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


def _outer(fn: str, a: Jet, exponent: float | None, order: int) -> np.ndarray:
    """The outer derivatives f(v)..f^(order)(v) at ``a``'s value, one row each."""
    tail = a.data.shape[1:]
    return np.stack([np.broadcast_to(d, tail) for d in
                     _outer_derivatives(fn, a.data[0], order, exponent)])


def _bounded_terms(a: Jet, outer: np.ndarray) -> bool:
    """Whether ``a``'s entries inside its band above order 0, and the outer
    derivatives, are small enough to skip Faa di Bruno terms."""
    start, (lo, hi) = a.space.order_start, a.band
    return _bounded(a.data[start[max(lo, 1)]:start[hi + 1]]) and _bounded(outer[1:])


def _composed(a: Jet, outer: np.ndarray, cut: bool) -> Jet:
    """The Faa di Bruno sum of ``outer`` (at least up to ``a``'s order) over
    ``a``; with ``cut``, which needs :func:`_bounded_terms`, the terms that
    read entries outside ``a``'s band are skipped."""
    sp = a.space
    band = a.band if cut else (0, sp.order)
    out = np.zeros_like(a.data)
    out[0] = outer[0]
    # every entry of a rank has a partition into the same number of blocks,
    # so one outer derivative serves the rank
    for at, (first, *blocks) in _faa_plan(sp, band):
        terms = a.data[first]
        for block in blocks:
            terms *= a.data[block]
        terms *= outer[1 + len(blocks)]
        out[at] += terms
    return Jet(sp, out)


def apply_unary(fn: str, a: Jet, exponent: float | None = None) -> Jet:
    """Compose a univariate function with a jet via Faa di Bruno partitions."""
    outer = _outer(fn, a, exponent, a.space.order)
    # 0 * inf is NaN, and a skipped term may hold an overflowing product of
    # kept factors, so terms are skipped only on bounded entries
    return _composed(a, outer, not _narrow(a) or _bounded_terms(a, outer))


def power(a: Jet, exponent: float) -> Jet:
    return apply_unary("pow", a, exponent)


# a symbol is bound to a jet or a constant: a scalar or one value per point
Binding = Union[Jet, "CompactJet", float, np.ndarray]


def _finite_value(value) -> bool:
    """Whether a scalar, or every entry of an array, is finite: math.isfinite
    tests a scalar about 40 times faster than np.isfinite."""
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    return math.isfinite(value)


def _exact_divisor(value) -> bool:
    """Whether dividing by a constant keeps every zero entry zero: it must
    be finite and nonzero, as 0 / 0 is NaN.  np.all costs a scalar about 60
    times what != does."""
    nonzero = np.all(value != 0) if isinstance(value, np.ndarray) else value != 0
    return bool(nonzero) and _finite_value(value)


def _finite_constant(value, node: ex.Node) -> None:
    if not _finite_value(value):
        _domain(~np.isfinite(value), value,
                f"the constant part '{ex.to_text(node)}' is not finite ({{!r}})")


class CompactJet:
    """A jet over ``top`` held in the space of its own slots: a seed from
    :func:`compact_seeds`, and every subexpression built from seeds in
    :func:`eval_compact`.

    ``slots`` is a bitmask over ``top``, and ``jet`` lives in the space over
    as many slots, its slot j standing for the j-th slot of ``slots`` in
    increasing order.  Every entry of the jet over ``top`` whose tuple
    holds a slot outside ``slots`` has the value ``outside``: a signed
    zero, or one per point.  A compact jet over every slot holds a jet over
    ``top`` itself.
    """

    __slots__ = ("jet", "slots", "outside", "top")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, jet: Jet, slots: int, outside, top: JetSpace):
        self.jet = jet
        self.slots = slots
        self.outside = outside
        self.top = top

    @property
    def every(self) -> int:
        """The bitmask of all slots of ``top``."""
        return (1 << self.top.m) - 1

    def embedded(self, union: int) -> Jet:
        """The jet over the slots of ``union``, which holds ``slots``."""
        if union == self.slots:
            return self.jet
        sp, at, _ = _embedding(self.slots, union, self.top)
        data = np.full((sp.size,) + self.jet.data.shape[1:], self.outside)
        data[at] = self.jet.data
        return Jet(sp, data, self.jet.band)

    def expanded(self) -> Jet:
        """The jet over ``top``."""
        return self.embedded(self.every)

    def _scaled(self, op: np.ufunc, factor) -> "CompactJet":
        """``op(self, factor)`` for ``np.multiply`` or ``np.divide`` and a
        finite nonzero constant, which keeps the band."""
        jet = self.jet
        return CompactJet(Jet(jet.space, op(jet.data, factor), jet.band), self.slots,
                          op(self.outside, factor), self.top)

    def _union(self, other: "CompactJet") -> int:
        if other.top is not self.top:
            raise ValueError("jets must share one space")
        return self.slots | other.slots

    def _combined(self, other: "CompactJet", op: np.ufunc) -> "CompactJet":
        """``op(self, other)`` for ``np.add`` or ``np.subtract``: each entry
        of the union's space combines its two operands' entries, an
        operand's outside value where the entry is not among its own."""
        union = self._union(other)
        a, b = self.jet, other.jet
        base = self.embedded(union)
        out = None if base is a else base.data  # a fresh array may be written over
        if other.slots == union:
            out = op(a.data if out is None else out, b.data, out=out)
        else:
            _, at, _ = _embedding(other.slots, union, self.top)
            inside = op(base.data[at], b.data)
            out = op(base.data, other.outside, out=out)
            out[at] = inside
        band = (min(a.band[0], b.band[0]), max(a.band[1], b.band[1]))
        return CompactJet(Jet(base.space, out, band), union, op(self.outside, other.outside),
                          self.top)

    def __add__(self, other):
        if not isinstance(other, CompactJet):
            return CompactJet(self.jet + other, self.slots, self.outside, self.top)
        return self._combined(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, CompactJet):
            return CompactJet(self.jet - other, self.slots, self.outside, self.top)
        return self._combined(other, np.subtract)

    def __rsub__(self, other):
        return CompactJet(other - self.jet, self.slots, -self.outside, self.top)

    def __mul__(self, other):
        if not isinstance(other, CompactJet):
            if _finite_value(other):
                return self._scaled(np.multiply, other)
            return _whole(self.expanded() * other)  # 0 * inf is NaN
        union = self._union(other)
        a, b = self.jet, other.jet
        if not (_finite(a) and _finite(b)):
            # 0 * inf is NaN, so no term is skipped and no entry is left out
            return _whole(_product(self.expanded(), other.expanded(), False))
        # the factors stay in their own spaces: the plan reads each term's
        # sub-tuples there, and skips every term that reads a slot outside
        sp, _, local_a = _embedding(self.slots, union, self.top)
        local_b = _embedding(other.slots, union, self.top)[2]
        plan = _mul_plan(sp, a.band, b.band, local_a, local_b)
        out = _leibniz(a.data, b.data, sp.size, plan)
        band = (a.band[0] + b.band[0], min(sp.order, a.band[1] + b.band[1]))
        return CompactJet(Jet(sp, out, band), union, 0.0, self.top)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, CompactJet):
            if _exact_divisor(other):
                return self._scaled(np.divide, other)
            return _whole(self.expanded() / other)  # 0 / 0 is NaN
        union = self._union(other)
        quotient = divide(self.embedded(union), other.embedded(union))
        if union != self.every and not _finite(quotient):
            # over every slot, c[()] * b[t] is NaN outside the union where c
            # holds an inf (a non-finite operand, or a finite one that
            # overflows), as 0 * inf is NaN
            return _whole(divide(self.expanded(), other.expanded()))
        # an entry outside both operands' slots solves c * b0 = outside
        return CompactJet(quotient, union, self.outside / other.jet.data[0], self.top)

    def __rtruediv__(self, other):
        quotient = other / self.jet
        if self.slots != self.every and not _finite(quotient):
            return _whole(other / self.expanded())  # as in __truediv__
        return CompactJet(quotient, self.slots, 0.0 / self.jet.data[0], self.top)

    def unary(self, fn: str, exponent: float | None) -> "CompactJet":
        jet = self.jet
        # over a truncated top, a jet whose slots leave out the last one
        # has an order less, and the full kernel would still read f^(K)
        outer = _outer(fn, jet, exponent, self.top.order)
        narrow = self.slots != self.every or _narrow(jet)
        if narrow and not _bounded_terms(jet, outer):
            # 0 * inf is NaN, and a skipped term may hold an overflowing
            # product of kept factors, so no term is skipped
            return _whole(_composed(self.expanded(), outer, False))
        return CompactJet(_composed(jet, outer, True), self.slots, 0.0, self.top)


def _whole(jet: Jet) -> CompactJet:
    return CompactJet(jet, (1 << jet.space.m) - 1, 0.0, jet.space)


def compact_seeds(names: Sequence[str], values, order: int,
                  last: bool = False) -> dict[str, CompactJet]:
    """Bindings of ``names[i]`` to the seed of slot i + 1 over
    ``space(len(names), order, last)`` at ``values[i]``, a scalar or one
    value per point: each seed is held in the space of its own slot, as
    :func:`eval_with_bindings` holds a :func:`seed`."""
    top = space(len(names), order, last)
    seeds = {}
    for i, name in enumerate(names):
        if last and order == 1 and i + 1 < top.m:
            raise ValueError(f"the truncated space({top.m}, 1, True) has no first-order entry "
                             f"for slot {i + 1}")
        sp = _space_of(1 << i, top)
        data = np.zeros((sp.size,) + np.shape(values[i]))
        data[0] = values[i]
        data[1] = 1.0
        seeds[name] = CompactJet(Jet(sp, data, (0, 1)), 1 << i, 0.0, top)
    return seeds


def _unary(fn: str, arg, exponent=None):
    if isinstance(arg, CompactJet):
        return arg.unary(fn, exponent)
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
    if not isinstance(left, CompactJet):
        if isinstance(right, CompactJet):
            _finite_constant(left, node.left)
    elif not isinstance(right, CompactJet):
        _finite_constant(right, node.right)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if not isinstance(right, CompactJet):
        _nonzero_divisor(right)
    return left / right


def eval_compact(expr: ex.Expr, bindings: Mapping[str, Binding]) -> CompactJet:
    """Evaluate an expression tree where symbols map to jets or constants,
    as a compact jet.

    The result lives over the space of the jets bound to symbols ('x3',
    'a', ...), which must share that space and one point axis; a ValueError
    is raised when no symbol is bound to a jet.  A compact jet (from
    :func:`compact_seeds`, or the result of another evaluation) stands for
    a jet over its ``top`` space, and a :class:`Jet` is held over all of its
    slots; every subexpression stays in the space of its own slots.  A
    constant result is held over all slots.  Symbols bound to a scalar or
    to one value per point are held constant.  Subtrees without a jet stay
    constants, so the tree is walked once per batch and only the jet nodes
    pay for jet arithmetic.  A constant that meets a jet, or is the result,
    must be finite, as a domain failure.  Every domain check is false on
    NaN, so with NaN-valued jets only the variable-free parts can raise.
    """
    bound = {name: _whole(v) if isinstance(v, Jet) else v for name, v in bindings.items()}
    sp = next((v.top for v in bound.values() if isinstance(v, CompactJet)), None)
    if sp is None:
        raise ValueError("no symbol is bound to a jet, so the result has no jet space")
    out = _walk(expr.root, bound)
    if isinstance(out, CompactJet):
        return out
    _finite_constant(out, expr.root)
    tail = np.broadcast_shapes(*(v.jet.data.shape[1:] if isinstance(v, CompactJet)
                                 else np.shape(v) for v in bound.values()))
    return _whole(constant(out, sp, tail))


def eval_with_bindings(expr: ex.Expr, bindings: Mapping[str, Binding]) -> Jet:
    """:func:`eval_compact`, with the result built over all slots once, at
    the end."""
    return eval_compact(expr, bindings).expanded()


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
    for name in active:
        if name not in point:
            raise KeyError(f"point is missing active symbol '{name}'")
    bindings: dict[str, Binding] = {name: float(val) for name, val in point.items()}
    if active:
        bindings.update(compact_seeds(active, [float(point[name]) for name in active], order))
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
    rows = np.flatnonzero([f is None for f in failures])
    values = None
    while rows.size:
        try:
            values = evaluate(rows).data
            break
        except PointFailures as err:
            failed = err.failed
        except ArithmeticError as err:
            failed = dict.fromkeys(range(rows.size), err)
        for i, error in failed.items():
            failures[rows[i]] = error
        rows = np.delete(rows, list(failed))
    if values is not None and rows.size == len(failures):
        return Jet(sp, values)  # the first call evaluated every point
    data = np.full((sp.size, len(failures)), np.nan)
    if rows.size:
        data[:, rows] = values
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
