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
and shared.  The terms of a product or of a Faa di Bruno sum are grouped by
their rank within their output entry; the entries that have a rank-r term
are a trailing range of the space, so each rank is one gather and one
slice-add, and the terms of an entry are summed in rank order, as
``np.add.at`` over the ungrouped table would sum them.  ``Jet.partial(i)``
is a gather too: it reads the order K-1 jet of dF/dx_i out of the order K
jet, through an index table cached per (m, K, i); ``restrict_last`` gathers
through a table cached per (m, K, a_order, target order), and the derivative
tensors of one order through ``derivative_index`` tables cached per (m, k).

A domain failure (ln/sqrt/power outside the domain, a near-zero divisor,
an exp overflow) at some points of a batch raises :class:`PointFailures`,
which names each failing point with its own one-point error;
:func:`per_point` evaluates a batch, drops the points that failed and
evaluates the rest again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import expr as ex

MAX_ORDER = 4

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


@dataclass(frozen=True)
class JetSpace:
    """Shared index tables for jets over ``m`` slots at order ``K``.

    ``mul_i``, ``mul_j``, ``mul_out`` list the Leibniz terms a[i] * b[j] ->
    out and ``faa_out`` the outputs of the Faa di Bruno terms, both ordered
    by rank within their output entry, then by output.  ``mul_ranks`` and
    ``faa_ranks`` hold one rank each: the first output it reaches (every
    later entry has a term of that rank) and its operand indices;
    ``div_ranks[k]`` holds, per rank, the terms of the order-k entries
    whose quotient factor has lower order.
    """

    m: int
    order: int
    tuples: tuple[tuple[int, ...], ...]
    pos: dict
    order_start: tuple[int, ...]  # order k entries live in [start[k], start[k+1])
    mul_i: np.ndarray
    mul_j: np.ndarray
    mul_out: np.ndarray
    faa_out: np.ndarray
    mul_ranks: tuple  # ((lo, i, j), ...)
    div_ranks: tuple  # div_ranks[k] = ((i, j), ...)
    faa_ranks: tuple  # ((lo, outer derivative order, entries of block 1, of block 2, ...), ...)

    @property
    def size(self) -> int:
        return len(self.tuples)


def _rank_table(terms: list[tuple]) -> tuple:
    """The terms of one rank, each (output, operand index, ...), as (first
    output, one index array per operand); they must reach every entry from
    their first output on, in order."""
    outs = [t[0] for t in terms]
    if outs != list(range(outs[0], outs[0] + len(outs))):
        raise AssertionError("a rank must cover a trailing range of entries")
    return (outs[0],) + tuple(np.asarray(col, dtype=np.intp) for col in list(zip(*terms))[1:])


@lru_cache(maxsize=None)
def space(m: int, order: int) -> JetSpace:
    if not (1 <= order <= MAX_ORDER):
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    if m < 1:
        raise ValueError("slot count must be positive")
    tuples: list[tuple[int, ...]] = [()]
    order_start = [0, 1]
    for k in range(1, order + 1):
        tuples.extend(combinations_with_replacement(range(1, m + 1), k))
        order_start.append(len(tuples))
    pos = {t: i for i, t in enumerate(tuples)}
    size = len(tuples)

    # Leibniz terms a[left] * b[right] -> t; a term's position mask is its
    # rank within its output entry, and the slots a mask picks out of a
    # sorted tuple are sorted
    masks = {k: [([b for b in range(k) if mask >> b & 1],
                  [b for b in range(k) if not mask >> b & 1]) for mask in range(1 << k)]
             for k in range(order + 1)}
    mul: list[list[tuple]] = [[] for _ in range(1 << order)]
    for p, t in enumerate(tuples):
        for rank, (left, right) in zip(mul, masks[len(t)]):
            rank.append((p, pos[tuple(map(t.__getitem__, left))],
                         pos[tuple(map(t.__getitem__, right))]))
    mul_ranks = tuple(_rank_table(terms) for terms in mul)
    # a quotient's order-k entries take every rank but the full mask, c[t] * b[()]
    div_ranks: list[tuple] = [()]
    for k in range(1, order + 1):
        lo, hi = order_start[k], order_start[k + 1]
        div_ranks.append(tuple((i[lo - start:hi - start], j[lo - start:hi - start])
                               for start, i, j in mul_ranks[:(1 << k) - 1]))

    # Faa di Bruno terms f^(blocks) * (product of the block entries) -> t,
    # ranked by set partition; short partitions are padded with ``size``, the
    # index of a 1.0 appended to the data
    partitions = {k: _set_partitions(k) for k in range(1, order + 1)}
    faa: list[list[tuple]] = [[] for _ in partitions[order]]
    for p, t in enumerate(tuples[1:], start=1):
        for rank, part in zip(faa, partitions[len(t)]):
            # a block lists increasing positions, so its slots are sorted
            rank.append((p, len(part), [pos[tuple(map(t.__getitem__, block))]
                                        for block in part]))
    faa_ranks = []
    for terms in faa:
        width = max(t[1] for t in terms)
        blocks = np.asarray([t[2] + [size] * (width - t[1]) for t in terms], dtype=np.intp)
        faa_ranks.append(_rank_table([t[:2] for t in terms]) + tuple(blocks.T.copy()))

    return JetSpace(
        m=m,
        order=order,
        tuples=tuple(tuples),
        pos=pos,
        order_start=tuple(order_start),
        mul_i=np.concatenate([i for _, i, _ in mul_ranks]),
        mul_j=np.concatenate([j for _, _, j in mul_ranks]),
        mul_out=np.concatenate([np.arange(lo, size) for lo, _, _ in mul_ranks]),
        faa_out=np.concatenate([np.arange(rank[0], size) for rank in faa_ranks]),
        mul_ranks=mul_ranks,
        div_ranks=tuple(div_ranks),
        faa_ranks=tuple(faa_ranks),
    )


@lru_cache(maxsize=None)
def _partial_index(m: int, order: int, i: int) -> np.ndarray:
    """Position in space(m, order) of t + (i,) for each t of space(m, order - 1)."""
    if not (1 <= i <= m):
        raise IndexError(f"slot index {i} out of range 1..{m}")
    src = space(m, order)
    return np.asarray([src.pos[tuple(sorted(t + (i,)))] for t in space(m, order - 1).tuples],
                      dtype=np.intp)


@lru_cache(maxsize=None)
def derivative_index(m: int, k: int) -> np.ndarray:
    """Positions of the order-k derivatives as an ``(m,) * k`` array: entry
    ``[i, j, ...]`` is where slot tuple (i+1, j+1, ...) lives in every space
    over m slots of order >= k (tuples are ordered by length first)."""
    pos = space(m, k).pos
    return np.asarray([pos[tuple(sorted(t))] for t in product(range(1, m + 1), repeat=k)],
                      dtype=np.intp).reshape((m,) * k)


def _domain(bad, values, message: str, error: type = JetDomainError) -> None:
    """Raise where ``bad`` holds: ``error`` for a scalar check,
    :class:`PointFailures` naming each bad point of a batch with its own
    ``error``.  ``message`` is formatted with the offending value."""
    if np.ndim(bad) == 0:
        if bad:
            raise error(message.format(values))
        return
    if bad.any():
        raise PointFailures({int(i): error(message.format(values[i]))
                             for i in np.flatnonzero(bad)})


@dataclass(frozen=True)
class Jet:
    space: JetSpace
    data: np.ndarray  # (size,) or (size, N), aligned with space.tuples; do not mutate

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
        key = tuple(sorted(idx))
        if len(key) > self.space.order:
            raise KeyError(f"order {len(key)} exceeds jet order {self.space.order}")
        if key not in self.space.pos:
            raise KeyError(f"slot tuple {key} outside space (m={self.space.m})")
        return float(self.data[self.space.pos[key]])

    def gradient(self) -> np.ndarray:
        s = self.space.order_start
        return self.data[s[1]:s[2]].copy()

    def hessian(self) -> np.ndarray:
        return self.data[derivative_index(self.space.m, 2)]

    def partial(self, i: int) -> "Jet":
        """Order K-1 jet of the partial derivative along slot ``i`` (1-based)."""
        sp = self.space
        return Jet(space(sp.m, sp.order - 1), self.data[_partial_index(sp.m, sp.order, i)])

    # arithmetic -----------------------------------------------------------
    # a non-jet operand is a constant: a scalar, or one value per point

    def _check(self, other: "Jet") -> None:
        if other.space is not self.space:
            raise ValueError(
                "jets must share slot count and order "
                f"(got m={other.space.m},K={other.space.order} vs "
                f"m={self.space.m},K={self.space.order})"
            )

    def _shifted(self, value) -> "Jet":
        data = self.data.copy()
        data[0] = value
        return Jet(self.space, data)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self._shifted(self.data[0] + other)
        self._check(other)
        return Jet(self.space, self.data + other.data)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self._shifted(self.data[0] - other)
        self._check(other)
        return Jet(self.space, self.data - other.data)

    def __rsub__(self, other):
        data = -self.data
        data[0] = other - self.data[0]
        return Jet(self.space, data)

    def __neg__(self):
        return Jet(self.space, -self.data)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.data * other)
        self._check(other)
        a, b = self.data, other.data
        # gathers are fresh arrays, so the products are taken in place
        (_, i, j), *ranks = self.space.mul_ranks
        out = a[i]
        out *= b[j]
        out += 0.0
        for lo, i, j in ranks:
            term = a[i]
            term *= b[j]
            out[lo:] += term
        return Jet(self.space, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.data / other)
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(constant(other, self.space.m, self.space.order, self.data.shape[1:]), self)


def constant(value, m: int, order: int, tail: tuple = ()) -> Jet:
    """Constant jet; ``value`` a scalar or one value per point (shape ``tail``)."""
    sp = space(m, order)
    data = np.zeros((sp.size,) + tail)
    data[0] = value
    return Jet(sp, data)


def seed(index: int, value, m: int, order: int) -> Jet:
    """Jet of the coordinate function of slot ``index`` (1-based) at
    ``value``, a scalar or one value per point."""
    sp = space(m, order)
    if not (1 <= index <= m):
        raise IndexError(f"slot index {index} out of range 1..{m}")
    data = np.zeros((sp.size,) + np.shape(value))
    data[0] = value
    data[sp.pos[(index,)]] = 1.0
    return Jet(sp, data)


def divide(a: Jet, b: Jet) -> Jet:
    """Quotient a/b via the triangular solve of c*b = a, order by order."""
    if a.space is not b.space:
        raise ValueError("jets must share slot count and order")
    sp = a.space
    b0 = b.data[0]
    _domain(np.abs(b0) <= _DIV_FLOOR, b0, "division by numerically zero jet value {!r}")
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
        _domain(np.isinf(e) & np.isfinite(v), v, "math range error", OverflowError)
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
    padded = np.concatenate([a.data, np.ones((1,) + tail)])
    out = np.empty_like(a.data)
    out[0] = outer[0]
    for rank, (lo, nblocks, first, *blocks) in enumerate(a.space.faa_ranks):
        terms = padded[first]
        for block in blocks:
            terms *= padded[block]
        terms *= outer[nblocks]
        if rank == 0:
            terms += 0.0
            out[lo:] = terms
        else:
            out[lo:] += terms
    return Jet(a.space, out)


def power(a: Jet, exponent: float) -> Jet:
    return apply_unary("pow", a, exponent)


# a symbol is bound to a jet or a constant: a scalar or one value per point
Binding = Union[Jet, float, np.ndarray]


def eval_with_bindings(expr: ex.Expr, bindings: Mapping[str, Binding],
                       m: int, order: int) -> Jet:
    """Evaluate an expression tree where symbols map to jets or constants.

    Symbols ('x3', 'a', ...) bound to jets must all live in the same
    (m, order) space and carry the same point axis; symbols bound to a
    scalar or to one value per point are held constant.  Subtrees without
    a jet stay constants, so the tree is walked once per batch and only the
    jet nodes pay for jet arithmetic.
    """
    sp = space(m, order)

    def unary(fn: str, arg, exponent=None):
        if isinstance(arg, Jet):
            return apply_unary(fn, arg, exponent)
        return _outer_derivatives(fn, arg, 0, exponent)[0]

    def quotient(left, right):
        if isinstance(right, Jet):
            if not isinstance(left, Jet):
                left = constant(left, m, order, right.data.shape[1:])
            return divide(left, right)
        _domain(np.abs(right) <= _DIV_FLOOR, right, "division by numerically zero jet value {!r}")
        return left / right

    def rec(node: ex.Node):
        if isinstance(node, ex.Const):
            return np.float64(node.value)  # numpy scalars overflow to inf, as jets do
        if isinstance(node, (ex.Var, ex.Param)):
            if isinstance(node, ex.Var):
                name, missing = f"x{node.index}", f"missing binding for x{node.index}"
            else:
                name, missing = node.name, f"missing binding for parameter '{node.name}'"
            if name not in bindings:
                raise KeyError(missing)
            val = bindings[name]
            if isinstance(val, Jet) and val.space is not sp:
                raise ValueError("bound jet lives in a different space")
            return val
        if isinstance(node, ex.BinOp):
            if node.op == "^":
                assert isinstance(node.right, ex.Const)
                return unary("pow", rec(node.left), node.right.value)
            left = rec(node.left)
            right = rec(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return quotient(left, right)
        return unary(node.fn, rec(node.arg))

    out = rec(expr.root)
    if isinstance(out, Jet):
        return out
    tail = np.broadcast_shapes(*(v.data.shape[1:] if isinstance(v, Jet) else np.shape(v)
                                 for v in bindings.values()))
    return constant(out, m, order, tail)


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
    return eval_with_bindings(expr, bindings, m, order)


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
    out = restrict_last(joint, 0, target).data
    dpow = None
    for j in range(1, target.order + 1):
        dpow = delta if dpow is None else dpow * delta
        out += (restrict_last(joint, j, target) * dpow).data
    return Jet(target, out)
