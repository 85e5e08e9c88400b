"""Truncated multivariate Taylor arithmetic (jets) up to order 4.

A jet over ``m`` active slots at order ``K`` stores the value and the raw
symmetric derivative tensors of orders 1..K in canonical form: one entry per
nondecreasing slot tuple, e.g. the entry for ``(1, 1, 3)`` is the third
partial derivative taken twice along slot 1 and once along slot 3.  Raw
derivatives (not Taylor coefficients) are stored, so reading a mixed partial
needs no factorial bookkeeping.

All operations are pure; jets are treated as immutable values.  Products use
the position-subset Leibniz expansion (summing over all 2^k position masks of
a result tuple yields exactly the multinomial multiplicities), quotients are
solved triangularly order by order, and unary functions are composed through
Faa di Bruno set partitions.  Per-(m, K) index tables are precomputed once
and shared, so the hot loops are vectorized numpy gathers.  ``Jet.partial(i)``
is such a gather too: it reads the order K-1 jet of dF/dx_i out of the order
K jet, through an index table cached per (m, K, i); ``restrict_last`` gathers
through a table cached per (m, K, a_order, target order), and the derivative
tensors of one order through ``derivative_index`` tables cached per (m, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Mapping, Sequence, Union

import numpy as np

from . import expr as ex

MAX_ORDER = 4

_DIV_FLOOR = 1e-300


class JetDomainError(ArithmeticError):
    """ln/sqrt/power/division outside its domain during jet propagation."""


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
    """Shared index tables for jets over ``m`` slots at order ``K``."""

    m: int
    order: int
    tuples: tuple[tuple[int, ...], ...]
    pos: dict
    order_start: tuple[int, ...]  # order k entries live in [start[k], start[k+1])
    mul_i: np.ndarray
    mul_j: np.ndarray
    mul_out: np.ndarray
    faa_out: np.ndarray
    faa_nblocks: np.ndarray
    faa_blocks: np.ndarray  # (n_terms, order), padded with size (maps to 1.0)

    @property
    def size(self) -> int:
        return len(self.tuples)


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

    mi, mj, mo = [], [], []
    for p, t in enumerate(tuples):
        k = len(t)
        for mask in range(1 << k):
            left = tuple(t[b] for b in range(k) if mask >> b & 1)
            right = tuple(t[b] for b in range(k) if not mask >> b & 1)
            mi.append(pos[left])
            mj.append(pos[right])
            mo.append(p)

    partitions = {k: _set_partitions(k) for k in range(1, order + 1)}
    fo, fn, fb = [], [], []
    pad = len(tuples)  # index of the padding 1.0 in the extended data vector
    for p, t in enumerate(tuples):
        k = len(t)
        if k == 0:
            continue
        for part in partitions[k]:
            fo.append(p)
            fn.append(len(part))
            blocks = [pos[tuple(sorted(t[b] for b in block))] for block in part]
            blocks += [pad] * (order - len(blocks))
            fb.append(blocks)

    return JetSpace(
        m=m,
        order=order,
        tuples=tuple(tuples),
        pos=pos,
        order_start=tuple(order_start),
        mul_i=np.asarray(mi, dtype=np.intp),
        mul_j=np.asarray(mj, dtype=np.intp),
        mul_out=np.asarray(mo, dtype=np.intp),
        faa_out=np.asarray(fo, dtype=np.intp),
        faa_nblocks=np.asarray(fn, dtype=np.intp),
        faa_blocks=np.asarray(fb, dtype=np.intp),
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


@dataclass(frozen=True)
class Jet:
    space: JetSpace
    data: np.ndarray  # flat, aligned with space.tuples; do not mutate

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

    def truncated(self, order: int) -> "Jet":
        if order == self.space.order:
            return self
        sp = space(self.space.m, order)
        return Jet(sp, self.data[: sp.size].copy())

    def partial(self, i: int) -> "Jet":
        """Order K-1 jet of the partial derivative along slot ``i`` (1-based)."""
        sp = self.space
        return Jet(space(sp.m, sp.order - 1), self.data[_partial_index(sp.m, sp.order, i)])

    # arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError(
                    "jets must share slot count and order "
                    f"(got m={other.space.m},K={other.space.order} vs "
                    f"m={self.space.m},K={self.space.order})"
                )
            return other
        return constant(float(other), self.space.m, self.space.order)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.space, self.data + other.data)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.space, self.data - other.data)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Jet(self.space, -self.data)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.data * float(other))
        other = self._coerce(other)
        sp = self.space
        out = np.zeros(sp.size)
        np.add.at(out, sp.mul_out, self.data[sp.mul_i] * other.data[sp.mul_j])
        return Jet(sp, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.data / float(other))
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(self._coerce(other), self)


def constant(value: float, m: int, order: int) -> Jet:
    sp = space(m, order)
    data = np.zeros(sp.size)
    data[0] = value
    return Jet(sp, data)


def seed(index: int, value: float, m: int, order: int) -> Jet:
    """Jet of the coordinate function of slot ``index`` (1-based) at ``value``."""
    sp = space(m, order)
    if not (1 <= index <= m):
        raise IndexError(f"slot index {index} out of range 1..{m}")
    data = np.zeros(sp.size)
    data[0] = value
    data[sp.pos[(index,)]] = 1.0
    return Jet(sp, data)


def divide(a: Jet, b: Jet) -> Jet:
    """Quotient a/b via the triangular solve of c*b = a, order by order."""
    if a.space is not b.space:
        raise ValueError("jets must share slot count and order")
    sp = a.space
    b0 = b.data[0]
    if abs(b0) <= _DIV_FLOOR:
        raise JetDomainError(f"division by numerically zero jet value {b0!r}")
    c = np.zeros(sp.size)
    c[0] = a.data[0] / b0
    full = sp.mul_i != sp.mul_out  # masks where the c-factor has lower order
    for k in range(1, sp.order + 1):
        lo, hi = sp.order_start[k], sp.order_start[k + 1]
        sel = full & (sp.mul_out >= lo) & (sp.mul_out < hi)
        partial = np.zeros(sp.size)
        np.add.at(partial, sp.mul_out[sel], c[sp.mul_i[sel]] * b.data[sp.mul_j[sel]])
        c[lo:hi] = (a.data[lo:hi] - partial[lo:hi]) / b0
    return Jet(sp, c)


def _outer_derivatives(fn: str, v: float, order: int, exponent: float | None) -> list[float]:
    """[f(v), f'(v), .., f^(order)(v)] for the supported unary functions."""
    if fn == "exp":
        e = math.exp(v)
        return [e] * (order + 1)
    if fn == "ln":
        if v <= 0:
            raise JetDomainError(f"ln of non-positive jet value {v!r}")
        out = [math.log(v)]
        for j in range(1, order + 1):
            out.append((-1.0) ** (j - 1) * math.factorial(j - 1) / v**j)
        return out
    if fn == "sin":
        cycle = [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)]
        return [cycle[j % 4] for j in range(order + 1)]
    if fn == "cos":
        cycle = [math.cos(v), -math.sin(v), -math.cos(v), math.sin(v)]
        return [cycle[j % 4] for j in range(order + 1)]
    if fn == "sqrt":
        if v <= 0:
            raise JetDomainError(f"sqrt of non-positive jet value {v!r}")
        return _outer_derivatives("pow", v, order, 0.5)
    if fn == "pow":
        c = exponent
        if c is None:
            raise ValueError("pow requires an exponent")
        integral = c == int(c)
        if not integral and v <= 0:
            raise JetDomainError(
                f"base {v!r} not positive for non-integer exponent {c!r}"
            )
        if integral and v == 0 and c < 0:
            raise JetDomainError("zero base with negative exponent")
        out = []
        coef = 1.0
        for j in range(order + 1):
            power = c - j
            if coef == 0.0:
                out.append(0.0)
            elif v == 0.0:
                # integral c >= 0 here; 0^0 == 1
                out.append(coef if power == 0 else 0.0)
            else:
                out.append(coef * v**power)
            coef *= c - j
        return out
    raise ValueError(f"unknown unary function {fn!r}")


def apply_unary(fn: str, a: Jet, exponent: float | None = None) -> Jet:
    """Compose a univariate function with a jet via Faa di Bruno partitions."""
    sp = a.space
    outer = np.asarray(_outer_derivatives(fn, a.data[0], sp.order, exponent))
    padded = np.append(a.data, 1.0)
    terms = outer[sp.faa_nblocks] * padded[sp.faa_blocks].prod(axis=1)
    out = np.zeros(sp.size)
    out[0] = outer[0]
    np.add.at(out, sp.faa_out, terms)
    return Jet(sp, out)


def power(a: Jet, exponent: float) -> Jet:
    return apply_unary("pow", a, exponent)


Binding = Union[Jet, float]


def eval_with_bindings(expr: ex.Expr, bindings: Mapping[str, Binding],
                       m: int, order: int) -> Jet:
    """Evaluate an expression tree where symbols map to jets or constants.

    Symbols ('x3', 'a', ...) bound to jets must all live in the same
    (m, order) space; symbols bound to floats are held constant.
    """
    sp = space(m, order)

    def lift(val: Binding) -> Jet:
        if isinstance(val, Jet):
            if val.space is not sp:
                raise ValueError("bound jet lives in a different space")
            return val
        return constant(float(val), m, order)

    def rec(node: ex.Node) -> Jet:
        if isinstance(node, ex.Const):
            return constant(node.value, m, order)
        if isinstance(node, ex.Var):
            name = f"x{node.index}"
            if name not in bindings:
                raise KeyError(f"missing binding for {name}")
            return lift(bindings[name])
        if isinstance(node, ex.Param):
            if node.name not in bindings:
                raise KeyError(f"missing binding for parameter '{node.name}'")
            return lift(bindings[node.name])
        if isinstance(node, ex.BinOp):
            if node.op == "^":
                base = rec(node.left)
                assert isinstance(node.right, ex.Const)
                return power(base, node.right.value)
            left = rec(node.left)
            right = rec(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return divide(left, right)
        return apply_unary(node.fn, rec(node.arg))

    return rec(expr.root)


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
    data = np.zeros(target.size)
    # tuples are ordered by length, so the entries that fit lead the target
    data[: idx.size] = jet.data[idx] / math.factorial(a_order)
    return Jet(target, data)


def substitute_last(joint: Jet, delta: Jet) -> Jet:
    """Compose a joint jet with an increment jet in its last slot.

    ``joint`` is a jet over m+1 slots (x1..xm, u) at the base point; ``delta``
    is a jet over x1..xm with value 0 describing u - u0 as a function of x.
    Returns the jet over x of the composition, truncated at delta's order.
    """
    if delta.data[0] != 0.0:
        raise ValueError("delta jet must have zero value")
    target = delta.space
    out = restrict_last(joint, 0, target).data
    dpow = None
    for j in range(1, target.order + 1):
        dpow = delta if dpow is None else dpow * delta
        out += (restrict_last(joint, j, target) * dpow).data
    return Jet(target, out)
