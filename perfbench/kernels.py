"""Jet kernel microbenchmarks at the (m, K) spaces the workloads use.

Each kernel runs on warmed index tables with fixed random operands.  Its
time is the median over batches of the mean time per call, in
microseconds, and it is reported next to its computed operation count:

* ``mul``: one multiply-add per Leibniz table entry, ``len(mul_out)``;
* ``divide``: the multiply-adds of the triangular solve, the table entries
  whose quotient factor has lower order than the result;
* ``apply_unary``: ``order`` multiplies per Faa di Bruno term;
* ``substitute_last``: the ``2K - 1`` jet products of the composition plus
  one pass over the target space per restricted slice.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from goursatkit import jets as J

TIMED = (("mul", 7, 4), ("mul", 8, 3), ("divide", 7, 4), ("divide", 8, 3),
         ("apply_unary", 7, 4), ("apply_unary", 8, 3), ("substitute_last", 6, 3))


def _random_jet(rng: np.random.Generator, m: int, order: int, value: float) -> J.Jet:
    sp = J.space(m, order)
    data = rng.uniform(-1.0, 1.0, sp.size)
    data[0] = value
    return J.Jet(sp, data)


def operation_count(kernel: str, m: int, order: int) -> int:
    sp = J.space(m, order)
    if kernel == "mul":
        return int(sp.mul_out.size)
    if kernel == "divide":
        return int((sp.mul_i != sp.mul_out).sum())
    if kernel == "apply_unary":
        return int(sp.faa_out.size * order)
    if kernel == "substitute_last":
        return int((2 * order - 1) * sp.mul_out.size + (order + 1) * sp.size)
    raise KeyError(kernel)


def _call(kernel: str, m: int, order: int, rng: np.random.Generator):
    if kernel == "substitute_last":
        joint = _random_jet(rng, m + 1, order, 0.7)
        delta = _random_jet(rng, m, order, 0.0)
        return lambda: J.substitute_last(joint, delta)
    a = _random_jet(rng, m, order, 0.9)
    b = _random_jet(rng, m, order, 1.3)
    if kernel == "mul":
        return lambda: a * b
    if kernel == "divide":
        return lambda: J.divide(a, b)
    return lambda: J.apply_unary("exp", a)


def time_kernel(kernel: str, m: int, order: int, seed: int,
                batches: int = 7, budget_s: float = 0.15) -> float:
    """Median microseconds per call over ``batches`` batches."""
    fn = _call(kernel, m, order, np.random.default_rng(seed))
    fn()  # warm the index tables
    t0 = time.perf_counter()
    fn()
    per_call = max(time.perf_counter() - t0, 1e-6)
    reps = max(1, int(budget_s / batches / per_call))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples) * 1e6


def run_all(seed: int) -> dict[str, tuple[float, str]]:
    """Every kernel metric as name -> (value, unit)."""
    out = {}
    for kernel, m, order in TIMED:
        tag = f"m{m}k{order}"
        out[f"jets.kernel.{kernel}_us.{tag}"] = (time_kernel(kernel, m, order, seed), "us")
        out[f"jets.kernel.{kernel}_ops.{tag}"] = (operation_count(kernel, m, order), "count")
    return out
