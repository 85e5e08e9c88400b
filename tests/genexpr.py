"""Seeded random smooth expressions with evaluation points away from
singularities, for derivative cross-checks."""

from __future__ import annotations

import numpy as np

from goursatkit.expr import Expr, evaluate, parse

UNARIES = ("exp", "ln", "sin", "cos", "sqrt")


def _leaf(rng: np.random.Generator, n_vars: int) -> str:
    i = rng.integers(1, n_vars + 1)
    c0 = rng.uniform(1.5, 2.5)
    c1 = rng.uniform(-0.5, 0.5)
    return f"({c0:.4f} + {c1:.4f}*x{i})"


def random_tree(rng: np.random.Generator, n_vars: int, depth: int = 3) -> str:
    """Text of a random tree over x1..x_n_vars (its value is not checked)."""
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng, n_vars)
    kind = rng.integers(0, 8)
    a = random_tree(rng, n_vars, depth - 1)
    if kind == 0:
        return f"({a} + {random_tree(rng, n_vars, depth - 1)})"
    if kind == 1:
        return f"({a} - {rng.uniform(0.1, 0.9):.4f}*{_leaf(rng, n_vars)})"
    if kind == 2:
        return f"({a} * {random_tree(rng, n_vars, depth - 1)})"
    if kind == 3:
        return f"({a} / {_leaf(rng, n_vars)})"
    if kind == 4:
        expo = rng.choice([2.0, 3.0, -1.0, 0.5, 1.5])
        return f"({a} ^ {expo})"
    if kind == 5:
        return f"exp({rng.uniform(0.05, 0.3):.4f}*{a})"
    if kind == 6:
        fn = rng.choice(["sin", "cos"])
        return f"{fn}({a})"
    return f"{rng.choice(['ln', 'sqrt'])}({a})"


def random_smooth_expression(rng: np.random.Generator, n_vars: int = 3,
                             depth: int = 3, max_tries: int = 60
                             ) -> tuple[Expr, dict[str, float]]:
    """An expression and a point where it evaluates to a moderate value.

    Leaves stay in [1, 3] on the sampled box so ln/sqrt/division arguments
    are bounded away from their singular loci; candidates whose value still
    escapes [1e-6, 1e6] are redrawn.
    """
    for _ in range(max_tries):
        text = random_tree(rng, n_vars, depth)
        e = parse(text, n_vars)
        point = {f"x{i}": float(rng.uniform(-1.0, 1.0)) for i in range(1, n_vars + 1)}
        try:
            value = evaluate(e, point)
        except ArithmeticError:
            continue
        except Exception:
            continue
        if np.isfinite(value) and 1e-6 < abs(value) < 1e6:
            return e, point
    raise RuntimeError("could not generate a well-behaved expression")
