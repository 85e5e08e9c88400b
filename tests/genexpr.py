"""Seeded random smooth expressions with evaluation points away from
singularities, for derivative cross-checks."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from goursatkit.expr import Expr, evaluate, parse

UNARIES = ("exp", "ln", "sin", "cos", "sqrt")

# terms over x1..x5 that leave their domain, overflow or cancel somewhere on
# the box 0.5:1.5: added to a web, they push it to its numerical edges
EDGE_TREES = [
    # domain edges and poles
    "ln(x1 - 1)", "sqrt(x2 - 1)", "ln(x3 - 0.5)", "1/(x1 - x1)", "1/(x4 - 1)",
    "(x1 - 1)^(-0.5)",
    # overflow in the value or its derivatives
    "exp(1000*x5)", "exp(800)*x1", "10^400*x2", "sin(x1^(-2000))", "x1^(-100)*x3",
    # magnitudes whose products and minors overflow while the jets stay finite
    "(x1+x2+x3+x4+x5)^400", "x1^300*x3^2", "1e200*x1*x3*x4", "1e200*x2*x5^2",
    # near-cancelling sums: large terms that leave a small difference
    "1e16*x1*x3 - 1e16*x1*x3 + x2*x4", "(1e200*x3*x4 + x1*x5) - 1e200*x3*x4",
    "(x1 + 1e15) - 1e15",
    # non-finite and zero operands inside the jet kernels: x1*1e308 overflows
    # only once it multiplies a jet, and 1e-999 parses to 0
    "x1*1e308*10", "1e-999*x1",
]

_DATA = Path(__file__).parent / "data"
_HOSTILE = _DATA / "hostile"
# configs whose expression parses, but holds a literal that overflows to inf
# or a variable-free part (1e308*10, sqrt(0), 1/1e-301) that fails under the
# jets' rules, which the run refuses as a config error before it samples
CONSTANT_PART_CONFIGS = sorted([*_HOSTILE.glob("nonfinite-literal-*.cfg"),
                                *_HOSTILE.glob("constant-*.cfg"),
                                _HOSTILE / "overflowing-literal-product.cfg"])
# configs whose expression is a config error: an exponent that fails under the
# jets' rules (sqrt(0), 1/1e-301, an overflow) or folds to inf or NaN, or a
# tree too deep for the parser or the evaluators
HOSTILE_CONFIGS = sorted(set(_HOSTILE.glob("*.cfg")) - set(CONSTANT_PART_CONFIGS))
# configs with no failing variable-free part, whose jets (or, for a family,
# whose envelope solve) fail at every point: each run spends its draw budget
# and exits 3, a numerical failure
NUMERICAL_FAILURE_CONFIGS = sorted((_DATA / "numerical").glob("*.cfg"))


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
