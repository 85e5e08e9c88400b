"""The derivative bundle, torsion, Pfaffian derivatives and every SYSTEMS
coefficient against sympy: symbolic differentiation is an oracle that shares
no code with the jet arithmetic.  sympy is a test-only dependency.

The webs are catalog webs, the golden ``closed-n8`` expression and generated
trees (``genexpr.random_tree`` at fixed seeds, added to a regular web), which
reach ln, sqrt, powers, quotients, exp, sin and cos."""

from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from genexpr import random_tree  # noqa: E402
from goursatkit import catalog  # noqa: E402
from goursatkit.classify import sample_bundle  # noqa: E402
from goursatkit.cli import build_web, parse_config_text  # noqa: E402
from goursatkit.exterior import SYSTEMS, _row_values  # noqa: E402
from goursatkit.expr import parse  # noqa: E402
from goursatkit.jets import Jet, space  # noqa: E402
from goursatkit.web import JET_ORDER, WebFunction  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "golden"
REL = 1e-10


def _quotient_rule():
    """d/dt of F_ab / (F_a F_b) by sympy, as a function of (F_a, F_b, F_ab,
    dF_a/dt, dF_b/dt, dF_ab/dt)."""
    t = sp.Symbol("t")
    fa, fb, fab = (sp.Function(name)(t) for name in ("fa", "fb", "fab"))
    values = sp.symbols("fa fb fab dfa dfb dfab")
    rule = sp.diff(fab / (fa * fb), t).subs(
        {f.diff(t): v for f, v in zip((fa, fb, fab), values[3:])}).subs(
        {f: v for f, v in zip((fa, fb, fab), values[:3])})
    return sp.lambdify(values, rule, "numpy")


D_QUOTIENT = _quotient_rule()


def _pad(n):
    return "".join(f" + x{s}^2/2" for s in range(5, n + 1))


def _closed_n8():
    cfg = parse_config_text((GOLDEN / "closed-n8.cfg").read_text())
    return cfg.expr_text, build_web(cfg)


REGULAR_WEB = "x1*x3 + x2*x4 + x5*(x1 + x3) + x2*x5^2"


def _tree(seed):
    text = f"{REGULAR_WEB} + 0.1*{random_tree(np.random.default_rng(seed), 5)}"
    return text, WebFunction.from_expr(parse(text, 5))


CASES = {
    "product": lambda: ("(x1+x2)*(x3+x4)" + _pad(5), catalog.product_web(5)),
    "separable": lambda: (" + ".join(f"x{i}^2/2" for i in range(1, 6)),
                          catalog.separable_web(5)),
    "control": lambda: ("x1*x3 + x2*x4 + x1*x4 + x1^2*x3^2/4" + _pad(6),
                        catalog.control_web(6)),
    "closed-n8": _closed_n8,
    **{f"tree{seed}": partial(_tree, seed) for seed in range(8)},
}


def _close(got, want):
    """Equal to REL relative to the largest entry of ``want`` at each point."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.nanmax(np.abs(want).reshape(len(want), -1), axis=1, initial=1e-300)
    scale = scale.reshape((-1,) + (1,) * (want.ndim - 1))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = np.isnan(want) | (np.abs(got - want) <= REL * scale)
    assert ok.all(), float(np.nanmax(np.abs(got - want) / scale))


@pytest.mark.parametrize("case", list(CASES))
def test_bundle_torsion_pfaffian_and_systems_match_sympy(case):
    text, web = CASES[case]()
    n = web.arity
    xs = sp.symbols(f"x1:{n + 1}")
    F = sp.sympify(text.replace("^", "**"), locals={"ln": sp.log, **{str(x): x for x in xs}})
    b = sample_bundle(web, catalog.control_box(n), 4, seed=len(case))
    points = b.points
    gauge = np.random.default_rng(n).uniform(-1.0, 1.0, n)

    @lru_cache(maxsize=None)
    def partial(*idx):
        return sp.diff(partial(*idx[:-1]), xs[idx[-1] - 1]) if idx else F

    def d(*idx):  # F_idx, 1-based slots
        return partial(*sorted(idx))

    system_rows = [(name, row) for name, (rows, _, _) in SYSTEMS.items() for row in rows
                   if n >= 5 or not name.startswith("DELTA")]
    coeffs = []
    for _, row in system_rows:
        c = [0] * n
        for slot, terms in row:
            c[slot - 1] = sum(sign * sp.Mul(*(d(*idx) for idx in factors))
                              for sign, *factors in terms)
        coeffs.append([c, [[sp.diff(ci, x) for x in xs] for ci in c]])
    oracle = sp.lambdify([xs], [
        [d(i) for i in range(1, n + 1)],
        [[d(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)],
        [[[d(i, j, k) for k in range(1, n + 1)] for j in range(1, n + 1)]
         for i in range(1, n + 1)],
        coeffs], "math", cse=True)
    want = [oracle(p) for p in points]

    def stack(pick):
        return np.array([pick(w) for w in want], dtype=float)

    _close(b.grad, stack(lambda w: w[0]))
    _close(b.hess, stack(lambda w: w[1]))
    _close(b.third, stack(lambda w: w[2]))
    # a_ab = F_ab / (F_a F_b) and a_abg = (1/F_g) d_g a_ab - a_ab (a_ga + a_bg),
    # with d_g a_ab differentiated by sympy and fed the oracle's values
    g1, g2, g3 = (stack(lambda w: w[k]) for k in range(3))
    diag = np.eye(n, dtype=bool)
    torsion = g2 / (g1[:, :, None] * g1[:, None, :])
    torsion[:, diag] = np.nan
    _close(b.torsion_values(), torsion)
    a = np.nan_to_num(torsion)
    ga, gb = g1[:, :, None, None], g1[:, None, :, None]
    d_a = D_QUOTIENT(ga, gb, g2[:, :, :, None], g2[:, :, None, :], g2[:, None, :, :], g3)
    zero_gauge = (d_a / g1[:, None, None, :]
                  - a[..., None] * (a.swapaxes(1, 2)[:, :, None, :] + a[:, None, :, :]))
    zero_gauge[:, diag] = np.nan
    _close(b.pfaffian_values(np.zeros(n)), zero_gauge)
    tilted = zero_gauge - np.nan_to_num(torsion)[..., None] * gauge
    tilted[:, diag] = np.nan
    _close(b.pfaffian_values(gauge), tilted)
    jet = Jet(space(n, JET_ORDER), b.data.T)
    for i, (name, row) in enumerate(system_rows):
        c, dc = _row_values(row, jet)
        _close(c, stack(lambda w: w[3][i][0]))
        _close(dc, stack(lambda w: w[3][i][1]))
