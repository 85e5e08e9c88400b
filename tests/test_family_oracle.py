"""The eliminated family parameter a(x) and the family web's jet against
sympy: G(x, a) = dPhi/da = 0 is differentiated implicitly to order 3 by the
chain rule, with sympy's partial derivatives of Phi.  This shares no code
with the jet arithmetic or the order-by-order solve."""

from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from goursatkit import catalog  # noqa: E402
from goursatkit.cli import parse_config_text  # noqa: E402
from goursatkit.expr import parse, to_text  # noqa: E402
from goursatkit.families import (PARAM, FamilySpec, family_web, parameter_jet,  # noqa: E402
                                 solve_parameter)
from goursatkit.jets import derivative_index  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "golden"
REL = 1e-10


def _golden_family2():
    cfg = parse_config_text((GOLDEN / "family2-n6.cfg").read_text())
    return FamilySpec("second", parse(cfg.phi_text, cfg.n, [PARAM, cfg.slot]),
                      parse(cfg.psi_text, cfg.n, [PARAM]), cfg.n, cfg.a0, cfg.slot)


SPECS = {
    "first-demo": catalog.first_kind_demo_spec,
    "second-demo": catalog.second_kind_demo_spec,
    "family2-n6": _golden_family2,
}


def _phi_partials(spec: FamilySpec):
    """Every partial of Phi(x, a) with at most three x slots and four slots
    in all, as a function of (x, a) returning {sorted slot tuple: value};
    slot n+1 is a."""
    n = spec.arity
    xs = sp.symbols(f"x1:{n + 1}")
    a, s = sp.Symbol(PARAM), sp.Symbol(spec.slot)
    names = {str(x): x for x in xs} | {PARAM: a, spec.slot: s, "ln": sp.log}

    def sym(e):
        return sp.sympify(to_text(e).replace("^", "**"), locals=names)

    phi, psi = sym(spec.phi), sym(spec.psi)
    total = phi + psi if spec.kind == "first" else phi.subs(s, psi)
    slots = xs + (a,)
    keys = [t for k in range(5) for t in combinations_with_replacement(range(1, n + 2), k)
            if sum(i <= n for i in t) <= 3]
    exprs = {}
    for t in keys:  # shorter tuples first, and t[:-1] is a key too
        exprs[t] = sp.diff(exprs[t[:-1]], slots[t[-1] - 1]) if t else total
    f = sp.lambdify([slots], [exprs[t] for t in keys], "math")
    return lambda x, root: dict(zip(keys, f(list(x) + [root])))


def _chain(H, t, d):
    """d^t/dx^t of H(x, a(x)) for a slot tuple t of length 1-3, H(*slots)
    giving the partials of H (slot "a" for the parameter) and d the
    derivatives of a(x) by sorted slot tuple."""
    A = "a"
    if len(t) == 1:
        (i,) = t
        return H(i) + H(A) * d[i,]
    if len(t) == 2:
        i, j = t
        return (H(i, j) + H(i, A) * d[j,] + H(j, A) * d[i,] + H(A, A) * d[i,] * d[j,]
                + H(A) * d[i, j])
    i, j, k = t
    ai, aj, ak = d[i,], d[j,], d[k,]
    return (H(i, j, k) + H(i, j, A) * ak + H(i, k, A) * aj + H(j, k, A) * ai
            + H(i, A, A) * aj * ak + H(j, A, A) * ai * ak + H(k, A, A) * ai * aj
            + H(A, A, A) * ai * aj * ak
            + H(i, A) * d[j, k] + H(j, A) * d[i, k] + H(k, A) * d[i, j]
            + H(A, A) * (ai * d[j, k] + aj * d[i, k] + ak * d[i, j]) + H(A) * d[i, j, k])


def _close(got: np.ndarray, want: np.ndarray):
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.all(np.abs(got - want) <= REL * scale), float(np.max(np.abs(got - want)) / scale)


@pytest.mark.parametrize("name", list(SPECS))
def test_parameter_and_family_jets_match_implicit_differentiation(name):
    spec = SPECS[name]()
    n = spec.arity
    partials = _phi_partials(spec)
    web = family_web(spec)
    slots = [t for k in (1, 2, 3) for t in combinations_with_replacement(range(1, n + 1), k)]
    for p in np.random.default_rng(n).uniform(0.85, 1.15, (4, n)):
        root = solve_parameter(spec, p)
        values = partials(p, root)

        def phi(*idx, extra=()):
            return values[tuple(sorted(n + 1 if i == "a" else i for i in idx + extra))]

        def g(*idx):  # G = dPhi/da
            return phi(*idx, extra=(n + 1,))

        # G(x, a(x)) == 0 at every order: G_a a_t = -(the rest of d^t G)
        a = {}
        for t in slots:  # lower orders first
            a[t] = 0.0
            a[t] = -_chain(g, t, a) / g("a")
        f = {t: _chain(phi, t, a) for t in slots}
        pj = parameter_jet(spec, p, 3)
        fj = web.jet(p, 3)
        assert pj.value == root
        for k in (1, 2, 3):
            ts = [t for t in slots if len(t) == k]
            idx = [derivative_index(n, k)[tuple(i - 1 for i in t)] for t in ts]
            _close(pj.data[idx], np.array([a[t] for t in ts]))
            _close(fj.data[idx], np.array([f[t] for t in ts]))
