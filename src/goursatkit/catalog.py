"""Bundled webs, family specs and randomized family generators.

The controls are chosen so the negative branches of the classification and
integrability claims are exercised at comfortable margins:

* ``control_web(n)`` is not of the first kind (its cleared mixed-partial
  determinant is 1 + x1*x3) and its leading torsion span is non-integrable
  away from x3 = 0, so it doubles as the non-integrable control.
* ``cross_web()`` is the minimal non-first-kind example with constant mixed
  partials (its torsion span is a constant-coefficient foliation).

Random family specs keep the envelope constraint linear (optionally mildly
quadratic) in the parameter with a slope bounded away from zero on the
default box, so Newton stays on one branch from the precomputed start.
"""

from __future__ import annotations

import numpy as np

from .classify import Box
from .expr import parse
from .families import FamilySpec, family_web, solve_parameter
from .web import WebFunction

DEFAULT_FAMILY_BOX = (0.8, 1.2)
DEFAULT_EXPR_BOX = (0.5, 1.5)


def _pad(n: int, start: int = 5) -> str:
    terms = [f"x{s}^2/2" for s in range(start, n + 1)]
    return (" + " + " + ".join(terms)) if terms else ""


def product_web(n: int = 4) -> WebFunction:
    """First-kind closed form (x1+x2)*(x3+x4), padded separably above n=4."""
    return WebFunction.from_expr(parse(f"(x1+x2)*(x3+x4){_pad(n)}", n))


def cross_web(n: int = 4) -> WebFunction:
    """Non-first-kind control with constant mixed partials."""
    return WebFunction.from_expr(parse(f"x1*x3 + x2*x4 + x1*x4{_pad(n)}", n))


def separable_web(n: int = 4) -> WebFunction:
    """Sum of squares: torsion vanishes identically."""
    return WebFunction.from_expr(parse(" + ".join(f"x{i}^2/2" for i in range(1, n + 1)), n))


def control_web(n: int = 4) -> WebFunction:
    """Generic control: non-first-kind, non-second-kind, non-integrable spans."""
    return WebFunction.from_expr(
        parse(f"x1*x3 + x2*x4 + x1*x4 + x1^2*x3^2/4{_pad(n)}", n))


def control_box(n: int) -> Box:
    return Box.cube(n, *DEFAULT_EXPR_BOX)


def family_box(n: int) -> Box:
    return Box.cube(n, *DEFAULT_FAMILY_BOX)


def first_kind_demo_spec() -> FamilySpec:
    """Hand-eliminable first-kind family: F(x) = (x1+x2+x3+x4)^2 / 2."""
    return FamilySpec(
        kind="first",
        phi=parse("a*(x1+x2) + a^2/2", 4, ["a"]),
        psi=parse("a*(x3+x4) - a^2", 4, ["a"]),
        arity=4,
        a0=1.0,
    )


def second_kind_demo_spec() -> FamilySpec:
    """Hand-eliminable second-kind family: F = -u^2/2 - u*v with
    u = x1+x2, v = x3+x4+x5."""
    return FamilySpec(
        kind="second",
        phi=parse("a*(x1+x2) + s^2/2", 5, ["a", "s"]),
        psi=parse("a + x3 + x4 + x5", 5, ["a"]),
        arity=5,
        a0=-4.0,
    )


def degenerate_spec() -> FamilySpec:
    """Both parts linear in the parameter: the envelope constraint has no
    simple root (constant in a), so the solve reports a singular envelope."""
    return FamilySpec(
        kind="first",
        phi=parse("a*(x1+x2)", 4, ["a"]),
        psi=parse("a*(x3+x4)", 4, ["a"]),
        arity=4,
        a0=0.0,
    )


def _coef(rng: np.random.Generator, lo: float, hi: float) -> str:
    v = rng.uniform(lo, hi)
    return f"{v:.6f}"


def _centered(spec: FamilySpec) -> FamilySpec:
    """``spec`` with a0 set to its parameter root at the centre of the default
    family box, solved from a0 = 0."""
    center = np.full(spec.arity, sum(DEFAULT_FAMILY_BOX) / 2)
    return FamilySpec(spec.kind, spec.phi, spec.psi, spec.arity,
                      float(solve_parameter(spec, center, a0=0.0)), spec.slot)


def random_first_kind_spec(rng: np.random.Generator, n: int,
                           quadratic_tail: bool = False) -> FamilySpec:
    """Random polynomial/exponential first-kind family over x in [0.8, 1.2]^n.

    phi carries x1, x2 (and the shared tail variables), psi carries x3, x4;
    the constraint G is linear in a with slope q1+q2 in [1.2, 2.8], plus an
    optional small quadratic term, so the root is simple everywhere on the
    default box.
    """
    if n < 4:
        raise ValueError("first-kind specs need n >= 4")
    tail_phi = "".join(f" + {_coef(rng, 0.3, 0.8)}*a*x{s}" for s in range(5, n + 1))
    q1 = rng.uniform(0.6, 1.4)
    q2 = rng.uniform(0.6, 1.4)
    # the a*x1*x2 / a*x3*x4 couplings keep the torsion-weighted forms
    # genuinely point-dependent, so integrability checks are not vacuous
    phi_txt = (f"a*({_coef(rng, 0.8, 1.2)}*x1 + {_coef(rng, 0.8, 1.2)}*x2"
               f" + {_coef(rng, 0.05, 0.2)}*x1*x2)"
               f" + {q1:.6f}*a^2/2{tail_phi}"
               f" + {_coef(rng, 0.05, 0.2)}*x1*x2"
               f" + {_coef(rng, 0.05, 0.25)}*exp({_coef(rng, 0.2, 0.5)}*x1)")
    psi_txt = (f"a*({_coef(rng, 0.8, 1.2)}*x3 + {_coef(rng, 0.8, 1.2)}*x4"
               f" + {_coef(rng, 0.05, 0.2)}*x3*x4)"
               f" + {q2:.6f}*a^2/2"
               f" + {_coef(rng, 0.05, 0.2)}*x3*x4"
               f" + {_coef(rng, 0.05, 0.25)}*exp({_coef(rng, 0.2, 0.5)}*x4)")
    if quadratic_tail:
        psi_txt += f" + {_coef(rng, 0.005, 0.02)}*a^3/3"
    return _centered(FamilySpec(
        kind="first",
        phi=parse(phi_txt, n, ["a"]),
        psi=parse(psi_txt, n, ["a"]),
        arity=n,
        a0=0.0,
    ))


def random_second_kind_spec(rng: np.random.Generator, n: int) -> FamilySpec:
    """Random second-kind family with genuinely rank-two leading structure.

    psi's a-slope varies with x3..x5 and phi couples the psi slot to x1, x2,
    which keeps the (values, row-1, row-2) block of mixed partials at rank
    two rather than collapsing to rank one, so the dimension claims are
    exercised non-vacuously.
    """
    if n < 5:
        raise ValueError("second-kind specs need n >= 5")
    # psi's parameter slope must vary across x3..x5 (keeps the eliminated
    # parameter's gradient independent of psi's) and phi's slot coupling must
    # separate x1 from x2 (keeps the web outside the first-kind class);
    # magnitudes are bounded away from zero so neither structure collapses
    m3, m4, m5 = rng.uniform(0.03, 0.08, 3) * rng.choice([-1.0, 1.0], 3)
    slope_txt = f"(1 + {m3:.6f}*x3 + {m4:.6f}*x4 + {m5:.6f}*x5)"
    psi_txt = (f"a*{slope_txt}"
               f" + {_coef(rng, 0.8, 1.2)}*x3 + {_coef(rng, 0.8, 1.2)}*x4"
               f" + {_coef(rng, 0.8, 1.2)}*x5"
               f" + {_coef(rng, 0.02, 0.1)}*exp({_coef(rng, 0.2, 0.4)}*x3)")
    tail = "".join(f" + {_coef(rng, 0.3, 0.8)}*a*x{s}" for s in range(6, n + 1))
    e1 = rng.uniform(0.15, 0.3)
    e2 = -rng.uniform(0.15, 0.3)
    phi_txt = (f"a*({_coef(rng, 0.8, 1.2)}*x1 + {_coef(rng, 0.8, 1.2)}*x2){tail}"
               f" + {_coef(rng, 0.9, 1.1)}*s^2/2"
               f" + s*({e1:.6f}*x1 + {e2:.6f}*x2)"
               f" + {_coef(rng, 0.02, 0.1)}*x1*x2")
    return _centered(FamilySpec(
        kind="second",
        phi=parse(phi_txt, n, ["a", "s"]),
        psi=parse(psi_txt, n, ["a"]),
        arity=n,
        a0=0.0,
    ))


def random_family_web(rng: np.random.Generator, kind: str, n: int) -> tuple[FamilySpec, WebFunction, Box]:
    if kind == "first":
        spec = random_first_kind_spec(rng, n)
    else:
        spec = random_second_kind_spec(rng, n)
    return spec, family_web(spec), family_box(n)


NAMED_WEBS = {
    "product4": lambda: (product_web(4), control_box(4)),
    "cross4": lambda: (cross_web(4), control_box(4)),
    "separable4": lambda: (separable_web(4), control_box(4)),
    "control4": lambda: (control_web(4), control_box(4)),
    "control5": lambda: (control_web(5), control_box(5)),
}
