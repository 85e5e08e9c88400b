#!/usr/bin/env python3
"""Sweep randomized solution families and report the worst condition residuals.

Reproduces the soundness experiment behind the acceptance gate at a
configurable scale:

  python scripts/family_sweep.py --specs 25 --points 10 --seed 7
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from goursatkit import catalog
from goursatkit.classify import (first_kind_pde, first_kind_residual, running_max,
                                 sample_bundle, second_kind_pde, second_kind_residuals)
from goursatkit.exterior import frobenius_reports, make_system
from goursatkit.families import family_web
from goursatkit.web import TorsionTensor


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--specs", type=int, default=25)
    ap.add_argument("--points", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)

    t0 = time.perf_counter()
    worst14 = worst_pde = worst_frob = 0.0
    for trial in range(args.specs):
        n = 4 if trial % 2 == 0 else 5
        spec = catalog.random_first_kind_spec(rng, n)
        web = family_web(spec)
        b = sample_bundle(web, catalog.family_box(n), args.points, seed=trial)
        worst14 = running_max(worst14, first_kind_residual(TorsionTensor(n, b.torsion_values()))[1])
        worst_pde = running_max(worst_pde, first_kind_pde(b)[1])
        if n >= 5:
            report, = frobenius_reports(make_system(web, "THETA_RHO"), b[:1])
            worst_frob = max(worst_frob, report.max_residual)
    print(f"first kind, {args.specs} specs x {args.points} points "
          f"({time.perf_counter() - t0:.2f}s):")
    print(f"  torsion-form residual  max {worst14:.3e}")
    print(f"  pde-form residual      max {worst_pde:.3e}")
    print(f"  theta/rho frobenius    max {worst_frob:.3e}")

    t0 = time.perf_counter()
    worst24 = worst29 = 0.0
    for trial in range(args.specs):
        n = 5 if trial % 2 == 0 else 6
        spec = catalog.random_second_kind_spec(rng, n)
        b = sample_bundle(family_web(spec), catalog.family_box(n), args.points, seed=trial)
        worst24 = running_max(worst24,
                              second_kind_residuals(TorsionTensor(n, b.torsion_values())).det24_rel)
        worst29 = running_max(worst29, second_kind_pde(b)[1])
    print(f"second kind, {args.specs} specs x {args.points} points "
          f"({time.perf_counter() - t0:.2f}s):")
    print(f"  determinant residual   max {worst24:.3e}")
    print(f"  pde-form residual      max {worst29:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
