#!/usr/bin/env python3
"""Classify the bundled webs and probe their named Pfaffian systems.

Usage:
  python scripts/classify_catalog.py [--points N] [--seed S]
"""

from __future__ import annotations

import argparse

from goursatkit import catalog
from goursatkit.classify import classify, sample_bundle
from goursatkit.exterior import frobenius_reports, make_system


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--points", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'web':<12} {'first':<7} {'second':<8} {'system':<10} "
          f"{'kernel':<7} {'frobenius'}")
    for name, make in catalog.NAMED_WEBS.items():
        web, box = make()
        rep = classify(web, box, count=args.points, seed=args.seed)
        probe = sample_bundle(web, box, 1, seed=args.seed)  # every system's point
        systems = ["S10", "S10_11", "THETA_RHO"]
        if web.arity >= 5:
            systems += ["DELTA2", "DELTA3", "DELTA4"]
        first = True
        for sysname in systems:
            fr, = frobenius_reports(make_system(web, sysname), probe)
            head = (f"{name:<12} {str(rep.first_kind):<7} "
                    f"{str(rep.second_kind):<8}") if first else " " * 29
            print(f"{head} {sysname:<10} {fr.kernel_dim:<7} {fr.verdict} "
                  f"(max {fr.max_residual:.1e})")
            first = False
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
