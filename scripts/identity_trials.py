#!/usr/bin/env python3
"""Constrained-random identity experiments on the torsion condition systems.

Runs the polynomial identities on the second-kind variety, the
two-imply-third check for each pairing of the m/n/r condition systems and the
witness search showing the s-family does not force the u/v-family:

  python scripts/identity_trials.py --trials 1000 --seed 0
"""

from __future__ import annotations

import argparse

from goursatkit.identities import implication_tests, polynomial_sweep, witness_search


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    worst = polynomial_sweep(args.trials, args.seed)
    print(f"polynomial identities on the constraint variety "
          f"({args.trials} samples): max rel {worst:.3e}")

    for res in implication_tests(args.trials, args.seed):
        print(f"impose {'+'.join(res.imposed):<4} -> check {res.checked}: "
              f"max rel {res.max_relative:.3e} "
              f"({res.rejected} ill-conditioned trials redrawn)")

    wr = witness_search(args.trials, args.seed)
    print(f"witness search (s-conditions without u/v-conditions): found={wr.found} "
          f"after {wr.trials_used} trials, violated residual {wr.uv_max_relative:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
