#!/usr/bin/env python3
"""Sweep symmetric-channel pairs through the degradedness decision.

For each flip pair (p, q) the linear program either recovers an explicit
garbling kernel taking the p-channel to the q-channel, or it reports two
bounds on the best achievable max-entry residual: the residual of its own
best kernel (an upper bound) and the Blackwell test matrix's lower bound,
which proves that no kernel does better.  The two agree to solver
precision.  The full p <= q upper triangle should come out feasible and
everything below it infeasible:

    python scripts/garbling_sweep.py --flips 0.05 0.1 0.2 0.3 0.4
"""

import argparse

from mmse_lab import binary_symmetric_channel, is_degraded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--flips", type=float, nargs="+",
                        default=[0.05, 0.1, 0.2, 0.3, 0.4])
    args = parser.parse_args(argv)

    flips = sorted(args.flips)
    corner = "p \\ q"
    print(f"{corner:>8}  " + "  ".join(f"{q:>21.3f}" for q in flips))
    for p in flips:
        cells = []
        for q in flips:
            cert = is_degraded(binary_symmetric_channel(p),
                               binary_symmetric_channel(q))
            if cert.feasible:
                # recovered garbling flip g solves p + g - 2 p g = q
                cells.append(f"g={cert.garbling_matrix[0, 1]:.6f}")
            else:
                cells.append(f"r={cert.residual:.2e} lb={cert.lower_bound:.2e}")
        print(f"{p:>8.3f}  " + "  ".join(f"{c:>21}" for c in cells))
    print("\ng: recovered garbling flip (feasible)   "
          "r, lb: residual and Blackwell lower bound (infeasible)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
