#!/usr/bin/env python3
"""Signed level-3 growth report for mixed-start-with-revealed-outcome runs.

Reports |signed growth| against the structured three-block sign family across
input sizes, normalized by d^3 sqrt(N), and the same quantity for the
three-block trace circuit at gamma = all-ones.  Reported, not asserted: the
constant inside the corresponding O(.) bound is not pinned down.
"""

import argparse
import sys

import numpy as np

from qgrowth.forrelation import tightness_circuit
from qgrowth.fourier import (
    SignFamily,
    SignKind,
    hbqp_alpha_signed_growth,
    signed_growth,
    spectrum_of_algorithm,
)
from qgrowth.linalg import IndexSpace
from qgrowth.models import Model, Restriction, random_spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--d", type=int, default=2)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    print("block size N, trials, max |signed level-3 growth|, ratio to d^3 sqrt(N)")
    for block in (4, 8, 16):
        worst = 0.0
        for _ in range(args.trials):
            spec = random_spec(Model.HALF_BQP, IndexSpace(3 * block, 1, 1), args.d, rng)
            pattern = np.zeros(3 * block, dtype=np.int8)
            fixed = rng.choice(3 * block, size=max(1, block // 2), replace=False)
            pattern[fixed] = rng.choice(np.array([-1, 1], dtype=np.int8), size=fixed.size)
            gamma = rng.uniform(-1, 1, 3 * block)
            value = abs(hbqp_alpha_signed_growth(spec, Restriction(pattern), gamma))
            worst = max(worst, value)
        ratio = worst / (args.d**3 * np.sqrt(block))
        print(f"{block:3d}, {args.trials}, {worst:.6f}, {ratio:.3e}")

    circ = tightness_circuit(2, 3)
    sp = spectrum_of_algorithm(circ.spec, circ.rho)
    family = SignFamily(SignKind.ALPHA_GAMMA, 3, 12, gamma=np.ones(12))
    print(f"three-block trace circuit (N=4), gamma=1: "
          f"signed level-3 growth = {signed_growth(sp, family):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
