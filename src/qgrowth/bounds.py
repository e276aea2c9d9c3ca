"""Explicit-constant growth ceilings certified by the experiment harness."""

from __future__ import annotations

from math import comb, sqrt


def dqck_growth_ceiling(big_n: int, k: int, d: int, level: int) -> float:
    """min(2^(k/2), sqrt(N)) * C(2d, level) * N^((level-2)/2), for level >= 2."""
    if level < 2:
        raise ValueError("the mixed-start ceiling applies to levels >= 2")
    return min(2.0 ** (k / 2), sqrt(big_n)) * comb(2 * d, level) * big_n ** ((level - 2) / 2)


def bqp_growth_ceiling(big_n: int, d: int, level: int) -> float:
    """C(2d, level) * N^((level-1)/2), for level >= 1.

    It also bounds HALF_BQP: a fully mixed start s, revealed at the end, runs
    the clean-start algorithm whose first gate is U_0 with columns 0 and s
    swapped and whose accepting set is row s of F.  The HALF_BQP acceptance
    is the mean of these M runs, and level growth (the l1 norm of one level's
    coefficients) is convex, so the mean's growth is at most the largest run's."""
    if level < 1:
        raise ValueError("the clean-start ceiling applies to levels >= 1")
    return comb(2 * d, level) * big_n ** ((level - 1) / 2)


def hybrid_dqck_growth_ceiling(big_n: int, k: int, d: int, level: int) -> float:
    """C(3d, level) * N^((level-2)/2) * min(2^(k/2), sqrt(N)): the ceiling for
    depth-<=d classical pre-processing in front of d-query mixed-start runs."""
    if level < 2:
        raise ValueError("the hybrid ceiling applies to levels >= 2")
    return comb(3 * d, level) * big_n ** ((level - 2) / 2) * min(2.0 ** (k / 2), sqrt(big_n))
