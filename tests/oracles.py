"""Per-entry references the decomposition tests hold the package's oracles to.

:func:`brute_force_entry` sums one entry's index paths one at a time, with every
indicator explicit; the tests check ``decomposition.brute_force_tensor`` (the
oracle ``verify`` runs) and single factorization entries against it.
"""

from itertools import product

from qgrowth.decomposition import AugmentedMatrix, DecompositionSpec


def parity_update(s_mask: int, oracle_index: int, position: int, spec: DecompositionSpec) -> int:
    """Parity-set transition at one position of the chain.

    Toggles ``oracle_index`` in the mask when the position is in [2, d], not
    skipped, and the index falls inside the tracked prefix; otherwise the
    mask passes through unchanged.
    """
    if (
        2 <= position <= spec.depth
        and position not in spec.parity_skip
        and 0 <= oracle_index < spec.tracked
    ):
        return s_mask ^ (1 << oracle_index)
    return s_mask


def brute_force_entry(
    spec: DecompositionSpec,
    i_start: int,
    i_end: int,
    s_end: int,
    b_end=(),
) -> complex:
    """Raw summation over the d-1 inner indices with all indicators explicit.

    It shares no code with the factor construction or the brute-force tensor.
    """
    d = spec.depth
    m = spec.space.total_dim
    b_end = tuple(b_end)
    if len(b_end) != spec.q:
        raise ValueError(f"expected {spec.q} memory values, got {len(b_end)}")
    oracle_of = spec.space.oracle_parts()
    total = 0.0 + 0.0j
    for inner in product(range(m), repeat=d - 1):
        path = (i_start,) + inner + (i_end,)
        weight = 1.0 + 0.0j
        for t in range(d):
            weight *= spec.matrices[t][path[t], path[t + 1]]
            if weight == 0:
                break
        if weight == 0:
            continue
        mask = 0
        for t in range(2, d + 1):
            mask = parity_update(mask, int(oracle_of[path[t - 1]]), t, spec)
        if mask != s_end:
            continue
        if any(oracle_of[path[s - 1]] != oracle_of[path[t - 1]] for s, t in spec.equality_pairs):
            continue
        if any(
            oracle_of[path[r - 1]] != b_end[j] for j, r in enumerate(spec.memory_positions)
        ):
            continue
        total += weight
    return total


def entry(built: AugmentedMatrix, i_start, s_start, i_end, s_end, b_end=None) -> complex:
    """Product entry from row (i_start, s_start) with empty registers; ``b_end`` holds
    the memory register's stored digits (oracle value + 1)."""
    col = built.indexer.encode(i_end, s_end, b_digits=b_end)
    return complex(built._rows(i_start, s_start)[0, col])
