import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrowth.decomposition import (
    AUGMENTED_DIM_GUARD,
    AugmentedIndexer,
    AugmentedMatrix,
    DecompositionSpec,
    _block_spectral_norm,
    brute_force_entry,
    brute_force_tensor,
    decompose,
    decompose_improved,
    parity_update,
    random_decomposition_spec,
    spectrum_via_decomposition,
    verify,
)
from qgrowth import decomposition, linalg
from qgrowth.errors import ResourceLimitError
from qgrowth.linalg import (
    IndexSpace,
    frobenius_norm,
    leq_tol,
    operator_norm,
    random_unitary,
)
from qgrowth.models import AlgorithmSpec, Model, Restriction, random_spec
from qgrowth.fourier import spectrum_of_algorithm


def _unitaries(m, count, seed0):
    return tuple(random_unitary(m, seed0 + t) for t in range(count))


def test_parity_update_rules():
    spec = DecompositionSpec(
        IndexSpace(4, 1, 1), _unitaries(4, 3, 0), parity_skip=frozenset({2}), tracked=2
    )
    s = 0b01
    assert parity_update(s, 0, 2, spec) == s          # skipped position: unchanged
    assert parity_update(s, 0, 3, spec) == 0b00       # toggle removes a present index
    assert parity_update(s, 1, 3, spec) == 0b11
    assert parity_update(s, 1, 1, spec) == s          # position 1 never contributes
    assert parity_update(s, 3, 3, spec) == s          # outside the tracked prefix


def test_depth_one_bakes_empty_parity():
    mats = _unitaries(4, 1, 10)
    spec = DecompositionSpec(IndexSpace(4, 1, 1), mats, tracked=2)
    built = decompose(spec)
    for i in range(4):
        for j in range(4):
            for s in range(4):
                want = mats[0][i, j] if s == 0 else 0.0
                assert built.entry(i, 0, j, s) == pytest.approx(want, abs=1e-12)


def test_identity_chain_parity_echo():
    space = IndexSpace(4, 1, 1)
    spec = DecompositionSpec(space, (np.eye(4),) * 2, tracked=4)
    built = decompose(spec)
    for i in range(4):
        for j in range(4):
            for s in range(16):
                want = 1.0 if (i == j and s == 1 << i) else 0.0
                assert built.entry(i, 0, j, s) == pytest.approx(want, abs=1e-12)


def test_random_chain_matches_brute_force():
    spec = DecompositionSpec(IndexSpace(4, 1, 1), _unitaries(4, 3, 20), tracked=2)
    built = decompose(spec)
    worst = 0.0
    for i1 in range(4):
        for ie in range(4):
            for se in range(4):
                got = built.entry(i1, 0, ie, se)
                want = brute_force_entry(spec, i1, ie, se)
                worst = max(worst, abs(got - want))
    assert worst <= 1e-9


def test_improved_degenerates_to_basic():
    spec = DecompositionSpec(IndexSpace(2, 2, 1), _unitaries(4, 3, 30), tracked=2)
    basic = decompose(spec).empty_start_block()
    improved = decompose_improved(spec).empty_start_block()
    assert np.max(np.abs(basic - improved)) == 0.0


def test_memory_echo_with_identities():
    spec = DecompositionSpec(
        IndexSpace(2, 1, 1), (np.eye(2),) * 3, tracked=0, memory_positions=(2,)
    )
    built = decompose_improved(spec)
    for i in range(2):
        for j in range(2):
            for digit in (1, 2):
                got = built.entry(i, 0, j, 0, b_end=(digit,))
                want = 1.0 if (i == j and digit - 1 == i) else 0.0
                assert got == pytest.approx(want, abs=1e-12)


def test_equality_pair_matches_brute_force():
    spec = DecompositionSpec(
        IndexSpace(4, 1, 1), _unitaries(4, 4, 40), tracked=2, equality_pairs=((2, 3),)
    )
    built = decompose_improved(spec)
    worst = 0.0
    for i1 in range(4):
        for ie in range(4):
            for se in range(4):
                got = built.entry(i1, 0, ie, se)
                want = brute_force_entry(spec, i1, ie, se)
                worst = max(worst, abs(got - want))
    assert worst <= 1e-9


def test_random_spec_refuses_a_dimension_no_draw_fits():
    # the smallest draw has augmented dimension 2, so the redraw loop would never end
    with pytest.raises(ValueError, match="max_aug_dim must be >= 2, got 1"):
        random_decomposition_spec(np.random.default_rng(0), max_aug_dim=1)


def test_memory_and_equality_random_sweep():
    rng = np.random.default_rng(77)
    for _ in range(8):
        spec = random_decomposition_spec(rng)
        report = verify(spec)
        assert report["pass"], report


def test_factor_norms_and_frobenius_bounds():
    spec = DecompositionSpec(
        IndexSpace(4, 2, 1),
        _unitaries(8, 4, 50),
        tracked=3,
        equality_pairs=((2, 4),),
        memory_positions=(3,),
    )
    built = decompose_improved(spec)
    for norm in built.factor_operator_norms():
        assert leq_tol(norm, 1.0)
    min_frob = min(frobenius_norm(u) for u in spec.matrices)
    assert leq_tol(frobenius_norm(built.empty_start_block()), min_frob)


def _built(spec):
    return decompose_improved(spec) if (spec.p or spec.q) else decompose(spec)


def test_block_factor_norms_match_dense_svd():
    rng = np.random.default_rng(31)
    specs = [random_decomposition_spec(rng, max_aug_dim=512) for _ in range(30)]
    mats = _unitaries(4, 3, 32)
    specs.append(DecompositionSpec(
        IndexSpace(2, 2, 1), (mats[0], np.zeros((4, 4)), mats[2]), tracked=2))
    masked = np.array([1.0, 0.0, 1.0, 0.0])[:, None] * mats[1]
    specs.append(DecompositionSpec(
        IndexSpace(4, 1, 1), (mats[0], masked, mats[2]), tracked=2, memory_positions=(3,)))
    for spec in specs:
        built = _built(spec)
        dense = [operator_norm(f.toarray()) for f in built.factors]
        assert np.max(np.abs(np.subtract(built.factor_operator_norms(), dense))) <= 1e-12
    zero_factor = _built(specs[-2]).factors[1]
    assert zero_factor.nnz == 0
    assert _built(specs[-2]).factor_operator_norms()[1] == 0.0


def test_block_factor_norms_are_deterministic():
    spec = random_decomposition_spec(np.random.default_rng(13))
    built = _built(spec)
    assert (built.indexer.dim, spec.depth) == (3200, 4)
    assert built.factor_operator_norms() == built.factor_operator_norms()


def test_block_norm_sees_a_larger_block_among_copies():
    # five copies of a contraction A and one block B of larger norm between them:
    # keeping only the first block of each size would report A's norm
    import scipy.sparse as sp

    a_block, b_block = 0.5 * random_unitary(4, 41), 1.5 * random_unitary(4, 42)
    factor = sp.block_diag([a_block, a_block, b_block, a_block, a_block, a_block], format="csr")
    assert _block_spectral_norm(factor) == pytest.approx(operator_norm(factor.toarray()), abs=1e-12)
    assert _block_spectral_norm(factor) == pytest.approx(1.5, abs=1e-12)


def test_block_norm_joins_a_long_permuted_chain():
    # I + S over 40 rows is one block whose row/column graph is an 80-node path;
    # cut into pieces, its norm would come out smaller
    import scipy.sparse as sp

    rng = np.random.default_rng(43)
    chain = (np.eye(40) + np.eye(40, k=1))[rng.permutation(40)][:, rng.permutation(40)]
    factor = sp.block_diag([0.5 * random_unitary(4, 44), chain], format="csr")
    assert _block_spectral_norm(factor) == pytest.approx(operator_norm(factor.toarray()), abs=1e-12)


def test_verify_entry_gather_matches_entrywise_loop():
    # the per-entry reference that verify()'s column gather replaces
    rng = np.random.default_rng(33)
    specs = [s for s in (random_decomposition_spec(rng, max_aug_dim=128) for _ in range(40))
             if s.q and s.tracked][:3]
    assert len(specs) == 3
    for spec in specs:
        built, bins = _built(spec), brute_force_tensor(spec)
        m, span_s, n = spec.space.total_dim, 1 << spec.tracked, spec.space.oracle_dim
        worst = 0.0
        for i1, s1, ie, se in np.ndindex(m, span_s, m, span_s):
            for bf, digits in enumerate(np.ndindex((n,) * spec.q)):
                got = built.entry(i1, s1, ie, se, b_end=tuple(x + 1 for x in digits))
                worst = max(worst, abs(got - bins[i1, ie, s1 ^ se, bf]))
        assert verify(spec)["max_entry_deviation"] == worst


def test_brute_force_entry_closed_form_depth_two():
    mats = _unitaries(2, 2, 60)
    spec = DecompositionSpec(IndexSpace(2, 1, 1), mats, tracked=2)
    # single middle index: entry = sum_j U1[i,j] U2[j,e] [S = {j}]
    for i in range(2):
        for e in range(2):
            for j in range(2):
                want = mats[0][i, j] * mats[1][j, e]
                assert brute_force_entry(spec, i, e, 1 << j) == pytest.approx(want)
            # inconsistent parity sets vanish
            assert brute_force_entry(spec, i, e, 0) == 0.0
    # cross-check both directions against the constructed product
    built = decompose(spec)
    for i in range(2):
        for e in range(2):
            for s in range(4):
                assert built.entry(i, 0, e, s) == pytest.approx(
                    brute_force_entry(spec, i, e, s), abs=1e-12
                )


def test_brute_force_tensor_consistent_with_entry():
    spec = DecompositionSpec(
        IndexSpace(2, 2, 1), _unitaries(4, 3, 70), tracked=2, memory_positions=(3,)
    )
    bins = brute_force_tensor(spec)
    for i1 in range(4):
        for ie in range(4):
            for s in range(4):
                for b in range(2):
                    want = brute_force_entry(spec, i1, ie, s, b_end=(b,))
                    assert bins[i1, ie, s, b] == pytest.approx(want, abs=1e-12)


def _flat_path_brute_force_tensor(spec):
    # the earlier brute_force_tensor: every path's indices gathered into one flat array
    d, m, n = spec.depth, spec.space.total_dim, spec.space.oracle_dim
    oracle_of = spec.space.oracle_parts()
    bins = np.zeros((m, m, 1 << spec.tracked, n**spec.q), dtype=complex)
    paths = np.array(np.unravel_index(np.arange(m ** (d + 1)), (m,) * (d + 1)))
    weights = np.ones(paths.shape[1], dtype=complex)
    for t in range(d):
        weights *= spec.matrices[t][paths[t], paths[t + 1]]
    live = weights != 0
    paths, weights = paths[:, live], weights[live]
    masks = np.zeros(paths.shape[1], dtype=np.int64)
    for t in range(2, d + 1):
        if t in spec.parity_skip:
            continue
        idx = oracle_of[paths[t - 1]]
        hot = idx < spec.tracked
        masks[hot] ^= np.int64(1) << idx[hot]
    keep = np.ones(paths.shape[1], dtype=bool)
    for s, t in spec.equality_pairs:
        keep &= oracle_of[paths[s - 1]] == oracle_of[paths[t - 1]]
    b_flat = np.zeros(paths.shape[1], dtype=np.int64)
    for r in spec.memory_positions:
        b_flat = b_flat * n + oracle_of[paths[r - 1]]
    np.add.at(bins, (paths[0][keep], paths[d][keep], masks[keep], b_flat[keep]), weights[keep])
    return bins


def _dense_stack_block_norm(factor):
    # the earlier _block_spectral_norm: every block densified, then deduplicated by its bytes
    if factor.nnz == 0:
        return 0.0
    n_rows, n_cols = factor.shape
    size = n_rows + n_cols
    rows = np.repeat(np.arange(n_rows), np.diff(factor.indptr))
    cols = factor.indices + n_rows
    node, neighbour = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    label = np.arange(size)
    while True:
        spread = label.copy()
        np.minimum.at(spread, node, label[neighbour])
        if np.array_equal(spread, label):
            break
        label = spread[spread]
    order = np.argsort(label, kind="stable")
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size) - np.searchsorted(label[order], label[order])
    block = label[rows]
    width = np.bincount(label)[block]
    best = 0.0
    for k in np.unique(width):
        hit = width == k
        slot = np.unique(block[hit], return_inverse=True)[1]
        stack = np.zeros((slot.max() + 1, k, k), dtype=factor.dtype)
        stack[slot, rank[rows[hit]], rank[cols[hit]]] = factor.data[hit]
        first = {}
        for j, one in enumerate(stack):
            first.setdefault(one.tobytes(), j)
        best = max(best, float(np.linalg.norm(stack[list(first.values())], 2, axis=(1, 2)).max()))
    return best


def test_oracles_keep_the_bits_of_their_flat_references():
    rng = np.random.default_rng(37)
    specs = [random_decomposition_spec(rng) for _ in range(48)]
    specs.append(random_decomposition_spec(np.random.default_rng(13)))
    assert decompose_improved(specs[-1]).indexer.dim == 3200
    assert any(s.parity_skip for s in specs) and any(s.p for s in specs) and any(s.q for s in specs)
    for spec in specs:
        got, want = brute_force_tensor(spec), _flat_path_brute_force_tensor(spec)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        built = decompose_improved(spec)
        assert built.factor_operator_norms() == [_dense_stack_block_norm(f) for f in built.factors]


def _whole_block_verify(spec):
    # the earlier verify(): the dense start block over every (I, S) at once, then got, want,
    # their difference and its absolute value over all of it
    m, n = spec.space.total_dim, spec.space.oracle_dim
    span_s, span_b = 1 << spec.tracked, n**spec.q
    built, bins = decompose_improved(spec), brute_force_tensor(spec)
    b_values = np.unravel_index(np.arange(span_b), (n,) * spec.q) if spec.q else ()
    cols = built.indexer.encode(
        np.arange(m)[:, None, None], np.arange(span_s)[:, None], b_digits=[v + 1 for v in b_values]
    )
    free = built.free_start_block()
    block_frob = frobenius_norm(free[::span_s])
    got = free[:, cols].reshape(m, span_s, m, span_s, span_b)
    xor = np.arange(span_s)[:, None] ^ np.arange(span_s)[None, :]
    want = bins[:, :, xor, :].transpose(0, 2, 1, 3, 4)
    max_dev = float(np.max(np.abs(got - want)))
    factor_norms = built.factor_operator_norms()
    min_input_frob = min(frobenius_norm(u) for u in spec.matrices)
    report = {
        "depth": spec.depth,
        "total_dim": m,
        "tracked": spec.tracked,
        "parity_skip": sorted(spec.parity_skip),
        "equality_pairs": list(map(list, spec.equality_pairs)),
        "memory_positions": list(spec.memory_positions),
        "augmented_dim": built.indexer.dim,
        "max_entry_deviation": max_dev,
        "max_factor_operator_norm": max(factor_norms),
        "factor_operator_norms": factor_norms,
        "product_frobenius": block_frob,
        "min_input_frobenius": min_input_frob,
        "entries_pass": bool(max_dev <= linalg.MATCH_TOL),
        "factor_norm_pass": bool(leq_tol(max(factor_norms), 1.0)),
        "frobenius_pass": bool(leq_tol(block_frob, min_input_frob)),
    }
    report["pass"] = bool(
        report["entries_pass"] and report["factor_norm_pass"] and report["frobenius_pass"]
    )
    return report


def test_sliced_verify_keeps_the_bits_of_the_whole_block_compare(monkeypatch):
    rng = np.random.default_rng(41)
    specs = [random_decomposition_spec(rng) for _ in range(50)]
    specs += [random_decomposition_spec(np.random.default_rng(s)) for s in (13, 75, 94)]
    want = [json.dumps(_whole_block_verify(spec), sort_keys=True) for spec in specs]
    pushed, push = [], AugmentedMatrix._rows
    monkeypatch.setattr(AugmentedMatrix, "_rows",
                        lambda self, i, s: pushed.append(i.size) or push(self, i, s))
    slices = {}
    for slice_bytes in (1, 5000):
        monkeypatch.setattr(decomposition, "SLICE_BYTES", slice_bytes)
        for spec, expected in zip(specs, want):
            pushed.clear()
            assert json.dumps(verify(spec), sort_keys=True) == expected
            assert sum(pushed) == spec.space.total_dim << spec.tracked
            slices.setdefault(slice_bytes, []).append(list(pushed))
    # one row a slice, then slices of several rows that start anywhere in an I's S range
    assert all(len(sizes) >= 2 and max(sizes) == 1 for sizes in slices[1])
    assert sum(len(sizes) >= 2 and max(sizes) > 1 for sizes in slices[5000]) >= 10


@pytest.mark.parametrize("m, d", [(2, 16), (4, 8), (8, 5)])
def test_brute_force_tensor_takes_at_most_64_bytes_a_path(m, d):
    # the flat-path gather took 297, 169 and 121 bytes a path at these shapes
    for extra in ({}, {"parity_skip": frozenset({3}), "equality_pairs": ((2, 4),),
                       "memory_positions": (5,)}):
        spec = DecompositionSpec(IndexSpace(m, 1, 1), _unitaries(m, d, 80), **extra)
        tracemalloc.start()
        try:
            brute_force_tensor(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * m ** (d + 1)


def test_brute_force_guards_state_the_path_count():
    spec = DecompositionSpec(IndexSpace(16, 1, 1), (np.eye(16),) * 7, tracked=1)
    with pytest.raises(ResourceLimitError,
                       match=r"^brute force needs 4294967296 paths, guard is 10000000$"):
        brute_force_tensor(spec)
    with pytest.raises(ResourceLimitError,
                       match=r"^brute force needs 16777216 paths, guard is 10000000$"):
        brute_force_entry(spec, 0, 0, 0)


def test_verify_identities_and_norm_precondition():
    spec = DecompositionSpec(IndexSpace(2, 1, 1), (np.eye(2),) * 3, tracked=2)
    report = verify(spec)
    assert report["pass"]
    assert report["max_entry_deviation"] == 0.0
    with pytest.raises(ValueError, match="operator norm above 1"):
        DecompositionSpec(IndexSpace(2, 1, 1), (1.5 * np.eye(2),), tracked=1)


def test_validation_of_constraint_labels():
    mats = _unitaries(2, 4, 80)
    with pytest.raises(ValueError, match="labels must all be distinct"):
        DecompositionSpec(
            IndexSpace(2, 1, 1),
            mats,
            tracked=1,
            equality_pairs=((2, 3),),
            memory_positions=(3,),
        )
    with pytest.raises(ValueError, match=r"equality pair \(3, 2\) must satisfy"):
        DecompositionSpec(IndexSpace(2, 1, 1), mats, tracked=1, equality_pairs=((3, 2),))
    with pytest.raises(ValueError, match=r"memory position 1 must lie in \[2, d\]"):
        DecompositionSpec(IndexSpace(2, 1, 1), mats, tracked=1, memory_positions=(1,))
    # a label is checked as given: int() would truncate 1.5 (or 2.5) into range
    with pytest.raises(ValueError, match=r"parity_skip positions must lie in \[1, d\]"):
        DecompositionSpec(IndexSpace(2, 1, 1), mats, tracked=1, parity_skip=frozenset({1.5}))
    with pytest.raises(ValueError, match=r"equality pair \(2, 3.5\) must satisfy"):
        DecompositionSpec(IndexSpace(2, 1, 1), mats, tracked=1, equality_pairs=((2, 3.5),))
    with pytest.raises(ValueError, match=r"memory position 2.5 must lie in \[2, d\]"):
        DecompositionSpec(IndexSpace(2, 1, 1), mats, tracked=1, memory_positions=(2.5,))
    spec = DecompositionSpec(IndexSpace(2, 1, 1), mats, tracked=1, parity_skip={np.int64(2)},
                             equality_pairs=((2.0, np.int32(3)),), memory_positions=(4.0,))
    assert (spec.parity_skip, spec.equality_pairs, spec.memory_positions) == ({2}, ((2, 3),), (4,))
    with pytest.raises(ValueError, match="decompose takes no equality/memory constraints"):
        decompose(
            DecompositionSpec(
                IndexSpace(2, 1, 1), mats, tracked=1, memory_positions=(2,)
            )
        )


def test_reversal_symmetry():
    # the transposed-reversed construction holds the same entries rearranged
    d, m = 3, 4
    mats = _unitaries(m, d, 90)
    skip = frozenset({2})
    spec = DecompositionSpec(IndexSpace(m, 1, 1), mats, parity_skip=skip, tracked=2)
    rev_mats = tuple(mats[t].T for t in range(d - 1, -1, -1))
    rev_skip = frozenset({d + 2 - t for t in skip if 2 <= t <= d})
    rev = DecompositionSpec(IndexSpace(m, 1, 1), rev_mats, parity_skip=rev_skip, tracked=2)
    fwd_built = decompose(spec)
    rev_built = decompose(rev)
    for i1 in range(m):
        for ie in range(m):
            for s in range(4):
                assert fwd_built.entry(i1, 0, ie, s) == pytest.approx(
                    rev_built.entry(ie, 0, i1, s), abs=1e-10
                )


def test_factor_block_structure():
    # within each factor, a column never hits the same input row twice: for a
    # fixed column, nonzero entries use distinct I values and equal U entries
    rng = np.random.default_rng(91)
    spec = random_decomposition_spec(rng)
    built = decompose_improved(spec) if (spec.p or spec.q) else decompose(spec)
    wk = spec.space.work_dim * spec.space.clean_dim
    for position, factor in enumerate(built.factors, start=1):
        mat = spec.matrices[position - 1]
        coo = factor.tocoo()
        seen = {}
        for row, col, val in zip(coo.row, coo.col, coo.data):
            i_row, _, _, _ = built.indexer.decode(int(row))
            i_col, _, _, _ = built.indexer.decode(int(col))
            assert val == pytest.approx(mat[i_row, i_col], abs=1e-12)
            key = (int(col), i_row)
            assert key not in seen
            seen[key] = True


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_augmented_indexer_codec(data):
    m, tracked, p, q, base = (data.draw(st.integers(lo, hi)) for lo, hi in
                              ((1, 8), (0, 3), (0, 2), (0, 2), (2, 5)))
    ix = AugmentedIndexer(m, tracked, p, q, base)
    index = data.draw(st.integers(0, m - 1))
    s_mask = data.draw(st.integers(0, (1 << tracked) - 1))
    digits = data.draw(st.lists(st.integers(0, base - 1), min_size=p + q, max_size=p + q))
    a, b = tuple(digits[:p]), tuple(digits[p:])
    flat = index * (1 << tracked) + s_mask
    for digit in digits:
        flat = flat * base + digit
    assert ix.encode(index, s_mask, a, b) == flat
    assert ix.decode(flat) == (index, s_mask, a, b)
    assert ix.dim == m * (1 << tracked) * base ** (p + q)
    if digits:
        j = data.draw(st.integers(0, p + q - 1))
        digits[j] = data.draw(st.integers(base, 3 * base))
        with pytest.raises(ValueError):
            ix.encode(index, s_mask, digits[:p], digits[p:])


def test_augmented_guard():
    mats = _unitaries(8, 2, 95)
    spec = DecompositionSpec(
        IndexSpace(8, 1, 1),
        mats,
        tracked=8,
        equality_pairs=(),
        memory_positions=(2,),
    )
    # 8 * 2^8 * 9 = 18432 fits; bump with another memory slot via depth-3 chain
    big = DecompositionSpec(
        IndexSpace(8, 1, 1),
        _unitaries(8, 3, 96),
        tracked=8,
        memory_positions=(2, 3),
    )
    assert big.space.total_dim * (1 << 8) * 9 * 9 > AUGMENTED_DIM_GUARD
    with pytest.raises(ResourceLimitError):
        decompose_improved(big)
    decompose_improved(spec)   # the smaller one builds fine


def test_spectrum_via_decomposition_constant_circuit():
    space = IndexSpace.qubits(1, 0, 1)
    spec = AlgorithmSpec(Model.DQCK, space, 2, (np.eye(4),) * 3, np.ones(4, dtype=bool))
    sp = spectrum_via_decomposition(spec)
    assert sp.coeffs[0] == pytest.approx(1.0)
    assert np.max(np.abs(sp.coeffs[1:])) <= 1e-12


def test_spectrum_via_decomposition_matches_transform():
    rng = np.random.default_rng(97)
    for model, space in ((Model.DQCK, IndexSpace.qubits(1, 0, 1)),
                         (Model.BQP, IndexSpace.qubits(1, 1, 0))):
        for _ in range(3):
            spec = random_spec(model, space, 2, rng)
            for rho in (None, Restriction.from_string("*-"), Restriction.from_string("+*")):
                got = spectrum_via_decomposition(spec, rho)
                want = spectrum_of_algorithm(spec, rho)
                assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8


def test_spectrum_via_decomposition_reads_rows_without_the_full_product():
    # 8 free coordinates at M = 16: augmented dimension 4096, whose full product takes ~170 MiB
    spec = random_spec(Model.BQP, IndexSpace.qubits(4), 2, np.random.default_rng(99))
    rho = Restriction.from_string("*-*+" * 4)
    spec.formula_matrices  # built outside the traced call
    tracemalloc.start()
    try:
        got = spectrum_via_decomposition(spec, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = spectrum_of_algorithm(spec, rho)
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8
    assert peak <= 32 << 20


def _traced_peak(call):
    import scipy.sparse  # noqa: F401  loaded outside the traced call
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _refusal_peak(call, match):
    """Traced peak of ``call``, which must raise ``ResourceLimitError`` matching ``match``."""
    def refused():
        with pytest.raises(ResourceLimitError, match=match):
            call()
    return _traced_peak(refused)


@pytest.mark.parametrize("tracked", [6, 7, 8])
def test_factor_build_peak_is_near_the_bytes_its_guard_states(tracked):
    # M = 16, depth 4, no registers: dimension 16 * 2^tracked, every factor row holds M entries
    spec = DecompositionSpec(IndexSpace(16), _unitaries(16, 4, 120), tracked=tracked)
    stated = 20 * (4 + 2) * (16 << tracked) * 16
    peak = _traced_peak(lambda: decompose_improved(spec))
    assert 0.5 * stated <= peak <= 1.1 * stated  # 0.97 measured


@pytest.mark.parametrize("tracked", [6, 7, 8])
def test_row_push_peak_is_near_the_bytes_its_guard_states(tracked):
    # M = 8, depth 2: all dim = 8 * 2^tracked start rows, after M and M^2 entries a row
    built = decompose_improved(
        DecompositionSpec(IndexSpace(8), _unitaries(8, 2, 130), tracked=tracked))
    dim = 8 << tracked
    stated = dim * (16 * dim + 20 * (8 + 64))
    peak = _traced_peak(built.free_start_block)
    assert 0.5 * stated <= peak <= 1.1 * stated  # 0.97-0.99 measured


def _verify_stated(tracked):
    # M = 8, depth 2, no registers: dim = 8 * 2^tracked start rows, compared columns and
    # factor rows, 8 * dim nonzeros a factor.  16 KiB of fixed overhead and two factors
    # (20 B a nonzero) stay; next to them peaks either a 1 MiB slice with the bins and the
    # empty-start rows (16 * 8 * dim bytes each), or one factor's block norms (150 B a
    # nonzero, a 16-node dense block); the brute force (64 B x 512 paths, 32 B x 8 * dim
    # bins) stays below the first
    dim = 8 << tracked
    return ((1 << 14) + 20 * 2 * 8 * dim
            + max(16 * 8 * 2 * dim + (1 << 20), 150 * 8 * dim + 64 * 8 * 8))


@pytest.mark.parametrize("tracked", [6, 7, 8, pytest.param(None, id="seed-287-draw")])
def test_verify_peak_is_near_the_bytes_its_guard_states(tracked):
    if tracked is None:
        # M = 8, depth 4, one equality pair, one memory slot: dim 1,600, 12,800 nonzeros a
        # factor, 256 compared columns.  The overhead, four factors and the brute force
        # (64 B x 8^5 paths, 32 B x 8 * 256 bins) peak together; the whole-block compare's
        # guard stated 2.29 MB here, and the call peaked at 3.06 MB
        spec = random_decomposition_spec(np.random.default_rng(287))
        assert (decompose_improved(spec).indexer.dim, spec.depth, spec.p, spec.q) == (1600, 4, 1, 1)
        stated = (1 << 14) + 20 * 4 * 12800 + 64 * 8**5 + 32 * 8 * 256
    else:
        spec = DecompositionSpec(IndexSpace(8), _unitaries(8, 2, 130), tracked=tracked)
        stated = _verify_stated(tracked)
    peak = _traced_peak(lambda: verify(spec))
    assert 0.5 * stated <= peak <= 1.1 * stated  # 0.78-0.99 measured


def test_verify_certifies_under_a_budget_the_whole_block_compare_exceeds(monkeypatch):
    # the whole-block compare predicted 56 * 2048^2 bytes (235 MB) here, 75 times this budget
    spec = DecompositionSpec(IndexSpace(8), _unitaries(8, 2, 130), tracked=8)
    stated = _verify_stated(8)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", stated)
    reports = []
    peak = _traced_peak(lambda: reports.append(verify(spec)))
    assert reports[0]["pass"] and peak <= stated


def test_verify_refuses_its_compare_before_any_factor(monkeypatch):
    spec = DecompositionSpec(IndexSpace(8), _unitaries(8, 2, 130), tracked=8)
    stated = _verify_stated(8)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", stated - 1)
    match = rf"^verify needs {stated} bytes, guard is {stated - 1}$"
    assert _refusal_peak(lambda: verify(spec), match) <= 1 << 20


def test_decomposition_byte_guards_refuse_before_they_allocate(monkeypatch):
    spec = DecompositionSpec(IndexSpace(16), _unitaries(16, 4, 120), tracked=6)
    built = decompose_improved(spec)
    dim = 16 << 6
    for what, stated, call in (
        ("factor build", 20 * 6 * dim * 16, lambda: decompose_improved(spec)),
        ("row push", dim * (16 * dim + 20 * (dim + dim)), built.free_start_block),
    ):
        monkeypatch.setattr(linalg, "MEMORY_BUDGET", stated - 1)
        match = rf"^{what} needs {stated} bytes, guard is {stated - 1}$"
        assert _refusal_peak(call, match) <= stated // 100


def test_read_off_past_the_memory_budget_is_refused_before_the_factors():
    # M = 256 with 8 free coordinates: augmented dimension 65536, under its guard, but
    # the four factors are predicted at 20 * 6 * 65536 * 256 bytes (~1.9 GiB)
    spec = random_spec(Model.BQP, IndexSpace(256), 2, np.random.default_rng(97))
    rho = Restriction(np.array([0] * 8 + [1] * 248))
    spec.restricted_chain(rho)  # formula matrices built outside the traced call
    peak = _refusal_peak(lambda: spectrum_via_decomposition(spec, rho),
                         r"^factor build needs 2013265920 bytes, guard is 1073741824$")
    assert peak <= 16 << 20  # the relabeled chain only: 4 M^2 complex entries


def test_spectrum_via_decomposition_on_tightness_circuit():
    from qgrowth.forrelation import tightness_circuit

    circ = tightness_circuit(1, 2)
    got = spectrum_via_decomposition(circ.spec, circ.rho)
    want = spectrum_of_algorithm(circ.spec, circ.rho)
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8


def test_spectrum_via_decomposition_rejects_other_models():
    rng = np.random.default_rng(98)
    spec = random_spec(Model.HALF_BQP, IndexSpace.qubits(1), 1, rng)
    with pytest.raises(ValueError, match="applies to the BQP and DQCK trace forms"):
        spectrum_via_decomposition(spec)
