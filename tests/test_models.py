import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrowth import linalg, models
from qgrowth.errors import ResourceLimitError
from qgrowth.forrelation import tightness_circuit
from qgrowth.fourier import spectrum_of_algorithm
from qgrowth.linalg import IndexSpace, f2_inner, hadamard_matrix, random_unitary
from qgrowth.models import (
    AlgorithmSpec,
    HybridSpec,
    Model,
    Query,
    Restriction,
    acceptance_direct,
    acceptance_formula,
    acceptance_hybrid,
    bias,
    hybrid_truth_table,
    random_hybrid,
    random_restriction,
    random_spec,
    reduce_clean_qubits,
    spec_from_json,
    spec_to_json,
    truth_table,
    _table_chunk,
)


def _random_x(rng, n):
    return rng.choice(np.array([-1.0, 1.0]), size=n)


def _identity_spec(model, space, d=1, accept=None):
    m = space.total_dim
    if accept is None:
        accept = np.zeros(m, dtype=bool)
        accept[0] = True
    return AlgorithmSpec(model, space, d, (np.eye(m),) * (d + 1), accept)


def test_bqp_identity_circuit_stays_put():
    space = IndexSpace.qubits(2, 1)
    spec = _identity_spec(Model.BQP, space)
    x = np.ones(4)
    assert acceptance_direct(spec, x) == pytest.approx(1.0, abs=1e-12)


def test_bqp_empty_accept_set():
    space = IndexSpace.qubits(2)
    spec = _identity_spec(Model.BQP, space, accept=np.zeros(4, dtype=bool))
    assert acceptance_direct(spec, np.ones(4)) == 0.0


def test_dqck_identity_full_accept():
    space = IndexSpace.qubits(2, 0, 1)
    spec = _identity_spec(Model.DQCK, space, accept=np.ones(8, dtype=bool))
    assert acceptance_formula(spec, np.ones(4)) == pytest.approx(1.0, abs=1e-12)


def test_half_bqp_total_probability():
    rng = np.random.default_rng(4)
    space = IndexSpace.qubits(2, 1)
    spec = random_spec(Model.HALF_BQP, space, 2, rng)
    spec = AlgorithmSpec(
        spec.model, spec.space, spec.d, spec.unitaries, np.ones((8, 8), dtype=bool)
    )
    for _ in range(5):
        assert acceptance_direct(spec, _random_x(rng, 4)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("model,k", [(Model.BQP, 0), (Model.DQCK, 1), (Model.HALF_BQP, 0)])
def test_formula_matches_direct(model, k):
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.choice([1, 2]))
        w = int(rng.choice([0, 1]))
        d = int(rng.integers(1, 4))
        space = IndexSpace.qubits(n, w, k)
        spec = random_spec(model, space, d, rng)
        x = _random_x(rng, space.oracle_dim)
        got_f = acceptance_formula(spec, x)
        got_d = acceptance_direct(spec, x)
        assert got_f == pytest.approx(got_d, abs=1e-9)
        assert -1e-9 <= got_d <= 1 + 1e-9


def test_restriction_parsing_round_trip():
    rho = Restriction.from_string("+-*+")
    assert rho.to_string() == "+-*+"
    assert rho.free_indices.tolist() == [2]
    with pytest.raises(ValueError, match=r"restriction strings use '\+-\*' only, got '\?'"):
        Restriction.from_string("+?")


@given(st.text("+-*", max_size=24))
def test_restriction_string_round_trip(text):
    rho = Restriction.from_string(text)
    assert rho.to_string() == text
    assert rho.free_indices.tolist() == [i for i, ch in enumerate(text) if ch == "*"]


@given(
    st.text("+-*", max_size=4),
    st.characters(codec="ascii", exclude_characters="+-*"),
    st.text("+-*", max_size=4),
)
def test_restriction_string_rejects_other_characters(head, bad, tail):
    with pytest.raises(ValueError, match=r"restriction strings use '\+-\*' only"):
        Restriction.from_string(head + bad + tail)


@pytest.mark.parametrize("pattern", [[0.5, -1], [1.9, 0], np.array([257, 0]), [np.nan, 1]],
                         ids=["half", "1.9", "257", "nan"])
def test_restriction_entries_are_checked_before_the_int8_cast(pattern):
    with pytest.raises(ValueError, match=r"^restriction entries must be -1, 0 \(star\) or \+1$"):
        Restriction(pattern)


def test_restriction_takes_numpy_integers_and_whole_floats():
    assert Restriction([1.0, 0.0, -1.0]).to_string() == "+*-"
    rho = Restriction(np.array([-1, 0, 1], dtype=np.int64))
    assert rho.to_string() == "-*+" and rho.pattern.dtype == np.int8


@pytest.mark.parametrize("model", list(Model))
def test_formula_matrices_are_cached_and_read_only(model):
    space = IndexSpace.qubits(1, 0, 1 if model is Model.DQCK else 0)
    spec = random_spec(model, space, 2, np.random.default_rng(8))
    mats = spec.formula_matrices
    assert isinstance(mats, tuple)
    assert spec.formula_matrices is mats
    assert spec._formula_weights is spec._formula_weights
    for mat in mats + (spec._formula_weights,):
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_half_bqp_formula_chain_is_its_own_adjoint(d):
    # V_{2d+1-s} = V_s^dagger exactly: the level-3 block extractor skips two of
    # its four fixed slots on this identity
    spec = random_spec(Model.HALF_BQP, IndexSpace.qubits(2), d, np.random.default_rng(9 + d))
    mats = spec.formula_matrices
    assert len(mats) == 2 * d + 2
    for s, mat in enumerate(mats):
        assert np.array_equal(mats[2 * d + 1 - s], mat.conj().T)


def test_reduce_clean_qubits_ratio():
    rng = np.random.default_rng(17)
    space = IndexSpace.qubits(2, 0, 2)
    spec = random_spec(Model.DQCK, space, 2, rng)
    reduced = reduce_clean_qubits(spec, 1)
    assert reduced.space.clean_dim == 2
    for _ in range(10):
        x = _random_x(rng, 4)
        assert bias(reduced, x) == pytest.approx(bias(spec, x) / 4, abs=1e-9)


def test_reduce_clean_qubits_composes():
    rng = np.random.default_rng(23)
    space = IndexSpace.qubits(1, 0, 3)
    spec = random_spec(Model.DQCK, space, 1, rng)
    twice = reduce_clean_qubits(reduce_clean_qubits(spec, 1), 1)
    for _ in range(4):
        x = _random_x(rng, 2)
        assert bias(twice, x) == pytest.approx(bias(spec, x) / 16, abs=1e-9)


def test_reduce_clean_qubits_parameter_errors():
    rng = np.random.default_rng(1)
    spec = random_spec(Model.DQCK, IndexSpace.qubits(1, 0, 2), 1, rng)
    with pytest.raises(ValueError, match=r"need 1 <= t < k \(k=2\), got t=2"):
        reduce_clean_qubits(spec, 2)
    with pytest.raises(ValueError, match=r"need 1 <= t < k \(k=2\), got t=0"):
        reduce_clean_qubits(spec, 0)


def test_hybrid_depth_zero_equals_plain():
    rng = np.random.default_rng(8)
    space = IndexSpace.qubits(2, 0, 1)
    spec = random_spec(Model.DQCK, space, 2, rng)
    hybrid = HybridSpec(spec)
    assert hybrid.leaf_algorithms == (spec,)
    x = _random_x(rng, 4)
    assert acceptance_hybrid(hybrid, x) == pytest.approx(acceptance_direct(spec, x))


def test_hybrid_single_query_tree():
    space = IndexSpace.qubits(2, 0, 1)
    accept_all = _identity_spec(Model.DQCK, space, accept=np.ones(8, dtype=bool))
    reject_all = _identity_spec(Model.DQCK, space, accept=np.zeros(8, dtype=bool))
    hybrid = HybridSpec(Query(0, accept_all, reject_all))
    for mask in range(16):
        bits = (mask >> np.arange(4)) & 1
        x = np.where(bits == 0, 1.0, -1.0)
        assert acceptance_hybrid(hybrid, x) == pytest.approx((1 + x[0]) / 2)


def test_random_hybrid_matches_leaf_walks():
    rng = np.random.default_rng(31)
    space = IndexSpace.qubits(2, 0, 1)
    hybrid = random_hybrid(Model.DQCK, space, 2, rng, depth=2)
    table = hybrid_truth_table(hybrid)
    for mask in range(16):
        bits = (mask >> np.arange(4)) & 1
        x = np.where(bits == 0, 1.0, -1.0)
        assert table[mask] == pytest.approx(acceptance_hybrid(hybrid, x), abs=1e-12)


def test_hybrid_table_runs_the_selected_leaf_on_each_input():
    # depth-2 tree over non-adjacent coordinates, both signs on every level
    rng = np.random.default_rng(12)
    space = IndexSpace.qubits(3, 0, 1)
    leaves = {key: random_spec(Model.DQCK, space, 2, rng) for key in ("pp", "pm", "mp", "mm")}
    tree = Query(
        6,
        Query(1, leaves["pp"], leaves["pm"]),
        Query(3, leaves["mp"], leaves["mm"]),
    )
    table = hybrid_truth_table(HybridSpec(tree))
    for mask in range(1 << 8):
        x = np.where((mask >> np.arange(8)) & 1, -1.0, 1.0)
        key = ("p" if x[6] > 0 else "m") + ("p" if x[1 if x[6] > 0 else 3] > 0 else "m")
        assert table[mask] == pytest.approx(acceptance_formula(leaves[key], x), abs=1e-12)


def test_hybrid_path_validation():
    space = IndexSpace.qubits(1, 0, 1)
    leaf_spec = _identity_spec(Model.DQCK, space, accept=np.ones(4, dtype=bool))
    with pytest.raises(ValueError, match="queries a coordinate twice"):
        HybridSpec(Query(0, Query(0, leaf_spec, leaf_spec), leaf_spec))
    other = _identity_spec(Model.DQCK, IndexSpace.qubits(1, 1, 1), accept=np.ones(8, dtype=bool))
    with pytest.raises(ValueError, match="leaf algorithms must share model, space and d"):
        HybridSpec(Query(0, leaf_spec, other))


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_random_hybrid_has_one_algorithm_per_leaf(depth):
    space = IndexSpace.qubits(2, 0, 1)
    hybrid = random_hybrid(Model.DQCK, space, 2, np.random.default_rng(depth), depth=depth)
    assert len(hybrid.leaf_algorithms) == 2**depth
    assert all(leaf.space == space and leaf.d == 2 for leaf in hybrid.leaf_algorithms)


def test_half_bqp_start_independent_predicate_averages_runs():
    # when F ignores the start, acceptance is the uniform average over basis
    # starts of the final-outcome acceptance
    rng = np.random.default_rng(5)
    space = IndexSpace.qubits(1, 1)
    spec = random_spec(Model.HALF_BQP, space, 2, rng)
    outcome_set = rng.random(4) < 0.5
    accept = np.broadcast_to(outcome_set, (4, 4)).copy()
    spec = AlgorithmSpec(spec.model, spec.space, spec.d, spec.unitaries, accept)
    x = _random_x(rng, 2)
    phases = np.repeat(x, 2)
    circuit = spec.unitaries[0].copy()
    for gate in spec.unitaries[1:]:
        circuit = gate @ (phases[:, None] * circuit)
    want = float(np.mean(np.sum(np.abs(circuit[outcome_set, :]) ** 2, axis=0)))
    assert acceptance_direct(spec, x) == pytest.approx(want, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 2), st.integers(0, 1), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_half_bqp_table_is_mean_of_per_start_bqp_tables(n, w, d, seed):
    # start s is the clean-start run whose first gate maps |0> to U_0|s> and
    # whose accepting set is row s: why the BQP ceiling bounds HALF_BQP growth
    space = IndexSpace.qubits(n, w)
    spec = random_spec(Model.HALF_BQP, space, d, np.random.default_rng(seed))
    runs = []
    for s in range(space.total_dim):
        cols = np.arange(space.total_dim)
        cols[[0, s]] = cols[[s, 0]]
        first = spec.unitaries[0][:, cols]
        run = AlgorithmSpec(Model.BQP, space, d, (first,) + spec.unitaries[1:], spec.accept[s])
        runs.append(truth_table(run))
    assert np.max(np.abs(truth_table(spec) - np.mean(runs, axis=0))) <= 1e-12


def _slice_bytes(spec, rows):
    """A ``linalg.SLICE_BYTES`` that holds ``rows`` inputs' (S, M) complex slabs: the
    table's chunk is then ``rows`` rounded down to a power of two in [4, 1024]."""
    return 16 * rows * spec.start_indices().size * spec.space.total_dim


def test_truth_table_worker_determinism(monkeypatch):
    rng = np.random.default_rng(14)
    space = IndexSpace.qubits(2, 0, 1)
    spec = random_spec(Model.DQCK, space, 2, rng)
    monkeypatch.setattr(linalg, "SLICE_BYTES", 1)  # chunks of 4 rows, the smallest
    one = truth_table(spec, workers=1)
    many = truth_table(spec, workers=4)
    assert np.array_equal(one, many)


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(list(Model)),
    d=st.integers(1, 3),
    w=st.integers(0, 1),
    n=st.integers(1, 3),
    star_prob=st.floats(0, 1),
    rows=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_truth_table_matches_formula_on_every_entry(model, d, w, n, star_prob, rows, seed):
    # chunks that split the sweep, that cover it, and a last chunk that is ragged
    rng = np.random.default_rng(seed)
    space = IndexSpace.qubits(n, w, 1 if model is Model.DQCK else 0)
    spec = random_spec(model, space, d, rng)
    rho = random_restriction(space.oracle_dim, rng, star_prob=star_prob)
    with mock.patch.object(linalg, "SLICE_BYTES", _slice_bytes(spec, rows)):
        table = truth_table(spec, rho)
    free = rho.free_indices
    assert table.shape == (1 << free.size,)
    for mask, got in enumerate(table):
        x = rho.pattern.astype(float)
        x[free] = np.where((mask >> np.arange(free.size)) & 1, -1.0, 1.0)
        assert abs(got - acceptance_formula(spec, x)) <= 1e-9


def test_spec_arrays_are_private_read_only_copies():
    rng = np.random.default_rng(21)
    space = IndexSpace.qubits(2, 0, 1)
    gates = [random_unitary(space.total_dim, 90 + t) for t in range(3)]
    accept = rng.random(space.total_dim) < 0.5
    spec = AlgorithmSpec(Model.DQCK, space, 2, tuple(gates), accept)
    before = truth_table(spec)
    with pytest.raises(ValueError):
        spec.unitaries[1][0, 0] = 0.0
    with pytest.raises(ValueError):
        spec.accept[0] = not spec.accept[0]
    gates[1][:] = np.eye(space.total_dim)
    accept[:] = ~accept
    assert np.array_equal(truth_table(spec), before)
    fresh = AlgorithmSpec(Model.DQCK, space, 2, tuple(gates), accept)
    assert not np.array_equal(truth_table(fresh), before)


def test_truth_table_starts_at_most_one_thread_per_chunk(monkeypatch):
    import qgrowth.models as models_module

    sizes = []
    real_pool = models_module.ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(models_module, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)  # the chunk count is the binding cap
    monkeypatch.setattr(linalg, "SLICE_BYTES", 1)  # chunks of 4 rows, the smallest
    spec = random_spec(Model.BQP, IndexSpace.qubits(2), 1, np.random.default_rng(3))
    one = truth_table(spec, workers=1)
    assert np.array_equal(truth_table(spec, workers=64), one)
    assert sizes == [2]      # 8 of the 16 inputs simulated, in chunks of 4


def test_truth_table_starts_at_most_one_thread_per_cpu(monkeypatch):
    # the tightness table runs 128 chunks of 32 rows; the pool maps serially,
    # so a wrong cap records its size without starting a thread
    import qgrowth.models as models_module

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(models_module, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    circuit = tightness_circuit(2, 3)
    many = truth_table(circuit.spec, circuit.rho, workers=10**6)
    assert sizes == [2]
    assert np.array_equal(many, truth_table(circuit.spec, circuit.rho))


def test_tightness_table_at_2_workers_stays_within_4_mib():
    # 32-row chunks keep each (32, 24, 48) slab at 576 KiB; 256-row ones peaked at 19 MiB
    circuit = tightness_circuit(2, 3)
    tracemalloc.start()
    try:
        truth_table(circuit.spec, circuit.rho, workers=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20


def _fold_in_one_product(spec):
    # the earlier fold: one stacked matmul, then a transposed contiguous copy of it
    n, m = spec.num_inputs, spec.space.total_dim
    starts = spec.start_indices()
    last = spec.unitaries[-1][... if spec.model is Model.HALF_BQP else spec.accept]
    second = last if spec.d == 1 else spec.unitaries[1]
    first = spec.unitaries[0][:, starts].reshape(n, m // n, -1)
    fold = (second.reshape(-1, n, m // n).transpose(1, 0, 2) @ first).transpose(0, 2, 1)
    return np.ascontiguousarray(fold).view(float).reshape(n, -1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_fold_in_slices_keeps_the_bits_of_one_product(d):
    # the 64-coordinate DQCK and HALF_BQP folds take 8 and 4 slices of 1 MiB
    cases = [(Model.BQP, IndexSpace.qubits(2)), (Model.BQP, IndexSpace(64, 1, 1)),
             (Model.DQCK, IndexSpace(4, 1, 2)), (Model.DQCK, IndexSpace(64, 1, 2)),
             (Model.HALF_BQP, IndexSpace(4, 2, 1)), (Model.HALF_BQP, IndexSpace(64, 1, 1))]
    for model, space in cases:
        spec = random_spec(model, space, d, np.random.default_rng(d))
        assert spec._kernel_plan[0].tobytes() == _fold_in_one_product(spec).tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_kernel_fold_is_held_once_while_it_is_built(d):
    # HALF_BQP at N = M = S = R = 128: a 32 MiB fold, which one product and its copy held twice
    space = IndexSpace(128, 1, 1)
    spec = _identity_spec(Model.HALF_BQP, space, d, accept=np.zeros((128, 128), dtype=bool))
    tracemalloc.start()
    try:
        fold = spec._kernel_plan[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fold.nbytes == 32 << 20
    assert peak <= 1.25 * fold.nbytes


def test_kernel_plan_over_its_guard_is_refused_before_it_is_formed():
    # HALF_BQP at N = M = S = R = 512, d = 1: the (N, S, R) complex fold takes 2 GiB
    space = IndexSpace(512, 1, 1)
    spec = _identity_spec(Model.HALF_BQP, space, accept=np.zeros((512, 512), dtype=bool))
    rho = Restriction(np.array([1] * 510 + [0, 0]))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match=r"^kernel plan needs 2147483648 bytes, guard is 1073741824$"):
            truth_table(spec, rho, workers=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 << 10  # 15 KiB measured: neither the fold nor the inputs exist


@pytest.mark.parametrize("model", list(Model))
def test_default_chunks_are_powers_of_two_and_multiples_of_4(model, monkeypatch):
    # HALF_BQP entries move by ~1e-17 when a chunk's row count is not a multiple
    # of 4, so every chunk but the last must keep that shape for --out to hold
    import qgrowth.models as models_module

    rows = []
    real_chunk = models_module._table_chunk
    monkeypatch.setattr(models_module, "_table_chunk",
                        lambda spec, x: rows.append(x.shape[0]) or real_chunk(spec, x))
    spaces = [_space(model, n) for n in (1, 2, 3, 4)]
    # S = 12 start states for HALF_BQP and DQCK at N = 12: 1024 // S is no power of two
    spaces.append(IndexSpace(12, 1, 2 if model is Model.DQCK else 1))
    for n, space in enumerate(spaces, 1):
        rows.clear()
        spec = random_spec(model, space, 1, np.random.default_rng(n))
        truth_table(spec, workers=1)
        assert sum(rows) == 1 << (spec.num_inputs - 1)
        assert all(r & (r - 1) == 0 and r % 4 == 0 for r in rows[:-1])
        assert n < 4 or len(rows) > 1
        # N = 16: the largest power of two with rows * S * M <= 2^16, S * M = 16, 512, 256
        assert n != 4 or rows[0] == {Model.BQP: 1024, Model.DQCK: 128, Model.HALF_BQP: 256}[model]
    if model is Model.DQCK:  # the tightness table: S = 24, M = 48, so 32 rows
        rows.clear()
        circuit = tightness_circuit(2, 3)
        truth_table(circuit.spec, circuit.rho, workers=1)
        assert set(rows) == {32}


@pytest.mark.parametrize("restricted", [False, True])
# one query at N = 16 keeps its 2^15-input sweeps in chunks of 4 under a second
@pytest.mark.parametrize("n, d", [(3, 2), (4, 1)])
@pytest.mark.parametrize("model", list(Model))
def test_table_bits_hold_at_every_chunk_that_is_a_multiple_of_4(model, n, d, restricted,
                                                                monkeypatch):
    # every chunk the slab rule picks is a power of two of at least 4 rows
    rng = np.random.default_rng(60 + n)
    spec = random_spec(model, _space(model, n), d, rng)
    rho = random_restriction(spec.num_inputs, rng) if restricted else None
    want = truth_table(spec, rho)
    for rows in (4, 8, 64, 256, 1024):
        monkeypatch.setattr(linalg, "SLICE_BYTES", _slice_bytes(spec, rows))
        for workers in (1, 2):
            assert np.array_equal(truth_table(spec, rho, workers=workers), want)


def _space(model, n=3):
    return IndexSpace.qubits(n, 0, 1 if model is Model.DQCK else 0)


def _mask_inputs(masks, rho):
    """+/-1 inputs decoded mask by mask: free coordinate j is -1 iff bit j is set."""
    rows = np.tile(rho.pattern.astype(float), (masks.size, 1))
    for row, mask in zip(rows, masks.tolist()):
        for j, coord in enumerate(rho.free_indices.tolist()):
            row[coord] = -1.0 if (mask >> j) & 1 else 1.0
    return rows


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("model", list(Model))
def test_unrestricted_table_equals_a_sweep_of_every_input(model, d, workers, monkeypatch):
    # the mirrored half is bit for bit what simulating -x gives, in chunks of 16 rows
    spec = random_spec(model, _space(model), d, np.random.default_rng(40 + d))
    n = spec.num_inputs
    every = _table_chunk(spec, _mask_inputs(np.arange(1 << n), Restriction.all_free(n)))
    monkeypatch.setattr(linalg, "SLICE_BYTES", _slice_bytes(spec, 16))
    assert np.array_equal(truth_table(spec, workers=workers), every)


@pytest.mark.parametrize("pattern", [
    None, "****", "+***", "***-", "*-+*", "-*+*", "**-+", "+-+*", "*-+-", "-+-+",
], ids=lambda p: f"{p}")
@pytest.mark.parametrize("chunk", [3, 64])
def test_table_inputs_match_per_mask_decoding(pattern, chunk, monkeypatch):
    # F = 0..4 free coordinates: fixed coordinates first, last and in the middle; slices
    # of 3 rows' slabs give chunks of 4, which split every sweep of more than 4 inputs
    import qgrowth.models as models_module

    fed = []
    real_chunk = models_module._table_chunk

    def recording_chunk(spec, x):
        fed.append(x)
        return real_chunk(spec, x)

    monkeypatch.setattr(models_module, "_table_chunk", recording_chunk)
    spec = random_spec(Model.BQP, IndexSpace.qubits(2), 2, np.random.default_rng(9))
    rho = Restriction.all_free(4) if pattern is None else Restriction.from_string(pattern)
    monkeypatch.setattr(linalg, "SLICE_BYTES", _slice_bytes(spec, chunk))
    table = truth_table(spec, None if pattern is None else rho)
    swept = table.size // 2 if rho.fixed_indices.size == 0 else table.size
    assert all(x.dtype == float and x.flags.c_contiguous for x in fed)
    assert len(fed) == -(-swept // max(4, chunk))
    assert np.array_equal(np.concatenate(fed), _mask_inputs(np.arange(swept), rho))


@pytest.mark.parametrize("pattern, rows", [
    (None, 8), ("****", 8), ("*+**", 8), ("-***", 8), ("+-**", 4), ("+--+", 1),
])
def test_only_an_unrestricted_table_simulates_half_the_cube(pattern, rows, monkeypatch):
    import qgrowth.models as models_module

    simulated = []
    real_chunk = models_module._table_chunk

    def counting_chunk(spec, x):
        simulated.append(len(x))
        return real_chunk(spec, x)

    monkeypatch.setattr(models_module, "_table_chunk", counting_chunk)
    spec = random_spec(Model.BQP, IndexSpace.qubits(2), 2, np.random.default_rng(5))
    rho = None if pattern is None else Restriction.from_string(pattern)
    monkeypatch.setattr(linalg, "SLICE_BYTES", 1)  # chunks of 4 rows, the smallest
    table = truth_table(spec, rho)
    assert sum(simulated) == rows
    assert table.size == (16 if pattern is None else 1 << pattern.count("*"))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("model", list(Model))
def test_unrestricted_odd_levels_are_exactly_zero(model, d, seed):
    # f(-x) = f(x) for every model, so every odd-level coefficient cancels
    spec = random_spec(model, _space(model), d, np.random.default_rng(60 + seed))
    coeffs = spectrum_of_algorithm(spec, workers=2).coeffs
    masks = np.arange(coeffs.size)
    odd = f2_inner(masks, coeffs.size - 1) == 1
    assert np.all(coeffs[odd] == 0.0)
    assert np.any(coeffs[~odd][1:] != 0.0)


def test_truth_table_restriction_enumerates_free_coords_only():
    rng = np.random.default_rng(15)
    space = IndexSpace.qubits(2, 0, 1)
    spec = random_spec(Model.DQCK, space, 1, rng)
    rho = Restriction.from_string("+*-*")
    table = truth_table(spec, rho)
    assert table.shape == (4,)
    x = np.array([1.0, 1.0, -1.0, -1.0])   # free coords 1, 3 set to (+1, -1)
    assert table[0b10] == pytest.approx(acceptance_formula(spec, x), abs=1e-12)


def test_spec_validation_errors():
    space = IndexSpace.qubits(1)
    with pytest.raises(ValueError, match="expected 2 gates, got 1"):
        AlgorithmSpec(Model.BQP, space, 1, (np.eye(2),), np.ones(2, dtype=bool))
    with pytest.raises(ValueError, match="gate 0 is not unitary"):
        AlgorithmSpec(Model.BQP, space, 1, (np.eye(2) * 1.5, np.eye(2)), np.ones(2, dtype=bool))
    with pytest.raises(ValueError, match="DQCK needs at least one clean qubit"):
        AlgorithmSpec(Model.DQCK, space, 1, (np.eye(2),) * 2, np.ones(2, dtype=bool))
    with pytest.raises(ValueError, match=r"accept mask has shape \(2,\), expected \(2, 2\)"):
        AlgorithmSpec(Model.HALF_BQP, space, 1, (np.eye(2),) * 2, np.ones(2, dtype=bool))
    with pytest.raises(ValueError, match="query count d must be >= 1, got 0"):
        AlgorithmSpec(Model.BQP, space, 0, (np.eye(2),), np.ones(2, dtype=bool))


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(list(Model)),
    n=st.integers(1, 2),
    w=st.integers(0, 1),
    d=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_json_round_trip(model, n, w, d, seed, data):
    # the HALF_BQP case loads the 0/1 accept matrix spec_to_json writes
    rng = np.random.default_rng(seed)
    space = IndexSpace.qubits(n, w, 1 if model is Model.DQCK else 0)
    spec = random_spec(model, space, d, rng)
    text = data.draw(st.text("+-*", min_size=space.oracle_dim, max_size=space.oracle_dim))
    doc = spec_to_json(spec, Restriction.from_string(text))
    loaded, rho2 = spec_from_json(json.loads(json.dumps(doc)))
    assert rho2.to_string() == text
    assert [g.tobytes() for g in loaded.unitaries] == [g.tobytes() for g in spec.unitaries]
    assert loaded.accept.tobytes() == spec.accept.tobytes()
    x = _random_x(rng, space.oracle_dim)
    assert acceptance_direct(loaded, x) == pytest.approx(acceptance_direct(spec, x), abs=1e-12)


def _field_doc():
    return {"model": "BQP", "n": 1, "w": 0, "k": 0, "d": 1, "accept": [0], "restriction": "*+",
            "unitaries": [{"kind": "haar", "seed": 1},
                          {"kind": "explicit", "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}


_DOC_FIELDS = [(key,) for key in _field_doc()] + [
    ("unitaries", 0), ("unitaries", 1), ("unitaries", 0, "kind"), ("unitaries", 0, "seed"),
    ("unitaries", 1, "kind"), ("unitaries", 1, "rows")]

# sizes stay small (w = 4 is M = 32) or trip a guard before any gate (13, 10**30)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from([13, 10**30, 10**400])
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(_DOC_FIELDS), value=_JSON_VALUES)
def test_spec_field_replaced_by_any_json_value_loads_or_is_refused(path, value):
    # the CLI prints ValueError and ResourceLimitError as one line; anything else
    # would leak a Python exception name
    doc = _field_doc()
    spec_from_json(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        spec_from_json(doc)
    except (ValueError, ResourceLimitError):
        pass


def test_json_gate_kinds():
    doc = {
        "model": "bqp",
        "n": 1,
        "w": 0,
        "k": 0,
        "d": 1,
        "unitaries": [{"kind": "hadamard"}, {"kind": "haar", "seed": 9}],
        "accept": [0],
    }
    spec, rho = spec_from_json(doc)
    assert rho is None
    assert np.allclose(spec.unitaries[0], hadamard_matrix(1))
    assert np.allclose(spec.unitaries[1], random_unitary(2, 9))
    doc["unitaries"] = [{"kind": "identity"}, {"kind": "bogus"}]
    with pytest.raises(ValueError, match="unknown gate kind 'bogus'"):
        spec_from_json(doc)


def test_half_bqp_json_accept_matrix():
    doc = {
        "model": "half_bqp",
        "n": 1,
        "d": 1,
        "unitaries": [{"kind": "identity"}, {"kind": "identity"}],
        "accept": [[1, 0], [0, 1]],
    }
    spec, _ = spec_from_json(doc)
    assert spec.accept.shape == (2, 2)
    # identity circuit: outcome equals start, so acceptance is the diagonal mean
    assert acceptance_direct(spec, np.ones(2)) == pytest.approx(1.0)
