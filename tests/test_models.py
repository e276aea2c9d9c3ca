import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrowth.errors import (
    ParameterError,
    ShapeError,
    SpecificationError,
    ValidationError,
)
from qgrowth.linalg import IndexSpace, hadamard_matrix, random_unitary
from qgrowth.models import (
    AlgorithmSpec,
    HybridSpec,
    Leaf,
    Model,
    Query,
    Restriction,
    acceptance_direct,
    acceptance_formula,
    acceptance_hybrid,
    bias,
    hybrid_truth_table,
    interference_circuit,
    random_hybrid,
    random_restriction,
    random_spec,
    reduce_clean_qubits,
    restrict,
    spec_from_json,
    spec_to_json,
    truth_table,
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


def test_dqc1_trace_test_circuit():
    # interference circuit on reversed gates realizes 1/2 + Tr(O V_1 O V_2 ... O V_d)/2N
    rng = np.random.default_rng(3)
    n, d = 2, 3
    size = 1 << n
    vs = [random_unitary(size, 70 + t) for t in range(d)]
    bundle = interference_circuit(list(reversed(vs)))
    for _ in range(5):
        x = _random_x(rng, size)
        chain = np.eye(size, dtype=complex)
        for v in vs:
            chain = chain @ (x[:, None] * v)
        want = 0.5 + np.trace(chain).real / (2 * size)
        assert bundle.live_value(x) == pytest.approx(want, abs=1e-9)


def test_restrict_examples():
    x = np.array([-1.0, -1.0])
    assert np.array_equal(restrict(x, Restriction.from_string("**")), x)
    fixed = Restriction.from_string("+-")
    out = restrict(x, fixed)
    assert np.array_equal(out, [1.0, -1.0])
    assert np.array_equal(restrict(-x, fixed), out)  # independent of x
    assert np.array_equal(restrict(x, Restriction.from_string("+*")), [1.0, -1.0])


def test_restriction_parsing_round_trip():
    rho = Restriction.from_string("+-*+")
    assert rho.to_string() == "+-*+"
    assert rho.free_indices.tolist() == [2]
    with pytest.raises(ValidationError):
        Restriction.from_string("+?")


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
    with pytest.raises(ParameterError):
        reduce_clean_qubits(spec, 2)
    with pytest.raises(ParameterError):
        reduce_clean_qubits(spec, 0)


def test_hybrid_depth_zero_equals_plain():
    rng = np.random.default_rng(8)
    space = IndexSpace.qubits(2, 0, 1)
    spec = random_spec(Model.DQCK, space, 2, rng)
    hybrid = HybridSpec(Leaf("only"), {"only": spec})
    x = _random_x(rng, 4)
    assert acceptance_hybrid(hybrid, x) == pytest.approx(acceptance_direct(spec, x))


def test_hybrid_single_query_tree():
    space = IndexSpace.qubits(2, 0, 1)
    accept_all = _identity_spec(Model.DQCK, space, accept=np.ones(8, dtype=bool))
    reject_all = _identity_spec(Model.DQCK, space, accept=np.zeros(8, dtype=bool))
    hybrid = HybridSpec(Query(0, Leaf("a"), Leaf("r")), {"a": accept_all, "r": reject_all})
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
    tree = Query(
        6,
        Query(1, Leaf("pp"), Leaf("pm")),
        Query(3, Leaf("mp"), Leaf("mm")),
    )
    leaves = {key: random_spec(Model.DQCK, space, 2, rng) for key in ("pp", "pm", "mp", "mm")}
    table = hybrid_truth_table(HybridSpec(tree, leaves))
    for mask in range(1 << 8):
        x = np.where((mask >> np.arange(8)) & 1, -1.0, 1.0)
        key = ("p" if x[6] > 0 else "m") + ("p" if x[1 if x[6] > 0 else 3] > 0 else "m")
        assert table[mask] == pytest.approx(acceptance_formula(leaves[key], x), abs=1e-12)


def test_hybrid_path_validation():
    space = IndexSpace.qubits(1, 0, 1)
    leaf_spec = _identity_spec(Model.DQCK, space, accept=np.ones(4, dtype=bool))
    tree = Query(0, Query(0, Leaf("a"), Leaf("b")), Leaf("c"))
    with pytest.raises(SpecificationError):
        HybridSpec(tree, {"a": leaf_spec, "b": leaf_spec, "c": leaf_spec})


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


def test_truth_table_worker_determinism():
    rng = np.random.default_rng(14)
    space = IndexSpace.qubits(2, 0, 1)
    spec = random_spec(Model.DQCK, space, 2, rng)
    one = truth_table(spec, workers=1, chunk=3)
    many = truth_table(spec, workers=4, chunk=3)
    assert np.array_equal(one, many)


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(list(Model)),
    d=st.integers(1, 3),
    w=st.integers(0, 1),
    n=st.integers(1, 3),
    star_prob=st.floats(0, 1),
    chunk=st.one_of(st.sampled_from([1, 2, 4, 16, 64]), st.integers(1, 300)),
    seed=st.integers(0, 2**32 - 1),
)
def test_truth_table_matches_formula_on_every_entry(model, d, w, n, star_prob, chunk, seed):
    # chunk sizes that divide the table (powers of two) and that do not
    rng = np.random.default_rng(seed)
    space = IndexSpace.qubits(n, w, 1 if model is Model.DQCK else 0)
    spec = random_spec(model, space, d, rng)
    rho = random_restriction(space.oracle_dim, rng, star_prob=star_prob)
    table = truth_table(spec, rho, chunk=chunk)
    free = rho.free_indices
    assert table.shape == (1 << free.size,)
    for mask, got in enumerate(table):
        x = restrict(np.ones(space.oracle_dim), rho)
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
    spec = random_spec(Model.BQP, IndexSpace.qubits(2), 1, np.random.default_rng(3))
    one = truth_table(spec, workers=1, chunk=3)
    assert np.array_equal(truth_table(spec, workers=64, chunk=3), one)
    assert sizes == [6]      # 16 inputs in chunks of 3


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
    with pytest.raises(ValidationError):
        AlgorithmSpec(Model.BQP, space, 1, (np.eye(2),), np.ones(2, dtype=bool))
    with pytest.raises(ValidationError):
        AlgorithmSpec(Model.BQP, space, 1, (np.eye(2) * 1.5, np.eye(2)), np.ones(2, dtype=bool))
    with pytest.raises(ValidationError):
        AlgorithmSpec(Model.DQCK, space, 1, (np.eye(2),) * 2, np.ones(2, dtype=bool))
    with pytest.raises(ShapeError):
        AlgorithmSpec(Model.HALF_BQP, space, 1, (np.eye(2),) * 2, np.ones(2, dtype=bool))
    with pytest.raises(ParameterError):
        AlgorithmSpec(Model.BQP, space, 0, (np.eye(2),), np.ones(2, dtype=bool))


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(44)
    space = IndexSpace.qubits(1, 1)
    spec = random_spec(Model.BQP, space, 1, rng)
    rho = Restriction.from_string("+*")
    doc = spec_to_json(spec, rho)
    loaded, rho2 = spec_from_json(json.loads(json.dumps(doc)))
    assert rho2.to_string() == "+*"
    x = _random_x(rng, 2)
    assert acceptance_direct(loaded, x) == pytest.approx(acceptance_direct(spec, x), abs=1e-12)


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
    with pytest.raises(SpecificationError):
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
