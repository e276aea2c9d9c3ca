import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgrowth import decomposition, fourier, linalg
from qgrowth.errors import ResourceLimitError
from qgrowth.linalg import (
    IndexSpace,
    f2_inner,
    frobenius_norm,
    hadamard_matrix,
    leq_tol,
    operator_norm,
    phase_vector,
    random_unitary,
)
from qgrowth.models import AlgorithmSpec, Model, Restriction, random_spec, truth_table


def test_hadamard_one_qubit_exact():
    want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(hadamard_matrix(1), want, atol=0)


def test_hadamard_all_plus_entry():
    # row/column of the all-zeros index in the tensor square
    assert hadamard_matrix(2)[0, 0] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("n", range(1, 7))
def test_hadamard_is_involution(n):
    had = hadamard_matrix(n)
    assert np.max(np.abs(had @ had - np.eye(1 << n))) <= 1e-10


@pytest.mark.parametrize("n", range(1, 7))
def test_hadamard_unitary(n):
    had = hadamard_matrix(n)
    assert np.max(np.abs(had.T @ had - np.eye(1 << n))) <= 1e-12


@pytest.mark.parametrize("n", [0, -1, 21])
def test_hadamard_dimension_errors(n):
    with pytest.raises(ValueError, match=r"Hadamard order n must be in \[1, 20\]"):
        hadamard_matrix(n)


def test_hadamard_refuses_registers_over_the_cap():
    # n = 13 would be a 512 MiB real matrix; n = 20 one of 8 TiB
    for n in (13, 20):
        with pytest.raises(ResourceLimitError, match=f"M = {1 << n} needs"):
            hadamard_matrix(n)


def test_sign_hadamard_matches_matrix():
    # bit for bit the integer sign matrix divided by sqrt(N), signed zeros included
    for n in range(1, 11):
        idx = np.arange(1 << n)
        want = np.where(f2_inner(idx[:, None], idx), -1, 1) / np.sqrt(1 << n)
        got = hadamard_matrix(n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    # built in one float pass: no integer N x N sign matrix alongside the result
    tracemalloc.start()
    try:
        got = hadamard_matrix(10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * got.nbytes


def test_f2_inner_examples():
    assert f2_inner(0, 0) == 0          # both encode the all-zeros string
    assert f2_inner(1, 1) == 1          # both encode the single set bit
    assert f2_inner(1, 2) == 0          # disjoint bits


@given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1))
def test_f2_inner_bit_enumeration(i, j):
    want = sum((i >> b) & (j >> b) & 1 for b in range(20)) % 2
    assert f2_inner(i, j) == want


@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_f2_inner_bilinear_in_xor(i, j, k):
    assert f2_inner(i ^ j, k) == f2_inner(i, k) ^ f2_inner(j, k)


def test_operator_norm_examples():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(np.diag([2.0, 0.0])) == pytest.approx(2.0, abs=1e-12)
    u = random_unitary(8, 123)
    assert operator_norm(u) == pytest.approx(1.0, abs=1e-9)


def test_frobenius_norm_examples():
    assert frobenius_norm(np.eye(9)) == pytest.approx(3.0, abs=1e-12)
    assert frobenius_norm(np.zeros((4, 4))) == 0.0
    assert frobenius_norm(np.diag([2.0, 0.0])) == pytest.approx(2.0, abs=1e-12)


def test_random_unitary_scalar_case():
    u = random_unitary(1, 5)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_random_unitary_deterministic():
    assert np.array_equal(random_unitary(6, 99), random_unitary(6, 99))
    assert not np.array_equal(random_unitary(6, 99), random_unitary(6, 98))


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_random_unitary_residual(dim):
    u = random_unitary(dim, 7)
    assert frobenius_norm(u.conj().T @ u - np.eye(dim)) <= 1e-10


def test_random_unitary_zero_dim_rejected():
    with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
        random_unitary(0, 1)


def test_phase_oracle_identity():
    space = IndexSpace.qubits(2, 1)
    assert np.allclose(np.diag(phase_vector(np.ones(4), space)), np.eye(8))


def test_phase_oracle_small_cases():
    assert np.allclose(
        np.diag(phase_vector(np.array([1.0, -1.0]), IndexSpace.qubits(1))), np.diag([1, -1])
    )
    # N=2, W=2: the oracle coordinate is the slow coordinate
    got = np.diag(phase_vector(np.array([-1.0, 1.0]), IndexSpace.qubits(1, 1)))
    assert np.allclose(got, np.diag([-1, -1, 1, 1]))


def test_phase_oracle_shape_error():
    with pytest.raises(ValueError, match=r"phase oracle input has length \(3,\)"):
        phase_vector(np.ones(3), IndexSpace.qubits(1))


def _random_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_norm_inequalities_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = _random_matrix(rng, (8, 8))
        b = _random_matrix(rng, (8, 8))
        # submultiplicativity of the operator norm
        assert leq_tol(operator_norm(a @ b), operator_norm(a) * operator_norm(b))
        # ||BC||_frob <= ||B||_op ||C||_frob
        assert leq_tol(frobenius_norm(a @ b), operator_norm(a) * frobenius_norm(b))
        # entrywise Cauchy-Schwarz
        lhs = float(np.sum(np.abs(a) * np.abs(b)))
        assert leq_tol(lhs, frobenius_norm(a) * frobenius_norm(b))
        # submatrix operator norms
        rows = rng.choice(8, size=4, replace=False)
        cols = rng.choice(8, size=5, replace=False)
        assert leq_tol(operator_norm(a[np.ix_(rows, cols)]), operator_norm(a))


def test_index_space_codec():
    space = IndexSpace.qubits(2, 1, 1)
    assert (space.oracle_dim, space.work_dim, space.clean_dim) == (4, 2, 2)
    assert space.total_dim == 16
    parts = space.oracle_parts()
    assert parts.shape == (16,)
    for i in range(4):
        for w in range(2):
            for c in range(2):
                assert parts[(i * 2 + w) * 2 + c] == i


def test_index_space_validation():
    with pytest.raises(ValueError, match=r"oracle qubit count must be in \[1, 20\], got 0"):
        IndexSpace.qubits(0)
    with pytest.raises(ValueError, match=r"oracle qubit count must be in \[1, 20\], got 21"):
        IndexSpace.qubits(21)
    with pytest.raises(ValueError, match="workspace/clean qubit counts must be >= 0"):
        IndexSpace.qubits(2, -1)
    with pytest.raises(ValueError, match="oracle register needs dimension >= 2, got 1"):
        IndexSpace(1)
    # the register cap covers raw dimensions and qubit counts alike
    with pytest.raises(ResourceLimitError, match="M = 4098 needs 0.25 GiB"):
        IndexSpace(2049, 2)
    with pytest.raises(ResourceLimitError, match="M = 8192 needs 1 GiB"):
        IndexSpace.qubits(1, 6, 6)
    with pytest.raises(ValueError, match="workspace/clean qubit counts must be >= 0 and <= 20"):
        IndexSpace.qubits(1, 10**12)  # refused before 1 << w is built
    # raw dimensions (block-embedded registers) are allowed
    assert IndexSpace(12, 1, 2).total_dim == 24



# ---------------------------------------------------------------------------
# the one cost check: every guard but the two caps goes through linalg.check_cost


def _decomposition_spec():
    # M = 2, depth 2, both coordinates tracked: augmented dimension 2 * 2^2 = 8
    return decomposition.DecompositionSpec(IndexSpace(2), (np.eye(2),) * 2, tracked=2)


def _kernel_plan_site():
    # BQP at N = M = 4, d = 1, every outcome accepted: 16 N S R = 16 * 4 * 1 * 4 bytes
    spec = AlgorithmSpec(Model.BQP, IndexSpace(4), 1, (np.eye(4),) * 2, np.ones(4, dtype=bool))
    return lambda: truth_table(spec)


def _direct_sum_site():
    spec = random_spec(Model.BQP, IndexSpace(2), 1, np.random.default_rng(1))  # 2^2 tuples
    return lambda: fourier.direct_restricted_spectrum(spec)


def _block_tensor_site():
    # M = 6 and s = 2 positions a block: 64 M s^2 bytes
    spec = random_spec(Model.HALF_BQP, IndexSpace(6), 2, np.random.default_rng(2))
    return lambda: fourier.hbqp_level3_block_tensor(spec, Restriction.all_free(6))


def _decompose_site():
    # augmented dimension 8; 20 (depth + 2) dim M bytes of factors
    spec = _decomposition_spec()
    return lambda: decomposition.decompose_improved(spec)


def _brute_tensor_site():
    spec = _decomposition_spec()  # M^(d+1) paths
    return lambda: decomposition.brute_force_tensor(spec)


def _brute_entry_site():
    spec = _decomposition_spec()  # M^(d-1) paths
    return lambda: decomposition.brute_force_entry(spec, 0, 0, 0)


def _row_push_site():
    # 8 rows of dimension 8 after M = 2 and M^2 = 4 entries a row: 8 (16 * 8 + 20 * (2 + 4))
    return decomposition.decompose_improved(_decomposition_spec()).free_start_block


def _verify_site():
    spec = _decomposition_spec()
    return lambda: decomposition.verify(spec)


_COST_SITES = {
    # site: (module, guard attribute, need, message head, unit, call factory)
    "kernel-plan": (linalg, "MEMORY_BUDGET", 256, "kernel plan", "bytes", _kernel_plan_site),
    "direct-sum": (fourier, "DIRECT_SUM_GUARD", 4, "direct summation", "tuples",
                   _direct_sum_site),
    "block-tensor": (linalg, "MEMORY_BUDGET", 1536, "level-3 block tensor", "bytes",
                     _block_tensor_site),
    "augmented": (decomposition, "AUGMENTED_DIM_GUARD", 8, "augmented index", "states",
                  _decompose_site),
    "brute-tensor": (decomposition, "BRUTE_FORCE_GUARD", 8, "brute force", "paths",
                     _brute_tensor_site),
    "brute-entry": (decomposition, "BRUTE_FORCE_GUARD", 2, "brute force", "paths",
                    _brute_entry_site),
    "factor-build": (linalg, "MEMORY_BUDGET", 1280, "factor build", "bytes", _decompose_site),
    "row-push": (linalg, "MEMORY_BUDGET", 1984, "row push", "bytes", _row_push_site),
    # 16 KiB of fixed overhead, two factors of 16 nonzeros (20 B each), then one slice of
    # the 8 start rows of dimension 8 and 8 compared columns, next to the bins and the
    # empty-start rows: 16384 + 20 * 2 * 16 + 8 * (16 * 8 + 48 * 8) + 16 * 2 * (8 + 8)
    "verify": (linalg, "MEMORY_BUDGET", 21632, "verify", "bytes", _verify_site),
}


@pytest.mark.parametrize("site", list(_COST_SITES))
def test_every_guard_admits_its_need_and_refuses_one_more(site, monkeypatch):
    module, attr, need, what, unit, make = _COST_SITES[site]
    monkeypatch.setattr(module, attr, need)
    make()()  # need == guard is admitted
    monkeypatch.setattr(module, attr, need - 1)
    with pytest.raises(ResourceLimitError,
                       match=rf"^{what} needs {need} {unit}, guard is {need - 1}$"):
        make()()


def test_one_memory_budget_moves_every_byte_guard(monkeypatch):
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", 255)
    for site in ("kernel-plan", "block-tensor", "factor-build"):
        with pytest.raises(ResourceLimitError, match=r"bytes, guard is 255$"):
            _COST_SITES[site][-1]()()
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", 1983)
    with pytest.raises(ResourceLimitError, match=r"^row push needs 1984 bytes, guard is 1983$"):
        _row_push_site()()


def test_resource_limit_error_is_raised_only_by_the_checks_and_the_forrelation_caps():
    raised = {}
    for path in sorted((Path(__file__).parents[1] / "src" / "qgrowth").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "ResourceLimitError"):
                raised[path.stem] = raised.get(path.stem, 0) + 1
    # linalg: check_cost, check_table_size and check_register_size
    assert raised == {"linalg": 3, "forrelation": 2}
