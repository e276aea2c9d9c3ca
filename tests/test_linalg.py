import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
