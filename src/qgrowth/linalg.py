"""Dense complex matrices, norms, structured gate constructors, F2 index arithmetic.

Conventions used everywhere in this package:

* Indices are zero-based.  Basis state ``i`` of an ``N``-dimensional register
  encodes the bit string of ``i`` (so index 0 is the all-zeros string).
* Composite register index: ``flat = (i * W + w) * K + c`` for oracle
  coordinate ``i``, workspace ``w``, clean ``c``.  The oracle coordinate is
  the slowest coordinate; this codec is fixed once and used by every module.
* Exact inequalities from the underlying mathematics are asserted in the
  tolerant form ``lhs <= rhs * (1 + rel) + abs`` (see :func:`leq_tol`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ShapeError

#: Hard cap on qubit counts so 2**N truth tables stay addressable downstream.
MAX_QUBITS = 20

#: Default slack for unitarity / operator-norm preconditions.
NORM_SLACK = 1e-9


def leq_tol(lhs: float, rhs: float, rel: float = 1e-9, abs_: float = 1e-9) -> bool:
    """Tolerant form of the exact inequality ``lhs <= rhs``."""
    return lhs <= rhs * (1.0 + rel) + abs_


@dataclass(frozen=True)
class IndexSpace:
    """Dimensions of the oracle / workspace / clean registers.

    ``qubits`` is the standard constructor (powers of two, per the query
    models).  The block-embedded trace circuits need an oracle register whose
    dimension is a number of input bits such as ``3 * 4 = 12``, so raw
    dimensions are allowed through the default constructor.
    """

    oracle_dim: int
    work_dim: int = 1
    clean_dim: int = 1

    def __post_init__(self):
        if self.oracle_dim < 2:
            raise DimensionError(f"oracle register needs dimension >= 2, got {self.oracle_dim}")
        if self.work_dim < 1 or self.clean_dim < 1:
            raise DimensionError("workspace/clean register dimensions must be >= 1")

    @classmethod
    def qubits(cls, n: int, w: int = 0, k: int = 0) -> "IndexSpace":
        """Build a space from qubit counts: N=2^n, W=2^w, K=2^k."""
        if not 1 <= n <= MAX_QUBITS:
            raise DimensionError(f"oracle qubit count must be in [1, {MAX_QUBITS}], got {n}")
        if w < 0 or k < 0:
            raise DimensionError("workspace/clean qubit counts must be >= 0")
        if n + w + k > MAX_QUBITS:
            raise DimensionError(f"total qubit count {n + w + k} exceeds cap {MAX_QUBITS}")
        return cls(1 << n, 1 << w, 1 << k)

    @property
    def total_dim(self) -> int:
        """M = N * W * K, the dimension every circuit gate acts on."""
        return self.oracle_dim * self.work_dim * self.clean_dim

    @property
    def start_dim(self) -> int:
        """N * W, the number of noisy basis states (mixed-start models)."""
        return self.oracle_dim * self.work_dim

    def oracle_parts(self) -> np.ndarray:
        """Oracle coordinate of every composite index, as a length-M array."""
        return np.repeat(np.arange(self.oracle_dim), self.work_dim * self.clean_dim)


def f2_inner(i: int, j: int) -> int:
    """Inner product over F2 of the bit strings encoded by indices ``i`` and ``j``.

    Zero-based: index 0 encodes the all-zeros string, so ``f2_inner(0, j) == 0``.
    """
    return (i & j).bit_count() & 1


def hadamard_matrix(n: int) -> np.ndarray:
    """The N x N unitary Hadamard matrix, N = 2^n.

    Entry (i, j) is ``(-1)^<i,j>_2 / sqrt(N)``; equals the n-fold tensor power
    of ``[[1, 1], [1, -1]] / sqrt(2)``.
    """
    return sign_hadamard(n) / np.sqrt(1 << n)


def sign_hadamard(n: int) -> np.ndarray:
    """The +/-1 sign pattern of the Hadamard matrix: entry (i,j) = (-1)^<i,j>_2."""
    if not 1 <= n <= MAX_QUBITS:
        raise DimensionError(f"Hadamard order n must be in [1, {MAX_QUBITS}], got {n}")
    size = 1 << n
    idx = np.arange(size, dtype=np.uint64)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]) & 1
    return np.where(parity == 0, 1, -1).astype(np.int64)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value, computed by full SVD (fine at desk scale)."""
    return float(np.linalg.norm(np.asarray(a), 2))


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entry magnitudes."""
    return float(np.linalg.norm(np.asarray(a)))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic per seed.

    QR of an i.i.d. complex Gaussian matrix with the diagonal-phase correction
    that makes the distribution exactly Haar.
    """
    if dim < 1:
        raise DimensionError(f"random_unitary: dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


def phase_vector(x: np.ndarray, space: IndexSpace) -> np.ndarray:
    """Diagonal of the phase oracle as a length-M vector (entry x_i at (i,w,c))."""
    x = np.asarray(x, dtype=float)
    if x.shape != (space.oracle_dim,):
        raise ShapeError(
            f"phase oracle input has length {x.shape}, expected ({space.oracle_dim},)"
        )
    return np.repeat(x, space.work_dim * space.clean_dim)


def phase_oracle(x: np.ndarray, space: IndexSpace) -> np.ndarray:
    """M x M diagonal phase oracle: |i,w,c> -> x_i |i,w,c>."""
    return np.diag(phase_vector(x, space).astype(complex))


def is_unitary(a: np.ndarray, tol: float = NORM_SLACK) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    residual = a.conj().T @ a - np.eye(a.shape[0])
    return float(np.linalg.norm(residual)) <= tol * max(1.0, np.sqrt(a.shape[0]))
