"""Dense complex matrices, norms, structured gate constructors, F2 index arithmetic.

Conventions used everywhere in this package:

* Indices are zero-based.  Basis state ``i`` of an ``N``-dimensional register
  encodes the bit string of ``i`` (so index 0 is the all-zeros string).
* Composite register index: ``flat = (i * W + w) * K + c`` for oracle
  coordinate ``i``, workspace ``w``, clean ``c``.  The oracle coordinate is
  the slowest coordinate; this codec is fixed once and used by every module.
* Exact inequalities from the underlying mathematics are asserted in the
  tolerant form ``lhs <= rhs * (1 + LEQ_SLACK) + LEQ_SLACK`` (see :func:`leq_tol`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError


#: Hard cap on qubit counts so 2**N truth tables stay addressable downstream.
MAX_QUBITS = 20

#: Largest register dimension M: one dense M x M complex gate is then 256 MiB.
MAX_REGISTER_DIM = 1 << 12

#: Bytes any one guarded allocation may take; :func:`check_cost` reads it at each call.
MEMORY_BUDGET = 1 << 30

#: Working set of one slice of a sliced loop: the kernel plan's fold, a truth-table
#: chunk's complex slab and ``decomposition.verify``'s start rows.
SLICE_BYTES = 1 << 20

#: Relative and absolute slack of :func:`leq_tol`.
LEQ_SLACK = 1e-9

#: Unitarity slack of :func:`is_unitary`: ``||A^H A - I||_F <= UNITARY_TOL * max(1, sqrt(dim))``.
UNITARY_TOL = 1e-9

#: Largest imaginary part tolerated where a computed value must be real.
IMAG_TOL = 1e-8

#: Largest deviation from an exact expected value that passes.
MATCH_TOL = 1e-9


def leq_tol(lhs: float, rhs: float) -> bool:
    """Tolerant form of the exact inequality ``lhs <= rhs``."""
    return lhs <= rhs * (1.0 + LEQ_SLACK) + LEQ_SLACK


def check_cost(what: str, need: int, unit: str = "bytes", guard: int | None = None) -> None:
    """Refuse work whose predicted cost ``need`` exceeds ``guard`` (default MEMORY_BUDGET)."""
    guard = MEMORY_BUDGET if guard is None else guard
    if need > guard:
        raise ResourceLimitError(f"{what} needs {need} {unit}, guard is {guard}")


def check_table_size(coords: int) -> None:
    """Refuse a truth table over ``coords`` coordinates above the 2^MAX_QUBITS cap."""
    if coords > MAX_QUBITS:
        raise ResourceLimitError(
            f"truth table over {coords} coordinates needs 2^{coords} entries, "
            f"above the 2^{MAX_QUBITS} cap"
        )


def check_register_size(dim: int) -> None:
    """Refuse a register whose dense dim x dim gates exceed the MAX_REGISTER_DIM cap."""
    if dim > MAX_REGISTER_DIM:
        raise ResourceLimitError(
            f"register of dimension M = {dim} needs {16 * dim * dim / 2**30:.3g} GiB per "
            f"dense complex gate, above the M = {MAX_REGISTER_DIM} cap"
        )


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
            raise ValueError(f"oracle register needs dimension >= 2, got {self.oracle_dim}")
        if self.work_dim < 1 or self.clean_dim < 1:
            raise ValueError("workspace/clean register dimensions must be >= 1")
        check_register_size(self.total_dim)

    @classmethod
    def qubits(cls, n: int, w: int = 0, k: int = 0) -> "IndexSpace":
        """Build a space from qubit counts: N=2^n, W=2^w, K=2^k."""
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"oracle qubit count must be in [1, {MAX_QUBITS}], got {n}")
        if not (0 <= w <= MAX_QUBITS and 0 <= k <= MAX_QUBITS):  # 1 << w stays small
            raise ValueError(f"workspace/clean qubit counts must be >= 0 and <= {MAX_QUBITS}")
        return cls(1 << n, 1 << w, 1 << k)

    @property
    def total_dim(self) -> int:
        """M = N * W * K, the dimension every circuit gate acts on."""
        return self.oracle_dim * self.work_dim * self.clean_dim

    def oracle_parts(self) -> np.ndarray:
        """Oracle coordinate of every composite index, as a length-M array."""
        return np.repeat(np.arange(self.oracle_dim), self.work_dim * self.clean_dim)


def f2_inner(i, j):
    """Inner product over F2 of the bit strings encoded by indices ``i`` and ``j``.

    Zero-based: index 0 encodes the all-zeros string, so ``f2_inner(0, j) == 0``.
    Takes ints or integer arrays (elementwise, broadcasting); the one parity
    helper of the package.
    """
    return np.bitwise_count(np.bitwise_and(i, j)) & 1


def hadamard_matrix(n: int) -> np.ndarray:
    """The N x N unitary Hadamard matrix, N = 2^n.

    Entry (i, j) is ``(-1)^<i,j>_2 / sqrt(N)``; equals the n-fold tensor power
    of ``[[1, 1], [1, -1]] / sqrt(2)``.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"Hadamard order n must be in [1, {MAX_QUBITS}], got {n}")
    check_register_size(1 << n)
    scale = 1 / np.sqrt(1 << n)
    idx = np.arange(1 << n, dtype=np.uint32)
    return np.where(f2_inner(idx[:, None], idx), -scale, scale)


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
        raise ValueError(f"random_unitary: dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


def oracle_input(x: np.ndarray, space: IndexSpace) -> np.ndarray:
    """``x`` as floats, refused unless it is one input of length N."""
    x = np.asarray(x, dtype=float)
    if x.shape != (space.oracle_dim,):
        raise ValueError(f"phase oracle input has length {x.shape}, expected ({space.oracle_dim},)")
    return x


def phase_vector(x: np.ndarray, space: IndexSpace) -> np.ndarray:
    """Diagonal of the phase oracle as a length-M vector (entry x_i at (i,w,c))."""
    return np.repeat(oracle_input(x, space), space.work_dim * space.clean_dim)


def is_unitary(a: np.ndarray) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    residual = a.conj().T @ a - np.eye(a.shape[0])
    return float(np.linalg.norm(residual)) <= UNITARY_TOL * max(1.0, np.sqrt(a.shape[0]))
