"""The k-fold Hadamard/phase amplitude, its decision problem, and the
single-clean-qubit trace circuits that realize it at desk scale.

``forr`` evaluates the amplitude <0..0| H O_1 H O_2 ... H O_k H |0..0> two
independent ways (fast-transform statevector vs dense matrix product).
``trace_circuit`` and ``tightness_circuit`` build DQC1 algorithms whose
acceptance probability is 1/2 + Tr(O_1 H O_2 H ... O_k H) / (2N); the
tightness family attains the level-d growth ceiling exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .errors import ParameterError, ResourceLimitError, ShapeError, ValidationError
from .fourier import fwht
from .linalg import MAX_QUBITS, f2_inner, hadamard_matrix
from .models import CircuitBundle, Restriction, interference_circuit

_FORR_MAX_N = 12


@dataclass(frozen=True)
class ForrelationInstance:
    """k blocks of +/-1 inputs, each of length N = 2^n."""

    k: int
    n: int
    blocks: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"fold count k must be >= 1, got {self.k}")
        if not 1 <= self.n <= _FORR_MAX_N:
            raise ParameterError(f"n must lie in [1, {_FORR_MAX_N}], got {self.n}")
        blocks = np.asarray(self.blocks, dtype=float)
        if blocks.shape != (self.k, 1 << self.n):
            raise ShapeError(
                f"blocks must have shape ({self.k}, {1 << self.n}), got {blocks.shape}"
            )
        if not np.all(np.abs(blocks) == 1.0):
            raise ValidationError("block entries must be +/-1")
        object.__setattr__(self, "blocks", blocks)


def forr(inst: ForrelationInstance) -> float:
    """The amplitude, by statevector evolution with the fast transform."""
    size = 1 << inst.n
    psi = np.zeros(size)
    psi[0] = 1.0
    psi = fwht(psi) / np.sqrt(size)
    for t in range(inst.k - 1, -1, -1):
        psi = inst.blocks[t] * psi
        psi = fwht(psi) / np.sqrt(size)
    return float(psi[0])


def forr_dense(inst: ForrelationInstance) -> float:
    """The amplitude, by dense matrix products (independent of :func:`forr`)."""
    had = hadamard_matrix(inst.n)
    total = had.copy()
    for t in range(inst.k):
        total = total @ (inst.blocks[t][:, None] * had)
    return float(total[0, 0])


class Label(Enum):
    MINUS_ONE = -1
    PLUS_ONE = 1
    GAP = 0


def classify(inst: ForrelationInstance, eps: float) -> Label:
    """Decision rule: -1 when the amplitude is >= 2*eps, +1 when <= eps,
    GAP in between (the promise is violated)."""
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    value = forr(inst)
    if value >= 2 * eps:
        return Label.MINUS_ONE
    if value <= eps:
        return Label.PLUS_ONE
    return Label.GAP


def default_eps(k: int, big_n: int) -> float:
    """(log2 N)^-k; the constant inside the problem's Theta(1/log^k N) is
    fixed to 1 by this artifact."""
    if big_n < 4:
        raise ParameterError(f"N must be >= 4, got {big_n}")
    return float(np.log2(big_n)) ** (-k)


# ---------------------------------------------------------------------------
# trace circuits


@dataclass(frozen=True)
class TraceCircuit:
    """A DQC1 algorithm (with its activating restriction) whose acceptance is
    1/2 + Tr(O_1 H O_2 H ... O_blocks H) / (2 * block_size)."""

    bundle: CircuitBundle
    n: int
    num_blocks: int

    @property
    def spec(self):
        return self.bundle.spec

    @property
    def rho(self) -> Restriction:
        return self.bundle.rho

    @property
    def block_size(self) -> int:
        return 1 << self.n

    def block_coords(self, t: int) -> np.ndarray:
        """Input coordinates of block t (0-based) among the live coordinates."""
        size = self.block_size
        return self.bundle.live_coords[t * size : (t + 1) * size]

    def acceptance(self, blocks: np.ndarray) -> float:
        """Acceptance at the given (num_blocks, block_size) +/-1 inputs."""
        blocks = np.asarray(blocks, dtype=float)
        if blocks.shape != (self.num_blocks, self.block_size):
            raise ShapeError(
                f"expected blocks of shape ({self.num_blocks}, {self.block_size})"
            )
        return self.bundle.live_value(blocks.reshape(-1))

    def trace_value(self, blocks: np.ndarray) -> float:
        """Tr(O_1 H O_2 H ... O_k H), by dense products (the cross-check)."""
        blocks = np.asarray(blocks, dtype=float)
        had = hadamard_matrix(self.n)
        total = np.eye(self.block_size)
        for t in range(self.num_blocks):
            total = total @ (blocks[t][:, None] * had)
        return float(np.trace(total))


def _rotating_circuit(n: int, num_blocks: int) -> TraceCircuit:
    size = 1 << n
    live = num_blocks * size
    had = hadamard_matrix(n)
    step = np.kron(np.eye(num_blocks), had)
    positions = np.arange(live)
    rotated = ((positions // size - 1) % num_blocks) * size + positions % size
    perm = np.zeros((live, live))
    perm[rotated, positions] = 1.0
    gate = perm @ step
    bundle = interference_circuit([gate] * num_blocks)
    return TraceCircuit(bundle, n, num_blocks)


def trace_circuit(k: int, n: int) -> TraceCircuit:
    """DQC1 algorithm over k*N live input bits with acceptance
    1/2 + Tr(O_{x^(1)} H ... O_{x^(k)} H) / (2N)."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not 1 <= n <= MAX_QUBITS:
        raise ParameterError(f"n must lie in [1, {MAX_QUBITS}], got {n}")
    return _rotating_circuit(n, k)


def tightness_circuit(n: int, d: int) -> TraceCircuit:
    """The d-query growth-saturating family over d*N live input bits.

    Its spectrum is supported on subsets picking one index per block, all of
    magnitude 1 / (2N * N^(d/2)), so the level-d growth is N^(d/2 - 1) / 2.
    """
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    if d * (1 << n) > MAX_QUBITS:
        raise ResourceLimitError(
            f"tightness circuit needs a truth table over {d * (1 << n)} bits (cap {MAX_QUBITS})"
        )
    return _rotating_circuit(n, d)


def tightness_coefficient(circuit: TraceCircuit, offsets) -> float:
    """Predicted coefficient at the subset picking block-local offset
    offsets[t] in block t: sign (-1)^(<i_1,i_2> + ... + <i_d,i_1>) over
    2N * N^(d/2)."""
    offsets = list(offsets)
    d = circuit.num_blocks
    size = circuit.block_size
    parity = 0
    for t in range(d):
        parity ^= f2_inner(offsets[t], offsets[(t + 1) % d])
    magnitude = 1.0 / (2 * size * size ** (d / 2))
    return -magnitude if parity else magnitude


def tightness_level_growth(n: int, d: int) -> float:
    """The exact level-d growth attained: N^(d/2 - 1) / 2."""
    size = float(1 << n)
    return size ** (d / 2 - 1) / 2.0


# ---------------------------------------------------------------------------
# instance generators and serialization


def random_instance(k: int, n: int, rng: np.random.Generator) -> ForrelationInstance:
    blocks = rng.choice(np.array([-1.0, 1.0]), size=(k, 1 << n))
    return ForrelationInstance(k, n, blocks)


def forrelated_instance(k: int, n: int, rng: np.random.Generator) -> ForrelationInstance:
    """Demo generator biasing the amplitude upward: the last block is the sign
    pattern of the transformed previous block.  No distributional claim."""
    blocks = rng.choice(np.array([-1.0, 1.0]), size=(k, 1 << n))
    if k >= 2:
        transformed = fwht(blocks[k - 2]) / np.sqrt(1 << n)
        signs = np.where(transformed >= 0, 1.0, -1.0)
        blocks[k - 1] = signs
    return ForrelationInstance(k, n, blocks)


def instance_to_json(inst: ForrelationInstance) -> dict:
    return {"k": inst.k, "n": inst.n, "blocks": inst.blocks.astype(int).tolist()}


def instance_from_json(doc: dict) -> ForrelationInstance:
    return ForrelationInstance(int(doc["k"]), int(doc["n"]), np.asarray(doc["blocks"], float))
