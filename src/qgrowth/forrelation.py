"""The k-fold Hadamard/phase amplitude, its decision problem, and the
single-clean-qubit trace circuits that realize it at desk scale.

``forr`` evaluates the amplitude <0..0| H O_1 H O_2 ... H O_k H |0..0> two
independent ways (fast-transform statevector vs a row vector times dense H).
``tightness_circuit(n, d)`` builds the trace circuits: one-clean-qubit (DQC1)
trace estimators over d blocks of N = 2^n live bits whose acceptance
probability is 1/2 + Tr(O_1 H O_2 H ... O_d H) / (2N).  As a family they attain
the level-d growth ceiling exactly.  The oracle is a pure phase, so each
circuit controls it by doubling the oracle register and fixing the control-off
half of the input to +1 with its restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .errors import ResourceLimitError
from .fourier import FourierSpectrum, fwht
from .linalg import MAX_QUBITS, IndexSpace, check_table_size, f2_inner, hadamard_matrix
from .models import AlgorithmSpec, Model, Restriction, acceptance_direct

FORR_MAX_N = 12


def check_instance_size(k: int, n: int) -> None:
    """Refuse k blocks of N = 2^n entries outside the ranges, or above 2^MAX_QUBITS entries."""
    if k < 1:
        raise ValueError(f"fold count k must be >= 1, got {k}")
    if not 1 <= n <= FORR_MAX_N:
        raise ValueError(f"n must lie in [1, {FORR_MAX_N}], got {n}")
    if k << n > 1 << MAX_QUBITS:
        raise ResourceLimitError(f"instance of {k} blocks of N = 2^{n} needs {k} * 2^{n} "
                                 f"entries, above the 2^{MAX_QUBITS} cap")


@dataclass(frozen=True)
class ForrelationInstance:
    """k blocks of +/-1 inputs, each of length N = 2^n."""

    k: int
    n: int
    blocks: np.ndarray

    def __post_init__(self):
        check_instance_size(self.k, self.n)
        blocks = np.asarray(self.blocks, dtype=float)
        if blocks.shape != (self.k, 1 << self.n):
            raise ValueError(
                f"blocks must have shape ({self.k}, {1 << self.n}), got {blocks.shape}"
            )
        if not np.all(np.abs(blocks) == 1.0):
            raise ValueError("block entries must be +/-1")
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
    """The amplitude, independent of :func:`forr`: row 0 of the dense Hadamard H, then
    ``row = (row * B_t) @ H`` for t = 1..k, entry 0.  O(k N^2), one N x N matrix live."""
    had = hadamard_matrix(inst.n)
    row = had[0]
    for t in range(inst.k):
        row = (row * inst.blocks[t]) @ had
    return float(row[0])


class Label(Enum):
    MINUS_ONE = -1
    PLUS_ONE = 1
    GAP = 0


def classify(value: float, eps: float) -> Label:
    """Decision rule on an amplitude ``value``: -1 when it is >= 2*eps, +1 when
    <= eps, GAP in between (the promise is violated)."""
    if not eps > 0:  # NaN included
        raise ValueError(f"eps must be positive, got {eps}")
    if value >= 2 * eps:
        return Label.MINUS_ONE
    if value <= eps:
        return Label.PLUS_ONE
    return Label.GAP


def default_eps(k: int, big_n: int) -> float:
    """(log2 N)^-k; the constant inside the problem's Theta(1/log^k N) is
    fixed to 1 by this artifact."""
    if big_n < 4:
        raise ValueError(f"N must be >= 4, got {big_n}")
    return float(np.log2(big_n)) ** (-k)


# ---------------------------------------------------------------------------
# trace circuits


@dataclass(frozen=True)
class TraceCircuit:
    """A DQC1 algorithm over 2*d*N input bits and the restriction fixing the
    lower (control-off) half to +1.  Its acceptance at the block-major live
    input ``blocks.reshape(-1)`` on the upper half is
    1/2 + Tr(O_1 H O_2 H ... O_blocks H) / (2 * block_size)."""

    spec: AlgorithmSpec
    rho: Restriction
    n: int
    num_blocks: int

    @property
    def block_size(self) -> int:
        return 1 << self.n

    def live_value(self, x_live: np.ndarray) -> float:
        """Acceptance at a +/-1 assignment of the live (upper-half) coordinates."""
        x = np.ones(self.spec.num_inputs)
        x[x.size // 2 :] = x_live
        return acceptance_direct(self.spec, x)

    def trace_value(self, blocks: np.ndarray) -> float:
        """Tr(O_1 H O_2 H ... O_k H), by dense products (the cross-check)."""
        blocks = np.asarray(blocks, dtype=float)
        had = hadamard_matrix(self.n)
        total = np.eye(self.block_size)
        for t in range(self.num_blocks):
            total = total @ (blocks[t][:, None] * had)
        return float(np.trace(total))


def tightness_circuit(n: int, d: int) -> TraceCircuit:
    """The d-query trace circuit over d*N live input bits, N = 2^n.

    Register index ``flat = 2 * i + clean`` over oracle coordinates
    i < 2 * live, with control bit ``i // live``.  Gate 0 puts the clean qubit
    in |+> and swaps it into the control bit; each round applies H to every
    block and moves block t to block t - 1 where the control is on; the last
    gate swaps back and applies H to the clean qubit, which accepts on 0.  So
    the acceptance is 1/2 + Tr(O_1 H ... O_d H) / (2N).  Its spectrum is
    supported on subsets picking one index per block, all of magnitude
    1 / (2N * N^(d/2)), so the level-d growth is N^(d/2 - 1) / 2.
    """
    if n < 1 or d < 1:
        raise ValueError(f"n and d must be >= 1, got n={n}, d={d}")
    if n > MAX_QUBITS:  # d * 2^n would take too many digits to print
        raise ResourceLimitError(f"truth table over {d} * 2^{n} coordinates needs "
                                 f"2^({d} * 2^{n}) entries, above the 2^{MAX_QUBITS} cap")
    check_table_size(d * (1 << n))
    size = 1 << n
    live = d * size
    reg = 2 * live
    coord, flat = np.arange(live), np.arange(2 * reg)
    step = np.kron(np.eye(d), hadamard_matrix(n))
    gate = step[((coord // size + 1) % d) * size + coord % size]
    on_control = np.eye(reg)  # the identity with the control bit off, gate with it on
    on_control[live:, live:] = gate
    controlled = np.kron(on_control, np.eye(2))
    h_clean = np.kron(np.eye(reg), hadamard_matrix(1))
    swap = flat + (flat % 2 - flat // reg) * (reg - 1)  # clean bit <-> control bit
    gates = (h_clean[swap],) + (controlled,) * (d - 1) + (h_clean @ controlled[swap],)
    spec = AlgorithmSpec(Model.DQCK, IndexSpace(reg, 1, 2), d, gates, flat % 2 == 0)
    return TraceCircuit(spec, Restriction(np.repeat([1, 0], live)), n, d)


def tightness_spectrum(circuit: TraceCircuit) -> FourierSpectrum:
    """Predicted spectrum over the d*N live bits, bit t*N + i being offset i of block t: 1/2
    at the empty set, (-1)^(<i_1,i_2> + ... + <i_d,i_1>) / (2N * N^(d/2)) at the set picking
    offset i_t in each block t, and 0 everywhere else."""
    d, size = circuit.num_blocks, circuit.block_size
    picks = np.indices((size,) * d).reshape(d, -1)  # row t: block t's offset, one column a set
    parity = np.bitwise_xor.reduce(f2_inner(picks, np.roll(picks, -1, axis=0)), axis=0)
    masks = (1 << (np.arange(d)[:, None] * size + picks)).sum(axis=0)
    magnitude = 1.0 / (2 * size * size ** (d / 2))
    coeffs = np.zeros(1 << (d * size))
    coeffs[0] = 0.5
    coeffs[masks] = np.where(parity, -magnitude, magnitude)
    return FourierSpectrum(d * size, coeffs)


def tightness_level_growth(n: int, d: int) -> float:
    """The exact level-d growth attained: N^(d/2 - 1) / 2."""
    size = float(1 << n)
    return size ** (d / 2 - 1) / 2.0


# ---------------------------------------------------------------------------
# instance generators


def random_instance(k: int, n: int, rng: np.random.Generator) -> ForrelationInstance:
    check_instance_size(k, n)  # before the draw: n = 40 would ask for 16 TiB
    blocks = rng.choice(np.array([-1.0, 1.0]), size=(k, 1 << n))
    return ForrelationInstance(k, n, blocks)


def forrelated_instance(k: int, n: int, rng: np.random.Generator) -> ForrelationInstance:
    """Demo generator biasing the amplitude upward: the last block is the sign
    pattern of the transformed previous block.  No distributional claim."""
    blocks = random_instance(k, n, rng).blocks
    if k >= 2:
        transformed = fwht(blocks[k - 2]) / np.sqrt(1 << n)
        blocks[k - 1] = np.where(transformed >= 0, 1.0, -1.0)
    return ForrelationInstance(k, n, blocks)
