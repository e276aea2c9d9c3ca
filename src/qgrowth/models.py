"""Query algorithms of the three mixed-state models and their acceptance evaluators.

Three models are supported:

* ``BQP``     -- clean all-zeros start, accept on a subset of final outcomes.
* ``DQCK``    -- k clean qubits, the other registers maximally mixed; the start
  set is hard-coded to the noisy basis states with clean register zero.
* ``HALF_BQP`` -- fully mixed start; the initial basis state is revealed after
  the final measurement and acceptance is a predicate on (start, outcome).

All three models share one simulation kernel: gates and phase oracles are
applied to a slab of states grown from the model's start basis states (BQP:
{0}; DQCK: the clean-zero starts; HALF_BQP: every basis state), then an
accept predicate is summed.  A plan cached on the spec folds the first query
into per-coordinate images of gate 1 (one real GEMM of the +/-1 inputs) and
keeps only the accepted rows of the last gate for BQP/DQCK.  Truth tables run
it on chunks of ``max(256, 4096 // S)`` inputs, S the number of starts, and
``acceptance_direct`` is a batch of one.  ``acceptance_formula`` evaluates
the closed-form matrix-product expression for the same quantity and shares
no code with the kernel; the two must agree to 1e-9, which the test suite
certifies.

The oracle is a pure phase on every oracle-register position.  A controlled
oracle is expressed by doubling the oracle register and fixing half of the
input with a restriction (see :func:`interference_circuit`).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import (
    ParameterError,
    ResourceLimitError,
    ShapeError,
    SpecificationError,
    ValidationError,
)
from .linalg import (
    IMAG_TOL,
    MAX_QUBITS,
    IndexSpace,
    hadamard_matrix,
    is_unitary,
    phase_vector,
    random_unitary,
)


class Model(Enum):
    BQP = "BQP"
    DQCK = "DQCK"
    HALF_BQP = "HALF_BQP"


@dataclass(frozen=True)
class Restriction:
    """Partial assignment over the input coordinates.

    ``pattern`` holds -1/+1 for fixed coordinates and 0 for free (star) ones.
    """

    pattern: np.ndarray

    def __post_init__(self):
        pattern = np.asarray(self.pattern, dtype=np.int8)
        if pattern.ndim != 1:
            raise ShapeError("restriction pattern must be one-dimensional")
        if not np.all(np.isin(pattern, (-1, 0, 1))):
            raise ValidationError("restriction entries must be -1, 0 (star) or +1")
        object.__setattr__(self, "pattern", pattern)

    @classmethod
    def all_free(cls, n: int) -> "Restriction":
        return cls(np.zeros(n, dtype=np.int8))

    @classmethod
    def from_string(cls, text: str) -> "Restriction":
        table = {"+": 1, "-": -1, "*": 0}
        try:
            return cls(np.array([table[ch] for ch in text], dtype=np.int8))
        except KeyError as exc:
            raise ValidationError(f"restriction strings use '+-*' only, got {exc}") from exc

    def to_string(self) -> str:
        return "".join({1: "+", -1: "-", 0: "*"}[int(v)] for v in self.pattern)

    def __len__(self) -> int:
        return len(self.pattern)

    @property
    def free_indices(self) -> np.ndarray:
        return np.flatnonzero(self.pattern == 0)

    @property
    def fixed_indices(self) -> np.ndarray:
        return np.flatnonzero(self.pattern != 0)

    def embed_masks(self) -> np.ndarray:
        """Full-coordinate bitmask of every free-coordinate mask, ascending:
        bit j of a free mask moves to the j-th free coordinate."""
        masks = np.arange(1 << self.free_indices.size, dtype=np.int64)
        targets = np.zeros(masks.size, dtype=np.int64)
        for j, coord in enumerate(self.free_indices.tolist()):
            targets |= ((masks >> j) & 1) << coord
        return targets


def restrict(x: np.ndarray, rho: Restriction) -> np.ndarray:
    """Apply a restriction: coordinate i becomes rho_i when fixed, x_i when free."""
    x = np.asarray(x, dtype=float)
    if x.shape != rho.pattern.shape:
        raise ShapeError(f"restrict: length mismatch {x.shape} vs {rho.pattern.shape}")
    return np.where(rho.pattern == 0, x, rho.pattern.astype(float))


@dataclass(frozen=True)
class AlgorithmSpec:
    """One query algorithm: model tag, register space, gates and accepting set.

    ``unitaries`` holds the d+1 gates applied between the d oracle calls.
    ``accept`` is a boolean mask over final outcomes for BQP/DQCK, and a
    boolean (start, outcome) matrix for HALF_BQP.  Both are stored as private
    read-only copies, so the cached kernel plan cannot go stale.
    """

    model: Model
    space: IndexSpace
    d: int
    unitaries: tuple
    accept: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"query count d must be >= 1, got {self.d}")
        m = self.space.total_dim
        gates = tuple(np.array(u, dtype=complex) for u in self.unitaries)
        if len(gates) != self.d + 1:
            raise ValidationError(f"expected {self.d + 1} gates, got {len(gates)}")
        for idx, gate in enumerate(gates):
            if gate.shape != (m, m):
                raise ShapeError(f"gate {idx} has shape {gate.shape}, expected ({m}, {m})")
            if not is_unitary(gate):
                raise ValidationError(f"gate {idx} is not unitary within tolerance")
        if self.model is Model.DQCK:
            if self.space.clean_dim < 2:
                raise ValidationError("DQCK needs at least one clean qubit (clean_dim >= 2)")
        elif self.space.clean_dim != 1:
            raise ValidationError(f"{self.model.value} uses no clean register (clean_dim == 1)")
        accept = np.array(self.accept, dtype=bool)
        want = (m, m) if self.model is Model.HALF_BQP else (m,)
        if accept.shape != want:
            raise ShapeError(f"accept mask has shape {accept.shape}, expected {want}")
        for array in gates + (accept,):
            array.setflags(write=False)
        object.__setattr__(self, "unitaries", gates)
        object.__setattr__(self, "accept", accept)

    @property
    def num_inputs(self) -> int:
        """Length of the +/-1 input vector (the oracle register dimension)."""
        return self.space.oracle_dim

    def start_indices(self) -> np.ndarray:
        """Basis-state starts averaged over by the mixed-start models."""
        m = self.space.total_dim
        k = self.space.clean_dim
        if self.model is Model.DQCK:
            return np.arange(0, m, k)
        if self.model is Model.HALF_BQP:
            return np.arange(m)
        return np.array([0])

    @cached_property
    def _kernel_plan(self) -> tuple:
        """Kernel GEMM operands: gate 1 takes start s to sum_i x_i C[i, s], with
        C[i, s] = U_1[:, block_i] @ U_0[block_i, s] over coordinate i's W*K
        positions; ``fold`` is C as a real (N, 2*S*R) matrix.  ``last`` is the
        transposed last gate, its rows cut to ``accept`` for BQP/DQCK (R =
        |accept|), which C uses when d = 1."""
        n, m = self.num_inputs, self.space.total_dim
        last = self.unitaries[-1][... if self.model is Model.HALF_BQP else self.accept]
        second = last if self.d == 1 else self.unitaries[1]
        first = self.unitaries[0][:, self.start_indices()].reshape(n, m // n, -1)
        fold = (second.reshape(-1, n, m // n).transpose(1, 0, 2) @ first).transpose(0, 2, 1)
        return np.ascontiguousarray(fold).view(float).reshape(n, -1), np.ascontiguousarray(last.T)


def _real(value: complex, what: str, tol: float = IMAG_TOL) -> float:
    if abs(value.imag) > tol:
        raise ValidationError(f"{what} has non-negligible imaginary part {value.imag:g}")
    return float(value.real)


def acceptance_direct(spec: AlgorithmSpec, x: np.ndarray) -> float:
    """Acceptance probability by state-vector simulation, a batch of one."""
    x = np.asarray(x, dtype=float)
    phase_vector(x, spec.space)  # raises ShapeError on a wrong input length
    return float(_table_chunk(spec, x[None, :])[0])


def formula_matrices(spec: AlgorithmSpec) -> list:
    """Bounded-norm matrix arrangement of the closed-form acceptance expression.

    BQP: f = <0| V_1 O V_2 ... O V_{2d+1} |0>.
    DQCK: f = (NW)^{-1} Tr((O V_1)(O V_2)...(O V_{2d})).
    HALF_BQP: f = M^{-1} sum_{a,b} F[a,b] L[a,b] R[b,a] with
        L = V_1 O ... O V_{d+1} and R = V_{d+2} O ... O V_{2d+2}.
    """
    gates = spec.unitaries
    d = spec.d
    if spec.model is Model.BQP:
        proj = np.diag(spec.accept.astype(complex))
        middle = gates[d].conj().T @ proj @ gates[d]
        return (
            [gates[t].conj().T for t in range(d)]
            + [middle]
            + [gates[t] for t in range(d - 1, -1, -1)]
        )
    if spec.model is Model.DQCK:
        start_proj = np.zeros(spec.space.total_dim, dtype=complex)
        start_proj[spec.start_indices()] = 1.0
        first = gates[0] @ (start_proj[:, None] * gates[0].conj().T)
        middle = gates[d].conj().T @ np.diag(spec.accept.astype(complex)) @ gates[d]
        return (
            [first]
            + [gates[t].conj().T for t in range(1, d)]
            + [middle]
            + [gates[t] for t in range(d - 1, 0, -1)]
        )
    return [gates[t].conj().T for t in range(d + 1)] + [gates[t] for t in range(d, -1, -1)]


def acceptance_formula(spec: AlgorithmSpec, x: np.ndarray) -> float:
    """Acceptance probability by the matrix-product expression (not simulation)."""
    phases = phase_vector(x, spec.space)
    vs = formula_matrices(spec)
    m = spec.space.total_dim
    if spec.model is Model.BQP:
        vec = vs[-1][:, 0].copy()
        for mat in vs[-2::-1]:
            vec = mat @ (phases * vec)
        return _real(vec[0], "BQP acceptance formula")
    if spec.model is Model.DQCK:
        chain = np.eye(m, dtype=complex)
        for mat in vs:
            chain = chain @ (phases[:, None] * mat)
        return _real(np.trace(chain) / spec.space.start_dim, "DQCK acceptance formula")
    half = len(vs) // 2
    left = vs[0].copy()
    for mat in vs[1:half]:
        left = left @ (phases[:, None] * mat)
    right = vs[half].copy()
    for mat in vs[half + 1 :]:
        right = right @ (phases[:, None] * mat)
    total = np.einsum("ab,ab,ba->", spec.accept.astype(float), left, right)
    return _real(total / m, "HALF_BQP acceptance formula")


def bias(spec: AlgorithmSpec, x: np.ndarray) -> float:
    """Twice the acceptance probability minus one."""
    return 2.0 * acceptance_direct(spec, x) - 1.0


# ---------------------------------------------------------------------------
# truth tables


def _input_block(masks: np.ndarray, rho: Restriction) -> np.ndarray:
    """Materialize +/-1 inputs for a block of free-coordinate masks."""
    free = rho.free_indices
    base = rho.pattern.astype(float)
    block = np.tile(base, (masks.size, 1))
    if free.size:
        bits = (masks[:, None] >> np.arange(free.size)) & 1
        block[:, free] = np.where(bits == 0, 1.0, -1.0)
    return block


def _table_chunk(spec: AlgorithmSpec, x: np.ndarray) -> np.ndarray:
    """Acceptance probabilities for a (B, N) block of +/-1 inputs.

    Every model runs one gate loop over a (B, S, M) slab, one state per
    (input, start) pair: gate 1 is ``x @ fold``, later gates one GEMM on the
    slab flattened to (B * S, M) (a stacked matmul would make B small ones).
    BQP/DQCK sum the accepted outcomes; HALF_BQP applies its (start, outcome) mask.
    """
    fold, last = spec._kernel_plan
    starts = spec.start_indices()
    b, m = len(x), spec.space.total_dim
    slab = (x @ fold).view(complex).reshape(b, starts.size, -1)
    if spec.d > 1:
        phases = np.repeat(x, m // spec.num_inputs, axis=1)[:, None, :]
        slab *= phases
        for gate in spec.unitaries[2:-1]:
            slab = (slab.reshape(-1, m) @ gate.T).reshape(slab.shape)
            slab *= phases
        slab = slab.reshape(-1, m) @ last
    probs = (np.abs(slab) ** 2).reshape(b, -1)
    if spec.model is Model.HALF_BQP:
        accepted = probs @ spec.accept[starts].reshape(-1)
    else:
        accepted = probs.sum(axis=1)
    return accepted / starts.size


def truth_table(
    spec: AlgorithmSpec,
    rho: Optional[Restriction] = None,
    workers: int = 1,
    chunk: Optional[int] = None,
) -> np.ndarray:
    """Acceptance probability on every input consistent with ``rho``.

    Returns a length 2^F table, F the number of free coordinates; entry at
    mask m has free coordinate j set to -1 iff bit j of m is 1.  The sweep is
    sharded into chunks of ``chunk`` inputs (default ``max(256, 4096 // S)``);
    with ``workers > 1`` they run on at most one thread each and are
    reassembled in index order, so results do not depend on the worker count.
    """
    n = spec.num_inputs
    if rho is None:
        rho = Restriction.all_free(n)
    if len(rho) != n:
        raise ShapeError(f"restriction length {len(rho)} != input length {n}")
    free = rho.free_indices
    if free.size > MAX_QUBITS:
        raise ResourceLimitError(
            f"truth table over {free.size} free coordinates exceeds the 2^{MAX_QUBITS} cap"
        )
    size = 1 << free.size
    chunk = max(256, 4096 // spec.start_indices().size) if chunk is None else chunk
    out = np.empty(size, dtype=float)
    chunks = [(lo, min(lo + chunk, size)) for lo in range(0, size, chunk)]

    def run(bounds):
        lo, hi = bounds
        out[lo:hi] = _table_chunk(spec, _input_block(np.arange(lo, hi, dtype=np.int64), rho))

    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            list(pool.map(run, chunks))
    else:
        for bounds in chunks:
            run(bounds)
    return out


# ---------------------------------------------------------------------------
# clean-qubit reduction


def _log2_exact(value: int, what: str) -> int:
    bits = value.bit_length() - 1
    if value <= 0 or (1 << bits) != value:
        raise ParameterError(f"{what} must be a power of two, got {value}")
    return bits


def reduce_clean_qubits(spec: AlgorithmSpec, t: int) -> AlgorithmSpec:
    """Trade t clean qubits for noisy ones at a 2^-(t+1) bias cost.

    The first t+1 clean qubits of the original algorithm are replaced by
    noisy ones.  A flag qubit (the last remaining clean qubit) is set, via an
    open-controlled Toffoli, exactly when those noisy qubits start all-zero,
    in which case the original algorithm ran on a valid clean state and its
    outcome is used; otherwise a fresh noisy coin qubit decides.  Pointwise
    the output bias is 2^-(t+1) times the input bias.
    """
    if spec.model is not Model.DQCK:
        raise SpecificationError("clean-qubit reduction applies to DQCK algorithms")
    k = _log2_exact(spec.space.clean_dim, "clean register dimension")
    if not 1 <= t < k:
        raise ParameterError(f"need 1 <= t < k (k={k}), got t={t}")

    n_dim = spec.space.oracle_dim
    w_dim = spec.space.work_dim
    k_dim = spec.space.clean_dim
    sim_dim = 1 << (t + 1)              # noisy qubits standing in for clean ones
    crest_dim = k_dim >> (t + 1)        # clean qubits still clean inside the gates
    new_w = w_dim * sim_dim * 2         # (w, sim, coin)
    new_k = crest_dim * 2               # (crest, flag)
    new_space = IndexSpace(n_dim, new_w, new_k)
    m_new = new_space.total_dim

    flat = np.arange(m_new)
    flag = flat % 2
    crest = (flat // 2) % crest_dim
    wprime = (flat // new_k) % new_w
    i_part = flat // (new_k * new_w)
    coin = wprime % 2
    sim = (wprime // 2) % sim_dim
    w_part = wprime // (2 * sim_dim)
    c_orig = sim * crest_dim + crest
    orig = (i_part * w_dim + w_part) * k_dim + c_orig
    pos = (orig * 2 + coin) * 2 + flag

    def embed(gate: np.ndarray) -> np.ndarray:
        wide = np.kron(gate, np.eye(4, dtype=complex))
        return wide[np.ix_(pos, pos)]

    # open-controlled Toffoli: flag ^= [sim register all-zero]
    prep_target = np.where(sim == 0, flat ^ 1, flat)
    prep = np.zeros((m_new, m_new), dtype=complex)
    prep[prep_target, flat] = 1.0

    gates = [embed(spec.unitaries[0]) @ prep]
    gates += [embed(g) for g in spec.unitaries[1:]]

    accept = np.where(flag == 1, spec.accept[orig], coin == 1)
    return AlgorithmSpec(spec.model, new_space, spec.d, tuple(gates), accept)


# ---------------------------------------------------------------------------
# hybrid (classical pre-processing) algorithms


class Leaf(NamedTuple):
    key: str


class Query(NamedTuple):
    coord: int
    plus: Union["Query", Leaf]
    minus: Union["Query", Leaf]


TreeNode = Union[Query, Leaf]


@dataclass(frozen=True)
class HybridSpec:
    """Classical decision tree whose leaves each run a quantum algorithm."""

    tree: TreeNode
    leaf_algorithms: dict

    def __post_init__(self):
        specs = list(self.leaf_algorithms.values())
        if not specs:
            raise SpecificationError("hybrid needs at least one leaf algorithm")
        ref = specs[0]
        for other in specs[1:]:
            if other.model is not ref.model or other.space != ref.space or other.d != ref.d:
                raise SpecificationError("leaf algorithms must share model, space and d")
        for key, path in self.leaf_paths():
            if key not in self.leaf_algorithms:
                raise SpecificationError(f"tree leaf {key!r} has no algorithm")
            coords = [c for c, _ in path]
            if len(coords) != len(set(coords)):
                raise SpecificationError("a root-to-leaf path queries a coordinate twice")

    @property
    def space(self) -> IndexSpace:
        return next(iter(self.leaf_algorithms.values())).space

    @property
    def d(self) -> int:
        return next(iter(self.leaf_algorithms.values())).d

    @property
    def depth(self) -> int:
        return max(len(path) for _, path in self.leaf_paths())

    def leaf_paths(self):
        """Yield (leaf key, [(coord, sign), ...]) for every root-to-leaf path."""
        stack = [(self.tree, [])]
        while stack:
            node, path = stack.pop()
            if isinstance(node, Leaf):
                yield node.key, path
            else:
                stack.append((node.plus, path + [(node.coord, 1)]))
                stack.append((node.minus, path + [(node.coord, -1)]))


def acceptance_hybrid(hybrid: HybridSpec, x: np.ndarray) -> float:
    """Walk the classical tree on x, then run the selected leaf algorithm on x."""
    x = np.asarray(x, dtype=float)
    node = hybrid.tree
    while isinstance(node, Query):
        node = node.plus if x[node.coord] > 0 else node.minus
    try:
        leaf_spec = hybrid.leaf_algorithms[node.key]
    except KeyError as exc:
        raise SpecificationError(f"no algorithm for leaf {node.key!r}") from exc
    return acceptance_direct(leaf_spec, x)


def hybrid_truth_table(hybrid: HybridSpec, workers: int = 1) -> np.ndarray:
    """Full acceptance table of the hybrid over all 2^N inputs.

    Each root-to-leaf path becomes a restriction; the leaf algorithm runs only
    on the inputs that path selects, so every input is simulated once.
    """
    n = hybrid.space.oracle_dim
    if n > MAX_QUBITS:
        raise ResourceLimitError(f"truth table over {n} coordinates exceeds cap")
    out = np.empty(1 << n, dtype=float)
    for key, path in hybrid.leaf_paths():
        pattern = np.zeros(n, dtype=np.int8)
        minus = 0
        for coord, sign in path:
            pattern[coord] = sign
            minus |= (sign < 0) << coord
        rho = Restriction(pattern)
        out[rho.embed_masks() | minus] = truth_table(
            hybrid.leaf_algorithms[key], rho, workers=workers
        )
    return out


# ---------------------------------------------------------------------------
# interference circuits (doubled-register controlled oracle)


@dataclass(frozen=True)
class CircuitBundle:
    """An algorithm together with the restriction that activates it."""

    spec: AlgorithmSpec
    rho: Restriction
    live_coords: np.ndarray    # input coordinates carrying the actual function input

    def live_value(self, x_live: np.ndarray) -> float:
        """Acceptance at a +/-1 assignment of the live coordinates."""
        x = restrict(np.ones(self.spec.num_inputs), self.rho)
        x[self.live_coords] = np.asarray(x_live, dtype=float)
        return acceptance_direct(self.spec, x)


def _swap_clean_control(reg_dim: int) -> np.ndarray:
    """Permutation swapping the clean qubit with the control half-bit of the register."""
    half = reg_dim // 2
    m = reg_dim * 2
    flat = np.arange(m)
    q = flat % 2
    pos = (flat // 2) % half
    c = flat // (2 * half)
    target = ((q * half + pos) * 2) + c
    mat = np.zeros((m, m))
    mat[target, flat] = 1.0
    return mat.astype(complex)


def interference_circuit(round_gates: list) -> CircuitBundle:
    """Single-clean-qubit interference tester for a sequence of L x L gates.

    Builds a DQC1 algorithm over a doubled oracle register of dimension 2L
    (control half + live half) plus one clean qubit.  With the bundled
    restriction fixing the control-off half of the input to +1, the
    acceptance probability is exactly

        1/2 + (1/2L) * Re Tr(G_d O G_{d-1} O ... G_1 O)

    where O is the diagonal of the live input half and G_r the round gates.
    """
    if not round_gates:
        raise SpecificationError("interference circuit needs at least one round gate")
    gates = [np.asarray(g, dtype=complex) for g in round_gates]
    live = gates[0].shape[0]
    for g in gates:
        if g.shape != (live, live):
            raise ShapeError("round gates must share one square shape")
    reg = 2 * live
    space = IndexSpace(reg, 1, 2)
    m = space.total_dim
    d = len(gates)

    swap = _swap_clean_control(reg)
    h_clean = np.kron(np.eye(reg), hadamard_matrix(1)).astype(complex)

    def controlled(gate: np.ndarray) -> np.ndarray:
        on_register = np.zeros((reg, reg), dtype=complex)
        on_register[:live, :live] = np.eye(live)
        on_register[live:, live:] = gate
        return np.kron(on_register, np.eye(2))

    unitaries = [swap @ h_clean]
    unitaries += [controlled(g) for g in gates[:-1]]
    unitaries.append(h_clean @ swap @ controlled(gates[-1]))

    accept = (np.arange(m) % 2) == 0      # clean qubit measured |0>
    spec = AlgorithmSpec(Model.DQCK, space, d, tuple(unitaries), accept)
    pattern = np.concatenate([np.ones(live, dtype=np.int8), np.zeros(live, dtype=np.int8)])
    rho = Restriction(pattern)
    return CircuitBundle(spec, rho, np.arange(live, reg))


# ---------------------------------------------------------------------------
# random instances

def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def random_spec(model: Model, space: IndexSpace, d: int, rng: np.random.Generator) -> AlgorithmSpec:
    """Random algorithm: independent Haar gates and a fair random accepting set."""
    m = space.total_dim
    gates = tuple(random_unitary(m, _child_seed(rng)) for _ in range(d + 1))
    if model is Model.HALF_BQP:
        accept = rng.random((m, m)) < 0.5
    else:
        accept = rng.random(m) < 0.5
    return AlgorithmSpec(model, space, d, gates, accept)


def random_restriction(n: int, rng: np.random.Generator, star_prob: float = 0.5) -> Restriction:
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    stars = rng.random(n) < star_prob
    return Restriction(np.where(stars, np.int8(0), signs))


def random_hybrid(
    model: Model,
    space: IndexSpace,
    d: int,
    rng: np.random.Generator,
    depth: Optional[int] = None,
) -> HybridSpec:
    """Random decision tree of the given depth with random leaf algorithms."""
    depth = d if depth is None else depth
    if depth < 0 or depth > d:
        raise ParameterError("hybrid tree depth must lie in [0, d]")
    leaves: dict = {}

    def build(level: int, used: tuple) -> TreeNode:
        if level == 0:
            key = f"leaf{len(leaves)}"
            leaves[key] = random_spec(model, space, d, rng)
            return Leaf(key)
        available = [c for c in range(space.oracle_dim) if c not in used]
        coord = int(rng.choice(available))
        return Query(coord, build(level - 1, used + (coord,)), build(level - 1, used + (coord,)))

    tree = build(depth, ())
    return HybridSpec(tree, leaves)


# ---------------------------------------------------------------------------
# JSON interface


def _gate_from_json(doc: dict, m: int) -> np.ndarray:
    kind = doc.get("kind")
    if kind == "identity":
        return np.eye(m, dtype=complex)
    if kind == "hadamard":
        bits = _log2_exact(m, "register dimension for a hadamard gate")
        return hadamard_matrix(bits).astype(complex)
    if kind == "haar":
        if "seed" not in doc:
            raise SpecificationError("haar gate needs a 'seed'")
        return random_unitary(m, int(doc["seed"]))
    if kind == "explicit":
        rows = doc["rows"]
        mat = np.array([[complex(re, im) for re, im in row] for row in rows])
        if mat.shape != (m, m):
            raise ShapeError(f"explicit gate has shape {mat.shape}, expected ({m}, {m})")
        return mat
    raise SpecificationError(f"unknown gate kind {kind!r}")


def spec_from_json(doc: dict):
    """Parse an algorithm-spec document; returns (AlgorithmSpec, Restriction or None).

    Accepting sets use zero-based outcome indices in [0, M).
    """
    if not isinstance(doc, dict):
        raise SpecificationError("spec document must be a JSON object")
    missing = [key for key in ("model", "n", "d", "unitaries", "accept") if key not in doc]
    if missing:
        raise SpecificationError(f"spec document lacks required keys: {', '.join(missing)}")
    model = Model(doc["model"].upper().replace("-", "_"))
    for key in ("n", "w", "k", "d"):
        value, low = doc.get(key, 0), int(key in "nd")
        if type(value) is not int or value < low:  # JSON 1.7 and true are no sizes
            raise ParameterError(f"spec {key!r} must be an integer >= {low}, got {value!r}")
    space = IndexSpace.qubits(doc["n"], doc.get("w", 0), doc.get("k", 0))
    m = space.total_dim
    gates = tuple(_gate_from_json(g, m) for g in doc["unitaries"])
    if model is Model.HALF_BQP:
        accept = np.asarray(doc["accept"], dtype=float) > 0.5
    else:
        outcomes = list(doc["accept"])
        if not all(type(v) is int and 0 <= v < m for v in outcomes):  # JSON true is no index
            raise ParameterError(f"accept entries must be integers in [0, {m})")
        accept = np.zeros(m, dtype=bool)
        accept[outcomes] = True
    spec = AlgorithmSpec(model, space, doc["d"], gates, accept)
    rho = None
    if doc.get("restriction"):
        rho = Restriction.from_string(doc["restriction"])
        if len(rho) != space.oracle_dim:
            raise ShapeError("restriction length must match the oracle register dimension")
    return spec, rho


def spec_to_json(spec: AlgorithmSpec, rho: Optional[Restriction] = None) -> dict:
    """Serialize with explicit gate entries (loses nothing, gains portability)."""
    doc = {
        "model": spec.model.value,
        "n": _log2_exact(spec.space.oracle_dim, "oracle dimension"),
        "w": _log2_exact(spec.space.work_dim, "workspace dimension"),
        "k": _log2_exact(spec.space.clean_dim, "clean dimension"),
        "d": spec.d,
        "unitaries": [
            {
                "kind": "explicit",
                "rows": [[[float(v.real), float(v.imag)] for v in row] for row in gate],
            }
            for gate in spec.unitaries
        ],
    }
    if spec.model is Model.HALF_BQP:
        doc["accept"] = spec.accept.astype(int).tolist()
    else:
        doc["accept"] = np.flatnonzero(spec.accept).tolist()
    if rho is not None:
        doc["restriction"] = rho.to_string()
    return doc


def load_spec(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return spec_from_json(json.load(handle))
