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
keeps only the accepted rows of the last gate for BQP/DQCK; a plan above
``linalg.MEMORY_BUDGET`` bytes is refused before it is formed.  Truth tables run
it on chunks of B inputs, B the largest power of two in [4, 1024] with
B * S * M <= 2^16 for S starts and M amplitudes (a complex slab of at most
``linalg.SLICE_BYTES``, 1 MiB, per worker unless 4 rows exceed it), and
``acceptance_direct`` is a batch of one.  ``acceptance_formula`` evaluates the closed-form
matrix-product expression for the same quantity and shares no code with the
kernel; the two must agree to 1e-9, which the test suite certifies.  The
closed forms differ only by whether the start is revealed: BQP and DQCK
share one trace form over their start set (BQP's is {0}), and HALF_BQP,
whose start is revealed, has a bilinear form.

The oracle is a pure phase, so O_{-x} = -O_x and every final state only picks
up a global (-1)^d: every model's acceptance is even, f(-x) = f(x).  A truth
table that fixes no coordinate therefore simulates only the inputs whose last
coordinate is +1 and mirrors them onto the rest.

The oracle is a pure phase on every oracle-register position.  A controlled
oracle is expressed by doubling the oracle register and fixing half of the
input with a restriction (see :func:`qgrowth.forrelation.tightness_circuit`).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional, Union

import numpy as np

from . import linalg
from .linalg import (
    IMAG_TOL,
    IndexSpace,
    check_cost,
    check_table_size,
    hadamard_matrix,
    is_unitary,
    oracle_input,
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
        pattern = np.asarray(self.pattern)  # checked before the int8 cast, which would wrap 257
        if pattern.ndim != 1:
            raise ValueError("restriction pattern must be one-dimensional")
        if not np.all(np.isin(pattern, (-1, 0, 1))):
            raise ValueError("restriction entries must be -1, 0 (star) or +1")
        object.__setattr__(self, "pattern", pattern.astype(np.int8))

    @classmethod
    def all_free(cls, n: int) -> "Restriction":
        return cls(np.zeros(n, dtype=np.int8))

    @classmethod
    def from_string(cls, text: str) -> "Restriction":
        table = {"+": 1, "-": -1, "*": 0}
        try:
            return cls(np.array([table[ch] for ch in text], dtype=np.int8))
        except KeyError as exc:
            raise ValueError(f"restriction strings use '+-*' only, got {exc}") from exc

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


@dataclass(frozen=True)
class AlgorithmSpec:
    """One query algorithm: model tag, register space, gates and accepting set.

    ``unitaries`` holds the d+1 gates applied between the d oracle calls.
    ``accept`` is a boolean mask over final outcomes for BQP/DQCK, and a
    boolean (start, outcome) matrix for HALF_BQP.  Both are stored as private
    read-only copies, so the cached kernel plan and formula matrices cannot
    go stale.
    """

    model: Model
    space: IndexSpace
    d: int
    unitaries: tuple
    accept: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"query count d must be >= 1, got {self.d}")
        m = self.space.total_dim
        gates = tuple(np.array(u, dtype=complex) for u in self.unitaries)
        if len(gates) != self.d + 1:
            raise ValueError(f"expected {self.d + 1} gates, got {len(gates)}")
        for idx, gate in enumerate(gates):
            if gate.shape != (m, m):
                raise ValueError(f"gate {idx} has shape {gate.shape}, expected ({m}, {m})")
            if not is_unitary(gate):
                raise ValueError(f"gate {idx} is not unitary within tolerance")
        if self.model is Model.DQCK:
            if self.space.clean_dim < 2:
                raise ValueError("DQCK needs at least one clean qubit (clean_dim >= 2)")
        elif self.space.clean_dim != 1:
            raise ValueError(f"{self.model.value} uses no clean register (clean_dim == 1)")
        accept = np.array(self.accept, dtype=bool)
        want = (m, m) if self.model is Model.HALF_BQP else (m,)
        if accept.shape != want:
            raise ValueError(f"accept mask has shape {accept.shape}, expected {want}")
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

    def restriction(self, rho: Optional[Restriction]) -> Restriction:
        """``rho`` checked against the input length; None means every coordinate free."""
        n = self.num_inputs
        if rho is None:
            return Restriction.all_free(n)
        if len(rho) != n:
            raise ValueError(f"restriction length {len(rho)} != input length {n}")
        return rho

    @cached_property
    def _kernel_plan(self) -> tuple:
        """Kernel operands (fold, last, S, accept): gate 1 takes start s to
        sum_i x_i C[i, s], with C[i, s] = U_1[:, block_i] @ U_0[block_i, s] over
        coordinate i's W*K positions; ``fold`` is C as a real (N, 2*S*R) matrix.
        ``last`` is the transposed last gate, its rows cut to ``accept`` for
        BQP/DQCK (R = |accept|), which C uses when d = 1.  S is the start count;
        ``accept`` is HALF_BQP's (start, outcome) mask as one float row, None
        for BQP/DQCK, which sum every kept outcome.  A fold above
        ``linalg.MEMORY_BUDGET`` bytes is refused before it is formed."""
        n, m = self.num_inputs, self.space.total_dim
        starts = self.start_indices()
        kept = m if self.model is Model.HALF_BQP or self.d > 1 else int(self.accept.sum())
        need = 16 * n * starts.size * kept
        check_cost("kernel plan", need)
        last = self.unitaries[-1][... if self.model is Model.HALF_BQP else self.accept]
        second = last if self.d == 1 else self.unitaries[1]
        second = second.reshape(-1, n, m // n).transpose(1, 0, 2)
        first = self.unitaries[0][:, starts].reshape(n, m // n, -1)
        fold = np.empty((n, starts.size, kept), dtype=complex)
        step = max(1, linalg.SLICE_BYTES // max(1, need // n))  # slices, not a second whole fold
        for lo in range(0, n, step):
            fold[lo:lo + step] = (second[lo:lo + step] @ first[lo:lo + step]).transpose(0, 2, 1)
        accept = self.accept.reshape(-1).astype(float) if self.model is Model.HALF_BQP else None
        return fold.view(float).reshape(n, -1), np.ascontiguousarray(last.T), starts.size, accept

    @cached_property
    def formula_matrices(self) -> tuple:
        """Bounded-norm matrix arrangement of the closed-form acceptance expression.

        BQP, DQCK: f = |S|^{-1} Tr((O V_1)(O V_2)...(O V_{2d})), the trace form
            with V_1 = U_0 Pi_S U_0^dagger over the start set S (BQP: S = {0}).
        HALF_BQP: f = M^{-1} sum_{a,b} F[a,b] L[a,b] R[b,a] with
            L = V_1 O ... O V_{d+1} and R = V_{d+2} O ... O V_{2d+2}.

        Built once per spec and cached on it as a tuple of read-only arrays.
        """
        gates = self.unitaries
        d = self.d
        if self.model is Model.HALF_BQP:
            mats = [gates[t].conj().T for t in range(d + 1)] + [
                gates[t] for t in range(d, -1, -1)
            ]
        else:
            start_proj = np.zeros(self.space.total_dim, dtype=complex)
            start_proj[self.start_indices()] = 1.0
            first = gates[0] @ (start_proj[:, None] * gates[0].conj().T)
            middle = (gates[d].conj().T * self.accept) @ gates[d]
            mats = (
                [first]
                + [gates[t].conj().T for t in range(1, d)]
                + [middle]
                + [gates[t] for t in range(d - 1, 0, -1)]
            )
        for mat in mats:
            mat.setflags(write=False)
        return tuple(mats)

    @cached_property
    def _formula_weights(self) -> np.ndarray:
        """What :func:`acceptance_formula` reads besides :attr:`formula_matrices`:
        the start rows U_0[:, S]^dagger of the trace form (BQP/DQCK), or the
        (start, outcome) mask as floats (HALF_BQP).  Read-only."""
        if self.model is Model.HALF_BQP:
            weights = self.accept.astype(float)
        else:
            weights = self.unitaries[0].take(self.start_indices(), axis=1).conj().T
        weights.setflags(write=False)
        return weights

    def restricted_chain(self, rho: Optional[Restriction]):
        """:attr:`formula_matrices` relabeled free-first, with ``rho``'s fixed signs baked in.

        The oracle coordinates are relabeled so the free ones come first
        (ascending each).  Returns (matrices, free_count, skip, old_of_new):
        positions in ``skip`` (zero-based within the matrix list) contribute no
        input phase, and ``old_of_new[new_flat]`` is the original composite index.
        """
        rho = self.restriction(rho)
        order = np.concatenate([rho.free_indices, rho.fixed_indices])
        wk = self.space.work_dim * self.space.clean_dim
        flats = np.arange(self.space.total_dim)
        old_of_new = order[flats // wk] * wk + flats % wk
        vs = [mat[np.ix_(old_of_new, old_of_new)] for mat in self.formula_matrices]
        damp = np.where(rho.pattern == 0, 1, rho.pattern).astype(float)[old_of_new // wk]
        skip = {0, self.d + 1} if self.model is Model.HALF_BQP else set()
        vs = [mat if t in skip else damp[:, None] * mat for t, mat in enumerate(vs)]
        return vs, int(rho.free_indices.size), skip, old_of_new


def _real(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(f"{what} has non-negligible imaginary part {value.imag:g}")
    return float(value.real)


def acceptance_direct(spec: AlgorithmSpec, x: np.ndarray) -> float:
    """Acceptance probability by state-vector simulation, a batch of one."""
    x = oracle_input(x, spec.space)
    return float(_table_chunk(spec, x[None, :])[0])


def acceptance_formula(spec: AlgorithmSpec, x: np.ndarray) -> float:
    """Acceptance probability by the matrix-product expression (not simulation)."""
    phases = phase_vector(x, spec.space)
    vs = spec.formula_matrices
    if spec.model is not Model.HALF_BQP:
        # Tr(O V_1 O V_2 ... O V_2d) with V_1 = A A^dagger, A = U_0[:, S], is
        # Tr(A^dagger O V_2 ... O V_2d O A): |S| rows, never an M x M product
        adjoint = spec._formula_weights
        rows = adjoint * phases
        for mat in vs[1:]:
            rows = (rows @ mat) * phases
        total = np.vdot(adjoint, rows) / len(adjoint)
        return _real(total, f"{spec.model.value} acceptance formula")
    half = len(vs) // 2
    left = vs[0]
    for mat in vs[1:half]:
        left = left @ (phases[:, None] * mat)
    right = vs[half]
    for mat in vs[half + 1 :]:
        right = right @ (phases[:, None] * mat)
    total = np.einsum("ab,ab,ba->", spec._formula_weights, left, right)
    return _real(total / spec.space.total_dim, "HALF_BQP acceptance formula")


def bias(spec: AlgorithmSpec, x: np.ndarray) -> float:
    """Twice the acceptance probability minus one."""
    return 2.0 * acceptance_direct(spec, x) - 1.0


# ---------------------------------------------------------------------------
# truth tables


def _table_chunk(spec: AlgorithmSpec, x: np.ndarray) -> np.ndarray:
    """Acceptance probabilities for a (B, N) block of +/-1 inputs.

    Every model runs one gate loop over a (B, S, M) slab, one state per
    (input, start) pair: gate 1 is ``x @ fold``, later gates one GEMM on the
    slab flattened to (B * S, M) (a stacked matmul would make B small ones),
    and each oracle multiplies it by the phase row: ``x`` when M = N, else
    ``x`` repeated M/N times (coordinate i owns M/N consecutive positions).
    BQP/DQCK sum the accepted outcomes; HALF_BQP applies its (start, outcome) mask.
    """
    fold, last, starts, accept = spec._kernel_plan
    b, m = len(x), spec.space.total_dim
    slab = (x @ fold).view(complex).reshape(b, starts, -1)
    if spec.d > 1:
        per = m // spec.num_inputs
        phases = (x if per == 1 else np.repeat(x, per, axis=1))[:, None, :]
        slab *= phases
        for gate in spec.unitaries[2:-1]:
            slab = (slab.reshape(-1, m) @ gate.T).reshape(slab.shape)
            slab *= phases
        slab = slab.reshape(-1, m) @ last
    probs = (np.abs(slab) ** 2).reshape(b, -1)
    accepted = probs.sum(axis=1) if accept is None else probs @ accept
    return accepted / starts


def truth_table(
    spec: AlgorithmSpec,
    rho: Optional[Restriction] = None,
    workers: int = 1,
) -> np.ndarray:
    """Acceptance probability on every input consistent with ``rho``.

    Returns a length 2^F table, F the number of free coordinates; entry at
    mask m has free coordinate j set to -1 iff bit j of m is 1.  When ``rho``
    fixes no coordinate, only the masks below 2^(F-1) (last coordinate +1) are
    simulated: mask 2^F-1-m is -x of mask m, and f(-x) = f(x) because x -> -x
    multiplies every final state by (-1)^d.  The swept inputs are built once,
    as int8 rows (2^F' x N bytes for F' swept bits), and sharded into chunks of
    B rows, each converted to float: B is the largest power of two in [4, 1024]
    with B * S * M * 16 <= ``linalg.SLICE_BYTES``, for S start states and
    register dimension M, so a worker's (B, S, M) complex slab stays within
    1 MiB while S * M <= 2^14.  The kernel plan, with its guard, is read before
    the inputs are built.  With ``workers > 1`` the chunks run on
    w = min(workers, chunk count, CPU count) threads and are reassembled in
    index order, so results do not depend on the worker count.  Each of the
    w pool threads gets one task that runs every w-th chunk.
    """
    n = spec.num_inputs
    rho = spec.restriction(rho)
    free = rho.free_indices.size
    check_table_size(free)
    size = 1 << free
    swept = size // 2 if 0 < free == n else size
    per_row = spec._kernel_plan[2] * spec.space.total_dim  # S * M slab entries per input
    chunk = 1 << min(10, max(2, (linalg.SLICE_BYTES // 16 // per_row).bit_length() - 1))
    out = np.empty(size, dtype=float)
    chunks = [(lo, min(lo + chunk, swept)) for lo in range(0, swept, chunk)]
    rows = np.tile(np.where(rho.pattern == 0, 1, rho.pattern).astype(np.int8), (swept, 1))
    for j, coord in enumerate(rho.free_indices[: swept.bit_length() - 1].tolist()):
        rows.reshape(-1, 2 << j, n)[:, 1 << j :, coord] = -1  # masks with bit j set

    def run(shard):
        for lo, hi in shard:
            out[lo:hi] = _table_chunk(spec, rows[lo:hi].astype(float))

    pool_size = min(workers, len(chunks), os.cpu_count() or 1)
    if pool_size > 1:
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            list(pool.map(run, [chunks[i::pool_size] for i in range(pool_size)]))
    else:
        run(chunks)
    out[swept:] = out[: size - swept][::-1]  # empty when rho fixes a coordinate
    return out


# ---------------------------------------------------------------------------
# clean-qubit reduction


def _log2_exact(value: int, what: str) -> int:
    bits = value.bit_length() - 1
    if value <= 0 or (1 << bits) != value:
        raise ValueError(f"{what} must be a power of two, got {value}")
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
        raise ValueError("clean-qubit reduction applies to DQCK algorithms")
    k = _log2_exact(spec.space.clean_dim, "clean register dimension")
    if not 1 <= t < k:
        raise ValueError(f"need 1 <= t < k (k={k}), got t={t}")

    n_dim = spec.space.oracle_dim
    w_dim = spec.space.work_dim
    k_dim = spec.space.clean_dim
    sim_dim = 1 << (t + 1)              # noisy qubits standing in for clean ones
    crest_dim = k_dim >> (t + 1)        # clean qubits still clean inside the gates
    # workspace (w, sim, coin), clean register (crest, flag)
    new_space = IndexSpace(n_dim, w_dim * sim_dim * 2, crest_dim * 2)
    m_new = new_space.total_dim

    flat = np.arange(m_new)
    i_part, w_part, sim, coin, crest, flag = np.unravel_index(
        flat, (n_dim, w_dim, sim_dim, 2, crest_dim, 2))
    c_orig = sim * crest_dim + crest
    orig = (i_part * w_dim + w_part) * k_dim + c_orig
    same = (coin * 2 + flag)[:, None] == coin * 2 + flag  # the gates leave (coin, flag) alone

    def embed(gate: np.ndarray) -> np.ndarray:
        return np.where(same, gate[np.ix_(orig, orig)], 0)

    # open-controlled Toffoli flag ^= [sim register all-zero] before gate 0: a column gather
    toffoli = np.where(sim == 0, flat ^ 1, flat)
    gates = [embed(spec.unitaries[0])[:, toffoli]] + [embed(g) for g in spec.unitaries[1:]]

    accept = np.where(flag == 1, spec.accept[orig], coin == 1)
    return AlgorithmSpec(spec.model, new_space, spec.d, tuple(gates), accept)


# ---------------------------------------------------------------------------
# hybrid (classical pre-processing) algorithms


class Query(NamedTuple):
    coord: int
    plus: Union["Query", AlgorithmSpec]
    minus: Union["Query", AlgorithmSpec]


@dataclass(frozen=True)
class HybridSpec:
    """Classical decision tree of ``Query`` nodes whose leaves are quantum algorithms."""

    tree: Union[Query, AlgorithmSpec]

    def __post_init__(self):
        ref = self.leaf_algorithms[0]
        for leaf, path in self.leaf_paths():
            if leaf.model is not ref.model or leaf.space != ref.space or leaf.d != ref.d:
                raise ValueError("leaf algorithms must share model, space and d")
            coords = [c for c, _ in path]
            if len(coords) != len(set(coords)):
                raise ValueError("a root-to-leaf path queries a coordinate twice")

    @cached_property
    def leaf_algorithms(self) -> tuple:
        """The leaf algorithms, in :meth:`leaf_paths` order."""
        return tuple(spec for spec, _ in self.leaf_paths())

    @property
    def space(self) -> IndexSpace:
        return self.leaf_algorithms[0].space

    def leaf_paths(self):
        """Yield (leaf algorithm, [(coord, sign), ...]) for every root-to-leaf path."""
        stack = [(self.tree, [])]
        while stack:
            node, path = stack.pop()
            if isinstance(node, Query):
                stack.append((node.plus, path + [(node.coord, 1)]))
                stack.append((node.minus, path + [(node.coord, -1)]))
            else:
                yield node, path


def acceptance_hybrid(hybrid: HybridSpec, x: np.ndarray) -> float:
    """Walk the classical tree on x, then run the selected leaf algorithm on x."""
    x = np.asarray(x, dtype=float)
    node = hybrid.tree
    while isinstance(node, Query):
        node = node.plus if x[node.coord] > 0 else node.minus
    return acceptance_direct(node, x)


def hybrid_truth_table(hybrid: HybridSpec, workers: int = 1) -> np.ndarray:
    """Full acceptance table of the hybrid over all 2^N inputs.

    Each root-to-leaf path becomes a restriction; the leaf algorithm runs only
    on the inputs that path selects, so every input is simulated once.
    """
    n = hybrid.space.oracle_dim
    check_table_size(n)
    out = np.empty(1 << n, dtype=float)
    for leaf, path in hybrid.leaf_paths():
        pattern = np.zeros(n, dtype=np.int8)
        minus = 0
        for coord, sign in path:
            pattern[coord] = sign
            minus |= (sign < 0) << coord
        rho = Restriction(pattern)
        out[rho.embed_masks() | minus] = truth_table(leaf, rho, workers=workers)
    return out


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
    depth: int,
) -> HybridSpec:
    """Random decision tree of the given depth with random leaf algorithms."""
    if depth < 0 or depth > d:
        raise ValueError("hybrid tree depth must lie in [0, d]")

    def build(level: int, used: tuple) -> Union[Query, AlgorithmSpec]:
        if level == 0:
            return random_spec(model, space, d, rng)
        available = [c for c in range(space.oracle_dim) if c not in used]
        coord = int(rng.choice(available))
        return Query(coord, build(level - 1, used + (coord,)), build(level - 1, used + (coord,)))

    return HybridSpec(build(depth, ()))


# ---------------------------------------------------------------------------
# JSON interface


def _is_square(rows, m: int, entry_ok) -> bool:
    """Whether JSON ``rows`` is m lists of m entries that each pass ``entry_ok``."""
    return isinstance(rows, list) and len(rows) == m and all(
        isinstance(row, list) and len(row) == m and all(map(entry_ok, row)) for row in rows)


def _gate_from_json(doc: dict, m: int) -> np.ndarray:
    kind = doc.get("kind")
    if kind == "identity":
        return np.eye(m, dtype=complex)
    if kind == "hadamard":
        bits = _log2_exact(m, "register dimension for a hadamard gate")
        return hadamard_matrix(bits).astype(complex)
    if kind == "haar":
        seed = doc.get("seed")
        if type(seed) is not int or seed < 0:  # JSON 1.5 and true are no seeds
            raise ValueError(f"haar gate 'seed' must be an integer >= 0, got {seed!r}")
        return random_unitary(m, seed)
    if kind == "explicit":
        rows = doc.get("rows")
        if not _is_square(rows, m, lambda pair: isinstance(pair, list) and len(pair) == 2
                          and all(type(v) in (int, float) for v in pair)):  # true is no number
            raise ValueError(f"explicit gate 'rows' must be {m} lists of {m} [re, im] number pairs")
        try:
            return np.array(rows, dtype=float).view(complex)[..., 0]
        except OverflowError:
            raise ValueError("explicit gate 'rows' holds an integer beyond float range") from None
    raise ValueError(f"unknown gate kind {kind!r}")


def spec_from_json(doc: dict):
    """Parse an algorithm-spec document; returns (AlgorithmSpec, Restriction or None).

    Accepting sets use zero-based outcome indices in [0, M); a HALF_BQP
    accepting set is an M x M matrix of JSON integers 0 or 1.
    """
    if not isinstance(doc, dict):
        raise ValueError("spec document must be a JSON object")
    missing = [key for key in ("model", "n", "d", "unitaries", "accept") if key not in doc]
    if missing:
        raise ValueError(f"spec document lacks required keys: {', '.join(missing)}")
    name = doc["model"].upper().replace("-", "_") if isinstance(doc["model"], str) else None
    if name not in Model.__members__:
        raise ValueError(f"spec 'model' must be one of {', '.join(Model.__members__)}, "
                         f"got {doc['model']!r}")
    model = Model[name]
    for key in ("n", "w", "k", "d"):
        value, low = doc.get(key, 0), int(key in "nd")
        if type(value) is not int or value < low:  # JSON 1.7 and true are no sizes
            raise ValueError(f"spec {key!r} must be an integer >= {low}, got {value!r}")
    space = IndexSpace.qubits(doc["n"], doc.get("w", 0), doc.get("k", 0))
    m = space.total_dim
    unitaries = doc["unitaries"]
    if not (isinstance(unitaries, list) and all(isinstance(g, dict) for g in unitaries)):
        raise ValueError("spec 'unitaries' must be a list of gate objects")
    gates = tuple(_gate_from_json(g, m) for g in unitaries)
    if model is Model.HALF_BQP:
        rows = doc["accept"]
        # JSON 0.7 and true are no bits
        if not _is_square(rows, m, lambda v: type(v) is int and v in (0, 1)):
            raise ValueError(f"HALF_BQP accept must be an {m}x{m} matrix of integers 0 or 1")
        accept = np.array(rows, dtype=bool)
    else:
        outcomes = doc["accept"]
        if not (isinstance(outcomes, list)  # JSON true is no index
                and all(type(v) is int and 0 <= v < m for v in outcomes)):
            raise ValueError(f"spec 'accept' must be a list of integers in [0, {m})")
        accept = np.zeros(m, dtype=bool)
        accept[outcomes] = True
    spec = AlgorithmSpec(model, space, doc["d"], gates, accept)
    rho = None
    if "restriction" in doc:
        if not isinstance(doc["restriction"], str):
            raise ValueError(f"spec 'restriction' must be a string, got {doc['restriction']!r}")
        rho = spec.restriction(Restriction.from_string(doc["restriction"]))
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
