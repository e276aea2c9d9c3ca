"""Structured matrix factorizations that carry index information through a product.

Given bounded-norm matrices U_1..U_d over a composite register, the basic
construction (:func:`decompose`) builds factors over an augmented index
(I, S) whose product records, next to the usual matrix product, the symmetric
difference S of the tracked oracle coordinates encountered along each summed
index path.  The improved construction (:func:`decompose_improved`) adds
equality constraints between pairs of intermediate indices and memory slots
that carry chosen intermediate indices to the final column index.

Every factor has operator norm at most 1, and the product (its empty-start
row block, for the improved form) has Frobenius norm at most the smallest
input Frobenius norm.  :func:`verify` certifies all of this numerically
against :func:`brute_force_entry`, an independent raw summation.

Augmented index codec: ``flat = ((I * 2^tracked + S) * (N+1)^p + digits(A)) *
(N+1)^q + digits(B)`` with big-endian base-(N+1) register digits and digit 0
meaning "empty slot"; digit v in [1, N] stores oracle value v-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    ParameterError,
    ResourceLimitError,
    ShapeError,
    SpecificationError,
    ValidationError,
)
from .linalg import (
    NORM_SLACK,
    IndexSpace,
    frobenius_norm,
    leq_tol,
    operator_norm,
    random_unitary,
)
from .models import AlgorithmSpec, Model, Restriction
from . import fourier as _fourier

#: Largest augmented dimension materialized as factors.
AUGMENTED_DIM_GUARD = 65536

#: Guard for the raw brute-force summation (M^(d-1) paths per entry).
BRUTE_FORCE_GUARD = 10**7

#: Read only by the benchmark's factorizations workload; no code path here uses it.
_DENSE_SVD_CUTOFF = 2048


@dataclass(frozen=True)
class DecompositionSpec:
    """Inputs of the factorizations.

    ``matrices`` are U_1..U_d over ``space.total_dim``; positions are 1-based.
    ``parity_skip`` lists positions whose index is not folded into S;
    position 1 never contributes.  ``tracked`` is the number of leading
    oracle values whose parity is recorded.  ``equality_pairs`` are (s, t)
    with 2 <= s < t <= d forcing i_s = i_t; ``memory_positions`` are r in
    [2, d] whose index is carried to the final column.  All of these position
    labels must be distinct.
    """

    space: IndexSpace
    matrices: tuple
    parity_skip: frozenset = field(default_factory=frozenset)
    tracked: Optional[int] = None
    equality_pairs: tuple = ()
    memory_positions: tuple = ()

    def __post_init__(self):
        mats = tuple(np.asarray(u, dtype=complex) for u in self.matrices)
        if not mats:
            raise SpecificationError("need at least one matrix")
        m = self.space.total_dim
        for idx, mat in enumerate(mats):
            if mat.shape != (m, m):
                raise ShapeError(f"matrix {idx + 1} has shape {mat.shape}, expected ({m}, {m})")
            if not leq_tol(operator_norm(mat), 1.0, rel=NORM_SLACK, abs_=NORM_SLACK):
                raise ValidationError(f"matrix {idx + 1} has operator norm above 1")
        tracked = self.space.oracle_dim if self.tracked is None else self.tracked
        if not 0 <= tracked <= self.space.oracle_dim:
            raise ParameterError(f"tracked prefix must lie in [0, {self.space.oracle_dim}]")
        d = len(mats)
        skip = frozenset(int(t) for t in self.parity_skip)
        if any(t < 1 or t > d for t in skip):
            raise ParameterError("parity_skip positions must lie in [1, d]")
        pairs = tuple((int(s), int(t)) for s, t in self.equality_pairs)
        mems = tuple(int(r) for r in self.memory_positions)
        for s, t in pairs:
            if not (2 <= s < t <= d):
                raise ParameterError(f"equality pair ({s}, {t}) must satisfy 2 <= s < t <= d")
        for r in mems:
            if not 2 <= r <= d:
                raise ParameterError(f"memory position {r} must lie in [2, d]")
        labels = [x for pair in pairs for x in pair] + list(mems)
        if len(labels) != len(set(labels)):
            raise ValidationError("equality/memory position labels must all be distinct")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "tracked", tracked)
        object.__setattr__(self, "parity_skip", skip)
        object.__setattr__(self, "equality_pairs", pairs)
        object.__setattr__(self, "memory_positions", mems)

    @property
    def depth(self) -> int:
        return len(self.matrices)

    @property
    def p(self) -> int:
        return len(self.equality_pairs)

    @property
    def q(self) -> int:
        return len(self.memory_positions)


def parity_update(s_mask: int, oracle_index: int, position: int, spec: DecompositionSpec) -> int:
    """Parity-set transition at one position of the chain.

    Toggles ``oracle_index`` in the mask when the position is in [2, d], not
    skipped, and the index falls inside the tracked prefix; otherwise the
    mask passes through unchanged.
    """
    if (
        2 <= position <= spec.depth
        and position not in spec.parity_skip
        and 0 <= oracle_index < spec.tracked
    ):
        return s_mask ^ (1 << oracle_index)
    return s_mask


@dataclass(frozen=True)
class AugmentedIndexer:
    """Flat codec for the augmented index (I, S, A, B)."""

    m: int
    tracked: int
    p: int
    q: int
    base: int  # N + 1: register digits in {0..N}

    @property
    def dim(self) -> int:
        return self.m * (1 << self.tracked) * self.base ** (self.p + self.q)

    def encode(self, index: int, s_mask: int, a_digits=None, b_digits=None) -> int:
        a_digits = (0,) * self.p if a_digits is None else tuple(a_digits)
        b_digits = (0,) * self.q if b_digits is None else tuple(b_digits)
        if len(a_digits) != self.p or len(b_digits) != self.q:
            raise ShapeError(f"register digits must have lengths ({self.p}, {self.q})")
        flat = index * (1 << self.tracked) + s_mask
        for digit in a_digits:
            flat = flat * self.base + digit
        for digit in b_digits:
            flat = flat * self.base + digit
        return flat

    def decode(self, flat: int):
        b_digits = []
        for _ in range(self.q):
            b_digits.append(flat % self.base)
            flat //= self.base
        a_digits = []
        for _ in range(self.p):
            a_digits.append(flat % self.base)
            flat //= self.base
        s_mask = flat % (1 << self.tracked)
        return flat >> self.tracked, s_mask, tuple(reversed(a_digits)), tuple(reversed(b_digits))


def _decode_registers(flats: np.ndarray, indexer: AugmentedIndexer):
    base = indexer.base
    rest = flats.copy()
    b_cols = np.empty((flats.size, indexer.q), dtype=np.int64)
    for j in range(indexer.q - 1, -1, -1):
        b_cols[:, j] = rest % base
        rest //= base
    a_cols = np.empty((flats.size, indexer.p), dtype=np.int64)
    for j in range(indexer.p - 1, -1, -1):
        a_cols[:, j] = rest % base
        rest //= base
    s_mask = rest % (1 << indexer.tracked)
    return rest >> indexer.tracked, s_mask, a_cols, b_cols


def _build_factor(spec: DecompositionSpec, position: int, indexer: AugmentedIndexer) -> sp.csr_matrix:
    """One augmented factor as a sparse matrix over the full augmented index."""
    mat = spec.matrices[position - 1]
    m = spec.space.total_dim
    dim = indexer.dim
    oracle_of = spec.space.oracle_parts()

    rows = np.arange(dim, dtype=np.int64)
    i_row, s_row, a_row, b_row = _decode_registers(rows, indexer)
    o_row = oracle_of[i_row]

    tracked_here = (
        2 <= position <= spec.depth
        and position not in spec.parity_skip
    )
    if tracked_here:
        toggles = np.where(o_row < spec.tracked, np.int64(1) << o_row, 0)
        s_col = s_row ^ toggles
    else:
        s_col = s_row

    valid_row = np.ones(dim, dtype=bool)
    a_new = a_row.copy()
    b_new = b_row.copy()
    for j, r in enumerate(spec.memory_positions):
        if position == r:
            valid_row &= b_row[:, j] == 0
            b_new[:, j] = o_row + 1
    for j, (s, _) in enumerate(spec.equality_pairs):
        if position == s:
            valid_row &= a_row[:, j] == 0
            a_new[:, j] = o_row + 1

    i_col = np.arange(m, dtype=np.int64)
    o_col = oracle_of[i_col]
    valid = valid_row[:, None] & np.ones(m, dtype=bool)[None, :]
    a_final = a_new
    closing = [j for j, (_, t) in enumerate(spec.equality_pairs) if position + 1 == t]
    if closing:
        # the next index must match the stored one; the slot is then cleared
        a_grid = np.broadcast_to(a_new[:, None, :], (dim, m, indexer.p)).copy()
        for j in closing:
            valid &= a_new[:, j][:, None] == (o_col + 1)[None, :]
            a_grid[:, :, j] = 0
        a_digit_grid = np.zeros((dim, m), dtype=np.int64)
        for j in range(indexer.p):
            a_digit_grid = a_digit_grid * indexer.base + a_grid[:, :, j]
    else:
        a_digit_row = np.zeros(dim, dtype=np.int64)
        for j in range(indexer.p):
            a_digit_row = a_digit_row * indexer.base + a_final[:, j]
        a_digit_grid = np.broadcast_to(a_digit_row[:, None], (dim, m))

    b_digit_row = np.zeros(dim, dtype=np.int64)
    for j in range(indexer.q):
        b_digit_row = b_digit_row * indexer.base + b_new[:, j]

    reg_span = indexer.base ** (indexer.p + indexer.q)
    col_flat = (
        (i_col[None, :] * (1 << indexer.tracked) + s_col[:, None]) * reg_span
        + a_digit_grid * indexer.base**indexer.q
        + b_digit_row[:, None]
    )
    values = mat[i_row[:, None], i_col[None, :]]
    keep = valid & (values != 0)
    coo = sp.coo_matrix(
        (values[keep], (np.broadcast_to(rows[:, None], keep.shape)[keep], col_flat[keep])),
        shape=(dim, dim),
    )
    return coo.tocsr()


@dataclass(frozen=True)
class AugmentedMatrix:
    """Factors and product of a decomposition, over the augmented index space."""

    spec: DecompositionSpec
    indexer: AugmentedIndexer
    factors: tuple      # square sparse factors, one per position
    product: sp.csr_matrix

    def entry(self, i_start, s_start, i_end, s_end, a_end=None, b_end=None,
              a_start=None, b_start=None):
        row = self.indexer.encode(i_start, s_start, a_start, b_start)
        col = self.indexer.encode(i_end, s_end, a_end, b_end)
        return complex(self.product[row, col])

    def start_rows(self, s_start: int = 0) -> np.ndarray:
        """Flat row indices (I, s_start) with empty registers, for all I."""
        ix = self.indexer
        heads = np.arange(ix.m, dtype=np.int64) * (1 << ix.tracked) + s_start
        return heads * ix.base ** (ix.p + ix.q)

    def empty_start_block(self) -> np.ndarray:
        """Dense product rows with S = empty and empty registers."""
        return np.asarray(self.product[self.start_rows(0), :].todense())

    def free_start_block(self) -> np.ndarray:
        """Dense product rows over all (I, S) with empty registers."""
        ix = self.indexer
        rows = np.arange(ix.m << ix.tracked, dtype=np.int64) * ix.base ** (ix.p + ix.q)
        return np.asarray(self.product[rows, :].todense())

    def factor_operator_norms(self) -> list:
        return [_block_spectral_norm(factor) for factor in self.factors]


def _block_spectral_norm(factor: sp.csr_matrix) -> float:
    """Exact ||F||_2: the largest spectral norm among F's connected blocks.

    Rows and columns joined by a nonzero form one block of a row/column
    permutation of F, so F is block diagonal and its norm is the largest
    block norm.  Each block is placed in a k x k matrix indexed by its k row
    and column nodes (the padding is zero and leaves the singular values
    alone), and blocks of one size go through one batched SVD.
    """
    if factor.nnz == 0:
        return 0.0
    n_rows, n_cols = factor.shape
    size = n_rows + n_cols
    indptr = np.concatenate([factor.indptr, np.full(n_cols, factor.nnz)])
    pattern = sp.csr_matrix(
        (np.ones(factor.nnz), factor.indices + n_rows, indptr), shape=(size, size)
    )
    _, label = connected_components(pattern, directed=False)
    order = np.argsort(label, kind="stable")
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size) - np.searchsorted(label[order], label[order])
    rows = np.repeat(np.arange(n_rows), np.diff(factor.indptr))
    block = label[rows]
    width = np.bincount(label)[block]
    best = 0.0
    for k in np.unique(width):
        hit = width == k
        slot = np.unique(block[hit], return_inverse=True)[1]
        stack = np.zeros((slot.max() + 1, k, k), dtype=factor.dtype)
        stack[slot, rank[rows[hit]], rank[factor.indices[hit] + n_rows]] = factor.data[hit]
        best = max(best, float(np.linalg.norm(stack, 2, axis=(1, 2)).max()))
    return best


def _make_indexer(spec: DecompositionSpec) -> AugmentedIndexer:
    indexer = AugmentedIndexer(
        m=spec.space.total_dim,
        tracked=spec.tracked,
        p=spec.p,
        q=spec.q,
        base=spec.space.oracle_dim + 1,
    )
    if indexer.dim > AUGMENTED_DIM_GUARD:
        raise ResourceLimitError(
            f"augmented dimension {indexer.dim} exceeds guard {AUGMENTED_DIM_GUARD}"
        )
    return indexer


def decompose(spec: DecompositionSpec) -> AugmentedMatrix:
    """Basic parity-tracking factorization (no equality/memory constraints).

    The product row block with empty starting parity satisfies, for all
    boundary indices and parity sets S,

        product[I_1 | I_{d+1}, S] = sum over inner indices of
            prod_t U_t[I_t | I_{t+1}] * [S = xor of tracked {i_t}]

    with every factor of operator norm <= 1 and the block's Frobenius norm
    bounded by the smallest input Frobenius norm.
    """
    if spec.p or spec.q:
        raise SpecificationError("decompose takes no equality/memory constraints")
    return decompose_improved(spec)


def decompose_improved(spec: DecompositionSpec) -> AugmentedMatrix:
    """Factorization with parity, equality, and memory constraints.

    Register updates follow the add-then-remove order at collisions: a slot
    written at position t may be compared (and cleared) against the index at
    position t+1 within the same factor.
    """
    indexer = _make_indexer(spec)
    factors = tuple(_build_factor(spec, t, indexer) for t in range(1, spec.depth + 1))
    product = factors[0]
    for factor in factors[1:]:
        product = product @ factor
    return AugmentedMatrix(spec, indexer, factors, product.tocsr())


# ---------------------------------------------------------------------------
# independent brute-force summation


def brute_force_entry(
    spec: DecompositionSpec,
    i_start: int,
    i_end: int,
    s_end: int,
    b_end=(),
    s_start: int = 0,
) -> complex:
    """Raw summation over the d-1 inner indices with all indicators explicit.

    This is the oracle the factorizations are checked against; it shares no
    code with the factor construction.
    """
    d = spec.depth
    m = spec.space.total_dim
    if m ** (d - 1) > BRUTE_FORCE_GUARD:
        raise ResourceLimitError(f"brute force needs {m ** (d - 1)} paths, over guard")
    b_end = tuple(b_end)
    if len(b_end) != spec.q:
        raise ShapeError(f"expected {spec.q} memory values, got {len(b_end)}")
    oracle_of = spec.space.oracle_parts()
    total = 0.0 + 0.0j
    for inner in iter_product(range(m), repeat=d - 1):
        path = (i_start,) + inner + (i_end,)
        weight = 1.0 + 0.0j
        for t in range(d):
            weight *= spec.matrices[t][path[t], path[t + 1]]
            if weight == 0:
                break
        if weight == 0:
            continue
        mask = s_start
        for t in range(2, d + 1):
            mask = parity_update(mask, int(oracle_of[path[t - 1]]), t, spec)
        if mask != s_end:
            continue
        if any(oracle_of[path[s - 1]] != oracle_of[path[t - 1]] for s, t in spec.equality_pairs):
            continue
        if any(
            oracle_of[path[r - 1]] != b_end[j] for j, r in enumerate(spec.memory_positions)
        ):
            continue
        total += weight
    return total


def brute_force_tensor(spec: DecompositionSpec) -> np.ndarray:
    """All brute-force values at once, shaped (I_1, I_end, parity, B-digits).

    Entry [i1, ie, s, b] equals ``brute_force_entry(spec, i1, ie, s_end=s1^s,
    b_end=decode(b)+1, s_start=s1)`` for every s1 (parity enters only through
    s1 xor s_end).  Memory digits use base N with stored value v-1.
    """
    d = spec.depth
    m = spec.space.total_dim
    n = spec.space.oracle_dim
    if m ** (d + 1) > BRUTE_FORCE_GUARD:
        raise ResourceLimitError("path tensor too large for the brute-force guard")
    oracle_of = spec.space.oracle_parts()
    shape = (m, m, 1 << spec.tracked, n**spec.q)
    bins = np.zeros(shape, dtype=complex)
    paths = np.array(np.unravel_index(np.arange(m ** (d + 1)), (m,) * (d + 1)))
    weights = np.ones(paths.shape[1], dtype=complex)
    for t in range(d):
        weights *= spec.matrices[t][paths[t], paths[t + 1]]
    live = weights != 0
    paths = paths[:, live]
    weights = weights[live]
    masks = np.zeros(paths.shape[1], dtype=np.int64)
    for t in range(2, d + 1):
        if t in spec.parity_skip:
            continue
        idx = oracle_of[paths[t - 1]]
        hot = idx < spec.tracked
        masks[hot] ^= np.int64(1) << idx[hot]
    keep = np.ones(paths.shape[1], dtype=bool)
    for s, t in spec.equality_pairs:
        keep &= oracle_of[paths[s - 1]] == oracle_of[paths[t - 1]]
    b_flat = np.zeros(paths.shape[1], dtype=np.int64)
    for r in spec.memory_positions:
        b_flat = b_flat * n + oracle_of[paths[r - 1]]
    np.add.at(
        bins,
        (paths[0][keep], paths[d][keep], masks[keep], b_flat[keep]),
        weights[keep],
    )
    return bins


# ---------------------------------------------------------------------------
# verification


def verify(spec: DecompositionSpec, tol: float = 1e-9) -> dict:
    """Construct, compare entrywise against brute force, and check the norms.

    Returns a report with the maximum entrywise deviation, the factor
    operator norms, the Frobenius comparison, and pass flags per guarantee.
    """
    improved = bool(spec.p or spec.q)
    built = decompose_improved(spec) if improved else decompose(spec)
    bins = brute_force_tensor(spec)
    m = spec.space.total_dim
    n = spec.space.oracle_dim
    span_s = 1 << spec.tracked
    span_b = n**spec.q

    # columns (I_end, S_end) with empty A and B digit-coded as value + 1
    base = built.indexer.base
    b_code = np.zeros(span_b, dtype=np.int64)
    for j in range(spec.q - 1, -1, -1):
        b_code = b_code * base + (np.arange(span_b) // n**j) % n + 1
    ends = np.arange(m * span_s, dtype=np.int64).reshape(m, span_s, 1)
    cols = ends * base ** (spec.p + spec.q) + b_code
    got = built.free_start_block()[:, cols].reshape(m, span_s, m, span_s, span_b)
    # path parity s satisfies s_end = s1 ^ s
    xor = np.arange(span_s)[:, None] ^ np.arange(span_s)[None, :]
    want = bins[:, :, xor, :].transpose(0, 2, 1, 3, 4)
    max_dev = float(np.max(np.abs(got - want)))

    factor_norms = built.factor_operator_norms()
    min_input_frob = min(frobenius_norm(u) for u in spec.matrices)
    block = built.empty_start_block()
    block_frob = frobenius_norm(block)

    report = {
        "depth": spec.depth,
        "total_dim": m,
        "tracked": spec.tracked,
        "parity_skip": sorted(spec.parity_skip),
        "equality_pairs": list(map(list, spec.equality_pairs)),
        "memory_positions": list(spec.memory_positions),
        "augmented_dim": built.indexer.dim,
        "max_entry_deviation": max_dev,
        "max_factor_operator_norm": max(factor_norms),
        "factor_operator_norms": factor_norms,
        "product_frobenius": block_frob,
        "min_input_frobenius": min_input_frob,
        "entries_pass": bool(max_dev <= tol),
        "factor_norm_pass": bool(leq_tol(max(factor_norms), 1.0)),
        "frobenius_pass": bool(leq_tol(block_frob, min_input_frob)),
    }
    report["pass"] = bool(
        report["entries_pass"] and report["factor_norm_pass"] and report["frobenius_pass"]
    )
    return report


# ---------------------------------------------------------------------------
# randomized instances for the certification harness


def random_decomposition_spec(
    rng: np.random.Generator, max_aug_dim: int = 4096
) -> DecompositionSpec:
    """Random valid inputs: d <= 4, M <= 8, tracked <= 4, p, q <= 2.

    Matrices are Haar unitaries, sometimes contracted by a scalar or a 0/1
    diagonal mask so the operator-norm-below-one regime is exercised too.
    Register/parity parameters are resampled until the augmented dimension
    fits under ``max_aug_dim``.
    """
    while True:
        d = int(rng.integers(1, 5))
        n_dim = int(rng.choice([2, 4]))
        w_dim = int(rng.choice([1, 2]))
        m = n_dim * w_dim
        if m > 8:
            continue
        tracked = int(rng.integers(0, min(4, n_dim) + 1))
        skip = frozenset(int(t) for t in range(1, d + 1) if rng.random() < 0.25)
        slots = list(range(2, d + 1))
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 3))
        if 2 * p + q > len(slots):
            continue
        chosen = list(rng.choice(slots, size=2 * p + q, replace=False)) if 2 * p + q else []
        pairs = tuple(
            tuple(sorted((int(chosen[2 * j]), int(chosen[2 * j + 1])))) for j in range(p)
        )
        mems = tuple(int(x) for x in chosen[2 * p :])
        base = n_dim + 1
        if m * (1 << tracked) * base ** (p + q) > max_aug_dim:
            continue
        mats = []
        for _ in range(d):
            mat = random_unitary(m, int(rng.integers(0, 2**63 - 1)))
            roll = rng.random()
            if roll < 0.3:
                mat = mat * float(rng.uniform(0.4, 1.0))
            elif roll < 0.5:
                mask = rng.random(m) < 0.8
                if not mask.any():
                    mask[0] = True
                mat = mask[:, None] * mat
            mats.append(mat)
        return DecompositionSpec(
            space=IndexSpace(n_dim, w_dim, 1),
            matrices=tuple(mats),
            parity_skip=skip,
            tracked=tracked,
            equality_pairs=pairs,
            memory_positions=mems,
        )


# ---------------------------------------------------------------------------
# reading a spectrum off the decomposition (trace-form algorithms)


def spectrum_via_decomposition(
    spec: AlgorithmSpec, rho: Optional[Restriction] = None
) -> "_fourier.FourierSpectrum":
    """All Fourier coefficients of a DQCK acceptance read off the factorization.

    The closed-form matrices are decomposed with full parity tracking over
    the free coordinates; the coefficient at S is the normalized sum of the
    diagonal boundary entries whose recorded parity is S corrected by the
    first index's own contribution.
    """
    if spec.model is not Model.DQCK:
        raise SpecificationError("decomposition read-off applies to DQCK trace forms")
    vs, free_count, _, _ = _fourier._restricted_chain(spec, rho)
    dspec = DecompositionSpec(
        space=spec.space,
        matrices=tuple(vs),
        tracked=free_count,
    )
    built = decompose(dspec)
    m = spec.space.total_dim
    oracle_of = spec.space.oracle_parts()
    dense = built.empty_start_block()  # rows I_1, columns (I, S)
    span_s = 1 << free_count
    toggles = np.where(oracle_of < free_count, np.int64(1) << oracle_of, 0)
    cols = np.arange(m)[:, None] * span_s + (np.arange(span_s)[None, :] ^ toggles[:, None])
    coeffs = dense[np.arange(m)[:, None], cols].sum(axis=0)
    coeffs /= spec.space.start_dim
    if np.max(np.abs(coeffs.imag)) > 1e-8:
        raise ValidationError("decomposition read-off produced non-real coefficients")
    return _fourier.FourierSpectrum(free_count, coeffs.real)
