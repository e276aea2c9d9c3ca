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
against :func:`brute_force_tensor`, an independent raw summation over all
index paths; :func:`brute_force_entry` is the per-entry reference the tests
check :func:`brute_force_tensor` against.

The augmented index is flattened by :class:`AugmentedIndexer` alone.  Register
digits are base N+1: digit 0 means "empty slot" and digit v in [1, N] stores
oracle value v-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import TYPE_CHECKING, Optional

import numpy as np

from .linalg import (
    IMAG_TOL,
    MATCH_TOL,
    SLICE_BYTES,
    IndexSpace,
    check_cost,
    frobenius_norm,
    leq_tol,
    operator_norm,
    random_unitary,
)
from .models import AlgorithmSpec, Model, Restriction
from . import fourier as _fourier

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Largest augmented dimension materialized as factors.
AUGMENTED_DIM_GUARD = 65536

#: Guard for the raw brute-force summations: M^(d+1) paths for the tensor, M^(d-1) for one entry.
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
            raise ValueError("need at least one matrix")
        m = self.space.total_dim
        for idx, mat in enumerate(mats):
            if mat.shape != (m, m):
                raise ValueError(f"matrix {idx + 1} has shape {mat.shape}, expected ({m}, {m})")
            if not leq_tol(operator_norm(mat), 1.0):
                raise ValueError(f"matrix {idx + 1} has operator norm above 1")
        tracked = self.space.oracle_dim if self.tracked is None else self.tracked
        if not 0 <= tracked <= self.space.oracle_dim:
            raise ValueError(f"tracked prefix must lie in [0, {self.space.oracle_dim}]")
        d = len(mats)
        # each label is checked as given, so int() cannot truncate 1.5 into range
        if any(not (float(t).is_integer() and 1 <= t <= d) for t in self.parity_skip):
            raise ValueError("parity_skip positions must lie in [1, d]")
        for s, t in self.equality_pairs:
            if not (float(s).is_integer() and float(t).is_integer() and 2 <= s < t <= d):
                raise ValueError(f"equality pair ({s}, {t}) must satisfy 2 <= s < t <= d")
        for r in self.memory_positions:
            if not (float(r).is_integer() and 2 <= r <= d):
                raise ValueError(f"memory position {r} must lie in [2, d]")
        skip = frozenset(int(t) for t in self.parity_skip)
        pairs = tuple((int(s), int(t)) for s, t in self.equality_pairs)
        mems = tuple(int(r) for r in self.memory_positions)
        labels = [x for pair in pairs for x in pair] + list(mems)
        if len(labels) != len(set(labels)):
            raise ValueError("equality/memory position labels must all be distinct")
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

    @property
    def parity_toggles(self) -> np.ndarray:
        """Mask each composite index toggles in S: its oracle value's bit if tracked, else 0."""
        oracle_of = self.space.oracle_parts()
        return np.where(oracle_of < self.tracked, np.int64(1) << oracle_of, 0)


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
    """Flat codec for the augmented index (I, S, A, B).

    ``flat = ((I * 2^tracked + S) * base^p + digits(A)) * base^q + digits(B)``
    with big-endian register digits in [0, base).  Both methods take scalars
    or broadcasting arrays; an out-of-range coordinate raises ``ValueError``.
    """

    m: int
    tracked: int
    p: int
    q: int
    base: int  # N + 1: register digits in {0..N}

    @property
    def shape(self) -> tuple:
        return (self.m, 1 << self.tracked) + (self.base,) * (self.p + self.q)

    @property
    def dim(self) -> int:
        return math.prod(self.shape)

    def encode(self, index, s_mask, a_digits=None, b_digits=None):
        a_digits = (0,) * self.p if a_digits is None else tuple(a_digits)
        b_digits = (0,) * self.q if b_digits is None else tuple(b_digits)
        if len(a_digits) != self.p or len(b_digits) != self.q:
            raise ValueError(f"register digits must have lengths ({self.p}, {self.q})")
        return np.ravel_multi_index((index, s_mask, *a_digits, *b_digits), self.shape)

    def decode(self, flat):
        index, s_mask, *digits = np.unravel_index(flat, self.shape)
        return index, s_mask, tuple(digits[: self.p]), tuple(digits[self.p :])


def _build_factor(spec: DecompositionSpec, position: int, indexer: AugmentedIndexer) -> sp.csr_matrix:
    """One augmented factor as a sparse matrix over the full augmented index.

    The equality slots, then the memory slots, form one register list.  A
    slot opens at its position (the row digit must be empty and becomes
    oracle + 1); an equality slot (s, t) also closes at t - 1, where the
    column's oracle + 1 must equal the stored digit, which is then cleared.
    """
    import scipy.sparse as sp  # loaded on the first factor build, not with the package
    mat = spec.matrices[position - 1]
    oracle_of = spec.space.oracle_parts()
    i_row, s_row, a_row, b_row = indexer.decode(np.arange(indexer.dim))
    o_row = oracle_of[i_row]
    if position >= 2 and position not in spec.parity_skip:
        s_row = s_row ^ spec.parity_toggles[i_row]

    digits = [digit[:, None] for digit in a_row + b_row]
    opens = [s for s, _ in spec.equality_pairs] + list(spec.memory_positions)
    closes = [t - 1 for _, t in spec.equality_pairs] + [None] * spec.q
    valid = np.ones((indexer.dim, 1), dtype=bool)
    for j, (opens_at, closes_at) in enumerate(zip(opens, closes)):
        if position == opens_at:
            valid = valid & (digits[j] == 0)
            digits[j] = o_row[:, None] + 1
        if position == closes_at:
            valid = valid & (digits[j] == oracle_of + 1)
            digits[j] = 0

    cols = indexer.encode(
        np.arange(spec.space.total_dim), s_row[:, None], digits[: spec.p], digits[spec.p :]
    )
    values = mat[i_row]
    keep = valid & (values != 0)
    # I is the leading column coordinate and the rest is set by the row, so
    # each row's columns come out sorted and distinct: CSR without a COO pass
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return sp.csr_matrix((values[keep], cols[keep], indptr), shape=(indexer.dim,) * 2)


@dataclass(frozen=True)
class AugmentedMatrix:
    """Factors of a decomposition over the augmented index space.  The product is never
    formed: CSR x CSR builds each row from that row alone, so pushing a start row through
    the factors gives that row of the product bit for bit."""

    indexer: AugmentedIndexer
    factors: tuple      # square sparse factors, one per position

    def _rows(self, i_start, s_start) -> np.ndarray:
        rows = np.ravel(self.indexer.encode(i_start, s_start))
        check_cost("row push", rows.size * _push_row_bytes(self.indexer, len(self.factors)))
        out = self.factors[0][rows]
        for factor in self.factors[1:]:
            out = out @ factor
        return out.toarray()

    def entry(self, i_start, s_start, i_end, s_end, b_end=None):
        """Product entry from row (i_start, s_start) with empty registers."""
        col = self.indexer.encode(i_end, s_end, b_digits=b_end)
        return complex(self._rows(i_start, s_start)[0, col])

    def empty_start_block(self) -> np.ndarray:
        """Dense product rows with S = empty and empty registers."""
        return self._rows(np.arange(self.indexer.m), 0)

    def free_start_block(self) -> np.ndarray:
        """Dense product rows over all (I, S) with empty registers."""
        ix = self.indexer
        return self._rows(np.arange(ix.m)[:, None], np.arange(1 << ix.tracked))

    def factor_operator_norms(self) -> list:
        return [_block_spectral_norm(factor) for factor in self.factors]


def _push_row_bytes(indexer: AugmentedIndexer, depth: int) -> int:
    """Bytes one start row takes through ``depth`` factors: after t factors a row holds
    at most M^t entries; the last two sparse row sets (16-byte value, 4-byte column an
    entry) and the dense row coexist."""
    widths = [min(indexer.dim, indexer.m ** t) for t in (depth - 1, depth)]
    return 16 * indexer.dim + 20 * sum(widths)


def _block_spectral_norm(factor: sp.csr_matrix) -> float:
    """Exact ||F||_2: the largest spectral norm among F's connected blocks.

    Rows and columns joined by a nonzero form one block of a row/column
    permutation of F, so F is block diagonal and its norm is the largest
    block norm.  A block is labelled by its least node: each pass takes the
    neighbours' least label and then that label's own, until nothing moves.
    A stable sort by label groups the entries of each block in (row rank,
    column rank) order, so two blocks of k nodes are equal exactly when their
    (rank, rank, value) entry lists are; one block per distinct list is placed
    in a k x k matrix over its k row and column nodes (zero padding leaves the
    singular values alone), and those of one size go through one batched SVD.
    """
    if factor.nnz == 0:
        return 0.0
    n_rows, n_cols = factor.shape
    size = n_rows + n_cols
    rows = np.repeat(np.arange(n_rows), np.diff(factor.indptr))
    cols = factor.indices + n_rows
    node, neighbour = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    label = np.arange(size)
    while True:
        spread = label.copy()
        np.minimum.at(spread, node, label[neighbour])
        if np.array_equal(spread, label):
            break
        label = spread[spread]
    order = np.argsort(label, kind="stable")
    width = np.bincount(label)  # nodes a block, at its label
    rank = np.empty(size, dtype=np.int64)  # a node's place in its block, by node number
    rank[order] = np.arange(size) - (np.cumsum(width) - width)[label[order]]
    block = label[rows]
    order = np.argsort(block, kind="stable")
    block, values = block[order], factor.data[order]
    entries = np.column_stack(  # 32 bytes an entry: row rank, column rank, value
        [rank[rows[order]], rank[cols[order]], values.view(np.int64).reshape(-1, 2)])
    lows = [0, *(np.flatnonzero(block[1:] != block[:-1]) + 1).tolist()]
    buf, first = entries.tobytes(), {}
    for k, lo, hi in zip(width[block[lows]].tolist(), lows, lows[1:] + [block.size]):
        first.setdefault((k, buf[32 * lo:32 * hi]), (lo, hi))
    reps = {}
    for (k, _), span in first.items():
        reps.setdefault(k, []).append(span)
    best = 0.0
    for k, spans in reps.items():
        stack = np.zeros((len(spans), k, k), dtype=factor.dtype)
        for j, (lo, hi) in enumerate(spans):
            stack[j, entries[lo:hi, 0], entries[lo:hi, 1]] = values[lo:hi]
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
    check_cost("augmented index", indexer.dim, "states", AUGMENTED_DIM_GUARD)
    return indexer


def decompose(spec: DecompositionSpec) -> AugmentedMatrix:
    """Basic parity-tracking factorization (no equality/memory constraints).

    The product row block with empty starting parity satisfies, for all
    boundary indices and parity sets S,

        product[I_1 | I_{d+1}, S] = sum over inner indices of
            prod_t U_t[I_t | I_{t+1}] * [S = xor of tracked {i_t}]

    with every factor of operator norm <= 1 and the block's Frobenius norm
    bounded by the smallest input Frobenius norm.  Outside the tests only the
    benchmark's factorizations workload calls it; the code here uses
    :func:`decompose_improved`.
    """
    if spec.p or spec.q:
        raise ValueError("decompose takes no equality/memory constraints")
    return decompose_improved(spec)


def decompose_improved(spec: DecompositionSpec) -> AugmentedMatrix:
    """Factorization with parity, equality, and memory constraints.

    Register updates follow the add-then-remove order at collisions: a slot
    written at position t may be compared (and cleared) against the index at
    position t+1 within the same factor.  Only the factors are built, once
    their predicted bytes pass ``linalg.MEMORY_BUDGET``.
    """
    indexer = _make_indexer(spec)
    # a built factor keeps 20 bytes a (row, M) slot (value, int32 column); building one
    # takes ~35 more, so the peak is about d + 2 factors' worth
    check_cost("factor build", 20 * (spec.depth + 2) * indexer.dim * indexer.m)
    return AugmentedMatrix(
        indexer, tuple(_build_factor(spec, t, indexer) for t in range(1, spec.depth + 1)))


# ---------------------------------------------------------------------------
# independent brute-force summation


def brute_force_entry(
    spec: DecompositionSpec,
    i_start: int,
    i_end: int,
    s_end: int,
    b_end=(),
) -> complex:
    """Raw summation over the d-1 inner indices with all indicators explicit.

    This is the oracle the factorizations are checked against; it shares no
    code with the factor construction.
    """
    d = spec.depth
    m = spec.space.total_dim
    check_cost("brute force", m ** (d - 1), "paths", BRUTE_FORCE_GUARD)
    b_end = tuple(b_end)
    if len(b_end) != spec.q:
        raise ValueError(f"expected {spec.q} memory values, got {len(b_end)}")
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
        mask = 0
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

    Entry [i1, ie, s, b] equals ``brute_force_entry(spec, i1, ie, s_end=s,
    b_end=decode(b)+1)``: s is the parity a path collects from an empty start,
    so a start parity s1 ends at s1 xor s.  Memory digits use base N with
    stored value v-1.  Path weights fill the (M,)*(d+1) grid by broadcasting,
    w[p_0..p_t, p_{t+1}] = w[p_0..p_t] * U_t[p_t, p_{t+1}], so each product is
    taken in path order; parities, equality keeps and memory digits broadcast
    from one length-M vector per axis.  Nonzero kept paths are binned in path
    order by ``np.bincount``, as ``np.add.at`` did, at about 33 bytes a path.
    """
    d = spec.depth
    m = spec.space.total_dim
    n = spec.space.oracle_dim
    check_cost("brute force", m ** (d + 1), "paths", BRUTE_FORCE_GUARD)
    oracle_of = spec.space.oracle_parts()

    def on_axis(vec, axis):  # a length-M vector laid along one axis of the path grid
        return vec.reshape((-1,) + (1,) * (d - axis))

    weights = spec.matrices[0]
    for t in range(1, d):
        weights = weights[..., None] * spec.matrices[t]
    keep = weights != 0
    for s, t in spec.equality_pairs:
        keep &= on_axis(oracle_of, s - 1) == on_axis(oracle_of, t - 1)
    code = np.zeros((1,) * (d + 1), dtype=np.int64)  # parity, then memory digits (Horner)
    for t in range(2, d + 1):
        if t not in spec.parity_skip:
            code = code ^ on_axis(np.where(oracle_of < spec.tracked, 1 << oracle_of, 0), t - 1)
    for r in spec.memory_positions:
        code = code * n + on_axis(oracle_of, r - 1)
    span = (1 << spec.tracked) * n**spec.q
    code = code + (on_axis(np.arange(m) * m, 0) + on_axis(np.arange(m), d)) * span
    code = np.broadcast_to(code, keep.shape)[keep]
    bins = np.empty(m * m * span, dtype=complex)
    bins.real = np.bincount(code, weights.real[keep], minlength=bins.size)
    bins.imag = np.bincount(code, weights.imag[keep], minlength=bins.size)
    return bins.reshape(m, m, 1 << spec.tracked, n**spec.q)


# ---------------------------------------------------------------------------
# verification


def verify(spec: DecompositionSpec) -> dict:
    """Construct, compare entrywise against brute force, and check the norms.

    The M * 2^tracked start rows (I, S) go through the factors in slices of about
    ``linalg.SLICE_BYTES``; each slice is compared with the brute-force bins and
    dropped, so the dense start block is never whole.  A row pushed alone is that
    row of the full product bit for bit and a maximum is exact, so the report does
    not depend on the slice size.

    Returns a report with the maximum entrywise deviation, the factor
    operator norms, the Frobenius comparison, and pass flags per guarantee.
    """
    m, n, d = spec.space.total_dim, spec.space.oracle_dim, spec.depth
    span_s, span_b = 1 << spec.tracked, n**spec.q
    indexer = _make_indexer(spec)
    dim, rows, cols = indexer.dim, m * span_s, m * span_s * span_b
    # a slice row is its push, then its dense row with got, want and got - want (16 B a
    # column each; got is dropped before |got - want| takes 8)
    per_row = max(_push_row_bytes(indexer, d), 16 * dim + 48 * cols)
    step = max(1, SLICE_BYTES // per_row)
    nnz = dim * m  # nonzeros of one factor: a row holds at most M
    # 16 KiB of fixed overhead (objects and small arrays) and the factors (20 B a nonzero)
    # stay throughout; next to them peaks the brute force (at most 64 B a path, 32 B a
    # bin), the bins with the empty-start rows and one slice, or one factor's block norms:
    # ~150 B a nonzero, which also covers building a factor, and a dense block of up to
    # 2M nodes (16 B an entry)
    check_cost("verify", (1 << 14) + 20 * d * nnz + max(
        64 * m ** (d + 1) + 32 * m * cols,
        16 * m * (cols + dim) + min(step, rows) * per_row,
        150 * nnz + 64 * m * m))
    built = decompose_improved(spec)
    # laid out (I_start, S, I_end, B), so that each slice's want is one contiguous gather
    bins = np.ascontiguousarray(brute_force_tensor(spec).transpose(0, 2, 1, 3))

    # columns (S_end, I_end) with empty A and B holding value + 1
    b_values = np.unravel_index(np.arange(span_b), (n,) * spec.q) if spec.q else ()
    col_index = np.ravel(indexer.encode(
        np.arange(m)[:, None], np.arange(span_s)[:, None, None], b_digits=[v + 1 for v in b_values]
    ))
    empty = np.empty((m, dim), dtype=complex)  # rows (I, S = empty): the empty-start block

    def slice_deviation(lo):
        i1, s1 = np.divmod(np.arange(lo, min(lo + step, rows)), span_s)
        block = built._rows(i1, s1)
        first = -lo % span_s  # the slice's rows with S = empty, as a view
        empty[i1[first::span_s]] = block[first::span_s]
        # path parity s satisfies s_end = s1 ^ s; want is laid out (row, S_end, I_end, B)
        want = bins[i1[:, None], s1[:, None] ^ np.arange(span_s)]
        return np.max(np.abs(block.take(col_index, axis=1) - want.reshape(i1.size, -1)))

    max_dev = float(np.max([slice_deviation(lo) for lo in range(0, rows, step)]))
    block_frob = frobenius_norm(empty)
    del empty, bins  # not held through the factor norms

    factor_norms = built.factor_operator_norms()
    min_input_frob = min(frobenius_norm(u) for u in spec.matrices)

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
        "entries_pass": bool(max_dev <= MATCH_TOL),
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
    if max_aug_dim < 2:  # the smallest draw (M = 2, nothing tracked) has dimension 2
        raise ValueError(f"max_aug_dim must be >= 2, got {max_aug_dim}")
    while True:
        d = int(rng.integers(1, 5))
        n_dim = int(rng.choice([2, 4]))
        w_dim = int(rng.choice([1, 2]))
        m = n_dim * w_dim
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
        if AugmentedIndexer(m, tracked, p, q, n_dim + 1).dim > max_aug_dim:
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
    """All Fourier coefficients of a BQP or DQCK acceptance read off the factorization.

    The closed-form matrices are decomposed with full parity tracking over
    the free coordinates; the coefficient at S is the normalized sum of the
    diagonal boundary entries whose recorded parity is S corrected by the
    first index's own contribution.
    """
    if spec.model is Model.HALF_BQP:
        raise ValueError("decomposition read-off applies to the BQP and DQCK trace forms")
    vs, free_count, _, _ = spec.restricted_chain(rho)
    chain = DecompositionSpec(spec.space, tuple(vs), tracked=free_count)
    built = decompose_improved(chain)
    m = spec.space.total_dim
    dense = built.empty_start_block()  # rows I_1, columns (I, S)
    s_ends = np.arange(1 << free_count) ^ chain.parity_toggles[:, None]
    cols = built.indexer.encode(np.arange(m)[:, None], s_ends)
    coeffs = dense[np.arange(m)[:, None], cols].sum(axis=0)
    coeffs /= spec.start_indices().size
    if np.max(np.abs(coeffs.imag)) > IMAG_TOL:
        raise ValueError("decomposition read-off produced non-real coefficients")
    return _fourier.FourierSpectrum(free_count, coeffs.real)
