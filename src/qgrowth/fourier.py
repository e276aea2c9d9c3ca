"""Exact Fourier spectra, level growth, structured sign families, direct oracles.

Mask conventions: a subset S of the variables is a bitmask; variable j is the
j-th free coordinate of the (possibly restricted) function in increasing
coordinate order.  Input masks follow the same convention: bit j of the input
index set means the j-th variable equals -1.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import ResourceLimitError
from .linalg import IMAG_TOL, MAX_QUBITS, check_table_size, f2_inner
from .models import AlgorithmSpec, Model, Restriction, truth_table

#: Feasibility guard for the direct-summation coefficient oracles.
DIRECT_SUM_GUARD = 10**7
#: Most index tuples one direct-summation block spans.
_DIRECT_BLOCK = 1 << 16
#: Largest working set, in bytes, of the level-3 block extractor.
BLOCK_TENSOR_GUARD = 1 << 30
#: Rounding slack on the |gamma_i| <= 1 bound of the structured sign families.
GAMMA_SLACK = 1e-12


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform; out[S] = sum_m in[m] (-1)^|m & S|."""
    src = np.array(values, dtype=float, copy=True)
    size = src.size
    if size & (size - 1):
        raise ValueError(f"transform length must be a power of two, got {size}")
    dst = np.empty_like(src)
    width = 1
    while width < size:
        if 2 * width < size:  # butterflies (a, b) -> (a + b, a - b) on bits width, 2 * width
            a, o = src.reshape(-1, 2, 2, width), dst.reshape(-1, 2, 2, width)
            low = [(a[:, h, 0] + a[:, h, 1], a[:, h, 0] - a[:, h, 1]) for h in (0, 1)]
            for j in (0, 1):
                np.add(low[0][j], low[1][j], out=o[:, 0, j])
                np.subtract(low[0][j], low[1][j], out=o[:, 1, j])
            width *= 4
        else:
            a, o = src.reshape(2, width), dst.reshape(2, width)
            np.add(a[0], a[1], out=o[0])
            np.subtract(a[0], a[1], out=o[1])
            width *= 2
        src, dst = dst, src
    return src


@dataclass(frozen=True)
class FourierSpectrum:
    """All 2^num_vars Fourier coefficients of a real function of num_vars bits."""

    num_vars: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (1 << self.num_vars,):
            raise ValueError(
                f"expected {1 << self.num_vars} coefficients, got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)


def spectrum_from_table(table: np.ndarray) -> FourierSpectrum:
    """Spectrum of a 2^F truth table (entry m at input mask m).

    An even table, f(-x) = f(x), with no sign bit set (unrestricted acceptance
    tables) is transformed at half size: the full butterfly's last pass would
    add (-1)^|S| A to A, A the lower half's transform, so coefficient S is
    exactly 2 A[S mod 2^(F-1)] / 2^F for even |S| and +0.0 for odd |S|.  A -0.0
    entry could flip a zero coefficient's sign, hence the sign-bit test."""
    table = np.asarray(table, dtype=float)
    num_vars = int(table.size - 1).bit_length()
    if table.size != 1 << num_vars:
        raise ValueError(f"table length {table.size} is not a power of two")
    half = table.size // 2
    if half and np.array_equal(table[half:], table[:half][::-1]) and not np.signbit(table).any():
        lower = 2.0 * fwht(table[:half])
        odd = _subset_sizes(num_vars - 1) & 1
        coeffs = np.concatenate([np.where(odd, 0.0, lower), np.where(odd, lower, 0.0)])
    else:
        coeffs = fwht(table)
    return FourierSpectrum(num_vars, coeffs / table.size)


def spectrum_of_algorithm(
    spec: AlgorithmSpec,
    rho: Optional[Restriction] = None,
    workers: int = 1,
) -> FourierSpectrum:
    """Spectrum of the acceptance probability, over the free coordinates of rho."""
    return spectrum_from_table(truth_table(spec, rho, workers=workers))


def restrict_spectrum(sp: FourierSpectrum, rho: Restriction) -> FourierSpectrum:
    """Fold fixed variables out of a spectrum (the algebraic restriction).

    Returns the spectrum of f|_rho over the free coordinates: fixing variable
    i to r merges coefficient pairs as c[S] + r * c[S + {i}].
    """
    if len(rho) != sp.num_vars:
        raise ValueError(f"restriction length {len(rho)} != num_vars {sp.num_vars}")
    coeffs = sp.coeffs
    for coord in sorted(rho.fixed_indices.tolist(), reverse=True):
        value = float(rho.pattern[coord])
        block = coeffs.reshape(-1, 2, 1 << coord)
        coeffs = (block[:, 0, :] + value * block[:, 1, :]).reshape(-1)
    return FourierSpectrum(sp.num_vars - rho.fixed_indices.size, coeffs)


def embed_spectrum(sp: FourierSpectrum, rho: Restriction) -> FourierSpectrum:
    """Re-index a free-coordinate spectrum over the original coordinates.

    Inverse renumbering of :func:`restrict_spectrum`: coefficients land on the
    subsets of rho's free coordinates; subsets touching fixed coordinates are
    zero (the restricted function does not depend on them).
    """
    free = rho.free_indices
    if sp.num_vars != free.size:
        raise ValueError(f"spectrum has {sp.num_vars} variables, restriction frees {free.size}")
    check_table_size(len(rho))
    coeffs = np.zeros(1 << len(rho))
    coeffs[rho.embed_masks()] = sp.coeffs
    return FourierSpectrum(len(rho), coeffs)


def growth(sp: FourierSpectrum, level: int) -> float:
    """l1 norm of the level-`level` Fourier coefficients.

    Levels above num_vars have no subsets, so the sum is empty and zero.
    """
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if level > sp.num_vars:
        return 0.0
    return float(np.sum(np.abs(sp.coeffs[_subset_sizes(sp.num_vars) == level])))


@lru_cache(maxsize=MAX_QUBITS + 1)
def _subset_sizes(num_vars: int) -> np.ndarray:
    """Read-only popcount of every mask over ``num_vars`` variables (uint8,
    1 MB at 2^20), shared by every ``growth`` call at that size."""
    counts = np.bitwise_count(np.arange(1 << num_vars))
    counts.setflags(write=False)
    return counts


# ---------------------------------------------------------------------------
# sign families


class SignKind(Enum):
    ALPHA_GAMMA = "alpha_gamma"
    BETA_GAMMA = "beta_gamma"


@dataclass(frozen=True)
class SignFamily:
    """Set-indexed signs in [-1, 1]: the structured three-block families
    built from a gamma vector."""

    kind: SignKind
    level: int
    num_vars: int
    gamma: np.ndarray

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.shape != (self.num_vars,):
            raise ValueError("gamma vector length must equal num_vars")
        if not np.all(np.abs(gamma) <= 1 + GAMMA_SLACK):  # NaN included
            raise ValueError("gamma entries must lie in [-1, 1]")
        if self.num_vars % 3:
            raise ValueError("structured sign families need num_vars divisible by 3")
        want = 3 if self.kind is SignKind.ALPHA_GAMMA else 6
        if self.level != want:
            raise ValueError(f"{self.kind.value} requires level {want}")
        object.__setattr__(self, "gamma", gamma)

    @cached_property
    def table(self) -> tuple:
        """Read-only (masks, weights): the subsets the family can weigh nonzero
        and their signs, so signed growth is ``weights @ coeffs[masks]``.

        ALPHA takes one element per block and weighs {a, b, c} by
        ``_alpha_tensor``; BETA takes two elements per block, pairs them in
        sorted order and weighs the set by the product of the two alphas."""
        block = self.num_vars // 3
        bits = (np.int64(1) << np.arange(self.num_vars, dtype=np.int64)).reshape(3, block)
        alpha = _alpha_tensor(self.gamma)
        if self.kind is SignKind.BETA_GAMMA:
            low, high = np.triu_indices(block, 1)
            bits = bits[:, low] | bits[:, high]
            alpha = alpha[np.ix_(low, low, low)] * alpha[np.ix_(high, high, high)]
        masks = bits[0][:, None, None] | bits[1][None, :, None] | bits[2][None, None, :]
        masks, weights = masks.reshape(-1), alpha.reshape(-1)
        masks.setflags(write=False)
        weights.setflags(write=False)
        return masks, weights


def _alpha_tensor(gamma: np.ndarray) -> np.ndarray:
    """The (B, B, B) level-3 structured signs over block-local indices:
    alpha[a, b, c] = (-1)^(<b,a> + <b,c>) * gamma_a * gamma_{B+b} * gamma_{2B+c},
    the middle block's Hadamard signs against the outer two."""
    idx = np.arange(gamma.size // 3)
    hbar = np.where(f2_inner(idx[:, None], idx), -1.0, 1.0)
    ga, gb, gc = gamma.reshape(3, -1)
    return np.einsum("ba,bc,a,b,c->abc", hbar, hbar, ga, gb, gc)


def signed_growth(sp: FourierSpectrum, signs: SignFamily) -> float:
    """sum over level-`signs.level` subsets of sign(S) * coeff(S)."""
    if signs.num_vars != sp.num_vars:
        raise ValueError(
            f"sign family is over {signs.num_vars} variables, spectrum over {sp.num_vars}"
        )
    masks, weights = signs.table
    return float(weights @ sp.coeffs[masks])


# ---------------------------------------------------------------------------
# direct-summation coefficient oracles


def direct_restricted_spectrum(
    spec: AlgorithmSpec, rho: Optional[Restriction] = None
) -> FourierSpectrum:
    """Direct-summation spectrum of the restricted acceptance probability.

    All Fourier coefficients, by raw summation of the closed-form expressions
    (independent of the transform pipeline).  Index order matches
    :func:`spectrum_of_algorithm`: variable j is the j-th free coordinate in
    increasing order.  Bin S collects tuples whose free phase indices have
    symmetric difference S.

    A tuple is a closed path I_0 ... I_{L-1} I_0 through the L matrices,
    weighted by V_0[I_0, I_1] ... V_{L-1}[I_{L-1}, I_0] (HALF_BQP also by
    F[I_0, I_{d+1}]), and the sum is divided by the model's start count |S|.
    A tuple's bin depends only on its path of oracle coordinates, so each V_t
    (and F) is viewed as an (N, P, N, P) tensor over (coordinate, position)
    pairs, P = W*K, and one ``np.einsum`` around the ring sums the positions
    out of every coordinate path.  Slices of at most 2^16 paths fix a prefix
    of leading coordinates; the greedy contraction order, found once, keeps
    every intermediate within 2^16 entries.  A slice's parity masks are an
    XOR broadcast of per-slot bits, and two ``np.bincount`` calls (real and
    imaginary parts) add it into the bins."""
    vs, free_count, skip, old_of_new = spec.restricted_chain(rho)
    m, n, count = spec.space.total_dim, spec.space.oracle_dim, len(vs)
    if m**count > DIRECT_SUM_GUARD:
        raise ResourceLimitError(
            f"direct summation needs {m**count} tuples, guard is {DIRECT_SUM_GUARD}"
        )
    check_table_size(free_count)
    bit = np.int64(1) << np.arange(n)
    bit[free_count:] = 0
    slot_bits = [np.zeros(n, dtype=np.int64) if t in skip else bit for t in range(count)]
    # coordinates of slots before `prefix` are fixed per slice, the rest are its axes
    prefix = 0
    while n ** (count - prefix) > _DIRECT_BLOCK:
        prefix += 1
    masks = np.zeros((), dtype=np.int64)
    for t in range(prefix, count):
        masks = masks[..., None] ^ slot_bits[t]
    masks = masks.reshape(-1)
    # (tensor, row slot, column slot) around the ring; HALF_BQP's accept joins slots 0 and d+1
    grid = (n, m // n, n, m // n)
    ring = [(vs[t].reshape(grid), t, (t + 1) % count) for t in range(count)]
    if spec.model is Model.HALF_BQP:
        ring.append((spec.accept[old_of_new][:, old_of_new].reshape(grid), 0, spec.d + 1))
    # M >= 2 and the guard keep L <= 23, so the 2L letters fit in ascii_letters
    pos, coord = string.ascii_letters[:count], string.ascii_letters[count : 2 * count]
    out = coord[prefix:]
    axes = [""] * prefix + list(out)
    subscripts = ",".join(axes[a] + pos[a] + axes[b] + pos[b] for _, a, b in ring) + "->" + out
    plan = None  # every slice has the same shapes, so the first one's order serves all
    bins = np.zeros(1 << free_count, dtype=complex)
    for path in np.ndindex((n,) * prefix):
        at = list(path) + [slice(None)] * (count - prefix)
        operands = [mat[at[a], :, at[b]] for mat, a, b in ring]
        plan = plan or np.einsum_path(subscripts, *operands, optimize=("greedy", _DIRECT_BLOCK))[0]
        w = np.einsum(subscripts, *operands, optimize=plan).reshape(-1)
        block = masks ^ np.bitwise_xor.reduce([0] + [slot_bits[t][c] for t, c in enumerate(path)])
        bins.real += np.bincount(block, w.real, minlength=bins.size)
        bins.imag += np.bincount(block, w.imag, minlength=bins.size)
    bins /= spec.start_indices().size
    if np.max(np.abs(bins.imag)) > IMAG_TOL:
        raise ValueError("direct coefficient sums came out non-real")
    return FourierSpectrum(free_count, bins.real)


# ---------------------------------------------------------------------------
# level-3 block coefficients for the mixed-start-with-revealed-outcome model


def hbqp_level3_block_tensor(spec: AlgorithmSpec, rho: Restriction) -> np.ndarray:
    """Level-3 coefficients f-hat({a, b, c}) with one index per block, for a
    2-query HALF_BQP algorithm over 3B input bits, as a (B, B, B) tensor of
    block-local indices.

    Works at sizes where the full truth table is far out of reach.  With
    V1..V6 = ``AlgorithmSpec.formula_matrices`` and F = ``accept``, M times the
    acceptance sums F[x, y] V1[x, p] x_p V2[p, q] x_q V3[q, y] V4[y, r] x_r
    V5[r, t] x_t V6[t, x] over positions, x_p the bit of p's coordinate.  The
    phases multiply to x_a x_b x_c, for distinct free a, b, c, only when three
    slots carry the letters and the fourth a fixed coordinate j, weighted
    rho_j.  The chain is self-adjoint (V6 = V1^dagger, V5 = V2^dagger,
    V4 = V3^dagger) and F is real, so the conjugate of a term with slot t fixed
    is a term with slot p fixed, the letters relabeled, and slot r likewise
    pairs with slot q: the tensor is twice the real part of the p and q terms.
    With D = rho_j on fixed positions and 0 on free ones, each is a sum over x
    of factor[x, u] K[x, u, v] V6[t, x] V5[v, t], where
    K[x, u, v] = sum_y F[x, y] X[u, y] V4[y, v] and (X, factor) is (V3, V1 D V2)
    for slot p and (V2 D V3, V1) for slot q.  Only products whose three kept
    slots u, v, t lie in three different blocks are formed: per u-block, K is
    one real GEMM over v in the two other blocks (F is 0/1, so the complex
    operand is viewed as real), and each of the two choices of v's block is one
    x-sum GEMM onto a (B W)^3 block, W positions a coordinate, whose letters'
    W positions are summed into the tensor.

    A working set above ``BLOCK_TENSOR_GUARD`` bytes is refused before the
    first product.
    """
    if spec.model is not Model.HALF_BQP:
        raise ValueError("level-3 block tensor applies to HALF_BQP algorithms")
    if spec.d != 2:
        raise ValueError("level-3 block tensor is implemented for d = 2")
    n = spec.num_inputs
    if n % 3:
        raise ValueError("three-block structure needs input length divisible by 3")
    rho = spec.restriction(rho)
    m = spec.space.total_dim
    wk, size = m // n, m // 3  # positions per coordinate, per block
    need = 64 * m * size**2  # K and its GEMM operand, 2 M size^2 complex each
    if need > BLOCK_TENSOR_GUARD:
        raise ResourceLimitError(
            f"level-3 block tensor needs {need} bytes, guard is {BLOCK_TENSOR_GUARD}"
        )
    v1, v2, v3, v4, v5, v6 = spec.formula_matrices
    fixed = np.repeat(rho.pattern.astype(float), wk)[:, None]  # rho_j on fixed rows, 0 on free
    accept = spec.accept.astype(float)
    blocks = [slice(b * size, (b + 1) * size) for b in range(3)]
    tensor = np.zeros((n // 3,) * 3)
    # buffers reused by every product, so each is faulted in once: one u-block's
    # K as [x, u, other block, v], and one GEMM operand (X[u, y] V4[y, v], then
    # an x sum's (M, size, size) factor, in its first half)
    k = np.empty((m, size, 2, size), dtype=complex)
    scratch = np.empty(2 * m * size**2, dtype=complex)
    z = scratch.reshape(m, size, 2, size)
    h = scratch[: m * size**2].reshape(m, size, size)
    prod = np.empty((size, size**2), dtype=complex)
    terms = ((v3, v1 @ (fixed * v2)), (v2 @ (fixed * v3), v1))  # (X, factor): slots p, q
    for u in range(3):
        others = [b for b in range(3) if b != u]
        for left, factor in terms:
            np.multiply(left[blocks[u]].T[:, :, None, None],
                        v4.reshape(m, 3, size)[:, None, others], out=z)
            np.matmul(accept, z.view(float).reshape(m, -1), out=k.view(float).reshape(m, -1))
            for i, v in enumerate(others):
                t = others[1 - i]
                np.multiply(factor[:, blocks[u], None], k[:, :, i], out=h)
                np.matmul(v6[blocks[t]], h.reshape(m, -1), out=prod)
                part = prod.reshape((size,) * 3)  # axes (t, u, v)
                part *= v5[blocks[v], blocks[t]].T[:, None, :]
                part = part.real.reshape(n // 3, wk, n // 3, wk, n // 3, wk).sum(axis=(1, 3, 5))
                tensor += part.transpose(np.argsort((t, u, v)))
    free = (rho.pattern == 0).reshape(3, -1)
    return 2 / m * tensor * free[0][:, None, None] * free[1][:, None] * free[2]


def hbqp_alpha_signed_growth(
    spec: AlgorithmSpec, rho: Restriction, gamma: np.ndarray
) -> float:
    """Signed level-3 growth against the structured alpha family, computed from
    the block coefficient tensor (no truth table)."""
    signs = SignFamily(SignKind.ALPHA_GAMMA, 3, spec.num_inputs, gamma=gamma)
    tensor = hbqp_level3_block_tensor(spec, rho)
    return float(np.sum(_alpha_tensor(signs.gamma) * tensor))
