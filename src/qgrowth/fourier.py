"""Exact Fourier spectra, level growth, structured sign families, direct oracles.

Mask conventions: a subset S of the variables is a bitmask; variable j is the
j-th free coordinate of the (possibly restricted) function in increasing
coordinate order.  Input masks follow the same convention: bit j of the input
index set means the j-th variable equals -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Optional

import numpy as np

from .errors import ResourceLimitError
from .linalg import IMAG_TOL, MAX_QUBITS, check_table_size, f2_inner
from .models import AlgorithmSpec, Model, Restriction, truth_table

#: Feasibility guard for the direct-summation coefficient oracles.
DIRECT_SUM_GUARD = 10**7
#: Most index tuples one direct-summation block spans.
_DIRECT_BLOCK = 1 << 16
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

    All Fourier coefficients, by raw summation over index tuples of the
    closed-form expressions (independent of the transform pipeline).  Index
    order matches :func:`spectrum_of_algorithm`: variable j is the j-th free
    coordinate in increasing order.  Bin S collects tuples whose free phase
    indices have symmetric difference S.

    A tuple is a closed path I_0 ... I_{L-1} I_0 through the L matrices,
    weighted by V_0[I_0, I_1] ... V_{L-1}[I_{L-1}, I_0] (HALF_BQP also by
    F[I_0, I_{d+1}]), and the sum is divided by the model's start count |S|.
    The tuples are enumerated by broadcasting, in blocks of at most 2^16:
    each block fixes a prefix of leading indices and spans the rest as one
    tensor, built left to right as ``w[..., None] * V_t``.  Its parity masks
    are an XOR broadcast of per-slot bits, and two ``np.bincount`` calls (real
    and imaginary parts) add the block into the bins."""
    vs, free_count, skip, old_of_new = spec.restricted_chain(rho)
    m = spec.space.total_dim
    count = len(vs)
    tuple_count = m**count
    if tuple_count > DIRECT_SUM_GUARD:
        raise ResourceLimitError(
            f"direct summation needs {tuple_count} tuples, guard is {DIRECT_SUM_GUARD}"
        )
    oracle_of = spec.space.oracle_parts()
    bit = np.where(oracle_of < free_count, np.int64(1) << oracle_of, 0)
    slot_bits = [np.zeros(m, dtype=np.int64) if t in skip else bit for t in range(count)]
    # slots before `prefix` are fixed per block, the rest are the block's axes
    prefix = 1
    while m ** (count - prefix) > _DIRECT_BLOCK:
        prefix += 1
    masks = np.zeros((), dtype=np.int64)
    for t in range(prefix, count):
        masks = masks[..., None] ^ slot_bits[t]
    masks = masks.reshape(-1)
    if spec.model is Model.HALF_BQP:
        # accept[I_0, I_{d+1}] as a column on slot d+1's block axis: the guard
        # keeps M^(d+1) <= sqrt(DIRECT_SUM_GUARD) < 2^16, so no block fixes it
        tail = (1,) * (count - 2 - spec.d)
        accept = spec.accept[old_of_new][:, old_of_new].reshape((m, m) + tail)
    bins = np.zeros(1 << free_count, dtype=complex)
    for path in np.ndindex((m,) * prefix):
        w = 1.0
        for t in range(prefix - 1):
            w = w * vs[t][path[t], path[t + 1]]
        w = w * vs[prefix - 1][path[prefix - 1]]
        for t in range(prefix, count - 1):
            w = w[..., None] * vs[t]
        w = w * vs[-1][:, path[0]]
        if spec.model is Model.HALF_BQP:
            w = w * accept[path[0]]
        fixed = 0
        for t in range(prefix):
            fixed ^= int(slot_bits[t][path[t]])
        w = w.reshape(-1)
        block = masks ^ fixed
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

    Works at sizes where the full truth table is far out of reach.  The
    acceptance sums index tuples that carry x at four phase slots: the rows
    of V2, V3, V5 and V6 of ``AlgorithmSpec.formula_matrices``.  Their
    phases multiply to x_a x_b x_c, for distinct free a, b, c, only when
    three slots carry the letters and the fourth carries a fixed coordinate
    j, weighted rho_j.  So each fixed slot is one contraction that keeps the
    other three slots' oracle indices in slot order, with the fixed slot's
    rows weighted rho_j at fixed coordinates and zeroed at free ones.  The
    sum over fixed slots is added over the six orders of its axes, since a
    coefficient does not depend on which slot holds which letter.
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
    wk = m // n
    fixed = np.repeat(rho.pattern.astype(float), wk)[:, None]  # rho_j on fixed rows, 0 on free
    accept = spec.accept.astype(float)
    shapes = ((m, n, wk), (n, wk, n, wk), (n, wk, m)) * 2
    out = np.zeros((n, n, n))
    for row, kept in ((1, "QRT"), (2, "PRT"), (4, "PQT"), (5, "PQR")):
        mats = [fixed * mat if t == row else mat for t, mat in enumerate(spec.formula_matrices)]
        operands = [mat.reshape(shape) for mat, shape in zip(mats, shapes)]
        # numpy caps intermediates at the largest operand by default, which at
        # W > 1 forces a 6-way loop; three letters and a work pair fit n^3 W^2
        out += np.einsum("xy,xPU,PUQV,QVy,yRS,RSTW,TWx->" + kept, accept, *operands,
                         optimize=("greedy", n**3 * wk**2)).real
    out = sum(out.transpose(order) for order in permutations(range(3))) / m
    free = (rho.pattern == 0).reshape(3, -1)
    tensor = out.reshape(3, n // 3, 3, n // 3, 3, n // 3)[0, :, 1, :, 2]
    return tensor * free[0][:, None, None] * free[1][:, None] * free[2]


def hbqp_alpha_signed_growth(
    spec: AlgorithmSpec, rho: Restriction, gamma: np.ndarray
) -> float:
    """Signed level-3 growth against the structured alpha family, computed from
    the block coefficient tensor (no truth table)."""
    signs = SignFamily(SignKind.ALPHA_GAMMA, 3, spec.num_inputs, gamma=gamma)
    tensor = hbqp_level3_block_tensor(spec, rho)
    return float(np.sum(_alpha_tensor(signs.gamma) * tensor))
