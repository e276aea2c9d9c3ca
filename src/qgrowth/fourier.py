"""Exact Fourier spectra, level growth, structured sign families, direct oracles.

Mask conventions: a subset S of the variables is a bitmask; variable j is the
j-th free coordinate of the (possibly restricted) function in increasing
coordinate order.  Input masks follow the same convention: bit j of the input
index set means the j-th variable equals -1.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Optional

import numpy as np

from .errors import (
    ParameterError,
    ResourceLimitError,
    ShapeError,
    SpecificationError,
    ValidationError,
)
from .linalg import IMAG_TOL, MAX_QUBITS, f2_inner, sign_hadamard
from .models import AlgorithmSpec, Model, Restriction, formula_matrices, truth_table

#: Feasibility guard for the direct-summation coefficient oracles.
DIRECT_SUM_GUARD = 10**7


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform; out[S] = sum_m in[m] (-1)^|m & S|."""
    out = np.array(values, dtype=float, copy=True)
    size = out.size
    if size & (size - 1):
        raise ShapeError(f"transform length must be a power of two, got {size}")
    width = 1
    while width < size:
        out = out.reshape(-1, 2, width)
        top = out[:, 0, :] + out[:, 1, :]
        bottom = out[:, 0, :] - out[:, 1, :]
        out = np.stack([top, bottom], axis=1).reshape(-1)
        width *= 2
    return out


def level_masks(num_vars: int, level: int):
    """All subset bitmasks of the given size, ascending."""
    for combo in combinations(range(num_vars), level):
        mask = 0
        for pos in combo:
            mask |= 1 << pos
        yield mask


@dataclass(frozen=True)
class FourierSpectrum:
    """All 2^num_vars Fourier coefficients of a real function of num_vars bits."""

    num_vars: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (1 << self.num_vars,):
            raise ShapeError(
                f"expected {1 << self.num_vars} coefficients, got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def table(self) -> np.ndarray:
        """Inverse transform back to the truth table."""
        return fwht(self.coeffs)

    def mean_square(self) -> float:
        """sum_S coeff[S]^2; equals the mean of f^2 by Parseval."""
        return float(np.sum(self.coeffs**2))


def spectrum_from_table(table: np.ndarray) -> FourierSpectrum:
    table = np.asarray(table, dtype=float)
    num_vars = int(table.size - 1).bit_length()
    if table.size != 1 << num_vars:
        raise ShapeError(f"table length {table.size} is not a power of two")
    return FourierSpectrum(num_vars, fwht(table) / table.size)


def spectrum(f: Callable[[np.ndarray], float], num_vars: int) -> FourierSpectrum:
    """Exact spectrum of an evaluator on +/-1 vectors, via the full truth table."""
    if num_vars > MAX_QUBITS:
        raise ResourceLimitError(f"{num_vars} variables exceed the 2^{MAX_QUBITS} table cap")
    size = 1 << num_vars
    table = np.empty(size, dtype=float)
    shifts = np.arange(num_vars)
    for mask in range(size):
        bits = (mask >> shifts) & 1
        table[mask] = f(np.where(bits == 0, 1.0, -1.0))
    return spectrum_from_table(table)


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
        raise ShapeError(f"restriction length {len(rho)} != num_vars {sp.num_vars}")
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
        raise ShapeError(
            f"spectrum has {sp.num_vars} variables, restriction frees {free.size}"
        )
    if len(rho) > MAX_QUBITS:
        raise ResourceLimitError(f"embedding over {len(rho)} variables exceeds cap")
    coeffs = np.zeros(1 << len(rho))
    coeffs[rho.embed_masks()] = sp.coeffs
    return FourierSpectrum(len(rho), coeffs)


def growth(sp: FourierSpectrum, level: int) -> float:
    """l1 norm of the level-`level` Fourier coefficients.

    Levels above num_vars have no subsets, so the sum is empty and zero.
    """
    if level < 0:
        raise ParameterError(f"level must be nonnegative, got {level}")
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
    GENERIC = "generic"
    ALPHA_GAMMA = "alpha_gamma"
    BETA_GAMMA = "beta_gamma"


@dataclass(frozen=True)
class SignFamily:
    """Set-indexed signs in [-1, 1]: a generic map, or the structured
    three-block families built from a gamma vector."""

    kind: SignKind
    level: int
    num_vars: int
    values: Optional[dict] = None
    gamma: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind is SignKind.GENERIC:
            if self.values is None:
                raise SpecificationError("generic sign family needs a mask -> value map")
            for mask, val in self.values.items():
                if abs(val) > 1 + 1e-12:
                    raise ValidationError(f"sign magnitude exceeds 1 at mask {mask}")
                if bin(mask).count("1") != self.level:
                    raise SpecificationError(f"mask {mask:b} is not level {self.level}")
        else:
            gamma = np.asarray(self.gamma, dtype=float)
            if gamma.shape != (self.num_vars,):
                raise ShapeError("gamma vector length must equal num_vars")
            if np.any(np.abs(gamma) > 1 + 1e-12):
                raise ValidationError("gamma entries must lie in [-1, 1]")
            if self.num_vars % 3:
                raise SpecificationError("structured sign families need num_vars divisible by 3")
            want = 3 if self.kind is SignKind.ALPHA_GAMMA else 6
            if self.level != want:
                raise SpecificationError(f"{self.kind.value} requires level {want}")
            object.__setattr__(self, "gamma", gamma)

    @property
    def block_size(self) -> int:
        return self.num_vars // 3

    def sign(self, mask: int) -> float:
        if self.kind is SignKind.GENERIC:
            return float(self.values.get(mask, 0.0))
        if self.kind is SignKind.ALPHA_GAMMA:
            return alpha_gamma(self, mask)
        return beta_gamma(self, mask)


def _block_split(mask: int, block: int):
    """Set bits of the mask grouped into the three blocks, block-local values."""
    groups = ([], [], [])
    pos = 0
    while mask:
        if mask & 1:
            groups[pos // block].append(pos % block)
        mask >>= 1
        pos += 1
    return groups


def _alpha_value(signs: SignFamily, a: int, b: int, c: int) -> float:
    block = signs.block_size
    sgn = -1.0 if (f2_inner(b, a) ^ f2_inner(b, c)) else 1.0
    return sgn * signs.gamma[a] * signs.gamma[block + b] * signs.gamma[2 * block + c]


def alpha_gamma(signs: SignFamily, mask: int) -> float:
    """Level-3 structured sign: nonzero only with one element per block; then
    the product of two Hadamard signs (middle block against the outer two)
    and the three gamma entries."""
    if signs.kind is not SignKind.ALPHA_GAMMA:
        raise SpecificationError("alpha_gamma needs an ALPHA_GAMMA family")
    if bin(mask).count("1") != 3:
        raise SpecificationError("alpha_gamma takes level-3 masks")
    groups = _block_split(mask, signs.block_size)
    if any(len(g) != 1 for g in groups):
        return 0.0
    return _alpha_value(signs, groups[0][0], groups[1][0], groups[2][0])


def beta_gamma(signs: SignFamily, mask: int) -> float:
    """Level-6 structured sign: two elements per block, canonicalized in sorted
    block order, valued as the product of the two level-3 signs."""
    if signs.kind is not SignKind.BETA_GAMMA:
        raise SpecificationError("beta_gamma needs a BETA_GAMMA family")
    if bin(mask).count("1") != 6:
        raise SpecificationError("beta_gamma takes level-6 masks")
    groups = _block_split(mask, signs.block_size)
    if any(len(g) != 2 for g in groups):
        return 0.0
    (a1, a2), (b1, b2), (c1, c2) = (sorted(g) for g in groups)
    return _alpha_value(signs, a1, b1, c1) * _alpha_value(signs, a2, b2, c2)


def signed_growth(sp: FourierSpectrum, signs: SignFamily) -> float:
    """sum over level-`signs.level` subsets of sign(S) * coeff(S)."""
    if signs.num_vars != sp.num_vars:
        raise SpecificationError(
            f"sign family is over {signs.num_vars} variables, spectrum over {sp.num_vars}"
        )
    total = 0.0
    for mask in level_masks(sp.num_vars, signs.level):
        coeff = sp.coeffs[mask]
        if coeff:
            total += signs.sign(mask) * coeff
    return float(total)


def maximizing_signs(sp: FourierSpectrum, level: int) -> SignFamily:
    """The generic sign family alpha_S = sign(coeff_S) attaining the growth."""
    values = {
        mask: float(np.sign(sp.coeffs[mask])) for mask in level_masks(sp.num_vars, level)
    }
    return SignFamily(SignKind.GENERIC, level, sp.num_vars, values=values)


# ---------------------------------------------------------------------------
# direct-summation coefficient oracles


def _restricted_chain(spec: AlgorithmSpec, rho: Optional[Restriction]):
    """Prefix-relabeled bounded-norm matrices with the restriction baked in.

    The oracle coordinates are relabeled so the free ones come first
    (ascending each).  Returns (matrices, free_count, skip, old_of_new):
    positions in ``skip`` (zero-based within the matrix list) contribute no
    input phase, and ``old_of_new[new_flat]`` is the original composite index.
    """
    n = spec.num_inputs
    if rho is None:
        rho = Restriction.all_free(n)
    if len(rho) != n:
        raise ShapeError(f"restriction length {len(rho)} != input length {n}")
    order = np.concatenate([rho.free_indices, rho.fixed_indices])
    wk = spec.space.work_dim * spec.space.clean_dim
    flats = np.arange(spec.space.total_dim)
    old_of_new = order[flats // wk] * wk + flats % wk
    vs = [mat[np.ix_(old_of_new, old_of_new)] for mat in formula_matrices(spec)]
    damp = np.where(rho.pattern == 0, 1, rho.pattern).astype(float)[old_of_new // wk]

    if spec.model is Model.DQCK:
        vs = [damp[:, None] * mat for mat in vs]
        skip = set()
    elif spec.model is Model.BQP:
        vs = [vs[0]] + [damp[:, None] * mat for mat in vs[1:]]
        skip = {0}
    else:
        d = spec.d
        vs = [
            mat if t in (0, d + 1) else damp[:, None] * mat for t, mat in enumerate(vs)
        ]
        skip = {0, d + 1}
    return vs, int(rho.free_indices.size), skip, old_of_new


def _direct_bins(spec: AlgorithmSpec, rho: Optional[Restriction]) -> np.ndarray:
    """All Fourier coefficients of the restricted acceptance, by raw summation
    over index tuples of the closed-form expressions (independent of the
    transform pipeline).  Bin S collects tuples whose free phase indices have
    symmetric difference S."""
    vs, free_count, skip, old_of_new = _restricted_chain(spec, rho)
    m = spec.space.total_dim
    d = spec.d
    if spec.model is Model.BQP:
        summed = 2 * d  # inner indices; both endpoints pinned to old basis state 0
        cyclic = False
    elif spec.model is Model.DQCK:
        summed = 2 * d
        cyclic = True
    else:
        summed = 2 * d + 2
        cyclic = True
    tuple_count = m**summed
    if tuple_count > DIRECT_SUM_GUARD:
        raise ResourceLimitError(
            f"direct summation needs {tuple_count} tuples, guard is {DIRECT_SUM_GUARD}"
        )
    oracle_of = spec.space.oracle_parts()
    bins = np.zeros(1 << free_count, dtype=complex)
    chunk = 1 << 16
    for lo in range(0, tuple_count, chunk):
        ids = np.arange(lo, min(lo + chunk, tuple_count))
        digits = np.array(np.unravel_index(ids, (m,) * summed))
        if spec.model is Model.BQP:
            pins = np.full(ids.size, np.flatnonzero(old_of_new == 0)[0])
            path = np.vstack([pins, digits, pins])  # I_1, inner, I_{2d+2}
        else:
            path = digits
        weights = np.ones(ids.size, dtype=complex)
        count = len(vs)
        for t in range(count):
            col = path[(t + 1) % count] if cyclic else path[t + 1]
            weights *= vs[t][path[t], col]
        if spec.model is Model.HALF_BQP:
            weights *= spec.accept[old_of_new[path[0]], old_of_new[path[d + 1]]]
        masks = np.zeros(ids.size, dtype=np.int64)
        for t in range(count):
            if t in skip:
                continue
            idx = oracle_of[path[t]]
            live = idx < free_count
            masks[live] ^= np.int64(1) << idx[live]
        np.add.at(bins, masks, weights)
    if spec.model is Model.DQCK:
        bins /= spec.space.start_dim
    elif spec.model is Model.HALF_BQP:
        bins /= m
    if np.max(np.abs(bins.imag)) > IMAG_TOL:
        raise ValidationError("direct coefficient sums came out non-real")
    return bins.real


def direct_restricted_spectrum(
    spec: AlgorithmSpec, rho: Optional[Restriction] = None
) -> FourierSpectrum:
    """Direct-summation spectrum of the restricted acceptance probability.

    Index order matches :func:`spectrum_of_algorithm`: variable j is the j-th
    free coordinate in increasing order.
    """
    bins = _direct_bins(spec, rho)
    return FourierSpectrum((bins.size - 1).bit_length(), bins)


def direct_coefficient(spec: AlgorithmSpec, rho: Optional[Restriction], subset) -> float:
    """One Fourier coefficient of the restricted acceptance, by direct summation.

    ``subset`` is an iterable of original input coordinates; coordinates fixed
    by rho make the coefficient zero.
    """
    n = spec.num_inputs
    if rho is None:
        rho = Restriction.all_free(n)
    free = rho.free_indices.tolist()
    position = {coord: j for j, coord in enumerate(free)}
    mask = 0
    for coord in subset:
        if coord not in position:
            return 0.0
        mask |= 1 << position[coord]
    return float(_direct_bins(spec, rho)[mask])


# ---------------------------------------------------------------------------
# level-3 block coefficients for the mixed-start-with-revealed-outcome model


def hbqp_level3_block_tensor(spec: AlgorithmSpec, rho: Restriction) -> np.ndarray:
    """Level-3 coefficients f-hat({a, b, c}) with one index per block, for a
    2-query HALF_BQP algorithm over 3B input bits, as a (B, B, B) tensor of
    block-local indices.

    Works at sizes where the full truth table is far out of reach: each
    coefficient is a sum over index tuples in which three of the four phase
    slots carry a, b, c and the remaining slot carries a fixed coordinate, so
    everything reduces to chains of matrix products.
    """
    if spec.model is not Model.HALF_BQP:
        raise SpecificationError("level-3 block tensor applies to HALF_BQP algorithms")
    if spec.d != 2:
        raise SpecificationError("level-3 block tensor is implemented for d = 2")
    n = spec.num_inputs
    if n % 3:
        raise SpecificationError("three-block structure needs input length divisible by 3")
    if len(rho) != n:
        raise ShapeError("restriction length mismatch")
    block = n // 3
    m = spec.space.total_dim
    w = spec.space.work_dim

    wk = w * spec.space.clean_dim
    damp = np.repeat(np.where(rho.pattern == 0, 1.0, rho.pattern.astype(float)), wk)
    vs = formula_matrices(spec)
    vs = [mat if t in (0, 3) else damp[:, None] * mat for t, mat in enumerate(vs)]
    fixed_sel = np.repeat((rho.pattern != 0).astype(float), wk)
    f_weight = spec.accept.astype(float)

    # junction labels: I_1 = x, I_4 = y; letter junctions get (letter, work) pairs
    slots = (2, 3, 5, 6)
    out = np.zeros((n, n, n))
    for perm3 in permutations(range(4), 3):
        assignment = {}
        letters = "abc"
        for letter_pos, slot_pos in enumerate(perm3):
            assignment[slots[slot_pos]] = letters[letter_pos]
        fix_slot = next(s for s in slots if s not in assignment)
        labels = {1: "x", 4: "y"}
        work_chars = iter("uvs")
        for slot in slots:
            labels[slot] = assignment[slot] + next(work_chars) if slot in assignment else "z"
        tensors = []
        subs = []
        for t in range(1, 7):
            mat = vs[t - 1]
            if t == fix_slot:
                mat = fixed_sel[:, None] * mat
            row_lab = labels[t]
            col_lab = labels[t + 1] if t < 6 else labels[1]
            shape = []
            shape += [n, w * spec.space.clean_dim] if len(row_lab) == 2 else [m]
            shape += [n, w * spec.space.clean_dim] if len(col_lab) == 2 else [m]
            tensors.append(mat.reshape(shape))
            subs.append(row_lab + col_lab)
        expr = "xy," + ",".join(subs) + "->abc"
        out = out + np.real(np.einsum(expr, f_weight, *tensors, optimize=True)) / m

    free = rho.pattern == 0
    blocks = [slice(0, block), slice(block, 2 * block), slice(2 * block, 3 * block)]
    tensor = out[blocks[0], blocks[1], blocks[2]].copy()
    tensor *= free[blocks[0]][:, None, None]
    tensor *= free[blocks[1]][None, :, None]
    tensor *= free[blocks[2]][None, None, :]
    return tensor


def hbqp_alpha_signed_growth(
    spec: AlgorithmSpec, rho: Restriction, gamma: np.ndarray
) -> float:
    """Signed level-3 growth against the structured alpha family, computed from
    the block coefficient tensor (no truth table)."""
    gamma = np.asarray(gamma, dtype=float)
    n = spec.num_inputs
    block = n // 3
    bits = (block - 1).bit_length()
    if (1 << bits) != block:
        raise SpecificationError("block-local Hadamard signs need a power-of-two block size")
    tensor = hbqp_level3_block_tensor(spec, rho)
    hbar = sign_hadamard(bits).astype(float)
    ga, gb, gc = gamma[:block], gamma[block : 2 * block], gamma[2 * block :]
    weights = np.einsum("ba,bc,a,b,c->abc", hbar, hbar, ga, gb, gc)
    return float(np.sum(weights * tensor))


# ---------------------------------------------------------------------------
# serialization


def spectrum_to_csv(sp: FourierSpectrum, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["mask", "coefficient"])
        for mask, coeff in enumerate(sp.coeffs):
            writer.writerow([mask, f"{coeff:.17g}"])


def spectrum_to_json(sp: FourierSpectrum, path: str) -> None:
    doc = {"num_vars": sp.num_vars, "coeffs": [float(c) for c in sp.coeffs]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
        handle.write("\n")


def sign_family_from_json(doc: dict) -> SignFamily:
    """Load a sign family: {"kind": "alpha_gamma"|"beta_gamma", "gamma": [...]}
    or {"kind": "generic", "level": l, "num_vars": n, "values": [[mask, v], ...]}."""
    kind = SignKind(doc["kind"])
    if kind is SignKind.GENERIC:
        values = {int(mask): float(val) for mask, val in doc["values"]}
        return SignFamily(kind, int(doc["level"]), int(doc["num_vars"]), values=values)
    gamma = np.asarray(doc["gamma"], dtype=float)
    level = 3 if kind is SignKind.ALPHA_GAMMA else 6
    return SignFamily(kind, level, gamma.size, gamma=gamma)
