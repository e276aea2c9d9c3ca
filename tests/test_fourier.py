import json
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrowth import fourier
from qgrowth.cli import main
from qgrowth.errors import ResourceLimitError
from qgrowth.fourier import (
    FourierSpectrum,
    SignFamily,
    SignKind,
    _subset_sizes,
    direct_restricted_spectrum,
    embed_spectrum,
    fwht,
    growth,
    hbqp_alpha_signed_growth,
    hbqp_level3_block_tensor,
    restrict_spectrum,
    signed_growth,
    spectrum_from_table,
    spectrum_of_algorithm,
)
from qgrowth.linalg import IndexSpace, f2_inner, hadamard_matrix
from qgrowth.models import (
    AlgorithmSpec,
    Model,
    Restriction,
    acceptance_direct,
    acceptance_formula,
    random_spec,
    spec_to_json,
)


def _mask_to_x(mask, n):
    bits = (mask >> np.arange(n)) & 1
    return np.where(bits == 0, 1.0, -1.0)


def _table_spectrum(f, n):
    """Spectrum of an evaluator on +/-1 vectors, through its full truth table."""
    return spectrum_from_table(np.array([f(_mask_to_x(m, n)) for m in range(1 << n)]))


def _brute_spectrum(f, n):
    """Independent per-subset inner products against the parity characters."""
    coeffs = np.zeros(1 << n)
    for s_mask in range(1 << n):
        total = 0.0
        for x_mask in range(1 << n):
            sign = -1.0 if bin(s_mask & x_mask).count("1") % 2 else 1.0
            total += f(_mask_to_x(x_mask, n)) * sign
        coeffs[s_mask] = total / (1 << n)
    return coeffs


def test_spectrum_constant():
    sp = _table_spectrum(lambda x: 0.7, 3)
    assert sp.coeffs[0] == pytest.approx(0.7)
    assert np.max(np.abs(sp.coeffs[1:])) == 0.0


def test_spectrum_parity_monomial():
    sp = _table_spectrum(lambda x: x[0] * x[1], 2)
    want = np.zeros(4)
    want[0b11] = 1.0
    assert np.allclose(sp.coeffs, want)


def test_spectrum_matches_brute_force_on_algorithm():
    rng = np.random.default_rng(2)
    space = IndexSpace.qubits(2, 0, 1)   # DQC1 over 4 input bits
    spec = random_spec(Model.DQCK, space, 2, rng)
    sp = spectrum_of_algorithm(spec)
    brute = _brute_spectrum(lambda x: acceptance_formula(spec, x), 4)
    assert np.max(np.abs(sp.coeffs - brute)) <= 1e-10


def test_spectrum_round_trip_and_cap():
    rng = np.random.default_rng(6)
    table = rng.random(32)
    sp = spectrum_from_table(table)
    assert np.max(np.abs(fwht(sp.coeffs) - table)) <= 1e-10
    spec = random_spec(Model.BQP, IndexSpace(21), 1, rng)
    with pytest.raises(ResourceLimitError):
        spectrum_of_algorithm(spec)   # 2^21 table entries exceed the cap


@settings(max_examples=60)
@given(st.lists(st.floats(-1, 1), min_size=8, max_size=8))
def test_parseval(values):
    table = np.array(values)
    sp = spectrum_from_table(table)
    assert np.sum(sp.coeffs**2) == pytest.approx(float(np.mean(table**2)), abs=1e-9)


def test_growth_examples():
    sp = _table_spectrum(lambda x: 0.3, 4)
    assert growth(sp, 1) == 0.0
    sp = _table_spectrum(lambda x: x[0] * x[1], 4)
    assert growth(sp, 2) == pytest.approx(1.0)
    assert growth(sp, 7) == 0.0      # no subsets above num_vars
    with pytest.raises(ValueError, match="level must be nonnegative, got -1"):
        growth(sp, -1)


def test_growth_level_masks_are_cached_and_exact():
    rng = np.random.default_rng(8)
    for num_vars in range(7):
        sp = spectrum_from_table(rng.random(1 << num_vars))
        counts = np.bitwise_count(np.arange(1 << num_vars))
        for level in range(num_vars + 1):
            want = float(np.sum(np.abs(sp.coeffs[counts == level])))
            assert growth(sp, level) == want
    masks = _subset_sizes(5)
    assert masks is _subset_sizes(5)
    with pytest.raises(ValueError):
        masks[0] = 1


def _sign(fam, mask):
    """The family's sign at one subset, read through a one-hot spectrum."""
    coeffs = np.zeros(1 << fam.num_vars)
    coeffs[mask] = 1.0
    return signed_growth(FourierSpectrum(fam.num_vars, coeffs), fam)


def test_alpha_gamma_block_structure():
    gamma = np.ones(12)
    fam = SignFamily(SignKind.ALPHA_GAMMA, 3, 12, gamma=gamma)
    # entirely inside the first block -> 0
    assert _sign(fam, 0b111) == 0.0
    # first element of each block, all-ones gamma -> +1
    first = (1 << 0) | (1 << 4) | (1 << 8)
    assert _sign(fam, first) == 1.0
    # a zero gamma coordinate used by the subset -> 0
    gamma2 = np.ones(12)
    gamma2[4] = 0.0
    fam2 = SignFamily(SignKind.ALPHA_GAMMA, 3, 12, gamma=gamma2)
    assert _sign(fam2, first) == 0.0
    # sign equals the product of the two block-local Hadamard signs
    mask = (1 << 2) | (1 << (4 + 3)) | (1 << (8 + 1))
    want = (-1.0) ** (f2_inner(3, 2) ^ f2_inner(3, 1))
    assert _sign(fam, mask) == want


def test_beta_gamma_canonicalization():
    gamma = np.ones(12)
    fam_a = SignFamily(SignKind.ALPHA_GAMMA, 3, 12, gamma=gamma)
    fam_b = SignFamily(SignKind.BETA_GAMMA, 6, 12, gamma=gamma)
    # three elements in one block -> 0
    mask = 0b1111 | (1 << 4) | (1 << 8)
    assert _sign(fam_b, mask) == 0.0
    # all-zero gamma -> 0
    zero = SignFamily(SignKind.BETA_GAMMA, 6, 12, gamma=np.zeros(12))
    valid = (0b11) | (0b11 << 4) | (0b11 << 8)
    assert _sign(zero, valid) == 0.0
    # valid subset with all-ones gamma: a product of Hadamard signs, in {-1, +1}
    got = _sign(fam_b, valid)
    assert got in (-1.0, 1.0)
    a_small = (1 << 0) | (1 << 4) | (1 << 8)
    a_large = (1 << 1) | (1 << 5) | (1 << 9)
    assert got == _sign(fam_a, a_small) * _sign(fam_a, a_large)


def _alpha_loop(gamma, a, b, c):
    block = gamma.size // 3
    sign = -1.0 if f2_inner(b, a) ^ f2_inner(b, c) else 1.0
    return sign * gamma[a] * gamma[block + b] * gamma[2 * block + c]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_structured_signs_match_per_subset_loop(block, seed):
    # block sizes that are not powers of two take the same block-local signs
    rng = np.random.default_rng(seed)
    n = 3 * block
    gamma = rng.uniform(-1, 1, n)
    sp = FourierSpectrum(n, rng.standard_normal(1 << n))
    alpha_want = 0.0
    for a, b, c in np.ndindex(block, block, block):
        mask = (1 << a) | (1 << (block + b)) | (1 << (2 * block + c))
        alpha_want += _alpha_loop(gamma, a, b, c) * sp.coeffs[mask]
    beta_want = 0.0
    pairs = [(i, j) for i in range(block) for j in range(i + 1, block)]
    for (a1, a2), (b1, b2), (c1, c2) in product(pairs, repeat=3):
        mask = ((1 << a1) | (1 << a2) | (1 << (block + b1)) | (1 << (block + b2))
                | (1 << (2 * block + c1)) | (1 << (2 * block + c2)))
        weight = _alpha_loop(gamma, a1, b1, c1) * _alpha_loop(gamma, a2, b2, c2)
        beta_want += weight * sp.coeffs[mask]
    alpha = SignFamily(SignKind.ALPHA_GAMMA, 3, n, gamma=gamma)
    beta = SignFamily(SignKind.BETA_GAMMA, 6, n, gamma=gamma)
    assert signed_growth(sp, alpha) == pytest.approx(alpha_want, abs=1e-12)
    assert signed_growth(sp, beta) == pytest.approx(beta_want, abs=1e-12)


def test_sign_family_validation():
    with pytest.raises(ValueError, match="num_vars divisible by 3"):
        SignFamily(SignKind.ALPHA_GAMMA, 3, 8, gamma=np.ones(8))   # not divisible by 3
    with pytest.raises(ValueError, match="alpha_gamma requires level 3"):
        SignFamily(SignKind.ALPHA_GAMMA, 2, 12, gamma=np.ones(12))
    with pytest.raises(ValueError, match=r"gamma entries must lie in \[-1, 1\]"):
        SignFamily(SignKind.BETA_GAMMA, 6, 12, gamma=2 * np.ones(12))
    with pytest.raises(ValueError, match=r"gamma entries must lie in \[-1, 1\]"):
        SignFamily(SignKind.ALPHA_GAMMA, 3, 3, gamma=np.array([np.nan, 1.0, 1.0]))
    sp = _table_spectrum(lambda x: x[0], 3)
    with pytest.raises(ValueError, match="sign family is over 6 variables, spectrum over 3"):
        signed_growth(sp, SignFamily(SignKind.ALPHA_GAMMA, 3, 6, gamma=np.ones(6)))


def test_restriction_closure():
    # restricting then transforming equals folding the full spectrum
    rng = np.random.default_rng(12)
    space = IndexSpace.qubits(2, 0, 1)
    spec = random_spec(Model.DQCK, space, 2, rng)
    rho = Restriction.from_string("*+-*")
    direct = spectrum_of_algorithm(spec, rho)
    folded = restrict_spectrum(spectrum_of_algorithm(spec), rho)
    assert np.max(np.abs(direct.coeffs - folded.coeffs)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(list(Model)),
    d=st.integers(1, 3),
    pattern=st.lists(st.sampled_from([-1, 0, 1]), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_restrict_spectrum_commutes_with_restricted_table(model, d, pattern, seed):
    space = IndexSpace.qubits(2, 0, 1 if model is Model.DQCK else 0)
    spec = random_spec(model, space, d, np.random.default_rng(seed))
    rho = Restriction(np.array(pattern, dtype=np.int8))
    folded = restrict_spectrum(spectrum_of_algorithm(spec), rho)
    direct = spectrum_of_algorithm(spec, rho)
    assert folded.num_vars == direct.num_vars
    assert np.max(np.abs(folded.coeffs - direct.coeffs)) <= 1e-9


def test_embed_spectrum_inverts_fold():
    rng = np.random.default_rng(13)
    table = rng.random(16)
    sp = spectrum_from_table(table)
    rho = Restriction.from_string("*-+*")
    folded = restrict_spectrum(sp, rho)
    embedded = embed_spectrum(folded, rho)
    assert embedded.num_vars == 4
    back = restrict_spectrum(embedded, rho)
    assert np.allclose(back.coeffs, folded.coeffs)


@given(
    values=st.lists(st.floats(-1, 1), min_size=16, max_size=16),
    text=st.text("+-*", min_size=4, max_size=4),
)
def test_embed_after_restrict_round_trip(values, text):
    rho = Restriction.from_string(text)
    folded = restrict_spectrum(spectrum_from_table(np.array(values)), rho)
    embedded = embed_spectrum(folded, rho)
    assert embedded.num_vars == 4
    assert np.array_equal(embedded.coeffs[rho.embed_masks()], folded.coeffs)
    assert np.count_nonzero(embedded.coeffs) == np.count_nonzero(folded.coeffs)
    assert np.array_equal(restrict_spectrum(embedded, rho).coeffs, folded.coeffs)


@pytest.mark.parametrize("model,k", [(Model.DQCK, 1), (Model.BQP, 0), (Model.HALF_BQP, 0)])
def test_direct_summation_matches_transform(model, k):
    rng = np.random.default_rng(20 + k)
    space = IndexSpace.qubits(1, 0, k)    # M = 2 or 4
    spec = random_spec(model, space, 2, rng)
    for text in (None, "*+", "+*"):
        restriction = Restriction.from_string(text) if text else None
        got = direct_restricted_spectrum(spec, restriction)
        want = spectrum_of_algorithm(spec, restriction)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8


@pytest.mark.parametrize("model", [Model.BQP, Model.HALF_BQP])
def test_direct_summation_with_fixed_coordinate_first(model):
    # a fixed coordinate before a free one moves the basis states; with a
    # workspace qubit a mislabeled start or accept index shows for both
    # models (on the bare oracle register the HALF_BQP error cancels)
    rng = np.random.default_rng(20)
    spec = random_spec(model, IndexSpace.qubits(1, 1, 0), 2, rng)
    for text in ("+*", "-*"):
        rho = Restriction.from_string(text)
        got = direct_restricted_spectrum(spec, rho)
        want = spectrum_of_algorithm(spec, rho)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    model=st.sampled_from(list(Model)),
    n=st.integers(1, 2),
    w=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_direct_summation_matches_transform_on_random_specs(data, model, n, w, seed):
    space = IndexSpace.qubits(n, w, 1 if model is Model.DQCK else 0)
    unphased = 2 if model is Model.HALF_BQP else 0
    top = max(d for d in (1, 2, 3) if space.total_dim ** (2 * d + unphased) <= 1 << 18)
    d = data.draw(st.integers(1, top))
    text = data.draw(st.text("+-*", min_size=space.oracle_dim, max_size=space.oracle_dim))
    spec = random_spec(model, space, d, np.random.default_rng(seed))
    rho = Restriction.from_string(text)
    got = direct_restricted_spectrum(spec, rho)
    want = spectrum_of_algorithm(spec, rho)
    assert got.num_vars == want.num_vars
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8


def test_direct_summation_over_several_leading_indices():
    # 4^10 tuples on a 10-slot ring of 2 coordinates with 2 positions each:
    # one unsliced einsum sums both positions of every slot over 2^10 paths
    rng = np.random.default_rng(41)
    spec = random_spec(Model.BQP, IndexSpace.qubits(1, 1, 0), 5, rng)
    for text in (None, "-*"):
        rho = Restriction.from_string(text) if text else None
        got = direct_restricted_spectrum(spec, rho)
        want = spectrum_of_algorithm(spec, rho)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8


@pytest.mark.parametrize("layout", ["********", "******-+", "+-******"])
@pytest.mark.parametrize(
    "model,shape",
    [(Model.BQP, (3, 2, 0, 2)), (Model.DQCK, (3, 1, 1, 2)), (Model.HALF_BQP, (3, 2, 0, 1))],
)
def test_direct_summation_at_thirty_two_positions(model, shape, layout):
    # perfbench's size-1 crosscheck spaces (M = 32, 8 coordinates of 4
    # positions) with every coordinate free, fixed ones last, fixed ones first
    n, w, k, d = shape
    spec = random_spec(model, IndexSpace.qubits(n, w, k), d, np.random.default_rng(60))
    rho = Restriction.from_string(layout)
    got = direct_restricted_spectrum(spec, rho)
    want = spectrum_of_algorithm(spec, rho)
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8


@pytest.mark.parametrize("model,d", [(Model.BQP, 11), (Model.HALF_BQP, 9)])
def test_direct_summation_on_long_rings_stays_small(model, d):
    # M = 2, one position a coordinate: 22 and 20 slots, so 2^22 and 2^20
    # coordinate paths summed in slices of 2^16; unsliced, the BQP ring peaked at 160 MiB
    spec = random_spec(model, IndexSpace.qubits(1, 0, 0), d, np.random.default_rng(61))
    spec.formula_matrices  # built outside the traced call
    tracemalloc.start()
    try:
        got = direct_restricted_spectrum(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = spectrum_of_algorithm(spec)
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8
    assert peak <= 8 << 20


def test_direct_summation_trivial_cases():
    # constant acceptance: only the empty set survives
    space = IndexSpace.qubits(1, 0, 1)
    spec = AlgorithmSpec(
        Model.DQCK, space, 2, (np.eye(4),) * 3, np.ones(4, dtype=bool)
    )
    sp = direct_restricted_spectrum(spec)
    assert sp.coeffs[0] == pytest.approx(1.0)
    assert np.max(np.abs(sp.coeffs[1:])) <= 1e-12
    # a restriction fixing everything leaves a constant function
    rng = np.random.default_rng(30)
    spec = random_spec(Model.DQCK, space, 2, rng)
    sp = direct_restricted_spectrum(spec, Restriction.from_string("+-"))
    assert sp.num_vars == 0
    assert sp.coeffs[0] == pytest.approx(
        acceptance_direct(spec, np.array([1.0, -1.0])), abs=1e-9
    )


def test_direct_restricted_spectrum_by_subset():
    rng = np.random.default_rng(33)
    space = IndexSpace.qubits(2, 0, 1)
    spec = random_spec(Model.DQCK, space, 2, rng)
    rho = Restriction.from_string("**+*")
    want = spectrum_of_algorithm(spec, rho)
    got = direct_restricted_spectrum(spec, rho)
    # free coords 0, 1, 3 -> spectrum variables 0, 1, 2
    assert got.num_vars == 3
    assert got.coeffs[0b011] == pytest.approx(want.coeffs[0b011], abs=1e-8)   # {0, 1}
    assert got.coeffs[0b110] == pytest.approx(want.coeffs[0b110], abs=1e-8)   # {1, 3}


def test_direct_summation_guard():
    rng = np.random.default_rng(40)
    space = IndexSpace.qubits(2, 1)   # M = 8
    spec = random_spec(Model.BQP, space, 5, rng)   # 8^10 tuples
    with pytest.raises(ResourceLimitError):
        direct_restricted_spectrum(spec)


def test_direct_summation_refuses_bins_above_the_table_cap():
    # 32^4 tuples pass DIRECT_SUM_GUARD, but 32 free coordinates need 2^32 bins
    spec = random_spec(Model.BQP, IndexSpace.qubits(5, 0, 0), 2, np.random.default_rng(42))
    with pytest.raises(ResourceLimitError, match=r"2\^32 entries"):
        direct_restricted_spectrum(spec)


def test_hbqp_block_tensor_matches_transform():
    rng = np.random.default_rng(50)
    space = IndexSpace(12, 1, 1)
    spec = random_spec(Model.HALF_BQP, space, 2, rng)
    rho = Restriction(np.array([0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 0], dtype=np.int8))
    tensor = hbqp_level3_block_tensor(spec, rho)
    full = embed_spectrum(spectrum_of_algorithm(spec, rho), rho)
    worst = 0.0
    for a in range(4):
        for b in range(4):
            for c in range(4):
                mask = (1 << a) | (1 << (4 + b)) | (1 << (8 + c))
                worst = max(worst, abs(tensor[a, b, c] - full.coeffs[mask]))
    assert worst <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    block=st.integers(1, 4),
    w=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_hbqp_block_tensor_matches_embedded_transform(data, block, w, seed):
    n = 3 * block
    text = data.draw(st.one_of(st.just("*" * n), st.text("+-*", min_size=n, max_size=n)))
    rho = Restriction.from_string(text)
    spec = random_spec(Model.HALF_BQP, IndexSpace(n, w, 1), 2, np.random.default_rng(seed))
    tensor = hbqp_level3_block_tensor(spec, rho)
    full = embed_spectrum(spectrum_of_algorithm(spec, rho), rho).coeffs
    bits = (1 << np.arange(n)).reshape(3, block)
    masks = bits[0][:, None, None] | bits[1][:, None] | bits[2]
    assert tensor.shape == (block, block, block)
    assert np.max(np.abs(tensor - full[masks])) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    # block 3 at w = 2 sums 18^6 tuples, above DIRECT_SUM_GUARD
    shape=st.sampled_from([(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hbqp_block_tensor_matches_direct_sum(data, shape, seed):
    block, w = shape
    n = 3 * block
    text = list(data.draw(st.text("+-*", min_size=n, max_size=n)))
    if data.draw(st.booleans()):  # a fixed letter in every block
        for b in range(3):
            text[b * block + data.draw(st.integers(0, block - 1))] = data.draw(st.sampled_from("+-"))
    rho = Restriction.from_string("".join(text))
    spec = random_spec(Model.HALF_BQP, IndexSpace(n, w, 1), 2, np.random.default_rng(seed))
    tensor = hbqp_level3_block_tensor(spec, rho)
    direct = embed_spectrum(direct_restricted_spectrum(spec, rho), rho).coeffs
    bits = (1 << np.arange(n)).reshape(3, block)
    masks = bits[0][:, None, None] | bits[1][:, None] | bits[2]
    assert np.max(np.abs(tensor - direct[masks])) <= 1e-9


def test_hbqp_block_tensor_guard_states_its_bytes(monkeypatch):
    # M = 6 and s = 2 positions a block: 64 M s^2 bytes
    spec = random_spec(Model.HALF_BQP, IndexSpace(6, 1, 1), 2, np.random.default_rng(54))
    free = Restriction.all_free(6)
    monkeypatch.setattr(fourier, "BLOCK_TENSOR_GUARD", 1535)
    with pytest.raises(ResourceLimitError, match="needs 1536 bytes, guard is 1535"):
        hbqp_level3_block_tensor(spec, free)
    assert "formula_matrices" not in vars(spec)  # refused before any product
    monkeypatch.setattr(fourier, "BLOCK_TENSOR_GUARD", 1536)
    assert hbqp_level3_block_tensor(spec, free).shape == (2, 2, 2)


def test_hbqp_block_tensor_peak_is_near_the_bytes_its_guard_states(monkeypatch):
    # block 32 at W = 1: M = 96 and s = 32
    spec = random_spec(Model.HALF_BQP, IndexSpace(96, 1, 1), 2, np.random.default_rng(55))
    free = Restriction.all_free(96)
    spec.formula_matrices  # built outside the traced call
    stated = 64 * 96 * 32**2
    monkeypatch.setattr(fourier, "BLOCK_TENSOR_GUARD", stated - 1)
    with pytest.raises(ResourceLimitError, match=f"needs {stated} bytes"):
        hbqp_level3_block_tensor(spec, free)
    monkeypatch.undo()
    tracemalloc.start()
    try:
        hbqp_level3_block_tensor(spec, free)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * stated


def test_hbqp_block_tensor_validation():
    rng = np.random.default_rng(53)
    space = IndexSpace(6, 1, 1)
    free = Restriction.all_free(6)
    with pytest.raises(ValueError, match="HALF_BQP"):
        hbqp_level3_block_tensor(random_spec(Model.BQP, space, 2, rng), free)
    with pytest.raises(ValueError, match="d = 2"):
        hbqp_level3_block_tensor(random_spec(Model.HALF_BQP, space, 3, rng), free)
    with pytest.raises(ValueError, match="divisible by 3"):
        hbqp_level3_block_tensor(random_spec(Model.HALF_BQP, IndexSpace(4, 1, 1), 2, rng),
                                 Restriction.all_free(4))
    with pytest.raises(ValueError, match="restriction length"):
        hbqp_level3_block_tensor(random_spec(Model.HALF_BQP, space, 2, rng),
                                 Restriction.all_free(5))


def test_hbqp_alpha_signed_growth_matches_signed_growth():
    rng = np.random.default_rng(51)
    space = IndexSpace(12, 1, 1)
    spec = random_spec(Model.HALF_BQP, space, 2, rng)
    rho = Restriction(np.array([0, 1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0], dtype=np.int8))
    gamma = rng.uniform(-1, 1, 12)
    fam = SignFamily(SignKind.ALPHA_GAMMA, 3, 12, gamma=gamma)
    full = embed_spectrum(spectrum_of_algorithm(spec, rho), rho)
    want = signed_growth(full, fam)
    got = hbqp_alpha_signed_growth(spec, rho, gamma)
    assert got == pytest.approx(want, abs=1e-9)


def test_hbqp_alpha_signed_growth_block_of_three():
    # N = 9: blocks of 3, not a power of two
    rng = np.random.default_rng(52)
    spec = random_spec(Model.HALF_BQP, IndexSpace(9, 1, 1), 2, rng)
    rho = Restriction(np.array([0, 0, -1, 0, 0, 0, 1, 0, 0], dtype=np.int8))
    gamma = rng.uniform(-1, 1, 9)
    fam = SignFamily(SignKind.ALPHA_GAMMA, 3, 9, gamma=gamma)
    full = embed_spectrum(spectrum_of_algorithm(spec, rho), rho)
    want = signed_growth(full, fam)
    assert hbqp_alpha_signed_growth(spec, rho, gamma) == pytest.approx(want, abs=1e-9)


def test_hbqp_alpha_signed_growth_validates_gamma():
    spec = random_spec(Model.HALF_BQP, IndexSpace(6, 1, 1), 2, np.random.default_rng(53))
    rho = Restriction.all_free(6)
    with pytest.raises(ValueError, match=r"gamma entries must lie in \[-1, 1\]"):
        hbqp_alpha_signed_growth(spec, rho, np.full(6, 1.5))
    with pytest.raises(ValueError, match="gamma vector length must equal num_vars"):
        hbqp_alpha_signed_growth(spec, rho, np.ones(5))


def test_spectrum_exports(tmp_path):
    # qgrowth spectrum --format csv|json; the acceptance is (1 + x0 x1) / 2
    had = hadamard_matrix(1)
    spec = AlgorithmSpec(Model.BQP, IndexSpace.qubits(1), 1, (had, had), np.array([1, 0]))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_json(spec)))
    csv_path = tmp_path / "sp.csv"
    json_path = tmp_path / "sp.json"
    argv = ["spectrum", "--spec", str(spec_path), "--out"]
    assert main(argv + [str(csv_path)]) == 0
    assert main(argv + [str(json_path), "--format", "json"]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[1] == "mask,coefficient"   # after the config comment line
    assert len(lines) == 6
    doc = json.loads(json_path.read_text())
    assert doc["num_vars"] == 2
    assert doc["coeffs"][3] == pytest.approx(0.5)


def test_fwht_rejects_bad_length():
    with pytest.raises(ValueError, match="transform length must be a power of two, got 6"):
        fwht(np.ones(6))


def _fwht_reference(values):
    """The stack-per-pass butterfly ``fwht`` replaced; the same adds and subtracts."""
    out = np.array(values, dtype=float, copy=True)
    width = 1
    while width < out.size:
        out = out.reshape(-1, 2, width)
        top = out[:, 0, :] + out[:, 1, :]
        bottom = out[:, 0, :] - out[:, 1, :]
        out = np.stack([top, bottom], axis=1).reshape(-1)
        width *= 2
    return out


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("num_vars", range(15))
def test_fwht_matches_the_stack_per_pass_butterfly_bit_for_bit(num_vars):
    rng = np.random.default_rng(70 + num_vars)
    values = rng.standard_normal(1 << num_vars)
    values[rng.random(values.size) < 0.2] = 0.0
    values[rng.random(values.size) < 0.1] = -0.0
    values[rng.random(values.size) < 0.2] = 1.0   # equal pairs give exact zeros
    assert _same_bits(fwht(values), _fwht_reference(values))


def _even_table(rng, num_vars):
    lower = rng.random(1 << (num_vars - 1))
    lower[rng.random(lower.size) < 0.2] = 0.25
    return np.concatenate([lower, lower[::-1]])


def _transform_sizes(monkeypatch):
    import qgrowth.fourier as fourier_module

    sizes = []
    real = fourier_module.fwht

    def recording(values):
        sizes.append(np.size(values))
        return real(values)

    monkeypatch.setattr(fourier_module, "fwht", recording)
    return sizes


@pytest.mark.parametrize("num_vars", range(1, 13))
def test_even_table_is_transformed_at_half_size_bit_for_bit(num_vars, monkeypatch):
    sizes = _transform_sizes(monkeypatch)
    table = _even_table(np.random.default_rng(80 + num_vars), num_vars)
    coeffs = spectrum_from_table(table).coeffs
    assert sizes == [table.size // 2]
    assert _same_bits(coeffs, _fwht_reference(table) / table.size)
    odd = _subset_sizes(num_vars) % 2 == 1
    assert np.all(coeffs[odd] == 0.0) and not np.any(np.signbit(coeffs[odd]))


@pytest.mark.parametrize("table", [
    "one entry off", [-0.0, 0.0], [0.0, -0.0, -0.0, 0.0], [0.5, -0.25, -0.25, 0.5],
], ids=["one-entry-off", "negative-zero-low", "negative-zero-mid", "negative-entries"])
def test_uneven_or_signed_table_takes_the_full_transform(table, monkeypatch):
    # a -0.0 entry can flip the sign of a zero coefficient, so any set sign
    # bit takes the full butterfly, like a table that is not even
    if table == "one entry off":
        table = _even_table(np.random.default_rng(90), 6)
        table[5] = np.nextafter(table[5], 1.0)
    table = np.array(table)
    sizes = _transform_sizes(monkeypatch)
    coeffs = spectrum_from_table(table).coeffs
    assert sizes == [table.size]
    assert _same_bits(coeffs, _fwht_reference(table) / table.size)
