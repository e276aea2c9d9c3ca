import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrowth.errors import (
    ParameterError,
    ResourceLimitError,
    ShapeError,
    SpecificationError,
    ValidationError,
)
from qgrowth.fourier import (
    SignFamily,
    SignKind,
    _subset_sizes,
    alpha_gamma,
    beta_gamma,
    direct_coefficient,
    direct_restricted_spectrum,
    embed_spectrum,
    fwht,
    growth,
    hbqp_alpha_signed_growth,
    hbqp_level3_block_tensor,
    level_masks,
    maximizing_signs,
    restrict_spectrum,
    sign_family_from_json,
    signed_growth,
    spectrum,
    spectrum_from_table,
    spectrum_of_algorithm,
    spectrum_to_csv,
    spectrum_to_json,
)
from qgrowth.linalg import IndexSpace, f2_inner
from qgrowth.models import (
    AlgorithmSpec,
    Model,
    Restriction,
    acceptance_direct,
    acceptance_formula,
    random_spec,
)


def _mask_to_x(mask, n):
    bits = (mask >> np.arange(n)) & 1
    return np.where(bits == 0, 1.0, -1.0)


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
    sp = spectrum(lambda x: 0.7, 3)
    assert sp.coeffs[0] == pytest.approx(0.7)
    assert np.max(np.abs(sp.coeffs[1:])) == 0.0


def test_spectrum_parity_monomial():
    sp = spectrum(lambda x: x[0] * x[1], 2)
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
    assert np.max(np.abs(sp.table() - table)) <= 1e-10
    with pytest.raises(ResourceLimitError):
        spectrum(lambda x: 0.0, 21)


@settings(max_examples=60)
@given(st.lists(st.floats(-1, 1), min_size=8, max_size=8))
def test_parseval(values):
    table = np.array(values)
    sp = spectrum_from_table(table)
    assert sp.mean_square() == pytest.approx(float(np.mean(table**2)), abs=1e-9)


def test_growth_examples():
    sp = spectrum(lambda x: 0.3, 4)
    assert growth(sp, 1) == 0.0
    sp = spectrum(lambda x: x[0] * x[1], 4)
    assert growth(sp, 2) == pytest.approx(1.0)
    assert growth(sp, 7) == 0.0      # no subsets above num_vars
    with pytest.raises(ParameterError):
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


def test_signed_growth_maximizer_and_zero():
    rng = np.random.default_rng(9)
    sp = spectrum_from_table(rng.random(16))
    fam = maximizing_signs(sp, 2)
    assert signed_growth(sp, fam) == pytest.approx(growth(sp, 2), abs=1e-12)
    zero = SignFamily(SignKind.GENERIC, 2, 4, values={m: 0.0 for m in level_masks(4, 2)})
    assert signed_growth(sp, zero) == 0.0


def test_signed_growth_bounded_by_growth():
    rng = np.random.default_rng(10)
    for _ in range(20):
        sp = spectrum_from_table(rng.random(64))
        values = {m: float(rng.uniform(-1, 1)) for m in level_masks(6, 3)}
        fam = SignFamily(SignKind.GENERIC, 3, 6, values=values)
        assert abs(signed_growth(sp, fam)) <= growth(sp, 3) + 1e-12


def test_alpha_gamma_block_structure():
    gamma = np.ones(12)
    fam = SignFamily(SignKind.ALPHA_GAMMA, 3, 12, gamma=gamma)
    # entirely inside the first block -> 0
    assert alpha_gamma(fam, 0b111) == 0.0
    # first element of each block, all-ones gamma -> +1
    first = (1 << 0) | (1 << 4) | (1 << 8)
    assert alpha_gamma(fam, first) == 1.0
    # a zero gamma coordinate used by the subset -> 0
    gamma2 = np.ones(12)
    gamma2[4] = 0.0
    fam2 = SignFamily(SignKind.ALPHA_GAMMA, 3, 12, gamma=gamma2)
    assert alpha_gamma(fam2, first) == 0.0
    # sign equals the product of the two block-local Hadamard signs
    mask = (1 << 2) | (1 << (4 + 3)) | (1 << (8 + 1))
    want = (-1.0) ** (f2_inner(3, 2) ^ f2_inner(3, 1))
    assert alpha_gamma(fam, mask) == want


def test_beta_gamma_canonicalization():
    gamma = np.ones(12)
    fam_a = SignFamily(SignKind.ALPHA_GAMMA, 3, 12, gamma=gamma)
    fam_b = SignFamily(SignKind.BETA_GAMMA, 6, 12, gamma=gamma)
    # three elements in one block -> 0
    mask = 0b1111 | (1 << 4) | (1 << 8)
    assert beta_gamma(fam_b, mask) == 0.0
    # all-zero gamma -> 0
    zero = SignFamily(SignKind.BETA_GAMMA, 6, 12, gamma=np.zeros(12))
    valid = (0b11) | (0b11 << 4) | (0b11 << 8)
    assert beta_gamma(zero, valid) == 0.0
    # valid subset with all-ones gamma: a product of Hadamard signs, in {-1, +1}
    got = beta_gamma(fam_b, valid)
    assert got in (-1.0, 1.0)
    a_small = (1 << 0) | (1 << 4) | (1 << 8)
    a_large = (1 << 1) | (1 << 5) | (1 << 9)
    assert got == alpha_gamma(fam_a, a_small) * alpha_gamma(fam_a, a_large)


def test_sign_family_validation():
    with pytest.raises(SpecificationError):
        SignFamily(SignKind.ALPHA_GAMMA, 3, 8, gamma=np.ones(8))   # not divisible by 3
    with pytest.raises(SpecificationError):
        SignFamily(SignKind.ALPHA_GAMMA, 2, 12, gamma=np.ones(12))
    with pytest.raises(ValidationError):
        SignFamily(SignKind.BETA_GAMMA, 6, 12, gamma=2 * np.ones(12))
    with pytest.raises(ValidationError):
        SignFamily(SignKind.GENERIC, 2, 4, values={0b11: 1.5})
    with pytest.raises(SpecificationError):
        SignFamily(SignKind.GENERIC, 2, 4, values={0b111: 0.5})
    sp = spectrum(lambda x: x[0], 3)
    with pytest.raises(SpecificationError):
        signed_growth(sp, SignFamily(SignKind.GENERIC, 1, 4, values={1: 1.0}))


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


def test_direct_coefficient_by_subset():
    rng = np.random.default_rng(33)
    space = IndexSpace.qubits(2, 0, 1)
    spec = random_spec(Model.DQCK, space, 2, rng)
    rho = Restriction.from_string("**+*")
    want = spectrum_of_algorithm(spec, rho)
    # free coords 0, 1, 3 -> spectrum variables 0, 1, 2
    assert direct_coefficient(spec, rho, [0, 1]) == pytest.approx(
        want.coeffs[0b011], abs=1e-8
    )
    assert direct_coefficient(spec, rho, [1, 3]) == pytest.approx(
        want.coeffs[0b110], abs=1e-8
    )
    assert direct_coefficient(spec, rho, [2]) == 0.0  # fixed coordinate


def test_direct_summation_guard():
    rng = np.random.default_rng(40)
    space = IndexSpace.qubits(2, 1)   # M = 8
    spec = random_spec(Model.BQP, space, 5, rng)   # 8^10 tuples
    with pytest.raises(ResourceLimitError):
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


def test_sign_family_json():
    fam = sign_family_from_json({"kind": "alpha_gamma", "gamma": [1.0] * 12})
    assert fam.kind is SignKind.ALPHA_GAMMA and fam.level == 3
    fam = sign_family_from_json(
        {"kind": "generic", "level": 2, "num_vars": 4, "values": [[3, -0.5]]}
    )
    assert fam.sign(3) == -0.5
    assert fam.sign(5) == 0.0


def test_spectrum_exports(tmp_path):
    sp = spectrum(lambda x: x[0] * x[1], 2)
    csv_path = tmp_path / "sp.csv"
    json_path = tmp_path / "sp.json"
    spectrum_to_csv(sp, str(csv_path))
    spectrum_to_json(sp, str(json_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "mask,coefficient"
    assert len(lines) == 5
    doc = json.loads(json_path.read_text())
    assert doc["num_vars"] == 2
    assert doc["coeffs"][3] == pytest.approx(1.0)


def test_fwht_rejects_bad_length():
    with pytest.raises(ShapeError):
        fwht(np.ones(6))
