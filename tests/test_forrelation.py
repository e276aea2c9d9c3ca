import numpy as np
import pytest

from qgrowth import forrelation
from qgrowth.errors import ResourceLimitError
from qgrowth.forrelation import (
    ForrelationInstance,
    Label,
    classify,
    default_eps,
    forr,
    forr_dense,
    forrelated_instance,
    random_instance,
    tightness_circuit,
    tightness_level_growth,
    tightness_spectrum,
)
from qgrowth.fourier import growth, spectrum_of_algorithm
from qgrowth.linalg import MATCH_TOL, hadamard_matrix
from qgrowth.models import acceptance_direct


def test_forr_single_fold_all_ones():
    inst = ForrelationInstance(1, 2, np.ones((1, 4)))
    assert forr(inst) == pytest.approx(1.0, abs=1e-14)   # H O H = H^2 = I


def test_forr_two_folds_all_ones():
    inst = ForrelationInstance(2, 2, np.ones((2, 4)))
    # H^3 = H, so the amplitude is H[0,0] = 1/sqrt(4)
    assert forr(inst) == pytest.approx(0.5, abs=1e-14)


def test_forr_pipelines_agree():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        inst = random_instance(k, n, rng)
        assert forr(inst) == pytest.approx(forr_dense(inst), abs=1e-12)


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_forr_pipelines_agree_past_desk_scale(n):
    rng = np.random.default_rng(70 + n)
    for k in (1, 2, 3):
        for make in (random_instance, forrelated_instance):
            inst = make(k, n, rng)
            assert abs(forr(inst) - forr_dense(inst)) <= 1e-12


def _refuse(*args, **kwargs):
    raise AssertionError("the other pipeline was called")


def test_forr_dense_does_not_use_the_transform(monkeypatch):
    inst = forrelated_instance(3, 6, np.random.default_rng(12))
    want = forr_dense(inst)
    monkeypatch.setattr(forrelation, "fwht", _refuse)
    assert forr_dense(inst) == want


def test_forr_does_not_use_the_dense_hadamard(monkeypatch):
    inst = forrelated_instance(3, 6, np.random.default_rng(13))
    want = forr(inst)
    monkeypatch.setattr(forrelation, "hadamard_matrix", _refuse)
    assert forr(inst) == want


def test_forr_magnitude_bounded():
    rng = np.random.default_rng(8)
    for _ in range(200):
        inst = random_instance(int(rng.integers(1, 4)), 4, rng)
        assert abs(forr(inst)) <= 1.0 + 1e-12


def test_instance_validation():
    with pytest.raises(ValueError, match=r"blocks must have shape \(2, 2\), got \(1, 2\)"):
        ForrelationInstance(2, 1, np.ones((1, 2)))
    with pytest.raises(ValueError, match="fold count k must be >= 1, got 0"):
        ForrelationInstance(0, 1, np.ones((0, 2)))


def test_classify_thresholds():
    plus = forr(ForrelationInstance(1, 1, np.array([[1.0, -1.0]])))   # forr = 0
    assert classify(plus, 0.25) is Label.PLUS_ONE
    minus = forr(ForrelationInstance(1, 1, np.ones((1, 2))))          # forr = 1
    assert classify(minus, 0.1) is Label.MINUS_ONE
    # a value strictly between eps and 2 eps violates the promise
    value = forr(ForrelationInstance(2, 1, np.array([[1.0, 1.0], [1.0, -1.0]])))
    assert classify(value, value / 1.5) is Label.GAP
    assert classify(0.25, 0.125) is Label.MINUS_ONE   # each threshold is inclusive
    assert classify(0.125, 0.125) is Label.PLUS_ONE
    with pytest.raises(ValueError, match="eps must be positive, got 0.0"):
        classify(plus, 0.0)
    with pytest.raises(ValueError, match="eps must be positive, got nan"):
        classify(plus, float("nan"))   # every comparison is false: all GAP


def test_default_eps_values():
    assert default_eps(2, 16) == pytest.approx(1 / 16)
    assert default_eps(1, 4) == pytest.approx(1 / 2)
    assert default_eps(3, 8) == pytest.approx(1 / 27)
    with pytest.raises(ValueError, match="N must be >= 4, got 2"):
        default_eps(1, 2)


def test_trace_circuit_all_ones_collapses():
    # k even: H^k = I, so Tr = N and acceptance = 1/2 + 1/2 at k = 2... the
    # trace is Tr(H^2) = Tr(I) = N, giving 1/2 + N / (2N) = 1
    circ = tightness_circuit(1, 2)
    blocks = np.ones((2, 2))
    assert circ.trace_value(blocks) == pytest.approx(2.0)
    assert circ.live_value(blocks.reshape(-1)) == pytest.approx(1.0, abs=1e-9)
    # k = 1: Tr(H_N) computed numerically
    circ = tightness_circuit(2, 1)
    blocks = np.ones((1, 4))
    want = 0.5 + np.trace(hadamard_matrix(2)) / 8
    assert circ.live_value(blocks.reshape(-1)) == pytest.approx(want, abs=1e-9)


def test_trace_circuit_matches_formula_random():
    rng = np.random.default_rng(9)
    for k, n in [(1, 2), (2, 2), (3, 1)]:
        circ = tightness_circuit(n, k)
        for _ in range(5):
            blocks = rng.choice(np.array([-1.0, 1.0]), size=(k, 1 << n))
            want = 0.5 + circ.trace_value(blocks) / (2 * circ.block_size)
            assert circ.live_value(blocks.reshape(-1)) == pytest.approx(want, abs=1e-9)


def test_trace_circuit_is_dqc1_with_restriction():
    circ = tightness_circuit(1, 2)
    assert circ.spec.space.clean_dim == 2
    assert circ.rho.fixed_indices.size == circ.rho.free_indices.size
    x = np.where(circ.rho.pattern == 0, 1.0, circ.rho.pattern)
    value = acceptance_direct(circ.spec, x)
    assert 0.0 <= value <= 1.0


def test_tightness_small_structure():
    circ = tightness_circuit(1, 2)
    sp = spectrum_of_algorithm(circ.spec, circ.rho)
    want = tightness_spectrum(circ)
    assert sp.num_vars == want.num_vars == 4
    # support: the empty set plus one-index-per-block subsets
    nz = np.flatnonzero(np.abs(sp.coeffs) > 1e-12)
    assert nz.tolist() == np.flatnonzero(want.coeffs).tolist()
    assert nz.size == 1 + 2 * 2
    assert np.all(np.abs(sp.coeffs - want.coeffs) <= 1e-9)
    assert growth(sp, 2) == pytest.approx(tightness_level_growth(1, 2), abs=1e-9)


@pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3) for d in range(1, (12 >> n) + 1)])
def test_tightness_spectrum_is_the_table_spectrum(n, d):
    # every (n, d) with d * 2^n <= 12: each of the 2^(d N) masks, zeros and the empty set included
    circ = tightness_circuit(n, d)
    want = tightness_spectrum(circ)
    got = spectrum_of_algorithm(circ.spec, circ.rho)
    assert want.num_vars == got.num_vars == d << n
    assert np.all(np.abs(got.coeffs - want.coeffs) <= MATCH_TOL)
    assert abs(growth(want, d) - tightness_level_growth(n, d)) <= 1e-12


@pytest.mark.parametrize("n, d", [(1, 2), (1, 4), (2, 3)])
def test_tightness_gates_match_a_block_diag_reference(n, d):
    from scipy.linalg import block_diag

    size = 1 << n
    live = d * size
    reg = 2 * live
    coord, flat = np.arange(live), np.arange(2 * reg)
    step = np.kron(np.eye(d), hadamard_matrix(n))
    gate = step[((coord // size + 1) % d) * size + coord % size]
    controlled = np.kron(block_diag(np.eye(live), gate), np.eye(2))
    h_clean = np.kron(np.eye(reg), hadamard_matrix(1))
    swap = flat + (flat % 2 - flat // reg) * (reg - 1)
    want = (h_clean[swap],) + (controlled,) * (d - 1) + (h_clean @ controlled[swap],)
    got = tightness_circuit(n, d).spec.unitaries
    assert len(got) == len(want)
    for mine, ref in zip(got, want):
        assert np.array_equal(mine, ref)


def test_tightness_cap():
    with pytest.raises(ResourceLimitError):
        tightness_circuit(3, 3)   # 24 live bits exceed the truth-table cap


def test_tightness_guard_trips_before_building(monkeypatch):
    # 4096 live bits would need 16384 x 16384 complex gates (4 GiB each)
    def refuse(*args):
        raise AssertionError("the guard let construction start")

    monkeypatch.setattr(forrelation, "hadamard_matrix", refuse)
    with pytest.raises(ResourceLimitError, match="truth table over 4096 coordinates"):
        tightness_circuit(12, 1)
    for n, d in [(0, 1), (1, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="n and d must be >= 1"):
            tightness_circuit(n, d)


def test_generators():
    rng = np.random.default_rng(10)
    inst = random_instance(2, 3, rng)
    assert inst.k == 2 and inst.n == 3
    assert inst.blocks.shape == (2, 8)
    forrelated = forrelated_instance(2, 4, rng)
    plain = random_instance(2, 4, rng)
    # the biased generator should usually beat a uniform draw
    assert forr(forrelated) >= forr(plain) - 0.5
