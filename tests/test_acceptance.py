"""Acceptance suite: one test per certification criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import time

import numpy as np

from qgrowth import bounds
from qgrowth.decomposition import random_decomposition_spec, spectrum_via_decomposition, verify
from qgrowth.forrelation import (
    forr,
    forr_dense,
    random_instance,
    tightness_circuit,
    tightness_level_growth,
    tightness_spectrum,
)
from qgrowth.fourier import (
    SignFamily,
    SignKind,
    direct_restricted_spectrum,
    embed_spectrum,
    growth,
    hbqp_alpha_signed_growth,
    restrict_spectrum,
    signed_growth,
    spectrum_from_table,
    spectrum_of_algorithm,
)
from qgrowth.linalg import IndexSpace, leq_tol
from qgrowth.models import (
    Model,
    Restriction,
    acceptance_direct,
    acceptance_formula,
    bias,
    hybrid_truth_table,
    random_hybrid,
    random_restriction,
    random_spec,
    reduce_clean_qubits,
)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {detail}")
    assert ok, detail


def _inputs(n):
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)) & 1
    return np.where(bits == 0, 1.0, -1.0)


def test_criterion_1_decomposition_correctness():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst_dev = 0.0
    worst_norm = 0.0
    frob_ok = True
    for _ in range(50):
        spec = random_decomposition_spec(rng)
        report = verify(spec)
        worst_dev = max(worst_dev, report["max_entry_deviation"])
        worst_norm = max(worst_norm, report["max_factor_operator_norm"])
        frob_ok &= report["frobenius_pass"]
        assert report["entries_pass"] and report["factor_norm_pass"], report
    elapsed = time.time() - start
    ok = worst_dev <= 1e-9 and leq_tol(worst_norm, 1.0) and frob_ok and elapsed <= 60
    _report(1, ok, f"50 specs, max deviation {worst_dev:.2e}, "
                   f"max factor norm {worst_norm - 1:+.2e}+1, {elapsed:.1f}s")


def test_criterion_2_acceptance_formula_equivalence():
    rng = np.random.default_rng(1002)
    start = time.time()
    worst = 0.0
    for model in (Model.BQP, Model.DQCK, Model.HALF_BQP):
        for _ in range(50):
            n = int(rng.choice([1, 2]))
            w = int(rng.choice([0, 1]))
            k = int(rng.choice([1, 2])) if model is Model.DQCK else 0
            d = int(rng.integers(1, 4))
            spec = random_spec(model, IndexSpace.qubits(n, w, k), d, rng)
            x = rng.choice(np.array([-1.0, 1.0]), size=spec.num_inputs)
            direct = acceptance_direct(spec, x)
            formula = acceptance_formula(spec, x)
            worst = max(worst, abs(direct - formula))
            assert -1e-9 <= direct <= 1 + 1e-9
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed <= 30
    _report(2, ok, f"3 x 50 (spec, x) pairs, max |direct - formula| = {worst:.2e}, "
                   f"{elapsed:.1f}s")


def _ceiling_harness(model, levels, rng, num_specs=25, num_rhos=5):
    violations = 0
    checked = 0
    for _ in range(num_specs):
        n = int(rng.choice([2, 3]))
        w = int(rng.choice([0, 1]))
        k = int(rng.choice([1, 2])) if model is Model.DQCK else 0
        d = int(rng.choice([1, 2, 3]))
        space = IndexSpace.qubits(n, w, k)
        spec = random_spec(model, space, d, rng)
        base = spectrum_of_algorithm(spec)
        for _ in range(num_rhos):
            rho = random_restriction(space.oracle_dim, rng)
            sp = restrict_spectrum(base, rho)
            for level in levels:
                got = growth(sp, level)
                if model is Model.DQCK:
                    ceiling = bounds.dqck_growth_ceiling(space.oracle_dim, k, d, level)
                else:
                    ceiling = bounds.bqp_growth_ceiling(space.oracle_dim, d, level)
                checked += 1
                if not leq_tol(got, ceiling):
                    violations += 1
    return checked, violations


def test_criterion_3_dqck_ceiling():
    rng = np.random.default_rng(1003)
    start = time.time()
    checked, violations = _ceiling_harness(Model.DQCK, (2, 3), rng)
    elapsed = time.time() - start
    ok = violations == 0 and elapsed <= 300
    _report(3, ok, f"mixed-start ceiling: {checked} growth values, "
                   f"{violations} violations, {elapsed:.1f}s")


def test_criterion_4_bqp_ceiling():
    rng = np.random.default_rng(1004)
    start = time.time()
    checked, violations = _ceiling_harness(Model.BQP, (1, 2, 3), rng)
    elapsed = time.time() - start
    ok = violations == 0 and elapsed <= 300
    _report(4, ok, f"clean-start ceiling: {checked} growth values, "
                   f"{violations} violations, {elapsed:.1f}s")


def test_criterion_4_half_bqp_under_the_clean_start_ceiling():
    # a revealed fully mixed start averages M clean-start runs (bounds.bqp_growth_ceiling)
    rng = np.random.default_rng(1014)
    start = time.time()
    checked, violations = _ceiling_harness(Model.HALF_BQP, (1, 2, 3), rng)
    elapsed = time.time() - start
    ok = violations == 0 and elapsed <= 300
    _report(4, ok, f"HALF_BQP under the clean-start ceiling: {checked} growth values, "
                   f"{violations} violations, {elapsed:.1f}s")


def test_criterion_5_tightness():
    circ = tightness_circuit(2, 3)
    sp = spectrum_of_algorithm(circ.spec, circ.rho)
    level_growth = growth(sp, 3)
    want_growth = tightness_level_growth(2, 3)   # = 1.0
    nonzero = np.flatnonzero(np.abs(sp.coeffs) > 1e-12)
    nonzero = nonzero[nonzero != 0]
    want = tightness_spectrum(circ).coeffs
    magnitude = np.abs(want[1:]).max()   # = 1/64
    mags_ok = bool(np.all(np.abs(np.abs(sp.coeffs[nonzero]) - magnitude) <= 1e-9))
    signs_ok = bool(np.all(np.abs(sp.coeffs - want) <= 1e-9))
    ok = (
        abs(level_growth - want_growth) <= 1e-9
        and nonzero.size == 64
        and mags_ok
        and signs_ok
    )
    _report(5, ok, f"level-3 growth {level_growth:.12f} (want {want_growth}), "
                   f"{nonzero.size} nonzero coefficients of magnitude 1/64, "
                   f"signed entrywise {'ok' if signs_ok else 'BAD'}")


def test_criterion_6_clean_qubit_reduction():
    rng = np.random.default_rng(1006)
    xs = _inputs(4)
    worst = 0.0
    for trial in range(3):
        spec = random_spec(Model.DQCK, IndexSpace.qubits(2, 0, 3), 2, rng)
        originals = np.array([bias(spec, x) for x in xs])
        for t in (1, 2):
            reduced = reduce_clean_qubits(spec, t)
            scale = 2.0 ** (-(t + 1))
            for x, orig in zip(xs, originals):
                worst = max(worst, abs(bias(reduced, x) - scale * orig))
    ok = worst <= 1e-9
    _report(6, ok, f"bias ratio 2^-(t+1) pointwise over all 16 inputs, "
                   f"max deviation {worst:.2e}")


def test_criterion_7_fourier_oracle_agreement():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for trial in range(5):
        space = IndexSpace.qubits(1, 0, 1)   # M = 4
        spec = random_spec(Model.DQCK, space, 2, rng)
        rho = None if trial % 2 == 0 else random_restriction(2, rng)
        wht = spectrum_of_algorithm(spec, rho)
        direct = direct_restricted_spectrum(spec, rho)
        decomp = spectrum_via_decomposition(spec, rho)
        worst = max(worst, float(np.max(np.abs(wht.coeffs - direct.coeffs))))
        worst = max(worst, float(np.max(np.abs(wht.coeffs - decomp.coeffs))))
    ok = worst <= 1e-8
    _report(7, ok, f"transform vs direct summation vs factorization read-off, "
                   f"max deviation {worst:.2e}")


def test_criterion_8_signed_growth():
    rng = np.random.default_rng(1008)
    space = IndexSpace(12, 1, 1)
    worst_excess = -np.inf
    pairs = 0
    for _ in range(20):
        spec = random_spec(Model.HALF_BQP, space, 3, rng)
        rho = random_restriction(12, rng, star_prob=0.75)
        sp = embed_spectrum(spectrum_of_algorithm(spec, rho), rho)
        l3 = growth(sp, 3)
        l6 = growth(sp, 6)
        for _ in range(5):
            gamma = rng.uniform(-1, 1, 12)
            alpha = SignFamily(SignKind.ALPHA_GAMMA, 3, 12, gamma=gamma)
            beta = SignFamily(SignKind.BETA_GAMMA, 6, 12, gamma=gamma)
            worst_excess = max(worst_excess, abs(signed_growth(sp, alpha)) - l3)
            worst_excess = max(worst_excess, abs(signed_growth(sp, beta)) - l6)
            pairs += 1
    ok = worst_excess <= 1e-9

    # reported ratios (no hard threshold: the constant is not pinned down)
    print("[criterion  8] signed level-3 ratio report, d=2 mixed-start runs:")
    d = 2
    for block in (4, 8, 16, 32, 64):
        spec = random_spec(Model.HALF_BQP, IndexSpace(3 * block, 1, 1), d, rng)
        pattern = np.zeros(3 * block, dtype=np.int8)
        fixed = rng.choice(3 * block, size=block // 2, replace=False)
        pattern[fixed] = rng.choice(np.array([-1, 1], dtype=np.int8), size=fixed.size)
        rho = Restriction(pattern)
        gamma = rng.uniform(-1, 1, 3 * block)
        value = hbqp_alpha_signed_growth(spec, rho, gamma)
        ratio = abs(value) / (d**3 * np.sqrt(block))
        print(f"    N={block:3d}: |signed level-3 growth| = {abs(value):.6f}, "
              f"ratio to d^3 sqrt(N) = {ratio:.3e}")

    # the three-block trace circuit against the all-ones structured signs,
    # reported for reference (no asserted value)
    circ = tightness_circuit(2, 3)
    sp3 = spectrum_of_algorithm(circ.spec, circ.rho)
    ones = SignFamily(SignKind.ALPHA_GAMMA, 3, 12, gamma=np.ones(12))
    print(f"    3-block trace circuit (N=4): signed level-3 growth "
          f"{signed_growth(sp3, ones):.6f} at gamma = all-ones")
    _report(8, ok, f"{pairs} (spectrum, gamma) pairs, "
                   f"max |signed| - unsigned excess {worst_excess:.2e}")


def test_criterion_9_hybrid_bound():
    rng = np.random.default_rng(1009)
    violations = 0
    checked = 0
    for _ in range(10):
        n = int(rng.choice([2, 3]))
        k = int(rng.choice([1, 2]))
        d = int(rng.choice([2, 3]))
        space = IndexSpace.qubits(n, 0, k)
        depth = int(rng.integers(1, min(d, 3) + 1))
        hybrid = random_hybrid(Model.DQCK, space, d, rng, depth=depth)
        spect = spectrum_from_table(hybrid_truth_table(hybrid))
        for level in (2, 3):
            got = growth(spect, level)
            ceiling = bounds.hybrid_dqck_growth_ceiling(space.oracle_dim, k, d, level)
            checked += 1
            if not leq_tol(got, ceiling):
                violations += 1
    ok = violations == 0
    _report(9, ok, f"hybrid ceiling: {checked} growth values, {violations} violations")


def test_criterion_10_forrelation_pipeline():
    rng = np.random.default_rng(1010)
    worst_amp = 0.0
    largest = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        inst = random_instance(k, n, rng)
        value = forr(inst)
        largest = max(largest, abs(value))
        worst_amp = max(worst_amp, abs(value - forr_dense(inst)))
    worst_trace = 0.0
    for k, n in [(1, 2), (2, 2), (3, 1), (2, 3)]:
        circ = tightness_circuit(n, k)
        for _ in range(5):
            blocks = rng.choice(np.array([-1.0, 1.0]), size=(k, 1 << n))
            want = 0.5 + circ.trace_value(blocks) / (2 * circ.block_size)
            worst_trace = max(worst_trace, abs(circ.live_value(blocks.reshape(-1)) - want))
    ok = worst_amp <= 1e-12 and largest <= 1 + 1e-12 and worst_trace <= 1e-9
    _report(10, ok, f"1000 amplitude pairs, max gap {worst_amp:.2e}, "
                    f"max |amplitude| {largest:.6f}; "
                    f"trace-circuit acceptance gap {worst_trace:.2e}")
