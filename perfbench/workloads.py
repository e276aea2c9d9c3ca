"""Trial lists and trial bodies of the three benchmark workloads.

A workload is a fixed list of trials built from the workload seed: ``cycles``
copies of one unit, each copy with fresh trial seeds.  The unit's composition
is fixed, so every seed runs the same mix of work; the seed only changes the
random gates, accepting sets, restriction signs and decomposition inputs.

Trial bodies call the package's public functions in the order the matching
CLI command does, each call through ``Tracer.call`` so that a traced run can
time it.  Every trial returns an :class:`Outcome`: ``ok`` is false when a
certification flag is false or an oracle pair disagrees.  Trials that mirror a
CLI command also return the rows the CLI would write, for the parity check.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from qgrowth import bounds, cli, decomposition, forrelation, fourier, models
from qgrowth.linalg import IndexSpace, leq_tol
from qgrowth.models import Model, Restriction

#: Seconds one unit of each workload takes on the reference machine (2-core
#: Xeon, OpenBLAS pinned to 1 thread, 2 table workers).  A run of ``seconds``
#: builds ``round(seconds / UNIT_SECONDS)`` units, and at least two so that a
#: traced run has a plain and a traced unit to compare.
UNIT_SECONDS = {"tables": 9.5, "factorizations": 3.5, "crosscheck": 0.8}

LEVELS = (2, 3)
LAYOUTS = ("all_free", "free_first", "fixed_first")

# Oracle-pair tolerances, as in the acceptance suite.
SPECTRUM_TOL = 1e-8
FORMULA_TOL = 1e-9
FORR_TOL = 1e-12


@dataclass(frozen=True)
class Trial:
    kind: str
    seed: int
    cycle: int
    params: dict = field(default_factory=dict)
    #: the direct-sum check is expected to disagree here (see README.md)
    known_defect: bool = False


@dataclass
class Outcome:
    ok: bool
    detail: str
    rows: list = field(default_factory=list)
    raised: bool = False


def cycle_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds / UNIT_SECONDS[workload]))


def _seeds(seed: int, cycle: int, count: int) -> list:
    rng = np.random.default_rng([seed, cycle])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# ---------------------------------------------------------------------------
# trial lists


def _tables_unit(seed: int, cycle: int) -> list:
    """24 BQP, 3 HALF_BQP and 4 DQCK growth trials at N = 16, d = 2, the
    tightness circuit at n = 2, d = 3, and one DQCK hybrid of each depth."""
    order = []
    for i in range(24):
        order += ["BQP"] + ["DQCK"] * (i < 4) + ["HALF_BQP"] * (i < 3)
    seeds = iter(_seeds(seed, cycle, len(order) + 64))
    trials = [Trial("growth", next(seeds), cycle, {"model": name}) for name in order]
    trials.insert(8, Trial("tightness", 0, cycle))
    # hybrid-growth draws the tree depth first; keep the first seed of each depth
    want = {1: None, 2: None}
    for s in seeds:
        depth = int(np.random.default_rng(s).integers(1, 3))
        if want[depth] is None:
            want[depth] = s
        if None not in want.values():
            break
    trials.insert(4, Trial("hybrid", want[1], cycle, {"depth": 1}))
    trials.insert(16, Trial("hybrid", want[2], cycle, {"depth": 2}))
    return trials


#: Per-unit quota of random_decomposition_spec draws: (name, lowest and
#: highest augmented dimension, depths, count).  Small specs follow the
#: stream's own frequencies by size and depth; the costly classes, whose dense
#: SVDs set the trial time, are fixed by dimension and depth.  1600-dimensional
#: specs are left out: see README.md.
FACTOR_STRATA = (
    ("dim<=16,d=1", 1, 16, (1,), 2),
    ("dim<=16,d=2", 1, 16, (2,), 3),
    ("dim<=16,d=3", 1, 16, (3,), 3),
    ("dim<=16,d=4", 1, 16, (4,), 4),
    ("dim<=64,d=1", 17, 64, (1,), 1),
    ("dim<=64,d=2", 17, 64, (2,), 2),
    ("dim<=64,d=3", 17, 64, (3,), 3),
    ("dim<=64,d=4", 17, 64, (4,), 3),
    ("dim<=256,d=2", 65, 256, (2,), 1),
    ("dim<=256,d=3", 65, 256, (3,), 2),
    ("dim<=256,d=4", 65, 256, (4,), 3),
    ("dim=320,d=4", 320, 320, (4,), 1),
    ("dim=400,d=4", 400, 400, (4,), 1),
    ("dim=640,d=4", 640, 640, (4,), 1),
    ("dim=800,d=4", 800, 800, (4,), 1),
    ("dim=3200", 3200, 3200, (1, 2, 3, 4), 1),
)


def _factorizations_unit(seed: int, cycle: int) -> list:
    """Draw the verify-decomposition stream and keep draws until every
    stratum's quota is met, so each unit has the same mix of sizes."""
    left = {name: count for name, _, _, _, count in FACTOR_STRATA}
    trials = []
    rng = np.random.default_rng([seed, cycle])
    while any(left.values()):
        s = int(rng.integers(0, 2**31 - 1))
        spec = decomposition.random_decomposition_spec(np.random.default_rng(s))
        dim = decomposition._make_indexer(spec).dim
        for name, lo, hi, depths, _ in FACTOR_STRATA:
            if left[name] and lo <= dim <= hi and spec.depth in depths:
                left[name] -= 1
                trials.append(Trial("verify", s, cycle, {"stratum": name}))
                break
    return trials


#: (n, w, k, d) per model for the direct-sum pairs: a small size and one at
#: about 10^6 summed tuples (M = 32).
DIRECT_SIZES = {
    "BQP": ((2, 2, 0, 2), (3, 2, 0, 2)),
    "DQCK": ((2, 0, 1, 2), (3, 1, 1, 2)),
    "HALF_BQP": ((2, 1, 0, 2), (3, 2, 0, 1)),
}


def _crosscheck_unit(seed: int, cycle: int) -> list:
    seeds = iter(_seeds(seed, cycle, 64))
    trials = []
    # consecutive even/odd cycles share a layout, so a traced run compares like with like
    cycled = LAYOUTS[(cycle // 2) % len(LAYOUTS)]
    for size, layouts in ((0, LAYOUTS), (1, (cycled,))):
        for model in ("BQP", "DQCK", "HALF_BQP"):
            for layout in layouts:
                n, w, k, d = DIRECT_SIZES[model][size]
                defect = model != "DQCK" and layout == "fixed_first"
                trials.append(Trial("direct_sum", next(seeds), cycle,
                                    {"model": model, "space": (n, w, k), "d": d,
                                     "layout": layout}, known_defect=defect))
    for model in ("BQP", "DQCK", "HALF_BQP") * 3:
        trials.append(Trial("formula", next(seeds), cycle, {"model": model}))
    trials.append(Trial("reduce", next(seeds), cycle))
    trials.append(Trial("signed", next(seeds), cycle, {"layout": cycled}))
    trials.append(Trial("block_pair", next(seeds), cycle, {"layout": cycled}))
    for block in (8, 16):
        trials.append(Trial("block", next(seeds), cycle, {"block": block, "layout": cycled}))
    trials.append(Trial("forr", next(seeds), cycle))
    for layout in LAYOUTS:
        trials.append(Trial("three_way", next(seeds), cycle, {"layout": layout}))
    return trials


_UNITS = {
    "tables": _tables_unit,
    "factorizations": _factorizations_unit,
    "crosscheck": _crosscheck_unit,
}


def build(workload: str, seed: int, cycles: int) -> list:
    return [t for cycle in range(cycles) for t in _UNITS[workload](seed, cycle)]


# ---------------------------------------------------------------------------
# shared steps


def layout_restriction(n: int, layout: str, rng: np.random.Generator) -> Restriction:
    """The same restriction scheme for every model: n // 4 coordinates (at
    least one) fixed to random signs, placed last, first, or nowhere."""
    fixed = max(1, n // 4)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    pattern = np.zeros(n, dtype=np.int8)
    if layout == "free_first":
        pattern[n - fixed:] = signs[n - fixed:]
    elif layout == "fixed_first":
        pattern[:fixed] = signs[:fixed]
    return Restriction(pattern)


def _table_flops(spec: models.AlgorithmSpec, entries: int) -> float:
    """8 real flops per complex multiply-add: batch * M^2 * columns * (d+1)."""
    m = spec.space.total_dim
    columns = {Model.BQP: 1, Model.DQCK: m // spec.space.clean_dim, Model.HALF_BQP: m}
    return 8.0 * entries * m * m * columns[spec.model] * (spec.d + 1)


def _truth_table(tr, spec, rho, workers):
    tag = spec.model.name.lower()
    table = tr.call(f"models.truth_table.{tag}", models.truth_table, spec, rho, workers=workers)
    tr.add(f"models.truth_table.{tag}.entries", table.size)
    tr.add("models.truth_table.flop", _table_flops(spec, table.size))
    tr.peak("models.truth_table.max_entries", table.size)
    return table


def _spectrum(tr, table):
    tr.add("fourier.spectrum_from_table.points", table.size)
    return tr.call("fourier.spectrum_from_table", fourier.spectrum_from_table, table)


def _growth(tr, sp, level):
    tr.add("fourier.growth.calls", 1)
    return tr.call("fourier.growth", fourier.growth, sp, level)


def _certify(tr, observed, ceiling):
    """The CLI's pass test; records how close the observation came."""
    tr.add("bounds.checks", 1)
    tr.peak("bounds.max_slack", observed / ceiling)
    return leq_tol(observed, ceiling)


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _inputs(n: int) -> np.ndarray:
    masks = np.arange(1 << n)
    return np.where((masks[:, None] >> np.arange(n)) & 1, -1.0, 1.0)


# ---------------------------------------------------------------------------
# tables: growth / hybrid-growth / tightness


def _trial_growth(tr, trial, workers):
    model = Model[trial.params["model"]]
    k = 1 if model is Model.DQCK else 0
    space = IndexSpace.qubits(4, 0, k)
    rng = np.random.default_rng(trial.seed)
    spec = tr.call("models.random_spec", models.random_spec, model, space, 2, rng)
    rho = tr.call("models.random_restriction", models.random_restriction,
                  space.oracle_dim, rng, star_prob=0.5)
    base = _spectrum(tr, _truth_table(tr, spec, None, workers))
    sp = tr.call("fourier.restrict_spectrum", fourier.restrict_spectrum, base, rho)
    rows = []
    for level in LEVELS:
        got = _growth(tr, sp, level)
        if model is Model.DQCK:
            ceiling = tr.call("bounds.dqck_growth_ceiling", bounds.dqck_growth_ceiling,
                              space.oracle_dim, k, 2, level)
        else:
            ceiling = tr.call("bounds.bqp_growth_ceiling", bounds.bqp_growth_ceiling,
                              space.oracle_dim, 2, level)
        rows.append((level, got, ceiling, _certify(tr, got, ceiling)))
    return Outcome(all(r[3] for r in rows), "", rows)


def _trial_hybrid(tr, trial, workers):
    space = IndexSpace.qubits(4, 0, 1)
    d = 2
    rng = np.random.default_rng(trial.seed)
    depth = int(rng.integers(1, min(d, space.oracle_dim) + 1))
    hybrid = tr.call("models.random_hybrid", models.random_hybrid,
                     Model.DQCK, space, d, rng, depth=depth)
    table = tr.call("models.hybrid_truth_table", models.hybrid_truth_table,
                    hybrid, workers=workers)
    tr.add("models.hybrid_truth_table.useful", table.size)
    tr.add("models.hybrid_truth_table.entries", table.size * len(hybrid.leaf_algorithms))
    sp = _spectrum(tr, table)
    rows = []
    for level in LEVELS:
        got = _growth(tr, sp, level)
        ceiling = tr.call("bounds.hybrid_dqck_growth_ceiling", bounds.hybrid_dqck_growth_ceiling,
                          space.oracle_dim, 1, d, level)
        rows.append((depth, level, got, ceiling, _certify(tr, got, ceiling)))
    return Outcome(all(r[4] for r in rows), f"depth {depth}", rows)


def _trial_tightness(tr, trial, workers):
    n, d = 2, 3
    circuit = tr.call("forrelation.tightness_circuit", forrelation.tightness_circuit, n, d)
    sp = _spectrum(tr, _truth_table(tr, circuit.spec, circuit.rho, workers))
    size = circuit.block_size
    magnitude = 1.0 / (2 * size * size ** (d / 2))
    expected = tr.call("forrelation.tightness_level_growth",
                       forrelation.tightness_level_growth, n, d)
    got = _growth(tr, sp, d)
    nonzero = np.flatnonzero(np.abs(sp.coeffs) > 1e-12)
    nonzero = nonzero[nonzero != 0]
    ok = bool(
        abs(got - expected) <= 1e-9
        and nonzero.size == size**d
        and np.all(np.abs(np.abs(sp.coeffs[nonzero]) - magnitude) <= 1e-9)
    )
    return Outcome(ok, "", [(got, expected, ok)])


# ---------------------------------------------------------------------------
# factorizations: verify-decomposition


def _trial_verify(tr, trial, workers):
    rng = np.random.default_rng(trial.seed)
    spec = tr.call("decomposition.random_decomposition_spec",
                   decomposition.random_decomposition_spec, rng)
    report = tr.call("decomposition.verify", decomposition.verify, spec)
    dim = report["augmented_dim"]
    m = spec.space.total_dim
    tr.peak("decomposition.augmented_dim.max", dim)
    tr.add("decomposition.brute_force_tensor.paths", m ** (spec.depth + 1))
    if dim <= decomposition._DENSE_SVD_CUTOFF:
        # singular values of a complex n x n matrix: 4 * 8n^3/3 real flops
        tr.add("decomposition.dense_svd.flop", spec.depth * 32.0 * dim**3 / 3.0)
        tr.peak("decomposition.dense_svd.max_dim", dim)
    return Outcome(report["pass"], trial.params["stratum"],
                   [tuple(report[k] for k in VERIFY_KEYS)])


#: The verify() report fields compared with ``qgrowth verify-decomposition``.
VERIFY_KEYS = ("max_entry_deviation", "max_factor_operator_norm", "product_frobenius",
               "min_input_frobenius", "pass")


def verify_substeps(tr, trial) -> None:
    """Time verify()'s public sub-steps as separate calls on the same spec.

    Run after the trial, outside its wall time, in traced units only."""
    spec = decomposition.random_decomposition_spec(np.random.default_rng(trial.seed))
    build_fn = decomposition.decompose_improved if spec.p or spec.q else decomposition.decompose
    built = tr.call("decomposition.decompose", build_fn, spec)
    tr.call("decomposition.brute_force_tensor", decomposition.brute_force_tensor, spec)
    tr.call("decomposition.free_start_block", built.free_start_block)
    tr.call("decomposition.factor_operator_norms", built.factor_operator_norms)


# ---------------------------------------------------------------------------
# crosscheck: independent oracle pairs


def _trial_direct_sum(tr, trial, workers):
    p = trial.params
    model = Model[p["model"]]
    space = IndexSpace.qubits(*p["space"])
    rng = np.random.default_rng(trial.seed)
    spec = tr.call("models.random_spec", models.random_spec, model, space, p["d"], rng)
    rho = layout_restriction(space.oracle_dim, p["layout"], rng)
    wht = _spectrum(tr, _truth_table(tr, spec, rho, workers))
    direct = tr.call("fourier.direct_restricted_spectrum",
                     fourier.direct_restricted_spectrum, spec, rho)
    summed = 2 * p["d"] + (2 if model is Model.HALF_BQP else 0)
    tuples = space.total_dim**summed
    tr.add("fourier.direct_restricted_spectrum.tuples", tuples)
    tr.peak("fourier.direct_restricted_spectrum.max_tuples", tuples)
    dev = _max_dev(wht.coeffs, direct.coeffs)
    return Outcome(dev <= SPECTRUM_TOL, f"{model.name} M={space.total_dim} "
                   f"rho={rho.to_string()} deviation {dev:.2e}")


def _trial_formula(tr, trial, workers):
    model = Model[trial.params["model"]]
    space = IndexSpace.qubits(3, 0, 1) if model is Model.DQCK else IndexSpace.qubits(3, 1, 0)
    rng = np.random.default_rng(trial.seed)
    spec = tr.call("models.random_spec", models.random_spec, model, space, 2, rng)
    worst = 0.0
    for x in _inputs(space.oracle_dim):
        direct = tr.call("models.acceptance_direct", models.acceptance_direct, spec, x)
        formula = tr.call("models.acceptance_formula", models.acceptance_formula, spec, x)
        worst = max(worst, abs(direct - formula))
    tr.add("models.acceptance_direct.calls", 1 << space.oracle_dim)
    tr.add("models.acceptance_formula.calls", 1 << space.oracle_dim)
    return Outcome(worst <= FORMULA_TOL, f"{model.name} deviation {worst:.2e}")


def _trial_reduce(tr, trial, workers):
    """cmd_reduce at its defaults: n = 2, k = 2, d = 2, t = 1."""
    t = 1
    space = IndexSpace.qubits(2, 0, 2)
    rng = np.random.default_rng(trial.seed)
    spec = tr.call("models.random_spec", models.random_spec, Model.DQCK, space, 2, rng)
    reduced = tr.call("models.reduce_clean_qubits", models.reduce_clean_qubits, spec, t)
    scale = 2.0 ** (-(t + 1))
    worst = 0.0
    for x in _inputs(space.oracle_dim):
        before = tr.call("models.bias", models.bias, spec, x)
        after = tr.call("models.bias", models.bias, reduced, x)
        worst = max(worst, abs(after - scale * before))
    ok = worst <= FORMULA_TOL
    return Outcome(ok, f"deviation {worst:.2e}", [(worst, scale, ok)])


def _half_spectrum(tr, spec, rho, workers):
    sp = _spectrum(tr, _truth_table(tr, spec, rho, workers))
    return tr.call("fourier.embed_spectrum", fourier.embed_spectrum, sp, rho)


def _alpha(gamma):
    return fourier.SignFamily(fourier.SignKind.ALPHA_GAMMA, 3, gamma.size, gamma=gamma)


def _trial_signed(tr, trial, workers):
    """Signed growth of the alpha/beta families never exceeds the unsigned
    growth of its level (acceptance criterion 8), N = 12, d = 3."""
    rng = np.random.default_rng(trial.seed)
    spec = tr.call("models.random_spec", models.random_spec,
                   Model.HALF_BQP, IndexSpace(12, 1, 1), 3, rng)
    sp = _half_spectrum(tr, spec, layout_restriction(12, trial.params["layout"], rng), workers)
    gamma = rng.uniform(-1, 1, 12)
    beta = fourier.SignFamily(fourier.SignKind.BETA_GAMMA, 6, 12, gamma=gamma)
    excess = max(
        abs(tr.call("fourier.signed_growth", fourier.signed_growth, sp, _alpha(gamma)))
        - _growth(tr, sp, 3),
        abs(tr.call("fourier.signed_growth", fourier.signed_growth, sp, beta))
        - _growth(tr, sp, 6),
    )
    return Outcome(excess <= FORMULA_TOL, f"signed - unsigned {excess:.2e}")


def _trial_block_pair(tr, trial, workers):
    """Block-tensor signed growth vs the same sum over the full transform, N = 12."""
    rng = np.random.default_rng(trial.seed)
    spec = tr.call("models.random_spec", models.random_spec,
                   Model.HALF_BQP, IndexSpace(12, 1, 1), 2, rng)
    rho = layout_restriction(12, trial.params["layout"], rng)
    gamma = rng.uniform(-1, 1, 12)
    block = tr.call("fourier.hbqp_alpha_signed_growth",
                    fourier.hbqp_alpha_signed_growth, spec, rho, gamma)
    sp = _half_spectrum(tr, spec, rho, workers)
    full = tr.call("fourier.signed_growth", fourier.signed_growth, sp, _alpha(gamma))
    dev = abs(block - full)
    return Outcome(dev <= FORMULA_TOL, f"deviation {dev:.2e}")


def _trial_block(tr, trial, workers):
    """Block-tensor signed growth past truth-table reach (criterion 8's
    ratio report); certified against the clean-start level-3 ceiling,
    which bounds HALF_BQP because its acceptance averages clean-start runs."""
    size = trial.params["block"]
    n = 3 * size
    rng = np.random.default_rng(trial.seed)
    spec = tr.call("models.random_spec", models.random_spec,
                   Model.HALF_BQP, IndexSpace(n, 1, 1), 2, rng)
    rho = layout_restriction(n, trial.params["layout"], rng)
    value = tr.call("fourier.hbqp_alpha_signed_growth",
                    fourier.hbqp_alpha_signed_growth, spec, rho, rng.uniform(-1, 1, n))
    ceiling = tr.call("bounds.bqp_growth_ceiling", bounds.bqp_growth_ceiling, n, 2, 3)
    ok = bool(np.isfinite(value)) and _certify(tr, abs(value), ceiling)
    return Outcome(ok, f"block {size}: {value:.3e}")


def _trial_forr(tr, trial, workers):
    rng = np.random.default_rng(trial.seed)
    worst = 0.0
    largest = 0.0
    for k in (1, 2, 3):
        for n in (3, 6, 9):
            inst = tr.call("forrelation.random_instance", forrelation.random_instance, k, n, rng)
            fast = tr.call("forrelation.forr", forrelation.forr, inst)
            dense = tr.call("forrelation.forr_dense", forrelation.forr_dense, inst)
            worst = max(worst, abs(fast - dense))
            largest = max(largest, abs(fast))
    return Outcome(worst <= FORR_TOL and largest <= 1 + FORR_TOL, f"gap {worst:.2e}")


def _trial_three_way(tr, trial, workers):
    """Transform vs direct summation vs factorization read-off (criterion 7)."""
    rng = np.random.default_rng(trial.seed)
    spec = tr.call("models.random_spec", models.random_spec,
                   Model.DQCK, IndexSpace.qubits(1, 0, 1), 2, rng)
    rho = layout_restriction(2, trial.params["layout"], rng)
    wht = _spectrum(tr, _truth_table(tr, spec, rho, workers))
    direct = tr.call("fourier.direct_restricted_spectrum",
                     fourier.direct_restricted_spectrum, spec, rho)
    tr.add("fourier.direct_restricted_spectrum.tuples", spec.space.total_dim ** (2 * spec.d))
    read = tr.call("decomposition.spectrum_via_decomposition",
                   decomposition.spectrum_via_decomposition, spec, rho)
    dev = max(_max_dev(wht.coeffs, direct.coeffs), _max_dev(wht.coeffs, read.coeffs))
    return Outcome(dev <= SPECTRUM_TOL, f"deviation {dev:.2e}")


_BODIES = {
    "growth": _trial_growth,
    "hybrid": _trial_hybrid,
    "tightness": _trial_tightness,
    "verify": _trial_verify,
    "direct_sum": _trial_direct_sum,
    "formula": _trial_formula,
    "reduce": _trial_reduce,
    "signed": _trial_signed,
    "block_pair": _trial_block_pair,
    "block": _trial_block,
    "forr": _trial_forr,
    "three_way": _trial_three_way,
}


def run_trial(tr, trial: Trial, workers: int) -> Outcome:
    return _BODIES[trial.kind](tr, trial, workers)


# ---------------------------------------------------------------------------
# CLI parity


def _cli_json(argv: list, out_path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", str(out_path)])
    if code not in (0, 1):
        raise RuntimeError(f"qgrowth {' '.join(argv)} exited {code}")
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def _cli_rows(trial: Trial, workers: int, out_path) -> list:
    """The rows ``qgrowth.cli.main`` writes for the command this trial mirrors."""
    common = ["--seed", str(trial.seed), "--workers", str(workers)]
    if trial.kind == "growth":
        model = trial.params["model"].lower()
        doc = _cli_json(["growth", "--model", model, "--n", "4", "--k", "1", "--d", "2",
                         "--levels", "2,3", "--trials", "1", "--restriction", "random:0.5",
                         "--format", "json"] + common, out_path)
        return [(r["level"], r["observed_max"], r["ceiling"], r["status"] == "pass")
                for r in doc["rows"]]
    if trial.kind == "hybrid":
        doc = _cli_json(["hybrid-growth", "--n", "4", "--k", "1", "--d", "2", "--levels", "2,3",
                         "--trials", "1", "--format", "json"] + common, out_path)
        return [(r["depth"], r["level"], r["observed"], r["ceiling"], r["status"] == "pass")
                for r in doc["rows"]]
    if trial.kind == "tightness":
        doc = _cli_json(["tightness", "--n", "2", "--d", "3"] + common, out_path)
        return [(doc["growth"], doc["expected_growth"], doc["pass"])]
    if trial.kind == "verify":
        doc = _cli_json(["verify-decomposition", "--trials", "1"] + common, out_path)
        return [tuple(doc["reports"][0][k] for k in VERIFY_KEYS)]
    if trial.kind == "reduce":
        doc = _cli_json(["reduce", "--n", "2", "--k", "2", "--d", "2", "--t", "1"] + common,
                        out_path)
        return [(doc["max_pointwise_deviation"], doc["expected_ratio"], doc["pass"])]
    raise ValueError(f"no CLI command mirrors trial kind {trial.kind!r}")


#: Augmented dimension above decomposition._DENSE_SVD_CUTOFF: factor norms
#: come from scipy's svds, whose random start vector makes the last digits
#: differ from call to call (a known defect, see README.md).
SVDS_STRATUM = "dim=3200"

#: Trials checked against the CLI: the first of each (kind, model or stratum).
_PARITY_KEYS = {
    "tables": ("growth:BQP", "hybrid:", "tightness:"),
    "factorizations": ("verify:dim<=16,d=3", f"verify:{SVDS_STRATUM}"),
    "crosscheck": ("reduce:",),
}


def parity_trials(workload: str, trials: list) -> list:
    picked = {}
    for idx, trial in enumerate(trials):
        key = f"{trial.kind}:{trial.params.get('model', trial.params.get('stratum', ''))}"
        if key in _PARITY_KEYS[workload] and key not in picked:
            picked[key] = idx
    return sorted(picked.values())


def cli_parity(trial: Trial, rows: list, workers: int, out_path):
    """Compare this trial's certified rows with what the CLI writes.

    Returns ``(error, known)``: ``error`` describes a mismatch; ``known``
    describes a mismatch that is only the svds factor-norm nondeterminism.
    """
    rows = [tuple(r) for r in rows]
    try:
        cli_rows = [tuple(r) for r in _cli_rows(trial, workers, out_path)]
    except RuntimeError as exc:
        return str(exc), ""
    if rows == cli_rows:
        return "", ""
    message = f"{trial.kind} seed {trial.seed}: benchmark {rows} != CLI {cli_rows}"
    if trial.params.get("stratum") == SVDS_STRATUM and len(rows) == len(cli_rows) == 1:
        (ours, theirs) = rows[0], cli_rows[0]
        same_rest = ours[:1] + ours[2:] == theirs[:1] + theirs[2:]
        if same_rest and abs(ours[1] - theirs[1]) <= 1e-12:
            return "", message
    return message, ""
