import ast
import builtins
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qgrowth import bounds, cli, decomposition, forrelation, fourier, models
from qgrowth.cli import main
from qgrowth.linalg import hadamard_matrix
from qgrowth.models import Model, spec_to_json, AlgorithmSpec
from qgrowth.linalg import IndexSpace

ROOT = Path(__file__).resolve().parents[1]


def test_growth_command_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["growth", "--model", "dqc1", "--n", "2", "--d", "2", "--levels", "2,3",
            "--trials", "3", "--seed", "5", "--workers", "1"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[1].startswith("model,")
    assert all(line.endswith("pass") for line in lines[2:])


def test_growth_command_bqp_json(tmp_path):
    out = tmp_path / "g.json"
    argv = ["growth", "--model", "bqp", "--n", "2", "--d", "1", "--levels", "1,2",
            "--trials", "2", "--seed", "1", "--format", "json", "--out", str(out),
            "--restriction", "random:0.4", "--workers", "1"]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert len(doc["rows"]) == 2


def test_verify_decomposition_command(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify-decomposition", "--trials", "3", "--seed", "2",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert len(doc["reports"]) == 3


def test_verify_decomposition_output_is_reproducible(tmp_path):
    # seed 13 draws a 3200-dimensional spec; its factor norms must not vary
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["verify-decomposition", "--trials", "1", "--seed", "13",
                     "--out", str(out)]) == 0
    assert json.loads(outs[0].read_text())["reports"][0]["augmented_dim"] == 3200
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _scale_every_factor(by):
    def plant(factors):
        for factor in factors:
            factor.data *= by
    return plant


def _nudge_first_entry(factors):
    factors[0].data[0] += 1e-7


@pytest.mark.parametrize("plant, flags, code", [
    (_scale_every_factor(1 + 1e-7), (False, False, False), 1),
    (_scale_every_factor(1 + 1e-10), (True, True, True), 0),
    # the norm reads 1 + 5.2e-8, the Frobenius ratio moves by 4e-10, within leq_tol
    (_nudge_first_entry, (False, False, True), 1),
], ids=["every-factor-1e-7", "every-factor-1e-10", "first-entry-1e-7"])
def test_verify_decomposition_rejects_a_planted_defect(plant, flags, code, tmp_path,
                                                       monkeypatch):
    # seed 1 draws dim 128, depth 2, whose product Frobenius norm equals the input
    # bound: each guarantee is tight, so a defect of 1e-7 must flip its verdict
    real = decomposition.decompose_improved

    def planted(spec):
        built = real(spec)
        plant(built.factors)
        return built

    monkeypatch.setattr(decomposition, "decompose_improved", planted)
    out = tmp_path / "verify.json"
    assert main(["verify-decomposition", "--trials", "1", "--seed", "1",
                 "--out", str(out)]) == code
    report = json.loads(out.read_text())["reports"][0]
    assert (report["augmented_dim"], report["depth"]) == (128, 2)
    assert (report["entries_pass"], report["factor_norm_pass"],
            report["frobenius_pass"]) == flags


def test_growth_past_its_ceiling_reads_violation(tmp_path, monkeypatch):
    # an observed growth of ceiling * (1 + 1e-7), 100 times leq_tol's relative slack;
    # --n 2 qubits index N = 4 oracle coordinates
    ceilings = {level: bounds.dqck_growth_ceiling(4, 1, 2, level) for level in (2, 3)}
    monkeypatch.setattr(fourier, "growth", lambda sp, level: ceilings[level] * (1 + 1e-7))
    out = tmp_path / "growth.csv"
    assert main(["growth", "--model", "dqck", "--n", "2", "--k", "1", "--d", "2",
                 "--levels", "2,3", "--trials", "1", "--workers", "1",
                 "--out", str(out)]) == 1
    rows = out.read_text().strip().splitlines()[2:]
    assert len(rows) == 2 and all(row.endswith(",VIOLATION") for row in rows)


def test_hybrid_growth_past_its_ceiling_reads_violation(tmp_path, monkeypatch):
    ceilings = {level: bounds.hybrid_dqck_growth_ceiling(4, 1, 2, level) for level in (2, 3)}
    monkeypatch.setattr(fourier, "growth", lambda sp, level: ceilings[level] * (1 + 1e-7))
    out = tmp_path / "hybrid.csv"
    assert main(["hybrid-growth", "--n", "2", "--k", "1", "--d", "2", "--levels", "2,3",
                 "--trials", "1", "--workers", "1", "--out", str(out)]) == 1
    rows = out.read_text().strip().splitlines()[2:]
    assert len(rows) == 2 and all(row.endswith(",VIOLATION") for row in rows)


def test_forrelation_past_one_reads_violation(tmp_path, monkeypatch):
    # 1 + 1e-7 is 10^5 times ZERO_TOL past the bound |forr| <= 1
    argv = ["forrelation", "--k", "2", "--n", "3", "--trials", "2", "--seed", "3", "--out"]
    assert main(argv + [str(tmp_path / "real.csv")]) == 0
    monkeypatch.setattr(forrelation, "forr", lambda inst: 1 + 1e-7)
    out = tmp_path / "planted.csv"
    assert main(argv + [str(out)]) == 1
    rows = out.read_text().strip().splitlines()[2:]
    assert len(rows) == 2 and all(float(row.split(",")[2]) == 1 + 1e-7 for row in rows)


def test_reduce_with_one_reduced_entry_moved_fails(tmp_path, monkeypatch, capsys):
    # the second table is the reduced algorithm's; its bias entry 0 moves by 2e-7
    real, calls = cli.truth_table, []

    def planted(spec, workers=1):
        table = real(spec, workers=workers)
        calls.append(spec)
        if len(calls) == 2:
            table[0] += 1e-7
        return table

    monkeypatch.setattr(cli, "truth_table", planted)
    out = tmp_path / "reduce.json"
    assert main(["reduce", "--n", "2", "--k", "2", "--t", "1", "--d", "2", "--seed", "4",
                 "--workers", "1", "--out", str(out)]) == 1
    assert len(calls) == 2
    doc = json.loads(out.read_text())
    assert doc["pass"] is False and doc["max_pointwise_deviation"] > 1e-7
    assert "FAIL" in capsys.readouterr().err


# A regression pin of the three ceilings, each at points on both sides of its
# min(2^(k/2), sqrt N) where it has one: it repeats the docstring formulas, so it is no
# independent evidence of their values, only of their not moving.
_PINNED_CEILINGS = [
    (bounds.dqck_growth_ceiling, (16, 1, 2, 2), 8.485281374238571),
    (bounds.dqck_growth_ceiling, (64, 3, 3, 4), 2715.2900397563426),
    (bounds.dqck_growth_ceiling, (1024, 12, 4, 5), 58720256.0),
    (bounds.bqp_growth_ceiling, (16, 2, 1), 4.0),
    (bounds.bqp_growth_ceiling, (64, 3, 4), 7680.0),
    (bounds.bqp_growth_ceiling, (1024, 4, 5), 58720256.0),
    (bounds.hybrid_dqck_growth_ceiling, (16, 1, 2, 2), 21.213203435596427),
    (bounds.hybrid_dqck_growth_ceiling, (64, 3, 3, 4), 22808.43633395328),
    (bounds.hybrid_dqck_growth_ceiling, (1024, 12, 4, 5), 830472192.0),
]


@pytest.mark.parametrize("ceiling, point, value", _PINNED_CEILINGS, ids=[
    f"{c.__name__}-{'-'.join(map(str, p))}" for c, p, _ in _PINNED_CEILINGS])
def test_ceiling_values_are_pinned(ceiling, point, value):
    assert ceiling(*point) == value


@pytest.mark.parametrize("prob", ["1.7", "-0.1", "nan"])
def test_growth_rejects_out_of_range_random_restriction(prob, tmp_path):
    argv = ["growth", "--model", "bqp", "--n", "2", "--d", "1", "--trials", "1",
            "--restriction", f"random:{prob}", "--out", str(tmp_path / "g.csv")]
    assert main(argv) == 2
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("argv", [
    ["growth", "--model", "bqp", "--n", "1", "--d", "1", "--levels", "1", "--trials", "1"],
    ["hybrid-growth", "--n", "1", "--d", "1", "--levels", "2", "--trials", "1"],
])
def test_non_finite_observation_is_an_error(argv, value, monkeypatch, tmp_path, capsys):
    # a NaN must not vanish into max() as a pass, nor show as a violation
    monkeypatch.setattr(fourier, "growth", lambda sp, level: value)
    out = tmp_path / "rows.csv"
    assert main(argv + ["--workers", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "not finite" in err
    assert not out.exists()


def test_forrelation_command(tmp_path):
    out = tmp_path / "forr.csv"
    assert main(["forrelation", "--k", "2", "--n", "3", "--trials", "10",
                 "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "id,kind,forr_value,label"
    assert len(lines) == 12


def test_tightness_command(tmp_path, capsys):
    out = tmp_path / "tight.json"
    assert main(["tightness", "--n", "1", "--d", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["nonzero_coefficients"] == 4
    assert "PASS" in capsys.readouterr().err


def _tightness_with(edit, monkeypatch, tmp_path):
    """Exit code and document of ``tightness --n 1 --d 2`` on the real spectrum edited by
    ``edit``, after checking the unedited run passes."""
    real = fourier.spectrum_of_algorithm

    def edited(*args, **kwargs):
        sp = real(*args, **kwargs)
        coeffs = sp.coeffs.copy()
        edit(coeffs)
        return fourier.FourierSpectrum(sp.num_vars, coeffs)

    argv = ["tightness", "--n", "1", "--d", "2", "--workers", "1", "--out"]
    assert main(argv + [str(tmp_path / "real.json")]) == 0
    monkeypatch.setattr(fourier, "spectrum_of_algorithm", edited)
    out = tmp_path / "edited.json"
    code = main(argv + [str(out)])
    return code, json.loads(out.read_text())


def test_tightness_checks_coefficient_signs(monkeypatch, tmp_path):
    # negating one coefficient keeps every magnitude, the count and the growth
    def flip_one(coeffs):
        coeffs[np.flatnonzero(np.abs(coeffs) > cli.ZERO_TOL)[-1]] *= -1

    code, doc = _tightness_with(flip_one, monkeypatch, tmp_path)
    assert code == 1
    assert doc["pass"] is False
    assert doc["nonzero_coefficients"] == doc["expected_nonzero"]
    assert abs(doc["growth"] - doc["expected_growth"]) <= cli.MATCH_TOL


def test_tightness_checks_the_empty_set_coefficient(monkeypatch, tmp_path):
    # the empty set is outside the nonzero count and the level-d growth
    def shift_empty(coeffs):
        coeffs[0] += 0.1

    code, doc = _tightness_with(shift_empty, monkeypatch, tmp_path)
    assert code == 1
    assert doc["pass"] is False
    assert doc["nonzero_coefficients"] == doc["expected_nonzero"]
    assert abs(doc["growth"] - doc["expected_growth"]) <= cli.MATCH_TOL


def test_tightness_checks_its_growth(monkeypatch, tmp_path):
    # the coefficients stay the table's; only the level-d growth reads 1e-7 high
    real = fourier.growth
    monkeypatch.setattr(fourier, "growth", lambda sp, level: real(sp, level) + 1e-7)
    out = tmp_path / "tight.json"
    assert main(["tightness", "--n", "1", "--d", "2", "--workers", "1", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["pass"] is False
    assert doc["nonzero_coefficients"] == doc["expected_nonzero"]


def test_tightness_checks_each_coefficient(monkeypatch, tmp_path):
    def nudge_one(coeffs):
        coeffs[np.flatnonzero(np.abs(coeffs) > cli.ZERO_TOL)[-1]] += 1e-7

    code, doc = _tightness_with(nudge_one, monkeypatch, tmp_path)
    assert code == 1
    assert doc["pass"] is False
    assert doc["nonzero_coefficients"] == doc["expected_nonzero"]


def test_tightness_resource_error():
    assert main(["tightness", "--n", "3", "--d", "3"]) == 2


def test_spectrum_command(tmp_path):
    # one-query circuit whose acceptance is (1 + x0 x1) / 2
    space = IndexSpace.qubits(1)
    had = hadamard_matrix(1)
    accept = np.zeros(2, dtype=bool)
    accept[0] = True
    spec = AlgorithmSpec(Model.BQP, space, 1, (had, had), accept)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    out = tmp_path / "sp.csv"
    assert main(["spectrum", "--spec", str(path), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    values = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
    nonzero = {mask for mask, val in values.items() if abs(val) > 1e-12}
    assert nonzero == {0, 3}
    assert values[3] == pytest.approx(0.5)


def _spec_doc(**changes):
    doc = {"model": "BQP", "n": 1, "d": 1, "accept": [0],
           "unitaries": [{"kind": "hadamard"}, {"kind": "hadamard"}]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("top, code", [(1.0, 0), (1 + 1e-7, 2)], ids=["unitary", "1e-7-off"])
def test_spectrum_refuses_a_gate_off_unitary(top, code, tmp_path, capsys):
    # gate 0 = diag(top, 1): 1e-7 off leaves a residual ~140 times UNITARY_TOL's allowance
    gate = {"kind": "explicit", "rows": [[[top, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec_doc(unitaries=[gate, {"kind": "hadamard"}])))
    assert main(["spectrum", "--spec", str(path), "--out", str(tmp_path / "sp.csv")]) == code
    err = capsys.readouterr().err
    assert ("gate 0 is not unitary" in err) == (code == 2)


@pytest.mark.parametrize("doc", [
    {key: val for key, val in _spec_doc().items() if key != "model"},
    _spec_doc(accept=[5]),
    _spec_doc(accept=[-1]),
    _spec_doc(accept=[True]),
    _spec_doc(unitaries=[{"kind": "haar"}, {"kind": "hadamard"}]),
    [_spec_doc()],
    _spec_doc(n=1.7),
    _spec_doc(d=True),
    _spec_doc(w=-1),
    _spec_doc(model="HALF_BQP", accept=[[0.7, 0], [1, 0]]),
    _spec_doc(model="HALF_BQP", accept=[[True, 0], [1, 0]]),
    _spec_doc(model="HALF_BQP", accept=[[2, 0], [1, 0]]),
    _spec_doc(model="HALF_BQP", accept=[[1, 0], [1]]),
    _spec_doc(model="HALF_BQP", accept=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    _spec_doc(model=5),
    _spec_doc(model="qma"),
    _spec_doc(unitaries={"kind": "hadamard"}),
    _spec_doc(unitaries=["hadamard", {"kind": "hadamard"}]),
    _spec_doc(unitaries=[{"kind": 5}, {"kind": "hadamard"}]),
    _spec_doc(unitaries=[{"kind": "haar", "seed": 1.5}, {"kind": "hadamard"}]),
    _spec_doc(unitaries=[{"kind": "haar", "seed": True}, {"kind": "hadamard"}]),
    _spec_doc(unitaries=[{"kind": "haar", "seed": -1}, {"kind": "hadamard"}]),
    _spec_doc(unitaries=[{"kind": "explicit"}, {"kind": "hadamard"}]),
    _spec_doc(unitaries=[{"kind": "explicit", "rows": [[1, 0], [0, 1]]}, {"kind": "hadamard"}]),
    _spec_doc(unitaries=[{"kind": "explicit", "rows": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]},
                         {"kind": "hadamard"}]),
    _spec_doc(unitaries=[{"kind": "explicit", "rows": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]},
                         {"kind": "hadamard"}]),
    _spec_doc(accept=0),
    _spec_doc(restriction=5),
    _spec_doc(restriction=""),
], ids=["no-model", "accept-5", "accept-negative", "accept-bool", "haar-no-seed", "list",
        "n-float", "d-bool", "w-negative", "hbqp-accept-float", "hbqp-accept-bool",
        "hbqp-accept-2", "hbqp-accept-ragged", "hbqp-accept-shape", "model-int", "model-unknown",
        "unitaries-object", "gate-string", "kind-int", "seed-float", "seed-bool", "seed-negative",
        "rows-missing", "rows-not-pairs", "rows-bool", "rows-past-float", "accept-int",
        "restriction-int", "restriction-empty"])
def test_spectrum_rejects_malformed_spec(doc, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", "--spec", str(path), "--out", str(tmp_path / "sp.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err and "Error" not in err  # no Python exception name leaks


def test_spec_register_over_cap_is_refused_before_any_gate(no_draws, tmp_path, capsys):
    # w = 13 makes M = 16384: each dense complex gate would take 4 GiB
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec_doc(w=13, unitaries=[{"kind": "haar", "seed": 1}] * 2)))
    assert main(["spectrum", "--spec", str(path), "--out", str(tmp_path / "sp.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource error: register of dimension M = 16384 needs 4 GiB")
    assert len(err.splitlines()) == 1
    assert no_draws == []


def test_spec_kernel_plan_over_guard_is_refused(no_draws, tmp_path, capsys):
    # HALF_BQP at n = 9, d = 1: the (N, S, R) complex fold would take 16 * 512^3 = 2 GiB
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec_doc(
        model="HALF_BQP", n=9, accept=[[0] * 512] * 512, restriction="+" * 510 + "**",
        unitaries=[{"kind": "identity"}] * 2)))
    out = tmp_path / "sp.csv"
    assert main(["spectrum", "--spec", str(path), "--workers", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "resource error: kernel plan needs 2147483648 bytes, guard is 1073741824\n")
    assert no_draws == []
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_usage_error(workers, tmp_path, capsys):
    out = tmp_path / "g.csv"
    argv = ["growth", "--model", "bqp", "--n", "2", "--d", "1", "--trials", "1",
            "--workers", workers, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "--workers" in err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["growth", "--model", "bqp", "--n", "1", "--d", "1"],
    ["hybrid-growth", "--n", "1", "--d", "1"],
    ["verify-decomposition"],
    ["forrelation", "--k", "1", "--n", "2"],
])
def test_trials_below_one_is_a_usage_error(argv, trials, tmp_path, capsys):
    # no trial would run, so "pass" would certify nothing
    out = tmp_path / "rows.csv"
    assert main(argv + ["--trials", trials, "--workers", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "--trials" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["growth", "hybrid-growth"])
@pytest.mark.parametrize("levels", ["", ","])
def test_empty_level_list_is_a_usage_error(command, levels, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    argv = [command, "--n", "1", "--d", "1", "--trials", "1", "--levels", levels,
            "--workers", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "--levels" in err
    assert not out.exists()


class _RefusingGenerator:
    """Stands in for ``np.random.default_rng(seed)``: every draw is recorded and refused."""

    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        def refuse(*args, **kwargs):
            self.calls.append((name, args))
            raise AssertionError(f"drew from the generator ({name})")
        return refuse


@pytest.fixture
def no_draws(monkeypatch):
    """Record (and refuse) every random algorithm, gate or instance the CLI draws."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("drew a random algorithm")

    for module, name in ((cli, "random_spec"), (cli, "random_hybrid"),
                         (models, "random_unitary")):
        monkeypatch.setattr(module, name, refuse)
    # forrelation instances come straight from the generator
    monkeypatch.setattr(np.random, "default_rng", lambda *args: _RefusingGenerator(calls))
    return calls


@pytest.mark.parametrize("argv, words", [
    (["growth", "--model", "dqck", "--levels", "1", "--trials", "3"],
     "error: --levels needs levels >= 2 and <= N = 4, got '1'"),
    (["growth", "--model", "bqp", "--levels", "0,2"],
     "error: --levels needs levels >= 1 and <= N = 4, got '0,2'"),
    (["hybrid-growth", "--levels", "1"],
     "error: --levels needs levels >= 2 and <= N = 4, got '1'"),
    (["growth", "--model", "dqc1", "--levels", "1,2"],
     "error: --levels needs levels >= 2 and <= N = 4, got '1,2'"),
    (["growth", "--model", "bqp", "--n", "10", "--w", "1", "--trials", "1"], "2^1024 entries"),
    (["hybrid-growth", "--n", "9"], "2^512 entries"),
    (["reduce", "--n", "5", "--k", "2"], "2^32 entries"),
    (["growth", "--model", "dqck", "--n", "4", "--k", "1", "--w", "2", "--trials", "1",
      "--restriction", "+*"], "length 2"),
    (["growth", "--model", "bqp", "--n", "4", "--w", "6", "--d", "2", "--trials", "1",
      "--restriction", "random:1.7"], "0 <= p <= 1"),
    (["growth", "--model", "bqp", "--n", "4", "--w", "6", "--d", "2", "--trials", "1",
      "--restriction", "random:abc"], "random:p needs a number p in [0, 1], got 'abc'"),
    (["growth", "--model", "dqck", "--k", "0", "--n", "2", "--w", "9"], "one clean qubit"),
    (["hybrid-growth", "--k", "0", "--n", "2", "--w", "9"], "one clean qubit"),
    (["reduce", "--n", "2", "--k", "1", "--t", "1", "--w", "9"], "need 1 <= t < k"),
    (["hybrid-growth", "--d", "0"], "--d must be >= 1"),
    (["forrelation", "--n", "40"], "n must lie in [1, 12]"),
    (["forrelation", "--n", "-1"], "--n must lie in [1, 12], got -1"),
    (["forrelation", "--n", "0"], "--n must lie in [1, 12], got 0"),
    (["growth", "--seed", "-1", "--trials", "1"], "--seed must be >= 0, got -1"),
    (["forrelation", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["verify-decomposition", "--seed", "-1", "--trials", "1"], "--seed must be >= 0, got -1"),
    (["growth", "--model", "bqp", "--levels", "1,1"], "--levels needs distinct levels"),
    (["hybrid-growth", "--levels", "2,3,2"], "--levels needs distinct levels"),
    (["growth", "--model", "bqp", "--n", "1", "--levels", "9"],
     "--levels needs levels >= 1 and <= N = 2, got '9'"),
    (["hybrid-growth", "--n", "1", "--levels", "2,3"],
     "--levels needs levels >= 2 and <= N = 2, got '2,3'"),
    (["growth", "--levels", "2,x"], "--levels takes comma-separated integers, got '2,x'"),
    (["hybrid-growth", "--levels", "2.5"], "--levels takes comma-separated integers"),
    (["growth", "--model", "bqp", "--levels", "2,,3"],
     "error: --levels takes comma-separated integers, got '2,,3'"),
    (["hybrid-growth", "--levels", "2,"], "error: --levels takes comma-separated integers, got '2,'"),
    (["growth", "--n", "0"], "--n must lie in [1, 20], got 0"),
    (["growth", "--model", "bqp", "--n", "21"], "--n must lie in [1, 20], got 21"),
    (["hybrid-growth", "--n", "0"], "--n must lie in [1, 20], got 0"),
    (["hybrid-growth", "--n", "21"], "--n must lie in [1, 20], got 21"),
    (["reduce", "--n", "0"], "--n must lie in [1, 20], got 0"),
    (["reduce", "--n", "21"], "--n must lie in [1, 20], got 21"),
    (["growth", "--w", "-1"], "--w must be >= 0, got -1"),
    (["hybrid-growth", "--w", "-1"], "--w must be >= 0, got -1"),
    (["reduce", "--w", "-1"], "--w must be >= 0, got -1"),
    (["growth", "--model", "dqck", "--k", "-1"], "got --k -1"),
    (["hybrid-growth", "--k", "-1"], "got --k -1"),
    (["reduce", "--k", "-1"], "(k=-1)"),
    (["growth", "--model", "dqc1", "--k", "3"], "DQC1 has exactly one clean qubit, got --k 3"),
    (["growth", "--model", "dqc1", "--k", "0"], "DQC1 has exactly one clean qubit, got --k 0"),
    (["growth", "--model", "bqp", "--k", "-1", "--trials", "1"], "--k must be >= 0, got -1"),
    (["growth", "--model", "half-bqp", "--k", "-2"], "--k must be >= 0, got -2"),
    (["forrelation", "--k", "0"], "--k must be >= 1, got 0"),
    (["forrelation", "--k", "-3", "--eps", "0.1"], "--k must be >= 1, got -3"),
    (["forrelation", "--eps", "0"], "--eps must be positive and finite, got 0.0"),
    (["forrelation", "--eps", "-1"], "--eps must be positive and finite, got -1.0"),
    (["forrelation", "--eps", "nan"], "--eps must be positive and finite, got nan"),
    (["forrelation", "--eps", "inf"], "--eps must be positive and finite, got inf"),
    (["spectrum"], "error: --spec is required"),
    (["growth", "--model", "bqp", "--n", "1", "--w", "13", "--levels", "2", "--trials", "1"],
     "resource error: register of dimension M = 16384 needs 4 GiB"),
    (["reduce", "--n", "2", "--w", "8", "--k", "2", "--t", "1"],
     "resource error: register of dimension M = 16384 needs 4 GiB"),
    (["tightness", "--n", "20000"], "resource error: truth table over 3 * 2^20000 coordinates"),
    (["tightness", "--n", "0"], "error: --n must be >= 1, got 0"),
    (["forrelation", "--n", "3", "--k", "679", "--trials", "1"],
     "error: --k 679 at --n 3 rounds the default --eps (log2 N)^-k to 0.0; pass --eps"),
    (["forrelation", "--n", "2", "--k", "1075", "--trials", "1"], "--k 1075 at --n 2"),
    (["forrelation", "--n", "12", "--k", "300", "--trials", "1"],
     "resource error: instance of 300 blocks of N = 2^12 needs 300 * 2^12 entries"),
    (["forrelation", "--n", "12", "--k", "257", "--eps", "0.1"], "above the 2^20 cap"),
], ids=["growth-level-1", "growth-bqp-level-0", "hybrid-level-1", "growth-dqc1-level-1",
        "growth-cap", "hybrid-cap", "reduce-cap", "restriction-length", "restriction-p-range",
        "restriction-p-text", "growth-dqck-k-0", "hybrid-k-0", "reduce-t-not-below-k",
        "hybrid-d-0", "forrelation-n-40", "forrelation-n-minus-1", "forrelation-n-0",
        "growth-seed-minus-1", "forrelation-seed-minus-1", "verify-seed-minus-1",
        "growth-levels-twice", "hybrid-levels-twice", "growth-level-above-n",
        "hybrid-level-above-n", "growth-levels-not-int", "hybrid-levels-not-int",
        "growth-levels-empty-item", "hybrid-levels-trailing-comma",
        "growth-n-0", "growth-n-21", "hybrid-n-0", "hybrid-n-21", "reduce-n-0", "reduce-n-21",
        "growth-w-minus-1", "hybrid-w-minus-1", "reduce-w-minus-1", "growth-k-minus-1",
        "hybrid-k-minus-1", "reduce-k-minus-1", "growth-dqc1-k-3", "growth-dqc1-k-0",
        "growth-bqp-k-minus-1", "growth-half-bqp-k-minus-2", "forrelation-k-0",
        "forrelation-k-minus-3", "forrelation-eps-0", "forrelation-eps-minus-1",
        "forrelation-eps-nan", "forrelation-eps-inf", "spectrum-no-spec", "growth-register-cap",
        "reduce-reduced-register-cap", "tightness-n-20000",
        "tightness-n-0", "forrelation-default-eps-0",
        "forrelation-default-eps-0-n-2", "forrelation-instance-cap",
        "forrelation-instance-cap-with-eps"])
def test_refused_before_any_gate_is_drawn(argv, words, no_draws, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(argv + ["--workers", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(("error: ", "resource error: "))  # the one handler in cli._run
    assert words in err
    assert no_draws == []
    assert not out.exists()


@pytest.mark.parametrize("argv, pattern", [
    (["growth", "--model", "bqp", "--n", "1", "--d", "1", "--levels", "1", "--trials", "1"],
     "-+"),
    (["spectrum", "--spec", str(ROOT / "specs" / "example_bqp.json")], "-*+*"),
    (["spectrum", "--spec", str(ROOT / "specs" / "example_bqp.json")], "--*+"),
], ids=["growth", "spectrum", "spectrum-double-dash"])
def test_dash_leading_restriction_is_its_own_argument(argv, pattern, capsys):
    # argparse would read -+ as an option; _run binds it to --restriction
    runs = []
    for form in (["--restriction", pattern], [f"--restriction={pattern}"]):
        code = main(argv + form + ["--workers", "1"])
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].out


@pytest.mark.parametrize("argv", [
    ["tightness", "--n", "1", "--d", "2"],
    ["reduce", "--n", "2", "--k", "2", "--t", "1", "--d", "2", "--seed", "4"],
    ["verify-decomposition", "--trials", "1", "--seed", "2"],
], ids=["tightness", "reduce", "verify-decomposition"])
def test_json_stdout_parses(argv, capsys):
    # summary lines go to stderr, so stdout is one JSON document
    assert main(argv + ["--workers", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_growth_notes_vacuous_odd_levels(tmp_path, capsys):
    # f(-x) = f(x) for every model, so unrestricted odd levels are exactly 0
    argv = ["growth", "--model", "bqp", "--n", "2", "--d", "1", "--levels", "1,2,3",
            "--trials", "2", "--seed", "4", "--workers", "1"]
    bare, restricted = tmp_path / "bare.csv", tmp_path / "restricted.csv"
    assert main(argv + ["--out", str(bare)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "note: level 1 is exactly 0 without --restriction",
        "note: level 3 is exactly 0 without --restriction",
    ]
    observed = [float(line.split(",")[7]) for line in bare.read_text().splitlines()[2:]]
    assert observed[0] <= 1e-12 and observed[2] <= 1e-12
    assert main(argv + ["--restriction", "*+**", "--out", str(restricted)]) == 0
    assert capsys.readouterr().err == ""


def _halfbqp_spec_file(path) -> str:
    rng = np.random.default_rng(8)
    doc = {"model": "HALF_BQP", "n": 4, "d": 2,
           "unitaries": [{"kind": "haar", "seed": seed} for seed in (1, 2, 3)],
           "accept": (rng.random((16, 16)) < 0.5).astype(int).tolist()}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["growth", "--model", "dqck", "--n", "4", "--k", "1", "--d", "2", "--trials", "1",
     "--restriction", "random:0.5", "--seed", "3"],
    ["tightness", "--n", "2", "--d", "3"],
    ["spectrum", "--spec", None],
    ["hybrid-growth", "--n", "4", "--k", "1", "--d", "2", "--trials", "1", "--seed", "6"],
], ids=["growth", "tightness", "spectrum", "hybrid-growth"])
def test_output_does_not_depend_on_worker_count(argv, tmp_path, capsys):
    argv = [_halfbqp_spec_file(tmp_path / "spec.json") if a is None else a for a in argv]
    outs = []
    for workers in ("1", "2"):
        outs.append(tmp_path / f"out{workers}")
        assert main(argv + ["--workers", workers, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("argv, config", [
    ("growth --model dqc1 --n 2 --d 2 --levels 2,3 --trials 20 --restriction random:0.5 --seed 7",
     '{"d": 2, "k": 1, "levels": "2,3", "model": "dqc1", "n": 2, "restriction": "random:0.5", '
     '"seed": 7, "trials": 20, "w": 0}'),
    ("verify-decomposition --trials 10 --seed 3", '{"seed": 3, "trials": 10}'),
    ("forrelation --k 2 --n 3 --trials 100 --seed 1",
     '{"eps": 0.1111111111111111, "k": 2, "n": 3, "seed": 1, "trials": 100}'),
    ("tightness --n 2 --d 3", '{"d": 3, "n": 2, "seed": 0}'),
    ("spectrum --spec specs/example_bqp.json", '{"seed": 0, "spec": "specs/example_bqp.json"}'),
    ("reduce --n 2 --k 2 --t 1 --d 2 --seed 5",
     '{"d": 2, "k": 2, "n": 2, "seed": 5, "t": 1, "w": 0}'),
    ("hybrid-growth --n 2 --k 1 --d 2 --trials 10",
     '{"d": 2, "k": 1, "levels": "2,3", "n": 2, "seed": 0, "trials": 10, "w": 0}'),
], ids=["growth", "verify-decomposition", "forrelation", "tightness", "spectrum", "reduce",
        "hybrid-growth"])
def test_readme_commands_echo_their_config(argv, config, tmp_path, monkeypatch, capsys):
    # every option but --out, --format and --workers, with forrelation's
    # resolved eps and growth's k after the dqc1 rewrite
    monkeypatch.chdir(ROOT)
    assert main(argv.split() + ["--workers", "1", "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out").read_text()
    if text.startswith("# "):
        echoed = text.splitlines()[0][2:]
    else:
        echoed = json.dumps(json.loads(text)["config"], sort_keys=True)
    assert echoed == config


@pytest.mark.parametrize("model, k, echoed", [
    ("dqck", None, 1), ("dqc1", None, 1), ("dqc1", "1", 1), ("bqp", None, 0),
    ("half-bqp", None, 0), ("bqp", "0", 0), ("bqp", "1", 0), ("half-bqp", "2", 0),
])
def test_growth_echoes_the_clean_qubits_its_model_uses(model, k, echoed, tmp_path):
    # an omitted --k echoes what its model uses; bqp and half-bqp have no clean-qubit count
    out = tmp_path / "rows.csv"
    argv = ["growth", "--model", model, "--trials", "1", "--levels", "2", "--workers", "1"]
    assert main(argv + ([] if k is None else ["--k", k]) + ["--out", str(out)]) == 0
    config = json.loads(out.read_text().splitlines()[0][2:])
    row = out.read_text().splitlines()[2].split(",")
    assert config["k"] == echoed and row[3] == str(echoed)


@pytest.mark.parametrize("closed", ["stderr", "stdout", "merged"])
def test_closed_pipe_exits_2_without_traceback(closed):
    # exit 1 means a violated bound; a reader that left is an I/O error.  growth
    # writes a note to stderr.  The merged reader takes the first line, then
    # leaves; forrelation writes about 200 KB there, past a pipe's 64 KiB, so it is
    # still writing when that reader leaves.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    command = (["forrelation", "--n", "3", "--trials", "5000"] if closed == "merged"
               else ["growth", "--model", "bqp", "--trials", "1"])
    argv = [sys.executable, "-m", "qgrowth", *command, "--workers", "1"]
    err = subprocess.STDOUT if closed == "merged" else subprocess.PIPE
    with subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=path),
                          stdout=subprocess.PIPE, stderr=err) as proc:
        if closed == "merged":
            proc.stdout.readline()
        getattr(proc, "stdout" if closed == "merged" else closed).close()
        kept = {"stderr": proc.stdout, "stdout": proc.stderr}.get(closed)
        left = kept.read() if kept else b""
        assert proc.wait(timeout=60) == 2
    assert b"Traceback" not in left and b"Exception ignored" not in left


def test_readme_spectrum_command_runs_from_the_checkout(tmp_path, monkeypatch):
    line = next(line for line in (ROOT / "README.md").read_text().splitlines()
                if line.startswith("qgrowth spectrum "))
    argv = line.split()[1:]
    argv[argv.index("--out") + 1] = str(tmp_path / "spectrum.csv")
    monkeypatch.chdir(ROOT)
    assert main(argv + ["--workers", "1"]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[1] == "mask,coefficient" and len(lines) == 2 + 16


_COLD_START = """
import json, sys
import numpy as np
from qgrowth import bounds, cli, decomposition, forrelation, fourier, models
cold = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
spec = decomposition.random_decomposition_spec(np.random.default_rng(5))
report = decomposition.verify(spec)
print(json.dumps({"cold": cold, "pass": report["pass"], "sparse": "scipy.sparse" in sys.modules}))
"""


def test_cold_import_leaves_scipy_out_until_a_factor_is_built():
    # only the sparse factors need scipy: a fresh process must not pay for it
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _COLD_START], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert json.loads(done.stdout) == {"cold": [], "pass": True, "sparse": True}


@pytest.mark.parametrize("eps", ["0", "-0.5", "nan"])
def test_forrelation_eps_must_be_positive(eps, tmp_path, capsys):
    # --eps 0 is a value, not "unset": it must not fall back to the default
    out = tmp_path / "forr.csv"
    argv = ["forrelation", "--k", "2", "--n", "3", "--trials", "2", "--eps", eps,
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "eps must be positive" in err
    assert not out.exists()


def test_resource_limit_error_is_the_only_exception_class():
    # every other refusal is a plain ValueError: cli._run tells only these two apart
    classes = {}
    for path in sorted(ROOT.glob("src/qgrowth/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes[(path.stem, node.name)] = {
                    base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                    for base in node.bases}
    names = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    found = set()
    for _ in classes:  # each pass reaches one more level of subclassing
        found |= {key for key, bases in classes.items() if bases & names}
        names |= {name for _, name in found}
    assert found == {("errors", "ResourceLimitError")}


def test_no_module_uses_a_private_name_of_another():
    # a name with a leading underscore belongs to its own module
    modules = {path.stem for path in ROOT.glob("src/qgrowth/*.py")}
    found = []
    for path in sorted(ROOT.glob("src/qgrowth/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}  # local name -> sibling module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        aliases[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.append((path.stem, f"{node.module}.{alias.name}"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                found.append((path.stem, f"{aliases[node.value.id]}.{node.attr}"))
    assert found == []


def test_no_module_names_the_bqp_model():
    # the closed forms branch only on HALF_BQP: BQP is the trace form of its start set {0}
    found = [(path.stem, node.lineno) for path in sorted(ROOT.glob("src/qgrowth/*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "BQP"
             and isinstance(node.value, ast.Name) and node.value.id == "Model"]
    assert found == []


def test_readme_shell_blocks_name_only_existing_paths():
    # a command block that names a deleted script or spec goes stale silently
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    paths = re.findall(r"(?<![\w/.-])((?:scripts|specs|tests|perfbench|src)/[\w./-]+)",
                       "\n".join(blocks))
    assert paths, "no checkout path found in any shell block"
    assert [path for path in paths if not (ROOT / path).exists()] == []


def _perfbench_references():
    """Every (module, dotted name) that perfbench/*.py takes from qgrowth:
    ``from qgrowth... import`` names and attribute chains on imported modules."""
    refs = set()
    for path in sorted(ROOT.glob("perfbench/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qgrowth":
                for alias in node.names:
                    refs.add((node.module, alias.name))
                    if node.module == "qgrowth":
                        modules[alias.asname or alias.name] = f"qgrowth.{alias.name}"
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in modules:
                refs.add((modules[node.id], ".".join(chain)))
    return refs


def test_benchmark_surface_exists():
    refs = _perfbench_references()
    assert ("qgrowth.fourier", "hbqp_alpha_signed_growth") in refs
    missing = []
    for module, name in sorted(refs):
        try:
            target = importlib.import_module(module)
            for part in name.split("."):
                target = (getattr(target, part) if hasattr(target, part)
                          else importlib.import_module(f"{target.__name__}.{part}"))
        except (AttributeError, ImportError):
            missing.append(f"{module}:{name}")
    assert missing == []


#: Public names with no caller in src/qgrowth or perfbench, each kept for its one reason.
_UNCALLED_API = {
    "models.acceptance_hybrid": "the per-input oracle the tests hold hybrid tables to",
    "models.spec_to_json": "the spec writer README documents",
    "forrelation.TraceCircuit.live_value": "the trace circuit's acceptance at one live input",
    "forrelation.TraceCircuit.trace_value": "the dense-product trace the tests compare with",
}


def test_every_public_name_has_a_caller_or_a_stated_reason():
    # public: a top-level function or class of src/qgrowth, or a method of a public class;
    # a caller: a use outside the definition in src/qgrowth, or any mention in perfbench
    api, uses = {}, []
    for path in sorted(ROOT.glob("src/qgrowth/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                api[f"{path.stem}.{node.name}"] = node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        api[f"{path.stem}.{node.name}.{item.name}"] = item
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, node, False))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, node, True))
    bench = {node.id if isinstance(node, ast.Name) else
             node.attr if isinstance(node, ast.Attribute) else node.name
             for path in ROOT.glob("perfbench/*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    uncalled = set()
    for key, definition in api.items():
        name, is_method = key.rsplit(".", 1)[1], key.count(".") == 2
        inside = set(map(id, ast.walk(definition)))
        if name not in bench and not any(
                used == name and id(node) not in inside and (is_attr or not is_method)
                for used, node, is_attr in uses):
            uncalled.add(key)
    assert uncalled == set(_UNCALLED_API)


#: Parameters with a default that no call in src/qgrowth or perfbench passes, with reasons.
_UNPASSED_OPTIONS = {}


def test_every_option_is_passed_by_a_caller_or_has_a_stated_reason():
    # an option: a parameter with a default on a public function or method of src/qgrowth
    # that has a caller (_UNCALLED_API states why the others stay); passed: a call in
    # src/qgrowth or perfbench to that name, or forwarding to it (perfbench's
    # tr.call(label, fn, *args)), that names the parameter or reaches its position (a ** or
    # * argument reaches every one).  An option only tests set is a path no command runs
    defs = []  # (public key, function, leading parameters a call does not pass)
    for path in sorted(ROOT.glob("src/qgrowth/*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
                defs.append((f"{path.stem}.{node.name}", node, 0))
            elif isinstance(node, ast.ClassDef) and node.name[0] != "_":
                defs += [(f"{path.stem}.{node.name}.{item.name}", item, 1)  # self or cls
                         for item in node.body
                         if isinstance(item, ast.FunctionDef) and item.name[0] != "_"]
    options = []  # (callee name, public key, parameter, position or None)
    for key, func, bound in defs:
        if key not in _UNCALLED_API:
            positional = (func.args.posonlyargs + func.args.args)[bound:]
            first = len(positional) - len(func.args.defaults)
            options += [(func.name, key, arg.arg, i)
                        for i, arg in enumerate(positional) if i >= first]
            options += [(func.name, key, arg.arg, None) for arg, default in
                        zip(func.args.kwonlyargs, func.args.kw_defaults) if default is not None]
    calls = [node for path in [*ROOT.glob("src/qgrowth/*.py"), *ROOT.glob("perfbench/*.py")]
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]

    def named(node):
        return getattr(node, "id", getattr(node, "attr", None))

    def passes(call, name, param, position):
        if named(call.func) == name:
            args = call.args
        elif name in map(named, call.args):  # forwarded: the arguments after the function
            args = call.args[list(map(named, call.args)).index(name) + 1:]
        else:
            return False
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        return position is not None and (
            len(args) > position or any(isinstance(a, ast.Starred) for a in args))

    assert ("truth_table", "models.truth_table", "workers", 2) in options
    unpassed = {f"{key}({param})" for name, key, param, position in options
                if not any(passes(call, name, param, position) for call in calls)}
    assert unpassed == set(_UNPASSED_OPTIONS)


def test_spectrum_command_requires_spec():
    assert main(["spectrum"]) == 2


def test_reduce_command(tmp_path, capsys):
    out = tmp_path / "reduce.json"
    assert main(["reduce", "--n", "2", "--k", "2", "--t", "1", "--d", "2",
                 "--seed", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["expected_ratio"] == pytest.approx(0.25)
    assert abs(doc["median_observed_ratio"] - 0.25) < 1e-9
    assert "PASS" in capsys.readouterr().err


def test_hybrid_growth_command(tmp_path):
    out = tmp_path / "hyb.csv"
    assert main(["hybrid-growth", "--n", "2", "--k", "1", "--d", "2",
                 "--trials", "3", "--seed", "6", "--levels", "2,3",
                 "--out", str(out), "--workers", "1"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "trial,depth,level,observed,ceiling,status"
    assert all(line.endswith("pass") for line in lines[2:])


def test_bad_usage_exit_code():
    assert main(["growth", "--model", "dqck", "--n", "0"]) == 2


@pytest.mark.parametrize("argv, words", [
    (["growth", "--model", "xyz"], "invalid choice"),
    (["growth", "--n", "two"], "invalid int value"),
    (["growth", "--k", "x"], "error: argument --k: invalid int value: 'x'"),
    (["tightness", "--bogus"], "unrecognized arguments"),
    (["tightness", "--format", "csv"], "unrecognized arguments"),
    (["verify-decomposition", "--format", "json"], "unrecognized arguments"),
    (["reduce", "--format", "csv"], "unrecognized arguments"),
    (["forrelation", "--n", "1"], "--n 1 has no default --eps; pass one"),
    ([], "error: the following arguments are required: command"),
    (["spectrum", "--spec", str(ROOT / "specs" / "example_bqp.json"), "--restriction", ""],
     "error: --restriction has length 0, needs one per input (4)"),
], ids=["bad-choice", "bad-int", "growth-k-not-int", "unknown-option", "tightness-format",
        "verify-format", "reduce-format", "forrelation-n-1-no-eps", "no-command",
        "spectrum-empty-restriction"])
def test_usage_errors_return_2(argv, words, capsys):
    # main returns the exit code to in-process callers instead of raising SystemExit,
    # and argparse's errors go through cli._run's one handler as one line
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert words in err


def test_help_returns_0(capsys):
    assert main(["tightness", "--help"]) == 0
    assert "--format" not in capsys.readouterr().out


def test_growth_half_bqp(tmp_path):
    out = tmp_path / "g.json"
    argv = ["growth", "--model", "half-bqp", "--n", "2", "--d", "2", "--levels", "2,3",
            "--trials", "2", "--restriction", "random:0.5", "--seed", "4", "--format", "json",
            "--workers", "1", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert [r["ceiling"] for r in doc["rows"]] == [bounds.bqp_growth_ceiling(4, 2, level)
                                                   for level in (2, 3)]


def test_reduce_deviation_matches_per_input_bias_loop(capsys):
    # the truth-table deviation equals a per-input bias loop bit for bit at the
    # README configuration, so benchmark rows built from bias match the CLI
    space = IndexSpace.qubits(2, 0, 2)
    for seed in range(50):
        argv = ["reduce", "--n", "2", "--k", "2", "--t", "1", "--d", "2", "--seed", str(seed),
                "--workers", "1"]
        assert main(argv) == 0
        got = json.loads(capsys.readouterr().out)["max_pointwise_deviation"]
        spec = models.random_spec(Model.DQCK, space, 2, np.random.default_rng(seed))
        reduced = models.reduce_clean_qubits(spec, 1)
        want = 0.0
        for mask in range(16):
            x = np.where((mask >> np.arange(4)) & 1, -1.0, 1.0)
            want = max(want, abs(models.bias(reduced, x) - 0.25 * models.bias(spec, x)))
        assert got == want


def test_package_entry_point_help(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qgrowth", "--help"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("qgrowth", run_name="__main__")
    assert stop.value.code == 0
