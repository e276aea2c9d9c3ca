import json

import numpy as np
import pytest

from qgrowth.cli import main
from qgrowth.linalg import hadamard_matrix
from qgrowth.models import Model, spec_to_json, AlgorithmSpec
from qgrowth.linalg import IndexSpace


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


@pytest.mark.parametrize("prob", ["1.7", "-0.1", "nan"])
def test_growth_rejects_out_of_range_random_restriction(prob, tmp_path):
    argv = ["growth", "--model", "bqp", "--n", "2", "--d", "1", "--trials", "1",
            "--restriction", f"random:{prob}", "--out", str(tmp_path / "g.csv")]
    assert main(argv) == 2
    assert not (tmp_path / "g.csv").exists()


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
    assert "PASS" in capsys.readouterr().out


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
], ids=["no-model", "accept-5", "accept-negative", "accept-bool", "haar-no-seed", "list",
        "n-float", "d-bool", "w-negative"])
def test_spectrum_rejects_malformed_spec(doc, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", "--spec", str(path), "--out", str(tmp_path / "sp.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


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
    assert "PASS" in capsys.readouterr().out


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
