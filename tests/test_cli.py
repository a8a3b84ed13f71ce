"""End-to-end tests of the command-line front end.

Everything drives ``kreinlab.cli.main`` in-process and inspects the files
it writes; one test checks the console script: the entry point declared in
``pyproject.toml``, and the help text of its target in a child interpreter.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kreinlab.verify
from kreinlab.cli import main
from kreinlab.serialize import matrix_from_obj, matrix_to_obj
from kreinlab.verify import thread_cap


def write_problem(path, j, domain, action):
    obj = {
        "J": matrix_to_obj(np.asarray(j, dtype=complex)),
        "T0_domain": matrix_to_obj(np.asarray(domain, dtype=complex)),
        "T0_action": matrix_to_obj(np.asarray(action, dtype=complex)),
    }
    path.write_text(json.dumps(obj))
    return path


@pytest.fixture()
def half_problem(tmp_path):
    # D = span{e1}, T0 e1 = e2 / 2 in the diag(1, -1) geometry.
    return write_problem(tmp_path / "problem.json",
                         np.diag([1.0, -1.0]), [[1.0], [0.0]], [[0.0], [0.5]])


def run_cli(args):
    return main([str(a) for a in args])


def load(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------- extend

def test_extend_half_instance_report(tmp_path, half_problem):
    out = tmp_path / "out"
    rc = run_cli(["extend", "--input", half_problem, "--output-dir", out,
                  "--seed", "5"])
    assert rc == 0
    report = load(out / "extend_report.json")
    assert set(report) == {"T_mu", "T_M", "defect_dim", "signature", "case",
                           "X_samples"}
    np.testing.assert_allclose(matrix_from_obj(report["T_mu"]),
                               [[0.0, 0.5], [0.5, -0.75]], atol=1e-10)
    np.testing.assert_allclose(matrix_from_obj(report["T_M"]),
                               [[0.0, 0.5], [0.5, 0.75]], atol=1e-10)
    assert report["defect_dim"] == 1
    assert report["signature"] == [0, 1]
    assert report["case"] == "C"

    labels = [s["label"] for s in report["X_samples"]]
    assert labels[0] == "elementary"
    elementary = report["X_samples"][0]
    np.testing.assert_allclose(matrix_from_obj(elementary["X"]), [[0.5]],
                               atol=1e-12)
    assert elementary["anticommuting"] is True
    assert elementary["extremal"] is False
    assert elementary["domain_dense_in_energetic_space"] is False
    for sample in report["X_samples"]:
        t = matrix_from_obj(sample["T"])
        assert np.linalg.norm(t, 2) <= 1.0 + 1e-10
        # every extension restricts to T0 on the domain
        np.testing.assert_allclose(t @ [1.0, 0.0], [0.0, 0.5], atol=1e-10)


def test_extend_reports_byte_identical_for_fixed_seed(tmp_path, half_problem):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["extend", "--input", half_problem,
                        "--output-dir", out, "--seed", "11"]) == 0
        blobs.append((out / "extend_report.json").read_bytes())
    assert blobs[0] == blobs[1]
    out = tmp_path / "c"
    assert run_cli(["extend", "--input", half_problem, "--output-dir", out,
                    "--seed", "12"]) == 0
    assert (out / "extend_report.json").read_bytes() != blobs[0]


# ---------------------------------------------------------------- solve-x

def test_solve_x_report_unbalanced_defect(tmp_path, half_problem):
    out = tmp_path / "out"
    assert run_cli(["solve-x", "--input", half_problem,
                    "--output-dir", out]) == 0
    report = load(out / "solve_x_report.json")
    assert report["defect_dim"] == 1
    assert report["signature"] == [0, 1]
    np.testing.assert_allclose(matrix_from_obj(report["elementary"]),
                               [[0.5]], atol=1e-12)
    assert report["projection_exists"] is False
    assert report["projections"] == []


def test_solve_x_trivial_defect(tmp_path):
    problem = write_problem(tmp_path / "full.json", np.diag([1.0, -1.0]),
                            np.eye(2), [[0.0, 0.5], [0.5, 0.0]])
    out = tmp_path / "out"
    assert run_cli(["solve-x", "--input", problem, "--output-dir", out]) == 0
    report = load(out / "solve_x_report.json")
    assert report["defect_dim"] == 0
    assert report["solutions"] == []
    assert "case A" in report["note"]


# ---------------------------------------------------------- classify-model

def test_classify_model_report_and_csv(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["classify-model", "--delta", "1.25", "--variant", "both",
                  "--output-dir", out])
    assert rc == 0
    report = load(out / "classify_model_report.json")
    assert report["analytic_case"] == "B"
    assert report["trend_verdict"] == "converges"
    assert report["marginal"] is False
    assert report["defect_prediction"] == {
        "case": "B", "dimension": 2, "signature": [1, 1],
    }
    lines = (out / "partial_sums.csv").read_text().splitlines()
    assert lines[0] == "N,partial_sum"
    assert lines[1] == "2,1.2357022603955159"
    assert lines[2] == "4,1.4226008856620125"
    assert lines[-1].startswith("65536,")


def test_classify_model_divergent_variant(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["classify-model", "--delta", "0.8", "--variant",
                  "chi-plus-zero", "--N", "4096", "--output-dir", out])
    assert rc == 0
    report = load(out / "classify_model_report.json")
    assert report["analytic_case"] == "A"
    assert report["trend_verdict"] == "diverges"
    assert report["defect_prediction"]["dimension"] == 0
    assert abs(report["growth_exponent"] - 0.4) < 0.12
    lines = (out / "partial_sums.csv").read_text().splitlines()
    assert lines[-1].startswith("4096,")


# -------------------------------------------------------------- quasi-basis

def test_quasi_basis_hermite_outputs(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["quasi-basis", "hermite", "--a", "0.5", "--nmax", "6",
                  "--output-dir", out])
    assert rc == 0
    assert {p.name for p in out.iterdir()} == {
        "quasi_basis_report.json", "indefinite_gram.csv",
        "metric_gram.csv", "residuals.csv",
    }
    report = load(out / "quasi_basis_report.json")
    assert report["kind"] == "shifted_hermite"
    assert report["a"] == 0.5
    assert report["n_max"] == 6
    assert report["sign_pattern"] == [(-1) ** n for n in range(7)]
    assert report["j_orthonormal"] is True
    assert report["indefinite_gram_offdiag"] < 1e-8
    assert report["metric_gram_deviation"] < 1e-6
    assert report["biorthogonal_deviation"] < 1e-8
    np.testing.assert_allclose(report["eigenvalues"],
                               [1.25 + 2 * n for n in range(7)], atol=1e-8)
    assert report["max_eigen_residual"] < 1e-8
    assert report["expansion_final_error_metric"] < 1e-8

    gram_lines = (out / "indefinite_gram.csv").read_text().splitlines()
    assert gram_lines[0] == "m,n,re,im"
    assert len(gram_lines) == 1 + 7 * 7
    first = gram_lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert float(first[2]) == pytest.approx(1.0, abs=1e-8)
    assert float(first[3]) == pytest.approx(0.0, abs=1e-8)
    res_lines = (out / "residuals.csv").read_text().splitlines()
    assert res_lines[0] == ("n,eigenvalue,eigen_residual,"
                            "expansion_error_metric,expansion_error_mapped")
    assert len(res_lines) == 1 + 7


def test_quasi_basis_anharmonic_outputs(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["quasi-basis", "anharmonic", "--beta", "4", "--nmax", "4",
                  "--output-dir", out])
    assert rc == 0
    report = load(out / "quasi_basis_report.json")
    assert report["kind"] == "weighted_anharmonic"
    assert report["beta"] == 4.0
    assert report["weight"] == "x_over_1px2"
    assert report["parities"] == [1, -1, 1, -1, 1]
    assert report["sign_pattern"] == report["parities"]
    assert report["indefinite_gram_offdiag"] < 1e-6
    assert report["weighted_gram_deviation"] < 1e-10
    assert report["max_richardson_error"] < 1e-3
    assert report["eigenvalues"][0] == pytest.approx(1.0603620904, abs=2e-6)


@pytest.mark.parametrize("family", (["hermite", "--a", "0.5"],
                                    ["anharmonic", "--beta", "4"]),
                         ids=("hermite", "anharmonic"))
@pytest.mark.parametrize("option, message", (("--L", "half_width must be positive"),
                                             ("--nodes", "nodes must be a power of two")),
                         ids=("L", "nodes"))
def test_quasi_basis_zero_grid_option_rejected(tmp_path, capsys, family, option,
                                               message):
    # 0 is a value, not "use the default grid"
    rc = run_cli(["quasi-basis", *family, "--nmax", "4", option, "0",
                  "--output-dir", tmp_path / "o"])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("family, half_width, nodes", (("hermite", "12", "4096"),
                                                       ("anharmonic", "8", "8192")))
def test_quasi_basis_help_names_grid_defaults(capsys, family, half_width, nodes):
    with pytest.raises(SystemExit) as exc:
        run_cli(["quasi-basis", family, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"grid half-width (default {half_width})" in text
    assert f"grid nodes, power of two (default {nodes})" in text


# ------------------------------------------------------------------ verify

def test_verify_cli_passes_and_reports(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KREIN_LAB_THREADS", "2")
    out = tmp_path / "out"
    rc = run_cli(["verify", "--seed", "7", "--output-dir", out])
    assert rc == 0
    report = load(out / "verify_report.json")
    assert report["seed"] == 7
    assert report["passed"] is True
    assert len(report["checks"]) >= 15
    assert all(c["passed"] for c in report["checks"])
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == len(report["checks"])
    assert "FAIL" not in stdout


def test_verification_results_independent_of_thread_count(monkeypatch):
    def make(name):
        def check(rng):
            return f"value {rng.integers(1000)}"
        return check

    stub = {name: make(name) for name in ("alpha", "beta", "delta", "gamma")}
    monkeypatch.setattr(kreinlab.verify, "_CHECKS", stub)
    serial = kreinlab.verify.run_verification(seed=9, threads=1)
    pooled = kreinlab.verify.run_verification(seed=9, threads=3)

    def strip(results):
        return [(r.name, r.passed, r.detail) for r in results]

    assert strip(serial) == strip(pooled)
    assert [r.name for r in serial] == sorted(stub)


def test_thread_cap_env_and_override(monkeypatch):
    monkeypatch.setenv("KREIN_LAB_THREADS", "2")
    assert thread_cap() == 2
    assert thread_cap(5) == 5  # explicit request wins over the environment
    monkeypatch.setenv("KREIN_LAB_THREADS", "not-a-number")
    assert 1 <= thread_cap() <= 4
    monkeypatch.delenv("KREIN_LAB_THREADS")
    assert 1 <= thread_cap() <= 4


# -------------------------------------------------------------- exit codes

def test_exit_code_2_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc = run_cli(["extend", "--input", bad, "--output-dir", tmp_path / "o"])
    assert rc == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_exit_code_2_missing_input(tmp_path, capsys):
    rc = run_cli(["extend", "--input", tmp_path / "missing.json",
                  "--output-dir", tmp_path])
    assert rc == 2
    assert "input file not found" in capsys.readouterr().err


def test_exit_code_2_missing_problem_key(tmp_path, capsys):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"J": matrix_to_obj(np.eye(2))}))
    rc = run_cli(["extend", "--input", path, "--output-dir", tmp_path / "o"])
    assert rc == 2
    assert "missing key" in capsys.readouterr().err


@pytest.mark.parametrize("text", ("[]", "3", '"s"', "null"),
                         ids=("list", "number", "string", "null"))
@pytest.mark.parametrize("command", ("extend", "solve-x"))
def test_exit_code_2_problem_not_an_object(tmp_path, capsys, command, text):
    path = tmp_path / "scalar.json"
    path.write_text(text)
    rc = run_cli([command, "--input", path, "--output-dir", tmp_path / "o"])
    assert rc == 2
    assert "problem file must be a JSON object" in capsys.readouterr().err


def test_exit_code_2_bad_tolerance(tmp_path, half_problem, capsys):
    rc = run_cli(["extend", "--input", half_problem, "--output-dir", tmp_path,
                  "--tol", "-1"])
    assert rc == 2
    assert "tolerance must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ["solve-x", "--input", "{problem}"],
    ["classify-model", "--delta", "1.25", "--variant", "both"],
    ["quasi-basis", "hermite", "--a", "0.5", "--nmax", "4"],
    ["verify"],
), ids=("solve-x", "classify-model", "quasi-basis-hermite", "verify"))
def test_tol_is_an_extend_option_only(tmp_path, half_problem, capsys, argv):
    argv = [str(half_problem) if a == "{problem}" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--tol", "5", "--output-dir", tmp_path / "o"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("value", ("nan", "inf"))
def test_exit_code_2_non_finite_problem_entry(tmp_path, capsys, value):
    path = write_problem(tmp_path / "bad.json", np.diag([1.0, -1.0]),
                         [[1.0], [0.0]], [[0.0], [0.5]])
    obj = json.loads(path.read_text())
    obj["T0_action"]["re"][1] = float(value)
    path.write_text(json.dumps(obj))
    rc = run_cli(["extend", "--input", path, "--output-dir", tmp_path / "o"])
    assert rc == 2
    assert "T0_action" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("extend", "solve-x"))
def test_exit_code_2_negative_samples(tmp_path, half_problem, capsys, command):
    rc = run_cli([command, "--input", half_problem, "--samples", "-1",
                  "--output-dir", tmp_path / "o"])
    assert rc == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ("100", "0", "511"))
def test_exit_code_2_classify_model_small_n(tmp_path, capsys, limit):
    rc = run_cli(["classify-model", "--delta", "1.25", "--variant", "both",
                  "--N", limit, "--output-dir", tmp_path / "o"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--N" in err and "512" in err


def test_classify_model_smallest_n_accepted(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["classify-model", "--delta", "1.25", "--variant", "both",
                    "--N", "512", "--output-dir", out]) == 0
    assert load(out / "classify_model_report.json")["partial_sums"] == "partial_sums.csv"


def test_exit_code_3_invariant_violation(tmp_path, capsys):
    problem = write_problem(tmp_path / "loose.json", np.diag([1.0, -1.0]),
                            [[1.0], [0.0]], [[0.0], [1.5]])
    rc = run_cli(["extend", "--input", problem, "--output-dir", tmp_path / "o"])
    assert rc == 3
    assert "invariant violation" in capsys.readouterr().err


def test_exit_code_4_resolution_refusal(tmp_path, capsys):
    rc = run_cli(["quasi-basis", "hermite", "--a", "0.5", "--nmax", "6",
                  "--L", "4", "--output-dir", tmp_path / "o"])
    assert rc == 4
    assert "resolution refusal" in capsys.readouterr().err


# ----------------------------------------------------------- console script

def test_console_script_help():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["kreinlab"] == "kreinlab.cli:main"

    # Run the entry point's module from the imported package, not from PATH:
    # the suite must pass from a source tree where nothing is installed.
    src = str(Path(kreinlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "kreinlab.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: kreinlab")
    for token in ("extend", "solve-x", "classify-model", "quasi-basis",
                  "verify"):
        assert token in proc.stdout
    assert "partial_sums.csv" in proc.stdout  # CSV column reference block
    assert "KREIN_LAB_THREADS" in proc.stdout
