"""End-to-end tests of the command-line front end.

Everything drives ``kreinlab.cli.main`` in-process and inspects the files
it writes, except three tests that run the CLI module in a child
interpreter: one checks the console script (the entry point declared in
``pyproject.toml`` and the help text of its target), one that ``extend``
and ``classify-model`` never import scipy, and one that importing the CLI
and ``extend`` on the README problem never build the report formatter's
tables.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kreinlab.verify
from kreinlab.cli import main
from kreinlab.oracles import cumsum_partial_sums
from kreinlab.sequence_model import (DIVERGENCE_THRESHOLD, HEAD, SequenceModelSpec, build_model,
                                     xi_preimage_diagnostic)
from kreinlab.serialize import dumps_report, matrix_from_obj, matrix_to_obj
from kreinlab.verify import thread_cap


def write_problem(path, j, domain, action):
    obj = {
        "J": matrix_to_obj(np.asarray(j, dtype=complex)),
        "T0_domain": matrix_to_obj(np.asarray(domain, dtype=complex)),
        "T0_action": matrix_to_obj(np.asarray(action, dtype=complex)),
    }
    path.write_text(dumps_report(obj))
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


def test_zero_samples_report_only_the_elementary_x(tmp_path):
    t0 = build_model(SequenceModelSpec(1.25, "both_constraints", 8)).t0
    problem = write_problem(tmp_path / "model.json", t0.space.j, t0.domain, t0.action)
    out = tmp_path / "out"
    for command in ("extend", "solve-x"):
        assert run_cli([command, "--input", problem, "--samples", "0", "--seed", "3",
                        "--output-dir", out]) == 0
    extend = load(out / "extend_report.json")
    assert extend["case"] == "B"
    assert [s["label"] for s in extend["X_samples"]] == ["elementary"]
    solve_x = load(out / "solve_x_report.json")
    assert solve_x["projection_exists"] is True
    assert solve_x["projections"] == []


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


@pytest.mark.parametrize("variant", ("both", "chi-plus-zero"))
@pytest.mark.parametrize("delta", ("0.8", "1.0", "1.25", "1.5"))
def test_classify_model_csv_matches_the_cumsum_oracle(tmp_path, delta, variant):
    # rows up to N = HEAD are the cumsum's; the Euler-Maclaurin rows beyond
    # stay within 2e-14 of it at the default --N
    out = tmp_path / "out"
    assert run_cli(["classify-model", "--delta", delta, "--variant", variant,
                    "--output-dir", out]) == 0
    rows = np.array([[float(cell) for cell in line.split(",")]
                     for line in (out / "partial_sums.csv").read_text().splitlines()[1:]])
    want = cumsum_partial_sums(float(delta), 16)
    assert np.array_equal(rows[:, 0], 2.0 ** np.arange(1, 17))
    short = rows[:, 0] <= HEAD
    assert np.array_equal(rows[short, 1], want[short])
    assert np.all(np.abs(rows[:, 1] - want) <= 2e-14 * want)


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


def test_quasi_basis_anharmonic_ground_state_only(tmp_path):
    # n_max 0 merges one even level and solves no odd one
    out = tmp_path / "out"
    rc = run_cli(["quasi-basis", "anharmonic", "--beta", "4", "--nmax", "0",
                  "--output-dir", out])
    assert rc == 0
    report = load(out / "quasi_basis_report.json")
    assert report["parities"] == [1]
    assert report["weighted_gram_deviation"] < 1e-12
    assert report["eigenvalues"][0] == pytest.approx(1.0603620904, abs=2e-6)


def test_quasi_basis_anharmonic_empty_sturm_interval_is_silent(tmp_path):
    # on 16 nodes at beta 3 the odd parity solves no level and its Gershgorin
    # floor - 1 lies above the even top: an empty Sturm interval holds no
    # level, so the merge certificate counts 0 without calling dstebz, which
    # would print a LAPACK parameter error
    proc = subprocess.run(
        [sys.executable, "-m", "kreinlab.cli", "quasi-basis", "anharmonic", "--beta", "3",
         "--nmax", "0", "--nodes", "16", "--output-dir", str(tmp_path)],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "DSTEBZ" not in proc.stdout
    assert load(tmp_path / "quasi_basis_report.json")["parities"] == [1]


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
    assert len(report["extrapolated_eigenvalues"]) == 5
    assert report["max_extrapolation_error"] < 1e-6
    assert report["extrapolated_eigenvalues"][0] == pytest.approx(1.0603620904, abs=2e-9)
    assert report["eigenvalues"][0] == pytest.approx(1.0603620904, abs=2e-6)


@pytest.mark.parametrize("family", (["hermite", "--a", "0.5"],
                                    ["anharmonic", "--beta", "4"]),
                         ids=("hermite", "anharmonic"))
@pytest.mark.parametrize("option, value, message", (
    ("--L", "0", "half_width must be positive"),
    ("--nodes", "0", "nodes must be a power of two"),
    ("--L", "nan", "half_width must be positive and finite"),
    ("--L", "inf", "half_width must be positive and finite"),
), ids=("L", "nodes", "L-nan", "L-inf"))
def test_quasi_basis_zero_grid_option_rejected(tmp_path, capsys, family, option,
                                               value, message):
    # 0 is a value, not "use the default grid"
    rc = run_cli(["quasi-basis", *family, "--nmax", "4", option, value,
                  "--output-dir", tmp_path / "o"])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", (
    (["hermite", "--a", "nan", "--nmax", "4"], "a must be finite"),
    (["hermite", "--a", "inf", "--nmax", "4"], "a must be finite"),
    (["hermite", "--a", "0.5", "--nmax", "-1"], "n_max must be nonnegative"),
    (["anharmonic", "--beta", "nan", "--nmax", "4"], "beta must exceed 2 and be finite"),
    (["anharmonic", "--beta", "inf", "--nmax", "4"], "beta must exceed 2 and be finite"),
    (["anharmonic", "--beta", "4", "--nmax", "-1"], "n_max must be nonnegative"),
), ids=("a-nan", "a-inf", "hermite-nmax", "beta-nan", "beta-inf", "anharmonic-nmax"))
def test_quasi_basis_bad_family_option_rejected(tmp_path, capsys, argv, message):
    rc = run_cli(["quasi-basis", *argv, "--output-dir", tmp_path / "o"])
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
    path.write_text(dumps_report({"J": matrix_to_obj(np.eye(2))}))
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


@pytest.mark.parametrize("value", (5, [[0.0]], {"0": 0.0}),
                         ids=("number", "nested", "object"))
def test_exit_code_2_matrix_fields_not_flat_lists(tmp_path, capsys, value):
    # A 1x1 J, so a nested [[0.0]] has the right number of entries per row.
    path = write_problem(tmp_path / "bad.json", [[1.0]], [[1.0]], [[0.5]])
    obj = json.loads(path.read_text())
    obj["J"]["im"] = value
    path.write_text(json.dumps(obj))
    rc = run_cli(["extend", "--input", path, "--output-dir", tmp_path / "o"])
    assert rc == 2
    assert "malformed matrix object" in capsys.readouterr().err


@pytest.mark.parametrize("value", (2.9, 2.0, "2", True, -2, None),
                         ids=("fraction", "integral-float", "string", "bool", "negative", "null"))
def test_exit_code_2_shape_field_not_an_integer(tmp_path, half_problem, capsys, value):
    # A 2 x 1 domain whose "rows" is not a non-negative JSON integer; 2.9
    # used to be truncated to 2 and the run to exit 0.
    obj = json.loads(half_problem.read_text())
    obj["T0_domain"]["rows"] = value
    half_problem.write_text(json.dumps(obj))
    rc = run_cli(["extend", "--input", half_problem, "--output-dir", tmp_path / "o"])
    assert rc == 2
    assert "'rows' must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ("-1", "inf"))
def test_exit_code_2_bad_tolerance(tmp_path, half_problem, capsys, tol):
    rc = run_cli(["extend", "--input", half_problem, "--output-dir", tmp_path,
                  "--tol", tol])
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


@pytest.mark.parametrize("command", ("extend", "solve-x", "verify"))
def test_exit_code_2_negative_seed(tmp_path, half_problem, capsys, command):
    problem = [] if command == "verify" else ["--input", half_problem]
    rc = run_cli([command, *problem, "--seed", "-1", "--output-dir", tmp_path / "o"])
    assert rc == 2
    assert "--seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ("100", "0", "511"))
def test_exit_code_2_classify_model_small_n(tmp_path, capsys, limit):
    rc = run_cli(["classify-model", "--delta", "1.25", "--variant", "both",
                  "--N", limit, "--output-dir", tmp_path / "o"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--N" in err and "512" in err


@pytest.mark.parametrize("limit", (str(2 ** 24 + 1), str(2 ** 40), str(2 ** 62)))
def test_exit_code_2_classify_model_large_n(tmp_path, capsys, limit):
    rc = run_cli(["classify-model", "--delta", "1.25", "--variant", "both",
                  "--N", limit, "--output-dir", tmp_path / "o"])
    assert rc == 2
    assert "--N must be at most 16777216" in capsys.readouterr().err


def test_classify_model_smallest_n_accepted(tmp_path):
    # delta = 1.5: its trend resolves the convergence at N = 512
    out = tmp_path / "o"
    assert run_cli(["classify-model", "--delta", "1.5", "--variant", "both",
                    "--N", "512", "--output-dir", out]) == 0
    assert load(out / "classify_model_report.json")["partial_sums"] == "partial_sums.csv"


@pytest.mark.parametrize("delta, limit, verdict", [("1.02", "65536", "diverges"),
                                                   ("1.05", "65536", "diverges"),
                                                   ("1.25", "512", "diverges")])
def test_classify_model_refuses_a_trend_against_the_analytic_class(tmp_path, capsys, delta,
                                                                   limit, verdict):
    # the fitted exponent clears DIVERGENCE_THRESHOLD although the series
    # converges (delta > 1): exit 4 naming delta, the exponent and the
    # threshold, and no report
    out = tmp_path / "o"
    rc = run_cli(["classify-model", "--delta", delta, "--variant", "both", "--N", limit,
                  "--output-dir", out])
    assert rc == 4
    err = capsys.readouterr().err
    diag = xi_preimage_diagnostic(SequenceModelSpec(float(delta)),
                                  max_exponent=int(limit).bit_length() - 1)
    assert diag.verdict == verdict
    for token in (f"delta = {delta}", f"{diag.exponent_estimate:.6g}",
                  f"DIVERGENCE_THRESHOLD = {DIVERGENCE_THRESHOLD}", "analytic case B"):
        assert token in err
    assert list(out.iterdir()) == []


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


def test_exit_code_4_huge_hermite_nmax_names_the_band(tmp_path, capsys):
    # the O(1) band check refuses before the O(n_max) Hermite recurrence runs
    rc = run_cli(["quasi-basis", "hermite", "--a", "0.5", "--nmax", "4000000",
                  "--output-dir", tmp_path / "o"])
    assert rc == 4
    assert "too coarse: band" in capsys.readouterr().err


def test_exit_code_2_anharmonic_nmax_beyond_grid(tmp_path, capsys):
    rc = run_cli(["quasi-basis", "anharmonic", "--beta", "4", "--nmax", "5000",
                  "--output-dir", tmp_path / "o"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n_max 5000" in err and "at most 4093" in err


def test_exit_code_2_anharmonic_beta_overflowing_the_potential(tmp_path, capsys):
    # 8 ** 400 overflows: refused up front, naming beta and the half-width,
    # with no overflow warning from the potential
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["quasi-basis", "anharmonic", "--beta", "400", "--nmax", "2",
                      "--output-dir", tmp_path / "o"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "beta 400.0" in err and "half_width 8.0" in err


@pytest.mark.parametrize("beta", ("20", "30", "60", "200"))
def test_exit_code_4_anharmonic_beta_the_grid_cannot_resolve(tmp_path, capsys, beta):
    # u ||T||_1 >= u 8 ** 20 = 256 against level spacings of order 1: refused
    # before any solve, naming beta and the rounding, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["quasi-basis", "anharmonic", "--beta", beta, "--nmax", "4",
                      "--output-dir", tmp_path / "o"])
    assert rc == 4
    err = capsys.readouterr().err
    assert f"beta {float(beta)} is not resolved in double precision" in err
    assert "of the level spacing" in err


@pytest.mark.parametrize("half_width, step", (("1e-300", "2.44e-304"), ("1e-160", "2.44e-164"),
                                              ("1e-150", "2.44e-154")))
def test_exit_code_4_anharmonic_grid_step_too_fine(tmp_path, capsys, half_width, step):
    # 4/h^2 overflows (1e-300, 1e-160: h^2 underflows to 0) or dominates
    # u ||T||_1 (1e-150): refused naming the grid step, not beta, with no
    # ZeroDivisionError and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["quasi-basis", "anharmonic", "--beta", "4", "--nmax", "4",
                      "--L", half_width, "--output-dir", tmp_path / "o"])
    assert rc == 4
    err = capsys.readouterr().err
    assert f"the grid step h = {step} is too fine for double precision" in err
    assert "beta" not in err and "Traceback" not in err


@pytest.mark.parametrize("half_width, ratio", (("1", "1.91e-03"), ("2", "1.45e-03"),
                                               ("3", "3.47e-05")))
def test_exit_code_4_anharmonic_box_too_short_for_the_levels(tmp_path, capsys, half_width, ratio):
    # at --L 1 the solve gave the box's levels 2.51, 9.98, 22.4 (|x|^4 has
    # 1.06, 3.80, 7.46) with a max eigen-residual of 989: g_n has not decayed
    # at the edge node, and the family is refused before any report is written
    rc = run_cli(["quasi-basis", "anharmonic", "--beta", "4", "--nmax", "4",
                  "--L", half_width, "--output-dir", tmp_path / "o"])
    assert rc == 4
    err = capsys.readouterr().err
    assert (f"half_width {float(half_width)} too small: |g_n| at the last interior node "
            f"is {ratio} of its peak") in err
    assert not (tmp_path / "o" / "quasi_basis_report.json").exists()


def test_anharmonic_box_long_enough_for_the_levels_is_admitted(tmp_path):
    # --L 4 reads 5.8e-10 and its levels agree with the default grid's
    rc = run_cli(["quasi-basis", "anharmonic", "--beta", "4", "--nmax", "4",
                  "--L", "4", "--output-dir", tmp_path / "o"])
    assert rc == 0
    report = load(tmp_path / "o" / "quasi_basis_report.json")
    assert report["max_eigen_residual"] < 1e-3


def test_anharmonic_tanh_weight_on_a_wide_grid_warns_nothing(tmp_path, capsys):
    # cosh(x)^2 overflows beyond |x| ~ 355, where p' and p'' are 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["quasi-basis", "anharmonic", "--beta", "4", "--nmax", "4",
                      "--p", "tanh", "--L", "400", "--output-dir", tmp_path / "o"])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    assert load(tmp_path / "o" / "quasi_basis_report.json")["weight"] == "tanh"


# ----------------------------------------------------------- console script

def child_env() -> dict:
    # Run the entry point's module from the imported package, not from PATH:
    # the suite must pass from a source tree where nothing is installed.
    src = str(Path(kreinlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_help():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["kreinlab"] == "kreinlab.cli:main"

    proc = subprocess.run([sys.executable, "-m", "kreinlab.cli", "--help"],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: kreinlab")
    for token in ("extend", "solve-x", "classify-model", "quasi-basis",
                  "verify"):
        assert token in proc.stdout
    assert "partial_sums.csv" in proc.stdout  # CSV column reference block
    assert "KREIN_LAB_THREADS" in proc.stdout


def test_extend_and_classify_model_do_not_import_scipy(tmp_path, half_problem):
    # Only the anharmonic family needs scipy; the other subcommands must not
    # pay for importing it.  The child runs the module as ``python -m`` does
    # and lists the loaded scipy modules when the interpreter exits.
    probe = ("import atexit, runpy, sys\n"
             "atexit.register(lambda: print('scipy modules:', sorted(\n"
             "    m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
             "runpy.run_module('kreinlab.cli', run_name='__main__', alter_sys=True)\n")
    for argv in (["extend", "--input", str(half_problem)],
                 ["classify-model", "--delta", "1.25", "--variant", "both"]):
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv, "--output-dir", str(tmp_path / argv[0])],
            capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "scipy modules: []"


def test_import_and_small_extend_do_not_build_formatter_tables(tmp_path, half_problem):
    # The vectorized float formatter builds its tables on its first call,
    # which only float lists of at least _BULK_MIN values make.  The child
    # reports the table cache after the import and at exit.
    probe = ("import atexit, runpy\n"
             "from kreinlab import serialize\n"
             "import kreinlab.cli\n"
             "print('after import:', serialize._tables.cache_info().currsize)\n"
             "atexit.register(lambda: print('at exit:', serialize._tables.cache_info().currsize))\n"
             "runpy.run_module('kreinlab.cli', run_name='__main__', alter_sys=True)\n")
    proc = subprocess.run(
        [sys.executable, "-c", probe, "extend", "--input", str(half_problem),
         "--output-dir", str(tmp_path), "--seed", "1"],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "after import: 0"
    assert lines[-1] == "at exit: 0"
    assert (tmp_path / "extend_report.json").exists()
