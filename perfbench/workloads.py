"""The four perfbench workloads.

Each workload builds its inputs from `gen` (numpy only), warms up, and then
runs ops: one op is one pass of a kreinlab pipeline through its public
functions or its CLI.  Every public call goes through `Tracer.call`, which
is where the per-layer spans come from.  `check` compares an op's outputs
with the benchmark's own numpy references after the timed region and
raises `CheckFailed` on a mismatch.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import kreinlab as krein
import kreinlab.cli
import kreinlab.verify

import gen
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckFailed(Exception):
    """An op returned, but its outputs disagree with the reference."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def opnorm(m) -> float:
    return float(np.linalg.norm(m, 2))


def completion_endpoints(domain, action):
    """(T_min, T_max) by block completion over D (+) D^perp.

    With A = D* T0 D and B = E* T0 D for an orthonormal complement E, the
    admissible lower-right blocks are C_min = -I + B (I + A)^{-1} B* and
    C_max = I - B (I - A)^{-1} B*.
    """
    n, d = domain.shape
    full, _, _ = np.linalg.svd(domain, full_matrices=True)
    e = full[:, d:]
    a = domain.conj().T @ action
    a = 0.5 * (a + a.conj().T)
    b = e.conj().T @ action
    eye_d, eye_m = np.eye(d), np.eye(n - d)
    c_min = -eye_m + b @ np.linalg.solve(eye_d + a, b.conj().T)
    c_max = eye_m - b @ np.linalg.solve(eye_d - a, b.conj().T)
    basis = np.hstack([domain, e])
    out = []
    for c in (c_min, c_max):
        t = basis @ np.block([[a, b.conj().T], [b, c]]) @ basis.conj().T
        out.append(0.5 * (t + t.conj().T))
    return out[0], out[1]


class Workload:
    """A seeded pool of inputs; one round runs every input once."""

    name = ""

    def __init__(self, seed: int, rundir: Path):
        self.seed = seed
        self.rundir = rundir
        self.pool: list = []

    def round(self, r: int) -> list:
        return self.pool


class ExtendDense(Workload):
    """The `extend` pipeline in-process on dense problems, n in {64, 96}."""

    name = "extend_dense"

    def setup(self) -> str:
        raw = gen.extend_pool(self.seed)
        digest = gen.digest(raw)
        self.pool = []
        for item in raw:
            prob = item["problem"]
            self.pool.append(dict(item, objs={k: gen.matrix_obj(v) for k, v in prob.items()}))
        self.round_size = len(gen.EXTEND_DIMS) * len(gen.EXTEND_CASES)
        self.op(self.pool[0], Tracer(False))
        return digest

    def round(self, r: int) -> list:
        start = (r % gen.EXTEND_POOL_ROUNDS) * self.round_size
        return self.pool[start:start + self.round_size]

    def op(self, item, tr):
        objs = item["objs"]
        j, domain, action = (tr.call("serialize.matrix_from_obj", krein.serialize.matrix_from_obj,
                                     objs[key]) for key in ("J", "T0_domain", "T0_action"))
        space = tr.call("spaces.SignatureSpace", krein.SignatureSpace, j)
        t0 = tr.call("angular.PartialContraction", krein.PartialContraction, space, domain, action)
        iv = tr.call("extensions.krein_interval", krein.krein_interval, t0)
        case = tr.call("extensions.classify_case", krein.classify_case, iv)
        sols = tr.call("extensions.solve_x_equation", krein.solve_x_equation, iv,
                       seed=item["solve_seed"], n_projection_samples=gen.EXTEND_PROJECTIONS)
        labeled = [("elementary", sols.elementary)]
        labeled += [(f"projection_{i}", x) for i, x in enumerate(sols.projections)]
        labeled += [(f"random_{i}", x) for i, x in enumerate(item["x_samples"])]
        to_obj = krein.serialize.matrix_to_obj
        samples, choices = [], []
        for label, x in labeled:
            choice = tr.call("extensions.extension_from_x", krein.extension_from_x, iv, x)
            ext = tr.call("extensions.extremality_test", krein.extremality_test, t0, choice)
            dense = tr.call("extensions.density_test", krein.density_test, t0, choice.t)
            choices.append((label, choice, ext))
            samples.append({
                "label": label,
                "X": tr.call("serialize.matrix_to_obj", to_obj, choice.x),
                "T": tr.call("serialize.matrix_to_obj", to_obj, choice.t),
                "anticommuting": choice.anticommuting,
                "extremal": ext.extremal,
                "cayley_defined": ext.cayley_defined,
                "domain_dense_in_energetic_space": dense,
            })
        metric = tr.call("gmetric.GMetric.from_contraction", krein.GMetric.from_contraction,
                         space, choices[0][1].t)
        tr.call("gmetric.metric_report", krein.metric_report, metric)
        report = {
            "T_mu": tr.call("serialize.matrix_to_obj", to_obj, iv.t_mu),
            "T_M": tr.call("serialize.matrix_to_obj", to_obj, iv.t_m),
            "defect_dim": iv.defect_dim,
            "signature": list(iv.signature),
            "case": case,
            "X_samples": samples,
        }
        text = tr.call("serialize.dumps_report", krein.serialize.dumps_report, report)
        tr.add("serialize.dumps_report.bytes", len(text))
        return {"interval": iv, "case": case, "sols": sols, "choices": choices, "text": text}

    def check(self, item, out) -> None:
        prob = item["problem"]
        if "reference" not in item:
            item["reference"] = completion_endpoints(prob["T0_domain"], prob["T0_action"])
        t_min, t_max = item["reference"]
        iv, expect = out["interval"], item["expect"]
        require(opnorm(iv.t_mu - t_min) <= 1e-8, "T_mu differs from the block completion")
        require(opnorm(iv.t_m - t_max) <= 1e-8, "T_M differs from the block completion")
        require(iv.defect_dim == expect["defect_dim"], "defect dimension")
        require(list(iv.signature) == expect["signature"], "defect signature")
        require(out["case"] == expect["case"], "case")
        j = prob["J"]
        for label, choice, ext in out["choices"]:
            if label == "elementary":
                require(choice.anticommuting, "elementary extension not flagged anticommuting")
                require(opnorm(j @ choice.t + choice.t @ j) <= 1e-10,
                        "elementary extension does not anticommute with J")
            elif label.startswith("projection"):
                x = choice.x
                require(opnorm(x @ x - x) <= 1e-10, "projection parameter is not a projection")
                require(ext.extremal, "projection extension not extremal")
        want_projections = gen.EXTEND_PROJECTIONS if expect["case"] == "B" else 0
        require(len(out["sols"].projections) == want_projections, "projection count")
        require(out["text"].startswith("{") and out["text"].endswith("}\n"), "report text")


class ModelSweep(Workload):
    """Sequence-model classification at one truncation per op."""

    name = "model_sweep"

    def setup(self) -> str:
        self.pool = gen.model_pool(self.seed)
        self.op(min(self.pool, key=lambda s: s["n_pairs"]), Tracer(False))
        return gen.digest(self.pool)

    def op(self, item, tr):
        spec = krein.SequenceModelSpec(item["delta"], item["variant"], item["n_pairs"])
        sm = krein.sequence_model
        inst = tr.call("sequence_model.build_model", sm.build_model, spec)
        iv = tr.call("extensions.krein_interval", krein.krein_interval, inst.t0)
        case = tr.call("extensions.classify_case", krein.classify_case, iv)
        pred = tr.call("sequence_model.defect_prediction", sm.defect_prediction, spec)
        diag = tr.call("sequence_model.xi_preimage_diagnostic", sm.xi_preimage_diagnostic,
                       spec, max_exponent=16)
        sweep = tr.call("sequence_model.truncated_density_sweep", sm.truncated_density_sweep,
                        spec, exponents=(3, 4, 5, 6))
        analytic = tr.call("sequence_model.classify_analytic", sm.classify_analytic, spec)
        report = {
            "analytic_case": analytic,
            "partial_sums": "partial_sums.csv",
            "trend_verdict": diag.verdict,
            "marginal": diag.marginal,
            "growth_exponent": diag.exponent_estimate,
            "defect_prediction": {"case": pred.case, "dimension": pred.dimension,
                                  "signature": list(pred.signature)},
        }
        text = tr.call("serialize.dumps_report", krein.serialize.dumps_report, report)
        tr.add("serialize.dumps_report.bytes", len(text))
        return {"interval": iv, "case": case, "pred": pred, "diag": diag,
                "sweep": sweep, "text": text}

    def check(self, item, out) -> None:
        both = item["variant"] == "both_constraints"
        iv = out["interval"]
        want = ("B", 2, (1, 1)) if both else ("C", 1, (0, 1))
        require((out["case"], iv.defect_dim, tuple(iv.signature)) == want,
                "truncated case / defect dimension / signature")
        diverges = item["delta"] <= 1.0
        require(out["diag"].verdict == ("diverges" if diverges else "converges"),
                "divergence verdict")
        if diverges:
            require(out["pred"].case == "A" and out["pred"].dimension == 0, "predicted defect")
        else:
            require((out["pred"].case, out["pred"].dimension, tuple(out["pred"].signature))
                    == want, "predicted defect")
        for sample in out["sweep"]:
            n = np.arange(1, sample.n_pairs + 1, dtype=float)
            series = float(np.sum(n ** (2.0 - 2.0 * item["delta"]) / (2.0 * n - 1.0))
                           / np.sum(n ** (-2.0 * item["delta"])))
            for value in (sample.preimage_norm_sq_matrix, sample.preimage_norm_sq_series):
                require(abs(value - series) <= 1e-9 * max(1.0, series),
                        "preimage norm differs from the analytic series")
        require(out["text"].endswith("}\n"), "report text")


class QuasibasisGrid(Workload):
    """Shifted Hermite and weighted anharmonic families through the
    quasi-basis pipeline."""

    name = "quasibasis_grid"

    def setup(self) -> str:
        self.pool = gen.quasibasis_pool(self.seed)
        self.op(min(self.pool, key=lambda f: (f["kind"] != "anharmonic", f["n_max"])),
                Tracer(False))
        return gen.digest(self.pool)

    def op(self, item, tr):
        qb = krein.quasibasis
        if item["kind"] == "hermite":
            grid = qb.UniformGrid(item["half_width"], item["nodes"])
            fam = tr.call("quasibasis.shifted_family", qb.shifted_family,
                          item["a"], item["n_max"], grid)
        else:
            fam = tr.call("quasibasis.anharmonic_family", qb.anharmonic_family,
                          item["beta"], item["weight"], item["n_max"])
        out = {"fam": fam}
        out["sign"] = tr.call("quasibasis.sign_pattern", qb.sign_pattern, fam)
        out["ig"] = tr.call("quasibasis.indefinite_gram", qb.indefinite_gram, fam)
        out["mg"] = tr.call("quasibasis.metric_gram", qb.metric_gram, fam)
        out["eig"] = tr.call("quasibasis.eigen_residual", qb.eigen_residual, fam)
        out["bio"] = tr.call("quasibasis.biorthogonal_gram", qb.biorthogonal_gram, fam)
        u = fam.f.T @ item["coeff"]
        out["expansion"] = tr.call("quasibasis.expansion", qb.expansion, fam, u)
        out["hg"] = tr.call("quasibasis.h_gram_in_g", qb.h_gram_in_g, fam)
        if item["kind"] == "anharmonic":
            out["wg"] = tr.call("quasibasis.weighted_gram", qb.weighted_gram, fam)
        out["c_span"] = tr.call("quasibasis.c_action", qb.c_action, fam, u)
        out["c_mult"] = tr.call("quasibasis.c_action_multiplier", qb.c_action_multiplier, fam, u)
        return out

    def check(self, item, out) -> None:
        count = item["n_max"] + 1
        eye = np.eye(count)
        idx = np.arange(count)
        sigma = out["sign"][0]
        ig = out["ig"]
        if item["kind"] == "hermite":
            parity = (-1.0) ** idx
            require(np.array_equal(sigma, parity), "sign pattern")
            require(np.max(np.abs(ig - np.diag(parity))) < 1e-8, "indefinite Gram")
            require(np.max(np.abs(out["mg"] - eye)) < 1e-6, "metric Gram")
            lam, residuals = out["eig"]
            require(np.allclose(lam, 1.0 + 2.0 * idx + item["a"] ** 2, rtol=0, atol=1e-8),
                    "eigenvalues")
            require(np.max(residuals) < 1e-8, "eigen-residuals")
            hg = out["hg"]
            require(np.max(np.abs(hg - hg.conj().T)) < 1e-6, "H Gram not Hermitian")
            require(np.max(np.abs(hg - np.diag(np.diag(hg)))) < 1e-6, "H Gram not diagonal")
        else:
            require(set(sigma) <= {-1.0, 1.0}, "sign pattern")
            require(np.max(np.abs(ig - np.diag(sigma))) < 1e-6, "indefinite Gram")
            require(np.max(np.abs(out["wg"] - eye)) < 1e-12, "weighted Gram")
        errors = out["expansion"].g_errors
        require(np.all(np.diff(errors) <= 1e-12), "expansion error increased with the cutoff")
        require(errors[-1] < 1e-8, "in-span expansion did not converge")
        # For a J-orthonormal family [f_m, f_n] = sigma_n delta_mn, so
        # C (sum c_n f_n) = sum sigma_n c_n f_n.
        want = out["fam"].f.T @ (sigma * item["coeff"])
        scale = max(1.0, float(np.max(np.abs(want))))
        for key in ("c_span", "c_mult"):
            require(np.max(np.abs(out[key] - want)) <= 1e-6 * scale, f"{key} C-route")


class CliSmall(Workload):
    """One `python -m kreinlab.cli` child process per op, README sizes."""

    name = "cli_small"
    REPORTS = {"extend": "extend_report.json", "solve-x": "solve_x_report.json",
               "classify-model": "classify_model_report.json",
               "quasi-basis.hermite": "quasi_basis_report.json",
               "quasi-basis.anharmonic": "quasi_basis_report.json",
               "verify": "verify_report.json"}

    def __init__(self, seed: int, rundir: Path):
        super().__init__(seed, rundir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.peak_rss_kb = 0

    def setup(self) -> str:
        self.pool = gen.cli_pool(self.seed)
        digest = gen.digest(self.pool)
        base = self.rundir / "cli"
        base.mkdir(parents=True, exist_ok=True)
        problem = base / "problem.json"
        problem.write_text(json.dumps(gen.WORKED_PROBLEM))
        for run in self.pool:
            run["outdir"] = base / str(run["id"])
            run["argv"] = [a.replace("{problem}", str(problem)) for a in run["argv"]]
        self._reference: dict[int, bytes] = {}
        self._t_min, self._t_max = completion_endpoints(
            *(self._matrix(gen.WORKED_PROBLEM[k]) for k in ("T0_domain", "T0_action")))
        # One in-process CLI call warms the file cache the children read.
        warm = next(r for r in self.pool if r["name"] == "solve-x")
        with contextlib.redirect_stdout(io.StringIO()):
            kreinlab.cli.main(warm["argv"] + ["--output-dir", str(base / "warmup")])
        return digest

    @staticmethod
    def _matrix(obj):
        re = np.array(obj["re"]).reshape(obj["rows"], obj["cols"])
        return re + 1j * np.array(obj["im"]).reshape(obj["rows"], obj["cols"])

    def spawn(self, argv: list[str], stderr_path: Path) -> tuple[int, int]:
        """Run a child to completion; (exit code, peak RSS in KiB)."""
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def op(self, item, tr):
        item["outdir"].mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, "-m", "kreinlab.cli", *item["argv"],
                "--output-dir", str(item["outdir"])]
        code, rss = tr.call(f"cli.{item['name']}", self.spawn, argv,
                            self.rundir / "cli" / "stderr.txt")
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        return code

    def check(self, item, code) -> None:
        require(code == 0, f"{item['name']} exited with code {code}")
        data = (item["outdir"] / self.REPORTS[item["name"]]).read_bytes()
        first = self._reference.setdefault(item["id"], data)
        require(data == first, f"{item['name']} report changed between repeats")
        report = json.loads(data)
        name, argv = item["name"], item["argv"]
        if name == "extend":
            require((report["case"], report["defect_dim"], report["signature"]) == ("C", 1, [0, 1]),
                    "extend case")
            for key, want in (("T_mu", self._t_min), ("T_M", self._t_max)):
                require(opnorm(self._matrix(report[key]) - want) <= 1e-8, f"extend {key}")
        elif name == "solve-x":
            require(report["defect_dim"] == 1 and report["elementary"]["re"] == [0.5],
                    "solve-x elementary solution")
        elif name == "classify-model":
            delta = float(argv[argv.index("--delta") + 1])
            both = argv[argv.index("--variant") + 1] == "both"
            want_case = "A" if delta <= 1.0 else ("B" if both else "C")
            require(report["analytic_case"] == want_case, "classify-model case")
            require(report["trend_verdict"] == ("diverges" if delta <= 1.0 else "converges"),
                    "classify-model verdict")
        elif name.startswith("quasi-basis"):
            require(report["j_orthonormal"], "quasi-basis J-orthonormality")
            if name.endswith("hermite"):
                require(report["metric_gram_deviation"] < 1e-6, "hermite metric Gram")
            else:
                require(report["weighted_gram_deviation"] < 1e-12, "anharmonic weighted Gram")
        elif name == "verify":
            require(report["passed"], "verify suite failed")

    def layer_probes(self, repeats: int, clock) -> dict:
        """Interpreter, numpy/scipy import floor and kreinlab.cli import as
        child processes, plus in-process verify with default and 1 thread,
        each timed at reference host speed by the `hostspeed.Rescaler`
        `clock`."""
        names = []
        probes = {"cli.python_s": "pass", "cli.floor_s": "import numpy, scipy.linalg",
                  "cli.import_s": "import kreinlab.cli"}
        for name, code in probes.items():
            for _ in range(repeats):
                exit_code, _ = clock.time(self.spawn, [sys.executable, "-c", code],
                                          self.rundir / "cli" / "stderr.txt")
                require(exit_code == 0, f"probe {code!r} exited with code {exit_code}")
                names.append(name)
        runs = {"verify.run_verification.default_threads_s": None,
                "verify.run_verification.threads1_s": 1}
        for i in range(repeats):
            for name, threads in (runs.items() if i % 2 == 0 else reversed(runs.items())):
                results = clock.time(krein.verify.run_verification, seed=0, threads=threads)
                require(all(r.passed for r in results), "in-process verify failed")
                names.append(name)
        times: dict[str, list[float]] = {}
        for name, seconds in zip(names, clock.rescaled()):
            times.setdefault(name, []).append(seconds)
        return {name: statistics.median(v) for name, v in times.items()}


WORKLOADS = {w.name: w for w in (ExtendDense, ModelSweep, QuasibasisGrid, CliSmall)}
