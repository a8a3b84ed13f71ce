"""Command-line front end.

Subcommands: extend, solve-x, classify-model, quasi-basis, verify.
Reports are JSON (plus plot-ready CSV tables); given the same inputs and
seed the emitted files are byte-identical.  Exit codes: 0 success,
2 malformed input, 3 invariant violation, 4 numerical-resolution refusal.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import KreinLabError, ResolutionError
from .extensions import (
    classify_case,
    extension_from_x,
    extremality_test,
    krein_interval,
    solve_x_equation,
)
from .quasibasis import (
    ANHARMONIC_GRID,
    HERMITE_GRID,
    ShiftedHermiteFamily,
    UniformGrid,
    anharmonic_family,
    biorthogonal_gram,
    eigen_residual,
    expansion,
    h_gram_in_g,
    indefinite_gram,
    metric_gram,
    shifted_family,
    sign_pattern,
)
from .sequence_model import (
    FIT_POINTS,
    MAX_PAIRS,
    SequenceModelSpec,
    classify_analytic,
    defect_prediction,
    xi_preimage_diagnostic,
)
from .serialize import _fmt_float, dumps_report, matrix_to_obj, problem_from_obj
from .verify import random_x, run_verification, verification_report

_CSV_DOC = """\
CSV column reference:
  partial_sums.csv      N, partial_sum          dyadic truncation, series value
  indefinite_gram.csv   m, n, re, im            [f_m, f_n]
  metric_gram.csv       m, n, re, im            (f_m, f_n)_G
  residuals.csv         n, eigenvalue, eigen_residual, expansion_error_metric,
                        expansion_error_mapped  per-index diagnostics
Parallelism is capped by the KREIN_LAB_THREADS environment variable.
"""

# Smallest classify-model --N: the trend fit needs FIT_POINTS + 1 dyadic points.
_MIN_N = 2 ** (FIT_POINTS + 1)
# Largest classify-model --N: the package's cap on the O(N) model routes.
_MAX_N = MAX_PAIRS


def _validate(args: argparse.Namespace) -> None:
    """Refuse malformed options with a ValueError (exit 2) before any handler
    runs, then create the output directory."""
    path = getattr(args, "input", None)
    if path is not None and not path.is_file():
        raise ValueError(f"input file not found: {path}")
    tol = getattr(args, "tol", None)
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    if getattr(args, "samples", 0) < 0:
        raise ValueError("--samples must be non-negative")
    n_limit = getattr(args, "n_limit", _MIN_N)
    if n_limit < _MIN_N:
        raise ValueError(f"--N must be at least {_MIN_N}")
    if n_limit > _MAX_N:
        raise ValueError(f"--N must be at most {_MAX_N}")
    args.output_dir.mkdir(parents=True, exist_ok=True)


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(_fmt_float(float(v)))
        lines.append(",".join(cells))
    _write(path, "\n".join(lines) + "\n")


def _load_problem(args: argparse.Namespace):
    return problem_from_obj(json.loads(args.input.read_text()))


def _cmd_extend(args: argparse.Namespace) -> int:
    t0 = _load_problem(args)
    tol_kw = {} if args.tol is None else {"tol": args.tol}
    interval = krein_interval(t0, **tol_kw)
    case = classify_case(interval)
    samples = []
    m = interval.defect_dim
    if m:
        sols = solve_x_equation(interval, seed=args.seed, n_projection_samples=args.samples)
        labeled = [("elementary", sols.elementary)]
        labeled += [(f"projection_{i}", x) for i, x in enumerate(sols.projections)]
        rng = np.random.default_rng(args.seed)
        labeled += [(f"random_{i}", random_x(rng, m)) for i in range(args.samples)]
        for label, x in labeled:
            choice = extension_from_x(interval, x)
            ext = extremality_test(t0, choice)
            samples.append({
                "label": label,
                "X": matrix_to_obj(choice.x),
                "T": matrix_to_obj(choice.t),
                "anticommuting": choice.anticommuting,
                "extremal": ext.extremal,
                "cayley_defined": ext.cayley_defined,
                # extremal iff dense (Arlinskii-Hassi-Sebestyen-de Snoo)
                "domain_dense_in_energetic_space": ext.extremal,
            })
    report = {
        "T_mu": matrix_to_obj(interval.t_mu),
        "T_M": matrix_to_obj(interval.t_m),
        "defect_dim": m,
        "signature": list(interval.signature),
        "case": case,
        "X_samples": samples,
    }
    _write(args.output_dir / "extend_report.json", dumps_report(report))
    return 0


def _cmd_solve_x(args: argparse.Namespace) -> int:
    t0 = _load_problem(args)
    interval = krein_interval(t0)
    if interval.defect_dim == 0:
        report = {
            "defect_dim": 0,
            "signature": [0, 0],
            "note": "trivial defect space: the extension is unique (case A)",
            "solutions": [],
        }
    else:
        sols = solve_x_equation(interval, seed=args.seed, n_projection_samples=args.samples)
        report = {
            "defect_dim": interval.defect_dim,
            "signature": list(sols.signature),
            "elementary": matrix_to_obj(sols.elementary),
            "projection_exists": sols.projection_exists,
            "projections": [matrix_to_obj(x) for x in sols.projections],
            "note": sols.note,
            "affine_family": "every solution pair X, I-X spans a segment of solutions"
                             " (1-a) X + a (I-X), a in [0, 1]",
        }
    _write(args.output_dir / "solve_x_report.json", dumps_report(report))
    return 0


_VARIANTS = {"both": "both_constraints", "chi-plus-zero": "chi_plus_zero"}


def _cmd_classify_model(args: argparse.Namespace) -> int:
    spec = SequenceModelSpec(args.delta, _VARIANTS[args.variant])
    exponent = int(math.floor(math.log2(args.n_limit)))
    diag = xi_preimage_diagnostic(spec, max_exponent=exponent)
    pred = defect_prediction(spec)
    csv_path = args.output_dir / "partial_sums.csv"
    _write_csv(csv_path, ["N", "partial_sum"],
               list(zip(diag.dyadic_n, diag.partial_sums)))
    report = {
        "analytic_case": classify_analytic(spec),
        "partial_sums": csv_path.name,
        "trend_verdict": diag.verdict,
        "marginal": diag.marginal,
        "growth_exponent": diag.exponent_estimate,
        "defect_prediction": {
            "case": pred.case,
            "dimension": pred.dimension,
            "signature": list(pred.signature),
        },
    }
    _write(args.output_dir / "classify_model_report.json", dumps_report(report))
    return 0


# quasi-basis family -> (default grid, constructor from the options and grid)
_FAMILIES = {
    "hermite": (HERMITE_GRID,
                lambda args, grid: shifted_family(args.a, args.nmax, grid)),
    "anharmonic": (ANHARMONIC_GRID,
                   lambda args, grid: anharmonic_family(args.beta, args.weight,
                                                        args.nmax, grid)),
}


def _cmd_quasi_basis(args: argparse.Namespace) -> int:
    n_max = args.nmax
    default, build = _FAMILIES[args.family]
    grid = UniformGrid(default.half_width if args.half_width is None else args.half_width,
                       default.nodes if args.nodes is None else args.nodes)
    fam = build(args, grid)
    sigma, offdiag, j_orthonormal = sign_pattern(fam)
    ig = indefinite_gram(fam)
    mg = metric_gram(fam)
    metric_dev = float(np.max(np.abs(mg - np.eye(n_max + 1))))
    lam, residuals = eigen_residual(fam)
    bio = biorthogonal_gram(fam)
    target = fam.f.T @ (1.0 / (1.0 + np.arange(n_max + 1)))
    rep = expansion(fam, target)
    report = {
        "kind": fam.kind,
        "n_max": n_max,
        "half_width": fam.half_width,
        "nodes": fam.nodes,
        "sign_pattern": [int(s) for s in sigma],
        "j_orthonormal": j_orthonormal,
        "indefinite_gram_offdiag": offdiag,
        "metric_gram_deviation": metric_dev,
        "biorthogonal_deviation": float(np.max(np.abs(bio - np.eye(n_max + 1)))),
        "eigenvalues": list(lam),
        "max_eigen_residual": float(np.max(residuals)),
        "expansion_target": "sum_n f_n / (n + 1)",
        "expansion_final_error_metric": float(rep.g_errors[-1]),
        "expansion_final_error_mapped": float(rep.plain_errors[-1]),
    }
    if isinstance(fam, ShiftedHermiteFamily):
        report["a"] = fam.a
        report["band_limit"] = fam.band
        report["h_gram_offdiag"] = float(np.max(np.abs(h_gram_in_g(fam) - np.diag(lam))))
    else:
        report["beta"] = fam.beta
        report["weight"] = fam.p_name
        report["parities"] = [int(s) for s in fam.g_parities]
        report["weighted_gram_deviation"] = metric_dev
        report["max_richardson_error"] = float(np.max(fam.richardson_error))
    idx = range(n_max + 1)
    _write_csv(args.output_dir / "indefinite_gram.csv", ["m", "n", "re", "im"],
               [(m, n, ig[m, n].real, ig[m, n].imag) for m in idx for n in idx])
    _write_csv(args.output_dir / "metric_gram.csv", ["m", "n", "re", "im"],
               [(m, n, mg[m, n].real, mg[m, n].imag) for m in idx for n in idx])
    _write_csv(args.output_dir / "residuals.csv",
               ["n", "eigenvalue", "eigen_residual",
                "expansion_error_metric", "expansion_error_mapped"],
               [(n, lam[n], residuals[n], rep.g_errors[n], rep.plain_errors[n])
                for n in idx])
    _write(args.output_dir / "quasi_basis_report.json", dumps_report(report))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.seconds:.2f}s): {r.detail}")
    report = verification_report(results, args.seed)
    _write(args.output_dir / "verify_report.json", dumps_report(report))
    return 0 if report["passed"] else 3


_HANDLERS = {
    "extend": _cmd_extend,
    "solve-x": _cmd_solve_x,
    "classify-model": _cmd_classify_model,
    "quasi-basis": _cmd_quasi_basis,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinlab",
        description="Krein-space extension intervals, anticommuting extensions, "
                    "sequence-model classification and quasi-basis diagnostics.",
        epilog=_CSV_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def grid_options(p, default):
        p.add_argument("--L", dest="half_width", type=float, default=None,
                       help=f"grid half-width (default {default.half_width:g})")
        p.add_argument("--nodes", type=int, default=None,
                       help=f"grid nodes, power of two (default {default.nodes})")

    def common(p, needs_input):
        if needs_input:
            p.add_argument("--input", required=True, type=Path,
                           help="problem JSON: {\"J\", \"T0_domain\", \"T0_action\"}")
        p.add_argument("--output-dir", type=Path, default=Path("."),
                       help="directory for report files (created if missing)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed; identical seeds give byte-identical reports")

    p = sub.add_parser("extend", help="extension interval, case and sampled X-extensions")
    common(p, True)
    p.add_argument("--tol", type=float, default=None,
                   help="override the tolerance of the interval-order check "
                        "(T_M - T_mu positive semidefinite)")
    p.add_argument("--samples", type=int, default=3,
                   help="number of projection/random X samples in the report")

    p = sub.add_parser("solve-x", help="solution family of X = J(I-X)J on the defect space")
    common(p, True)
    p.add_argument("--samples", type=int, default=3,
                   help="number of projection solutions to sample")

    p = sub.add_parser("classify-model", help="A/B/C classification of the sequence model")
    common(p, False)
    p.add_argument("--delta", type=float, required=True, help="decay exponent, 1/2 < delta <= 3/2")
    p.add_argument("--variant", choices=sorted(_VARIANTS), required=True)
    p.add_argument("--N", dest="n_limit", type=int, default=2 ** 16,
                   help="largest dyadic truncation for the divergence diagnostic "
                        f"(from {_MIN_N} to {_MAX_N})")

    p = sub.add_parser("quasi-basis", help="quasi-basis diagnostics for a function family",
                       epilog=_CSV_DOC, formatter_class=argparse.RawDescriptionHelpFormatter)
    fam_sub = p.add_subparsers(dest="family", required=True)
    ph = fam_sub.add_parser("hermite", help="shifted Hermite family g_n(x + ia)")
    common(ph, False)
    ph.add_argument("--a", type=float, required=True, help="imaginary shift")
    ph.add_argument("--nmax", type=int, required=True)
    grid_options(ph, HERMITE_GRID)
    pa = fam_sub.add_parser("anharmonic", help="weighted family e^p g_n for |x|^beta")
    common(pa, False)
    pa.add_argument("--beta", type=float, required=True, help="potential exponent, beta > 2")
    pa.add_argument("--p", dest="weight", default="x_over_1px2",
                    help="built-in odd weight exponent (x_over_1px2 | tanh)")
    pa.add_argument("--nmax", type=int, required=True)
    grid_options(pa, ANHARMONIC_GRID)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    common(p, False)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse and validate the options, dispatch, and map failures onto the
    documented exit codes."""
    args = _build_parser().parse_args(argv)
    try:
        _validate(args)
        return _HANDLERS[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except ResolutionError as exc:
        print(f"error: resolution refusal: {exc}", file=sys.stderr)
        return 4
    except KreinLabError as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
