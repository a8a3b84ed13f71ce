"""Acceptance gate: one test per shipped guarantee.

Each test checks the stated tolerances and, where a wall-clock budget is
part of the guarantee, fails if the budget is exceeded.  Run with
``pytest -v tests/test_acceptance.py`` for one pass/fail line per item.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

import oracles as ref
from kreinlab.extensions import (
    classify_case,
    density_test,
    extension_from_x,
    extremality_test,
    krein_interval,
    solve_x_equation,
)
from kreinlab.oracles import rank_extremality, sqrt_projection_endpoints
from kreinlab.quasibasis import (
    HERMITE_GRID,
    anharmonic_family,
    eigen_residual,
    expansion,
    h_gram_in_g,
    indefinite_gram,
    metric_gram,
    shifted_family,
    weighted_gram,
)
from kreinlab.sequence_model import (
    SequenceModelSpec,
    classify_analytic,
    xi_preimage_diagnostic,
)
from kreinlab.verify import (
    random_partial_contraction,
    random_signature_space,
    random_x,
    run_verification,
    t_half_problem,
)

DELTAS = (0.6, 0.8, 1.0, 1.1, 1.25, 1.5)


def opnorm(m):
    return float(np.linalg.norm(m, 2))


@contextmanager
def budget(label, limit=None):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    if limit is not None:
        assert elapsed < limit, (
            f"{label}: {elapsed:.2f}s exceeds the {limit:.0f}s budget")
    print(f"PASS {label} ({elapsed:.2f}s)")


def test_delta_classification_table():
    with budget("delta classification table", limit=1.0):
        both = [classify_analytic(SequenceModelSpec(d, "both_constraints"))
                for d in DELTAS]
        plus = [classify_analytic(SequenceModelSpec(d, "chi_plus_zero"))
                for d in DELTAS]
        assert both == ["A", "A", "A", "B", "B", "B"]
        assert plus == ["A", "A", "A", "C", "C", "C"]


def test_divergence_diagnostic_matches_analytic_boundary():
    with budget("divergence diagnostic on the delta grid", limit=5.0):
        for delta in DELTAS:
            spec = SequenceModelSpec(delta, "both_constraints")
            diag = xi_preimage_diagnostic(spec, max_exponent=16)
            assert diag.dyadic_n[-1] == 2 ** 16
            expected = "diverges" if delta <= 1.0 else "converges"
            assert diag.verdict == expected, f"delta = {delta}"
            # the boundary case grows only logarithmically and must be the
            # one flagged marginal
            assert diag.marginal == (delta == 1.0), f"delta = {delta}"


def test_interval_endpoints_match_brute_force_completions():
    with budget("interval endpoints vs brute-force completions", limit=30.0):
        rng = np.random.default_rng(97)
        scalar_corner = block_corner = 0
        for k in range(50):
            dim = int(rng.integers(2, 7))
            space = random_signature_space(rng, dim=dim)
            want_scalar = (k % 2 == 0) or dim == 2
            t0 = random_partial_contraction(rng, space)
            for _ in range(100):
                if (t0.domain_dim == dim - 1) == want_scalar:
                    break
                t0 = random_partial_contraction(rng, space)
            iv = krein_interval(t0)
            j = space.j

            # independent square-root/projection route on every instance
            t_min, t_max = sqrt_projection_endpoints(t0)
            assert opnorm(iv.t_mu - t_min) < 1e-8
            assert opnorm(iv.t_m - t_max) < 1e-8
            assert opnorm(j @ iv.t_mu + iv.t_m @ j) < 1e-10

            if t0.domain_dim == dim - 1:
                # scalar corner: pure feasibility bisection, no shared code
                lo, hi = ref.bisection_endpoints(t0)
                assert opnorm(iv.t_mu - lo) < 1e-8
                assert opnorm(iv.t_m - hi) < 1e-8
                scalar_corner += 1
            else:
                # larger corners: every feasible completion must sit between
                # the endpoints in Loewner order, and the endpoints must be
                # feasible themselves
                comp = ref.complement_basis(np.asarray(t0.domain))
                cloud = ref.feasible_corner_cloud(
                    t0, comp.conj().T @ t_min @ comp,
                    comp.conj().T @ t_max @ comp, rng, count=4)
                for t in cloud:
                    assert np.linalg.eigvalsh(t - iv.t_mu)[0] > -1e-9
                    assert np.linalg.eigvalsh(iv.t_m - t)[0] > -1e-9
                for endpoint in (iv.t_mu, iv.t_m):
                    assert ref.is_contraction(endpoint, slack=1e-9)
                    assert opnorm(endpoint @ t0.domain - t0.action) < 1e-9
                block_corner += 1
        assert scalar_corner + block_corner == 50
        assert scalar_corner >= 15 and block_corner >= 10


def test_anticommutation_equivalence_zero_counterexamples():
    with budget("anticommutation iff fixed-point equation"):
        rng = np.random.default_rng(1234)
        solves_count = breaks_count = 0
        for _ in range(6):
            space = random_signature_space(rng)
            t0 = random_partial_contraction(rng, space)
            iv = krein_interval(t0)
            m = iv.defect_dim
            jm = iv.j_on_defect
            eye = np.eye(m)
            xs = []
            for _ in range(100):
                x = random_x(rng, m)
                xs.append(x)
                sym = 0.5 * (x + jm @ (eye - x) @ jm)
                xs.append(0.5 * (sym + sym.conj().T))
            assert len(xs) == 200
            for x in xs:
                t = extension_from_x(iv, x).t
                anticommutes = opnorm(space.j @ t + t @ space.j) < 1e-10
                solves = opnorm(x - jm @ (eye - x) @ jm) < 1e-10
                assert anticommutes == solves
                solves_count += solves
                breaks_count += not solves
        # both directions of the equivalence must be well exercised
        assert solves_count >= 300 and breaks_count >= 300


def test_extremality_criteria_agree_where_cayley_exists():
    with budget("projection vs rank extremality criteria"):
        rng = np.random.default_rng(4321)
        compared = skipped = 0
        for _ in range(8):
            space = random_signature_space(rng)
            t0 = random_partial_contraction(rng, space)
            iv = krein_interval(t0)
            m = iv.defect_dim
            sols = solve_x_equation(iv, seed=int(rng.integers(10000)),
                                    n_projection_samples=3)
            xs = [sols.elementary] + list(sols.projections)
            xs += [random_x(rng, m) for _ in range(20)]
            for _ in range(5):
                v = rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1))
                v /= np.linalg.norm(v)
                xs.append(v @ v.conj().T)  # rank-one projection parameter
            for x in xs:
                choice = extension_from_x(iv, x)
                res = extremality_test(t0, choice)
                if not res.cayley_defined:
                    skipped += 1
                    continue
                rank_criterion = rank_extremality(t0, choice.t)
                assert rank_criterion is not None
                assert res.extremal == rank_criterion
                compared += 1
        assert compared >= 100


def test_worked_half_instance_end_to_end():
    with budget("worked half instance end to end"):
        t0 = t_half_problem()
        iv = krein_interval(t0)
        np.testing.assert_allclose(iv.t_mu, [[0.0, 0.5], [0.5, -0.75]],
                                   atol=1e-10)
        np.testing.assert_allclose(iv.t_m, [[0.0, 0.5], [0.5, 0.75]],
                                   atol=1e-10)
        assert iv.signature == (0, 1)
        assert classify_case(iv) == "C"

        # J acts as -1 on the one-dimensional defect, so the fixed-point
        # equation reads x = 1 - x with the unique solution 1/2
        np.testing.assert_allclose(iv.j_on_defect, [[-1.0]], atol=1e-10)
        sols = solve_x_equation(iv)
        np.testing.assert_allclose(sols.elementary, [[0.5]], atol=1e-10)
        assert not sols.projection_exists
        assert sols.projections == []

        choice = extension_from_x(iv, np.array([[0.5]]))
        np.testing.assert_allclose(choice.t, [[0.0, 0.5], [0.5, 0.0]],
                                   atol=1e-10)
        assert choice.anticommuting
        j = t0.space.j
        assert opnorm(j @ choice.t + choice.t @ j) < 1e-10
        assert not extremality_test(t0, choice).extremal
        assert density_test(t0, choice.t) is False


def test_shifted_hermite_quasi_basis_diagnostics():
    with budget("shifted-Hermite quasi-basis diagnostics", limit=10.0):
        fam = shifted_family(0.5, 12)
        n = np.arange(13)

        ig = indefinite_gram(fam)
        assert np.max(np.abs(ig - np.diag((-1.0) ** n))) < 1e-8

        gg = metric_gram(fam)
        assert np.max(np.abs(gg - np.eye(13))) < 1e-6

        lam, residuals = eigen_residual(fam)
        np.testing.assert_allclose(lam, 1.0 + 2.0 * n + 0.25, atol=1e-8)
        assert np.max(residuals) < 1e-8

        hg = h_gram_in_g(fam)
        assert np.max(np.abs(hg - hg.conj().T)) < 1e-6
        assert np.max(np.abs(hg - np.diag(np.diag(hg)))) < 1e-6


def test_anharmonic_family_gram_identities():
    with budget("anharmonic family Gram identities"):
        fam = anharmonic_family(4.0, "x_over_1px2", 8)
        ig = indefinite_gram(fam)
        sigma = np.sign(np.real(np.diag(ig)))
        assert set(sigma) <= {-1.0, 1.0}
        assert np.max(np.abs(ig - np.diag(sigma))) < 1e-6
        # the weighted Gram is the plain Hermite-basis orthonormality in
        # disguise, so it holds to quadrature accuracy
        assert np.max(np.abs(weighted_gram(fam) - np.eye(9))) < 1e-12


def test_expansion_error_non_increasing():
    with budget("expansion error non-increasing in the cutoff"):
        fams = {n: shifted_family(0.5, n) for n in (4, 8, 16)}
        x = HERMITE_GRID.points()
        in_span = fams[4].f[0] + 0.3 * fams[4].f[3]
        targets = {
            "in-span combination": in_span,
            "offset gaussian": np.exp(-((x - 0.4) ** 2)),
            "modulated gaussian": np.exp(-x ** 2 / 2.0) * np.cos(2.0 * x),
        }
        for label, target in targets.items():
            errors = [expansion(fams[n], target).g_errors[-1]
                      for n in (4, 8, 16)]
            for a, b in zip(errors, errors[1:]):
                assert b <= a + 1e-12, (label, errors)
        for n in (4, 8, 16):
            assert expansion(fams[n], in_span).g_errors[-1] < 1e-8


def test_verification_suite_passes():
    with budget("cross-module verification suite", limit=120.0):
        results = run_verification(seed=0)
        failed = [r.name for r in results if not r.passed]
        assert not failed, f"failing checks: {failed}"
        assert len(results) >= 15
        # the 1024-node anharmonic family takes the coarse route in both parities
        detail = next(r.detail for r in results if r.name == "quasibasis.anharmonic")
        assert "(0 of 2 parities fell back)" in detail
