"""Cross-module invariant suite.

Every check is deterministic given the master seed (each one derives its
own generator from a hash of seed and check name, so the result does not
depend on execution order or thread count).  Checks are independent and
may run in a thread pool capped by the KREIN_LAB_THREADS environment
variable.
"""
from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import oracles
from ._linalg import (
    RESULT_TOL,
    STRUCT_TOL,
    hermitize,
    operator_norm,
    orthonormal_columns,
    orthonormal_complement,
    random_unitary,
)
from .angular import (
    PartialContraction,
    c0_operator,
    cayley_g0,
    duality_test,
    extract_angular,
    reconstruct_subspaces,
)
from .errors import CayleyUndefinedError
from .extensions import (
    classify_case,
    density_test,
    extension_from_x,
    extremality_test,
    krein_interval,
    solve_x_equation,
    symmetrize_solution,
    x_equation_residual,
)
from .gmetric import GMetric
from .quasibasis import (
    UniformGrid,
    anharmonic_family,
    biorthogonal_gram,
    c_action,
    c_action_multiplier,
    eigen_residual,
    expansion,
    h_gram_in_g,
    halfline_levels,
    merge_certified,
    merged_counts,
    metric_gram,
    shifted_family,
    sign_pattern,
    weighted_gram,
)
from .sequence_model import (
    SequenceModelSpec,
    build_model,
    classify_analytic,
    defect_prediction,
    truncated_density_sweep,
    xi_preimage_diagnostic,
)
from .serialize import dumps_report, matrix_from_obj, matrix_to_obj
from .spaces import (
    SignatureSpace,
    Subspace,
    classify_subspace,
    fundamental_bases,
    fundamental_projections,
)

# Thresholds of the checks.  Identities that the library itself checks at
# STRUCT_TOL or RESULT_TOL are held to the same constant here.

# Two routes to the same angular, C0/G0 or metric quantity agree.
ROUTE_TOL = 1e-8
# An action whose asymmetry exceeds this must fail the duality test.
ASYMMETRY_FLOOR = 1e-8
# Cayley round trip: the oracle inverse of the production G returns T.
ROUNDTRIP_TOL = 1e-10
# Relative gap between the structured and dense sweeps (preimage norm, sup).
SWEEP_REL_TOL = 1e-9
# The worked 2x2 instance against its hand-computed matrices, and its
# elementary solution X = 1/2, which is built exactly.
WORKED_TOL = 1e-10
WORKED_X_TOL = 1e-12
# Hermite family: metric and biorthogonal Grams against I, eigen-residual,
# H in the metric Gram against diag(eigenvalues), span and multiplier
# C-operator routes.
GRAM_TOL = 1e-6
HERMITE_RESIDUAL_TOL = 1e-8
H_GRAM_TOL = 1e-5
C_ROUTE_TOL = 1e-6
# Anharmonic family: weighted Gram against I, conjugated-operator residual,
# Richardson eigenvalue error.
WEIGHTED_GRAM_TOL = 1e-10
ANHARMONIC_RESIDUAL_TOL = 1e-4
RICHARDSON_TOL = 1e-4
# The family's trimmed level solves against n_max + 2 per parity: eigenvalues
# and g rows.
LEVELS_TOL = 1e-9
# In-span expansions: final metric error, and the rise between steps that
# still counts as monotone.
EXPANSION_TOL = 1e-8
MONOTONE_SLACK = 1e-12


# --- deterministic sample builders (also used by the test suite) -----------

def random_signature_space(rng: np.random.Generator, dim: int | None = None) -> SignatureSpace:
    if dim is None:
        dim = int(rng.integers(2, 7))
    plus = int(rng.integers(1, dim))
    u = random_unitary(rng, dim)
    signs = np.concatenate([np.ones(plus), -np.ones(dim - plus)])
    return SignatureSpace(hermitize((u * signs) @ u.conj().T))


def random_anticommuting_contraction(rng: np.random.Generator, space: SignatureSpace,
                                     norm_cap: float = 0.9) -> np.ndarray:
    """Self-adjoint contraction with J T = -T J (off-diagonal in H_+ (+) H_-)."""
    p, q = space.plus_dim, space.minus_dim
    k = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
    scale = operator_norm(k)
    if scale > 0:
        k *= norm_cap * float(rng.uniform(0.3, 1.0)) / scale
    basis = np.hstack(fundamental_bases(space))
    blocks = np.zeros((space.dim, space.dim), dtype=complex)
    blocks[:p, p:] = k
    blocks[p:, :p] = k.conj().T
    return hermitize(basis @ blocks @ basis.conj().T)


def random_partial_contraction(rng: np.random.Generator, space: SignatureSpace,
                               t_full: np.ndarray | None = None,
                               proper: bool = True) -> PartialContraction:
    """Restriction of an anticommuting contraction to a random J-invariant domain."""
    if t_full is None:
        t_full = random_anticommuting_contraction(rng, space)
    p, q = space.plus_dim, space.minus_dim
    while True:
        d_plus = int(rng.integers(0, p + 1))
        d_minus = int(rng.integers(0, q + 1))
        if d_plus + d_minus == 0:
            continue
        if proper and d_plus + d_minus == space.dim:
            continue
        break
    cols = []
    for basis, d in zip(fundamental_bases(space), (d_plus, d_minus)):
        if d:
            coeff = rng.standard_normal((basis.shape[1], d)) + 1j * rng.standard_normal((basis.shape[1], d))
            cols.append(orthonormal_columns(basis @ coeff))
    domain = np.hstack(cols)
    return PartialContraction(space, domain, t_full @ domain)


def random_x(rng: np.random.Generator, m: int) -> np.ndarray:
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = hermitize(a @ a.conj().T)
    return h / (operator_norm(h) + float(rng.uniform(0.05, 1.0)))


def t_half_problem():
    """The 2x2 worked instance: J = diag(1,-1), T0 e1 = e2 / 2."""
    space = SignatureSpace(np.diag([1.0, -1.0]))
    domain = np.array([[1.0], [0.0]])
    action = np.array([[0.0], [0.5]])
    return PartialContraction(space, domain, action)


# --- individual checks ------------------------------------------------------

def _check_spaces_projections(rng) -> str:
    worst = 0.0
    for _ in range(6):
        sp = random_signature_space(rng)
        pp, pm = fundamental_projections(sp)
        eye = np.eye(sp.dim)
        worst = max(
            worst,
            operator_norm(pp + pm - eye),
            operator_norm(pp @ pp - pp),
            operator_norm(pm @ pm - pm),
            operator_norm(pp @ pm),
            operator_norm(sp.j - pp + pm),
        )
        for basis, want in zip(fundamental_bases(sp), ("positive", "negative")):
            label = classify_subspace(sp, Subspace(basis)).label
            if label != want:
                raise AssertionError(f"fundamental subspace classified as {label}")
    if worst > STRUCT_TOL:
        raise AssertionError(f"projection identity residual {worst:.3e}")
    return f"projection identities hold (residual {worst:.2e})"


def _check_angular_roundtrip(rng) -> str:
    worst = 0.0
    for _ in range(6):
        sp = random_signature_space(rng)
        t0 = random_partial_contraction(rng, sp, proper=False)
        lp, lm = reconstruct_subspaces(t0)
        back = extract_angular(sp, lp if lp.dim else None, lm if lm.dim else None)
        worst = max(worst, operator_norm(t0.full_matrix() - back.full_matrix()))
        pd = t0.domain @ t0.domain.conj().T
        pb = back.domain @ back.domain.conj().T
        worst = max(worst, operator_norm(pd - pb))
    if worst > ROUTE_TOL:
        raise AssertionError(f"angular roundtrip residual {worst:.3e}")
    return f"extract/reconstruct roundtrip residual {worst:.2e}"


def _check_angular_duality(rng) -> str:
    for _ in range(5):
        sp = random_signature_space(rng)
        t0 = random_partial_contraction(rng, sp)
        if not duality_test(t0):
            raise AssertionError("symmetric restriction failed the duality test")
        p, q = sp.plus_dim, sp.minus_dim
        k1 = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        k2 = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        basis = np.hstack(fundamental_bases(sp))
        blocks = np.zeros((sp.dim, sp.dim), dtype=complex)
        blocks[:p, p:] = 0.2 * k1 / max(operator_norm(k1), 1e-12)
        blocks[p:, :p] = 0.4 * k2.conj().T / max(operator_norm(k2), 1e-12)
        skew = basis @ blocks @ basis.conj().T
        broken = PartialContraction(sp, t0.domain, skew @ t0.domain)
        if broken.domain_dim and duality_test(broken) and operator_norm(
                hermitize(t0.domain.conj().T @ broken.action)
                - t0.domain.conj().T @ broken.action) > ASYMMETRY_FLOOR:
            raise AssertionError("non-symmetric action passed the duality test")
    return "duality holds iff the restricted action is symmetric"


def _check_angular_c0(rng) -> str:
    worst = 0.0
    for _ in range(5):
        sp = random_signature_space(rng)
        t0 = random_partial_contraction(rng, sp, proper=False)
        lp, lm = reconstruct_subspaces(t0)
        c0 = c0_operator(t0)
        for sub, sgn in ((lp, 1.0), (lm, -1.0)):
            for k in range(sub.dim):
                v = sub.basis[:, k]
                worst = max(worst, float(np.linalg.norm(c0.apply(v) - sgn * v)))
        # G0 = J C0 positivity through the Cayley route.
        g0 = cayley_g0(t0)
        for _ in range(4):
            c = rng.standard_normal(t0.domain_dim) + 1j * rng.standard_normal(t0.domain_dim)
            x = t0.domain @ c
            fx = x + t0.apply(x)
            val = np.real(np.vdot(fx, g0.apply(fx)))
            expect = float(np.vdot(x, x).real - np.vdot(t0.apply(x), t0.apply(x)).real)
            worst = max(worst, abs(val - expect))
    if worst > ROUTE_TOL:
        raise AssertionError(f"C0/G0 residual {worst:.3e}")
    return f"C0 involution and (G0 f, f) = ||x||^2 - ||T0 x||^2 (residual {worst:.2e})"


def _check_endpoints_vs_completion(rng) -> str:
    # The n x n 2-norms of the endpoints are the independent route to the
    # bound on ||T|| - 1 that krein_interval reads from block data.
    worst = 0.0
    worst_anti = 0.0
    worst_excess = -np.inf
    worst_bound = 0.0
    problems = [random_partial_contraction(rng, random_signature_space(rng)) for _ in range(8)]
    # The 32-pair model gives W one eigenvalue on both signs.
    problems.append(build_model(SequenceModelSpec(0.9, "both_constraints", 32)).t0)
    for t0 in problems:
        interval = krein_interval(t0)
        o_min, o_max = oracles.sqrt_projection_endpoints(t0)
        worst = max(worst, operator_norm(interval.t_mu - o_min),
                    operator_norm(interval.t_m - o_max))
        worst_anti = max(worst_anti, operator_norm(
            t0.space.j @ interval.t_mu + interval.t_m @ t0.space.j))
        excess = max(operator_norm(interval.t_mu), operator_norm(interval.t_m)) - 1.0
        if excess > RESULT_TOL:
            raise AssertionError(f"interval endpoint is not a contraction: "
                                 f"||T|| - 1 = {excess:.3e}")
        if excess > interval.excess_bound:
            raise AssertionError(f"||T|| - 1 = {excess:.3e} exceeds the bound "
                                 f"{interval.excess_bound:.3e}")
        worst_excess = max(worst_excess, excess)
        worst_bound = max(worst_bound, interval.excess_bound)
    if worst > RESULT_TOL:
        raise AssertionError(f"endpoint routes disagree by {worst:.3e}")
    if worst_anti > STRUCT_TOL:
        raise AssertionError(f"J T_mu + T_M J = {worst_anti:.3e}")
    return (f"square-root and block-completion endpoints agree ({worst:.2e}); "
            f"||T|| - 1 at most {worst_excess:.2e}, bound {worst_bound:.2e}")


def _check_defect_complement(rng) -> str:
    # krein_interval splits the defect basis along J without checking it.
    worst = 0.0
    for _ in range(6):
        sp = random_signature_space(rng)
        t0 = random_partial_contraction(rng, sp)
        interval = krein_interval(t0)
        comp = orthonormal_complement(t0.domain)
        mb, jm = interval.defect_basis, interval.j_on_defect
        if mb.shape[1] != comp.shape[1]:
            raise AssertionError("defect dimension differs from codim D(T0)")
        ev = np.linalg.eigvalsh(hermitize(comp.conj().T @ sp.j @ comp))
        sig = (int(np.sum(ev > 0)), int(np.sum(ev < 0)))
        if sig != interval.signature:
            raise AssertionError(f"defect signature {interval.signature} != {sig}")
        if not np.array_equal(jm, np.diag(np.r_[np.ones(sig[0]), -np.ones(sig[1])])):
            raise AssertionError("J on the defect is not diag(I_p, -I_q)")
        worst = max(worst, operator_norm(mb @ mb.conj().T - comp @ comp.conj().T),
                    operator_norm(sp.j @ mb - mb @ jm))
    if worst > RESULT_TOL:
        raise AssertionError(f"defect basis is {worst:.3e} from a J-split basis of D(T0)-perp")
    return f"defect space = D(T0)-perp, J-split (residual {worst:.2e}; strong-contraction seeds)"


def _check_anticommute_equivalence(rng) -> str:
    n_true = n_false = 0
    for _ in range(5):
        sp = random_signature_space(rng)
        t0 = random_partial_contraction(rng, sp)
        interval = krein_interval(t0)
        m = interval.defect_dim
        mb = interval.defect_basis
        samples = [0.5 * np.eye(m), np.zeros((m, m)), np.eye(m)]
        for _ in range(12):
            x = random_x(rng, m)
            samples.extend([x, symmetrize_solution(x, interval.signature)])
        for x in samples:
            # extension_from_x reads the verdict from the X-equation residual.
            choice = extension_from_x(interval, x)
            # T - T_mu and T_M - T are PSD and live on the defect space.
            for gap in (choice.t - interval.t_mu, interval.t_m - choice.t):
                if np.linalg.eigvalsh(hermitize(mb.conj().T @ gap @ mb)).min(
                        initial=0.0) < -STRUCT_TOL:
                    raise AssertionError("realized extension leaves the interval")
            if operator_norm(choice.t @ t0.domain - t0.action) > RESULT_TOL:
                raise AssertionError("realized extension does not extend T0")
            ambient = operator_norm(sp.j @ choice.t + choice.t @ sp.j) <= STRUCT_TOL
            if ambient != choice.anticommuting:
                raise AssertionError(
                    f"anticommutation verdicts disagree (||JT + TJ|| {ambient}, "
                    f"X-equation {choice.anticommuting})")
            n_true += ambient
            n_false += not ambient
    if n_true == 0 or n_false == 0:
        raise AssertionError("equivalence was not exercised on both sides")
    return f"JT = -TJ iff X = J(I-X)J on {n_true}+{n_false} samples"


def _check_x_solutions(rng) -> str:
    n_proj = 0
    # The random problems seldom have a balanced defect signature; the model does.
    balanced = build_model(SequenceModelSpec(1.25, "both_constraints", 8)).t0
    for k in range(7):
        t0 = balanced if k == 6 else random_partial_contraction(rng, random_signature_space(rng))
        interval = krein_interval(t0)
        sols = solve_x_equation(interval, seed=int(rng.integers(2 ** 31)),
                                n_projection_samples=3)
        if sols.projection_exists != (interval.signature[0] == interval.signature[1]):
            raise AssertionError("projection existence does not track the signature balance")
        for x0 in [sols.elementary, *sols.projections]:
            for alpha in (0.0, 0.25, 1.0):
                xa = sols.affine(x0, alpha)
                if x_equation_residual(xa, interval.signature) > STRUCT_TOL:
                    raise AssertionError("affine family left the solution set")
        for x in sols.projections:
            n_proj += 1
            if operator_norm(x @ x - x) > STRUCT_TOL:
                raise AssertionError("projection solution is not a projection")
            ev = np.linalg.eigvalsh(hermitize(x))
            if ev[0] < -STRUCT_TOL or ev[-1] > 1.0 + STRUCT_TOL:
                raise AssertionError("projection solution leaves [0, I]")
    return f"elementary, affine and {n_proj} projection solutions all verified"


def _check_extremality_routes(rng) -> str:
    n_checked = n_samples = n_fallback = 0
    for _ in range(6):
        sp = random_signature_space(rng)
        t0 = random_partial_contraction(rng, sp)
        interval = krein_interval(t0)
        m = interval.defect_dim
        xs = [0.5 * np.eye(m), np.zeros((m, m))]     # X = 0: T = T_mu, -1 in its spectrum
        sols = solve_x_equation(interval, seed=int(rng.integers(2 ** 31)))
        xs.extend(sols.projections)
        xs.extend(random_x(rng, m) for _ in range(4))
        for x in xs:
            choice = extension_from_x(interval, x)
            result = extremality_test(t0, choice)
            n_samples += 1
            spectral = oracles.spectral_cayley_defined(choice.t)
            if choice.cayley_certificate is None:
                n_fallback += 1
            elif choice.cayley_certificate != spectral:
                raise AssertionError(f"the Cayley certificate from X disagrees with eigvalsh(T)"
                                     f" (bounds {choice.cayley_bounds})")
            if result.cayley_defined != spectral:
                raise AssertionError("cayley_defined disagrees with eigvalsh(T)")
            rank = oracles.rank_extremality(t0, choice.t)
            if rank != (result.extremal if result.cayley_defined else None):
                raise AssertionError(
                    f"extremality routes disagree (projection {result.extremal}, rank {rank})")
            if density_test(t0, choice.t) != choice.extremal:
                raise AssertionError(
                    f"density on T disagrees with the projection verdict {choice.extremal}")
            if result.cayley_defined:
                n_checked += 1
                if result.extremal != (operator_norm(x @ x - x) <= STRUCT_TOL):
                    raise AssertionError("projection criterion mislabeled a sample")
    if n_checked == 0:
        raise AssertionError("no sample had a defined Cayley transform")
    return (f"projection and rank criteria agree on {n_checked} samples, density on all;"
            f" the Cayley certificate from X matches eigvalsh(T) on {n_samples - n_fallback}"
            f" of {n_samples} ({n_fallback} fallbacks)")


def _check_cayley_roundtrip(rng) -> str:
    worst = 0.0
    for _ in range(8):
        sp = random_signature_space(rng)
        t = random_anticommuting_contraction(rng, sp, norm_cap=0.95)
        g = GMetric.from_contraction(sp, t).g
        worst = max(worst, operator_norm(oracles.cayley_inverse(g) - t))
    if worst > ROUNDTRIP_TOL:
        raise AssertionError(f"Cayley roundtrip residual {worst:.3e}")
    try:
        GMetric.from_contraction(SignatureSpace(np.diag([1.0, -1.0])),
                                 np.array([[0.0, 1.0], [1.0, 0.0]]))
    except CayleyUndefinedError:
        pass
    else:
        raise AssertionError("GMetric accepted a contraction with -1 in the spectrum")
    return f"cayley_inverse(G) = T (residual {worst:.2e}); -1 rejected"


def _check_gmetric(rng) -> str:
    worst = 0.0
    for _ in range(5):
        sp = random_signature_space(rng)
        t = random_anticommuting_contraction(rng, sp, norm_cap=0.9)
        metric = GMetric.from_contraction(sp, t)
        res = oracles.metric_agreement(metric, int(rng.integers(2 ** 31)))
        worst = max(worst, res["inner_decomposition"] / max(1.0, metric.cond),
                    res["jg_vs_ambient"], res["xi_norm_identity"])
        # J G = G^{-1} J for anticommuting T, so J_G = J G is an involution
        # and G J_G = J; each residual grows with ||G||^2 = cond G.
        j_g = metric.j_g
        for residual in (sp.j @ metric.g - np.linalg.solve(metric.g, sp.j),
                         j_g @ j_g - np.eye(sp.dim), metric.g @ j_g - sp.j):
            worst = max(worst, operator_norm(residual) / metric.cond)
    if worst > ROUTE_TOL:
        raise AssertionError(f"metric agreement residual {worst:.3e}")
    zero = GMetric.from_contraction(
        random_signature_space(rng, 4),
        np.zeros((4, 4)))
    if zero.cond != 1.0 or zero.degenerate:
        raise AssertionError("T = 0 did not give the identity metric")
    return f"metric route agreements within {worst:.2e}; T = 0 gives G = I"


def _check_model_table(rng) -> str:
    expected_both = dict(zip((0.6, 0.8, 1.0, 1.1, 1.25, 1.5), "AAABBB"))
    expected_chi = dict(zip((0.6, 0.8, 1.0, 1.1, 1.25, 1.5), "AAACCC"))
    for delta, want in expected_both.items():
        got = classify_analytic(SequenceModelSpec(delta, "both_constraints"))
        if got != want:
            raise AssertionError(f"delta {delta} both: {got} != {want}")
    for delta, want in expected_chi.items():
        got = classify_analytic(SequenceModelSpec(delta, "chi_plus_zero"))
        if got != want:
            raise AssertionError(f"delta {delta} chi_plus_zero: {got} != {want}")
    for delta in (0.8, 1.25):
        for variant in ("both_constraints", "chi_plus_zero"):
            pred = defect_prediction(SequenceModelSpec(delta, variant))
            if pred.case != classify_analytic(SequenceModelSpec(delta, variant)):
                raise AssertionError("defect prediction disagrees with the classifier")
    return "12-entry classification table and defect predictions reproduced"


def _check_model_truncation_cases(rng) -> str:
    for variant, want in (("both_constraints", "B"), ("chi_plus_zero", "C")):
        spec = SequenceModelSpec(1.25, variant, 6)
        inst = build_model(spec)
        interval = krein_interval(inst.t0)
        got = classify_case(interval)
        if got != want:
            raise AssertionError(f"finite truncation of {variant}: case {got} != {want}")
    full = SequenceModelSpec(0.8, "both_constraints", 4)
    inst = build_model(full)
    t_all = PartialContraction(inst.space, np.eye(8), inst.t)
    if classify_case(krein_interval(t_all)) != "A":
        raise AssertionError("full-domain instance must be case A")
    return "finite truncations: both -> B, chi_plus_zero -> C, full domain -> A"


def _check_model_series(rng) -> str:
    worst = 0.0
    for delta in (0.8, 1.25):
        for variant in ("both_constraints", "chi_plus_zero"):
            spec = SequenceModelSpec(delta, variant, 64)
            for got, ref in zip(truncated_density_sweep(spec, exponents=(4, 6)),
                                oracles.dense_density_sweep(spec, (4, 6))):
                for value, want in ((got.preimage_norm_sq_matrix, ref.preimage_norm_sq_matrix),
                                    (got.sup_diagnostic, ref.sup_diagnostic)):
                    worst = max(worst, abs(value - want) / want)
                if got.domain_dense or ref.domain_dense:
                    raise AssertionError("proper truncated domain reported as dense")
    if worst > SWEEP_REL_TOL:
        raise AssertionError(f"structured/dense sweep values differ by {worst:.3e}")
    return f"||Xi^-1 chi||^2 and sup, structured vs dense, within {worst:.2e}"


def _check_model_divergence(rng) -> str:
    rep_div = xi_preimage_diagnostic(SequenceModelSpec(0.8, "both_constraints"), max_exponent=14)
    rep_marg = xi_preimage_diagnostic(SequenceModelSpec(1.0, "both_constraints"), max_exponent=14)
    rep_conv = xi_preimage_diagnostic(SequenceModelSpec(1.25, "both_constraints"), max_exponent=14)
    if rep_div.verdict != "diverges" or rep_div.marginal:
        raise AssertionError("delta = 0.8 must diverge cleanly")
    if rep_marg.verdict != "diverges" or not rep_marg.marginal:
        raise AssertionError("delta = 1.0 must be marginal-divergent")
    if rep_conv.verdict != "converges":
        raise AssertionError("delta = 1.25 must converge")
    return (f"growth exponents {rep_div.exponent_estimate:.3f} / "
            f"{rep_marg.exponent_estimate:.3f} (marginal) / {rep_conv.exponent_estimate:.3f}")


def _check_t_half(rng) -> str:
    t0 = t_half_problem()
    interval = krein_interval(t0)
    t_mu_ref = np.array([[0.0, 0.5], [0.5, -0.75]])
    t_m_ref = np.array([[0.0, 0.5], [0.5, 0.75]])
    if operator_norm(interval.t_mu - t_mu_ref) > WORKED_TOL:
        raise AssertionError("T_mu differs from the worked value")
    if operator_norm(interval.t_m - t_m_ref) > WORKED_TOL:
        raise AssertionError("T_M differs from the worked value")
    if interval.defect_dim != 1 or interval.signature != (0, 1):
        raise AssertionError("defect must be the negative line span{e2}")
    if classify_case(interval) != "C":
        raise AssertionError("worked instance must be case C")
    sols = solve_x_equation(interval)
    if sols.projection_exists or abs(sols.elementary[0, 0] - 0.5) > WORKED_X_TOL:
        raise AssertionError("unique anticommuting solution X = 1/2 expected")
    choice = extension_from_x(interval, sols.elementary)
    if not choice.anticommuting or choice.extremal:
        raise AssertionError("X = 1/2 must be anticommuting and non-extremal")
    if operator_norm(choice.t - np.array([[0.0, 0.5], [0.5, 0.0]])) > WORKED_TOL:
        raise AssertionError("realized extension differs from the worked value")
    if density_test(t0, choice.t):
        raise AssertionError("proper domain misreported as dense")
    return "worked 2x2 instance reproduced end-to-end"


def _check_quasibasis_hermite(rng) -> str:
    fam = shifted_family(0.4, 8)
    sigma, offdiag, ok = sign_pattern(fam)
    if not ok or np.any(sigma != fam.g_parities):
        raise AssertionError(f"sign pattern broken (offdiag {offdiag:.3e})")
    gram = metric_gram(fam)
    dev = operator_norm(gram - np.eye(fam.n_max + 1))
    if dev > GRAM_TOL:
        raise AssertionError(f"metric Gram deviates from I by {dev:.3e}")
    lam, residuals = eigen_residual(fam)
    if np.max(residuals) > HERMITE_RESIDUAL_TOL:
        raise AssertionError(f"eigen-residual {np.max(residuals):.3e}")
    bio = biorthogonal_gram(fam)
    if operator_norm(bio - np.eye(fam.n_max + 1)) > GRAM_TOL:
        raise AssertionError("biorthogonality failed")
    hg = h_gram_in_g(fam)
    if operator_norm(hg - np.diag(lam)) > H_GRAM_TOL:
        raise AssertionError("H is not diagonal in the metric Gram")
    target = fam.f[2] + 0.5j * fam.f[5]
    rep = expansion(fam, target)
    if rep.g_errors[-1] > EXPANSION_TOL or np.any(np.diff(rep.g_errors) > MONOTONE_SLACK):
        raise AssertionError("in-span expansion failed to converge monotonically")
    return (f"a = 0.4 family: Gram dev {offdiag:.1e}, metric Gram dev {dev:.1e}, "
            f"max eigen-residual {np.max(residuals):.1e}")


def _check_quasibasis_c_routes(rng) -> str:
    worst = 0.0
    fam = shifted_family(0.4, 8)
    coeff = rng.standard_normal(fam.n_max + 1) + 1j * rng.standard_normal(fam.n_max + 1)
    u = fam.f.T @ coeff
    worst = max(worst, float(np.max(np.abs(c_action(fam, u) - c_action_multiplier(fam, u)))))
    for n in (0, 3, 6):
        cu = c_action(fam, fam.f[n])
        worst = max(worst, float(np.max(np.abs(cu - fam.g_parities[n] * fam.f[n]))))
    afam = anharmonic_family(4.0, "tanh", n_max=5)
    coeff = rng.standard_normal(afam.n_max + 1) + 1j * rng.standard_normal(afam.n_max + 1)
    u = afam.f.T @ coeff
    worst = max(worst, float(np.max(np.abs(c_action(afam, u) - c_action_multiplier(afam, u)))))
    if worst > C_ROUTE_TOL:
        raise AssertionError(f"C-routes disagree by {worst:.3e}")
    return f"span and multiplier C-operator routes agree within {worst:.2e}"


def _check_quasibasis_anharmonic(rng) -> str:
    fam = anharmonic_family(4.0, "x_over_1px2", n_max=6)
    sigma, offdiag, ok = sign_pattern(fam)
    if not ok or np.any(sigma != fam.g_parities):
        raise AssertionError(f"indefinite Gram not diag(+/-1) (offdiag {offdiag:.3e})")
    wg = weighted_gram(fam)
    dev = operator_norm(wg - np.eye(fam.n_max + 1))
    if dev > WEIGHTED_GRAM_TOL:
        raise AssertionError(f"weighted Gram deviates from I by {dev:.3e}")
    lam, residuals = eigen_residual(fam)
    if np.max(residuals) > ANHARMONIC_RESIDUAL_TOL:
        raise AssertionError(f"conjugated-operator residual {np.max(residuals):.3e}")
    if np.max(fam.richardson_error) > RICHARDSON_TOL:
        raise AssertionError("eigenvalue discretization error too large")
    target = fam.f[1] - 2.0 * fam.f[4]
    rep = expansion(fam, target)
    if rep.g_errors[-1] > EXPANSION_TOL or np.any(np.diff(rep.g_errors) > MONOTONE_SLACK):
        raise AssertionError("in-span anharmonic expansion failed")
    # On a grid where the bisections take a few ms: the family against
    # n_max + 2 levels per parity; its levels on the grid's step against
    # bisection there, each eigenvalue within its certified radius (or equal
    # to bisection where the parity fell back to it) and each vector within
    # LEVELS_TOL; its refined step-halving eigenvalues against bisection,
    # each within its certified radius.
    grid = UniformGrid(8.0, 1024)
    counts = merged_counts(fam.n_max)
    levels = halfline_levels(4.0, grid, counts)
    if not merge_certified(4.0, grid, levels):
        raise AssertionError(f"the merge of {counts} (even, odd) levels is not certified")
    small = anharmonic_family(4.0, "x_over_1px2", n_max=fam.n_max, grid=grid)
    eigs, parities, _, g = oracles.full_range_levels(4.0, grid, fam.n_max)
    if np.any(small.g_parities != parities):
        raise AssertionError("parities differ from the full-range levels")
    g *= np.sign(np.sum(small.g * g, axis=1))[:, None]
    level_dev = max(float(np.max(np.abs(small.eigenvalues - eigs))),
                    float(np.max(np.abs(small.g - g))))
    if level_dev > LEVELS_TOL:
        raise AssertionError(f"levels deviate from the full-range levels by {level_dev:.3e}")
    grid_worst = vec_dev = worst = 0.0
    fell_back = 0
    for parity, count, (w, u, radii, fine, fine_radii) in zip(("even", "odd"), counts, levels):
        w_bisected, u_bisected = oracles.grid_step_bisection(4.0, grid, parity, count)
        gap = np.abs(w - w_bisected)
        if radii is None:
            fell_back += 1
            if np.any(gap > 0.0):
                raise AssertionError(f"{parity} fallback differs from bisection")
        else:
            grid_worst = max(grid_worst, float(np.max(gap / radii)))
        vec_dev = max(vec_dev, float(np.max(np.abs(u - u_bisected))))
        if fine_radii is None:
            raise AssertionError(f"{parity} step-halving eigenvalues fell back to bisection")
        gap = np.abs(fine - oracles.halved_step_bisection(4.0, grid, parity, count))
        worst = max(worst, float(np.max(gap / fine_radii)))
    if grid_worst > 1.0:
        raise AssertionError(f"grid-step eigenvalue {grid_worst:.2f} radii from bisection")
    if vec_dev > LEVELS_TOL:
        raise AssertionError(f"grid-step vectors deviate from bisection by {vec_dev:.3e}")
    if worst > 1.0:
        raise AssertionError(f"step-halving eigenvalue {worst:.2f} radii from bisection")
    return (f"beta = 4 family: Gram dev {offdiag:.1e}, weighted Gram dev {dev:.1e}, "
            f"max residual {np.max(residuals):.1e}, levels within {level_dev:.1e} of "
            f"n_max + 2 per parity, grid-step eigenvalues within {grid_worst:.2f} bracket "
            f"radii and vectors within {vec_dev:.1e} of bisection ({fell_back} of 2 "
            f"parities fell back), step-halving eigenvalues within {worst:.2f} bracket "
            f"radii of bisection")


def _float_edge_values() -> list[float]:
    """Floats whose 17-digit text is easy to get wrong: every power of ten
    with both neighbours, signed zeros, subnormals, integers 2**50..2**63
    +/- 4, the %g switches at 1e-5/1e-4 and 1e16/1e17, and exact ties."""
    values = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1234567890123456.75,
              1234567890123456.25, 1e-5, 1e-4, 1e16, 1e17]
    for p in range(-323, 309):
        v = float(f"1e{p}")
        values += [v, float(np.nextafter(v, 0.0)), -float(np.nextafter(v, np.inf))]
    values += [float(2 ** e + d) for e in range(50, 64) for d in range(-4, 5)]
    return values


def _check_serialize(rng) -> str:
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = matrix_from_obj(matrix_to_obj(m))
    if not np.array_equal(back, m):
        raise AssertionError("matrix JSON roundtrip is lossy")
    report = {"b": [1.0, float(np.pi)], "a": {"x": -0.0, "y": 3}, "s": "text"}
    first = dumps_report(report)
    second = dumps_report({"s": "text", "a": {"y": 3, "x": -0.0}, "b": [1.0, float(np.pi)]})
    if first != second:
        raise AssertionError("report serialization is order-sensitive")
    if f"{np.pi:.17g}" not in first:
        raise AssertionError("floats are not serialized at 17 significant digits")
    values = m.real.ravel().tolist()
    values[-1] = float("nan")
    try:
        dumps_report({"v": values})
    except ValueError:
        pass
    else:
        raise AssertionError("a NaN inside a float list was serialized")
    # A long float list takes the vectorized formatter; its text must be
    # "%.17g" of each value.
    bits = rng.integers(0, 2 ** 64, size=1024, dtype=np.uint64).view(np.float64)
    values = bits[np.isfinite(bits)].tolist() + _float_edge_values()
    texts = [format(v, ".17g") for v in values]
    expected = ", ".join(t if "." in t or "e" in t else t + ".0" for t in texts)
    if dumps_report({"v": values}) != '{"v": [' + expected + "]}\n":
        raise AssertionError("bulk float text differs from per-value %.17g")
    # A Hermitian matrix object formats the digits of its upper triangle once
    # and mirrors them; its text must be that of the same floats as lists.
    herm = matrix_to_obj(hermitize(rng.standard_normal((16, 16))
                                   + 1j * rng.standard_normal((16, 16))))
    as_lists = {**herm, "re": herm["re"].tolist(), "im": herm["im"].tolist()}
    if dumps_report(herm) != dumps_report(as_lists):
        raise AssertionError("mirrored text of a Hermitian matrix differs from its list text")
    return "serialization deterministic and lossless"


_CHECKS = {
    "angular.c0_involution": _check_angular_c0,
    "angular.duality": _check_angular_duality,
    "angular.roundtrip": _check_angular_roundtrip,
    "extensions.anticommute_equivalence": _check_anticommute_equivalence,
    "extensions.defect_is_domain_complement": _check_defect_complement,
    "extensions.endpoints_vs_completion": _check_endpoints_vs_completion,
    "extensions.extremality_routes": _check_extremality_routes,
    "extensions.t_half_instance": _check_t_half,
    "extensions.x_solutions": _check_x_solutions,
    "gmetric.cayley_roundtrip": _check_cayley_roundtrip,
    "gmetric.consistency": _check_gmetric,
    "model.classification_table": _check_model_table,
    "model.divergence_verdicts": _check_model_divergence,
    "model.finite_truncation_cases": _check_model_truncation_cases,
    "model.series_identity": _check_model_series,
    "quasibasis.anharmonic": _check_quasibasis_anharmonic,
    "quasibasis.c_routes": _check_quasibasis_c_routes,
    "quasibasis.hermite": _check_quasibasis_hermite,
    "serialize.determinism": _check_serialize,
    "spaces.projections": _check_spaces_projections,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _rng_for(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def thread_cap(requested: int | None = None) -> int:
    if requested is not None and requested > 0:
        return requested
    env = os.environ.get("KREIN_LAB_THREADS", "")
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value > 0:
        return value
    return min(4, os.cpu_count() or 1)


def _run_one(name: str, seed: int) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = _CHECKS[name](_rng_for(seed, name))
        return CheckResult(name, True, detail, time.perf_counter() - start)
    except Exception as exc:  # noqa: BLE001 - any failure fails the check
        detail = f"{type(exc).__name__}: {exc}"
        return CheckResult(name, False, detail, time.perf_counter() - start)


def run_verification(seed: int = 0, threads: int | None = None) -> list[CheckResult]:
    """Run every registered check; results sorted by name, independent of
    the thread count."""
    names = sorted(_CHECKS)
    workers = thread_cap(threads)
    if workers <= 1:
        return [_run_one(name, seed) for name in names]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {name: pool.submit(_run_one, name, seed) for name in names}
        return [futures[name].result() for name in names]


def verification_report(results: list[CheckResult], seed: int) -> dict:
    """JSON-ready summary (timings excluded: reports must be seed-deterministic)."""
    return {
        "seed": seed,
        "passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
