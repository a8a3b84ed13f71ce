"""Independent n x n routes to quantities that production decides another
way.  Only the verification suite (`verify`) and the tests call them.

Endpoints: for any anticommuting self-adjoint contractive extension T of T0,

    T_mu = T - sqrt(I+T) Q_1 sqrt(I+T),   T_M = T + sqrt(I-T) Q_2 sqrt(I-T),

with Q_1/Q_2 the projections onto the orthogonal complements of
sqrt(I+T) D(T0) and sqrt(I-T) D(T0); unlike `extensions.krein_interval`,
no block completion is involved.  Extremality: the metric-rank criterion,
where `extensions.extremality_test` asks whether X is a projection.  Cayley
transform defined: eigvalsh(T), where `extremality_test` reads the Cayley
bounds of X and takes eigvalsh(T) only when they straddle the threshold.
Sequence-model sweep: the n x n truncation (Xi from the eigenpairs of T,
the preimage by least squares, `density_test` and `uniqueness_sup`), where
`sequence_model.truncated_density_sweep` reads the block structure.
Step-halving eigenvalues: bisection on the halved step, where
`quasibasis.halfline_levels` refines the coarse eigenpairs.  Anharmonic
levels: n_max + 2 per parity before the merge, where
`quasibasis.anharmonic_family` solves only the levels the merge keeps.
Cayley inverse: T = (I - G)(I + G)^{-1} from the eigenpairs of G, where
`GMetric.from_contraction` builds G from those of T.
"""
from __future__ import annotations

import numpy as np

from ._linalg import (CONTRACTION_SLACK, STRUCT_TOL, as_matrix, cayley_spectrum,
                      check_residual, from_spectrum, hermitize, orthonormal_columns,
                      psd_clamp)
from .errors import CayleyUndefinedError, InvariantViolation
from .extensions import any_sa_extension, density_test, j_symmetrize
from .quasibasis import _halfline_tridiagonal, halfline_levels, merge_levels
from .sequence_model import SequenceModelSpec, TruncationSample, build_model, series_terms


def sqrt_projection_endpoints(t0, seed=None):
    """(t_mu, t_m) ambient endpoint extensions via square-root corrections.

    seed may supply any anticommuting self-adjoint contractive extension of
    T0; the default is the J-symmetrized interval midpoint.
    """
    space = t0.space
    if seed is None:
        t = j_symmetrize(space, any_sa_extension(t0), t0)
    else:
        t = hermitize(as_matrix(seed))
        check_residual("seed extension must anticommute with J",
                       space.j @ t + t @ space.j, STRUCT_TOL)
        check_residual("seed does not extend T0", t @ t0.domain - t0.action, STRUCT_TOL)
        check_residual("seed extension is not a contraction", t, 1.0 + CONTRACTION_SLACK)
    eye = np.eye(space.dim)
    corrections = []
    for w, v in (np.linalg.eigh(hermitize(eye + t)), np.linalg.eigh(hermitize(eye - t))):
        s = from_spectrum(v, np.sqrt(psd_clamp(w)))      # sqrt(I + T), sqrt(I - T)
        u = orthonormal_columns(s @ t0.domain)
        corrections.append(hermitize(s @ (eye - u @ u.conj().T) @ s))
    return hermitize(t - corrections[0]), hermitize(t + corrections[1])


def spectral_cayley_defined(t) -> bool:
    """Whether -1 is outside the spectrum of T, 1 + lambda_min(T) >=
    STRUCT_TOL, from eigvalsh(T)."""
    try:
        cayley_spectrum(np.linalg.eigvalsh(hermitize(as_matrix(t))))
    except CayleyUndefinedError:
        return False
    return True


def rank_extremality(t0, t) -> bool | None:
    """Extremality of an extension T of T0 by the metric-rank criterion:
    rank G^{1/2} (I + T) D(T0) = rank G, with G and G^{1/2} read from the
    eigenpairs of T.  None when -1 is in the spectrum of T, so that G is
    undefined.
    """
    t = as_matrix(t)
    w, v = np.linalg.eigh(hermitize(t))
    try:
        g = cayley_spectrum(w)
    except CayleyUndefinedError:
        return None
    top = float(g.max())
    rank_g = int(np.sum(g > STRUCT_TOL * top)) if top > 0.0 else 0
    f = (np.eye(t0.space.dim) + t) @ t0.domain
    fu = orthonormal_columns(f)
    if fu.shape[1] != f.shape[1]:
        raise InvariantViolation("(I + T) lost rank on the domain despite Cayley existing")
    if fu.shape[1] == 0 or top <= 0.0:
        rank_gf = 0
    else:
        # G^{1/2} fu in the eigenbasis of T, which leaves its singular values.
        gh_fu = np.sqrt(psd_clamp(g))[:, None] * (v.conj().T @ fu)
        s = np.linalg.svd(gh_fu, compute_uv=False)
        rank_gf = int(np.sum(s * s > STRUCT_TOL * top))
    return rank_gf == rank_g


def cayley_inverse(g) -> np.ndarray:
    """T = (I - G)(I + G)^{-1} of a PSD matrix G; inverse of the Cayley
    transform G = (I - T)(I + T)^{-1}."""
    g = hermitize(as_matrix(g))
    w, v = np.linalg.eigh(g)
    if w[0] < -STRUCT_TOL:
        raise InvariantViolation("metric operator must be positive semidefinite")
    w = np.clip(w, 0.0, None)
    return from_spectrum(v, (1.0 - w) / (1.0 + w))


def uniqueness_sup(t0, g) -> float:
    """sup over the domain of |(T0 x, g)|^2 / (||x||^2 - ||T0 x||^2).

    Finite-truncation diagnostic only: the sup is always finite for a
    strong contraction on a finite-dimensional domain, so it can only be
    read as a trend across truncations, never as a rigidity verdict.
    """
    g = np.asarray(g, dtype=complex)
    a = t0.action
    if a.shape[1] == 0:
        return 0.0
    s = hermitize(a.conj().T @ a)
    w, v = np.linalg.eigh(s)
    if np.max(w) >= 1.0:
        raise InvariantViolation("strong contraction required")
    inv_half = (v / np.sqrt(1.0 - w)) @ v.conj().T
    vec = inv_half @ (a.conj().T @ g)
    return float(np.real(np.vdot(vec, vec)))


def dense_density_sweep(spec, exponents) -> list[TruncationSample]:
    """`truncated_density_sweep` on the built 2N x 2N model at each N = 2^e."""
    out = []
    for e in exponents:
        n = 2 ** e
        sub = SequenceModelSpec(spec.delta, spec.variant, n)
        inst = build_model(sub)
        chi = inst.chi_minus
        w, v = np.linalg.eigh(inst.t)
        xi = from_spectrum(v, np.sqrt(psd_clamp(1.0 - w * w)))
        pre, *_ = np.linalg.lstsq(xi, chi, rcond=None)
        norm_sq_matrix = float(np.real(np.vdot(pre, pre)))
        coeff_norm_sq = float(np.sum(np.arange(1, n + 1, dtype=float) ** (-2 * sub.delta)))
        norm_sq_series = float(np.sum(series_terms(sub.delta, n))) / coeff_norm_sq
        dense = density_test(inst.t0, inst.t)
        sup = uniqueness_sup(inst.t0, chi)
        out.append(TruncationSample(n, norm_sq_matrix, norm_sq_series, dense, sup))
    return out


def halved_step_bisection(beta: float, grid, parity: str, count: int) -> np.ndarray:
    """The lowest `count` eigenvalues of the half-line operator of `parity`
    on the halved step of `grid`, by bisection of the whole tridiagonal."""
    # Deferred, as in quasibasis: the CLI imports this module through verify.
    from scipy.linalg import eigh_tridiagonal

    h = 0.5 * grid.step
    v_half2 = np.abs(h * np.arange(grid.nodes)) ** beta
    return eigh_tridiagonal(*_halfline_tridiagonal(v_half2, h, parity), eigvals_only=True,
                            select="i", select_range=(0, count - 1))


def full_range_levels(beta: float, grid, n_max: int):
    """(eigenvalues, parities, Richardson errors, g rows) of the anharmonic
    family from n_max + 2 levels per parity, merged as the family merges."""
    return merge_levels(halfline_levels(beta, grid, (n_max + 2, n_max + 2)), n_max)
