"""Independent n x n routes to quantities that production decides another
way.  Only the verification suite (`verify`) and the tests call them.

Endpoints: for any anticommuting self-adjoint contractive extension T of T0,

    T_mu = T - sqrt(I+T) Q_1 sqrt(I+T),   T_M = T + sqrt(I-T) Q_2 sqrt(I-T),

with Q_1/Q_2 the projections onto the orthogonal complements of
sqrt(I+T) D(T0) and sqrt(I-T) D(T0); unlike `extensions.krein_interval`,
no block completion is involved (the default seed is the midpoint of that
interval, and the endpoints do not depend on the seed).  Extremality: the
metric-rank criterion, where `extensions.extremality_test` asks whether X
is a projection.  Cayley transform defined: eigvalsh(T), where
`extremality_test` reads the Cayley bounds of X and takes eigvalsh(T) only
when they straddle the threshold.
Sequence-model sweep: the n x n truncation (Xi from the eigenpairs of T,
the preimage by least squares, `density_test` and `uniqueness_sup`), where
`sequence_model.truncated_density_sweep` reads the block structure.
Anharmonic levels: bisection of the whole half-line problem on the grid's
step, where `quasibasis.halfline_levels` bisects a 2**COARSENING times
coarser copy and refines the prolonged eigenvectors; bisection on the halved
step, where it refines the grid's eigenpairs there; and n_max + 2 levels per
parity before the merge, where `quasibasis.anharmonic_family` solves only
the levels the merge keeps.
Cayley inverse: T = (I - G)(I + G)^{-1} from the eigenpairs of G, where
`GMetric.from_contraction` builds G from those of T.
Metric products: (f, g)_G as [f_+, g_+] - [f_-, g_-] over the split of f
and g along L_+/- = (I + T) H_+/-, the G-norm of (I + T) x as ||Xi x|| with
Xi = sqrt(I - T^2) from its own eigh of T, and [f, g]_G as the ambient
[f, g], where `gmetric.g_inner` and `gmetric.jg_product` read G and J_G.
"""
from __future__ import annotations

import numpy as np

from ._linalg import (CONTRACTION_SLACK, STRUCT_TOL, as_matrix, cayley_spectrum,
                      check_residual, from_spectrum, hermitize, orthonormal_columns)
from .errors import CayleyUndefinedError, InvariantViolation
from .extensions import density_test, krein_interval
from .gmetric import GMetric, g_inner, jg_product
from .quasibasis import _full_line, _halfline_tridiagonal, merge_levels
from .sequence_model import SequenceModelSpec, TruncationSample, build_model, series_terms
from .spaces import fundamental_projections, indefinite_product

# Random probe pairs on which metric_agreement measures route agreement.
AGREEMENT_PROBES = 8
# Eigenvalues of nominally-PSD matrices in [-PSD_CLAMP, 0) are clamped to 0.
PSD_CLAMP = 1e-12


def psd_clamp(w: np.ndarray) -> np.ndarray:
    """Eigenvalues of a nominally PSD matrix, those in [-PSD_CLAMP max(1, largest), 0)
    set to 0; anything more negative means it was not PSD and is an error."""
    low = float(w.min(initial=0.0))
    if low < -PSD_CLAMP * max(1.0, float(w.max(initial=0.0))):
        raise InvariantViolation(f"matrix is not PSD (min eigenvalue {low:.3e})")
    return np.clip(w, 0.0, None)


def sqrt_projection_endpoints(t0, seed=None):
    """(t_mu, t_m) ambient endpoint extensions via square-root corrections.

    seed may supply any anticommuting self-adjoint contractive extension of
    T0; the default is the midpoint (T_mu + T_M)/2 of `krein_interval`,
    which anticommutes because J T_mu J = -T_M.  Either seed must pass the
    same three checks.
    """
    space = t0.space
    if seed is None:
        interval = krein_interval(t0)
        seed = 0.5 * (interval.t_mu + interval.t_m)
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


def xi_operator(t) -> np.ndarray:
    """Xi = sqrt(I - T^2) of a Hermitian contraction T, from eigh(T)."""
    w, v = np.linalg.eigh(t)
    return from_spectrum(v, np.sqrt(psd_clamp(1.0 - w * w)))


def decompose(metric: GMetric, f) -> tuple[np.ndarray, np.ndarray]:
    """Split f, a vector or an (n, k) stack of columns, along
    (I + T) H_+ (+) (I + T) H_-, with one solve for the whole stack.  The
    products are taken column by column, so each column has the bits of
    its own split."""
    f = np.asarray(f, dtype=complex)
    eye_plus_t = np.eye(metric.space.dim) + metric.t
    x = np.linalg.solve(eye_plus_t, f.reshape(metric.space.dim, -1))
    p_plus, p_minus = fundamental_projections(metric.space)
    plus = np.array([eye_plus_t @ (p_plus @ c) for c in x.T]).T
    minus = np.array([eye_plus_t @ (p_minus @ c) for c in x.T]).T
    return (plus, minus) if f.ndim == 2 else (plus[:, 0], minus[:, 0])


def split_inner(metric: GMetric, f, g) -> complex:
    """[f_+, g_+] - [f_-, g_-] over one `decompose` of [f, g]: the second
    route to (f, g)_G."""
    return split_inners(metric, np.column_stack([f, g]))[0]


def split_inners(metric: GMetric, probes) -> list[complex]:
    """`split_inner` of each column pair (f_i, g_i) = (probes[:, 2i],
    probes[:, 2i + 1]) of an (n, 2k) stack, over one `decompose`."""
    plus, minus = decompose(metric, probes)
    return [indefinite_product(metric.space, plus[:, i], plus[:, i + 1])
            - indefinite_product(metric.space, minus[:, i], minus[:, i + 1])
            for i in range(0, plus.shape[1], 2)]


def xi_norm_identity_residual(metric: GMetric, x) -> float:
    """The largest | ||(I+T)x||_G - ||Xi x|| | over x, a vector or an (n, k)
    stack of columns: the G-norm of f = (I+T)x equals ||Xi x||."""
    x = np.asarray(x, dtype=complex).reshape(metric.space.dim, -1)
    f = (np.eye(metric.space.dim) + metric.t) @ x
    lhs = np.sqrt(np.clip(np.real(np.sum(f.conj() * (metric.g @ f), axis=0)), 0.0, None))
    rhs = np.linalg.norm(xi_operator(metric.t) @ x, axis=0)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def metric_agreement(metric: GMetric, seed: int) -> dict:
    """The largest disagreement of each second route on AGREEMENT_PROBES
    random pairs (f, g), drawn from seed and projected off ker G: g_inner
    against split_inners, jg_product against the ambient [f, g], and
    xi_norm_identity_residual on the f."""
    rng = np.random.default_rng(seed)
    n = metric.space.dim
    probes = np.column_stack([rng.standard_normal(n) + 1j * rng.standard_normal(n)
                              for _ in range(2 * AGREEMENT_PROBES)])   # f_1, g_1, f_2, ...
    if metric.degenerate and metric.kernel.shape[1]:
        probes = probes - metric.kernel @ (metric.kernel.conj().T @ probes)
    pairs = [(probes[:, i], probes[:, i + 1]) for i in range(0, probes.shape[1], 2)]
    split = split_inners(metric, probes)
    return {
        "inner_decomposition": max(abs(g_inner(metric, f, g) - s)
                                   for (f, g), s in zip(pairs, split)),
        "jg_vs_ambient": max(abs(jg_product(metric, f, g) - indefinite_product(metric.space, f, g))
                             for f, g in pairs),
        "xi_norm_identity": xi_norm_identity_residual(metric, probes[:, ::2]),
    }


def dense_density_sweep(spec, exponents) -> list[TruncationSample]:
    """`truncated_density_sweep` on the built 2N x 2N model at each N = 2^e."""
    out = []
    for e in exponents:
        n = 2 ** e
        sub = SequenceModelSpec(spec.delta, spec.variant, n)
        inst = build_model(sub)
        chi = inst.chi_minus
        pre, *_ = np.linalg.lstsq(xi_operator(inst.t), chi, rcond=None)
        norm_sq_matrix = float(np.real(np.vdot(pre, pre)))
        coeff_norm_sq = float(np.sum(np.arange(1, n + 1, dtype=float) ** (-2 * sub.delta)))
        norm_sq_series = float(np.sum(series_terms(sub.delta, n))) / coeff_norm_sq
        dense = density_test(inst.t0, inst.t)
        sup = uniqueness_sup(inst.t0, chi)
        out.append(TruncationSample(n, norm_sq_matrix, norm_sq_series, dense, sup))
    return out


def grid_step_bisection(beta: float, grid, parity: str, count: int):
    """(eigenvalues, half-line samples) of the lowest `count` levels of the
    half-line operator of `parity` on the step of `grid`, by bisection of the
    whole tridiagonal, signed and normalized as `quasibasis._halfline_eigs`
    signs and normalizes its own."""
    # Deferred, as in quasibasis: the CLI imports this module through verify.
    from scipy.linalg import eigh_tridiagonal

    h = grid.step
    v_half = np.abs(h * np.arange(grid.nodes // 2)) ** beta
    w, vec = eigh_tridiagonal(*_halfline_tridiagonal(v_half, h, parity),
                              select="i", select_range=(0, count - 1))
    return w, _full_line(vec, h, parity)


def halved_step_bisection(beta: float, grid, parity: str, count: int) -> np.ndarray:
    """The lowest `count` eigenvalues of the half-line operator of `parity`
    on the halved step of `grid`, by bisection of the whole tridiagonal."""
    # Deferred, as in grid_step_bisection.
    from scipy.linalg import eigh_tridiagonal

    h = 0.5 * grid.step
    v_half2 = np.abs(h * np.arange(grid.nodes)) ** beta
    return eigh_tridiagonal(*_halfline_tridiagonal(v_half2, h, parity), eigvals_only=True,
                            select="i", select_range=(0, count - 1))


def full_range_levels(beta: float, grid, n_max: int):
    """(eigenvalues, parities, Richardson errors, g rows) of the anharmonic
    family from n_max + 2 levels per parity, each bisected on the grid's
    step and on its halved step, merged as the family merges."""
    levels = []
    for parity in ("even", "odd"):
        w, u = grid_step_bisection(beta, grid, parity, n_max + 2)
        levels.append((w, u, None, halved_step_bisection(beta, grid, parity, n_max + 2), None))
    return merge_levels(levels, n_max)
