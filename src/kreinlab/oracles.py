"""Independent n x n routes to quantities that production decides another
way.  Only the verification suite (`verify`) and the tests call them.

Endpoints: for any anticommuting self-adjoint contractive extension T of T0,

    T_mu = T - sqrt(I+T) Q_1 sqrt(I+T),   T_M = T + sqrt(I-T) Q_2 sqrt(I-T),

with Q_1/Q_2 the projections onto the orthogonal complements of
sqrt(I+T) D(T0) and sqrt(I-T) D(T0); unlike `extensions.krein_interval`,
no block completion is involved.  Extremality: the metric-rank criterion,
where `extensions.extremality_test` asks whether X is a projection.
"""
from __future__ import annotations

import numpy as np

from ._linalg import (CONTRACTION_SLACK, STRUCT_TOL, as_matrix, cayley_spectrum,
                      check_residual, from_spectrum, hermitize, orthonormal_columns,
                      psd_clamp)
from .errors import CayleyUndefinedError, InvariantViolation
from .extensions import any_sa_extension, j_symmetrize


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
