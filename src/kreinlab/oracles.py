"""Independent square-root/projection route for the extension interval.

For any anticommuting self-adjoint contractive extension T of T0,

    T_mu = T - sqrt(I+T) Q_1 sqrt(I+T),   T_M = T + sqrt(I-T) Q_2 sqrt(I-T),

with Q_1/Q_2 the projections onto the orthogonal complements of
sqrt(I+T) D(T0) and sqrt(I-T) D(T0).  The endpoints do not depend on T, so
this route shares no endpoint algebra with the block completion in
``extensions.krein_interval``; tests and the verification suite compare
the two against each other.
"""
from __future__ import annotations

import numpy as np

from ._linalg import (CONTRACTION_SLACK, STRUCT_TOL, as_matrix, hermitize,
                      operator_norm, orthonormal_columns, psd_sqrt)
from .errors import InvariantViolation
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
        if operator_norm(space.j @ t + t @ space.j) > STRUCT_TOL:
            raise InvariantViolation("seed extension must anticommute with J")
        if operator_norm(t @ t0.domain - t0.action) > STRUCT_TOL:
            raise InvariantViolation("seed does not extend T0")
        if operator_norm(t) > 1.0 + CONTRACTION_SLACK:
            raise InvariantViolation("seed extension is not a contraction")
    eye = np.eye(space.dim)
    corrections = []
    for s in (psd_sqrt(eye + t), psd_sqrt(eye - t)):
        u = orthonormal_columns(s @ t0.domain)
        corrections.append(hermitize(s @ (eye - u @ u.conj().T) @ s))
    return hermitize(t - corrections[0]), hermitize(t + corrections[1])
