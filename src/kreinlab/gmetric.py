"""Metric-operator geometry of an anticommuting self-adjoint contraction.

G = (I - T)(I + T)^{-1} induces the positive product (f, g)_G = (Gf, g); the
images L_+/- = (I + T) H_+/- are G-orthogonal and define the symmetry
J_G = (I + T) J (I + T)^{-1} = J G, since J T J = -T gives (I + T) J =
J (I - T).  As J G J = G^{-1}, J_G^2 = I and G J_G = J hold up to the
anticommutation residual; `verify` measures them relative to cond G.  The
indefinite products agree: [f, g]_G = (G J_G f, g) = [f, g].  g_inner and
jg_product take one route each; the second routes (the split along L_+/-,
Xi = sqrt(I - T^2) and the ambient [f, g]) are `kreinlab.oracles`'s
metric_agreement.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    CONTRACTION_SLACK,
    STRUCT_TOL,
    as_matrix,
    cayley_spectrum,
    check_residual,
    from_spectrum,
    hermitize,
    inner,
    is_self_adjoint,
)
from .errors import InvariantViolation
from .spaces import SignatureSpace

# Relative eigenvalue threshold below which G is flagged degenerate.
KERNEL_RCOND = 1e-12


@dataclass
class GMetric:
    space: SignatureSpace
    t: np.ndarray
    g: np.ndarray
    j_g: np.ndarray
    degenerate: bool
    kernel: np.ndarray = field(repr=False)   # orthonormal basis of ker G
    cond: float = float("inf")

    @classmethod
    def from_contraction(cls, space: SignatureSpace, t) -> "GMetric":
        t = as_matrix(t)
        if not is_self_adjoint(t):
            raise InvariantViolation("T must be self-adjoint")
        t = hermitize(t)
        w, v = np.linalg.eigh(t)
        # ||T||_2 = max |w| for the Hermitian T: no SVD for the contraction check
        if not np.abs(w).max(initial=0.0) <= 1.0 + CONTRACTION_SLACK:
            raise InvariantViolation("T must be a contraction")
        check_residual("T must anticommute with J", space.j @ t + t @ space.j, STRUCT_TOL)
        g_values = cayley_spectrum(w)  # raises CayleyUndefinedError when -1 in spec(T)
        g = from_spectrum(v, g_values)
        j_g = space.j @ g
        top = float(g_values.max())
        kernel_mask = g_values <= KERNEL_RCOND * max(top, 1.0)
        degenerate = bool(kernel_mask.any())
        kernel = v[:, kernel_mask]
        cond = float("inf") if degenerate else float(top / g_values.min())
        return cls(space, t, g, j_g, degenerate, kernel, cond)

    def _measurable(self, *vectors) -> list[np.ndarray]:
        """The vectors as complex arrays, refused when they have components
        along ker G, which a degenerate metric cannot measure."""
        out = [np.asarray(v, dtype=complex) for v in vectors]
        if self.degenerate and self.kernel.shape[1]:
            for f in out:
                overlap = np.linalg.norm(self.kernel.conj().T @ f)
                if overlap > STRUCT_TOL * max(1.0, np.linalg.norm(f)):
                    raise ValueError("vector has components along ker(G); the "
                                     "degenerate metric cannot measure them")
        return out


def g_inner(metric: GMetric, f, g) -> complex:
    """(f, g)_G = (Gf, g)."""
    f, g = metric._measurable(f, g)
    return inner(metric.g @ f, g)


def jg_product(metric: GMetric, f, g) -> complex:
    """[f, g]_G = (J_G f, g)_G = (G J_G f, g), which equals the ambient [f, g]."""
    f, g = metric._measurable(f, g)
    return inner(metric.g @ (metric.j_g @ f), g)


def energetic_norm(metric: GMetric, f) -> float:
    """sqrt(||f||^2 + (Gf, f))."""
    f = np.asarray(f, dtype=complex)
    gff = np.real(inner(metric.g @ f, f))
    return float(np.sqrt(np.real(np.vdot(f, f)) + max(gff, 0.0)))


def metric_report(metric: GMetric) -> dict:
    """The condition number of G and whether it is degenerate."""
    return {"cond_G": metric.cond, "degenerate": metric.degenerate}
