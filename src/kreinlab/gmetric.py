"""Metric-operator geometry of an anticommuting self-adjoint contraction.

G = (I - T)(I + T)^{-1} induces the positive product (f, g)_G = (Gf, g); the
images L_+/- = (I + T) H_+/- are G-orthogonal and define the symmetry
J_G = (I + T) J (I + T)^{-1}.  The indefinite products agree: [f, g]_G =
(G J_G f, g) = [f, g].  g_inner and jg_product take one route each;
metric_report measures them against GMetric.split_inner and the ambient
[f, g].
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    CONTRACTION_SLACK,
    RESULT_TOL,
    STRUCT_TOL,
    as_matrix,
    cayley_spectrum,
    check_residual,
    from_spectrum,
    hermitize,
    inner,
    psd_clamp,
)
from .spaces import SignatureSpace, fundamental_projections, indefinite_product

# Relative eigenvalue threshold below which G is flagged degenerate.
KERNEL_RCOND = 1e-12
# Random probe pairs on which metric_report measures route agreement.
REPORT_PROBES = 8


@dataclass
class GMetric:
    space: SignatureSpace
    t: np.ndarray
    g: np.ndarray
    xi: np.ndarray                      # sqrt(I - T^2)
    j_g: np.ndarray
    degenerate: bool
    kernel: np.ndarray = field(repr=False)   # orthonormal basis of ker G
    cond: float = float("inf")

    @classmethod
    def from_contraction(cls, space: SignatureSpace, t) -> "GMetric":
        t = hermitize(as_matrix(t))
        check_residual("T must be a contraction", t, 1.0 + CONTRACTION_SLACK)
        check_residual("T must anticommute with J", space.j @ t + t @ space.j, STRUCT_TOL)
        w, v = np.linalg.eigh(t)
        g_values = cayley_spectrum(w)  # raises CayleyUndefinedError when -1 in spec(T)
        g = from_spectrum(v, g_values)
        xi = from_spectrum(v, np.sqrt(psd_clamp(1.0 - w * w)))
        n = space.dim
        eye_plus_t = np.eye(n) + t
        j_g = eye_plus_t @ space.j @ np.linalg.inv(eye_plus_t)
        top = float(g_values.max())
        kernel_mask = g_values <= KERNEL_RCOND * max(top, 1.0)
        degenerate = bool(kernel_mask.any())
        kernel = v[:, kernel_mask]
        cond = float("inf") if degenerate else float(top / g_values.min())
        m = cls(space, t, g, xi, j_g, degenerate, kernel, cond)
        # J_G is an involution and G J_G = J (the two indefinite products agree).
        check_residual("J_G failed to be an involution", j_g @ j_g - np.eye(n), RESULT_TOL)
        check_residual("G J_G != J: metric products disagree", g @ j_g - space.j, RESULT_TOL)
        return m

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

    def decompose(self, f) -> tuple[np.ndarray, np.ndarray]:
        """Split f along (I + T) H_+ (+) (I + T) H_-."""
        eye_plus_t = np.eye(self.space.dim) + self.t
        x = np.linalg.solve(eye_plus_t, np.asarray(f, dtype=complex))
        p_plus, p_minus = fundamental_projections(self.space)
        return eye_plus_t @ (p_plus @ x), eye_plus_t @ (p_minus @ x)

    def split_inner(self, f, g) -> complex:
        """[f_+, g_+] - [f_-, g_-] over `decompose`: the second route to (f, g)_G."""
        (fp, fm), (gp, gm) = self.decompose(f), self.decompose(g)
        return indefinite_product(self.space, fp, gp) - indefinite_product(self.space, fm, gm)


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


def xi_norm_identity_residual(metric: GMetric, x) -> float:
    """| ||(I+T)x||_G - ||Xi x|| | — the G-norm of f = (I+T)x equals ||Xi x||."""
    x = np.asarray(x, dtype=complex)
    f = (np.eye(metric.space.dim) + metric.t) @ x
    lhs = np.sqrt(max(np.real(inner(metric.g @ f, f)), 0.0))
    rhs = np.linalg.norm(metric.xi @ x)
    return float(abs(lhs - rhs))


def metric_report(metric: GMetric, seed: int = 0) -> dict:
    """Distortion and route-agreement residuals on random probe vectors."""
    rng = np.random.default_rng(seed)
    n = metric.space.dim
    max_inner = 0.0
    max_jg = 0.0
    max_xi = 0.0
    for _ in range(REPORT_PROBES):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if metric.degenerate and metric.kernel.shape[1]:
            f = f - metric.kernel @ (metric.kernel.conj().T @ f)
            g = g - metric.kernel @ (metric.kernel.conj().T @ g)
        max_inner = max(max_inner, abs(g_inner(metric, f, g) - metric.split_inner(f, g)))
        max_jg = max(max_jg, abs(jg_product(metric, f, g)
                                 - indefinite_product(metric.space, f, g)))
        max_xi = max(max_xi, xi_norm_identity_residual(metric, f))
    return {
        "cond_G": metric.cond,
        "degenerate": metric.degenerate,
        "agreement_residuals": {
            "inner_decomposition": max_inner,
            "jg_vs_ambient": max_jg,
            "xi_norm_identity": max_xi,
        },
    }
