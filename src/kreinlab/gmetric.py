"""Metric-operator geometry of an anticommuting self-adjoint contraction.

G = (I - T)(I + T)^{-1} induces the positive product (f, g)_G = (Gf, g); the
images L_+/- = (I + T) H_+/- are G-orthogonal and define the symmetry
J_G = (I + T) J (I + T)^{-1}.  The indefinite products agree: [f, g]_G =
(G J_G f, g) = [f, g].
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    CONTRACTION_SLACK,
    RESULT_TOL,
    STRUCT_TOL,
    as_matrix,
    hermitize,
    inner,
    operator_norm,
    psd_sqrt,
)
from .errors import InvariantViolation
from .extensions import cayley
from .spaces import SignatureSpace

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
        if operator_norm(t) > 1.0 + CONTRACTION_SLACK:
            raise InvariantViolation("T must be a contraction")
        if operator_norm(space.j @ t + t @ space.j) > STRUCT_TOL:
            raise InvariantViolation("T must anticommute with J")
        g = cayley(t)  # raises CayleyUndefinedError when -1 in spec(T)
        n = space.dim
        xi = psd_sqrt(hermitize(np.eye(n) - t @ t))
        eye_plus_t = np.eye(n) + t
        j_g = eye_plus_t @ space.j @ np.linalg.inv(eye_plus_t)
        w, v = np.linalg.eigh(g)
        top = float(w[-1])
        kernel_mask = w <= KERNEL_RCOND * max(top, 1.0)
        degenerate = bool(kernel_mask.any())
        kernel = v[:, kernel_mask]
        cond = float("inf") if degenerate else float(top / w[0])
        m = cls(space, t, g, xi, j_g, degenerate, kernel, cond)
        # J_G is an involution and G J_G = J (the two indefinite products agree).
        if operator_norm(j_g @ j_g - np.eye(n)) > RESULT_TOL:
            raise InvariantViolation("J_G failed to be an involution")
        if operator_norm(g @ j_g - space.j) > RESULT_TOL:
            raise InvariantViolation("G J_G != J: metric products disagree")
        return m

    def _reject_kernel(self, f: np.ndarray) -> None:
        if self.degenerate and self.kernel.shape[1]:
            overlap = np.linalg.norm(self.kernel.conj().T @ f)
            if overlap > STRUCT_TOL * max(1.0, np.linalg.norm(f)):
                raise ValueError(
                    "vector has components along ker(G); the degenerate "
                    "metric cannot measure them"
                )

    def decompose(self, f) -> tuple[np.ndarray, np.ndarray]:
        """Split f along (I + T) H_+ (+) (I + T) H_-."""
        f = np.asarray(f, dtype=complex)
        x = np.linalg.solve(np.eye(self.space.dim) + self.t, f)
        eye_plus_t = np.eye(self.space.dim) + self.t
        return eye_plus_t @ (self.space.p_plus @ x), eye_plus_t @ (self.space.p_minus @ x)


def _inner_routes(metric: GMetric, f: np.ndarray, g: np.ndarray) -> tuple[complex, complex]:
    """(f, g)_G as (Gf, g) and as [f_+, g_+] - [f_-, g_-]."""
    fp, fm = metric.decompose(f)
    gp, gm = metric.decompose(g)
    j = metric.space.j
    return inner(metric.g @ f, g), inner(j @ fp, gp) - inner(j @ fm, gm)


def _jg_routes(metric: GMetric, f: np.ndarray, g: np.ndarray) -> tuple[complex, complex]:
    """[f, g]_G as (G J_G f, g) and the ambient [f, g] = (J f, g)."""
    return inner(metric.g @ (metric.j_g @ f), g), inner(metric.space.j @ f, g)


def g_inner(metric: GMetric, f, g) -> complex:
    """(f, g)_G = (Gf, g), cross-checked against the decomposition formula
    [f_+, g_+] - [f_-, g_-]."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    metric._reject_kernel(f)
    metric._reject_kernel(g)
    direct, split = _inner_routes(metric, f, g)
    scale = max(1.0, float(np.linalg.norm(f)) * float(np.linalg.norm(g)))
    if abs(direct - split) > STRUCT_TOL * scale * max(1.0, metric.cond if not metric.degenerate else 1.0):
        raise InvariantViolation(
            f"metric product routes disagree ({direct:.6e} vs {split:.6e})"
        )
    return direct


def jg_product(metric: GMetric, f, g) -> complex:
    """[f, g]_G = (J_G f, g)_G; agrees with the ambient [f, g]."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    metric._reject_kernel(f)
    metric._reject_kernel(g)
    value, ambient = _jg_routes(metric, f, g)
    scale = max(1.0, float(np.linalg.norm(f)) * float(np.linalg.norm(g)))
    if abs(value - ambient) > STRUCT_TOL * scale:
        raise InvariantViolation("[.,.]_G disagrees with the ambient indefinite product")
    return value


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
            proj = metric.kernel @ (metric.kernel.conj().T @ f)
            f = f - proj
            g = g - metric.kernel @ (metric.kernel.conj().T @ g)
        direct, split = _inner_routes(metric, f, g)
        max_inner = max(max_inner, abs(direct - split))
        value, ambient = _jg_routes(metric, f, g)
        max_jg = max(max_jg, abs(value - ambient))
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
