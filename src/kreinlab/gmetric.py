"""Metric-operator geometry of an anticommuting self-adjoint contraction.

G = (I - T)(I + T)^{-1} induces the positive product (f, g)_G = (Gf, g); the
images L_+/- = (I + T) H_+/- are G-orthogonal and define the symmetry
J_G = (I + T) J (I + T)^{-1} = J G, since J T J = -T gives (I + T) J =
J (I - T).  As J G J = G^{-1}, J_G^2 = I and G J_G = J hold up to the
anticommutation residual; `verify` measures them relative to cond G.  The
indefinite products agree: [f, g]_G = (G J_G f, g) = [f, g].  g_inner and jg_product take one route each;
metric_report measures them against GMetric.split_inners, which splits all
its probes with one solve, and the ambient [f, g].
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
    psd_clamp,
)
from .errors import InvariantViolation
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
        w, v = np.linalg.eigh(t)
        # ||T||_2 = max |w| for the Hermitian T: no SVD for the contraction check
        if not np.abs(w).max(initial=0.0) <= 1.0 + CONTRACTION_SLACK:
            raise InvariantViolation("T must be a contraction")
        check_residual("T must anticommute with J", space.j @ t + t @ space.j, STRUCT_TOL)
        g_values = cayley_spectrum(w)  # raises CayleyUndefinedError when -1 in spec(T)
        g = from_spectrum(v, g_values)
        xi = from_spectrum(v, np.sqrt(psd_clamp(1.0 - w * w)))
        j_g = space.j @ g
        top = float(g_values.max())
        kernel_mask = g_values <= KERNEL_RCOND * max(top, 1.0)
        degenerate = bool(kernel_mask.any())
        kernel = v[:, kernel_mask]
        cond = float("inf") if degenerate else float(top / g_values.min())
        return cls(space, t, g, xi, j_g, degenerate, kernel, cond)

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
        """Split f, a vector or an (n, k) stack of columns, along
        (I + T) H_+ (+) (I + T) H_-, with one solve for the whole stack.  The
        products are taken column by column, so each column has the bits of
        its own split."""
        f = np.asarray(f, dtype=complex)
        eye_plus_t = np.eye(self.space.dim) + self.t
        x = np.linalg.solve(eye_plus_t, f.reshape(self.space.dim, -1))
        p_plus, p_minus = fundamental_projections(self.space)
        plus = np.array([eye_plus_t @ (p_plus @ c) for c in x.T]).T
        minus = np.array([eye_plus_t @ (p_minus @ c) for c in x.T]).T
        return (plus, minus) if f.ndim == 2 else (plus[:, 0], minus[:, 0])

    def split_inner(self, f, g) -> complex:
        """[f_+, g_+] - [f_-, g_-] over one `decompose` of [f, g]: the second
        route to (f, g)_G."""
        return self.split_inners(np.column_stack([f, g]))[0]

    def split_inners(self, probes) -> list[complex]:
        """`split_inner` of each column pair (f_i, g_i) = (probes[:, 2i],
        probes[:, 2i + 1]) of an (n, 2k) stack, over one `decompose`."""
        plus, minus = self.decompose(probes)
        return [indefinite_product(self.space, plus[:, i], plus[:, i + 1])
                - indefinite_product(self.space, minus[:, i], minus[:, i + 1])
                for i in range(0, plus.shape[1], 2)]


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
    probes = []
    for _ in range(2 * REPORT_PROBES):      # f_1, g_1, f_2, g_2, ...
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if metric.degenerate and metric.kernel.shape[1]:
            v = v - metric.kernel @ (metric.kernel.conj().T @ v)
        probes.append(v)
    split = metric.split_inners(np.column_stack(probes))
    max_inner = 0.0
    max_jg = 0.0
    max_xi = 0.0
    for i in range(REPORT_PROBES):
        f, g = probes[2 * i], probes[2 * i + 1]
        max_inner = max(max_inner, abs(g_inner(metric, f, g) - split[i]))
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
