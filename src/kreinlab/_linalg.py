"""Shared dense linear-algebra helpers with pinned tolerances."""
from __future__ import annotations

import numpy as np

from .errors import InvariantViolation

# Relative singular-value cutoff for all rank / orthonormalization decisions.
RANK_RCOND = 1e-12
# Eigenvalues of nominally-PSD matrices in [-PSD_CLAMP, 0) are clamped to 0.
PSD_CLAMP = 1e-12
# Tolerance for structural identities (involution, anticommutation, ...).
STRUCT_TOL = 1e-10
# Slack allowed above 1 when checking that a matrix is a contraction.
CONTRACTION_SLACK = 1e-10
# Tolerance for identities of computed results: interval endpoints, realized
# extensions and the metric symmetry J_G.
RESULT_TOL = 1e-8


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def herm_residual(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - a.conj().T)))


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Inner product (u, v), linear in the first argument."""
    return complex(np.vdot(v, u))


def operator_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def eig_min_herm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(hermitize(a))[0])


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of a PSD Hermitian matrix via eigh.

    Eigenvalues within -PSD_CLAMP of zero are clamped to 0; anything more
    negative means the input was not PSD and is an error.
    """
    a = hermitize(as_matrix(a))
    if a.size == 0:
        return a
    w, v = np.linalg.eigh(a)
    if w[0] < -PSD_CLAMP * max(1.0, float(w[-1])):
        raise InvariantViolation(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return hermitize((v * np.sqrt(w)) @ v.conj().T)


def orthonormal_columns(b: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the column span, rank decided at RANK_RCOND * sigma_max.

    `floor` sets a minimum reference scale: a projection of unit vectors
    that comes out at roundoff level must count as rank zero, not as a
    unit-rank span of noise.
    """
    b = as_matrix(b)
    if b.shape[1] == 0:
        return b
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return b[:, :0]
    rank = int(np.sum(s > RANK_RCOND * max(s[0], floor)))
    return u[:, :rank]


def orthonormal_complement(u: np.ndarray, n: int | None = None) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span."""
    u = as_matrix(u)
    dim = u.shape[0] if n is None else n
    if u.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    full, s, _ = np.linalg.svd(u, full_matrices=True)
    rank = int(np.sum(s > RANK_RCOND * s[0])) if s.size else 0
    return full[:, rank:]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
