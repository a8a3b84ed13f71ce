"""Shared dense linear-algebra helpers with pinned tolerances."""
from __future__ import annotations

import numpy as np

from .errors import CayleyUndefinedError, InvariantViolation

# Relative singular-value cutoff for all rank / orthonormalization decisions.
RANK_RCOND = 1e-12
# Tolerance for structural identities (involution, anticommutation, ...).
STRUCT_TOL = 1e-10
# Slack allowed above 1 when checking that a matrix is a contraction.
CONTRACTION_SLACK = 1e-10
# Tolerance for identities of computed results: interval endpoints and
# realized extensions.
RESULT_TOL = 1e-8


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def finite_matrix(a, name: str) -> np.ndarray:
    """as_matrix(a), refused with a ValueError naming the operand unless every
    entry is finite (checked before any factorization sees it)."""
    m = as_matrix(a)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Inner product (u, v), linear in the first argument."""
    return complex(np.vdot(v, u))


def operator_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def check_residual(message: str, a: np.ndarray, bound: float, scale=None) -> float:
    """Raise InvariantViolation(message) unless ||a||_2 <= bound, times
    max(1, ||scale||_2) if a scale is given.  As ||a||_2 <= ||a||_F, the SVDs
    are taken only when the Frobenius norm exceeds bound; the message may
    print the 2-norm as {residual}.  Returns the norm that passed, an upper
    bound on ||a||_2."""
    if a.size == 0:
        return 0.0
    residual = float(np.linalg.norm(a))
    if residual <= bound:
        return residual
    residual = operator_norm(a)
    if scale is not None:
        bound *= max(1.0, operator_norm(scale))
    if residual > bound:
        raise InvariantViolation(message.format(residual=residual))
    return residual


def is_self_adjoint(a: np.ndarray) -> bool:
    """max |a - a*| <= STRUCT_TOL * max(1, ||a||_2), taking the 2-norm only
    when the entrywise residual exceeds STRUCT_TOL (the scale is at least 1).
    A NaN residual fails neither comparison, so it passes."""
    residual = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    return residual <= STRUCT_TOL or not residual > STRUCT_TOL * max(1.0, operator_norm(a))


def from_spectrum(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V* for the eigenvectors V of a Hermitian matrix."""
    return hermitize((v * values) @ v.conj().T)


def cayley_spectrum(w: np.ndarray) -> np.ndarray:
    """Eigenvalues (1 - w)/(1 + w) of G = (I - T)(I + T)^{-1} for T's eigenvalues w."""
    if np.min(1.0 + w) < STRUCT_TOL:
        raise CayleyUndefinedError(
            "-1 is in the spectrum; the metric operator would be unbounded"
        )
    return (1.0 - w) / (1.0 + w)


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


def orthonormal_complement(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the span of the
    orthonormal (hence full-rank) columns u, from one complete QR."""
    u = as_matrix(u)
    return np.linalg.qr(u, mode="complete")[0][:, u.shape[1]:]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
