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
# Allowance of projected_complement's certificate, in units of n times the
# machine epsilon.  Calibrated, not proven: over 2,000 random J-invariant
# domains with n <= 40 both residuals stayed below 1.9 n u.
COMPLEMENT_ROUNDING = 8


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


def check_residual(message: str, a: np.ndarray, bound: float) -> float:
    """Raise InvariantViolation(message) unless ||a||_2 <= bound.  As
    ||a||_2 <= ||a||_F, the SVD is taken only when the Frobenius norm exceeds
    bound; for an exactly Hermitian a (as `hermitize` returns) ||a||_2 =
    max |lambda| is then read from eigvalsh instead.  The message may print
    the 2-norm as {residual}.  Returns the norm that passed, >= ||a||_2."""
    if a.size == 0:
        return 0.0
    residual = float(np.linalg.norm(a))
    if residual <= bound:
        return residual
    if a.shape[0] == a.shape[1] and np.array_equal(a, a.conj().T):
        residual = float(np.abs(np.linalg.eigvalsh(a)).max())
    else:
        residual = operator_norm(a)
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


def projected_complement(u: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis E of ran(u)^perp for orthonormal u (n x d), from
    the m = n - d coordinates S at which u's rows are shortest (stable
    order: E = I when d = 0), or None when its certificate fails.

    V = (I - u u*)[:, S] = I[:, S] - u u[S]* is orthonormalized by an n x m
    QR, projected off ran(u) a second time and orthonormalized again ("twice
    is enough": Giraud, Langou and Rozloznik, Comput. Math. Appl. 50, 2005).
    E is accepted when ||E* E - I|| and ||u* E|| are within
    COMPLEMENT_ROUNDING n u.  O(n d m), where a complete QR is O(n^2 d).
    """
    n, d = u.shape
    m = n - d
    s = np.argsort(np.linalg.norm(u, axis=1), kind="stable")[:m]
    v = np.zeros((n, m), dtype=complex)
    v[s, np.arange(m)] = 1.0
    v = np.linalg.qr(v - u @ u[s].conj().T)[0]
    e = np.linalg.qr(v - u @ (u.conj().T @ v))[0]
    bound = COMPLEMENT_ROUNDING * n * np.finfo(float).eps
    try:
        check_residual("complement is not orthonormal", e.conj().T @ e - np.eye(m), bound)
        check_residual("complement is not orthogonal to the span", u.conj().T @ e, bound)
    except InvariantViolation:
        return None
    return e


def orthonormal_complement(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ran(u)^perp for orthonormal u: projected_complement,
    or the last n - d columns of one complete QR where that fails."""
    u = as_matrix(u)
    e = projected_complement(u)
    if e is None:
        e = np.linalg.qr(u, mode="complete")[0][:, u.shape[1]:]
    return e


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
