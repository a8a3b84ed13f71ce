"""Finite-dimensional indefinite inner-product substrate.

A fundamental symmetry J (self-adjoint involution, J != +/-I) turns C^n into
a Krein space with [f, g] = (Jf, g).  Subspaces carry Euclidean-orthonormal
bases; sign classification happens through the indefinite Gram matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    STRUCT_TOL,
    as_matrix,
    check_residual,
    hermitize,
    inner,
    is_self_adjoint,
    orthonormal_columns,
)
from .errors import InvariantViolation

# Gram eigenvalues below this magnitude count as numerically neutral and are
# never silently signed.
NEUTRAL_TOL = 1e-9


class SignatureSpace:
    """C^dim equipped with a fundamental symmetry J."""

    def __init__(self, j):
        j = as_matrix(j)
        n = j.shape[0]
        if j.shape[1] != n:
            raise InvariantViolation("J must be square")
        if not is_self_adjoint(j):
            raise InvariantViolation("J must be self-adjoint")
        j = hermitize(j)
        check_residual("J must be an involution (J^2 = I)", j @ j - np.eye(n), STRUCT_TOL)
        w, v = np.linalg.eigh(j)
        n_minus = int(np.sum(w < 0))
        n_plus = n - n_minus
        if n_plus == 0 or n_minus == 0:
            raise InvariantViolation("J = +/-I carries no indefinite structure")
        self.dim = n
        self.j = j
        self.j.setflags(write=False)
        self._minus_basis = v[:, :n_minus]
        self._plus_basis = v[:, n_minus:]
        self.plus_dim = n_plus
        self.minus_dim = n_minus
        self.p_plus = hermitize(0.5 * (np.eye(n) + j))
        self.p_minus = hermitize(0.5 * (np.eye(n) - j))

    def plus_basis(self) -> np.ndarray:
        """Orthonormal basis of the +1 eigenspace H_+."""
        return self._plus_basis.copy()

    def minus_basis(self) -> np.ndarray:
        return self._minus_basis.copy()

    def h_plus(self) -> "Subspace":
        return Subspace(self._plus_basis)

    def h_minus(self) -> "Subspace":
        return Subspace(self._minus_basis)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SignatureSpace(dim={self.dim}, signature=({self.plus_dim}, {self.minus_dim}))"


class Subspace:
    """Subspace stored through a Euclidean-orthonormal basis matrix.

    Input columns must be linearly independent; they are orthonormalized on
    construction and the rank must equal the column count.
    """

    def __init__(self, basis):
        b = as_matrix(basis)
        u = orthonormal_columns(b)
        if u.shape[1] != b.shape[1]:
            raise InvariantViolation(
                f"spanning set is rank-deficient ({u.shape[1]} < {b.shape[1]})"
            )
        self.basis = u
        self.basis.setflags(write=False)

    @classmethod
    def empty(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0), dtype=complex))

    @classmethod
    def from_vectors(cls, *vectors) -> "Subspace":
        return cls(np.column_stack([np.asarray(v, dtype=complex) for v in vectors]))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def indefinite_product(space: SignatureSpace, f, g) -> complex:
    """[f, g] = (Jf, g), linear in the first argument."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != (space.dim,) or g.shape != (space.dim,):
        raise ValueError("vector length does not match the space dimension")
    return inner(space.j @ f, g)


def fundamental_projections(space: SignatureSpace) -> tuple[np.ndarray, np.ndarray]:
    """(P_+, P_-) with P_+/- = (I +/- J)/2."""
    return space.p_plus.copy(), space.p_minus.copy()


@dataclass(frozen=True)
class SubspaceClass:
    """Sign classification of a subspace.

    label is one of positive / negative / nonnegative / nonpositive /
    indefinite; uniform_margin is the best alpha with |[f, f]| >= alpha
    ||f||^2 on the subspace when it is sign-definite, else 0.
    """

    label: str
    uniform_margin: float
    gram_eigenvalues: np.ndarray = field(repr=False)


def classify_subspace(space: SignatureSpace, sub: Subspace) -> SubspaceClass:
    """Classify a subspace by the eigenvalues of its indefinite Gram matrix.

    Eigenvalues within NEUTRAL_TOL of zero are treated as numerically
    neutral rather than silently signed.
    """
    if sub.dim == 0:
        raise ValueError("cannot classify the zero subspace")
    if sub.ambient_dim != space.dim:
        raise ValueError("subspace does not live in this space")
    gram = hermitize(sub.basis.conj().T @ space.j @ sub.basis)
    w = np.linalg.eigvalsh(gram)
    pos = w > NEUTRAL_TOL
    neg = w < -NEUTRAL_TOL
    if pos.all():
        return SubspaceClass("positive", float(np.min(np.abs(w))), w)
    if neg.all():
        return SubspaceClass("negative", float(np.min(np.abs(w))), w)
    if not neg.any():
        return SubspaceClass("nonnegative", 0.0, w)
    if not pos.any():
        return SubspaceClass("nonpositive", 0.0, w)
    return SubspaceClass("indefinite", 0.0, w)
