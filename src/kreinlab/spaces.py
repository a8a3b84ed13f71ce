"""Finite-dimensional indefinite inner-product substrate.

A fundamental symmetry J (self-adjoint involution, J != +/-I) turns C^n into
a Krein space with [f, g] = (Jf, g).  A `SignatureSpace` keeps J and its
signature only; P_+/- = (I +/- J)/2, the eigenbases of H_+/- and the split
of a J-invariant basis along J are formed on demand by `fundamental_projections`,
`fundamental_bases` and `split_along_j`.  Subspaces carry Euclidean-orthonormal
bases; sign classification happens through the indefinite Gram matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    STRUCT_TOL,
    as_matrix,
    check_residual,
    finite_matrix,
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
    """C^dim equipped with a fundamental symmetry J.

    Stores dim, the checked and hermitized J (read-only) and the signature
    (plus_dim, minus_dim).  No decomposition is taken: the eigenvalues of
    an involution lie within STRUCT_TOL of +/-1, so n_+ = (n + tr J)/2
    rounds exactly.
    """

    def __init__(self, j):
        j = finite_matrix(j, "J")
        n = j.shape[0]
        if j.shape[1] != n:
            raise InvariantViolation("J must be square")
        if not is_self_adjoint(j):
            raise InvariantViolation("J must be self-adjoint")
        j = hermitize(j)
        check_residual("J must be an involution (J^2 = I)", j @ j - np.eye(n), STRUCT_TOL)
        n_plus = round((n + float(np.trace(j).real)) / 2)
        n_minus = n - n_plus
        if n_plus == 0 or n_minus == 0:
            raise InvariantViolation("J = +/-I carries no indefinite structure")
        self.dim = n
        self.j = j
        self.j.setflags(write=False)
        self.plus_dim = n_plus
        self.minus_dim = n_minus

    def __repr__(self) -> str:  # pragma: no cover
        return f"SignatureSpace(dim={self.dim}, signature=({self.plus_dim}, {self.minus_dim}))"


class Subspace:
    """Subspace stored through a Euclidean-orthonormal basis matrix.

    Input columns must be linearly independent; they are orthonormalized on
    construction and the rank must equal the column count.  A basis that is
    orthonormal already goes through `from_orthonormal`, which checks it
    instead.
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
    def from_orthonormal(cls, u) -> "Subspace":
        """The span of u, whose columns must be orthonormal; u is stored
        (as a read-only view), not re-orthonormalized."""
        u = as_matrix(u)
        check_residual("basis must be orthonormal",
                       u.conj().T @ u - np.eye(u.shape[1]), STRUCT_TOL)
        sub = cls.__new__(cls)
        sub.basis = u.view()
        sub.basis.setflags(write=False)
        return sub

    @classmethod
    def empty(cls, ambient_dim: int) -> "Subspace":
        return cls.from_orthonormal(np.zeros((ambient_dim, 0), dtype=complex))

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
    """(P_+, P_-) with P_+/- = (I +/- J)/2, formed on each call."""
    eye = np.eye(space.dim)
    return hermitize(0.5 * (eye + space.j)), hermitize(0.5 * (eye - space.j))


def fundamental_bases(space: SignatureSpace) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (H_+, H_-) of the +1 and -1 eigenspaces of J from one
    eigh of J per call: `split_along_j` of the whole space, without its products."""
    _, v = np.linalg.eigh(space.j)
    return v[:, space.minus_dim:], v[:, :space.minus_dim]


def split_along_j(space: SignatureSpace, u) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (U_+, U_-) of ran u cap H_+/- for an orthonormal
    J-invariant basis u: u V, with V the eigenvectors of u* J u by ascending
    eigenvalue, split at the sign change."""
    w, v = np.linalg.eigh(hermitize(u.conj().T @ (space.j @ u)))
    uv = u @ v
    q = int(np.sum(w < 0.0))
    return uv[:, q:], uv[:, :q]


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
