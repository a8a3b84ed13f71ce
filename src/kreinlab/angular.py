"""Angular-operator representation of definite subspace pairs.

A dual pair (L_+, L_-) of definite subspaces is stored as a partial
contraction T0 on a J-invariant domain M_+ (+) M_-, stored as such (each
domain column in H_+ or H_-); the subspaces are L_+/- = (I + T0) M_+/-.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import (
    STRUCT_TOL,
    check_residual,
    finite_matrix,
    hermitize,
    is_self_adjoint,
    orthonormal_columns,
    orthonormal_complement,
)
from .errors import CayleyUndefinedError, InvariantViolation
from .spaces import (SignatureSpace, Subspace, classify_subspace, fundamental_projections,
                     split_along_j)

# Window around the contraction bound inside which equality is flagged
# instead of rejected (truncated families legitimately approach norm 1).
NEAR_UNIT_WINDOW = 1e-12
# A uniformly definite pair whose contraction norm is within this distance
# of 1 is reported as approaching the non-uniform regime.
APPROACH_WINDOW = 1e-3


def _domain_coords(domain: np.ndarray, v, message: str) -> np.ndarray:
    """Coordinates D* v of v in the orthonormal basis D; raises ValueError
    with `message` unless v - D D* v is small relative to v."""
    v = np.asarray(v, dtype=complex)
    c = domain.conj().T @ v
    if np.linalg.norm(v - domain @ c) > STRUCT_TOL * max(1.0, np.linalg.norm(v)):
        raise ValueError(message)
    return c


def _gram_norm(*blocks: np.ndarray) -> float:
    """max ||a||_2 over the blocks, from the eigvalsh of each a* a (0 for none)."""
    tops = [np.linalg.eigvalsh(hermitize(a.conj().T @ a))[-1] for a in blocks if a.shape[1]]
    return float(np.sqrt(max([0.0, *tops])))


class PartialContraction:
    """Strong contraction T0 on a J-invariant subspace, held as M_+ (+) M_-.

    domain: orthonormal basis D of D(T0), each column in H_+ or H_- (J D = D
    diag(signs) within STRUCT_TOL; a mixed basis of a J-invariant domain is
    replaced by its `split_along_j` U, action by A D* U); action: T0 D.

    As T0 maps M_+/- into H_-/+, ||A_+* A_-|| <= ||R|| ||T0|| for the columns
    A_+/- of action on M_+/- and R = J action + action diag(signs), so ||T0||
    lies in [h, h + ||R||] for h = max ||A_+/-|| from the eigvalsh of the half
    Grams (0 when d = 0).  norm is h, or ||T0|| from the d x d Gram when that
    interval holds a threshold norm is compared with (1 +/- NEAR_UNIT_WINDOW,
    1 - APPROACH_WINDOW).  norm <= ||T0|| <= norm_bound = norm + ||R|| up to
    d u; `_solve_term` and the gamma of `cayley_bounds` read norm_bound (d u
    moves the lower Cayley bound inside CAYLEY_ROUNDING n u).
    """

    def __init__(self, space: SignatureSpace, domain, action):
        domain = finite_matrix(domain, "domain")
        action = finite_matrix(action, "action")
        n, d = domain.shape
        if n != space.dim or action.shape != (n, d):
            raise InvariantViolation("domain/action shapes do not match the space")
        # ||D* D - I||, kept for the bounds that assume an orthonormal D.
        self.domain_residual = check_residual("domain basis must be orthonormal",
                                              domain.conj().T @ domain - np.eye(d), STRUCT_TOL)
        # sigma_j = sign Re(d_j* J d_j); the basis is adapted when J D = D diag(sigma).
        jd = space.j @ domain
        signs = np.where(np.einsum("ij,ij->j", domain.conj(), jd).real < 0.0, -1.0, 1.0)
        if np.linalg.norm(jd - domain * signs) > STRUCT_TOL:
            check_residual("domain is not J-invariant",
                           jd - domain @ (domain.conj().T @ jd), STRUCT_TOL)
            plus, minus = split_along_j(space, domain)
            signs = np.repeat([1.0, -1.0], [plus.shape[1], minus.shape[1]])
            split = np.hstack([plus, minus])
            domain, action = split, action @ (domain.conj().T @ split)
        self.space, self.domain, self.action, self.signs = space, domain, action, signs
        anti = space.j @ action + action * signs
        self.norm = _gram_norm(action[:, signs > 0], action[:, signs < 0])
        spread = float(np.linalg.norm(anti))
        if any(self.norm <= c <= self.norm + spread
               for c in (1.0 + NEAR_UNIT_WINDOW, 1.0 - NEAR_UNIT_WINDOW, 1.0 - APPROACH_WINDOW)):
            self.norm = _gram_norm(action)
        if self.norm > 1.0 + NEAR_UNIT_WINDOW:
            raise InvariantViolation(f"not a strong contraction: ||T0|| = {self.norm:.12g} > 1")
        self.near_unit = self.norm >= 1.0 - NEAR_UNIT_WINDOW
        self.norm_bound = self.norm + check_residual(
            "J T0 + T0 J != 0 on the domain (residual {residual:.3e})",
            anti, STRUCT_TOL * max(1.0, self.norm))

    @cached_property
    def complement(self) -> np.ndarray:
        """Orthonormal basis E of D(T0)^perp (`orthonormal_complement`), taken
        once per problem and shared by the block completion and density_test."""
        return orthonormal_complement(self.domain)

    @property
    def domain_dim(self) -> int:
        return self.domain.shape[1]

    @property
    def is_full_domain(self) -> bool:
        return self.domain_dim == self.space.dim

    def coords(self, v) -> np.ndarray:
        return _domain_coords(self.domain, v, "vector is not in the domain of T0")

    def apply(self, v) -> np.ndarray:
        return self.action @ self.coords(v)

    def domain_split(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal bases of M_+/- = D cap H_+/-: the columns of D by sign."""
        return self.domain[:, self.signs > 0], self.domain[:, self.signs < 0]

    def full_matrix(self) -> np.ndarray:
        """T0 P_D as an ambient matrix (zero on the orthogonal complement)."""
        return self.action @ self.domain.conj().T


@dataclass
class PartialMap:
    """Densely stored linear map on a subspace (orthonormal domain basis)."""

    domain: np.ndarray
    action: np.ndarray

    def apply(self, v) -> np.ndarray:
        return self.action @ _domain_coords(self.domain, v, "vector is not in the domain")


def extract_angular(space: SignatureSpace, l_plus: Subspace | None,
                    l_minus: Subspace | None) -> PartialContraction:
    """Angular representation of a positive/negative subspace pair.

    Produces T0 = K_+ P_+ + K_- P_- on M_+ (+) M_- where K_+/- are the
    angular operators of L_+/-; raises if a subspace is not sign-definite
    or the graph projection loses rank.
    """
    n = space.dim
    p_plus, p_minus = fundamental_projections(space)
    domain_cols: list[np.ndarray] = []
    action_cols: list[np.ndarray] = []
    for sub, proj, want in ((l_plus, p_plus, "positive"), (l_minus, p_minus, "negative")):
        if sub is None or sub.dim == 0:
            continue
        if sub.ambient_dim != n:
            raise ValueError("subspace does not live in this space")
        cls = classify_subspace(space, sub)
        if cls.label != want:
            raise InvariantViolation(
                f"L_{'+' if want == 'positive' else '-'} must be {want}, got {cls.label}"
            )
        pb = proj @ sub.basis
        m = orthonormal_columns(pb)
        if m.shape[1] != sub.dim:
            raise InvariantViolation("numerical rank failure in the graph projection")
        coeff, *_ = np.linalg.lstsq(pb, m, rcond=None)
        f = sub.basis @ coeff  # vectors of the subspace with P f = m
        check_residual("graph reconstruction failed on the subspace", proj @ f - m, STRUCT_TOL)
        domain_cols.append(m)
        action_cols.append(f - m)
    if domain_cols:
        domain = np.hstack(domain_cols)
        action = np.hstack(action_cols)
    else:
        domain = np.zeros((n, 0), dtype=complex)
        action = np.zeros((n, 0), dtype=complex)
    return PartialContraction(space, domain, action)


def reconstruct_subspaces(t0: PartialContraction) -> tuple[Subspace, Subspace]:
    """L_+/- = (I + T0) M_+/- back from the angular representation."""
    return tuple(Subspace(m + t0.action @ (t0.domain.conj().T @ m))
                 for m in t0.domain_split())


def duality_test(t0: PartialContraction) -> bool:
    """True iff T0 is symmetric on its domain, equivalently [L_+, L_-] = 0."""
    return is_self_adjoint(t0.domain.conj().T @ t0.action)


@dataclass(frozen=True)
class DefinitenessReport:
    norm: float
    classification: str          # "uniformly_definite" | "definite_not_uniform"
    maximal: bool
    approaching_nonuniform: bool


def definiteness_class(t0: PartialContraction) -> DefinitenessReport:
    """Uniform-definiteness report for the subspace pair represented by T0."""
    if not duality_test(t0):
        raise InvariantViolation("definiteness classification expects a dual pair")
    if t0.near_unit:
        label = "definite_not_uniform"
    else:
        label = "uniformly_definite"
    maximal = t0.is_full_domain
    approaching = (1.0 - t0.norm) < APPROACH_WINDOW
    return DefinitenessReport(t0.norm, label, maximal, approaching)


@dataclass
class CSymmetryMap:
    """C0(f_+ + f_-) = f_+ - f_- on D(C0) = L_+ (+) L_-."""

    matrix: np.ndarray
    domain: np.ndarray
    signs: np.ndarray = field(repr=False)
    form_matrix: np.ndarray = field(repr=False)

    def apply(self, v) -> np.ndarray:
        _domain_coords(self.domain, v, "vector is not in D(C0)")
        return self.matrix @ np.asarray(v, dtype=complex)


def c0_operator(t0: PartialContraction) -> CSymmetryMap:
    """Build C0 from the angular representation of a dual pair.

    Verifies the involution property and that G0 = J C0 is a positive
    symmetric form on the domain.
    """
    if not duality_test(t0):
        raise InvariantViolation("C0 requires a dual pair (symmetric T0)")
    if t0.domain_dim == 0:
        raise ValueError("empty domain has no C0")
    m_plus, m_minus = t0.domain_split()
    m = np.hstack([m_plus, m_minus])
    f = m + t0.action @ (t0.domain.conj().T @ m)
    signs = np.r_[np.ones(m_plus.shape[1]), -np.ones(m_minus.shape[1])]
    matrix = (f * signs) @ np.linalg.pinv(f)
    # Involution on the domain.
    check_residual("C0^2 != I on D(C0)", matrix @ matrix @ f - f,
                   STRUCT_TOL * max(1.0, np.linalg.norm(f, 2)))
    # G0 = J C0 as a form on the domain basis: F^H J F diag(signs).
    form = (f.conj().T @ t0.space.j @ f) * signs
    if not is_self_adjoint(form):
        raise InvariantViolation("G0 = J C0 is not symmetric on D(C0)")
    if np.linalg.eigvalsh(hermitize(form))[0] <= 0:
        raise InvariantViolation("G0 = J C0 is not positive on D(C0)")
    return CSymmetryMap(matrix, orthonormal_columns(f), signs, hermitize(form))


def cayley_g0(t0: PartialContraction) -> PartialMap:
    """G0 = (I - T0)(I + T0)^{-1} on (I + T0) D(T0).

    (G0 f, f) = ||x||^2 - ||T0 x||^2 > 0 for f = (I + T0) x, so the map is
    positive definite on its domain.
    """
    f = t0.domain + t0.action
    if f.shape[1] == 0:
        raise ValueError("empty domain has no Cayley transform")
    u = orthonormal_columns(f)
    if u.shape[1] != f.shape[1]:
        raise CayleyUndefinedError("(I + T0) is singular on the domain")
    g_cols = t0.domain - t0.action
    coeff, *_ = np.linalg.lstsq(f, u, rcond=None)
    action = g_cols @ coeff
    form = u.conj().T @ action
    if not is_self_adjoint(form):
        raise InvariantViolation("G0 is not symmetric on its domain")
    if np.linalg.eigvalsh(hermitize(form))[0] <= 0:
        raise InvariantViolation("G0 is not positive definite on its domain")
    return PartialMap(u, action)
