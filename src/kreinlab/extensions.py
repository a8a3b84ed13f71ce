"""Self-adjoint contractive extensions of a symmetric partial contraction.

In the block form T = [D | E] [[A, B*], [B, C]] [D | E]* over D(T0) (+)
D(T0)^perp (orthonormal bases D, E; A = D* T0 D, B = E* T0 D), a
self-adjoint extension is a contraction iff its corner C lies in

    [C_min, C_max] = [-I + B (I + A)^{-1} B*,  I - B (I - A)^{-1} B*]

(Krein's extremal extensions in the Schur-complement form of Ando-Nishio
and Davis-Kahan-Weinberger).  These corners give the endpoints T_mu, T_M,
and T_M - T_mu = E W E* with W = C_max - C_min, so the defect space
M = ran(T_M - T_mu) and Delta^{1/2} come from the codim-sized W alone.
Extensions are parametrized by 0 <= X <= I on M, and T anticommutes with J
iff X solves

    X = J (I - X) J   (restricted to M),

while T is extremal iff X is a projection.  Both verdicts are decided on
the m x m X.  The n x n routes are independent checks only: ||J T + T J||
in `verify`, the metric-rank criterion in `kreinlab.oracles`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    CONTRACTION_SLACK,
    RANK_RCOND,
    RESULT_TOL,
    STRUCT_TOL,
    as_matrix,
    cayley_spectrum,
    check_residual,
    eig_min_herm,
    from_spectrum,
    hermitize,
    is_self_adjoint,
    operator_norm,
    orthonormal_columns,
    orthonormal_complement,
    random_unitary,
)
from .angular import PartialContraction, duality_test
from .errors import CayleyUndefinedError, InvariantViolation
from .spaces import NEUTRAL_TOL, SignatureSpace, Subspace

# Eigenvalues of T_M - T_mu above this (relative to the largest) span the
# defect space; below, the direction is considered rigid.
DEFECT_RCOND = 1e-8
# Absolute floor: a difference this small means case A (no defect at all).
DEFECT_FLOOR = 1e-10


def _completion(t0: PartialContraction):
    """Block form of T0: [D | E], A, B and the corner bounds C_min, C_max."""
    if not duality_test(t0):
        raise InvariantViolation("extension theory needs a symmetric T0")
    d = t0.domain
    e = orthonormal_complement(d, t0.space.dim)
    a = hermitize(d.conj().T @ t0.action)
    b = e.conj().T @ t0.action
    eye_d, eye_e = np.eye(d.shape[1]), np.eye(e.shape[1])
    c_min = hermitize(-eye_e + b @ np.linalg.solve(eye_d + a, b.conj().T))
    c_max = hermitize(eye_e - b @ np.linalg.solve(eye_d - a, b.conj().T))
    return np.hstack([d, e]), a, b, c_min, c_max


def _assemble(basis: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The ambient matrix [D | E] [[A, B*], [B, C]] [D | E]*."""
    return hermitize(basis @ np.block([[a, b.conj().T], [b, c]]) @ basis.conj().T)


def any_sa_extension(t0: PartialContraction) -> np.ndarray:
    """Some self-adjoint contractive extension of T0: the interval midpoint,
    completed with the corner (C_min + C_max)/2."""
    basis, a, b, c_min, c_max = _completion(t0)
    t = _assemble(basis, a, b, 0.5 * (c_min + c_max))
    check_residual("completed midpoint is not a contraction", t, 1.0 + CONTRACTION_SLACK)
    return t


def j_symmetrize(space: SignatureSpace, t_prime,
                 t0: PartialContraction | None = None) -> np.ndarray:
    """T = (T' - J T' J)/2: anticommutes with J exactly, stays a contraction,
    and still extends T0 whenever T' does (the domain is J-invariant)."""
    t_prime = as_matrix(t_prime)
    if not is_self_adjoint(t_prime):
        raise InvariantViolation("input to j_symmetrize must be self-adjoint")
    check_residual("input to j_symmetrize must be a contraction", t_prime,
                   1.0 + CONTRACTION_SLACK)
    if t0 is not None:
        check_residual("input does not extend T0", t_prime @ t0.domain - t0.action, STRUCT_TOL)
    return hermitize(0.5 * (t_prime - space.j @ t_prime @ space.j))


@dataclass
class ExtensionInterval:
    """Operator interval of self-adjoint contractive extensions."""

    space: SignatureSpace
    t0: PartialContraction
    t_mu: np.ndarray
    t_m: np.ndarray
    defect: Subspace
    signature: tuple[int, int]
    # Delta^{1/2} = (T_M - T_mu)^{1/2} in defect coordinates: on the defect
    # basis Mb, Delta^{1/2} Mb = Mb defect_half.
    defect_half: np.ndarray = field(repr=False)

    @property
    def defect_dim(self) -> int:
        return self.defect.dim

    def j_on_defect(self) -> np.ndarray:
        mb = self.defect.basis
        return hermitize(mb.conj().T @ self.space.j @ mb)


def krein_interval(t0: PartialContraction, tol: float = STRUCT_TOL) -> ExtensionInterval:
    """Extreme extensions T_mu, T_M by block completion of T0.

    The endpoints carry the corners C_min and C_max; the defect space and
    Delta^{1/2} come from the eigendecomposition of W = C_max - C_min on
    D(T0)^perp.
    """
    space = t0.space
    basis, a, b, c_min, c_max = _completion(t0)
    t_mu = _assemble(basis, a, b, c_min)
    t_m = _assemble(basis, a, b, c_max)

    w, v = np.linalg.eigh(hermitize(c_max - c_min))
    if w.min(initial=0.0) < -tol:
        raise InvariantViolation("interval order failed: T_M - T_mu not PSD")
    top = w.max(initial=0.0)
    keep = (w > DEFECT_RCOND * top) & (top > DEFECT_FLOOR)
    spanning = basis[:, t0.domain_dim:] @ v[:, keep]
    defect = Subspace(spanning)
    coords = defect.basis.conj().T @ spanning
    half = hermitize((coords * np.sqrt(w[keep])) @ coords.conj().T)

    # Structural invariants of the endpoint pair.
    for endpoint in (t_mu, t_m):
        check_residual("interval endpoint does not extend T0",
                       endpoint @ t0.domain - t0.action, RESULT_TOL)
        check_residual("interval endpoint is not a contraction", endpoint, 1.0 + RESULT_TOL)
    check_residual("J T_mu != -T_M J", space.j @ t_mu + t_m @ space.j, tol, scale=t_m)

    mb = defect.basis
    jm = mb.conj().T @ space.j @ mb
    check_residual("defect space is not J-invariant", space.j @ mb - mb @ jm, RESULT_TOL)
    ev = np.linalg.eigvalsh(hermitize(jm))
    if np.abs(np.abs(ev) - 1.0).max(initial=0.0) > RESULT_TOL:
        raise InvariantViolation("J does not restrict to a symmetry of the defect")
    p = int(np.sum(ev > 0))
    return ExtensionInterval(space, t0, t_mu, t_m, defect, (p, defect.dim - p), half)


def classify_case(interval: ExtensionInterval) -> str:
    """A: unique extension (no defect); B: balanced defect signature;
    C: unbalanced.  The defect decision is the one krein_interval made."""
    if interval.defect_dim == 0:
        return "A"
    p, q = interval.signature
    return "B" if p == q else "C"


def x_equation_residual(x, j_defect) -> float:
    """|| X - J (I - X) J || on the defect space."""
    x = as_matrix(x)
    j = as_matrix(j_defect)
    return operator_norm(x - j @ (np.eye(x.shape[0]) - x) @ j)


def symmetrize_solution(x, j_defect) -> np.ndarray:
    """Project any 0 <= X <= I onto a solution of X = J(I-X)J:
    (X + J(I-X)J)/2 always solves the equation and stays in [0, I]."""
    x = as_matrix(x)
    j = as_matrix(j_defect)
    return hermitize(0.5 * (x + j @ (np.eye(x.shape[0]) - x) @ j))


@dataclass
class XSolutionSet:
    """Solutions of the anticommutation equation on the defect space."""

    elementary: np.ndarray               # X = I/2, always a solution
    projection_exists: bool              # iff the defect signature is balanced
    projections: list[np.ndarray]        # orthogonal-projection solutions
    signature: tuple[int, int]
    note: str

    def affine(self, x0: np.ndarray, alpha: float) -> np.ndarray:
        """(1 - alpha) X0 + alpha (I - X0): solutions for all alpha in [0, 1]."""
        return (1.0 - alpha) * x0 + alpha * (np.eye(x0.shape[0]) - x0)


def solve_x_equation(interval: ExtensionInterval, seed: int | None = None,
                     n_projection_samples: int = 1) -> XSolutionSet:
    """Describe the solution family of X = J(I-X)J on the defect space.

    X = I/2 always solves.  Orthogonal-projection solutions exist iff the
    defect signature is balanced (p = q); they are projections onto
    hypermaximal neutral subspaces M_1 built by pairing +1 and -1
    eigenvectors of J restricted to the defect, and a seed samples
    alternative pairings (there are infinitely many for p = q >= 1).
    """
    m = interval.defect_dim
    if m == 0:
        raise ValueError("the defect space is trivial; the extension is unique")
    jm = interval.j_on_defect()
    elementary = 0.5 * np.eye(m)
    p, q = interval.signature
    projections: list[np.ndarray] = []
    if p == q:
        w, v = np.linalg.eigh(jm)
        u_minus = v[:, :q]
        u_plus = v[:, q:]
        pairings = [(np.eye(p), np.eye(q))]
        if seed is not None and n_projection_samples > 0:
            rng = np.random.default_rng(seed)
            pairings = [
                (random_unitary(rng, p), random_unitary(rng, q))
                for _ in range(n_projection_samples)
            ]
        for v_plus, v_minus in pairings:
            m1 = (u_plus @ v_plus + jm @ (u_minus @ v_minus)) / np.sqrt(2.0)
            x = hermitize(m1 @ m1.conj().T)
            projections.append(x)
        note = "projection solutions onto hypermaximal neutral subspaces (infinitely many)"
    else:
        note = "no projection solutions: defect signature is unbalanced"
    for x in [elementary, *projections]:
        if x_equation_residual(x, jm) > STRUCT_TOL:
            raise InvariantViolation("constructed X does not solve the equation")
        ev = np.linalg.eigvalsh(hermitize(x))
        if ev[0] < -STRUCT_TOL or ev[-1] > 1.0 + STRUCT_TOL:
            raise InvariantViolation("constructed X leaves [0, I]")
    return XSolutionSet(elementary, p == q, projections, (p, q), note)


@dataclass
class ExtensionChoice:
    """A single extension T = T_mu + Delta^{1/2} X Delta^{1/2}."""

    x: np.ndarray                        # in defect-space coordinates
    t: np.ndarray                        # ambient matrix
    anticommuting: bool
    extremal: bool
    x_residual: float


def extension_from_x(interval: ExtensionInterval, x) -> ExtensionChoice:
    """Realize the extension parametrized by 0 <= X <= I on the defect space:
    T = T_mu + Mb (S X S) Mb* with Mb the defect basis and S = defect_half.

    Both verdicts are read from X alone: T anticommutes with J iff X solves
    X = J(I - X)J, and T is extremal iff X is a projection.
    """
    m = interval.defect_dim
    x = as_matrix(x)
    if x.shape != (m, m):
        raise ValueError(f"X must be {m}x{m} on the defect space")
    if not is_self_adjoint(x):
        raise ValueError("X must be self-adjoint")
    ev = np.linalg.eigvalsh(hermitize(x))
    if m and (ev[0] < -STRUCT_TOL or ev[-1] > 1.0 + STRUCT_TOL):
        raise ValueError("X must satisfy 0 <= X <= I")
    mb = interval.defect.basis
    s = interval.defect_half
    t = hermitize(interval.t_mu + mb @ (s @ x @ s) @ mb.conj().T)

    x_resid = x_equation_residual(x, interval.j_on_defect()) if m else 0.0
    anticommuting = x_resid <= STRUCT_TOL
    extremal = bool(operator_norm(x @ x - x) <= STRUCT_TOL) if m else True
    # Interval membership: T - T_mu and T_M - T live on the defect space.
    if (eig_min_herm(mb.conj().T @ (t - interval.t_mu) @ mb) < -STRUCT_TOL
            or eig_min_herm(mb.conj().T @ (interval.t_m - t) @ mb) < -STRUCT_TOL):
        raise InvariantViolation("realized extension leaves the interval")
    check_residual("realized extension does not extend T0",
                   t @ interval.t0.domain - interval.t0.action, RESULT_TOL)
    return ExtensionChoice(x, t, anticommuting, extremal, x_resid)


def cayley(t) -> np.ndarray:
    """G = (I - T)(I + T)^{-1} of a self-adjoint contraction, spectral form."""
    w, v = np.linalg.eigh(hermitize(as_matrix(t)))
    return from_spectrum(v, cayley_spectrum(w))


def cayley_inverse(g) -> np.ndarray:
    """T = (I - G)(I + G)^{-1} of a PSD matrix; inverse of `cayley`."""
    g = hermitize(as_matrix(g))
    w, v = np.linalg.eigh(g)
    if w[0] < -STRUCT_TOL:
        raise InvariantViolation("metric operator must be positive semidefinite")
    w = np.clip(w, 0.0, None)
    return from_spectrum(v, (1.0 - w) / (1.0 + w))


@dataclass(frozen=True)
class ExtremalityResult:
    extremal: bool
    cayley_defined: bool


def extremality_test(t0: PartialContraction, choice: ExtensionChoice) -> ExtremalityResult:
    """Extremality of an extension: T is extremal iff X is a projection
    (choice.extremal), and cayley_defined says whether -1 is outside the
    spectrum of T, so that G = (I - T)(I + T)^{-1} exists.

    t0 is not read.  The metric-rank route (G^{1/2} (I + T) D(T0) spans
    G^{1/2} H) is the independent check `kreinlab.oracles.rank_extremality`.
    """
    try:
        cayley_spectrum(np.linalg.eigvalsh(hermitize(choice.t)))
    except CayleyUndefinedError:
        return ExtremalityResult(choice.extremal, False)
    return ExtremalityResult(choice.extremal, True)


@dataclass
class MaximalDualPair:
    """Maximal definite pair (I + T) H_+/- with degeneracy diagnostics."""

    l_plus: Subspace
    l_minus: Subspace
    neutral_plus: list[np.ndarray]
    neutral_minus: list[np.ndarray]
    rank_loss_plus: int
    rank_loss_minus: int

    @property
    def degenerate(self) -> bool:
        return bool(self.neutral_plus or self.neutral_minus
                    or self.rank_loss_plus or self.rank_loss_minus)


def max_subspaces(space: SignatureSpace, t) -> MaximalDualPair:
    """Maximal subspace pair of an anticommuting self-adjoint contraction.

    For ||T|| = 1 individual image directions may become neutral (or
    collapse); they are reported rather than silently classified.
    """
    t = hermitize(as_matrix(t))
    check_residual("T must anticommute with J", space.j @ t + t @ space.j, STRUCT_TOL)
    check_residual("T must be a contraction", t, 1.0 + CONTRACTION_SLACK)
    eye = np.eye(space.dim)
    out = []
    for basis in (space.plus_basis(), space.minus_basis()):
        img = (eye + t) @ basis
        u = orthonormal_columns(img, floor=1.0)
        rank_loss = basis.shape[1] - u.shape[1]
        neutral = []
        if u.shape[1]:
            gram = hermitize(u.conj().T @ space.j @ u)
            w, v = np.linalg.eigh(gram)
            for k in range(len(w)):
                if abs(w[k]) < NEUTRAL_TOL:
                    neutral.append(u @ v[:, k])
        out.append((Subspace(u) if u.shape[1] else Subspace.empty(space.dim),
                    neutral, rank_loss))
    (lp, np_, rp), (lm, nm, rm) = out
    return MaximalDualPair(lp, lm, np_, nm, rp, rm)


def density_test(t0: PartialContraction, t) -> bool:
    """True iff ran(Xi) cap D(T0)^perp = {0} for Xi = sqrt(I - T^2).

    This is the finite-dimensional rendering of density of the domain in
    the energetic space of the extension.
    """
    n = t0.space.dim
    w, v = np.linalg.eigh(hermitize(as_matrix(t)))
    xi_sq = 1.0 - w * w                  # the eigenvalues of Xi^2 = I - T^2
    ran = v[:, xi_sq > RANK_RCOND * max(float(xi_sq.max()), 0.0)]
    comp = orthonormal_complement(t0.domain, n)
    if comp.shape[1] == 0 or ran.shape[1] == 0:
        return True
    cos = operator_norm(ran.conj().T @ comp)
    return cos < 1.0 - STRUCT_TOL


def uniqueness_sup(t0: PartialContraction, g) -> float:
    """sup over the domain of |(T0 x, g)|^2 / (||x||^2 - ||T0 x||^2).

    Finite-truncation diagnostic only: the sup is always finite for a
    strong contraction on a finite-dimensional domain, so it can only be
    read as a trend across truncations, never as a rigidity verdict.
    """
    g = np.asarray(g, dtype=complex)
    a = t0.action
    if a.shape[1] == 0:
        return 0.0
    s = hermitize(a.conj().T @ a)
    w, v = np.linalg.eigh(s)
    if np.max(w) >= 1.0:
        raise InvariantViolation("strong contraction required")
    inv_half = (v / np.sqrt(1.0 - w)) @ v.conj().T
    vec = inv_half @ (a.conj().T @ g)
    return float(np.real(np.vdot(vec, vec)))
