"""Self-adjoint contractive extensions of a symmetric partial contraction.

In the block form T = [D | E] [[A, B*], [B, C]] [D | E]* over D(T0) (+)
D(T0)^perp (orthonormal bases D, E; A = D* T0 D, B = E* T0 D), a
self-adjoint extension is a contraction iff its corner C lies in

    [C_min, C_max] = [-I + B (I + A)^{-1} B*,  I - B (I - A)^{-1} B*]

(Krein's extremal extensions in the Schur-complement form of Ando-Nishio
and Davis-Kahan-Weinberger).  E is J-invariant, and split as [E+ | E-] so
that E* J E = J_E = diag(I, -I), J T0 = -T0 J gives C_min = -J_E C_max J_E:
Delta = T_M - T_mu = E W E* with W = 2 diag(C_++, C_--).  So with the
eigenpairs (w, V) of W's blocks, T_mu is a rank-m update of T_M, the defect
space M = ran Delta is spanned by columns of EV, where J = diag(I_p, -I_q)
and Delta^{1/2} = diag(sqrt w).  Extensions T = T_mu + Delta^{1/2} X
Delta^{1/2} are parametrized by 0 <= X <= I on M, and T anticommutes with J
iff X solves

    X = J (I - X) J   (restricted to M),

while T is extremal (so D(T0) is dense in its energetic space) iff X is a
projection, and -1 is outside the spectrum of T (the Cayley transform is
defined) iff the defect fills D(T0)^perp and X is nonsingular.  These
verdicts are decided on the m x m X; ||T_mu||, ||T_M|| <= 1
(endpoint_excess_bound) and -1 outside the spectrum of T
(ExtensionInterval.cayley_bounds) are read from the block data whenever
their bounds decide them, and from n x n spectra otherwise.  The n x n
checks (||J T + T J||, interval membership, T extends T0, the endpoint
2-norms, the J split, density_test, eigvalsh(T) against the Cayley bounds)
run in `verify`, the metric-rank criterion in `kreinlab.oracles`.
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
    check_residual,
    hermitize,
    is_self_adjoint,
    operator_norm,
    orthonormal_columns,
    random_unitary,
)
from .angular import PartialContraction
from .errors import InvariantViolation
from .spaces import NEUTRAL_TOL, SignatureSpace, Subspace, fundamental_bases

# Eigenvalues of T_M - T_mu above this (relative to the largest) span the
# defect space; below, the direction is considered rigid.
DEFECT_RCOND = 1e-8
# Absolute floor: a difference this small means case A (no defect at all).
DEFECT_FLOOR = 1e-10
# Rounding allowance of endpoint_excess_bound, in units of n times the
# machine epsilon, for the corner products B Z, the two products that
# assemble an n x n endpoint and the rank-m update between the endpoints.
# Calibrated, not proven: the measured ||T||_2 - 1 stayed below 4.7 n u.
ENDPOINT_ROUNDING = 8
# Rounding allowance of ExtensionInterval.cayley_bounds, in units of n times
# the machine epsilon, for assembling T_mu and T and for eigvalsh(T).
# Calibrated, not proven: the computed 1 + lambda_min(T) stayed within 3 n u
# of the unwidened bounds (test_cayley_bounds_bracket_the_spectrum).
CAYLEY_ROUNDING = 16


def _completion(t0: PartialContraction):
    """Block form of T0: [D | E] with E = D(T0)^perp split by the eigh of
    E* J E into p columns in H_+, then those in H_-; p, A, B, the corner
    bounds C_min, C_max, the larger Frobenius residual ||(I +/- A) Z - B*||
    of the two solves Z = (I +/- A)^{-1} B* that give the corners, and
    ||Z_+||_F, which bounds the Gram I + Z_+* Z_+ of the kernel basis
    E - D Z_+ of I + T_mu."""
    d, e = t0.domain, t0.complement
    dt0d = d.conj().T @ t0.action       # the symmetry test of duality_test
    if not is_self_adjoint(dt0d):
        raise InvariantViolation("extension theory needs a symmetric T0")
    j_e, v = np.linalg.eigh(hermitize(e.conj().T @ (t0.space.j @ e)))
    e = e @ v[:, ::-1]                   # the +1 eigenvectors first
    p = int(np.sum(j_e > 0))
    a = hermitize(dt0d)
    b = e.conj().T @ t0.action
    bh = b.conj().T
    eye_d, eye_e = np.eye(d.shape[1]), np.eye(e.shape[1])
    i_plus_a, i_minus_a = eye_d + a, eye_d - a
    z_plus = np.linalg.solve(i_plus_a, bh)
    z_minus = np.linalg.solve(i_minus_a, bh)
    residual = max(np.linalg.norm(i_plus_a @ z_plus - bh),
                   np.linalg.norm(i_minus_a @ z_minus - bh))
    c_min = hermitize(-eye_e + b @ z_plus)
    c_max = hermitize(eye_e - b @ z_minus)
    return (np.hstack([d, e]), p, a, b, c_min, c_max, float(residual),
            float(np.linalg.norm(z_plus)))


def _assemble(basis: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The ambient matrix [D | E] [[A, B*], [B, C]] [D | E]*."""
    return hermitize(basis @ np.block([[a, b.conj().T], [b, c]]) @ basis.conj().T)


@dataclass
class ExtensionInterval:
    """Operator interval of self-adjoint contractive extensions."""

    t0: PartialContraction
    t_mu: np.ndarray
    t_m: np.ndarray
    # Mb (n x m): eigenvectors of Delta = T_M - T_mu spanning the defect, the
    # p in H_+ first, then the q in H_-, each group by ascending eigenvalue
    # and each column with its largest-modulus entry real and positive;
    # Delta^{1/2} Mb = Mb diag(defect_scale).
    defect_basis: np.ndarray = field(repr=False)
    defect_scale: np.ndarray = field(repr=False)
    signature: tuple[int, int]
    # epsilon with ||T_mu||_2, ||T_M||_2 <= 1 + epsilon: endpoint_excess_bound
    # when it is at most RESULT_TOL, else RESULT_TOL, which the n x n 2-norms
    # were then checked against.
    excess_bound: float
    # An upper bound on ||I + Z_+* Z_+||, the Gram of the kernel basis
    # E - D Z_+ of I + T_mu, and the widening of cayley_bounds for the
    # distance of a computed T from its exact model and for eigvalsh's
    # rounding.
    kernel_gram: float = field(repr=False)
    cayley_slack: float = field(repr=False)

    @property
    def defect_dim(self) -> int:
        return self.defect_basis.shape[1]

    @property
    def j_on_defect(self) -> np.ndarray:
        """Mb* J Mb = diag(I_p, -I_q), the J of the equation X = J(I - X)J."""
        p, q = self.signature
        return np.diag(np.r_[np.ones(p), -np.ones(q)])

    def cayley_bounds(self, x_low: float, x_high: float) -> tuple[float, float]:
        """Bounds (lower, upper) on 1 + lambda_min(T) for the computed T =
        T_mu + Y X Y*, from the extreme eigenvalues x_low <= x_high of X.

        I + T_mu vanishes on K = ran(E - D Z_+), whose dimension is the
        codimension k of D(T0), and is at least gamma = 1 - ||T0|| on K^perp:
        its nonzero part is F (I + A) F* with F = D + E Z_+*, F* F >= I and
        I + A >= 1 - ||T0||.  With H = Y X Y* >= 0 and mu = lambda_min(Kh* H
        Kh) for an orthonormal basis Kh of K,

            mu gamma / (gamma + ||H||) <= 1 + lambda_min(T) <= mu.

        The upper bound is the Rayleigh quotient on K.  The lower one holds on
        the plane spanned by the K and K^perp parts of the lowest eigenvector,
        where the compression has determinant at least mu gamma and largest
        eigenvalue at most gamma + ||H||.  Kh* Y = G^{-1/2} V S, with G = I +
        Z_+* Z_+ <= kernel_gram I, V S the E-coordinates of Y (orthonormal
        columns V, S = diag(defect_scale)), so when the defect fills K
        (defect_dim = k) Ostrowski's theorem puts mu in [x_low s_min^2 /
        kernel_gram, x_low s_max^2], and otherwise mu = 0; ||H|| <= x_high
        s_max^2.  So -1 is in the spectrum
        of T iff defect_dim < k or X is singular.  Both bounds are widened by
        cayley_slack; with k = 0 there is no kernel, mu = inf and the bounds
        are (gamma, inf).
        """
        gap = 1.0 - self.t0.norm
        if self.t0.is_full_domain:
            return gap - self.cayley_slack, float("inf")
        w = self.defect_scale ** 2
        top = float(w.max(initial=0.0))
        mu_high = x_low * top
        lower = min(x_low, 0.0) * top       # I + T >= x_low Y Y* when x_low < 0
        if self.defect_dim < self.t0.space.dim - self.t0.domain_dim:
            mu_high = 0.0                   # H is singular on K
        elif x_low > 0.0 and gap > 0.0:
            mu_low = x_low * float(w.min()) / self.kernel_gram
            lower = mu_low * gap / (gap + x_high * top)
        return float(lower - self.cayley_slack), float(max(mu_high, 0.0) + self.cayley_slack)


def endpoint_excess_bound(t0: PartialContraction, solve_residual: float,
                          mirror_residual: float, w: np.ndarray) -> float:
    """epsilon with ||T_mu||_2, ||T_M||_2 <= 1 + epsilon, from the block data.

    With Z = (I +/- A)^{-1} B* computed with residual R = (I +/- A) Z - B*,
    the Schur complements of I - K_M and I + K_M (K the block matrix of an
    endpoint) with respect to I -/+ A are, in exact arithmetic,
    B (I - A)^{-1} R and W + B (I + A)^{-1} R, and mirrored for K_mu.  A and
    B are compressions of T0, so ||B|| ||(I +/- A)^{-1}|| <= ||T0|| / (1 -
    ||T0||), and a Schur complement >= -s I gives I -/+ K >= -s I; K_mu's
    corner -J_E C_max J_E, mirror_residual from C_min in Frobenius norm,
    moves each by at most that.  To the resulting bound on ||K|| - 1 come the
    orthonormality slack of [D | E] (STRUCT_TOL, which PartialContraction
    holds ||D* D - I|| to) and a calibrated allowance for the rounding of the
    corner products and of the assembly, ENDPOINT_ROUNDING n u.  The bound is
    infinite when ||T0|| >= 1 and R != 0.
    """
    rounding = ENDPOINT_ROUNDING * t0.space.dim * np.finfo(float).eps
    negative = max(0.0, -float(w.min(initial=0.0)))
    return (_solve_term(t0, solve_residual) + mirror_residual + negative + STRUCT_TOL
            + rounding)


def _solve_term(t0: PartialContraction, solve_residual: float) -> float:
    """||T0|| ||R|| / (1 - ||T0||), the distance a corner solve residual R
    puts between a computed corner and the exact one; infinite when ||T0||
    >= 1 and R != 0."""
    if not solve_residual:
        return 0.0
    gap = 1.0 - t0.norm
    return t0.norm * solve_residual / gap if gap > 0 else np.inf


def krein_interval(t0: PartialContraction, tol: float = STRUCT_TOL) -> ExtensionInterval:
    """Extreme extensions T_mu, T_M by block completion of T0.

    T_M has the corner C_max and T_mu the mirrored -J_E C_max J_E, so W =
    2 diag(C_++, C_--) exactly; T_mu, the defect basis and Delta^{1/2} come
    from the eigenpairs of its blocks, and tol bounds W's negative ones.
    Inside an eigenvalue repeated within one block the basis is eigh's
    choice.  The endpoints are contractions by endpoint_excess_bound; only
    when it exceeds RESULT_TOL (near ||T0|| = 1) are their 2-norms taken.
    """
    basis, p, a, b, c_min, c_max, solve_residual, z_norm = _completion(t0)
    t_m = _assemble(basis, a, b, c_max)

    e = basis[:, t0.domain_dim:]
    w_plus, v_plus = np.linalg.eigh(2.0 * c_max[:p, :p])
    w_minus, v_minus = np.linalg.eigh(2.0 * c_max[p:, p:])
    w = np.concatenate([w_plus, w_minus])
    if w.min(initial=0.0) < -tol:
        raise InvariantViolation("interval order failed: T_M - T_mu not PSD")
    u = np.hstack([e[:, :p] @ v_plus, e[:, p:] @ v_minus])   # eigenvectors of Delta
    t_mu = hermitize(t_m - (u * w) @ u.conj().T)
    top = w.max(initial=0.0)
    keep = (w > DEFECT_RCOND * top) & (top > DEFECT_FLOOR)
    mb = u[:, keep]
    lead = mb[np.abs(mb).argmax(axis=0), np.arange(mb.shape[1])]
    mb = mb * (lead.conj() / np.abs(lead))

    signs = np.concatenate([np.ones(p), -np.ones(len(w) - p)])
    mirror = float(np.linalg.norm(c_min + signs[:, None] * c_max * signs))
    excess = endpoint_excess_bound(t0, solve_residual, mirror, w)
    certified = excess <= RESULT_TOL
    # The exact kernel E - D Z_+ moves with the solve residual, the mirrored
    # corner and D's departure from orthonormality (twice ||D* D - I||).
    cayley_slack = (_solve_term(t0, solve_residual) + mirror + 2.0 * t0.domain_residual
                    + CAYLEY_ROUNDING * t0.space.dim * np.finfo(float).eps)
    for endpoint in (t_mu, t_m):
        check_residual("interval endpoint does not extend T0",
                       endpoint @ t0.domain - t0.action, RESULT_TOL)
        if not certified:
            check_residual("interval endpoint is not a contraction", endpoint,
                           1.0 + RESULT_TOL)
    return ExtensionInterval(t0, t_mu, t_m, mb, np.sqrt(w[keep]),
                             (int(keep[:p].sum()), int(keep[p:].sum())),
                             excess if certified else RESULT_TOL, 1.0 + z_norm ** 2, cayley_slack)


def classify_case(interval: ExtensionInterval) -> str:
    """A: unique extension (no defect); B: balanced defect signature;
    C: unbalanced.  The defect decision is the one krein_interval made."""
    if interval.defect_dim == 0:
        return "A"
    p, q = interval.signature
    return "B" if p == q else "C"


def symmetrize_solution(x, signature) -> np.ndarray:
    """Project any 0 <= X <= I onto a solution of X = J(I-X)J, with J =
    diag(I_p, -I_q) for the signature (p, q): (X + J(I-X)J)/2 keeps the
    off-diagonal blocks of X and sets both diagonal blocks to I/2, so it
    always solves the equation and stays in [0, I]."""
    x = hermitize(as_matrix(x))
    plus = np.arange(x.shape[0]) < signature[0]
    return np.where(plus[:, None] == plus[None, :], 0.5 * np.eye(x.shape[0]), x)


def x_equation_residual(x, signature) -> float:
    """|| X - J (I - X) J || = || diag(2 X_++ - I, 2 X_-- - I) || for a
    Hermitian X, that is twice its distance from symmetrize_solution(X)."""
    return 2.0 * operator_norm(as_matrix(x) - symmetrize_solution(x, signature))


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

    With J = diag(I_p, -I_q) the equation says that both diagonal blocks of X
    are I/2, so X = I/2 always solves.  Projection solutions exist iff p = q:
    X = [[I, U], [U*, I]]/2 with U unitary projects onto the hypermaximal
    neutral span of [I; U*].  U = I, or n_projection_samples of them sampled
    from a seed (there are infinitely many for p >= 1); none when
    n_projection_samples is 0.
    """
    m = interval.defect_dim
    if m == 0:
        raise ValueError("the defect space is trivial; the extension is unique")
    p, q = interval.signature
    eye = np.eye(p)
    unitaries = [eye] if p == q and n_projection_samples > 0 else []
    if unitaries and seed is not None:
        rng = np.random.default_rng(seed)
        unitaries = [random_unitary(rng, p) for _ in range(n_projection_samples)]
    projections = [0.5 * np.block([[eye, u], [u.conj().T, eye]]) for u in unitaries]
    note = ("projection solutions onto hypermaximal neutral subspaces (infinitely many)"
            if p == q else "no projection solutions: defect signature is unbalanced")
    return XSolutionSet(0.5 * np.eye(m), p == q, projections, (p, q), note)


@dataclass
class ExtensionChoice:
    """A single extension T = T_mu + Delta^{1/2} X Delta^{1/2}."""

    x: np.ndarray                        # in defect-space coordinates
    t: np.ndarray                        # ambient matrix
    anticommuting: bool
    extremal: bool
    x_residual: float
    cayley_bounds: tuple[float, float]   # on 1 + lambda_min(T), ExtensionInterval.cayley_bounds

    @property
    def cayley_certificate(self) -> bool | None:
        """Whether -1 is outside the spectrum of T, by the threshold
        1 + lambda_min(T) >= STRUCT_TOL of cayley_spectrum, when both Cayley
        bounds lie on one side of it; None when they straddle it."""
        lower, upper = self.cayley_bounds
        if lower > STRUCT_TOL:
            return True
        if upper < STRUCT_TOL:
            return False
        return None


def extension_from_x(interval: ExtensionInterval, x) -> ExtensionChoice:
    """Realize the extension parametrized by 0 <= X <= I on the defect space:
    T = T_mu + Y X Y* with Y = Delta^{1/2} Mb = Mb diag(defect_scale), which
    lies in the interval and extends T0 since Y is orthogonal to D(T0).

    Both verdicts are read from X alone: T anticommutes with J iff X solves
    X = J(I - X)J, and T is extremal iff X is a projection, which the
    eigenvalues of X decide: ||X^2 - X||_2 = max |lambda^2 - lambda|.  Their
    extremes also give the Cayley bounds.
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
    y = interval.defect_basis * interval.defect_scale
    t = hermitize(interval.t_mu + y @ x @ y.conj().T)

    x_resid = x_equation_residual(x, interval.signature)
    extremal = bool(np.max(np.abs(ev * ev - ev), initial=0.0) <= STRUCT_TOL)
    bounds = interval.cayley_bounds(*((ev[0], ev[-1]) if m else (0.0, 0.0)))
    return ExtensionChoice(x, t, x_resid <= STRUCT_TOL, extremal, x_resid, bounds)


@dataclass(frozen=True)
class ExtremalityResult:
    extremal: bool
    cayley_defined: bool


def extremality_test(t0: PartialContraction, choice: ExtensionChoice) -> ExtremalityResult:
    """Extremality of an extension: T is extremal iff X is a projection
    (choice.extremal), and cayley_defined says whether -1 is outside the
    spectrum of T, so that G = (I - T)(I + T)^{-1} exists.

    cayley_defined is choice.cayley_certificate, read from X; only when the
    Cayley bounds straddle the threshold does eigvalsh(T) decide, the route
    `kreinlab.oracles.spectral_cayley_defined` keeps.  t0 is not read.  The
    metric-rank route (G^{1/2} (I + T) D(T0) spans G^{1/2} H) is the
    independent check `kreinlab.oracles.rank_extremality`.
    """
    defined = choice.cayley_certificate
    if defined is None:
        defined = bool(np.min(1.0 + np.linalg.eigvalsh(hermitize(choice.t))) >= STRUCT_TOL)
    return ExtremalityResult(choice.extremal, defined)


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
    t = as_matrix(t)
    if not is_self_adjoint(t):
        raise InvariantViolation("T must be self-adjoint")
    t = hermitize(t)
    check_residual("T must anticommute with J", space.j @ t + t @ space.j, STRUCT_TOL)
    check_residual("T must be a contraction", t, 1.0 + CONTRACTION_SLACK)
    eye = np.eye(space.dim)
    out = []
    for basis in fundamental_bases(space):
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
        out.append((Subspace.from_orthonormal(u), neutral, rank_loss))
    (lp, np_, rp), (lm, nm, rm) = out
    return MaximalDualPair(lp, lm, np_, nm, rp, rm)


def density_test(t0: PartialContraction, t) -> bool:
    """True iff ran(Xi) cap D(T0)^perp = {0} for Xi = sqrt(I - T^2).

    The n x n rendering of density of the domain in the energetic space:
    `extend` reads it from X (extremal iff dense), `verify` checks with this.
    """
    w, v = np.linalg.eigh(hermitize(as_matrix(t)))
    xi_sq = 1.0 - w * w                  # the eigenvalues of Xi^2 = I - T^2
    # The cut is floored at 1 >= xi^2: rounding where T^2 = I is no range.
    ran = v[:, xi_sq > RANK_RCOND * max(float(xi_sq.max()), 1.0)]
    comp = t0.complement
    if comp.shape[1] == 0 or ran.shape[1] == 0:
        return True
    cos = operator_norm(ran.conj().T @ comp)
    return cos < 1.0 - STRUCT_TOL
