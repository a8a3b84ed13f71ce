"""Reference computations used only by the test suite.

Everything here is deliberately low-tech and self-contained: feasibility
bisection on eigenvalue constraints, explicit Hermite polynomial
coefficients, dense finite-difference eigensolves.  None of it shares an
algorithm with the package routines it cross-checks, so agreement between
the two routes is evidence rather than tautology.
"""

import math

import numpy as np
from numpy.polynomial import hermite as npherm
from scipy.linalg import eigh_tridiagonal

FEAS_SLACK = 1e-12


def complement_basis(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ran(basis)^perp, for orthonormal `basis`."""
    n, d = basis.shape
    if d == 0:
        return np.eye(n, dtype=complex)
    u = np.linalg.svd(basis, full_matrices=True)[0]
    return u[:, d:]


def completion_matrix(domain, comp, a_blk, b_blk, corner) -> np.ndarray:
    """Assemble the self-adjoint candidate with fixed first block column.

    In the basis [domain | comp] the matrix is [[A, B*], [B, C]]; only the
    corner C is free once the partial map fixes A and B.
    """
    basis = np.concatenate([domain, comp], axis=1)
    d = domain.shape[1]
    m = comp.shape[1]
    block = np.zeros((d + m, d + m), dtype=complex)
    block[:d, :d] = a_blk
    block[d:, :d] = b_blk
    block[:d, d:] = b_blk.conj().T
    block[d:, d:] = corner
    return basis @ block @ basis.conj().T


def is_contraction(t: np.ndarray, slack: float = FEAS_SLACK) -> bool:
    return float(np.max(np.abs(np.linalg.eigvalsh(t)))) <= 1.0 + slack


def bisection_endpoints(t0, tol: float = 1e-11):
    """Extremal self-adjoint contractive completions for a codimension-one
    domain, found by feasibility bisection on the single corner entry.

    The feasible corner values form a closed interval (the completion
    theorem), and a diagonal entry of a Hermitian contraction lies in
    [-1, 1], so a coarse scan brackets the interval and bisection pins each
    boundary.  No square roots, no Schur complements.
    """
    domain = np.asarray(t0.domain, dtype=complex)
    action = np.asarray(t0.action, dtype=complex)
    comp = complement_basis(domain)
    if comp.shape[1] != 1:
        raise ValueError("bisection oracle needs a one-dimensional corner")
    a_blk = domain.conj().T @ action
    b_blk = comp.conj().T @ action

    def candidate(c: float) -> np.ndarray:
        return completion_matrix(domain, comp, a_blk, b_blk,
                                 np.array([[c]], dtype=complex))

    def feasible(c: float) -> bool:
        return is_contraction(candidate(c))

    seeds = [c for c in np.linspace(-1.0, 1.0, 81) if feasible(c)]
    if not seeds:
        seeds = [c for c in np.linspace(-1.0, 1.0, 2001) if feasible(c)]
    if not seeds:
        raise AssertionError("no feasible corner entry found by grid scan")

    def pin(inside: float, outside: float) -> float:
        lo, hi = outside, inside
        while abs(hi - lo) > tol:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        return hi

    c_min = pin(seeds[0], -1.0 - 1e-3)
    c_max = pin(seeds[-1], 1.0 + 1e-3)
    return candidate(c_min), candidate(c_max)


def psd_root(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def extension_reference(t_mu, t_m, defect_basis, x) -> np.ndarray:
    """T_mu + Delta^{1/2} (Mb X Mb*) Delta^{1/2} with Delta = T_M - T_mu,
    through a dense square root of the ambient Delta."""
    half = psd_root(t_m - t_mu)
    return t_mu + half @ (defect_basis @ x @ defect_basis.conj().T) @ half


def feasible_corner_cloud(t0, c_min_blk, c_max_blk, rng, count: int = 12):
    """Feasible completions spread over the corner interval [C_min, C_max],
    plus any rejection-sampled Hermitian corners that happen to be feasible.
    """
    domain = np.asarray(t0.domain, dtype=complex)
    action = np.asarray(t0.action, dtype=complex)
    comp = complement_basis(domain)
    m = comp.shape[1]
    a_blk = domain.conj().T @ action
    b_blk = comp.conj().T @ action
    width_root = psd_root(c_max_blk - c_min_blk)

    cloud = []
    for _ in range(count):
        h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        h = 0.5 * (h + h.conj().T)
        w, v = np.linalg.eigh(h)
        x = (v * ((np.tanh(w) + 1.0) / 2.0)) @ v.conj().T   # spectrum in (0, 1)
        corner = c_min_blk + width_root @ x @ width_root
        cloud.append(completion_matrix(domain, comp, a_blk, b_blk, corner))
    for _ in range(4 * count):
        h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        h = 0.5 * (h + h.conj().T)
        t = completion_matrix(domain, comp, a_blk, b_blk, h)
        if is_contraction(t):
            cloud.append(t)
    return cloud


def model_slope_reference(delta: float) -> float:
    """Analytic growth exponent of the truncated preimage-norm series.

    The terms behave like n^(1-2*delta)/2, so the partial sums grow like
    N^(2-2*delta) below the boundary, logarithmically at delta = 1, and
    stay bounded above it.
    """
    return max(0.0, 2.0 * (1.0 - delta))


def hermite_function_poly(n: int, z: np.ndarray) -> np.ndarray:
    """Hermite function via explicit polynomial coefficients (complex z ok).

    Independent of the package's stable three-term recurrence; only usable
    for small n where the coefficient route is well conditioned.
    """
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    norm = np.pi ** (-0.25) / math.sqrt(2.0 ** n * math.factorial(n))
    return norm * npherm.hermval(z, coeffs) * np.exp(-z * z / 2.0)


def quartic_reference_eigenvalues(count: int, half_width: float = 8.0,
                                  nodes: int = 16000) -> np.ndarray:
    """Low eigenvalues of -u'' + x^4 on a fine full-line grid, Richardson
    extrapolated across two resolutions.  Good to roughly 1e-6 for the
    first ten levels; used as an external check on the conjugated-operator
    spectrum, which is similar to this self-adjoint one.
    """

    def grid_eigs(m: int) -> np.ndarray:
        x, h = np.linspace(-half_width, half_width, m, retstep=True)
        diag = 2.0 / h ** 2 + x ** 4
        off = np.full(m - 1, -1.0 / h ** 2)
        return eigh_tridiagonal(diag, off, select="i",
                                select_range=(0, count - 1))[0]

    coarse = grid_eigs(nodes)
    fine = grid_eigs(2 * nodes)
    return fine + (fine - coarse) / 3.0


def weighted_h_gram(x, step, p, hf, f) -> np.ndarray:
    """A[m, n] = step * sum e^{-2p} (H f_n) conj(f_m), one entry at a time.

    The metric product of the weighted anharmonic family written out as
    a quadrature sum per entry, against which the package's single matrix
    product is checked; `hf` holds the rows H f_n.
    """
    weight = np.exp(-2.0 * p(x))
    count = len(f)
    out = np.empty((count, count), dtype=complex)
    for m in range(count):
        for n in range(count):
            out[m, n] = step * np.sum(weight * hf[n] * np.conj(f[m]))
    return out
