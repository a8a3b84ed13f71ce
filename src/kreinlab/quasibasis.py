"""Quasi-basis diagnostics for concrete function families.

Two frozen family types are built on a uniform symmetric grid.  Both
subclass `FunctionFamily`, which holds the samples of f_0..f_n_max and of
their orthonormal reference g_n, the eigenvalues lambda_n of H f_n =
lambda_n f_n, and, measured once at construction, the rows H f_n, the
indefinite Gram [f_m, f_n] and the signs sign Re [f_n, f_n]:

* `ShiftedHermiteFamily` (`shifted_family`; a = 0 is the unshifted
  Hermite reference): f_n(x) = g_n(x + i a), where g_n are the
  Hermite functions (three-term recurrence); the metric weight acts as
  multiplication by e^{2 a xi} on the Fourier side, and
  H = -d^2/dx^2 + x^2 + 2iax has f_n as eigenfunctions with eigenvalues
  1 + 2n + a^2;
* `AnharmonicFamily` (`anharmonic_family`): f_n = e^{p(x)} g_n with g_n
  the finite-difference eigenfunctions of H0 = -d^2/dx^2 + |x|^beta
  (beta > 2), solved on the half line per parity, and p a bounded odd
  weight exponent; the metric weight is e^{-2p(x)}.  Each parity's levels
  are bisected on a 2**COARSENING times coarser copy of its half-line
  problem and refined on the grid by Rayleigh-quotient iteration, under a
  residual-bracket and Sturm-count certificate, with bisection of the whole
  problem as the fallback.

Each type supplies only what differs, on whole row stacks: the data hf
and the hooks `metric_rows` (the two row stacks whose product, times
`measure`, is the metric product), `half_metric` (e^{Q/2}) and `metric`
(e^{Q}).  The Grams (`indefinite_gram` reads the measured one, `metric_gram`
the hooks), the C-routes, H in the metric and the expansion are written
once on top of them, with one transform per row stack; `parity_apply` is
the reflection u(x) -> u(-x) behind the indefinite product.

Every Fourier-side quantity is gated by an explicit frequency-band check:
the exponential weight amplifies unresolved tails, so results are refused
rather than silently extrapolated.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import (
    FrequencyBandError,
    GridResolutionError,
    InvariantViolation,
    ParityMixingError,
)

# |g_n(+/-L)| must fall below this at the grid edge.
EDGE_TOL = 1e-14
# Reference (unshifted) Gram must reproduce the identity this well.
REFERENCE_GRAM_TOL = 1e-8
# Margin added to the classical frequency support when fixing the band.
BAND_MARGIN = 8.0
# Relative decay the weighted spectrum must reach at the band edge.
BAND_EDGE_REL = 1e-9
# Span-projection residual above which c_action warns.
SPAN_WARN_TOL = 1e-6
# Grid rows per block of the QR in span_residual.  One QR of the whole
# 8192 x 42 matrix of a Hermite n_max 40 family (numpy copies it twice)
# raised the quasibasis_grid peak RSS by 9 MB.  With one BLAS thread, best of
# 7, blocks of 1024 rows took 11 ms there, against 15 ms for the one QR and
# 18 ms for least squares, and at most 3.3 ms on the other benchmark families.
SPAN_QR_ROWS = 1024
# Largest deviation of the indefinite Gram from diag(sigma) that sign_pattern
# still reports as J-orthonormal.
J_ORTHONORMAL_TOL = 1e-6
# Rayleigh-quotient refinement of the anharmonic levels, on the grid's step
# and on the halved step: the most iteration steps per level, and the
# rounding slack of each residual bracket in units of eps * ||T||_1.
RQI_STEPS = 6
BRACKET_SLACK = 16.0
# The anharmonic levels are bisected on a copy of each half-line problem with
# a 2**COARSENING times larger step and refined on the family's own step
# (`_halfline_eigs`), but only when that copy has at least
# max(COARSE_MIN_POINTS, COARSE_POINTS_PER_LEVEL * count) half-line points.
# Measured with one BLAS thread on the default grid, both parities, best of
# 9: 18-19 -> 9-11 ms per family at n_max 8 and 33-35 -> 16-18 ms at n_max 16
# (beta 3 and 4), against bisection of the whole problem; one more halving
# saved at most 3 ms and leaves a 1024-node grid under the size floor.  Over
# nodes {256, 1024, 2048, 8192} x beta {2.5, 3, 4, 6} x n_max {0, 1, 4, 8,
# 16, 24, 40} (208 parity solves), 60 were under the floor, 138 certified and
# 10 fell back, all on 1024 or 2048 nodes with 9-21 levels.
COARSENING = 3
COARSE_MIN_POINTS = 64
COARSE_POINTS_PER_LEVEL = 4


@dataclass(frozen=True)
class UniformGrid:
    half_width: float
    nodes: int

    def __post_init__(self):
        if self.nodes < 16 or self.nodes & (self.nodes - 1):
            raise ValueError("nodes must be a power of two (FFT-sized), >= 16")
        if not 0 < self.half_width < np.inf:
            raise ValueError("half_width must be positive and finite")

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / self.nodes

    def points(self) -> np.ndarray:
        return -self.half_width + self.step * np.arange(self.nodes)


HERMITE_GRID = UniformGrid(12.0, 4096)
# The anharmonic eigen-residual compares two discretizations of the
# conjugated operator, so its floor scales like h^2; the finer default
# keeps it comfortably below 1e-4.
ANHARMONIC_GRID = UniformGrid(8.0, 8192)


@dataclass(frozen=True)
class FunctionFamily:
    """Grid samples of a family f_0..f_n_max and its reference g_n.

    The data are f, g, hf, j_gram and signs (hf and j_gram read-only).  The
    hooks are metric_rows(rows, label) -> (L, R) with (u, v)_G = measure *
    sum L u conj(R v) row by row (a "{}" in label takes the index of the
    first refused row), half_metric(u) = e^{Q/2} u and metric(u) = e^{Q} u.
    """
    kind: ClassVar[str]
    x: np.ndarray
    step: float
    half_width: float
    n_max: int
    f: np.ndarray                  # (n_max+1, M) complex
    g: np.ndarray                  # (n_max+1, M) float, orthonormal reference
    g_parities: np.ndarray         # +/-1 parity of each g_n
    eigenvalues: np.ndarray        # lambda_n with H f_n = lambda_n f_n
    measure: float                 # quadrature weight of the metric product
    hf: np.ndarray = field(repr=False)                  # H f_n, (n_max+1, M) complex
    j_gram: np.ndarray = field(init=False, repr=False)  # [f_m, f_n] = step (P f) f*
    signs: np.ndarray = field(init=False)               # sign Re [f_n, f_n]

    def __post_init__(self):
        gram = self.step * (parity_apply(self.f) @ self.f.conj().T)
        gram.setflags(write=False)
        self.hf.setflags(write=False)
        object.__setattr__(self, "j_gram", gram)
        object.__setattr__(self, "signs", np.sign(np.real(np.diag(gram))))

    @property
    def nodes(self) -> int:
        return self.x.size


def _hermite_table(n_rows: int, z: np.ndarray) -> np.ndarray:
    """Hermite functions g_0..g_{n_rows-1} at (possibly complex) points."""
    out = np.zeros((n_rows, z.size), dtype=complex)
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * z * z)
    if n_rows > 1:
        out[1] = np.sqrt(2.0) * z * out[0]
    for n in range(1, n_rows - 1):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * z * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def quad_norm(fam: FunctionFamily, u) -> float:
    return float(np.sqrt(fam.step) * np.linalg.norm(np.asarray(u)))


def parity_apply(u) -> np.ndarray:
    """(Pu)(x) = u(-x) on the periodically identified grid, row by row."""
    u = np.asarray(u)
    m = u.shape[-1]
    return np.take(u, (-np.arange(m)) % m, axis=-1)


def frequencies(fam: FunctionFamily) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(fam.nodes, d=fam.step)


def fourier(fam: FunctionFamily, u) -> np.ndarray:
    """Continuous-normalization Fourier transform sampled at fftfreq points."""
    xi = frequencies(fam)
    phase = np.exp(1j * fam.half_width * xi)
    hat = np.fft.fft(np.asarray(u, dtype=complex))
    return np.multiply(fam.step / np.sqrt(2.0 * np.pi) * phase, hat, out=hat)


def inverse_fourier(fam: FunctionFamily, uhat) -> np.ndarray:
    xi = frequencies(fam)
    phase = np.exp(-1j * fam.half_width * xi)
    return np.sqrt(2.0 * np.pi) / fam.step * np.fft.ifft(phase * np.asarray(uhat, dtype=complex))


@dataclass(frozen=True)
class ShiftedHermiteFamily(FunctionFamily):
    """f_n(x) = g_n(x + i a); the metric is the band-gated e^{2 a xi}."""
    kind = "shifted_hermite"
    a: float
    band: float                    # every weighted spectrum lives in |xi| <= band

    def _weighted_hat(self, rows, power: float, label: str) -> np.ndarray:
        """e^{power a xi} u^ on the band (zero outside) for every row u, in
        one transform, with the decay gate at the band edge."""
        xi = frequencies(self)
        inside = np.abs(xi) <= self.band
        weighted = fourier(self, rows)
        weighted[..., ~inside] = 0.0
        weighted[..., inside] = np.exp(power * self.a * xi[inside]) * weighted[..., inside]
        mag = np.abs(np.atleast_2d(weighted)[:, inside])
        peak = np.max(mag, axis=1, initial=0.0)
        edge = np.max(mag[:, np.abs(xi[inside]) > self.band - 2.0], axis=1, initial=0.0)
        refused = np.flatnonzero(edge > BAND_EDGE_REL * peak)
        if refused.size:
            n = refused[0]
            raise FrequencyBandError(
                f"{label.format(n)}: weighted spectrum at the band edge is "
                f"{edge[n] / peak[n]:.2e} of its peak; the exponential weight "
                "would amplify unresolved tails"
            )
        return weighted

    def metric_rows(self, rows, label: str):
        """The weighted hats e^{a xi} u^ of the rows, on both sides."""
        hats = self._weighted_hat(rows, 1.0, label)
        return hats, hats

    def half_metric(self, u) -> np.ndarray:
        return inverse_fourier(self, self._weighted_hat(u, 1.0, "half_metric"))

    def metric(self, u) -> np.ndarray:
        return inverse_fourier(self, self._weighted_hat(u, 2.0, "c_action_multiplier"))


def _hermite_hf(tab: np.ndarray, x: np.ndarray, a: float) -> np.ndarray:
    """H f_n from the table f_0..f_{n_max+2}, by the derivative identities."""
    n = np.arange(tab.shape[0] - 2.0)[:, None]
    # In place, one temporary stack at a time: -u'' + (x^2 + 2iax) u.
    out = -(2.0 * n + 1.0) / 2.0 * tab[:-2]
    out[2:] += np.sqrt(n[2:] * (n[2:] - 1.0)) / 2.0 * tab[:-4]
    out += np.sqrt((n + 1.0) * (n + 2.0)) / 2.0 * tab[2:]
    np.negative(out, out=out)
    out += (x ** 2 + 2j * a * x) * tab[:-2]
    return out


def shifted_family(a: float, n_max: int,
                   grid: UniformGrid = HERMITE_GRID) -> ShiftedHermiteFamily:
    """Shifted Hermite family f_n(x) = g_n(x + i a).

    The grid must resolve the classical frequency support of the family
    plus the shift: the band sqrt(2 n + 1) + 2|a| + margin has to fit in
    half the FFT range, the reference Gram must reproduce the identity to
    1e-8, and |g_n| must have decayed at the grid edge; otherwise the
    constructor refuses.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not np.isfinite(a):
        raise ValueError("a must be finite")
    if abs(a) > 1.0:
        warnings.warn("shift |a| > 1 is outside the validated envelope", stacklevel=2)
    x = grid.points()
    n_rows = n_max + 3                   # two extra rows for second derivatives
    # The O(1) band check runs before the O(n_max) edge recurrence.
    band = np.sqrt(2.0 * (n_rows - 1) + 1.0) + 2.0 * abs(a) + BAND_MARGIN
    xi_max = np.pi / grid.step
    if band > 0.5 * xi_max:
        raise GridResolutionError(
            f"step {grid.step:.3g} too coarse: band {band:.1f} exceeds half the "
            f"FFT range {xi_max:.1f}"
        )
    edge = _hermite_table(n_rows, np.array([-grid.half_width, grid.half_width]))
    if np.max(np.abs(edge)) > EDGE_TOL:
        raise GridResolutionError(
            f"half_width {grid.half_width} too small: |g_n| = "
            f"{np.max(np.abs(edge)):.2e} at the edge"
        )
    g = _hermite_table(n_rows, x.astype(complex)).real[: n_max + 1].copy()
    ref = grid.step * (g @ g.T)
    resid = float(np.max(np.abs(ref - np.eye(n_max + 1))))
    if resid > REFERENCE_GRAM_TOL:
        raise GridResolutionError(
            f"grid under-resolved: reference Gram residual {resid:.2e}"
        )
    tab = _hermite_table(n_rows, x + 1j * a)
    return ShiftedHermiteFamily(
        x=x,
        step=grid.step,
        half_width=grid.half_width,
        n_max=n_max,
        f=tab[: n_max + 1].copy(),
        g=g,
        g_parities=np.array([(-1) ** n for n in range(n_max + 1)]),
        eigenvalues=1.0 + 2.0 * np.arange(n_max + 1, dtype=float) + float(a) ** 2,
        measure=2.0 * np.pi / (grid.nodes * grid.step),
        hf=_hermite_hf(tab, x, float(a)),
        a=float(a),
        band=float(band),
    )


# --- weighted anharmonic families -----------------------------------------

def _p_x_over_1px2():
    def p(x):
        return x / (1.0 + x * x)

    def p1(x):
        d = 1.0 + x * x
        return (1.0 - x * x) / (d * d)

    def p2(x):
        d = 1.0 + x * x
        return 2.0 * x * (x * x - 3.0) / (d * d * d)

    return p, p1, p2


def _p_tanh():
    def p(x):
        return np.tanh(x)

    def p1(x):
        return 1.0 / np.cosh(x) ** 2

    def p2(x):
        return -2.0 * np.tanh(x) / np.cosh(x) ** 2

    return p, p1, p2


BUILTIN_WEIGHTS = {
    "x_over_1px2": _p_x_over_1px2,
    "tanh": _p_tanh,
}


def _halfline_tridiagonal(v_half: np.ndarray, h: float, parity: str):
    """(diagonal, off-diagonal) of -d^2/dx^2 + V on the half line.

    parity "even" uses a reflecting condition at 0 (symmetrized with the
    sqrt(2) substitution so the matrix stays symmetric tridiagonal),
    parity "odd" a Dirichlet condition; both use Dirichlet at the far end.
    """
    inv_h2 = 1.0 / (h * h)
    if parity == "even":
        e = np.full(v_half.size - 1, -inv_h2)
        e[0] = -np.sqrt(2.0) * inv_h2
        return 2.0 * inv_h2 + v_half, e
    return 2.0 * inv_h2 + v_half[1:], np.full(v_half.size - 2, -inv_h2)


def _full_line(vec: np.ndarray, h: float, parity: str) -> np.ndarray:
    """Half-line samples (columns) of the `_halfline_tridiagonal` unknowns
    (columns of vec), signed so that the largest entry is positive and
    normalized on the full line."""
    if parity == "even":
        vec = vec.copy()
        vec[0] *= np.sqrt(2.0)           # undo the substitution: u_0 = sqrt(2) w_0
    else:
        vec = np.vstack([np.zeros(vec.shape[1]), vec])
    # Full-line norm^2 = 2h sum u^2, with the half-weight at 0 already
    # absorbed by the substitution.  Each vector is a contiguous row here, so
    # its sum takes the order of a one-dimensional np.sum.
    rows = vec.T.copy()
    lead = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)]
    rows[lead < 0] *= -1.0
    norm_sq = np.sum(rows * rows, axis=1)
    if parity == "even":
        norm_sq -= 0.5 * rows[:, 0] * rows[:, 0]
    rows /= np.sqrt(2.0 * h * norm_sq)[:, None]
    return rows.T


def _halfline_eigs(v_half: np.ndarray, h: float, parity: str, count: int):
    """(eigenvalues, vectors, radii): the lowest `count` eigenpairs of the
    `_halfline_tridiagonal` operator T on step h, with the eigenvectors as
    half-line samples normalized on the full line (`_full_line`).

    The levels are bisected on the copy of the problem with step
    2**COARSENING * h, whose potential v_half[::2**COARSENING] holds the
    same samples.  The coarse eigenvectors, prolonged to step h, are refined
    on T and certified by `_rayleigh_brackets`, and one QR orthonormalizes
    them: with the sqrt(2) substitution, Euclidean orthogonality of the
    unknowns is orthogonality on the full line.  When the coarse copy has
    fewer than max(COARSE_MIN_POINTS, COARSE_POINTS_PER_LEVEL * count)
    points or the certificate fails, T itself is bisected and radii is None.
    """
    # Deferred: importing scipy.linalg costs more than numpy itself, and only
    # the anharmonic family reaches this solver.
    from scipy.linalg import eigh_tridiagonal

    d, e = _halfline_tridiagonal(v_half, h, parity)
    stride = 2 ** COARSENING
    if v_half.size // stride >= max(COARSE_MIN_POINTS, COARSE_POINTS_PER_LEVEL * count):
        _, vec = eigh_tridiagonal(*_halfline_tridiagonal(v_half[::stride], stride * h, parity),
                                  select="i", select_range=(0, count - 1))
        # _full_line turns the coarse unknowns into the samples _prolong reads.
        starts = _prolong(_full_line(vec, stride * h, parity), parity, COARSENING)
        levels = _rayleigh_brackets(d, e, starts)
        if levels is not None:
            w, radii, rows = levels
            return w, _full_line(np.linalg.qr(rows.T)[0], h, parity), radii
    w, vec = eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1))
    return w, _full_line(vec, h, parity), None


def _prolong(vec: np.ndarray, parity: str, times: int) -> np.ndarray:
    """Half-line samples on step h (columns of vec), linearly interpolated
    onto step h / 2**times as rows of the unknowns of `_halfline_tridiagonal`
    there."""
    fine = vec.T
    for _ in range(times):
        coarse = fine
        fine = np.empty((coarse.shape[0], 2 * coarse.shape[1]))
        fine[:, 0::2] = coarse
        fine[:, 1:-1:2] = 0.5 * (coarse[:, :-1] + coarse[:, 1:])
        fine[:, -1] = 0.5 * coarse[:, -1]    # the Dirichlet value 0 at |x| = L
    if parity == "even":
        fine[:, 0] /= np.sqrt(2.0)       # back to the symmetrized w_0 = u_0 / sqrt(2)
        return fine
    return fine[:, 1:]                   # the odd problem has no unknown at x = 0


def _rayleigh_brackets(d: np.ndarray, e: np.ndarray, x: np.ndarray):
    """(sigma, radius, vectors): the lowest x.shape[0] eigenvalues of the
    tridiagonal T = (d, e) in ascending order with their certified radii and
    unit approximate eigenvectors (rows), refined from the start vectors (the
    rows of x), or None.

    Rayleigh-quotient iteration runs from each row.  A level stops iterating
    once its residual is within slack = BRACKET_SLACK * eps * ||T||_1, and
    at the latest after RQI_STEPS solves; it keeps its best iterate, with
    Rayleigh quotient sigma and residual r.  By the residual theorem an
    eigenvalue lies within radius r + slack of sigma.  When these k brackets
    are disjoint and one Sturm count finds exactly k eigenvalues up to the
    top of the last, bracket j holds the j-th lowest eigenvalue.  None when
    they do not, or when a solve breaks down.
    """
    from scipy.linalg.lapack import dgtsv    # deferred, as in _halfline_eigs

    low, norm = _gershgorin(d, e)
    slack = BRACKET_SLACK * np.finfo(float).eps * norm
    sigma = np.full(x.shape[0], np.nan)
    r_best = np.full(x.shape[0], np.inf)
    best = np.empty_like(x)
    levels = np.arange(x.shape[0])
    for step in range(RQI_STEPS + 1):
        xs = x[levels]
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        tx = d * xs
        tx[:, :-1] += e * xs[:, 1:]
        tx[:, 1:] += e * xs[:, :-1]
        q = np.einsum("ij,ij->i", xs, tx)
        tx -= q[:, None] * xs
        r = np.sqrt(np.einsum("ij,ij->i", tx, tx))
        better = r < r_best[levels]
        sigma[levels[better]], r_best[levels[better]] = q[better], r[better]
        best[levels[better]] = xs[better]
        keep = r_best[levels] > slack
        if step == RQI_STEPS or not np.any(keep):
            break
        for j, shift, v in zip(levels[keep], q[keep], xs[keep]):
            *_, y, info = dgtsv(e, d - shift, e, v[:, None], overwrite_d=1, overwrite_b=1)
            if info:
                return None
            x[j] = y[:, 0]
        levels = levels[keep]
    order = np.argsort(sigma)
    sigma, radius = sigma[order], r_best[order] + slack
    lo, hi = sigma - radius, sigma + radius
    if (np.all(np.isfinite(hi)) and np.all(lo[1:] > hi[:-1])
            and _count_up_to(d, e, low - 1.0, hi[-1]) == sigma.size):
        return sigma, radius, best[order]
    return None


def _gershgorin(d: np.ndarray, e: np.ndarray):
    """(lower Gershgorin bound, ||T||_1) of the symmetric tridiagonal (d, e)."""
    off = np.zeros(d.size)
    off[:-1] += np.abs(e)
    off[1:] += np.abs(e)
    return np.min(d - off), np.max(np.abs(d) + off)


def _count_up_to(d: np.ndarray, e: np.ndarray, floor: float, top: float):
    """How many eigenvalues of the tridiagonal (d, e) lie in (floor, top], by
    one `dstebz` Sturm count, or None when dstebz reports a failure."""
    from scipy.linalg.lapack import dstebz           # deferred, as in _halfline_eigs

    # A tolerance wider than (floor, top] makes dstebz count, not bisect.
    found, *_, info = dstebz(d, e, 1, floor, top, 0, 0, 2.0 * (top - floor), "E")
    return found if info == 0 else None


def _halved_step_eigs(v_fine: np.ndarray, h: float, parity: str, vec: np.ndarray):
    """(eigenvalues, radii): the lowest vec.shape[1] eigenvalues of the
    `_halfline_tridiagonal` operator on step h, refined by
    `_rayleigh_brackets` from the eigenvectors `vec` of `_halfline_eigs` on
    step 2h, prolonged.  When the certificate fails, the eigenvalues come
    from bisection and radii is None.
    """
    from scipy.linalg import eigh_tridiagonal         # deferred, as in _halfline_eigs

    d, e = _halfline_tridiagonal(v_fine, h, parity)
    levels = _rayleigh_brackets(d, e, _prolong(vec, parity, 1))
    if levels is not None:
        return levels[:2]
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                            select_range=(0, vec.shape[1] - 1)), None


def merged_counts(n_max: int) -> tuple[int, int]:
    """(even, odd) level counts among the n_max + 1 lowest levels when the
    levels alternate in parity from an even ground state."""
    return (n_max + 2) // 2, (n_max + 1) // 2


def halfline_levels(beta: float, grid: UniformGrid, counts):
    """The half-line solves of `anharmonic_family`, for the even and then
    the odd parity: (w, u, radii, w_fine, fine_radii) with (w, u) the lowest
    counts[0] even / counts[1] odd eigenpairs of `_halfline_eigs` on the
    grid and their certified radii, and w_fine the eigenvalues on its halved
    step with theirs (`_halved_step_eigs`).  A parity with count 0 solves
    nothing."""
    h, half = grid.step, grid.nodes // 2
    v_half = np.abs(h * np.arange(half)) ** beta
    v_half2 = np.abs(0.5 * h * np.arange(2 * half)) ** beta
    levels = []
    for parity, count in zip(("even", "odd"), counts):
        if count == 0:
            levels.append((np.empty(0), np.empty((v_half.size, 0)), np.empty(0),
                           np.empty(0), np.empty(0)))
            continue
        w, u, radii = _halfline_eigs(v_half, h, parity, count)
        levels.append((w, u, radii, *_halved_step_eigs(v_half2, 0.5 * h, parity, u)))
    return levels


def merge_certified(beta: float, grid: UniformGrid, levels) -> bool:
    """Whether the coarse levels of `halfline_levels` are, for each parity,
    every level of that parity up to the highest of them all: one Sturm
    count per parity over (Gershgorin floor - 1, top + BRACKET_SLACK * eps *
    ||T||_1] must find exactly the levels solved.  The slack makes a level
    that rounding could put below the top fail the certificate."""
    v_half = np.abs(grid.step * np.arange(grid.nodes // 2)) ** beta
    top = np.max(np.concatenate([w for w, *_ in levels]))
    for parity, (w, *_) in zip(("even", "odd"), levels):
        d, e = _halfline_tridiagonal(v_half, grid.step, parity)
        low, norm = _gershgorin(d, e)
        if _count_up_to(d, e, low - 1.0, top + BRACKET_SLACK * np.finfo(float).eps * norm) != w.size:
            return False
    return True


def merge_levels(levels, n_max: int):
    """(eigenvalues, parities, Richardson errors, g rows) of the n_max + 1
    lowest levels of the half-line solves `levels` (`halfline_levels`).

    The branches are merged by eigenvalue.  The odd branch comes first, so
    on an exact tie the stable sort orders levels by (eigenvalue, parity,
    index).  Levels closer than 1e-8 relative are refused.
    """
    (w_even, u_even, _, w_even2, _), (w_odd, u_odd, _, w_odd2, _) = levels
    w_all = np.concatenate([w_odd, w_even])
    order = np.argsort(w_all, kind="stable")[: n_max + 1]
    eigs = w_all[order]
    gaps = np.diff(eigs)
    if np.any(gaps < 1e-8 * np.maximum(1.0, np.abs(eigs[1:]))):
        raise ParityMixingError(
            "even/odd eigenvalue branches are too close to separate reliably"
        )
    parities = np.where(order < w_odd.size, -1, 1)
    richardson = np.abs(w_all - np.concatenate([w_odd2, w_even2]))[order] / 3.0

    # Map half-line solutions onto the full grid, with the Dirichlet value
    # 0 at |x| = L in the last column.
    half = u_even.shape[0]
    u_rows = np.zeros((n_max + 1, half + 1))
    u_rows[:, :half] = np.hstack([u_odd, u_even])[:, order].T
    offset = np.arange(2 * half) - half
    g = np.take(u_rows, np.abs(offset), axis=1)
    g[parities < 0] *= np.sign(offset)
    return eigs, parities, richardson, g


@dataclass(frozen=True)
class AnharmonicFamily(FunctionFamily):
    """f_n = e^{p} g_n for |x|^beta; the metric is the weight e^{-2p}."""
    kind = "weighted_anharmonic"
    beta: float
    p_name: str
    p_funcs: tuple = field(repr=False)       # (p, p', p'')
    richardson_error: np.ndarray

    def metric_rows(self, rows, label: str):
        """(e^{-2p} rows, rows): the weight needs no band gate."""
        return rows * np.exp(-2.0 * self.p_funcs[0](self.x)), rows

    def half_metric(self, u) -> np.ndarray:
        return np.exp(-self.p_funcs[0](self.x)) * np.asarray(u)

    def metric(self, u) -> np.ndarray:
        return np.exp(-2.0 * self.p_funcs[0](self.x)) * u


def _anharmonic_hf(f: np.ndarray, x: np.ndarray, h: float, beta: float, p1, p2) -> np.ndarray:
    """H f_n for every row: the finite-difference conjugated operator
    -u'' + (|x|^beta + p'' - p'^2) u + 2 p' u'."""
    # In place, one temporary stack at a time, in the one-expression order.
    out = np.roll(f, 1, axis=1)
    out -= 2.0 * f
    out += np.roll(f, -1, axis=1)
    out /= h * h
    np.negative(out, out=out)
    out += (np.abs(x) ** beta + p2(x) - p1(x) ** 2) * f
    d1 = np.roll(f, -1, axis=1)
    d1 -= np.roll(f, 1, axis=1)
    d1 /= 2.0 * h
    d1 *= 2.0 * p1(x)
    out += d1
    return out


def anharmonic_family(beta: float, p_name: str = "x_over_1px2", n_max: int = 8,
                      grid: UniformGrid = ANHARMONIC_GRID) -> AnharmonicFamily:
    """Weighted anharmonic family f_n = e^{p} g_n.

    g_n are finite-difference eigenfunctions of -d^2/dx^2 + |x|^beta,
    computed on the half line with explicit even/odd boundary conditions so
    each one has exact parity, from a coarser copy refined on the grid
    (`_halfline_eigs`).  Only the levels the merge keeps are solved
    (`merged_counts`), when `merge_certified` shows they are the lowest;
    otherwise each parity solves n_max + 2.  The Richardson step-halving
    estimate of the eigenvalue discretization error,
    |lambda_h - lambda_{h/2}| / 3, reads the eigenvalues on the halved step
    from the coarse eigenpairs refined there (`_halved_step_eigs`).  p must
    be a bounded odd weight from BUILTIN_WEIGHTS.
    """
    if not 2.0 < beta < np.inf:
        raise ValueError("beta must exceed 2 and be finite")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max + 2 > grid.nodes // 2 - 1:      # fallback eigenpairs per parity vs held
        raise ValueError(f"n_max {n_max} is too large for the {grid.nodes}-node grid: its odd "
                         f"half-line problem holds {grid.nodes // 2 - 1} eigenpairs, so n_max "
                         f"must be at most {grid.nodes // 2 - 3}")
    if p_name not in BUILTIN_WEIGHTS:
        raise ValueError(f"unknown weight {p_name!r}; choose from {sorted(BUILTIN_WEIGHTS)}")
    p, p1, p2 = BUILTIN_WEIGHTS[p_name]()
    x = grid.points()
    h = grid.step
    # The coarse eigenpairs give g_n; refined on the halved step, they give
    # the Richardson estimate of the eigenvalue discretization error.
    levels = halfline_levels(beta, grid, merged_counts(n_max))
    if not merge_certified(beta, grid, levels):
        levels = halfline_levels(beta, grid, (n_max + 2, n_max + 2))
    eigs, parities, richardson, g = merge_levels(levels, n_max)

    # Odd weight and growth envelope |p^(k)| <= C (1+x^2)^{(alpha-k)/2},
    # alpha < beta/2 + 1, checked numerically on the grid.
    if np.max(np.abs(p(x) + p(-x))) > 1e-12:
        raise InvariantViolation("weight exponent p must be odd")
    alpha_cap = beta / 2.0 + 1.0
    outer = np.abs(x) >= grid.half_width / 2.0
    for k, deriv in enumerate((p, p1, p2)):
        vals = np.abs(deriv(x[outer]))
        envelope = (1.0 + x[outer] ** 2) ** ((alpha_cap - 0.1 - k) / 2.0)
        if np.any(vals > np.maximum(10.0, 10.0 * envelope)):
            warnings.warn(
                f"weight derivative order {k} exceeds the admissible growth envelope",
                stacklevel=2,
            )
    f = (np.exp(p(x))[None, :] * g).astype(complex)
    return AnharmonicFamily(
        x=x,
        step=h,
        half_width=grid.half_width,
        n_max=n_max,
        f=f,
        g=g,
        g_parities=parities,
        eigenvalues=eigs,
        measure=h,
        hf=_anharmonic_hf(f, x, h, float(beta), p1, p2),
        beta=float(beta),
        p_name=p_name,
        p_funcs=(p, p1, p2),
        richardson_error=richardson,
    )


# --- metric-side machinery --------------------------------------------------

def metric_inner(fam: FunctionFamily, u, v) -> complex:
    """(u, v)_G = measure * sum L u conj(R v), linear in u."""
    left, _ = fam.metric_rows(np.asarray(u)[None], "metric_inner(u)")
    _, right = fam.metric_rows(np.asarray(v)[None], "metric_inner(v)")
    return complex(fam.measure * np.sum(left[0] * np.conj(right[0])))


def metric_norm(fam: FunctionFamily, u) -> float:
    val = np.real(metric_inner(fam, u, u))
    return float(np.sqrt(max(val, 0.0)))


def indefinite_gram(fam: FunctionFamily) -> np.ndarray:
    """Matrix of [f_m, f_n] = integral f_m(-x) conj(f_n(x)) dx (read-only)."""
    return fam.j_gram


def sign_pattern(fam: FunctionFamily):
    """(sigma, max_offdiag, j_orthonormal) with sigma = fam.signs.

    The family is J-orthonormal when the indefinite Gram is diag(sigma)
    within J_ORTHONORMAL_TOL.  Measured, never assumed.
    """
    dev = float(np.max(np.abs(fam.j_gram - np.diag(fam.signs))))
    return fam.signs, dev, dev <= J_ORTHONORMAL_TOL


def metric_gram(fam: FunctionFamily) -> np.ndarray:
    """Metric Gram (f_m, f_n)_G."""
    left, right = fam.metric_rows(fam.f, "metric_gram(f_{})")
    return fam.measure * (left @ right.conj().T)


def weighted_gram(fam: FunctionFamily) -> np.ndarray:
    """Metric Gram (e^{-2p} f_m, f_n) of the anharmonic family."""
    if not isinstance(fam, AnharmonicFamily):
        raise ValueError("the position-weighted route applies to the anharmonic family")
    return metric_gram(fam)


def eigen_residual(fam: FunctionFamily) -> tuple[np.ndarray, np.ndarray]:
    """Relative residuals ||H f_n - lambda_n f_n|| / ||f_n|| per index."""
    lam = fam.eigenvalues.copy()
    defect = fam.hf - lam[:, None] * fam.f
    residuals = np.array([quad_norm(fam, d) / quad_norm(fam, f)
                          for d, f in zip(defect, fam.f)])
    return lam, residuals


def span_residual(fam: FunctionFamily, u) -> float:
    """Relative distance of u from span{f_0..f_n_max} in the plain norm:
    |R[k, k]| / ||u|| from the R factor of the QR of [f_0 .. f_n_max | u],
    the norm of the part of u orthogonal to the span, with no cancellation.

    R is built over blocks of SPAN_QR_ROWS grid rows, each block's QR taking
    the R so far as its first rows (tall-skinny QR), so that no copy of the
    whole M x (k + 1) matrix is made."""
    u = np.asarray(u, dtype=complex)
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        return 0.0
    r = np.empty((0, fam.f.shape[0] + 1), dtype=complex)
    for start in range(0, u.size, SPAN_QR_ROWS):
        rows = slice(start, start + SPAN_QR_ROWS)
        r = np.linalg.qr(np.vstack([r, np.column_stack([fam.f[:, rows].T, u[rows]])]), mode="r")
    return float(abs(r[-1, -1]) / nrm)


def c_action(fam: FunctionFamily, u) -> np.ndarray:
    """C u = sum_n [u, f_n] f_n (finite-span conjugation).

    Warns when u is not numerically in the span: the truncated C only
    represents the limiting operator there.
    """
    u = np.asarray(u, dtype=complex)
    resid = span_residual(fam, u)
    if resid > SPAN_WARN_TOL:
        warnings.warn(
            f"c_action target lies outside the span (residual {resid:.2e})",
            stacklevel=2,
        )
    flipped_u = parity_apply(u)
    coeffs = fam.step * (fam.f.conj() @ flipped_u)   # [u, f_n] = (Ju, f_n)
    return fam.f.T @ coeffs


def c_action_multiplier(fam: FunctionFamily, u) -> np.ndarray:
    """C = J e^Q through the metric-multiplier route (cross-check)."""
    return parity_apply(fam.metric(np.asarray(u, dtype=complex)))


@dataclass(frozen=True)
class ExpansionReport:
    coefficients: np.ndarray
    g_errors: np.ndarray            # truncation error in the metric norm
    plain_errors: np.ndarray        # error of the e^{Q/2}-mapped series
    span_residual: float


def expansion(fam: FunctionFamily, target) -> ExpansionReport:
    """Expand target as sum_n [target, C f_n] f_n and report truncation errors.

    g_errors[m] is the metric-norm error using terms 0..m; plain_errors[m]
    is the plain-norm error of the mapped series e^{Q/2} target ~ sum c_n g_n.
    Both are non-increasing in m because the f_n are metric-orthonormal.
    The metric rows of the target and of the family are gated once, and
    those of each residual follow from them by linearity.
    """
    target = np.asarray(target, dtype=complex)
    if not np.all(np.isfinite(target)):
        raise ValueError("target must be finite")
    left, right = fam.metric_rows(target[None], "expansion(target)")
    f_left, f_right = fam.metric_rows(fam.f, "expansion(f_{})")
    flipped = parity_apply(target)
    coeffs = fam.signs * (fam.step * (fam.f.conj() @ flipped))
    mapped_target = fam.half_metric(target)
    g_errors = np.empty(fam.n_max + 1)
    plain_errors = np.empty(fam.n_max + 1)
    mapped_partial = np.zeros(fam.nodes, dtype=complex)
    for m in range(fam.n_max + 1):
        left = left - coeffs[m] * f_left[m]
        right = right - coeffs[m] * f_right[m]
        mapped_partial = mapped_partial + coeffs[m] * fam.g[m]
        g_errors[m] = np.sqrt(max(fam.measure * np.real(np.sum(left * np.conj(right))), 0.0))
        plain_errors[m] = quad_norm(fam, mapped_target - mapped_partial)
    return ExpansionReport(coeffs, g_errors, plain_errors, span_residual(fam, target))


def h_gram_in_g(fam: FunctionFamily) -> np.ndarray:
    """A[m, n] = (H f_n, f_m)_G: Hermitian and diagonal when H is symmetric
    in the metric product on the span."""
    _, right = fam.metric_rows(fam.f, "h_gram(f_{})")
    left, _ = fam.metric_rows(fam.hf, "h_gram(Hf_{})")
    return fam.measure * (left @ right.conj().T).T


def biorthogonal_gram(fam: FunctionFamily) -> np.ndarray:
    """(f_m, gamma_n) with gamma_n = sigma_n J f_n, that is j_gram* diag(sigma);
    the identity when the family is J-orthonormal."""
    return fam.j_gram.conj().T * fam.signs[None, :]
