"""Reference computations used only by the test suite.

Everything here is deliberately low-tech and self-contained: feasibility
bisection on eigenvalue constraints, explicit Hermite polynomial
coefficients, dense finite-difference eigensolves, a report encoder that
formats one value per call, one eigendecomposition per function of a
matrix.  None of it shares an algorithm with the package routines it
cross-checks, so agreement between the two routes is evidence rather than
tautology; where a verdict must agree, the package's thresholds are
imported rather than restated.  The exception is the per-call Gram, the
biorthogonal product and the two H f bodies: they are the routes that a
quasi-basis family's measured `j_gram` and `hf` replaced, kept to show that
the stored data are the same numbers; likewise the inline assembly of both
Krein-interval endpoints, which their first-read properties replaced.  The
sequence model's interval width is also summed in mpmath, from the exact
profile rather than the stored one, and so are the dyadic partial sums of
its reachability series.
"""

import functools
import importlib.util
import json
import math
from pathlib import Path

import mpmath
import numpy as np
from numpy.polynomial import hermite as npherm
from scipy.linalg import eigh_tridiagonal

from kreinlab._linalg import RANK_RCOND, STRUCT_TOL, hermitize
from kreinlab.angular import PartialContraction
from kreinlab.extensions import _completion
from kreinlab.gmetric import KERNEL_RCOND
from kreinlab.quasibasis import _hermite_table, parity_apply

FEAS_SLACK = 1e-12


def perfbench_gen():
    """The benchmark's seeded input generator `perfbench/gen.py`, loaded by
    path (it is not a package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def inline_endpoints(t0):
    """(T_mu, T_M) by the expressions `krein_interval` evaluated inline on
    every call before the endpoints were formed on first read."""
    e, p, b, _, c_max, *_ = _completion(t0)
    d = t0.domain
    t_m = hermitize(t0.action @ d.conj().T + (d @ b.conj().T + e @ c_max) @ e.conj().T)
    w_plus, v_plus = np.linalg.eigh(2.0 * c_max[:p, :p])
    w_minus, v_minus = np.linalg.eigh(2.0 * c_max[p:, p:])
    w = np.concatenate([w_plus, w_minus])
    u = np.hstack([e[:, :p] @ v_plus, e[:, p:] @ v_minus])
    return hermitize(t_m - (u * w) @ u.conj().T), t_m


def formed_contraction(t0):
    """The dense PartialContraction of a model's formed matrices, so that
    krein_interval takes the block completion on model data."""
    return PartialContraction(t0.space, t0.domain, t0.action)


def mp_model_width(spec, dps: int = 50) -> np.ndarray:
    """The model interval's W eigenvalues (`delta_values`) at `dps` digits
    from the exact alpha_n = 1 - 1/n and c_n = n^-delta / ||n^-delta||:
    1 / sum c^2/(1 + alpha) + 1 / sum c^2/(1 - alpha) on both J blocks, or
    2 / sum c^2/(1 - alpha^2) on chi_- alone (chi_plus_zero)."""
    with mpmath.workdps(dps):
        n = [mpmath.mpf(k) for k in range(1, spec.n_pairs + 1)]
        weight = [k ** (-2 * mpmath.mpf(spec.delta)) for k in n]
        scale = mpmath.fsum(weight)
        alpha = [1 - 1 / k for k in n]
        if spec.variant == "chi_plus_zero":
            return np.array([float(2 * scale / mpmath.fsum(
                w / (1 - a * a) for w, a in zip(weight, alpha)))])
        width = sum(scale / mpmath.fsum(w / (1 + sign * a) for w, a in zip(weight, alpha))
                    for sign in (1, -1))
        return np.array([float(width)] * 2)


@functools.lru_cache(maxsize=None)
def mp_partial_sums(delta: float, max_exponent: int, dps: int = 40) -> np.ndarray:
    """S_N = sum_{n <= N} n^(2 - 2 delta) / (2n - 1) at N = 2, 4, ...,
    2^max_exponent at `dps` digits: an exact `mpmath.fsum` of the terms up to
    2^12, and `mpmath.sumem` over each dyadic block beyond."""
    with mpmath.workdps(dps):
        p = 2 - 2 * mpmath.mpf(delta)

        def term(x):
            return x ** p / (2 * x - 1)

        total, sums = mpmath.mpf(0), []
        for e in range(1, max_exponent + 1):
            lo, hi = 2 ** (e - 1) + (e > 1), 2 ** e
            if hi <= 2 ** 12:
                total += mpmath.fsum(term(mpmath.mpf(k)) for k in range(lo, hi + 1))
            else:
                total += mpmath.sumem(term, [lo, hi])
            sums.append(float(total))
    sums = np.array(sums)
    sums.flags.writeable = False            # cached: every caller gets this array
    return sums


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


def multi_eigh_route(domain, t, x) -> dict:
    """Extremality, density and metric quantities of an extension T, each
    function of T from its own eigendecomposition: G = (I - T)(I + T)^{-1}
    from eigh(T), rank G from eigvalsh(G), G^{1/2} from eigh(G), and ran Xi,
    Xi = (I - T^2)^{1/2} from eigh(I - T^2).  The package reads all of them
    from one eigh of T; the thresholds are the package's."""
    n = t.shape[0]
    eye = np.eye(n)
    t = 0.5 * (t + t.conj().T)
    out = {"extremal": bool(np.linalg.norm(x @ x - x, 2) <= STRUCT_TOL) if x.size else True}

    xi_sq = eye - t @ t
    w, v = np.linalg.eigh(0.5 * (xi_sq + xi_sq.conj().T))
    top = max(float(w[-1]), 0.0)
    ran = v[:, w > RANK_RCOND * top] if top > 0.0 else v[:, :0]
    comp = complement_basis(domain)
    out["dense"] = (top == 0.0 or comp.shape[1] == 0 or ran.shape[1] == 0
                    or np.linalg.norm(ran.conj().T @ comp, 2) < 1.0 - STRUCT_TOL)
    out["xi"] = psd_root(xi_sq)

    w, v = np.linalg.eigh(t)
    out["cayley_defined"] = bool(np.min(1.0 + w) >= STRUCT_TOL)
    if not out["cayley_defined"]:
        out["rank_criterion"] = None
        return out
    g = (v * ((1.0 - w) / (1.0 + w))) @ v.conj().T
    out["g"] = g = 0.5 * (g + g.conj().T)
    gw = np.linalg.eigvalsh(g)
    top = float(gw[-1])
    kernel = gw <= KERNEL_RCOND * max(top, 1.0)
    out["degenerate"], out["kernel_dim"] = bool(kernel.any()), int(kernel.sum())
    rank_g = int(np.sum(gw > STRUCT_TOL * top)) if top > 0.0 else 0
    u, s, _ = np.linalg.svd((eye + t) @ domain, full_matrices=False)
    fu = u[:, :int(np.sum(s > RANK_RCOND * s[0]))] if s.size and s[0] > 0.0 else u[:, :0]
    if fu.shape[1] == 0 or top <= 0.0:
        rank_gf = 0
    else:
        sv = np.linalg.svd(psd_root(g) @ fu, compute_uv=False)
        rank_gf = int(np.sum(sv * sv > STRUCT_TOL * top))
    out["rank_criterion"] = rank_gf == rank_g
    return out


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


def full_line_loop(vec, h: float, parity: str):
    """The half-line unknowns (columns of vec) back to samples, each signed
    and normalized on the full line in its own loop pass, as
    `quasibasis._full_line` does for all of them at once."""
    count = vec.shape[1]
    if parity == "even":
        vec = vec.copy()
        vec[0] *= np.sqrt(2.0)
    else:
        vec = np.vstack([np.zeros(count), vec])
    for k in range(count):
        u = vec[:, k]
        lead = u[np.argmax(np.abs(u))]
        if lead < 0:
            u *= -1.0
        norm_sq = 2.0 * h * (np.sum(u * u) - (0.5 * u[0] * u[0] if parity == "even" else 0.0))
        vec[:, k] = u / np.sqrt(norm_sq)
    return vec


def exact_count_below(d, e, c: float) -> int:
    """How many eigenvalues of the symmetric tridiagonal (d, e) lie below c,
    in exact arithmetic on the stored floats.

    Every float is a dyadic rational, so scaling by the largest denominator
    makes d - c and e integral, and the leading principal minors of T - cI
    follow from their three-term recurrence in integers.  Their sign
    changes count the eigenvalues below c (Sturm).

    The recurrence stops early where the rest of T - cI is positive
    definite: once the pivot p_k = minor_{k+1} / minor_k is at least |e_k|
    and every later row i is strictly diagonally dominant, d_i - c >
    |e_{i-1}| + |e_i|, each later pivot p_i >= d_i - c - e_{i-1}^2 / p_{i-1}
    >= d_i - c - |e_{i-1}| exceeds |e_i| in turn, so no sign change follows.
    """
    ratios = [float(v).as_integer_ratio() for v in (*d, *e, c)]
    scale = max(den for _, den in ratios)
    num = [n * (scale // den) for n, den in ratios]
    size = len(d)
    shifted = [v - num[-1] for v in num[:size]]
    offs = [abs(v) for v in num[size:-1]] + [0]
    # dominant[k]: rows k.. of T - cI are strictly diagonally dominant.
    dominant = [True] * (size + 1)
    for k in range(size - 1, -1, -1):
        dominant[k] = dominant[k + 1] and shifted[k] > (offs[k - 1] if k else 0) + offs[k]
    prev, cur = 1, shifted[0]
    changes = int(cur < 0)
    for k in range(1, size):
        if cur == 0:
            raise ValueError("c is an eigenvalue of a leading principal submatrix")
        if dominant[k] and (cur > 0) == (prev > 0) and abs(cur) >= offs[k - 1] * abs(prev):
            return changes
        prev, cur = cur, shifted[k] * cur - offs[k - 1] ** 2 * prev
        changes += (cur < 0) != (prev < 0)
    if cur == 0:
        raise ValueError("c is an eigenvalue")
    return changes


def halfline_merge_loop(even, odd, even_estimates, odd_estimates, n_max: int):
    """(eigenvalues, parities, estimates, g rows) of the anharmonic family
    from its half-line solves, one level at a time.

    `even` and `odd` are (eigenvalues, half-line vectors) on the grid,
    `even_estimates` and `odd_estimates` the rows (Richardson error,
    extrapolated eigenvalue, its error) of those levels.  The levels are
    merged by sorting (eigenvalue, parity, index) tuples, and each g row is
    mapped onto the full grid on its own.
    """
    (w_even, u_even), (w_odd, u_odd) = even, odd
    half = u_even.shape[0]
    merged = sorted([(w_even[k], 1, k) for k in range(w_even.size)]
                    + [(w_odd[k], -1, k) for k in range(w_odd.size)])[: n_max + 1]
    eigs = np.array([t[0] for t in merged])
    parities = np.array([t[1] for t in merged])
    estimates = np.array([(even_estimates if s > 0 else odd_estimates)[:, k]
                          for _, s, k in merged]).T
    offset = np.arange(2 * half) - half
    rows = []
    for _, s, k in merged:
        u = np.concatenate([(u_even if s > 0 else u_odd)[:, k], [0.0]])
        row = u[np.abs(offset)]
        rows.append(row * np.sign(offset) if s < 0 else row)
    return eigs, parities, estimates, np.array(rows)


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


def per_cutoff_expansion_errors(fam, target, coeffs) -> np.ndarray:
    """||target - sum_{n <= m} c_n f_n||_G for every cutoff m, one residual
    at a time, each through its own ungated weighted norm.

    For the shifted Hermite family the norm is ||e^{a xi} u^|| over the band
    |xi| <= band, with u^ from a plain DFT (the unit-modulus grid phase drops
    out of the norm); for the anharmonic family it is the quadrature sum of
    e^{-2p} |u|^2.  The package instead gates two row stacks once and reads
    every error from them by linearity.
    """
    if fam.kind == "shifted_hermite":
        xi = 2.0 * np.pi * np.fft.fftfreq(fam.nodes, d=fam.step)
        band = np.abs(xi) <= fam.band
        weight = np.exp(2.0 * fam.a * xi[band])
        dxi = 2.0 * np.pi / (fam.nodes * fam.step)

        def norm_sq(u):
            spectrum = np.abs(np.fft.fft(u)[band]) ** 2
            return dxi * fam.step ** 2 / (2.0 * np.pi) * np.sum(weight * spectrum)
    else:
        weight = np.exp(-2.0 * fam.p_funcs[0](fam.x))

        def norm_sq(u):
            return fam.step * np.sum(weight * np.abs(u) ** 2)

    errors = []
    partial = np.zeros(fam.nodes, dtype=complex)
    for c, f in zip(coeffs, fam.f):
        partial = partial + c * f
        errors.append(math.sqrt(max(float(norm_sq(target - partial)), 0.0)))
    return np.array(errors)


def _reference_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in report")
    out = format(float(x), ".17g")
    if "e" not in out and "E" not in out and "." not in out:
        out += ".0"
    return out


def _reference_encode(obj, parts: list) -> None:
    if obj is None or isinstance(obj, (bool, np.bool_)):
        parts.append(json.dumps(bool(obj)) if obj is not None else "null")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_reference_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValueError("report keys must be strings")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key) + ": ")
            _reference_encode(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        parts.append("[")
        for i, item in enumerate(seq):
            if i:
                parts.append(", ")
            _reference_encode(item, parts)
        parts.append("]")
    else:
        raise ValueError(f"cannot serialize object of type {type(obj)!r}")


def reference_dumps_report(obj) -> str:
    """The report text built one value per recursive call: sorted keys,
    `format(x, ".17g")` floats with ".0" on integral ones, ", " and ": "
    separators, a final newline.  The package formats float arrays in bulk;
    the two must agree byte for byte."""
    parts: list = []
    _reference_encode(obj, parts)
    parts.append("\n")
    return "".join(parts)


def indefinite_gram_product(f, step) -> np.ndarray:
    """[f_m, f_n] = step (P f) f*, the product a reader formed on every call
    before the family measured its Gram once."""
    return step * (parity_apply(f) @ f.conj().T)


def biorthogonal_product(f, step, signs) -> np.ndarray:
    """(f_m, sigma_n J f_n) as its own product of f with P f."""
    return step * (f @ np.conj(parity_apply(f).T)) * signs[None, :]


def hermite_apply_h(a: float, x, n_max: int) -> np.ndarray:
    """H f_n of the shifted Hermite family from its n_max + 3 row table, on a
    table of its own."""
    tab = _hermite_table(n_max + 3, x + 1j * a)
    n = np.arange(n_max + 1.0)[:, None]
    out = -(2.0 * n + 1.0) / 2.0 * tab[:-2]
    out[2:] += np.sqrt(n[2:] * (n[2:] - 1.0)) / 2.0 * tab[:-4]
    out += np.sqrt((n + 1.0) * (n + 2.0)) / 2.0 * tab[2:]
    np.negative(out, out=out)
    out += (x ** 2 + 2j * a * x) * tab[:-2]
    return out


def anharmonic_apply_h(f, x, h: float, beta: float, p_funcs) -> np.ndarray:
    """The finite-difference conjugated operator on every row, as one
    expression."""
    _, p1, p2 = p_funcs
    d2 = (np.roll(f, 1, axis=1) - 2.0 * f + np.roll(f, -1, axis=1)) / (h * h)
    d1 = (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2.0 * h)
    v = np.abs(x) ** beta
    return -d2 + (v + p2(x) - p1(x) ** 2) * f + 2.0 * p1(x) * d1


def span_residual_lstsq(fam, u) -> float:
    """Relative distance of u from span{f_0..f_n_max} as the residual of the
    least-squares fit of u by the family, where `quasibasis.span_residual`
    reads it from one R factor."""
    u = np.asarray(u, dtype=complex)
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        return 0.0
    coeffs = np.linalg.lstsq(fam.f.T, u, rcond=None)[0]
    return float(np.linalg.norm(u - fam.f.T @ coeffs) / nrm)
