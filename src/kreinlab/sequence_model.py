"""Two-parameter sequence-space model family.

On pairs (gamma_n^+, gamma_n^-), n = 1..N, with J = diag(+1, -1) per pair,
the anticommuting contraction acts by

    T gamma_n^+ = i alpha_n gamma_n^-,   T gamma_n^- = -i alpha_n gamma_n^+,
    alpha_n = 1 - 1/n,

and the domain is cut by the constraint vectors chi^+/- = sum n^{-delta}
gamma_n^+/- (one or both, depending on the variant).  Whether chi is
asymptotically reachable through Xi = sqrt(I - T^2) is governed by the
series S = sum n^{-2 delta} / (1 - alpha_n^2) = sum n^{2-2 delta} / (2n-1),
divergent exactly for delta <= 1.

T and J are 2 x 2 block diagonal, so Xi^2 = I - T^2 is diag(1 - alpha_n^2)
on both coordinates of pair n.  `truncated_density_sweep` reads every
truncated quantity from alpha and the profile in O(N), without building
the model; the n x n route is its oracle in `kreinlab.oracles`.

`build_model` holds T0 as its data (`ModelContraction`); T is a seed
extension with a 2 x 2 closed-form resolvent per pair, so `krein_interval`
reads the interval from m x m Woodbury factors in O(N), and J, T, the domain
and the action are formed only when read (the block completion's input).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import RANK_RCOND, STRUCT_TOL
from .angular import PartialContraction
from .spaces import SignatureSpace

VARIANTS = ("both_constraints", "chi_plus_zero")

# Largest truncation of the O(N) routes: the sweep takes exponents up to
# MAX_EXPONENT, and classify-model --N is at most MAX_PAIRS.
MAX_PAIRS = 2 ** 24
MAX_EXPONENT = MAX_PAIRS.bit_length() - 1
# Largest model whose 2N x ~2N complex J, T, domain and action are formed (256 MiB each).
DENSE_PAIRS = 2 ** 11

# Log-log slope of the dyadic partial sums above DIVERGENCE_THRESHOLD reads as
# divergence; below MARGINAL_WINDOW a divergent verdict is flagged marginal
# (the delta = 1 boundary diverges only logarithmically).
DIVERGENCE_THRESHOLD = 0.05
MARGINAL_WINDOW = 0.15
FIT_POINTS = 8
# S_N: a cumsum up to HEAD, then Euler-Maclaurin on EXPANSION_TERMS power sums.
HEAD, EXPANSION_TERMS = 2 ** 8, 7
BERNOULLI = np.array([1 / 12, -1 / 720, 1 / 30240, -1 / 1209600])   # B_2/2! .. B_8/8!
EM_ROUNDING = 48            # with 14 ln N, the tail's rounding in u times its parts' sizes


@dataclass(frozen=True)
class SequenceModelSpec:
    delta: float
    variant: str = "both_constraints"
    n_pairs: int = 64

    def __post_init__(self):
        if not 0.5 < self.delta <= 1.5:
            raise ValueError("delta must lie in (1/2, 3/2]")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.n_pairs < 1:
            raise ValueError("at least one pair is required")
        if self.n_pairs > MAX_PAIRS:
            raise ValueError(f"n_pairs = {self.n_pairs} exceeds MAX_PAIRS = {MAX_PAIRS}")


def alphas(n_pairs: int) -> np.ndarray:
    return 1.0 - 1.0 / np.arange(1, n_pairs + 1, dtype=float)


def _profile(delta: float, n_pairs: int) -> np.ndarray:
    """The constraint profile c_n = n^{-delta} / ||n^{-delta}||, n = 1..N."""
    coeff = np.arange(1, n_pairs + 1, dtype=float) ** (-delta)
    return coeff / np.sqrt(coeff @ coeff)


def _constraints(spec: SequenceModelSpec):
    """(c, E): the profile, and E = [chi_+, chi_-] (chi_- alone for
    chi_plus_zero) with c on the +/- coordinates of chi_+/-."""
    coeff, both = _profile(spec.delta, spec.n_pairs), spec.variant == "both_constraints"
    e = np.zeros((2 * spec.n_pairs, 2 if both else 1), dtype=complex)
    if both:
        e[0::2, 0] = coeff
    e[1::2, -1] = coeff
    return coeff, e


class ModelContraction(PartialContraction):
    """T0 of a truncated model held as its data: alpha, J's signs, the profile
    c and E = [chi_+, chi_-] (chi_- alone), the basis of D(T0)^perp split
    along J with constraints_plus = m - 1 columns in H_+, and norm_bound =
    alpha_N = ||T||.  J (space), the seed extension t, domain and action are
    formed on first read, up to DENSE_PAIRS pairs; norm, near_unit and
    domain_residual are read from the PartialContraction they form."""

    def __init__(self, spec: SequenceModelSpec):
        n = spec.n_pairs
        self.spec, self.dim, self.alpha = spec, 2 * n, alphas(n)
        self.j_signs = np.tile([1.0, -1.0], n)
        self.profile, self.constraints = _constraints(spec)
        self.constraints_plus = self.constraints.shape[1] - 1
        self.signs = np.repeat([1.0, -1.0], [n - self.constraints_plus, n - 1])
        self.norm_bound = float(self.alpha[-1])

    def _refuse_dense(self, name: str, cols: int) -> None:
        if self.spec.n_pairs > DENSE_PAIRS:
            raise ValueError(f"the model's {name} would be a {self.dim} x {cols} matrix "
                             f"({16 * self.dim * cols / 2 ** 30:.3g} GiB complex) at "
                             f"{self.spec.n_pairs} pairs; dense model matrices stop at "
                             f"DENSE_PAIRS = {DENSE_PAIRS} pairs")

    @cached_property
    def space(self) -> SignatureSpace:
        self._refuse_dense("J", self.dim)
        return SignatureSpace(np.diag(self.j_signs))

    @cached_property
    def t(self) -> np.ndarray:
        self._refuse_dense("T", self.dim)
        plus, minus = np.arange(0, self.dim, 2), np.arange(1, self.dim, 2)
        t = np.zeros((self.dim, self.dim), dtype=complex)
        t[minus, plus] = 1j * self.alpha
        t[plus, minus] = -1j * self.alpha
        return t

    @cached_property
    def domain(self) -> np.ndarray:
        """Each block of E^perp: the last N - 1 columns of H = I - 2 w w*/(w* w),
        w = c + e_1, which maps e_1 to -c (all of H_+ for chi_plus_zero)."""
        self._refuse_dense("domain", self.dim - self.constraints_plus - 1)
        n, p = self.spec.n_pairs, self.constraints_plus
        w = self.profile + np.eye(1, n)[0]
        comp = np.eye(n)[:, 1:] - np.outer(w, w[1:]) * (2.0 / (w @ w))
        domain = np.zeros((self.dim, self.dim - p - 1), dtype=complex)
        domain[0::2, :n - p] = comp if p else np.eye(n)
        domain[1::2, n - p:] = comp
        return domain

    @cached_property
    def action(self) -> np.ndarray:
        """T0 D: columns on the +/- coordinates map to -/+, times +/- i alpha
        (refused with the domain above DENSE_PAIRS)."""
        d, width = self.domain, self.spec.n_pairs - self.constraints_plus
        action = np.zeros_like(d)
        action[1::2, :width] = 1j * self.alpha[:, None] * d[0::2, :width]
        action[0::2, width:] = -1j * self.alpha[:, None] * d[1::2, width:]
        return action

    @cached_property
    def _formed(self) -> PartialContraction:
        return PartialContraction(self.space, self.domain, self.action)

    norm = property(lambda self: self._formed.norm)
    near_unit = property(lambda self: self._formed.near_unit)
    domain_residual = property(lambda self: self._formed.domain_residual)

    def woodbury(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(K_+, K_-, g): K_+/- = (E* (I +/- T)^{-1} E)^{-1} and g the largest
        eigenvalue of K_+ E* (I + T)^{-2} E K_+, the Gram of the kernel basis
        (I + T)^{-1} E K_+ of I + T_mu, from the positive sums s_+/-^k = sum
        c^2 / (1 +/- alpha)^k with no difference of sums: E* (I + T)^{-k} E
        is diag(s_+^k, s_-^k) in the coordinates (chi_+ +/- i chi_-)/sqrt 2,
        and (s_+^k + s_-^k)/2 on chi_- alone (README, "The seeded interval")."""
        a, c_sq = self.alpha, self.profile ** 2
        lo, hi = c_sq / (1.0 + a), c_sq / (1.0 - a)
        s_lo, s_hi, q_lo, q_hi = lo.sum(), hi.sum(), (lo / (1.0 + a)).sum(), (hi / (1.0 - a)).sum()
        if not self.constraints_plus:
            k = np.array([[2.0 / (s_lo + s_hi)]])
            return k, k, float(2.0 * (q_lo + q_hi) / (s_lo + s_hi) ** 2)
        r, d = (1.0 / s_lo + 1.0 / s_hi) / 2.0, (1.0 / s_lo - 1.0 / s_hi) / 2.0
        k_plus = np.array([[r, -1j * d], [1j * d, r]])
        return k_plus, k_plus.conj(), float(max(q_lo / s_lo ** 2, q_hi / s_hi ** 2))


@dataclass
class ModelInstance:
    """The model of spec: T0, its J (space) and T, and the normalized
    constraint vectors (chi_plus None for chi_plus_zero)."""

    spec: SequenceModelSpec
    t0: ModelContraction = field(repr=False)
    space = property(lambda self: self.t0.space)
    t = property(lambda self: self.t0.t)
    chi_plus = property(lambda self: self.t0.constraints[:, 0] if self.t0.constraints_plus
                        else None)
    chi_minus = property(lambda self: self.t0.constraints[:, -1])


def build_model(spec: SequenceModelSpec) -> ModelInstance:
    """Truncated model instance with the constrained angular domain, held as
    its data (`ModelContraction`); its matrices are formed on first read."""
    return ModelInstance(spec, ModelContraction(spec))


def classify_analytic(spec: SequenceModelSpec) -> str:
    """Rigidity class of the limiting model: A for delta <= 1, else B or C
    depending on whether both constraints are present."""
    if spec.delta <= 1.0:
        return "A"
    return "B" if spec.variant == "both_constraints" else "C"


def series_terms(delta: float, n_max: int) -> np.ndarray:
    n = np.arange(1, n_max + 1, dtype=float)
    return n ** (2.0 - 2.0 * delta) / (2.0 * n - 1.0)


@dataclass(frozen=True)
class DivergenceReport:
    dyadic_n: np.ndarray
    partial_sums: np.ndarray
    exponent_estimate: float
    verdict: str                         # "diverges" | "converges"
    marginal: bool
    sum_bounds: np.ndarray               # a-priori bound on each partial sum's error


def xi_preimage_diagnostic(spec: SequenceModelSpec, max_exponent: int = 16) -> DivergenceReport:
    """Dyadic partial sums S_N, N = 2, 4, ..., 2^max_exponent, of the reachability
    series sum n^p / (2n - 1), p = 2 - 2 delta, with error bounds and a trend verdict.

    Up to H = HEAD, S_N is a cumsum of the terms, within (N + 2) u S_N.  Beyond, it adds
    sum_{k<K} 2^-(k+1) sum_{H<n<=N} n^s, s = p - k - 1, K = EXPANSION_TERMS, each by
    Euler-Maclaurin with three Bernoulli terms, within the truncation 2^-(K+1) (2H + 2)/
    (2H + 1) H^(p-K)/(K - p), the remainder 2 |B_8|/8! |(s)_7| H^(s-7) per power sum and
    rounding (H + 2) u S_H + (EM_ROUNDING + 14 ln N) u times the parts' sizes (README).

    The verdict is the fitted log-log growth exponent of S_N over the last
    FIT_POINTS dyadic truncations: above DIVERGENCE_THRESHOLD the series is
    read as divergent (chi leaves ran(Xi) in the limit), below as convergent.
    A divergent verdict with exponent below MARGINAL_WINDOW is flagged
    marginal — the boundary case grows only like log N.
    """
    if max_exponent < FIT_POINTS + 1:
        raise ValueError(f"need at least {FIT_POINTS + 1} dyadic points")
    u, H, K = np.finfo(float).eps / 2, HEAD, EXPANSION_TERMS
    head = np.cumsum(series_terms(spec.delta, H))
    dyadic = 2 ** np.arange(1, max_exponent + 1)
    short, n = dyadic[dyadic <= H], dyadic[dyadic > H].astype(float)
    p, k, log_ratio = 2.0 - 2.0 * spec.delta, np.arange(K)[:, None], np.log(n / H)
    s, r, weight = p - k - 1.0, p - k, 0.5 ** (k + 1.0)         # rows: k < K
    falling = np.cumprod(s - np.arange(7.0), axis=1)            # (s)_1 .. (s)_7
    # weights of x^s / 2, B_2/2! (s)_1 x^(s-1), B_4/4! (s)_3 x^(s-3), B_6/6! (s)_5 x^(s-5)
    coef = (weight * np.hstack([np.full_like(s, 0.5), falling[:, 0:5:2] * BERNOULLI[:3]])).ravel()
    power = (s - np.array([0.0, 1.0, 3.0, 5.0])).ravel()
    npow, hpow = n ** power[:, None], H ** power
    # integrals H^r expm1(r log(N/H)) / r, r = s + 1, and log(N/H) at r = 0 (delta = 1)
    integral = (weight * H ** r / np.where(r == 0, 1.0, r)).ravel() @ np.expm1(r * log_ratio) + (
        0.5 * log_ratio if p == 0 else 0.0)
    tail = integral + coef @ npow - coef @ hpow
    size = integral + np.abs(coef) @ (npow + hpow[:, None])
    trunc = 0.5 ** (K + 1) * (2 * H + 2) / (2 * H + 1) * H ** (p - K) / (K - p)
    remainder = -2.0 * BERNOULLI[3] * (weight * H ** (s - 7.0)).ravel() @ np.abs(falling[:, 6])
    bound = ((H + 2) * u * head[-1] + trunc + remainder
             + (EM_ROUNDING + (K + 7) * np.log(n)) * u * size)
    sums = np.concatenate([head[short - 1], head[-1] + tail])
    slope = np.polyfit(np.log(dyadic[-FIT_POINTS:]), np.log(sums[-FIT_POINTS:]), 1)[0]
    verdict = "diverges" if slope > DIVERGENCE_THRESHOLD else "converges"
    marginal = verdict == "diverges" and slope < MARGINAL_WINDOW
    return DivergenceReport(dyadic, sums, float(slope), verdict, marginal,
                            np.concatenate([(short + 2) * u * head[short - 1], bound]))


@dataclass(frozen=True)
class DefectPrediction:
    case: str
    dimension: int
    signature: tuple[int, int]
    basis: np.ndarray | None
    note: str


def defect_prediction(spec: SequenceModelSpec) -> DefectPrediction:
    """Limiting defect space predicted from the constraint vectors."""
    case = classify_analytic(spec)
    if case == "A":
        return DefectPrediction("A", 0, (0, 0), None,
                                "defect space trivial: the extension is unique in the limit")
    basis = _constraints(spec)[1]
    if spec.variant == "both_constraints":
        return DefectPrediction("B", 2, (1, 1), basis,
                                "span{chi_+, chi_-} with balanced signature")
    return DefectPrediction("C", 1, (0, 1), basis,
                            "span{chi_-}: negative-definite defect")


@dataclass(frozen=True)
class TruncationSample:
    n_pairs: int
    preimage_norm_sq_matrix: float       # ||Xi^{-1} chi||^2 from the model's Xi
    preimage_norm_sq_series: float       # same quantity from the analytic series
    domain_dense: bool                   # density_test's rule at this truncation
    sup_diagnostic: float                # uniqueness_sup against chi


def truncated_density_sweep(spec: SequenceModelSpec,
                            exponents: tuple[int, ...] = (3, 4, 5, 6)) -> list[TruncationSample]:
    """Cross-check the analytic series against the truncated model at N = 2^e.

    At every finite truncation Xi is invertible, so the domain is never
    dense when it is proper: the truncation alone never certifies the
    limiting class.  What does transfer is the preimage norm
    ||Xi^{-1} chi||^2, which must match the analytic partial sum and whose
    growth across truncations carries the verdict.

    Everything is read from the block structure in O(N).  With weights
    w_n = c_n^2 / xi_n, xi_n = 1 - alpha_n^2 and chi = chi_-:
    - ||Xi^{-1} chi||^2 = sum w_n;
    - the sup of |(T0 x, chi)|^2 / (||x||^2 - ||T0 x||^2) over D(T0) = E^perp
      is h* D (D* M D)^{-1} D* h with M = Xi^2 and h = T chi (alpha_n c_n
      on the + coordinates).  D (D* M D)^{-1} D* = M^{-1} - M^{-1} E
      (E* M^{-1} E)^{-1} E* M^{-1} (the rank-m Woodbury/Schur correction), and
      only chi_+ meets h, so the sup is sum w alpha^2, less
      (sum w alpha)^2 / sum w when chi_+ constrains the domain; that
      difference is summed as sum w (alpha - mean_w alpha)^2;
    - density_test's rule on the diagonal Xi: ran Xi is the pairs with
      xi_n > RANK_RCOND max(max xi, 1), and as the columns of E have disjoint
      supports, the cosine between ran Xi and E is the largest norm of chi_+/-
      restricted to them, that is, of the profile c on those pairs.
    """
    bad = [e for e in exponents if not 0 <= e <= MAX_EXPONENT]
    if bad:
        raise ValueError(f"truncation exponents {bad} outside [0, {MAX_EXPONENT}]: "
                         f"the sweep stops at 2^{MAX_EXPONENT} = {MAX_PAIRS} pairs")
    out = []
    for e in exponents:
        n = 2 ** e
        a = alphas(n)
        c_sq = _profile(spec.delta, n) ** 2
        xi = 1.0 - a * a
        w = c_sq / xi
        norm_sq_matrix = float(np.sum(w))
        if spec.variant == "both_constraints":
            sup = float(w @ (a - (w @ a) / norm_sq_matrix) ** 2)
        else:
            sup = float(w @ (a * a))
        keep = xi > RANK_RCOND * max(xi.max(), 1.0)
        dense = math.sqrt(float(np.sum(c_sq[keep]))) < 1.0 - STRUCT_TOL
        coeff_norm_sq = float(np.sum(np.arange(1, n + 1, dtype=float) ** (-2 * spec.delta)))
        norm_sq_series = float(np.sum(series_terms(spec.delta, n))) / coeff_norm_sq
        out.append(TruncationSample(n, norm_sq_matrix, norm_sq_series, dense, sup))
    return out
