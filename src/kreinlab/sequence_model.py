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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import RANK_RCOND, STRUCT_TOL
from .angular import PartialContraction
from .spaces import SignatureSpace

VARIANTS = ("both_constraints", "chi_plus_zero")

# Largest truncation of the O(N) routes: the sweep takes exponents up to
# MAX_EXPONENT, and classify-model --N is at most MAX_PAIRS (the diagnostic
# peaks at about 0.4 GB of RSS there).
MAX_PAIRS = 2 ** 24
MAX_EXPONENT = MAX_PAIRS.bit_length() - 1

# Log-log slope of the dyadic partial sums above DIVERGENCE_THRESHOLD reads as
# divergence; below MARGINAL_WINDOW a divergent verdict is flagged marginal
# (the delta = 1 boundary diverges only logarithmically).
DIVERGENCE_THRESHOLD = 0.05
MARGINAL_WINDOW = 0.15
FIT_POINTS = 8


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


def alphas(n_pairs: int) -> np.ndarray:
    return 1.0 - 1.0 / np.arange(1, n_pairs + 1, dtype=float)


@dataclass
class ModelInstance:
    spec: SequenceModelSpec
    space: SignatureSpace
    t: np.ndarray
    chi_plus: np.ndarray | None          # normalized constraint vectors
    chi_minus: np.ndarray
    t0: PartialContraction = field(repr=False)


def _profile(delta: float, n_pairs: int) -> np.ndarray:
    """The constraint profile c_n = n^{-delta} / ||n^{-delta}||, n = 1..N."""
    coeff = np.arange(1, n_pairs + 1, dtype=float) ** (-delta)
    return coeff / np.sqrt(coeff @ coeff)


def _constraint_vectors(spec: SequenceModelSpec):
    """(coeff, chi_plus, chi_minus): the normalized profile n^{-delta} on the
    +/- coordinates; chi_plus is None for the chi_plus_zero variant."""
    coeff = _profile(spec.delta, spec.n_pairs)
    chi_plus, chi_minus = np.zeros((2, 2 * spec.n_pairs), dtype=complex)
    chi_plus[0::2] = coeff
    chi_minus[1::2] = coeff
    return coeff, chi_plus if spec.variant == "both_constraints" else None, chi_minus


def build_model(spec: SequenceModelSpec) -> ModelInstance:
    """Truncated model instance with the constrained angular domain."""
    n = spec.n_pairs
    dim = 2 * n
    plus, minus = np.arange(0, dim, 2), np.arange(1, dim, 2)
    j = np.diag(np.tile([1.0, -1.0], n))
    t = np.zeros((dim, dim), dtype=complex)
    a = alphas(n)
    t[minus, plus] = 1j * a              # T gamma^+ = i alpha gamma^-
    t[plus, minus] = -1j * a             # T gamma^- = -i alpha gamma^+
    space = SignatureSpace(j)

    coeff, chi_plus, chi_minus = _constraint_vectors(spec)
    # Orthonormal complement of the coefficient vector inside an
    # n-dimensional +/- coordinate block; an unconstrained block keeps all.
    comp = np.linalg.svd(coeff.reshape(-1, 1), full_matrices=True)[0][:, 1:]
    domain_cols = []
    for chi, sl in ((chi_plus, np.s_[0::2]), (chi_minus, np.s_[1::2])):
        cols = np.eye(n) if chi is None else comp
        block = np.zeros((dim, cols.shape[1]), dtype=complex)
        block[sl] = cols
        domain_cols.append(block)
    domain = np.hstack(domain_cols)
    action = t @ domain
    t0 = PartialContraction(space, domain, action)
    return ModelInstance(spec, space, t, chi_plus, chi_minus, t0)


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


def xi_preimage_diagnostic(spec: SequenceModelSpec, max_exponent: int = 16) -> DivergenceReport:
    """Dyadic partial sums of the reachability series with a trend verdict.

    The verdict is the fitted log-log growth exponent of S_N over the last
    FIT_POINTS dyadic truncations: above DIVERGENCE_THRESHOLD the series is
    read as divergent (chi leaves ran(Xi) in the limit), below as convergent.
    A divergent verdict with exponent below MARGINAL_WINDOW is flagged
    marginal — the boundary case grows only like log N.
    """
    if max_exponent < FIT_POINTS + 1:
        raise ValueError(f"need at least {FIT_POINTS + 1} dyadic points")
    terms = series_terms(spec.delta, 2 ** max_exponent)
    csum = np.cumsum(terms)
    dyadic = 2 ** np.arange(1, max_exponent + 1)
    sums = csum[dyadic - 1]
    tail_n = dyadic[-FIT_POINTS:].astype(float)
    tail_s = sums[-FIT_POINTS:]
    slope = np.polyfit(np.log(tail_n), np.log(tail_s), 1)[0]
    verdict = "diverges" if slope > DIVERGENCE_THRESHOLD else "converges"
    marginal = verdict == "diverges" and slope < MARGINAL_WINDOW
    return DivergenceReport(dyadic, sums, float(slope), verdict, marginal)


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
    _, chi_plus, chi_minus = _constraint_vectors(spec)
    if spec.variant == "both_constraints":
        basis = np.column_stack([chi_plus, chi_minus])
        return DefectPrediction("B", 2, (1, 1), basis,
                                "span{chi_+, chi_-} with balanced signature")
    basis = chi_minus.reshape(-1, 1)
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
