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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import hermitize, psd_sqrt
from .angular import PartialContraction
from .extensions import density_test, uniqueness_sup
from .spaces import SignatureSpace

VARIANTS = ("both_constraints", "chi_plus_zero")

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


def build_model(spec: SequenceModelSpec) -> ModelInstance:
    """Truncated model instance with the constrained angular domain."""
    n = spec.n_pairs
    dim = 2 * n
    j = np.zeros((dim, dim))
    t = np.zeros((dim, dim), dtype=complex)
    a = alphas(n)
    for k in range(n):
        ip, im = 2 * k, 2 * k + 1
        j[ip, ip] = 1.0
        j[im, im] = -1.0
        t[im, ip] = 1j * a[k]            # T gamma^+ = i alpha gamma^-
        t[ip, im] = -1j * a[k]           # T gamma^- = -i alpha gamma^+
    space = SignatureSpace(j)

    coeff = np.arange(1, n + 1, dtype=float) ** (-spec.delta)
    coeff = coeff / np.linalg.norm(coeff)
    chi_minus = np.zeros(dim, dtype=complex)
    chi_minus[1::2] = coeff
    if spec.variant == "both_constraints":
        chi_plus = np.zeros(dim, dtype=complex)
        chi_plus[0::2] = coeff
    else:
        chi_plus = None

    domain_cols = []
    for chi, sl in ((chi_plus, np.s_[0::2]), (chi_minus, np.s_[1::2])):
        block = np.zeros((dim, 0), dtype=complex)
        if chi is None:
            block = np.zeros((dim, n), dtype=complex)
            block[sl] = np.eye(n)
        elif n > 1:
            # Orthonormal complement of the coefficient vector inside the
            # n-dimensional +/- coordinate block, embedded back.
            u, _, _ = np.linalg.svd(coeff.reshape(-1, 1), full_matrices=True)
            comp = u[:, 1:]
            block = np.zeros((dim, n - 1), dtype=complex)
            block[sl] = comp
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
    inst = build_model(spec)
    if spec.variant == "both_constraints":
        basis = np.column_stack([inst.chi_plus, inst.chi_minus])
        return DefectPrediction("B", 2, (1, 1), basis,
                                "span{chi_+, chi_-} with balanced signature")
    basis = inst.chi_minus.reshape(-1, 1)
    return DefectPrediction("C", 1, (0, 1), basis,
                            "span{chi_-}: negative-definite defect")


@dataclass(frozen=True)
class TruncationSample:
    n_pairs: int
    preimage_norm_sq_matrix: float       # ||Xi^{-1} chi||^2 via the built matrices
    preimage_norm_sq_series: float       # same quantity from the analytic series
    domain_dense: bool                   # density_test at this truncation
    sup_diagnostic: float                # uniqueness_sup against chi


def truncated_density_sweep(spec: SequenceModelSpec,
                            exponents: tuple[int, ...] = (3, 4, 5, 6)) -> list[TruncationSample]:
    """Cross-check the analytic series against the built matrices.

    At every finite truncation Xi is invertible, so density_test is False
    whenever the domain is proper — the truncation alone never certifies
    the limiting class.  What does transfer is the preimage norm
    ||Xi^{-1} chi||^2, which must match the analytic partial sum exactly
    and whose growth across truncations carries the verdict.
    """
    out = []
    for e in exponents:
        n = 2 ** e
        sub = SequenceModelSpec(spec.delta, spec.variant, n)
        inst = build_model(sub)
        chi = inst.chi_minus
        xi = psd_sqrt(hermitize(np.eye(2 * n) - inst.t @ inst.t))
        pre, *_ = np.linalg.lstsq(xi, chi, rcond=None)
        norm_sq_matrix = float(np.real(np.vdot(pre, pre)))
        coeff_norm_sq = float(np.sum(np.arange(1, n + 1, dtype=float) ** (-2 * sub.delta)))
        norm_sq_series = float(np.sum(series_terms(sub.delta, n))) / coeff_norm_sq
        dense = density_test(inst.t0, inst.t)
        sup = uniqueness_sup(inst.t0, chi)
        out.append(TruncationSample(n, norm_sq_matrix, norm_sq_series, dense, sup))
    return out
