import numpy as np
import pytest

import oracles as ref
from kreinlab.oracles import dense_density_sweep
from kreinlab.sequence_model import (
    MAX_PAIRS,
    VARIANTS,
    SequenceModelSpec,
    alphas,
    build_model,
    classify_analytic,
    defect_prediction,
    series_terms,
    truncated_density_sweep,
    xi_preimage_diagnostic,
)
from kreinlab.spaces import SignatureSpace

DELTAS = (0.6, 0.8, 1.0, 1.1, 1.25, 1.5)


def test_spec_validation():
    with pytest.raises(ValueError):
        SequenceModelSpec(0.5)
    with pytest.raises(ValueError):
        SequenceModelSpec(1.6)
    with pytest.raises(ValueError):
        SequenceModelSpec(1.0, variant="no_such_variant")
    with pytest.raises(ValueError):
        SequenceModelSpec(1.0, n_pairs=0)


def test_single_pair_is_zero():
    inst = build_model(SequenceModelSpec(1.0, n_pairs=1))
    assert alphas(1)[0] == 0.0
    np.testing.assert_allclose(inst.t, np.zeros((2, 2)), atol=1e-15)


@pytest.mark.parametrize("n", (1, 2, 7, 64))
def test_build_model_fill_matches_the_per_pair_loop(n):
    # the index-array fill of J and T against the per-pair loop, bit for bit
    a = alphas(n)
    j = np.zeros((2 * n, 2 * n))
    t = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        ip, im = 2 * k, 2 * k + 1
        j[ip, ip], j[im, im] = 1.0, -1.0
        t[im, ip] = 1j * a[k]
        t[ip, im] = -1j * a[k]
    inst = build_model(SequenceModelSpec(1.25, n_pairs=n))
    assert inst.space.j.tobytes() == SignatureSpace(j).j.tobytes()
    assert inst.t.tobytes() == t.tobytes()


def test_constraint_vector_profile():
    # delta = 1: the +-coordinates of chi^+ are proportional to (1, 1/2)
    inst = build_model(SequenceModelSpec(1.0, n_pairs=2))
    plus_coords = inst.chi_plus[0::2]
    ratio = plus_coords[1] / plus_coords[0]
    assert ratio == pytest.approx(0.5)
    assert np.linalg.norm(inst.chi_plus) == pytest.approx(1.0)
    assert np.abs(inst.chi_plus[1::2]).max() == 0.0


@pytest.mark.parametrize("n", (2, 7, 50))
def test_operator_norm_formula(n):
    inst = build_model(SequenceModelSpec(1.0, n_pairs=n))
    top = np.linalg.svd(inst.t, compute_uv=False)[0]
    assert top == pytest.approx(1.0 - 1.0 / n, abs=1e-12)


def test_domain_dimensions():
    n = 6
    both = build_model(SequenceModelSpec(1.25, "both_constraints", n))
    assert both.t0.domain_dim == 2 * (n - 1)
    single = build_model(SequenceModelSpec(1.25, "chi_plus_zero", n))
    assert single.t0.domain_dim == 2 * n - 1


@pytest.mark.parametrize("delta, want_both, want_single", [
    (0.6, "A", "A"),
    (0.8, "A", "A"),
    (1.0, "A", "A"),
    (1.1, "B", "C"),
    (1.25, "B", "C"),
    (1.5, "B", "C"),
])
def test_classification_table(delta, want_both, want_single):
    assert classify_analytic(SequenceModelSpec(delta, "both_constraints")) == want_both
    assert classify_analytic(SequenceModelSpec(delta, "chi_plus_zero")) == want_single


@pytest.mark.parametrize("delta, verdict, marginal", [
    (0.75, "diverges", False),
    (0.8, "diverges", False),
    (1.0, "diverges", True),
    (1.25, "converges", False),
    (1.5, "converges", False),
])
def test_divergence_verdicts(delta, verdict, marginal):
    rep = xi_preimage_diagnostic(SequenceModelSpec(delta), max_exponent=14)
    assert rep.verdict == verdict
    assert rep.marginal == marginal
    # fitted exponent close to the analytic growth rate 2(1 - delta)
    want = ref.model_slope_reference(delta)
    window = 0.25 if delta == 1.0 else 0.12
    assert abs(rep.exponent_estimate - want) < window


def test_divergence_exponent_half():
    rep = xi_preimage_diagnostic(SequenceModelSpec(0.75), max_exponent=16)
    assert rep.exponent_estimate == pytest.approx(0.5, abs=0.05)


def test_convergence_ratio():
    rep = xi_preimage_diagnostic(SequenceModelSpec(1.25), max_exponent=16)
    s = rep.partial_sums
    assert s[-1] / s[-2] == pytest.approx(1.0, abs=1e-3)


def test_diagnostic_needs_enough_points():
    with pytest.raises(ValueError):
        xi_preimage_diagnostic(SequenceModelSpec(1.0), max_exponent=5)


def test_series_terms_closed_form():
    # terms are n^(2-2*delta) / (2n - 1), independently recomputed
    delta = 0.9
    terms = series_terms(delta, 50)
    n = np.arange(1, 51, dtype=float)
    np.testing.assert_allclose(terms, n ** (2 - 2 * delta) / (2 * n - 1), rtol=1e-14)


@pytest.mark.parametrize("delta", (0.75, 1.0, 1.25))
def test_matrix_series_identity(delta):
    # ||Xi^{-1} chi||^2 computed from the dense truncation equals the
    # analytic partial sum normalized by the coefficient norm
    for sample in truncated_density_sweep(SequenceModelSpec(delta), exponents=(3, 5)):
        assert sample.preimage_norm_sq_matrix == pytest.approx(
            sample.preimage_norm_sq_series, rel=1e-10)
        assert not sample.domain_dense      # proper domain, invertible Xi
        assert np.isfinite(sample.sup_diagnostic)


def test_sup_diagnostic_trend_tracks_divergence():
    # the sup is finite at every truncation (a trend, not a verdict); what
    # distinguishes the regimes is whether its increments keep pace or die
    grow = [s.sup_diagnostic for s in
            truncated_density_sweep(SequenceModelSpec(0.75), exponents=(3, 4, 5, 6, 7))]
    flat = [s.sup_diagnostic for s in
            truncated_density_sweep(SequenceModelSpec(1.5), exponents=(3, 4, 5, 6, 7))]
    assert all(b > a for a, b in zip(grow, grow[1:]))
    assert grow[-1] > 1.8 * grow[0]
    assert flat[-1] < 1.5 * flat[0]
    assert flat[-1] - flat[-2] < 0.4 * (flat[1] - flat[0])
    assert grow[-1] - grow[-2] > 0.4 * (grow[1] - grow[0])


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("delta", (0.75, 1.0, 1.25, 1.5))
def test_sweep_matches_the_dense_oracle(delta, variant):
    # the O(N) block-structure sweep against the built 2N x 2N model: eigh
    # of T, lstsq for the preimage, density_test and the sup over D(T0)
    spec = SequenceModelSpec(delta, variant)
    exponents = (3, 4, 5, 6, 7)
    for got, want in zip(truncated_density_sweep(spec, exponents),
                         dense_density_sweep(spec, exponents), strict=True):
        assert got.n_pairs == want.n_pairs
        assert got.preimage_norm_sq_matrix == pytest.approx(want.preimage_norm_sq_matrix,
                                                            rel=1e-12)
        assert got.sup_diagnostic == pytest.approx(want.sup_diagnostic, rel=1e-12)
        assert got.domain_dense == want.domain_dense


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("delta", (0.75, 1.0, 1.25, 1.5))
def test_sweep_at_2_16_pairs_matches_the_series(delta, variant):
    # 2^16 pairs: a dense model would be 2^17 x 2^17 complex (275 GB)
    (sample,) = truncated_density_sweep(SequenceModelSpec(delta, variant), exponents=(16,))
    assert sample.n_pairs == 2 ** 16
    assert sample.preimage_norm_sq_matrix == pytest.approx(
        sample.preimage_norm_sq_series, rel=1e-12)
    assert not sample.domain_dense
    assert np.isfinite(sample.sup_diagnostic) and sample.sup_diagnostic > 0.0


@pytest.mark.parametrize("exponent", (25, -1))
def test_sweep_refuses_exponents_outside_the_cap(exponent):
    assert MAX_PAIRS == 2 ** 24
    with pytest.raises(ValueError, match=rf"\[0, 24\].*{MAX_PAIRS} pairs"):
        truncated_density_sweep(SequenceModelSpec(1.0), exponents=(3, exponent))


def test_sweep_builds_no_model_and_factors_nothing(monkeypatch):
    # O(N): no 2N x 2N model and no np.linalg factorization or solve at any
    # truncation, so the cost is the length-N arrays alone
    def refuse(spec):
        raise AssertionError("truncated_density_sweep built the model")

    counted = []

    def counter(name, real):
        def count(*args, **kwargs):
            counted.append(name)
            return real(*args, **kwargs)
        return count

    monkeypatch.setattr("kreinlab.sequence_model.build_model", refuse)
    for name in ("eigh", "eigvalsh", "svd", "lstsq", "qr", "solve"):
        monkeypatch.setattr(np.linalg, name, counter(name, getattr(np.linalg, name)))
    samples = truncated_density_sweep(SequenceModelSpec(1.25, "both_constraints"),
                                      exponents=tuple(range(3, 17)))
    assert [s.n_pairs for s in samples] == [2 ** e for e in range(3, 17)]
    assert counted == []


def test_defect_predictions():
    pred = defect_prediction(SequenceModelSpec(1.25, "both_constraints"))
    assert (pred.case, pred.dimension, pred.signature) == ("B", 2, (1, 1))
    assert pred.basis.shape[1] == 2
    pred = defect_prediction(SequenceModelSpec(1.25, "chi_plus_zero"))
    assert (pred.case, pred.dimension, pred.signature) == ("C", 1, (0, 1))
    pred = defect_prediction(SequenceModelSpec(0.8, "both_constraints"))
    assert (pred.case, pred.dimension) == ("A", 0)
    assert pred.basis is None


def test_defect_prediction_does_not_build_the_model(monkeypatch):
    # chi_+/- come from the constraint profile alone, not from the n x n model
    want = {}
    for variant in ("both_constraints", "chi_plus_zero"):
        inst = build_model(SequenceModelSpec(1.25, variant))
        want[variant] = np.column_stack(
            [chi for chi in (inst.chi_plus, inst.chi_minus) if chi is not None])

    def refuse(spec):
        raise AssertionError("defect_prediction built the model")

    monkeypatch.setattr("kreinlab.sequence_model.build_model", refuse)
    for variant, basis in want.items():
        assert np.array_equal(defect_prediction(SequenceModelSpec(1.25, variant)).basis, basis)
