import numpy as np
import pytest

from kreinlab import (
    GMetric,
    SignatureSpace,
    energetic_norm,
    g_inner,
    indefinite_product,
    jg_product,
    max_subspaces,
    metric_report,
)
from kreinlab import oracles
from kreinlab.errors import CayleyUndefinedError, InvariantViolation
from kreinlab.oracles import decompose, metric_agreement, split_inner, xi_norm_identity_residual
from kreinlab.verify import random_anticommuting_contraction, random_signature_space

T_HALF = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)


def metric_for(j2, t):
    return GMetric.from_contraction(SignatureSpace(j2), t)


def test_zero_contraction_recovers_euclidean(j2, rng):
    m = metric_for(j2, np.zeros((2, 2)))
    np.testing.assert_allclose(m.g, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(m.j_g, j2, atol=1e-14)
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert g_inner(m, f, g) == pytest.approx(complex(np.vdot(g, f)))
    assert jg_product(m, f, g) == pytest.approx(
        indefinite_product(m.space, f, g)
    )


def test_g_product_on_maximal_subspaces(j2):
    m = metric_for(j2, T_HALF)
    f = np.array([1.0, 0.5], dtype=complex)
    # on L_+^max the G-product reproduces the indefinite product: 1 - 1/4
    assert g_inner(m, f, f) == pytest.approx(0.75)
    pair = max_subspaces(m.space, T_HALF)
    f_plus = pair.l_plus.basis[:, 0]
    f_minus = pair.l_minus.basis[:, 0]
    assert abs(g_inner(m, f_plus, f_minus)) < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_indefinite_products_agree(seed):
    rng = np.random.default_rng(1000 + seed)
    space = random_signature_space(rng)
    t = random_anticommuting_contraction(rng, space)
    m = GMetric.from_contraction(space, t)
    for _ in range(5):
        f = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        g = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        lhs = jg_product(m, f, g)
        rhs = indefinite_product(space, f, g)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_neutral_vector_stays_neutral(j2):
    m = metric_for(j2, T_HALF)
    f = np.array([1.0, 1.0], dtype=complex)
    assert abs(jg_product(m, f, f)) < 1e-12


def test_energetic_norm_values(j2):
    m = metric_for(j2, np.zeros((2, 2)))
    f = np.array([1.0, 0.0], dtype=complex)
    assert energetic_norm(m, f) == pytest.approx(np.sqrt(2.0))
    assert energetic_norm(m, np.zeros(2)) == 0.0
    # T = diag(1/2, -1/2) gives G = diag(1/3, 3)
    md = metric_for(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
                    np.diag([0.5, -0.5]).astype(complex))
    np.testing.assert_allclose(md.g, np.diag([1.0 / 3.0, 3.0]), atol=1e-12)
    assert energetic_norm(md, f) == pytest.approx(np.sqrt(1.0 + 1.0 / 3.0))


@pytest.mark.parametrize("seed", range(8))
def test_xi_norm_identity(seed):
    # ||(I + T)x||_G = ||Xi x|| with Xi = sqrt(I - T^2)
    rng = np.random.default_rng(1100 + seed)
    space = random_signature_space(rng)
    t = random_anticommuting_contraction(rng, space)
    m = GMetric.from_contraction(space, t)
    for _ in range(5):
        x = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        assert xi_norm_identity_residual(m, x) < 1e-10


def test_unit_norm_contraction_fails_loudly(j2):
    with pytest.raises(CayleyUndefinedError):
        metric_for(j2, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def test_refuses_a_t_that_is_not_self_adjoint(j2):
    # the Hermitian part [[0, 1/4], [1/4, 0]] would pass every other check
    with pytest.raises(InvariantViolation, match="self-adjoint"):
        metric_for(j2, np.array([[0.0, 0.5], [0.0, 0.0]]))


def test_contraction_check_reads_the_eigenvalues(monkeypatch):
    # ||T|| = max |eigenvalue| of the one eigh: 1 - 1e-9 is accepted and
    # 1 + 1e-9 refused, as a non-contraction also when the eigenvalue beyond
    # the unit ball is below -1 (not as an undefined Cayley transform)
    def refuse(*args, **kwargs):
        raise AssertionError("from_contraction took an SVD")
    monkeypatch.setattr(np.linalg._linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    a = 1.0 - 1e-9
    assert metric_for(swap, np.diag([a, -a])).degenerate
    a = 1.0 + 1e-9
    for j, t in ((swap, np.diag([a, -a])), (np.diag([1.0, -1.0]), a * swap)):
        with pytest.raises(InvariantViolation, match="contraction"):
            metric_for(j, t)


def test_metric_report_structure(j2):
    m = metric_for(j2, T_HALF)
    rep = metric_report(m)
    assert rep.keys() == {"cond_G", "degenerate"}
    assert not rep["degenerate"]
    assert rep["cond_G"] == pytest.approx(9.0)
    agreement = metric_agreement(m, 5)
    for key in ("inner_decomposition", "jg_vs_ambient", "xi_norm_identity"):
        assert agreement[key] < 1e-10


def test_degenerate_metric_is_reachable_and_guarded():
    # T = diag(a, -a) anticommutes with the swap J, and G = diag((1 - a)/(1 + a),
    # (1 + a)/(1 - a)): at 1 - a = 1e-7 the small eigenvalue falls below
    # KERNEL_RCOND times the large one, at 1 - a = 1e-5 it does not
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert not metric_for(swap, np.diag([1.0 - 1e-5, 1e-5 - 1.0])).degenerate
    m = metric_for(swap, np.diag([1.0 - 1e-7, 1e-7 - 1.0]))
    assert m.degenerate and m.kernel.shape == (2, 1) and m.cond == np.inf
    e1 = np.array([1.0, 0.0], dtype=complex)
    for product in (g_inner, jg_product):
        with pytest.raises(ValueError, match=r"ker\(G\)"):
            product(m, e1, e1)
    rep = metric_report(m)
    assert rep["degenerate"] and rep["cond_G"] == np.inf
    assert all(np.isfinite(v) for v in metric_agreement(m, 5).values())


def test_metric_symmetry_does_not_depend_on_the_basis():
    # T = [[0, a], [a, 0]] anticommutes with J = diag(1, -1); in the swap basis
    # it is diag(a, -a).  Both are accepted up to where G degenerates, with the
    # same verdicts; one ulp of an eigenvalue moves cond by about ulp / (1 - a).
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for gap in (1e-3, 1e-4, 1e-5, 1e-7):
        a = 1.0 - gap
        m = metric_for(np.diag([1.0, -1.0]), a * swap)
        ref = metric_for(swap, np.diag([a, -a]))
        assert m.degenerate == ref.degenerate == (gap == 1e-7)
        assert m.kernel.shape == ref.kernel.shape
        assert m.cond == pytest.approx(ref.cond, rel=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_metric_symmetry_is_j_times_g(seed):
    # J_G = (I + T) J (I + T)^{-1}, formed here with an inverse, equals J G
    rng = np.random.default_rng(1200 + seed)
    for dim, cap in zip((2, 5, 12, 24, 64, 96), (0.5, 0.9, 0.99, 0.999, 0.99, 0.999)):
        space = random_signature_space(rng, dim)
        t = random_anticommuting_contraction(rng, space, norm_cap=cap)
        m = GMetric.from_contraction(space, t)
        eye_plus_t = np.eye(dim) + m.t
        want = eye_plus_t @ space.j @ np.linalg.inv(eye_plus_t)
        assert np.linalg.norm(m.j_g - want, 2) <= 1e-12 * np.linalg.norm(want, 2)


def test_metric_report_decomposes_all_probes_at_once(monkeypatch, rng):
    # The 2 * AGREEMENT_PROBES probe vectors of oracles.metric_agreement go
    # through one decompose: one solve with I + T and one P+/- pair (16 of
    # each when every probe had its own).
    sp = random_signature_space(rng, 12)
    m = GMetric.from_contraction(sp, random_anticommuting_contraction(rng, sp, norm_cap=0.9))
    calls = []
    solve, projections = np.linalg.solve, oracles.fundamental_projections
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append("solve") or solve(*a))
    monkeypatch.setattr(oracles, "fundamental_projections",
                        lambda space: calls.append("P") or projections(space))
    agreement = metric_agreement(m, 3)
    assert calls == ["solve", "P"]
    assert agreement["inner_decomposition"] < 1e-10
    calls.clear()
    f, g = (rng.standard_normal(12) + 1j * rng.standard_normal(12) for _ in range(2))
    split = split_inner(m, f, g)
    assert calls == ["solve", "P"]
    assert split == pytest.approx(g_inner(m, f, g), rel=1e-12)


def test_stacked_decompose_matches_single_vectors(rng):
    sp = random_signature_space(rng, 9)
    m = GMetric.from_contraction(sp, random_anticommuting_contraction(rng, sp, norm_cap=0.9))
    stack = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
    plus, minus = decompose(m, stack)
    assert plus.shape == minus.shape == (9, 5)
    np.testing.assert_allclose(plus + minus, stack, atol=1e-13)
    for i in range(5):
        p, q = decompose(m, stack[:, i])
        np.testing.assert_allclose(plus[:, i], p, rtol=0, atol=1e-14)
        np.testing.assert_allclose(minus[:, i], q, rtol=0, atol=1e-14)
