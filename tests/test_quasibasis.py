import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

import oracles as ref
from kreinlab import oracles
from kreinlab.errors import (
    FrequencyBandError,
    GridResolutionError,
    ParityMixingError,
)
from kreinlab.quasibasis import (
    UniformGrid,
    anharmonic_family,
    biorthogonal_gram,
    c_action,
    c_action_multiplier,
    eigen_residual,
    expansion,
    fourier,
    h_gram_in_g,
    indefinite_gram,
    inverse_fourier,
    metric_gram,
    metric_inner,
    metric_norm,
    parity_apply,
    quad_norm,
    shifted_family,
    sign_pattern,
    weighted_gram,
)

import kreinlab.quasibasis as qb
from kreinlab.verify import EXPANSION_TOL, LEVELS_TOL, MONOTONE_SLACK


@pytest.fixture(scope="module")
def fam0():
    return shifted_family(0.0, 12)


@pytest.fixture(scope="module")
def fam_half():
    return shifted_family(0.5, 12)


@pytest.fixture(scope="module")
def fam_anh():
    return anharmonic_family(4.0, "x_over_1px2", n_max=8)


# ----------------------------------------------------------------- the grid

def test_uniform_grid_validation():
    with pytest.raises(ValueError):
        UniformGrid(12.0, 100)          # not a power of two
    with pytest.raises(ValueError):
        UniformGrid(12.0, 8)            # too small
    with pytest.raises(ValueError):
        UniformGrid(-1.0, 64)
    g = UniformGrid(4.0, 64)
    x = g.points()
    assert x[0] == -4.0 and x.size == 64
    assert g.step == pytest.approx(0.125)


def test_fourier_roundtrip(fam0, rng):
    u = rng.standard_normal(fam0.nodes) + 1j * rng.standard_normal(fam0.nodes)
    np.testing.assert_allclose(inverse_fourier(fam0, fourier(fam0, u)), u, atol=1e-12)
    # Plancherel under the grid normalization
    dxi = 2.0 * np.pi / (fam0.nodes * fam0.step)
    assert dxi * np.linalg.norm(fourier(fam0, u)) ** 2 == pytest.approx(
        fam0.step * np.linalg.norm(u) ** 2)


# ------------------------------------------------------------ family values

def test_ground_state_value_at_origin(fam0):
    mid = fam0.nodes // 2               # x = 0 exactly
    assert fam0.x[mid] == 0.0
    assert fam0.g[0, mid] == pytest.approx(np.pi ** -0.25, abs=1e-12)
    assert abs(np.pi ** -0.25 - 0.7511255) < 5e-8


def test_reference_gram_identity():
    fam = shifted_family(0.0, 20, UniformGrid(12.0, 4096))
    gram = fam.step * (fam.g @ fam.g.T)
    assert np.max(np.abs(gram - np.eye(21))) < 1e-10


def test_unshifted_family_is_real_reference(fam0):
    np.testing.assert_allclose(fam0.f.imag, np.zeros_like(fam0.f.imag), atol=1e-15)
    np.testing.assert_allclose(fam0.f.real, fam0.g, atol=1e-15)


@pytest.mark.parametrize("n", (0, 3, 8))
def test_shifted_values_match_polynomial_route(fam_half, n):
    want = ref.hermite_function_poly(n, fam_half.x + 0.5j)
    assert np.max(np.abs(fam_half.f[n] - want)) < 1e-12


def test_construction_refusals():
    with pytest.raises(GridResolutionError):
        shifted_family(0.5, 12, UniformGrid(4.0, 4096))     # edge too hot
    with pytest.raises(GridResolutionError):
        shifted_family(0.5, 12, UniformGrid(12.0, 64))      # band does not fit
    with pytest.raises(ValueError):
        shifted_family(0.5, -1)


def test_large_shift_warns():
    with pytest.warns(UserWarning, match="envelope"):
        shifted_family(1.2, 4)


@pytest.mark.parametrize("name", ("fam_half", "fam_anh"))
def test_family_is_frozen_with_measured_signs(request, name):
    fam = request.getfixturevalue(name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.signs = -fam.signs
    assert all(getattr(fam, f.name) is not None for f in dataclasses.fields(fam))
    np.testing.assert_array_equal(fam.signs, np.sign(np.diag(indefinite_gram(fam)).real))
    # The measured Gram and H f are shared with every reader, so read-only.
    for data in (fam.j_gram, fam.hf, indefinite_gram(fam)):
        assert not data.flags.writeable
        with pytest.raises(ValueError):
            data[0, 0] = 0.0


@pytest.mark.parametrize("name", ("fam_half", "fam_anh"))
def test_readers_build_no_gram_and_no_hf(request, monkeypatch, name):
    # The indefinite Gram and H f are measured once, at construction: with
    # the reflection and both H f builders refusing, every reader of them
    # still returns.
    fam = request.getfixturevalue(name)

    def refuse(*args, **kwargs):
        raise AssertionError("a reader rebuilt a quantity measured at construction")

    for builder in ("parity_apply", "_hermite_hf", "_anharmonic_hf"):
        monkeypatch.setattr(qb, builder, refuse)
    sign_pattern(fam)
    indefinite_gram(fam)
    biorthogonal_gram(fam)
    eigen_residual(fam)
    h_gram_in_g(fam)


# (a, n_max, half-width, nodes) of the perfbench quasibasis_grid Hermite
# families, then of the verify family; (beta, weight, n_max, nodes) of the
# anharmonic ones, then of the verify families.
HERMITE_DATA = [(0.25, 12, 12.0, 4096), (0.25, 24, 14.0, 4096), (0.25, 40, 20.0, 8192),
                (0.5, 8, 12.0, 4096), (0.5, 12, 12.0, 4096), (0.5, 16, 12.0, 4096),
                (0.4, 8, 12.0, 4096)]
ANHARMONIC_DATA = [(beta, weight, n_max, 8192) for beta in (3.0, 4.0)
                   for weight in ("x_over_1px2", "tanh") for n_max in (8, 16)]
ANHARMONIC_DATA += [(4.0, "x_over_1px2", 6, 8192), (4.0, "tanh", 5, 8192),
                    (4.0, "x_over_1px2", 6, 1024)]


def _assert_data_match_the_per_call_products(fam, hf):
    # The Gram and H f are the per-call products of the readers they
    # replace, bit for bit.  The biorthogonal Gram, now j_gram* diag(sigma),
    # takes the product in the other operand order, which BLAS may round
    # differently: measured 3.4e-15 at most on the Hermite families, 0 on
    # the anharmonic ones.
    assert fam.j_gram.tobytes() == ref.indefinite_gram_product(fam.f, fam.step).tobytes()
    assert fam.hf.tobytes() == hf.tobytes()
    bio = ref.biorthogonal_product(fam.f, fam.step, fam.signs)
    assert np.max(np.abs(biorthogonal_gram(fam) - bio)) <= 1e-14 * max(1.0, np.max(np.abs(bio)))


@pytest.mark.parametrize("a, n_max, half_width, nodes", HERMITE_DATA)
def test_hermite_data_match_the_per_call_products(a, n_max, half_width, nodes):
    fam = shifted_family(a, n_max, UniformGrid(half_width, nodes))
    _assert_data_match_the_per_call_products(fam, ref.hermite_apply_h(fam.a, fam.x, n_max))


@pytest.mark.parametrize("beta, weight, n_max, nodes", ANHARMONIC_DATA)
def test_anharmonic_data_match_the_per_call_products(beta, weight, n_max, nodes):
    fam = anharmonic_family(beta, weight, n_max, UniformGrid(8.0, nodes))
    _assert_data_match_the_per_call_products(
        fam, ref.anharmonic_apply_h(fam.f, fam.x, fam.step, fam.beta, fam.p_funcs))


# ------------------------------------------------------------ indefinite Gram

def test_indefinite_gram_unshifted_parity(fam0):
    gram = indefinite_gram(fam0)
    want = np.diag([(-1.0) ** n for n in range(13)])
    assert np.max(np.abs(gram - want)) < 1e-12


def test_indefinite_gram_shifted():
    fam = shifted_family(0.5, 15)
    sigma, offdiag, ok = sign_pattern(fam)
    assert ok
    assert offdiag < 1e-8
    np.testing.assert_allclose(sigma, [(-1.0) ** n for n in range(16)])
    gram = indefinite_gram(fam)
    assert abs(gram[0, 1]) < 1e-8       # the f_0 / f_1 cross term


def test_indefinite_gram_oracle_quadrature(fam_half):
    # recompute one entry with the polynomial-route values: the indefinite
    # pairing integrates f_m(-x) conj(f_n(x))
    f2 = ref.hermite_function_poly(2, fam_half.x + 0.5j)
    val = fam_half.step * np.sum(parity_apply(f2) * np.conj(f2))
    assert val == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------- G metric

def test_g_gram_unshifted_is_identity(fam0):
    assert np.max(np.abs(metric_gram(fam0) - np.eye(13))) < 1e-8


def test_g_gram_shifted_identity(fam_half):
    assert np.max(np.abs(metric_gram(fam_half) - np.eye(13))) < 1e-6
    assert metric_inner(fam_half, fam_half.f[0], fam_half.f[0]) == pytest.approx(
        1.0, abs=1e-8)


def test_half_metric_maps_f_to_g(fam_half):
    # e^{Q/2} f_n = g_n is the identity behind the metric Gram route
    for n in (0, 5, 12):
        got = fam_half.half_metric(fam_half.f[n])
        assert quad_norm(fam_half, got - fam_half.g[n]) < 1e-8


def test_band_gate_refuses_flat_spectra(fam_half):
    spike = np.zeros(fam_half.nodes)
    spike[fam_half.nodes // 2] = 1.0
    with pytest.raises(FrequencyBandError):
        metric_norm(fam_half, spike)
    # one gate over a row stack names the first row it refuses
    with pytest.raises(FrequencyBandError, match=r"rows\(1\)"):
        fam_half.metric_rows(np.vstack([fam_half.f[0], spike]), "rows({})")


# ----------------------------------------------------------------- eigenpairs

def test_eigen_residual_unshifted(fam0):
    lam, residuals = eigen_residual(fam0)
    np.testing.assert_allclose(lam, 1.0 + 2.0 * np.arange(13))
    assert lam[3] == 7.0
    assert residuals.max() < 1e-10


def test_eigen_residual_shifted(fam_half):
    lam, residuals = eigen_residual(fam_half)
    np.testing.assert_allclose(lam, 1.0 + 2.0 * np.arange(13) + 0.25)
    assert lam[3] == 7.25
    assert residuals.max() < 1e-8


def test_h_gram_in_g_diagonal():
    fam = shifted_family(0.5, 10)
    a = h_gram_in_g(fam)
    assert np.max(np.abs(a - a.conj().T)) < 1e-8
    off = a - np.diag(np.diag(a))
    assert np.max(np.abs(off)) < 1e-6
    np.testing.assert_allclose(np.diag(a).real, 1.25 + 2.0 * np.arange(11), atol=1e-6)


def test_h_gram_in_g_unshifted(fam0):
    a = h_gram_in_g(fam0)
    np.testing.assert_allclose(np.diag(a).real, 1.0 + 2.0 * np.arange(13), atol=1e-8)


# ------------------------------------------------------------------ C action

def test_c_action_eigenvectors(fam_half):
    sigma, _, _ = sign_pattern(fam_half)
    got = c_action(fam_half, fam_half.f[2])
    assert quad_norm(fam_half, got - sigma[2] * fam_half.f[2]) < 1e-8
    assert sigma[2] == 1.0

    mixed = fam_half.f[1] + fam_half.f[2]
    want = sigma[1] * fam_half.f[1] + sigma[2] * fam_half.f[2]
    got = c_action(fam_half, mixed)
    assert quad_norm(fam_half, got - want) < 1e-8
    # involution on the span
    assert quad_norm(fam_half, c_action(fam_half, got) - mixed) < 1e-8


def test_c_action_unshifted_is_parity(fam0):
    u = fam0.g[3].astype(complex)
    got = c_action(fam0, u)
    np.testing.assert_allclose(got, parity_apply(u), atol=1e-10)


def test_c_action_routes_agree(fam_half):
    u = fam_half.f[0] + 0.3 * fam_half.f[4] - 0.2j * fam_half.f[7]
    direct = c_action(fam_half, u)
    mult = c_action_multiplier(fam_half, u)
    assert quad_norm(fam_half, direct - mult) < 1e-8


def test_c_action_warns_off_span(fam_half):
    bump = 1.0 / (1.0 + fam_half.x ** 2)
    with pytest.warns(UserWarning, match="span"):
        c_action(fam_half, bump)


def test_jc_positivity(fam_half):
    w = np.linalg.eigvalsh(0.5 * (metric_gram(fam_half) + metric_gram(fam_half).conj().T))
    assert w[0] > 0.9      # numerically the identity, in particular PD


def test_biorthogonality(fam_half):
    assert np.max(np.abs(biorthogonal_gram(fam_half) - np.eye(13))) < 1e-8


# ------------------------------------------------------------------ expansion

def test_expansion_reproduces_basis_vector(fam_half):
    rep = expansion(fam_half, fam_half.f[5])
    assert abs(rep.coefficients[5] - 1.0) < 1e-8
    others = np.delete(rep.coefficients, 5)
    assert np.max(np.abs(others)) < 1e-8
    assert rep.g_errors[-1] < 1e-8
    assert rep.span_residual < 1e-8


def test_expansion_zero_target(fam_half):
    rep = expansion(fam_half, np.zeros(fam_half.nodes))
    assert np.all(rep.coefficients == 0.0)


def test_expansion_errors_non_increasing(fam_half):
    target = np.exp(-fam_half.x ** 2).astype(complex)
    rep = expansion(fam_half, target)
    assert np.all(np.diff(rep.g_errors) < 1e-12)
    assert np.all(np.diff(rep.plain_errors) < 1e-12)


EXPANSION_FAMILIES = {
    "hermite-0.5-12": lambda: shifted_family(0.5, 12),
    "hermite-0.4-8": lambda: shifted_family(0.4, 8),
    "anharmonic-4-6": lambda: anharmonic_family(4.0, "x_over_1px2", n_max=6),
    "anharmonic-4-8": lambda: anharmonic_family(4.0, "x_over_1px2", n_max=8),
    "anharmonic-3-tanh-16": lambda: anharmonic_family(3.0, "tanh", n_max=16),
}


@pytest.mark.parametrize("name", sorted(EXPANSION_FAMILIES))
def test_expansion_matches_per_cutoff_oracle(name):
    # the families and targets of `quasi-basis` and `verify`, one seeded
    # in-span target, and one target off the span
    fam = EXPANSION_FAMILIES[name]()
    count = fam.n_max + 1
    rng = np.random.default_rng(1017)
    in_span = [fam.f.T @ (1.0 / (1.0 + np.arange(count))),
               fam.f[2] + 0.5j * fam.f[5],
               fam.f[1] - 2.0 * fam.f[4],
               fam.f.T @ (rng.standard_normal(count) + 1j * rng.standard_normal(count))]
    off_span = np.exp(-fam.x ** 2).astype(complex)
    for target in in_span + [off_span]:
        rep = expansion(fam, target)
        want = ref.per_cutoff_expansion_errors(fam, target, rep.coefficients)
        assert np.max(np.abs(rep.g_errors - want)) <= 1e-12
        assert np.all(np.diff(rep.g_errors) <= MONOTONE_SLACK)
        assert target is off_span or rep.g_errors[-1] < EXPANSION_TOL


@pytest.mark.parametrize("n_max", (8, 16))
def test_fft_count_independent_of_n_max(monkeypatch, n_max):
    fam = shifted_family(0.5, n_max)
    target = fam.f.T @ (1.0 / (1.0 + np.arange(n_max + 1)))
    counted = []

    def count(*args, _real=np.fft.fft, **kwargs):
        counted.append(1)
        return _real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", count)
    calls = {}
    for name, run in (("metric_gram", lambda: metric_gram(fam)),
                      ("h_gram_in_g", lambda: h_gram_in_g(fam)),
                      ("expansion", lambda: expansion(fam, target))):
        counted.clear()
        run()
        calls[name] = len(counted)
    assert calls == {"metric_gram": 1, "h_gram_in_g": 2, "expansion": 3}


def test_expansion_converges_across_truncations():
    target = None
    finals = []
    for n_max in (4, 8, 16):
        fam = shifted_family(0.5, n_max)
        if target is None:
            target = np.exp(-fam.x ** 2).astype(complex)
        finals.append(expansion(fam, target).g_errors[-1])
    assert finals[0] > finals[1] > finals[2]


# ----------------------------------------------------------------- anharmonic

def test_anharmonic_parities_interleave(fam_anh):
    np.testing.assert_allclose(fam_anh.g_parities, [(-1) ** n for n in range(9)])


def test_anharmonic_weighted_gram_identity(fam_anh):
    assert np.max(np.abs(weighted_gram(fam_anh) - np.eye(9))) < 1e-12


def test_anharmonic_indefinite_gram(fam_anh):
    sigma, offdiag, ok = sign_pattern(fam_anh)
    assert ok and offdiag < 1e-6
    np.testing.assert_allclose(sigma, [(-1.0) ** n for n in range(9)])


def test_anharmonic_eigen_residual(fam_anh):
    lam, residuals = eigen_residual(fam_anh)
    assert residuals[0] < 1e-4
    assert residuals.max() < 1e-4
    assert np.all(fam_anh.richardson_error < 1e-3)


def test_anharmonic_spectrum_against_reference(fam_anh):
    # the conjugated operator is similar to -u'' + x^4, whose low levels a
    # fine independent grid pins to ~1e-6
    want = ref.quartic_reference_eigenvalues(9)
    got = fam_anh.eigenvalues
    assert abs(got[0] - 1.0603620904) < 2e-6
    np.testing.assert_allclose(got, want, atol=5e-4)


def test_anharmonic_richardson_error_is_the_error_of_the_grid_levels(fam_anh):
    # the estimate read from the coarse copy is the error of lambda_h itself,
    # not the 4x smaller one of lambda_{h/2}, and the extrapolated levels
    # match the reference, which is good to about 1e-6
    want = ref.quartic_reference_eigenvalues(9)
    ratio = np.abs(fam_anh.eigenvalues - want) / fam_anh.richardson_error
    assert np.all((0.95 <= ratio[2:]) & (ratio[2:] <= 1.05)), ratio
    assert np.max(np.abs(fam_anh.extrapolated_eigenvalues - want)) < 2e-6
    assert np.all(fam_anh.extrapolation_error < 1e-6)


def test_anharmonic_family_is_real(fam_anh):
    # f = e^p g is real, and so are its rows H f and its Grams; the weights
    # are held read-only, bit for bit the expressions they replace
    for rows in (fam_anh.f, fam_anh.hf, fam_anh.j_gram, metric_gram(fam_anh),
                 h_gram_in_g(fam_anh)):
        assert rows.dtype == np.float64
    p = fam_anh.p_funcs[0](fam_anh.x)
    assert np.array_equal(fam_anh.weight, np.exp(-2.0 * p))
    assert np.array_equal(fam_anh.half_weight, np.exp(-p))
    assert not fam_anh.weight.flags.writeable and not fam_anh.half_weight.flags.writeable


def test_anharmonic_gnorm_identity(fam_anh, rng):
    # ||f||_G^2 = (e^{-2p} f, f)
    coeffs = rng.standard_normal(9)
    u = fam_anh.f.T @ coeffs
    p = fam_anh.p_funcs[0]
    direct = fam_anh.step * np.sum(np.exp(-2.0 * p(fam_anh.x)) * np.abs(u) ** 2)
    assert metric_norm(fam_anh, u) ** 2 == pytest.approx(direct, rel=1e-12)


def test_anharmonic_c_multiplier_route(fam_anh):
    u = fam_anh.f[0] + 0.5 * fam_anh.f[3]
    direct = c_action(fam_anh, u)
    mult = c_action_multiplier(fam_anh, u)
    assert quad_norm(fam_anh, direct - mult) < 1e-6


@pytest.mark.parametrize("beta, weight, n_max", [(4.0, "x_over_1px2", 8),
                                                  (3.0, "tanh", 16)])
def test_anharmonic_h_gram_in_g(beta, weight, n_max):
    fam = anharmonic_family(beta, weight, n_max=n_max)
    a = h_gram_in_g(fam)
    want = ref.weighted_h_gram(fam.x, fam.step, fam.p_funcs[0], fam.hf, fam.f)
    assert np.max(np.abs(a - want)) <= 1e-12 * np.max(np.abs(want))
    # H is symmetric in the metric product up to the h^2 discretization
    # floor, and f_n are its eigenfunctions
    assert np.max(np.abs(a - a.conj().T)) < 1e-4
    assert np.max(np.abs(a - np.diag(np.diag(a)))) < 1e-4
    np.testing.assert_allclose(np.diag(a), fam.eigenvalues, rtol=0, atol=1e-4)


def test_anharmonic_validation():
    with pytest.raises(ValueError):
        anharmonic_family(2.0)          # beta must exceed 2
    with pytest.raises(ValueError):
        anharmonic_family(4.0, "no_such_weight")
    with pytest.raises(ValueError, match=r"beta 400.0 .* half_width 8.0"):
        anharmonic_family(400.0, n_max=2)     # 8 ** 400 overflows


def test_anharmonic_nmax_bounded_by_the_half_line_grid():
    # the odd half-line problem of a 16-node grid has 7 unknowns, and each
    # parity needs n_max + 2 eigenpairs
    grid = UniformGrid(8.0, 16)
    assert anharmonic_family(4.0, n_max=5, grid=grid).n_max == 5
    with pytest.raises(ValueError, match=r"n_max 6 .* at most 5"):
        anharmonic_family(4.0, n_max=6, grid=grid)


def test_anharmonic_tanh_weight():
    fam = anharmonic_family(4.0, "tanh", n_max=4)
    sigma, offdiag, ok = sign_pattern(fam)
    assert ok and offdiag < 1e-6
    assert np.max(np.abs(weighted_gram(fam) - np.eye(5))) < 1e-12


def test_anharmonic_richardson_solves_are_eigenvalues_only(monkeypatch):
    # the only eigh_tridiagonal calls are, per parity for the 2 levels the
    # merge keeps at n_max 3, the eigenvector bisection of the
    # 2**COARSENING times coarser copy (64 half-line points on a 1024-node
    # grid) and the eigenvalues-only bisection of the copy twice as coarse
    # (32 points); none runs on the grid's own 512 / 511 rows or on the
    # halved step.  On the grid, one Sturm count per parity certifies the
    # refined levels and one the merge
    solve, count = scipy.linalg.eigh_tridiagonal, scipy.linalg.lapack.dstebz
    calls = []

    def counting_solve(d, e, **kwargs):
        calls.append(("eigh_tridiagonal", d.size, kwargs.get("eigvals_only", False),
                      kwargs["select_range"][1] + 1))
        return solve(d, e, **kwargs)

    def counting_count(d, e, *args):
        calls.append(("dstebz", d.size, args[0]))
        return count(d, e, *args)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting_solve)
    monkeypatch.setattr(scipy.linalg.lapack, "dstebz", counting_count)
    anharmonic_family(4.0, "tanh", n_max=3, grid=UniformGrid(8.0, 1024))
    # the odd problems drop the unknown at x = 0; range 1 is RANGE='V'
    assert qb.COARSENING == 3
    assert sorted(calls) == [("dstebz", 511, 1), ("dstebz", 511, 1),
                             ("dstebz", 512, 1), ("dstebz", 512, 1),
                             ("eigh_tridiagonal", 31, True, 2),
                             ("eigh_tridiagonal", 32, True, 2),
                             ("eigh_tridiagonal", 63, False, 2),
                             ("eigh_tridiagonal", 64, False, 2)]


@pytest.mark.parametrize("beta, weight, n_max", [(4.0, "x_over_1px2", 6), (3.0, "tanh", 9)])
def test_anharmonic_merge_matches_loop_reference(beta, weight, n_max):
    # the array merge of the even/odd branches copies what the per-level
    # loop of the reference computes, bit for bit
    grid = UniformGrid(8.0, 1024)
    fam = anharmonic_family(beta, weight, n_max=n_max, grid=grid)
    (w_even, u_even, _, est_even), (w_odd, u_odd, _, est_odd) = qb.halfline_levels(
        beta, grid, qb.merged_counts(n_max))
    eigs, parities, estimates, g = ref.halfline_merge_loop(
        (w_even, u_even), (w_odd, u_odd), est_even, est_odd, n_max)
    assert np.array_equal(fam.eigenvalues, eigs)
    assert np.array_equal(fam.g_parities, parities)
    assert np.array_equal(fam.richardson_error, estimates[0])
    assert np.array_equal(fam.extrapolated_eigenvalues, estimates[1])
    assert np.array_equal(fam.extrapolation_error, estimates[2])
    assert np.array_equal(fam.g, g)


# (beta, n_max) of the perfbench quasibasis_grid anharmonic families (the
# weight does not enter g or the eigenvalues), then of the two verify checks
POOL_LEVELS = [(3.0, 8), (3.0, 16), (4.0, 8), (4.0, 16)]
VERIFY_LEVELS = [(4.0, 6), (4.0, 5)]


@pytest.mark.parametrize("beta, n_max", POOL_LEVELS)
def test_anharmonic_g_matches_the_per_column_normalization(monkeypatch, beta, n_max):
    # the array normalization of the grid's eigenvectors is the per-column
    # loop's on the same raw vectors (the refined, orthonormalized unknowns
    # of each parity), bit for bit
    grid = qb.ANHARMONIC_GRID
    normalize, solve = qb._full_line, qb._halfline_eigs
    raw, solved = [], []

    def recording_normalize(vec, h, parity):
        if h == grid.step:                   # not the coarse copy's samples
            raw.append(vec.copy())
        return normalize(vec, h, parity)

    def recording_solve(*args):
        solved.append(solve(*args))
        return solved[-1]

    monkeypatch.setattr(qb, "_full_line", recording_normalize)
    monkeypatch.setattr(qb, "_halfline_eigs", recording_solve)
    fam = anharmonic_family(beta, "tanh", n_max=n_max)
    assert len(raw) == len(solved) == 2 and all(radii is not None for _, _, radii, _ in solved)
    even, odd = ((w, ref.full_line_loop(vec, grid.step, parity))
                 for (w, *_), vec, parity in zip(solved, raw, ("even", "odd")))
    counts = qb.merged_counts(n_max)
    *_, g = ref.halfline_merge_loop(even, odd, np.zeros((3, counts[0])), np.zeros((3, counts[1])),
                                    n_max)
    assert fam.g.tobytes() == g.tobytes()


@pytest.mark.parametrize("nodes, beta, n_max", [(8192, beta, n_max) for beta, n_max
                                                in POOL_LEVELS + VERIFY_LEVELS] + [(16, 4.0, 5)])
def test_merge_certificate_holds_by_exact_sturm_counts(nodes, beta, n_max):
    # exact Sturm counts of the stored coarse matrices: each parity has
    # exactly the levels solved for it at or below the top merged level plus
    # the certificate's slack, so the merge keeps the n_max + 1 lowest
    # levels.  On 16 nodes at n_max 5 the next even level lies 9e-10 above
    # the top (odd) one.
    grid = UniformGrid(8.0, nodes)
    counts = qb.merged_counts(n_max)
    levels = qb.halfline_levels(beta, grid, counts)
    assert qb.merge_certified(beta, grid, levels)
    top = max(w[-1] for w, *_ in levels)
    v_half = np.abs(grid.step * np.arange(nodes // 2)) ** beta
    for parity, count in zip(("even", "odd"), counts):
        d, e = qb._halfline_tridiagonal(v_half, grid.step, parity)
        slack = qb.BRACKET_SLACK * np.finfo(float).eps * qb._gershgorin(d, e)[1]
        assert ref.exact_count_below(d, e, top + slack) == count, parity


def test_merge_falls_back_to_the_full_range_levels(monkeypatch):
    # a coarse solve that drops the lowest even level fails the certificate
    # at the counts the merge keeps; the family then solves n_max + 2 per
    # parity and is the full-range oracle's, bit for bit
    grid, n_max = UniformGrid(8.0, 16), 5
    solve = qb._halfline_eigs

    def dropping(v_half, h, parity, count):
        if parity == "odd" or count == n_max + 2:
            return solve(v_half, h, parity, count)
        w, u, radii, w_coarse = solve(v_half, h, parity, count + 1)
        assert radii is None and w_coarse is None    # 16 nodes: under the size floor
        return w[1:], u[:, 1:], radii, w_coarse

    monkeypatch.setattr(qb, "_halfline_eigs", dropping)
    assert not qb.merge_certified(4.0, grid, qb.halfline_levels(4.0, grid, qb.merged_counts(n_max)))
    fam = anharmonic_family(4.0, "x_over_1px2", n_max=n_max, grid=grid)
    eigs, parities, estimates, g = oracles.full_range_levels(4.0, grid, n_max)
    assert np.array_equal(fam.eigenvalues, eigs)
    assert np.array_equal(fam.g_parities, parities)
    assert np.array_equal(fam.richardson_error, estimates[0])
    assert np.array_equal(fam.extrapolated_eigenvalues, estimates[1])
    assert np.array_equal(fam.extrapolation_error, estimates[2])
    assert np.array_equal(fam.g, g)


@pytest.mark.parametrize("n_max, solved", [(0, [("even", 1)]),
                                           (1, [("even", 1), ("odd", 1)])])
def test_anharmonic_lowest_levels(monkeypatch, n_max, solved):
    # n_max 0 solves no odd level; both families agree with the full-range
    # oracle and are J-orthonormal
    grid = UniformGrid(8.0, 1024)
    solve, calls = qb._halfline_eigs, []

    def recording(v_half, h, parity, count):
        calls.append((parity, count))
        return solve(v_half, h, parity, count)

    monkeypatch.setattr(qb, "_halfline_eigs", recording)
    fam = anharmonic_family(4.0, "x_over_1px2", n_max=n_max, grid=grid)
    assert calls == solved
    eigs, parities, _, _ = oracles.full_range_levels(4.0, grid, n_max)
    np.testing.assert_allclose(fam.eigenvalues, eigs, rtol=0, atol=1e-9)
    assert np.array_equal(fam.g_parities, parities)
    assert np.array_equal(fam.g_parities, [1, -1][: n_max + 1])
    assert np.max(np.abs(weighted_gram(fam) - np.eye(n_max + 1))) < 1e-12


# ---------------------------------------- grid-step levels from a coarser copy

# (nodes, beta, n_max, parities expected to fall back): the pool and verify
# families, verify's 1024-node family, then grids whose coarse copy is too
# small for the levels (512 and 256 nodes) or fails the certificate.
GRID_STEP_CASES = ([(8192, beta, n_max, ()) for beta, n_max in POOL_LEVELS + VERIFY_LEVELS]
                   + [(1024, 4.0, 6, ()), (1024, 2.5, 8, ()), (1024, 6.0, 16, ("even",)),
                      (512, 4.0, 4, ("even", "odd")), (256, 3.0, 8, ("even", "odd"))])


@pytest.fixture(scope="module")
def halfline_1024():
    """(v_half, h) of the beta = 4 problem on a 1024-node grid."""
    grid = UniformGrid(8.0, 1024)
    return np.abs(grid.step * np.arange(512)) ** 4.0, grid.step


@pytest.mark.parametrize("nodes, beta, n_max, fallback", GRID_STEP_CASES)
def test_grid_step_brackets_hold_their_eigenvalues(nodes, beta, n_max, fallback):
    # exact Sturm counts of the stored grid-step matrix: each certified
    # bracket of the levels refined from the 2**COARSENING times coarser copy
    # holds the j-th lowest eigenvalue and no other, and the coarse copy's
    # eigenvalues are returned with them.  A parity that falls back returns
    # bisection's levels, bit for bit, and no coarse eigenvalues.
    grid = UniformGrid(8.0, nodes)
    v_half = np.abs(grid.step * np.arange(nodes // 2)) ** beta
    for parity, count in zip(("even", "odd"), qb.merged_counts(n_max)):
        w, u, radii, w_coarse = qb._halfline_eigs(v_half, grid.step, parity, count)
        assert (radii is None) == (parity in fallback) == (w_coarse is None), parity
        if radii is None:
            w_bisected, u_bisected = oracles.grid_step_bisection(beta, grid, parity, count)
            assert np.array_equal(w, w_bisected) and np.array_equal(u, u_bisected)
            continue
        d, e = qb._halfline_tridiagonal(v_half, grid.step, parity)
        for j in range(count):
            assert ref.exact_count_below(d, e, w[j] - radii[j]) == j, (parity, j)
            assert ref.exact_count_below(d, e, w[j] + radii[j]) == j + 1, (parity, j)


@pytest.mark.parametrize("parity", ("even", "odd"))
def test_grid_step_levels_fall_back_on_bad_starts(halfline_1024, monkeypatch, parity):
    # coarse eigenvectors shifted up one level refine to levels 1..5, and the
    # Sturm count finds 6 eigenvalues up to the top bracket; duplicated ones
    # give overlapping brackets.  Both fall back to bisection, bit for bit.
    v_half, h = halfline_1024
    w_bisected, u_bisected = oracles.grid_step_bisection(4.0, UniformGrid(8.0, 1024), parity, 5)
    w, _, radii, _ = qb._halfline_eigs(v_half, h, parity, 5)
    assert radii is not None and np.all(np.abs(w - w_bisected) <= radii)
    solve = scipy.linalg.eigh_tridiagonal
    for columns in ([1, 2, 3, 4, 5], [0, 0, 1, 2, 3]):
        def bad_starts(d, e, **kwargs):
            if d.size > 64:                  # the grid's own problem
                return solve(d, e, **kwargs)
            w, vec = solve(d, e, select="i", select_range=(0, 5))
            return w[columns], vec[:, columns]

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", bad_starts)
        w, u, radii, w_coarse = qb._halfline_eigs(v_half, h, parity, 5)
        assert radii is None and w_coarse is None
        assert np.array_equal(w, w_bisected) and np.array_equal(u, u_bisected)


def test_grid_step_levels_fall_back_when_a_solve_breaks_down(halfline_1024, monkeypatch):
    v_half, h = halfline_1024
    solve = scipy.linalg.lapack.dgtsv

    def breaking(*args, **kwargs):
        *out, _ = solve(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", breaking)
    w, u, radii, w_coarse = qb._halfline_eigs(v_half, h, "even", 5)
    assert radii is None and w_coarse is None
    w_bisected, u_bisected = oracles.grid_step_bisection(4.0, UniformGrid(8.0, 1024), "even", 5)
    assert np.array_equal(w, w_bisected) and np.array_equal(u, u_bisected)


@pytest.mark.parametrize("nodes, count", [(512, 1), (1024, 17)])
def test_grid_step_levels_bisect_when_the_coarse_copy_is_too_small(monkeypatch, nodes, count):
    # 512 nodes leave 32 coarse points, under COARSE_MIN_POINTS; 1024 nodes
    # leave 64, under COARSE_POINTS_PER_LEVEL * 17.  No coarse copy is
    # solved, and the levels are bisection's, bit for bit.
    grid = UniformGrid(8.0, nodes)
    v_half = np.abs(grid.step * np.arange(nodes // 2)) ** 4.0
    solve, sizes = scipy.linalg.eigh_tridiagonal, []

    def recording(d, e, **kwargs):
        sizes.append(d.size)
        return solve(d, e, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recording)
    w, u, radii, w_coarse = qb._halfline_eigs(v_half, grid.step, "odd", count)
    assert radii is None and w_coarse is None and sizes == [nodes // 2 - 1]
    w_bisected, u_bisected = oracles.grid_step_bisection(4.0, grid, "odd", count)
    assert np.array_equal(w, w_bisected) and np.array_equal(u, u_bisected)


@pytest.fixture(scope="module")
def pool_families():
    """The 14 `quasibasis_grid` families of perfbench seed 20261017, each
    with the coefficients of its seeded in-span vector."""
    out = []
    for item in ref.perfbench_gen().quasibasis_pool(20261017):
        if item["kind"] == "hermite":
            fam = shifted_family(item["a"], item["n_max"],
                                 UniformGrid(item["half_width"], item["nodes"]))
        else:
            fam = anharmonic_family(item["beta"], item["weight"], item["n_max"])
        out.append((fam, item["coeff"]))
    return out


def test_pool_anharmonic_levels_agree_with_bisection(pool_families):
    # the 8 anharmonic pool families against n_max + 2 bisected levels per
    # parity: the same parities, eigenvalues and g within LEVELS_TOL, and a
    # weighted Gram within 1e-12 of I
    anharmonic = [fam for fam, _ in pool_families if isinstance(fam, qb.AnharmonicFamily)]
    assert len(anharmonic) == 8
    for fam in anharmonic:
        eigs, parities, _, g = oracles.full_range_levels(fam.beta, qb.ANHARMONIC_GRID, fam.n_max)
        assert np.array_equal(fam.g_parities, parities)
        assert np.max(np.abs(fam.eigenvalues - eigs)) <= LEVELS_TOL
        assert np.max(np.abs(fam.g - g)) <= LEVELS_TOL
        assert np.max(np.abs(weighted_gram(fam) - np.eye(fam.n_max + 1))) < 1e-12


def _halved_step_richardson_error(fam, grid):
    """4/3 |lambda_h - lambda_{h/2}| per level of fam, with lambda_{h/2} from
    the bisection of the halved step of its parity."""
    halved = np.empty(fam.n_max + 1)
    for parity, sign in (("even", 1), ("odd", -1)):
        mask = fam.g_parities == sign
        if np.any(mask):
            halved[mask] = oracles.halved_step_bisection(fam.beta, grid, parity, np.sum(mask))
    return 4.0 / 3.0 * np.abs(fam.eigenvalues - halved)


def test_pool_richardson_error_agrees_with_the_halved_step_oracle(pool_families):
    # the estimate read from the coarse copies of the 8 anharmonic pool
    # families is within 1 % of the halved-step estimate of the error of
    # lambda_h (at most 0.09 % measured)
    anharmonic = [fam for fam, _ in pool_families if isinstance(fam, qb.AnharmonicFamily)]
    for fam in anharmonic:
        want = _halved_step_richardson_error(fam, qb.ANHARMONIC_GRID)
        assert np.all(np.abs(fam.richardson_error - want) <= 0.01 * want)


@pytest.mark.parametrize("nodes, beta, n_max, certified", [(16, 4.0, 5, 0), (256, 6.0, 40, 0),
                                                           (1024, 6.0, 16, 1)])
def test_fallback_richardson_error_agrees_with_the_halved_step_oracle(
        monkeypatch, nodes, beta, n_max, certified):
    # a parity that falls back reads its estimates from the halved step, and
    # its extrapolation error is its Richardson error; on 1024 nodes the odd
    # parity certifies and the even one falls back (0.74 % measured)
    grid = UniformGrid(8.0, nodes)
    solve, routes = qb._halfline_eigs, []

    def recording(*args):
        out = solve(*args)
        routes.append(out[2] is not None)
        return out

    monkeypatch.setattr(qb, "_halfline_eigs", recording)
    fam = anharmonic_family(beta, "x_over_1px2", n_max=n_max, grid=grid)
    assert sum(routes) == certified and len(routes) == 2
    want = _halved_step_richardson_error(fam, grid)
    assert np.all(np.abs(fam.richardson_error - want) <= 0.01 * want)
    if not certified:
        assert np.array_equal(fam.extrapolation_error, fam.richardson_error)
        np.testing.assert_allclose(fam.richardson_error, want, rtol=1e-12, atol=0)


def test_span_residual_agrees_with_least_squares(pool_families):
    # the R factor against the least-squares fit on the 14 pool families: in
    # span both are rounding (at most 3e-15 measured); off span, on a fixed
    # Gaussian and on the in-span vector plus 1e-8 noise, they agree to
    # 7 significant digits
    rng = np.random.default_rng(1017)
    for fam, coeff in pool_families:
        u = fam.f.T @ coeff
        assert qb.span_residual(fam, u) <= 1e-14
        assert ref.span_residual_lstsq(fam, u) <= 1e-14
        noise = 1e-8 * np.linalg.norm(u) / np.sqrt(fam.nodes) * rng.standard_normal(fam.nodes)
        for v in (np.exp(-fam.x ** 2).astype(complex), u + noise):
            want = ref.span_residual_lstsq(fam, v)
            assert abs(qb.span_residual(fam, v) - want) <= 1e-7 * want
    assert qb.span_residual(fam, np.zeros(fam.nodes)) == 0.0


def test_parity_mixing_refusal(monkeypatch):
    def degenerate_eigs(v_half, h, parity, count):
        w = 1.0 + np.arange(count, dtype=float)      # identical per parity
        vec = np.full((v_half.size if parity == "even" else v_half.size, count),
                      1.0 / np.sqrt(v_half.size))
        return w, vec, None, None

    monkeypatch.setattr(qb, "_halfline_eigs", degenerate_eigs)
    with pytest.raises(ParityMixingError):
        anharmonic_family(4.0, "x_over_1px2", n_max=4)
