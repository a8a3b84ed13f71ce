import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as ref
from kreinlab import (
    GMetric,
    PartialContraction,
    SignatureSpace,
    any_sa_extension,
    cayley,
    cayley_inverse,
    classify_case,
    density_test,
    extension_from_x,
    extremality_test,
    j_symmetrize,
    krein_interval,
    max_subspaces,
    solve_x_equation,
    x_equation_residual,
)
from kreinlab._linalg import RESULT_TOL
from kreinlab.errors import CayleyUndefinedError, InvariantViolation
from kreinlab.oracles import rank_extremality, sqrt_projection_endpoints
from kreinlab.verify import (
    random_anticommuting_contraction,
    random_partial_contraction,
    random_signature_space,
    random_x,
)


def opnorm(m):
    return float(np.linalg.norm(m, 2))


def half_contraction(j2):
    space = SignatureSpace(j2)
    return PartialContraction(space, [[1.0], [0.0]], [[0.0], [0.5]])


def empty_domain_contraction(j2):
    space = SignatureSpace(j2)
    empty = np.zeros((2, 0), dtype=complex)
    return PartialContraction(space, empty, empty.copy())


# --------------------------------------------------------- seed completions

def test_any_sa_extension_full_domain_is_identity_map(j2):
    space = SignatureSpace(j2)
    t = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    t0 = PartialContraction(space, np.eye(2, dtype=complex), t)
    np.testing.assert_allclose(any_sa_extension(t0), t, atol=1e-12)


def test_any_sa_extension_midpoint(j2):
    # admissible corner interval is [-3/4, 3/4]; the midpoint completion is 0
    got = any_sa_extension(half_contraction(j2))
    np.testing.assert_allclose(got, [[0.0, 0.5], [0.5, 0.0]], atol=1e-9)


def test_any_sa_extension_empty_domain(j2):
    np.testing.assert_allclose(any_sa_extension(empty_domain_contraction(j2)),
                               np.zeros((2, 2)), atol=1e-12)


def test_j_symmetrize_cases(j2):
    space = SignatureSpace(j2)
    anti = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    np.testing.assert_allclose(j_symmetrize(space, anti), anti, atol=1e-14)
    for c in (-0.7, -0.2, 0.3, 0.74):
        t_prime = np.array([[0.0, 0.5], [0.5, c]], dtype=complex)
        np.testing.assert_allclose(j_symmetrize(space, t_prime), anti, atol=1e-14)
    np.testing.assert_allclose(j_symmetrize(space, j2), np.zeros((2, 2)), atol=1e-14)


# ----------------------------------------------------------- Krein interval

def test_interval_empty_domain_is_unit_ball(j2):
    iv = krein_interval(empty_domain_contraction(j2))
    np.testing.assert_allclose(iv.t_mu, -np.eye(2), atol=1e-10)
    np.testing.assert_allclose(iv.t_m, np.eye(2), atol=1e-10)
    assert iv.defect_dim == 2
    assert iv.signature == (1, 1)
    assert classify_case(iv) == "B"


def test_interval_half_instance(j2):
    iv = krein_interval(half_contraction(j2))
    np.testing.assert_allclose(iv.t_mu, [[0.0, 0.5], [0.5, -0.75]], atol=1e-10)
    np.testing.assert_allclose(iv.t_m, [[0.0, 0.5], [0.5, 0.75]], atol=1e-10)
    assert iv.defect_dim == 1
    np.testing.assert_allclose(np.abs(iv.defect.basis), [[0.0], [1.0]], atol=1e-10)
    assert iv.signature == (0, 1)
    assert classify_case(iv) == "C"


def test_interval_full_domain_collapses(j2):
    space = SignatureSpace(j2)
    t = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    t0 = PartialContraction(space, np.eye(2, dtype=complex), t)
    iv = krein_interval(t0)
    np.testing.assert_allclose(iv.t_mu, t, atol=1e-12)
    np.testing.assert_allclose(iv.t_m, t, atol=1e-12)
    assert iv.defect_dim == 0
    assert classify_case(iv) == "A"


def test_near_unit_case_is_the_interval_defect_decision(j2):
    # ||T0|| = 1 - eps: the interval width 2(1 - ||T0||^2) crosses DEFECT_FLOOR
    space = SignatureSpace(j2)
    cases = set()
    for eps in np.logspace(-12, -9, 61):
        iv = krein_interval(PartialContraction(space, [[1.0], [0.0]], [[0.0], [1.0 - eps]]))
        case = classify_case(iv)
        assert (case == "A") == (iv.defect_dim == 0)
        cases.add(case)
    assert cases == {"A", "C"}


@pytest.mark.parametrize("seed", range(10))
def test_interval_matches_bisection_oracle(seed):
    # codimension-one domains in dims 2-4: endpoints against pure
    # feasibility bisection on the corner entry (no shared algorithm)
    rng = np.random.default_rng(300 + seed)
    dim = int(rng.integers(2, 5))
    space = random_signature_space(rng, dim=dim)
    keep = dim - 1
    for _ in range(50):
        t0 = random_partial_contraction(rng, space)
        if t0.domain_dim == keep:
            break
    else:
        pytest.skip("generator did not produce a codimension-one domain")
    t_min, t_max = ref.bisection_endpoints(t0)
    iv = krein_interval(t0)
    assert opnorm(iv.t_mu - t_min) < 1e-8
    assert opnorm(iv.t_m - t_max) < 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_interval_dominates_feasible_cloud(seed):
    # any feasible completion sits between the endpoints in Loewner order
    rng = np.random.default_rng(400 + seed)
    space = random_signature_space(rng)
    t0 = random_partial_contraction(rng, space)
    iv = krein_interval(t0)
    c_min, c_max = sqrt_projection_endpoints(t0)
    comp = ref.complement_basis(np.asarray(t0.domain))
    cloud = ref.feasible_corner_cloud(
        t0,
        comp.conj().T @ c_min @ comp,
        comp.conj().T @ c_max @ comp,
        rng,
    )
    for t in cloud:
        assert ref.is_contraction(t, slack=1e-9)
        assert np.linalg.eigvalsh(t - iv.t_mu)[0] > -1e-9
        assert np.linalg.eigvalsh(iv.t_m - t)[0] > -1e-9
    # endpoints are themselves feasible completions (attained bounds)
    for endpoint in (iv.t_mu, iv.t_m):
        assert ref.is_contraction(endpoint, slack=1e-9)
        assert opnorm(endpoint @ t0.domain - t0.action) < 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_interval_versus_schur_completion(seed):
    # production block completion against the square-root/projection oracle
    rng = np.random.default_rng(500 + seed)
    space = random_signature_space(rng)
    t0 = random_partial_contraction(rng, space)
    iv = krein_interval(t0)
    t_min, t_max = sqrt_projection_endpoints(t0)
    assert opnorm(iv.t_mu - t_min) < 1e-8
    assert opnorm(iv.t_m - t_max) < 1e-8
    # hard/soft endpoints swap under J-conjugation
    j = space.j
    assert opnorm(j @ iv.t_mu + iv.t_m @ j) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_sqrt_projection_endpoints_independent_of_seed(seed):
    # the oracle gives the same endpoints from the midpoint seed and from the
    # full contraction the domain was cut from, and both match production
    rng = np.random.default_rng(1000 + seed)
    space = random_signature_space(rng)
    t_full = random_anticommuting_contraction(rng, space)
    t0 = random_partial_contraction(rng, space, t_full=t_full)
    iv = krein_interval(t0)
    mid_mu, mid_m = sqrt_projection_endpoints(t0)
    full_mu, full_m = sqrt_projection_endpoints(t0, seed=t_full)
    assert opnorm(mid_mu - full_mu) < 1e-10
    assert opnorm(mid_m - full_m) < 1e-10
    for t_mu, t_m in ((mid_mu, mid_m), (full_mu, full_m)):
        assert opnorm(t_mu - iv.t_mu) < 1e-10
        assert opnorm(t_m - iv.t_m) < 1e-10


def test_sqrt_projection_rejects_seed_not_extending_t0(j2):
    # anticommuting contraction, but T e1 = e2 / 4 instead of e2 / 2
    seed = np.array([[0.0, 0.25], [0.25, 0.0]], dtype=complex)
    with pytest.raises(InvariantViolation, match="does not extend T0"):
        sqrt_projection_endpoints(half_contraction(j2), seed=seed)


# ------------------------------------------------------------- X parameters

def test_x_solutions_balanced_signature(j2):
    iv = krein_interval(empty_domain_contraction(j2))
    sols = solve_x_equation(iv, seed=11, n_projection_samples=4)
    assert sols.projection_exists
    assert sols.signature == (1, 1)
    jm = iv.j_on_defect()
    _, v = np.linalg.eigh(jm)
    seen = []
    for x in sols.projections:
        assert opnorm(x @ x - x) < 1e-10
        assert x_equation_residual(x, jm) < 1e-10
        # in the eigenbasis of J every projection solution has the closed
        # form [[1/2, z], [z~, 1/2]] with |z| = 1/2
        y = v.conj().T @ x @ v
        assert y[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert y[1, 1] == pytest.approx(0.5, abs=1e-10)
        assert abs(y[0, 1]) == pytest.approx(0.5, abs=1e-10)
        seen.append(complex(y[0, 1]))
    # sampled pairings produce genuinely different projections
    assert len({np.round(z, 6) for z in seen}) > 1


def test_x_solutions_unbalanced_signature(j2):
    iv = krein_interval(half_contraction(j2))
    sols = solve_x_equation(iv)
    assert not sols.projection_exists
    assert sols.projections == []
    np.testing.assert_allclose(sols.elementary, [[0.5]], atol=1e-15)
    # the scalar equation x = 1 - x pins the unique solution 1/2, which is
    # not a projection
    assert opnorm(sols.elementary @ sols.elementary - sols.elementary) > 0.1


@pytest.mark.parametrize("seed", range(6))
def test_x_elementary_and_affine_closure(seed):
    rng = np.random.default_rng(600 + seed)
    space = random_signature_space(rng)
    t0 = random_partial_contraction(rng, space)
    iv = krein_interval(t0)
    if iv.defect_dim == 0:
        pytest.skip("trivial defect")
    sols = solve_x_equation(iv, seed=seed, n_projection_samples=2)
    jm = iv.j_on_defect()
    assert x_equation_residual(sols.elementary, jm) < 1e-12
    m = iv.defect_dim
    for x0 in [sols.elementary, *sols.projections]:
        assert x_equation_residual(np.eye(m) - x0, jm) < 1e-10
        for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert x_equation_residual(sols.affine(x0, alpha), jm) < 1e-10


def test_extension_from_x_endpoints_and_midpoint(j2):
    iv = krein_interval(half_contraction(j2))
    np.testing.assert_allclose(extension_from_x(iv, [[0.0]]).t, iv.t_mu, atol=1e-12)
    np.testing.assert_allclose(extension_from_x(iv, [[1.0]]).t, iv.t_m, atol=1e-12)
    mid = extension_from_x(iv, [[0.5]])
    np.testing.assert_allclose(mid.t, 0.5 * (iv.t_mu + iv.t_m), atol=1e-12)
    assert mid.anticommuting


@pytest.mark.parametrize("seed", range(8))
def test_extension_from_x_matches_dense_square_root(seed):
    rng = np.random.default_rng(1100 + seed)
    space = random_signature_space(rng)
    t0 = random_partial_contraction(rng, space)
    iv = krein_interval(t0)
    x = random_x(rng, iv.defect_dim)
    want = ref.extension_reference(iv.t_mu, iv.t_m, iv.defect.basis, x)
    assert opnorm(extension_from_x(iv, x).t - want) < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_anticommutation_equivalence_sampled(seed):
    # ambient verdict ||JT + TJ|| ~ 0 must coincide with the defect-space
    # fixed-point test X = J(I-X)J for every sampled X — in both directions
    rng = np.random.default_rng(700 + seed)
    space = random_signature_space(rng)
    t0 = random_partial_contraction(rng, space)
    iv = krein_interval(t0)
    if iv.defect_dim == 0:
        pytest.skip("trivial defect")
    m = iv.defect_dim
    jm = iv.j_on_defect()
    hits = 0
    j = space.j
    for _ in range(40):
        x = random_x(rng, m)
        choice = extension_from_x(iv, x)
        assert choice.anticommuting == (opnorm(j @ choice.t + choice.t @ j) <= 1e-10)
        assert choice.anticommuting == (choice.x_residual <= 1e-10)
        hits += choice.anticommuting
        sym = 0.5 * (x + jm @ (np.eye(m) - x) @ jm)
        choice = extension_from_x(iv, sym)
        assert choice.anticommuting == (opnorm(j @ choice.t + choice.t @ j) <= 1e-10)
        assert choice.anticommuting
        hits += 1
    assert hits >= 40  # the symmetrized half always anticommutes


def test_interval_membership_for_sampled_x(rng, j2):
    iv = krein_interval(empty_domain_contraction(j2))
    for _ in range(25):
        choice = extension_from_x(iv, random_x(rng, 2))
        assert np.linalg.eigvalsh(choice.t - iv.t_mu)[0] > -1e-10
        assert np.linalg.eigvalsh(iv.t_m - choice.t)[0] > -1e-10


# --------------------------------------------------------------- extremality

def test_extremality_half_instance_midpoint_not_extremal(j2):
    t0 = half_contraction(j2)
    iv = krein_interval(t0)
    choice = extension_from_x(iv, [[0.5]])
    res = extremality_test(t0, choice)
    assert not res.extremal
    assert res.cayley_defined
    assert rank_extremality(t0, choice.t) is False


def test_extremality_projection_solution(j2):
    t0 = empty_domain_contraction(j2)
    iv = krein_interval(t0)
    sols = solve_x_equation(iv, seed=3, n_projection_samples=1)
    choice = extension_from_x(iv, sols.projections[0])
    # ||T|| = 1 for projection solutions here, so the Cayley transform
    # fails and only the projection criterion is available
    res = extremality_test(t0, choice)
    assert res.extremal
    if res.cayley_defined:
        assert rank_extremality(t0, choice.t) is True


def test_extremality_trivial_defect(j2):
    space = SignatureSpace(j2)
    t = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    t0 = PartialContraction(space, np.eye(2, dtype=complex), t)
    iv = krein_interval(t0)
    choice = extension_from_x(iv, np.zeros((0, 0)))
    assert extremality_test(t0, choice).extremal


def test_extremality_empty_domain_rank_routes():
    # With an empty domain the rank of G (I + T) D(T0) is 0, so the metric
    # route reads extremal exactly when G = 0: X = I gives T = I (G = 0),
    # X = I/2 gives T = 0 (G = I).
    space = SignatureSpace(np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex))
    empty = np.zeros((4, 0), dtype=complex)
    t0 = PartialContraction(space, empty, empty.copy())
    iv = krein_interval(t0)
    for x, t, extremal in ((np.eye(4), np.eye(4), True),
                           (0.5 * np.eye(4), np.zeros((4, 4)), False)):
        choice = extension_from_x(iv, x)
        assert opnorm(choice.t - t) < 1e-12
        res = extremality_test(t0, choice)
        assert res.cayley_defined
        assert (res.extremal, rank_extremality(t0, choice.t)) == (extremal, extremal)


@pytest.mark.parametrize("seed", range(10))
def test_extremality_routes_agree(seed):
    # the projection verdict of extremality_test against the metric-rank oracle
    rng = np.random.default_rng(800 + seed)
    space = random_signature_space(rng)
    t0 = random_partial_contraction(rng, space)
    iv = krein_interval(t0)
    if iv.defect_dim == 0:
        pytest.skip("trivial defect")
    sols = solve_x_equation(iv, seed=seed, n_projection_samples=1)
    candidates = [sols.elementary, *sols.projections,
                  random_x(rng, iv.defect_dim)]
    for x in candidates:
        choice = extension_from_x(iv, x)
        res = extremality_test(t0, choice)
        if res.cayley_defined:
            assert rank_extremality(t0, choice.t) == res.extremal


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12))
def test_one_eigh_route_matches_multi_eigh_oracle(seed, n):
    # Every verdict read from the one eigendecomposition of T, and the
    # metric-rank oracle, is the one the separate decompositions of T, G,
    # G^{1/2} and I - T^2 give.
    rng = np.random.default_rng(seed)
    space = random_signature_space(rng, n)
    t0 = random_partial_contraction(rng, space)
    iv = krein_interval(t0)
    m = iv.defect_dim
    xs = [np.zeros((0, 0))]
    if m:
        # Elementary, projection (I and hypermaximal neutral), rank-one, random.
        v = rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1))
        v /= np.linalg.norm(v)
        sols = solve_x_equation(iv, seed=seed, n_projection_samples=2)
        xs = [sols.elementary, np.eye(m), *sols.projections, v @ v.conj().T, random_x(rng, m)]
    for x in xs:
        choice = extension_from_x(iv, x)
        want = ref.multi_eigh_route(t0.domain, choice.t, choice.x)
        res = extremality_test(t0, choice)
        assert (res.extremal, rank_extremality(t0, choice.t), res.cayley_defined) == \
            (want["extremal"], want["rank_criterion"], want["cayley_defined"])
        assert density_test(t0, choice.t) == want["dense"]
        if choice.anticommuting and res.cayley_defined:
            metric = GMetric.from_contraction(space, choice.t)
            assert metric.degenerate == want["degenerate"]
            assert metric.kernel.shape[1] == want["kernel_dim"]
            assert opnorm(metric.g - want["g"]) <= RESULT_TOL
            assert opnorm(metric.xi - want["xi"]) <= RESULT_TOL


@pytest.mark.parametrize("call", ("extremality_test", "density_test",
                                  "GMetric.from_contraction"))
def test_one_eigendecomposition_of_t_per_call(monkeypatch, call):
    rng = np.random.default_rng(811)
    n = 9
    space = random_signature_space(rng, n)
    t0 = random_partial_contraction(rng, space)
    iv = krein_interval(t0)
    choice = extension_from_x(iv, 0.5 * np.eye(iv.defect_dim))
    run = {"extremality_test": lambda: extremality_test(t0, choice),
           "density_test": lambda: density_test(t0, choice.t),
           "GMetric.from_contraction": lambda: GMetric.from_contraction(space, choice.t)}[call]
    assert choice.anticommuting and extremality_test(t0, choice).cayley_defined
    counted = []
    for name in ("eigh", "eigvalsh"):
        def count(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            if np.shape(a) == (n, n):
                counted.append(_name)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, count)
    run()
    # extremality_test needs only the eigenvalues of T
    assert counted == [{"extremality_test": "eigvalsh"}.get(call, "eigh")]


@pytest.mark.parametrize("seed", range(4))
def test_extension_verdicts_decompose_t_once(monkeypatch, seed):
    # extension_from_x and extremality_test decide anticommutation and
    # extremality on X; the one decomposition of an n-row operand is the
    # eigvalsh of T behind cayley_defined.  Wrapping numpy.linalg._linalg
    # also counts the SVD inside norm(., 2).
    rng = np.random.default_rng(820 + seed)
    n = 12
    space = random_signature_space(rng, n)
    t0 = random_partial_contraction(rng, space)
    iv = krein_interval(t0)
    m = iv.defect_dim
    sols = solve_x_equation(iv, seed=seed, n_projection_samples=2)
    xs = [sols.elementary, np.zeros((m, m)), np.eye(m), *sols.projections, random_x(rng, m)]
    counted = []
    for name in ("svd", "eigh", "eigvalsh"):
        def count(a, *args, _name=name, _real=getattr(np.linalg._linalg, name), **kwargs):
            if np.shape(a)[0] == n:
                counted.append(_name)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg._linalg, name, count)
        monkeypatch.setattr(np.linalg, name, count)
    defined = set()
    for x in xs:
        counted.clear()
        defined.add(extremality_test(t0, extension_from_x(iv, x)).cayley_defined)
        assert counted == ["eigvalsh"]
    assert defined == {True, False}


# ---------------------------------------------------------------- subspaces

def test_max_subspaces_zero(j2):
    space = SignatureSpace(j2)
    pair = max_subspaces(space, np.zeros((2, 2)))
    np.testing.assert_allclose(np.abs(pair.l_plus.basis), [[1.0], [0.0]], atol=1e-12)
    np.testing.assert_allclose(np.abs(pair.l_minus.basis), [[0.0], [1.0]], atol=1e-12)
    assert not pair.degenerate


def test_max_subspaces_half(j2):
    space = SignatureSpace(j2)
    t = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    pair = max_subspaces(space, t)
    v_plus = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
    v_minus = np.array([0.5, 1.0]) / np.linalg.norm([0.5, 1.0])
    assert abs(np.vdot(pair.l_plus.basis[:, 0], v_plus)) == pytest.approx(1.0)
    assert abs(np.vdot(pair.l_minus.basis[:, 0], v_minus)) == pytest.approx(1.0)
    # duality: [f+, f-] = 0
    f_plus, f_minus = pair.l_plus.basis[:, 0], pair.l_minus.basis[:, 0]
    assert abs(np.vdot(f_minus, j2 @ f_plus)) < 1e-12
    assert not pair.degenerate


def test_max_subspaces_degenerate_unit_norm(j2):
    space = SignatureSpace(j2)
    t = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    pair = max_subspaces(space, t)
    assert pair.degenerate
    assert pair.neutral_plus or pair.neutral_minus
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(np.vdot(pair.l_plus.basis[:, 0], v)) == pytest.approx(1.0)


# ------------------------------------------------------------------- density

def test_density_full_domain(j2):
    space = SignatureSpace(j2)
    t = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    t0 = PartialContraction(space, np.eye(2, dtype=complex), t)
    assert density_test(t0, t)


def test_density_half_instance_fails(j2):
    t0 = half_contraction(j2)
    t = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    assert not density_test(t0, t)


def test_density_degenerate_xi(j2):
    # Xi = 0: the range is trivial, so the intersection condition holds
    space = SignatureSpace(j2)
    t = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    t0 = PartialContraction(space, np.eye(2, dtype=complex), t)
    assert density_test(t0, t)


# -------------------------------------------------------------------- Cayley

def test_cayley_closed_forms():
    np.testing.assert_allclose(cayley(np.zeros((2, 2))), np.eye(2), atol=1e-14)
    t = 0.4
    got = cayley(np.diag([t, -t]).astype(complex))
    want = np.diag([(1 - t) / (1 + t), (1 + t) / (1 - t)])
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_cayley_undefined_at_unit():
    with pytest.raises(CayleyUndefinedError):
        cayley(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("seed", range(6))
def test_cayley_roundtrip(seed):
    rng = np.random.default_rng(900 + seed)
    space = random_signature_space(rng)
    from kreinlab.verify import random_anticommuting_contraction
    t = random_anticommuting_contraction(rng, space)
    g = cayley(t)
    np.testing.assert_allclose(cayley_inverse(g), t, atol=1e-10)
    # J G = G^{-1} J for anticommuting T
    j = space.j
    np.testing.assert_allclose(j @ g, np.linalg.solve(g, j), atol=1e-9)


def test_cayley_inverse_rejects_indefinite():
    with pytest.raises(InvariantViolation):
        cayley_inverse(np.diag([1.0, -0.5]).astype(complex))
