import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as ref
from kreinlab import (
    GMetric,
    PartialContraction,
    SignatureSpace,
    classify_case,
    density_test,
    extension_from_x,
    extremality_test,
    fundamental_bases,
    krein_interval,
    max_subspaces,
    solve_x_equation,
    symmetrize_solution,
    x_equation_residual,
)
from kreinlab import angular, gmetric
from kreinlab._linalg import (RESULT_TOL, hermitize, orthonormal_columns, orthonormal_complement,
                              random_unitary)
from kreinlab.cli import main
from kreinlab.errors import InvariantViolation
from kreinlab.extensions import SeededInterval, _completion
from kreinlab.oracles import (cayley_inverse, rank_extremality, sqrt_projection_endpoints,
                              xi_operator)
from kreinlab.sequence_model import SequenceModelSpec, build_model
from kreinlab.serialize import dumps_report, matrix_to_obj
from kreinlab.spaces import split_along_j
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
    np.testing.assert_allclose(np.abs(iv.defect_basis), [[0.0], [1.0]], atol=1e-10)
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


def dense_problem(rng, n):
    # J with a signature near n/2, an anticommuting contraction of norm at
    # most 0.9 and a random J-invariant domain whose orthogonal complement
    # has n/4 dimensions, split 1:1 between H_+ and H_-
    p = int(rng.integers(3 * n // 8, 5 * n // 8 + 1))
    u = random_unitary(rng, n)
    space = SignatureSpace(hermitize((u * np.r_[np.ones(p), -np.ones(n - p)]) @ u.conj().T))
    t = random_anticommuting_contraction(rng, space)
    cols = []
    for basis in fundamental_bases(space):
        k = basis.shape[1] - n // 8
        cols.append(orthonormal_columns(basis @ (rng.standard_normal((basis.shape[1], k))
                                                 + 1j * rng.standard_normal((basis.shape[1], k)))))
    domain = np.hstack(cols)
    return PartialContraction(space, domain, t @ domain)


def endpoint_excess(iv):
    return max(opnorm(iv.t_mu), opnorm(iv.t_m)) - 1.0


def test_endpoint_bound_covers_the_measured_norms():
    # the bound epsilon covers the n x n 2-norm excess of both endpoints and
    # stays below RESULT_TOL (no 2-norm is taken), on small random problems
    # and on models; every third domain basis is scaled 4e-11 off
    # orthonormal, which PartialContraction accepts and which lifts ||T|| above
    # 1 by up to 3e-11
    for seed in range(300):
        rng = np.random.default_rng(7000 + seed)
        space = random_signature_space(rng)
        t0 = random_partial_contraction(rng, space)
        if seed % 3 == 0:
            t0 = PartialContraction(space, t0.domain * (1 + 4e-11), t0.action * (1 + 4e-11))
        iv = krein_interval(t0)
        assert endpoint_excess(iv) <= iv.excess_bound < RESULT_TOL
    for n_pairs in (64, 128):
        for delta in (0.8, 1.25):
            for variant in ("both_constraints", "chi_plus_zero"):
                iv = krein_interval(build_model(SequenceModelSpec(delta, variant, n_pairs)).t0)
                assert endpoint_excess(iv) <= iv.excess_bound < RESULT_TOL


def rotated_near_unit(seed, delta, norm_through_b):
    # J = diag(1, 1, -1, -1) and T = a (e1 e3* + e3 e1*) + b (e2 e4* + e4 e2*),
    # rotated inside H+ and H-, on the domain span{e1, e3, e2}: ||T0|| is
    # max(a, b), attained through B when b = 1 - delta, through A when a is
    rng = np.random.default_rng(seed)
    a, b = (0.5, 1.0 - delta) if norm_through_b else (1.0 - delta, 0.5)
    e = np.eye(4, dtype=complex)
    t = a * (np.outer(e[0], e[2]) + np.outer(e[2], e[0])) \
        + b * (np.outer(e[1], e[3]) + np.outer(e[3], e[1]))
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2], u[2:, 2:] = random_unitary(rng, 2), random_unitary(rng, 2)
    t = u @ t @ u.conj().T
    domain = u @ e[:, [0, 2, 1]]
    return PartialContraction(SignatureSpace(np.diag([1.0, 1.0, -1.0, -1.0])), domain, t @ domain)


@pytest.mark.parametrize("delta, norm_through_b, case", [(0.0, True, "A"), (1e-12, False, "C")])
def test_near_unit_intervals_fall_back_to_the_endpoint_norms(delta, norm_through_b, case):
    # at ||T0|| = 1 (I +/- A invertible) and at 1 - 1e-12 (I - A nearly
    # singular) the block bound can exceed RESULT_TOL; those intervals are
    # then accepted on the n x n 2-norms, with bound RESULT_TOL, not refused
    fallbacks = 0
    for seed in range(50):
        iv = krein_interval(rotated_near_unit(seed, delta, norm_through_b))
        assert classify_case(iv) == case
        assert endpoint_excess(iv) <= iv.excess_bound <= RESULT_TOL
        fallbacks += iv.excess_bound == RESULT_TOL
    assert fallbacks > 0


def test_inaccurate_solve_falls_back_to_the_endpoint_norms(monkeypatch, tmp_path, j2):
    # corner solves 1e-6 off leave a bound above RESULT_TOL: the 2x2 interval
    # is still a contraction on its 2-norms and is accepted with bound
    # RESULT_TOL; the 16-dimensional one is not, and extend exits 3
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    assert krein_interval(half_contraction(j2)).excess_bound == RESULT_TOL
    t0 = dense_problem(np.random.default_rng(7301), 16)
    with pytest.raises(InvariantViolation, match="not a contraction"):
        krein_interval(t0)
    problem = tmp_path / "problem.json"
    problem.write_text(dumps_report({"J": matrix_to_obj(t0.space.j),
                                     "T0_domain": matrix_to_obj(t0.domain),
                                     "T0_action": matrix_to_obj(t0.action)}))
    assert main(["extend", "--input", str(problem), "--output-dir", str(tmp_path)]) == 3
    assert not (tmp_path / "extend_report.json").exists()


@pytest.mark.parametrize("problem", ["dense_96", "model_128_pairs"])
def test_interval_takes_no_svd(monkeypatch, problem):
    # the endpoint bound replaces the two n x n norms: construction factors
    # only the two half Grams (d_+ and d_- square), and with D(T0)^perp
    # cached, krein_interval factors only J_E (m x m), the two J blocks of W
    # (m_+ and m_- square) and one (d x d) LU shared by both corners
    if problem == "dense_96":
        src = dense_problem(np.random.default_rng(7401), 96)
    else:
        src = build_model(SequenceModelSpec(1.25, "both_constraints", 128)).t0
    complement = src.complement
    counted = []

    def counter(name, real):
        def count(a, *args, **kwargs):
            counted.append((name, np.shape(a)))
            return real(a, *args, **kwargs)
        return count
    for name in ("svd", "eigh", "eigvalsh", "qr", "solve"):
        for module in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(module, name, counter(name, getattr(module, name)))
    t0 = PartialContraction(src.space, src.domain, src.action)
    d = t0.domain_dim
    d_plus = int(np.sum(t0.signs > 0))
    assert 0 < d_plus < d
    assert sorted(counted) == sorted([("eigvalsh", (d_plus, d_plus)),
                                      ("eigvalsh", (d - d_plus, d - d_plus))])
    counted.clear()
    t0.complement = complement
    iv = krein_interval(t0)
    m = iv.defect_dim
    m_plus, m_minus = iv.signature
    assert m == t0.space.dim - d and m_plus + m_minus == m
    assert sorted(counted) == sorted([("eigh", (m, m)), ("eigh", (m_plus, m_plus)),
                                      ("eigh", (m_minus, m_minus)), ("solve", (d, d))])


def codim_problem():
    # n = 64, J = diag(I_32, -I_32), a random anticommuting contraction and
    # a 16-dimensional J-invariant domain (8 + 8): codimension 48 > dim D(T0),
    # and Delta has the eigenvalue 2 on ker B*
    rng = np.random.default_rng(1601)
    space = SignatureSpace(np.diag(np.r_[np.ones(32), -np.ones(32)]))
    t = random_anticommuting_contraction(rng, space)
    domain = np.hstack([orthonormal_columns(h @ (rng.standard_normal((32, 8))
                                                 + 1j * rng.standard_normal((32, 8))))
                        for h in fundamental_bases(space)])
    return PartialContraction(space, domain, t @ domain)


def rotated_complement_problem(theta):
    # a dense problem whose complement E is D(T0)^perp for the domain with its
    # first column turned by theta towards E's first column in H_+: E stays
    # J-invariant and ||E* D|| is about theta
    t0 = dense_problem(np.random.default_rng(7402), 64)
    d = t0.domain.copy()
    e_plus = split_along_j(t0.space, t0.complement)[0]
    d[:, 0] = np.cos(theta) * d[:, 0] + np.sin(theta) * e_plus[:, 0]
    t0.complement = orthonormal_complement(d)
    return t0


EXTENDS_PROBLEMS = {
    **{f"dense_{n}_{i}": (lambda n=n, i=i: dense_problem(np.random.default_rng(7400 + i), n))
       for i, n in enumerate((64, 96, 64, 96))},
    # the block completion on the models' formed matrices, and their seeded route
    **{f"model_{pairs}_{variant}": (lambda pairs=pairs, variant=variant: ref.formed_contraction(
        build_model(SequenceModelSpec(1.25, variant, pairs)).t0))
       for pairs in (32, 64, 128) for variant in ("both_constraints", "chi_plus_zero")},
    **{f"seeded_{pairs}_{variant}": (lambda pairs=pairs, variant=variant: build_model(
        SequenceModelSpec(1.25, variant, pairs)).t0)
       for pairs in (32, 64, 128) for variant in ("both_constraints", "chi_plus_zero")},
    "codim_48_of_64": codim_problem,
    "near_unit_fallback": lambda: rotated_near_unit(3, 0.0, True),
    "rotated_complement": lambda: rotated_complement_problem(1e-11),
}


def extends_residual(iv):
    return max(opnorm(t @ iv.t0.domain - iv.t0.action) for t in (iv.t_mu, iv.t_m))


@pytest.mark.parametrize("name", EXTENDS_PROBLEMS)
def test_extends_bound_covers_the_endpoint_residuals(name):
    # the factor bound on ||T D - T0 D|| covers the n x n residual of both
    # endpoints; the rotated complement puts ||E* D|| = 1e-11, 100 times the
    # rounding allowance, into the residual, which only the ||E* D|| terms
    # of the bound cover.  Only the near-unit 2-norm fallback forms the
    # endpoints inside krein_interval.
    iv = krein_interval(EXTENDS_PROBLEMS[name]())
    fallback = name == "near_unit_fallback"
    formed = ("t_m" in vars(iv), "t_mu" in vars(iv))
    assert (iv.excess_bound == RESULT_TOL) == fallback and formed == (fallback, fallback)
    residual = extends_residual(iv)
    assert residual <= iv.extends_bound < RESULT_TOL
    if name == "rotated_complement":
        assert residual > 1e-12


@pytest.mark.parametrize("name", ["dense_96_1", "model_128_both_constraints", "codim_48_of_64"])
def test_interval_forms_the_endpoints_only_when_read(name):
    # the case, the defect and the X equation read no n x n endpoint; the
    # endpoints formed on first read are the inline expressions bit for bit
    t0 = EXTENDS_PROBLEMS[name]()
    iv = krein_interval(t0)
    classify_case(iv)
    solve_x_equation(iv, seed=3)
    assert "t_m" not in vars(iv) and "t_mu" not in vars(iv)
    t_mu, t_m = ref.inline_endpoints(t0)
    assert iv.t_mu.tobytes() == t_mu.tobytes()
    assert iv.t_m.tobytes() == t_m.tobytes()
    assert iv.t_mu is iv.t_mu and iv.t_m is iv.t_m


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


@pytest.mark.parametrize("seed", range(8))
def test_interval_in_the_eigenbasis_of_delta(seed):
    # the defect coordinates are eigenvectors of Delta = T_M - T_mu with
    # fixed phases, Delta^{1/2} is diag(defect_scale) on them, and the
    # rank-m update T_mu = T_M - E W E* is the full block completion
    rng = np.random.default_rng(1500 + seed)
    space = random_signature_space(rng, int(rng.integers(2, 33)))
    t0 = random_partial_contraction(rng, space)
    iv = krein_interval(t0)
    mb, m = iv.defect_basis, iv.defect_dim
    assert m > 0 and iv.defect_scale.shape == (m,)
    assert opnorm(mb.conj().T @ mb - np.eye(m)) < 1e-12
    lead = mb[np.abs(mb).argmax(axis=0), np.arange(m)]
    assert np.all(lead.real > 0) and np.all(np.abs(lead.imag) <= 1e-15 * lead.real)
    assert opnorm(mb.conj().T @ (iv.t_m - iv.t_mu) @ mb - np.diag(iv.defect_scale ** 2)) < 1e-12
    domain, action = t0.domain, t0.action
    comp = ref.complement_basis(domain)
    a_blk = domain.conj().T @ action
    b_blk = comp.conj().T @ action
    c_min = -np.eye(m) + b_blk @ np.linalg.solve(np.eye(domain.shape[1]) + a_blk, b_blk.conj().T)
    assert opnorm(iv.t_mu - ref.completion_matrix(domain, comp, a_blk, b_blk, c_min)) < 1e-12


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
    jm = iv.j_on_defect
    _, v = np.linalg.eigh(jm)
    seen = []
    for x in sols.projections:
        assert opnorm(x @ x - x) < 1e-10
        assert x_equation_residual(x, iv.signature) < 1e-10
        # in the eigenbasis of J every projection solution has the closed
        # form [[1/2, z], [z~, 1/2]] with |z| = 1/2
        y = v.conj().T @ x @ v
        assert y[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert y[1, 1] == pytest.approx(0.5, abs=1e-10)
        assert abs(y[0, 1]) == pytest.approx(0.5, abs=1e-10)
        seen.append(complex(y[0, 1]))
    # sampled pairings produce genuinely different projections
    assert len({np.round(z, 6) for z in seen}) > 1


def test_zero_projection_samples_give_no_projection():
    # The balanced 8-pair model has projection solutions; asking for none of
    # them returns none, with or without a seed, and still says they exist.
    iv = krein_interval(build_model(SequenceModelSpec(1.25, "both_constraints", 8)).t0)
    assert iv.signature[0] == iv.signature[1]
    for seed in (None, 3):
        sols = solve_x_equation(iv, seed=seed, n_projection_samples=0)
        assert sols.projections == []
        assert sols.projection_exists
        np.testing.assert_allclose(sols.elementary, 0.5 * np.eye(iv.defect_dim), atol=0)
    assert len(solve_x_equation(iv, seed=3, n_projection_samples=2).projections) == 2


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
    sig = iv.signature
    assert x_equation_residual(sols.elementary, sig) < 1e-12
    m = iv.defect_dim
    for x0 in [sols.elementary, *sols.projections]:
        assert x_equation_residual(np.eye(m) - x0, sig) < 1e-10
        for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert x_equation_residual(sols.affine(x0, alpha), sig) < 1e-10


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
    want = ref.extension_reference(iv.t_mu, iv.t_m, iv.defect_basis, x)
    assert opnorm(extension_from_x(iv, x).t - want) < 1e-10


def test_realized_extension_is_stable_under_domain_rounding():
    # The same D(T0) given by a basis 1e-15 away gives the same T for the
    # same X: the defect coordinates are Delta's eigenvectors in H_+, then in
    # H_-, with fixed phases, which move by rounding over the eigengap within
    # their J block, not by an arbitrary rotation of a re-orthonormalized
    # basis.  The domain has codimension 16 < dim D(T0), so that Delta has
    # simple eigenvalues within each block (a larger codimension gives Delta
    # the eigenvalue 2 on ker B*, where the coordinates inside a block are
    # still eigh's choice).
    rng = np.random.default_rng(1601)
    space = random_signature_space(rng, 64)
    t_full = random_anticommuting_contraction(rng, space)
    domain = np.hstack([
        np.linalg.qr(h @ (rng.standard_normal((h.shape[1], h.shape[1] - 8))
                          + 1j * rng.standard_normal((h.shape[1], h.shape[1] - 8))))[0]
        for h in fundamental_bases(space)])
    noise = rng.standard_normal(domain.shape) + 1j * rng.standard_normal(domain.shape)
    moved = np.linalg.qr(domain + 1e-15 * noise)[0]
    iv = krein_interval(PartialContraction(space, domain, t_full @ domain))
    iv_moved = krein_interval(PartialContraction(space, moved, t_full @ moved))
    assert iv_moved.defect_dim == iv.defect_dim == 16
    x = random_x(rng, iv.defect_dim)
    assert opnorm(extension_from_x(iv_moved, x).t - extension_from_x(iv, x).t) <= 1e-9
    p = iv.signature[0]
    for block in (iv.defect_scale[:p], iv.defect_scale[p:]):
        assert np.diff(block ** 2).min() > 1e-6


@pytest.mark.parametrize("variant", ["both_constraints", "chi_plus_zero"])
@pytest.mark.parametrize("delta", [0.9, 1.25])
def test_model_defect_basis_follows_the_j_split(variant, delta):
    # In both_constraints W has one eigenvalue on both signs.  The defect
    # basis is split along H_+ (+) H_- before W is diagonalized, so J is
    # exactly diag(I_p, -I_q) on it, and a domain basis 1e-15 away (on the
    # domain's own support, so that it stays J-invariant) gives the same T(X)
    inst = build_model(SequenceModelSpec(delta, variant, 64))
    iv = krein_interval(inst.t0)
    p, q = iv.signature
    signs = np.r_[np.ones(p), -np.ones(q)]
    assert np.array_equal(iv.j_on_defect, np.diag(signs))
    for col, sign in zip(iv.defect_basis.T, signs):
        assert np.linalg.norm(inst.space.j @ col - sign * col) <= 1e-13
    rng = np.random.default_rng(1603)
    domain = inst.t0.domain
    noise = (rng.standard_normal(domain.shape) + 1j * rng.standard_normal(domain.shape)) \
        * (domain != 0)
    moved = np.linalg.qr(domain + 1e-15 * noise)[0]
    iv_moved = krein_interval(PartialContraction(inst.space, moved, inst.t @ moved))
    assert iv_moved.signature == iv.signature
    x = random_x(rng, iv.defect_dim)
    assert opnorm(extension_from_x(iv_moved, x).t - extension_from_x(iv, x).t) <= 1e-12


MODEL_DELTAS = (0.75, 1.0, 1.25, 1.5)
MODEL_VARIANTS = ("both_constraints", "chi_plus_zero")


@pytest.mark.parametrize("variant", MODEL_VARIANTS)
@pytest.mark.parametrize("delta", MODEL_DELTAS)
@pytest.mark.parametrize("pairs", (32, 64, 128, 256))
def test_seeded_model_interval_matches_the_block_completion(pairs, delta, variant):
    # the Woodbury route against the block completion on the model's formed
    # matrices: case, signature, W, the defect basis after the phase rule
    # and both endpoints
    t0 = build_model(SequenceModelSpec(delta, variant, pairs)).t0
    got, want = krein_interval(t0), krein_interval(ref.formed_contraction(t0))
    assert isinstance(got, SeededInterval) and not isinstance(want, SeededInterval)
    assert (classify_case(got), got.signature) == (classify_case(want), want.signature)
    for name in ("delta_values", "defect_basis", "t_mu", "t_m"):
        assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-12, name


@pytest.mark.parametrize("variant", MODEL_VARIANTS)
@pytest.mark.parametrize("delta", MODEL_DELTAS)
@pytest.mark.parametrize("pairs", (32, 64, 128))
def test_seeded_certificates_cover_the_formed_matrices(pairs, delta, variant):
    # each certificate of the seeded route against the n x n quantity it
    # bounds: ||T||_2 - 1 and ||T D - T0 D||_2 of both endpoints, ||I + Z_+*
    # Z_+|| of the block completion on the formed matrices, and 1 + lambda_min(T)
    # for four X against cayley_bounds
    t0 = build_model(SequenceModelSpec(delta, variant, pairs)).t0
    iv = krein_interval(t0)
    assert t0.norm_bound == 1.0 - 1.0 / pairs
    assert endpoint_excess(iv) <= iv.excess_bound
    assert extends_residual(iv) <= iv.extends_bound
    dense = ref.formed_contraction(t0)
    _, _, b, *_ = _completion(dense)
    a = hermitize(dense.domain.conj().T @ dense.action)
    z = np.linalg.solve(np.eye(len(a)) + a, b.conj().T)
    assert np.linalg.eigvalsh(hermitize(np.eye(z.shape[1]) + z.conj().T @ z))[-1] \
        <= iv.kernel_gram
    m = iv.defect_dim
    for x in (np.zeros((m, m)), 0.5 * np.eye(m), np.eye(m),
              random_x(np.random.default_rng(pairs), m)):
        choice = extension_from_x(iv, x)
        low, high = choice.cayley_bounds
        assert low <= 1.0 + np.linalg.eigvalsh(choice.t)[0] <= high


@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_model_interval_at_2_16_pairs_forms_no_dense_matrix(variant):
    # a dense 2^17 x 2^17 model would take 256 GiB: the interval and its case
    # are read from m x m data, and nothing n x n is formed or cached
    tracemalloc.start()
    try:
        inst = build_model(SequenceModelSpec(1.0, variant, 2 ** 16))
        iv = krein_interval(inst.t0)
        case = classify_case(iv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (case, iv.defect_dim) == (("B", 2) if variant == "both_constraints" else ("C", 1))
    for obj in (inst, inst.t0, iv):
        assert not {"t", "space", "domain", "action", "t_m", "t_mu"} & set(vars(obj))
    # U and Mb are E itself (the J blocks of W are 1 x 1); traced peaks 11.0 / 7.5 MB
    assert iv.delta_vectors is inst.t0.constraints
    assert np.shares_memory(iv.defect_basis, inst.t0.constraints)
    assert peak < 16 * 2 ** 20


def test_solve_x_equation_takes_no_factorization(monkeypatch):
    # the projection solutions are [[I, U], [U*, I]]/2 in the J-split defect
    # basis: no eigh, eigvalsh or SVD, with or without a seed
    ivs = [krein_interval(dense_problem(np.random.default_rng(7402), 32)),
           krein_interval(half_contraction(np.diag([1.0, -1.0])))]
    assert [classify_case(iv) for iv in ivs] == ["B", "C"]
    counted = []
    for name in ("svd", "eigh", "eigvalsh"):
        def count(a, *args, _name=name, _real=getattr(np.linalg._linalg, name), **kwargs):
            counted.append(_name)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg._linalg, name, count)
        monkeypatch.setattr(np.linalg, name, count)
    for iv in ivs:
        for seed in (None, 5):
            sols = solve_x_equation(iv, seed=seed, n_projection_samples=3)
            assert len(sols.projections) == (0 if iv.signature[0] != iv.signature[1]
                                             else 1 if seed is None else 3)
    assert counted == []


def j_invariant_problem(seed, n, mirrored):
    # a random J-invariant problem of dimension n; a mirrored one has
    # dimension 2k, k = n // 2, J = diag(I_k, -I_k), T = [[0, K], [K, 0]] with K Hermitian and the
    # same domain block in H_+ and H_-, all rotated by one unitary, so that
    # swapping the halves maps the problem to itself and each eigenvalue of
    # W appears on both signs
    rng = np.random.default_rng(seed)
    if not mirrored:
        return random_partial_contraction(rng, random_signature_space(rng, n))
    k = n // 2
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    herm = hermitize(a)
    herm *= 0.9 * float(rng.uniform(0.3, 1.0)) / opnorm(herm)
    zero = np.zeros((k, k))
    t = np.block([[zero, herm], [herm, zero]])
    d = int(rng.integers(0, k))
    v = random_unitary(rng, k)[:, :d]
    domain = np.block([[v, np.zeros((k, d))], [np.zeros((k, d)), v]])
    rot = random_unitary(rng, 2 * k)
    space = SignatureSpace(hermitize((rot * np.r_[np.ones(k), -np.ones(k)]) @ rot.conj().T))
    t = hermitize(rot @ t @ rot.conj().T)
    return PartialContraction(space, rot @ domain, t @ (rot @ domain))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12), mirrored=st.booleans())
def test_interval_structure_on_random_j_invariant_problems(seed, n, mirrored):
    t0 = j_invariant_problem(seed, n, mirrored)
    iv = krein_interval(t0)
    p, q = iv.signature
    if mirrored:
        assert p == q and np.allclose(iv.defect_scale[:p], iv.defect_scale[p:], atol=1e-10)
    j = t0.space.j
    assert np.linalg.eigvalsh(iv.t_m - iv.t_mu)[0] >= -1e-10
    assert opnorm(j @ iv.t_mu + iv.t_m @ j) <= 1e-10
    t_min, t_max = sqrt_projection_endpoints(t0)
    assert opnorm(iv.t_mu - t_min) <= 1e-8 and opnorm(iv.t_m - t_max) <= 1e-8
    m = iv.defect_dim
    rng = np.random.default_rng(seed)
    for _ in range(3 if m else 0):
        x = random_x(rng, m)
        for sample in (x, symmetrize_solution(x, iv.signature)):
            choice = extension_from_x(iv, sample)
            assert choice.anticommuting == (opnorm(j @ choice.t + choice.t @ j) <= 1e-10)


def test_extension_from_x_decomposes_only_x(monkeypatch):
    # one eigvalsh, of X (the 0 <= X <= I check); no eigh, eigvalsh or SVD
    # of an n-row operand.  Wrapping numpy.linalg._linalg also counts the
    # SVD inside norm(., 2).
    rng = np.random.default_rng(1602)
    n = 16
    space = random_signature_space(rng, n)
    t0 = random_partial_contraction(rng, space)
    iv = krein_interval(t0)
    m = iv.defect_dim
    assert 0 < m < n
    sols = solve_x_equation(iv, seed=1, n_projection_samples=1)
    counted = []
    for name in ("svd", "eigh", "eigvalsh"):
        def count(a, *args, _name=name, _real=getattr(np.linalg._linalg, name), **kwargs):
            counted.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg._linalg, name, count)
        monkeypatch.setattr(np.linalg, name, count)
    for x in [sols.elementary, *sols.projections, np.eye(m), random_x(rng, m)]:
        counted.clear()
        extension_from_x(iv, x)
        assert [c for c in counted if c[0] == "eigvalsh"] == [("eigvalsh", (m, m))]
        assert not [c for c in counted if c[1][0] == n]


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
    jm = iv.j_on_defect
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
            assert opnorm(xi_operator(metric.t) - want["xi"]) <= RESULT_TOL


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
    spectra = []
    monkeypatch.setattr(gmetric, "from_spectrum", lambda v, values, _real=gmetric.from_spectrum:
                        spectra.append(values) or _real(v, values))
    run()
    # extremality_test reads cayley_defined from X: no n x n decomposition
    assert counted == {"extremality_test": []}.get(call, ["eigh"])
    # GMetric forms one function of T from those eigenpairs, G
    assert len(spectra) == (call == "GMetric.from_contraction")


@pytest.mark.parametrize("seed", range(4))
def test_extension_verdicts_decompose_t_once(monkeypatch, seed):
    # extension_from_x and extremality_test decide anticommutation,
    # extremality and cayley_defined on X: no decomposition of an n-row
    # operand, the elementary X and both Cayley verdicts included.  Wrapping
    # numpy.linalg._linalg also counts the SVD inside norm(., 2).
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
        assert counted == []
    assert defined == {True, False}


def unit_norm_problem(seed, n, cap):
    # a random problem with ||T0|| scaled to exactly cap
    rng = np.random.default_rng(seed)
    space = random_signature_space(rng, n)
    t0 = random_partial_contraction(rng, space)
    return rng, PartialContraction(space, t0.domain, t0.action * (cap / opnorm(t0.action)))


def x_with_low_eigenvalue(rng, m, low):
    # a random 0 <= X <= I whose smallest eigenvalue is low
    q = random_unitary(rng, m)
    ev = rng.uniform(0.2, 1.0, m)
    ev[0] = low
    return hermitize((q * ev) @ q.conj().T)


@pytest.mark.parametrize("case", ("unit-norm", "x-at-threshold"))
def test_cayley_fallback_takes_one_eigvalsh(monkeypatch, case):
    # When the Cayley bounds straddle STRUCT_TOL, eigvalsh(T) decides: with
    # ||T0|| = 1 the gap of I + T_mu vanishes, so a nonsingular X is not
    # certified; an X whose smallest eigenvalue sits at the threshold is not
    # certified either way.
    if case == "unit-norm":
        rng, t0 = unit_norm_problem(4, 8, 1.0)
        iv = krein_interval(t0)
        x = 0.5 * np.eye(iv.defect_dim)
    else:
        t0 = dense_problem(np.random.default_rng(7403), 16)
        iv = krein_interval(t0)
        top = float(np.max(iv.defect_scale)) ** 2
        x = x_with_low_eigenvalue(np.random.default_rng(7404), iv.defect_dim, 2e-10 / top)
    n = t0.space.dim
    choice = extension_from_x(iv, x)
    assert choice.cayley_certificate is None
    counted = []
    for name in ("eigh", "eigvalsh", "svd"):
        def count(a, *args, _name=name, _real=getattr(np.linalg._linalg, name), **kwargs):
            if np.shape(a)[0] == n:
                counted.append(_name)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg._linalg, name, count)
        monkeypatch.setattr(np.linalg, name, count)
    res = extremality_test(t0, choice)
    assert counted == ["eigvalsh"]
    monkeypatch.undo()
    assert res.cayley_defined == ref.multi_eigh_route(t0.domain, choice.t, x)["cayley_defined"]


@pytest.mark.parametrize("seed", range(6))
def test_cayley_bounds_cover_a_non_orthonormal_domain(seed):
    # PartialContraction accepts ||D* D - I|| up to STRUCT_TOL; the bounds
    # widen by twice the measured departure and still bracket 1 +
    # lambda_min(T), with the verdict of eigvalsh(T).
    rng = np.random.default_rng(7410 + seed)
    space = random_signature_space(rng, int(rng.integers(3, 12)))
    t = random_anticommuting_contraction(rng, space)
    domain = random_partial_contraction(rng, space, t_full=t).domain
    noise = rng.standard_normal(domain.shape) + 1j * rng.standard_normal(domain.shape)
    domain = domain + 1e-11 * noise / opnorm(noise)
    t0 = PartialContraction(space, domain, t @ domain)
    assert 1e-12 < t0.domain_residual <= 1e-10
    iv = krein_interval(t0)
    m = iv.defect_dim
    for x in [np.zeros((m, m)), 0.5 * np.eye(m), random_x(rng, m)]:
        choice = extension_from_x(iv, x)
        lower, upper = choice.cayley_bounds
        assert lower <= 1.0 + np.linalg.eigvalsh(choice.t)[0] <= upper
        assert extremality_test(t0, choice).cayley_defined == \
            ref.multi_eigh_route(t0.domain, choice.t, x)["cayley_defined"]

def kernel_mu(iv, x):
    # mu = lambda_min(Kh* Y X Y* Kh) for an orthonormal basis Kh of ker(I +
    # T_mu) = ran(E - D (I + A)^{-1} B*), built by QR, and ||Y X Y*||
    t0 = iv.t0
    d, e = t0.domain, t0.complement
    a = d.conj().T @ t0.action
    z = np.linalg.solve(np.eye(a.shape[0]) + a, (e.conj().T @ t0.action).conj().T)
    kh = np.linalg.qr(e - d @ z)[0]
    y = iv.defect_basis * iv.defect_scale
    h = y @ x @ y.conj().T
    mu = np.linalg.eigvalsh(hermitize(kh.conj().T @ h @ kh))[0] if kh.shape[1] else np.inf
    return mu, opnorm(h) if h.size else 0.0


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
       cap=st.sampled_from((0.9, 1 - 1e-6, 1 - 1e-9, 1.0)),
       low=st.sampled_from((0.0, 1e-16, 1e-12, 1e-10, 1e-8, 1e-4)))
def test_cayley_bounds_bracket_the_spectrum(seed, n, cap, low):
    # mu gamma / (gamma + ||Y X Y*||) <= 1 + lambda_min(T) <= mu with gamma =
    # 1 - ||T0||, to rounding; the bounds of extension_from_x, which add
    # CAYLEY_ROUNDING n u and the block residuals, bracket the computed
    # 1 + lambda_min(T); and cayley_defined is the multi-eigh oracle's, by
    # certificate or by fallback.  Near-unit T0 and near-singular X.
    rng, t0 = unit_norm_problem(seed, n, cap)
    iv = krein_interval(t0)
    m = iv.defect_dim
    rounding = 16 * n * np.finfo(float).eps
    xs = [np.zeros((0, 0))]
    if m:
        xs = [x_with_low_eigenvalue(rng, m, low), 0.5 * np.eye(m),
              *solve_x_equation(iv, seed=seed, n_projection_samples=1).projections]
    for x in xs:
        choice = extension_from_x(iv, x)
        shifted = 1.0 + np.linalg.eigvalsh(choice.t)[0]
        lower, upper = choice.cayley_bounds
        assert lower <= shifted <= upper
        mu, h = kernel_mu(iv, x)
        gap = 1.0 - t0.norm
        assert shifted <= mu + rounding
        if gap > 0 and np.isfinite(mu):
            assert mu * gap / (gap + h) <= shifted + rounding
        want = ref.multi_eigh_route(t0.domain, choice.t, choice.x)["cayley_defined"]
        assert extremality_test(t0, choice).cayley_defined == want
        if choice.cayley_certificate is not None:
            assert choice.cayley_certificate == want


# ---------------------------------------------------------------- subspaces

def test_max_subspaces_zero(j2):
    space = SignatureSpace(j2)
    pair = max_subspaces(space, np.zeros((2, 2)))
    np.testing.assert_allclose(np.abs(pair.l_plus.basis), [[1.0], [0.0]], atol=1e-12)
    np.testing.assert_allclose(np.abs(pair.l_minus.basis), [[0.0], [1.0]], atol=1e-12)
    assert not pair.degenerate


def test_max_subspaces_refuses_a_t_that_is_not_self_adjoint(j2):
    # the Hermitian part [[0, 1/4], [1/4, 0]] would pass every other check
    with pytest.raises(InvariantViolation, match="self-adjoint"):
        max_subspaces(SignatureSpace(j2), [[0.0, 0.5], [0.0, 0.0]])


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


def test_max_subspaces_orthonormalizes_each_image_once(monkeypatch):
    # one SVD per image (I + T) H_+/- and, for the contraction check of the
    # Hermitian T, one eigvalsh in place of an SVD; the orthonormal result is
    # stored as it is, not decomposed a second time
    rng = np.random.default_rng(1506)
    n = 24
    space = random_signature_space(rng, n)
    t = random_anticommuting_contraction(rng, space)
    counted = []
    for name in ("svd", "eigvalsh"):
        def count(a, *args, _name=name, _real=getattr(np.linalg._linalg, name), **kwargs):
            counted.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg._linalg, name, count)
        monkeypatch.setattr(np.linalg, name, count)
    pair = max_subspaces(space, t)
    assert counted == [("eigvalsh", (n, n)), ("svd", (n, space.plus_dim)),
                       ("svd", (n, space.minus_dim))]
    for sub, basis in zip((pair.l_plus, pair.l_minus), fundamental_bases(space)):
        u = sub.basis
        assert u.shape == basis.shape
        assert opnorm(u.conj().T @ u - np.eye(u.shape[1])) < 1e-12
        img = (np.eye(n) + t) @ basis
        assert opnorm(img - u @ (u.conj().T @ img)) < 1e-12


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


def _assert_density_equals_extremality(rng, seed, space, t_full):
    # A self-adjoint contractive extension is extremal iff D(T0) is dense in
    # its energetic space (Arlinskii-Hassi-Sebestyen-de Snoo 2001): the
    # density test on T agrees with the projection verdict on X.
    t0 = random_partial_contraction(rng, space, t_full)
    iv = krein_interval(t0)
    m = iv.defect_dim
    xs = [np.zeros((0, 0))]              # at ||T0|| = 1 the defect may be trivial
    if m:
        sols = solve_x_equation(iv, seed=seed, n_projection_samples=2)
        xs = [sols.elementary, *sols.projections, np.eye(m), np.zeros((m, m)), random_x(rng, m)]
    if m > 1:
        # A random rank-k projection: extremal, but off the X-equation.
        k = int(rng.integers(1, m))
        q, _ = np.linalg.qr(rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
        off = extension_from_x(iv, q @ q.conj().T)
        assert off.extremal and not off.anticommuting
        xs.append(off.x)
    for x in xs:
        choice = extension_from_x(iv, x)
        assert density_test(t0, choice.t) == choice.extremal


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
       norm_cap=st.floats(0.9, 1.0))
def test_density_equals_extremality_on_realized_extensions(seed, n, norm_cap):
    rng = np.random.default_rng(seed)
    space = random_signature_space(rng, n)
    t_full = random_anticommuting_contraction(rng, space, norm_cap=norm_cap)
    _assert_density_equals_extremality(rng, seed, space, t_full)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
       gap=st.sampled_from((1e-9, 0.0)))
def test_density_equals_extremality_at_unit_norm(seed, n, gap):
    # The same identity with ||T|| scaled to exactly 1 - 1e-9 or 1: T^2 is
    # then I to rounding on the near-unit directions, and the range cut of
    # Xi must not count that rounding as range.
    rng = np.random.default_rng(seed)
    space = random_signature_space(rng, n)
    t_full = random_anticommuting_contraction(rng, space)
    t_full *= (1.0 - gap) / opnorm(t_full)
    _assert_density_equals_extremality(rng, seed, space, t_full)


def test_density_floor_on_the_empty_domain(tmp_path, j2):
    # With D(T0) = {0} a projection X gives T^2 = I: xi^2 = [8.9e-16,
    # -4.4e-16] is all rounding, so ran Xi is {0} and the domain is dense,
    # as the projection verdict says; extend reports the same.
    t0 = empty_domain_contraction(j2)
    iv = krein_interval(t0)
    sols = solve_x_equation(iv, seed=0, n_projection_samples=3)
    for x in sols.projections:
        choice = extension_from_x(iv, x)
        assert choice.extremal and density_test(t0, choice.t)
    problem = tmp_path / "problem.json"
    problem.write_text(dumps_report({"J": matrix_to_obj(t0.space.j),
                                     "T0_domain": matrix_to_obj(t0.domain),
                                     "T0_action": matrix_to_obj(t0.action)}))
    assert main(["extend", "--input", str(problem), "--output-dir", str(tmp_path)]) == 0
    samples = json.loads((tmp_path / "extend_report.json").read_text())["X_samples"]
    projections = [s for s in samples if s["label"].startswith("projection")]
    assert len(projections) == 3
    assert all(s["domain_dense_in_energetic_space"] for s in projections)
    assert [s["domain_dense_in_energetic_space"] for s in samples] == \
        [s["extremal"] for s in samples]


def test_extend_reads_density_from_x(tmp_path, monkeypatch):
    # On the benchmark's first n = 64 problem, extend takes no n x n eigh
    # or eigvalsh: density and cayley_defined of its 7 realized extensions
    # are read from X, not from an eigendecomposition of T.
    gen = ref.perfbench_gen()
    prob = gen.extension_problem(1, 0)["problem"]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({key: gen.matrix_obj(m) for key, m in prob.items()}))
    n = prob["J"].shape[0]
    counted = []
    for name in ("eigh", "eigvalsh"):
        def count(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            if np.shape(a) == (n, n):
                counted.append(_name)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, count)
    argv = ["extend", "--input", str(problem), "--output-dir", str(tmp_path), "--seed", "1"]
    assert main(argv) == 0
    assert counted == []


def test_interval_and_density_share_one_complement(monkeypatch):
    # D(T0)^perp is taken once per problem: krein_interval and seven
    # density tests construct a single complement between them.
    rng = np.random.default_rng(1307)
    space = random_signature_space(rng, 10)
    t0 = random_partial_contraction(rng, space)
    counted = []

    def count(u, _real=angular.orthonormal_complement):
        counted.append(np.shape(u))
        return _real(u)
    monkeypatch.setattr(angular, "orthonormal_complement", count)
    iv = krein_interval(t0)
    m = iv.defect_dim
    sols = solve_x_equation(iv, seed=3, n_projection_samples=2)
    xs = [sols.elementary, *sols.projections, np.eye(m), np.zeros((m, m)), random_x(rng, m)]
    xs += [random_x(rng, m) for _ in range(7 - len(xs))]
    for x in xs[:7]:
        density_test(t0, extension_from_x(iv, x).t)
    assert counted == [t0.domain.shape]


# -------------------------------------------------------------------- Cayley

def test_cayley_closed_forms():
    swap = SignatureSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    got = GMetric.from_contraction(swap, np.zeros((2, 2))).g
    np.testing.assert_allclose(got, np.eye(2), atol=1e-14)
    t = 0.4
    got = GMetric.from_contraction(swap, np.diag([t, -t]).astype(complex)).g
    want = np.diag([(1 - t) / (1 + t), (1 + t) / (1 - t)])
    np.testing.assert_allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_cayley_roundtrip(seed):
    rng = np.random.default_rng(900 + seed)
    space = random_signature_space(rng)
    t = random_anticommuting_contraction(rng, space)
    g = GMetric.from_contraction(space, t).g
    np.testing.assert_allclose(cayley_inverse(g), t, atol=1e-10)
    # J G = G^{-1} J for anticommuting T
    j = space.j
    np.testing.assert_allclose(j @ g, np.linalg.solve(g, j), atol=1e-9)


def test_cayley_inverse_rejects_indefinite():
    with pytest.raises(InvariantViolation):
        cayley_inverse(np.diag([1.0, -0.5]).astype(complex))
