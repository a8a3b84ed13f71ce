"""The one split of an orthonormal J-invariant basis along J
(`spaces.split_along_j`) and the routes that read it: the block
completion's E, the domain split behind reconstruct_subspaces and
c0_operator, each against the route it replaced, and PartialContraction's
domain, held as M_+ (+) M_- (J-adapted columns) and split once when it is
given in a mixed basis."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as ref
from kreinlab import (PartialContraction, SignatureSpace, c0_operator, classify_case,
                      definiteness_class, krein_interval, reconstruct_subspaces)
from kreinlab import angular, extensions
from kreinlab._linalg import RESULT_TOL, STRUCT_TOL, hermitize, orthonormal_columns, random_unitary
from kreinlab.errors import InvariantViolation
from kreinlab.extensions import _completion, _solve_term
from kreinlab.sequence_model import SequenceModelSpec, build_model
from kreinlab.serialize import matrix_to_obj, problem_from_obj
from kreinlab.spaces import Subspace, fundamental_bases, fundamental_projections, split_along_j
from kreinlab.verify import random_partial_contraction, random_signature_space

KINDS = ("random", "empty", "full")


def invariant_basis(seed: int, n: int, kind: str):
    """(space, u, (k_+, k_-)): a random signature space of dimension n and an
    orthonormal J-invariant basis u of k_+ vectors of H_+ and k_- of H_-,
    mixed by a random unitary so that no column lies in H_+ or H_-; random
    k_+/-, the empty or the full basis."""
    rng = np.random.default_rng(seed)
    space = random_signature_space(rng, n)
    bases = fundamental_bases(space)
    if kind == "empty":
        dims = (0, 0)
    elif kind == "full":
        dims = (space.plus_dim, space.minus_dim)
    else:
        dims = tuple(int(rng.integers(0, b.shape[1] + 1)) for b in bases)
    u = np.hstack([b @ random_unitary(rng, b.shape[1])[:, :k] for b, k in zip(bases, dims)])
    if u.shape[1]:
        u = u @ random_unitary(rng, u.shape[1])
    return space, u, dims


def projector(basis):
    return basis @ basis.conj().T


def opnorm(m):
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


bases = st.builds(invariant_basis, st.integers(0, 2 ** 32 - 1), st.integers(2, 12),
                  st.sampled_from(KINDS))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=bases)
def test_split_is_orthonormal_and_signed(case):
    space, u, _ = case
    for part, sign in zip(split_along_j(space, u), (1.0, -1.0)):
        assert part.shape[0] == space.dim
        assert opnorm(part.conj().T @ part - np.eye(part.shape[1])) <= STRUCT_TOL
        assert opnorm(space.j @ part - sign * part) <= STRUCT_TOL


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=bases)
def test_split_spans_the_basis(case):
    space, u, _ = case
    u_plus, u_minus = split_along_j(space, u)
    assert opnorm(projector(np.hstack([u_plus, u_minus])) - projector(u)) <= 1e-13


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=bases)
def test_split_counts_are_the_gram_signs(case):
    space, u, dims = case
    w = np.linalg.eigvalsh(hermitize(u.conj().T @ space.j @ u))
    u_plus, u_minus = split_along_j(space, u)
    assert (u_plus.shape[1], u_minus.shape[1]) == (int(np.sum(w > 0)), int(np.sum(w < 0)))
    assert (u_plus.shape[1], u_minus.shape[1]) == dims


def pool_problems():
    """The extension problems of the benchmark's extend_dense pool."""
    gen = ref.perfbench_gen()
    out = []
    for item in gen.extend_pool(20261017):
        prob = item["problem"]
        out.append(PartialContraction(SignatureSpace(prob["J"]), prob["T0_domain"],
                                      prob["T0_action"]))
    return out


def test_completion_split_matches_the_eigh_route_bit_for_bit():
    # The route that _completion took before the split was shared: E V with
    # the eigenvectors of E* J E by descending eigenvalue, p = #{j_e > 0}.
    problems = pool_problems()
    assert len(problems) == 12
    for t0 in problems:
        e = t0.complement
        j_e, v = np.linalg.eigh(hermitize(e.conj().T @ (t0.space.j @ e)))
        old = e @ v[:, ::-1]
        new, p, *_ = _completion(t0)
        assert p == int(np.sum(j_e > 0))
        assert np.array_equal(new, old)


def per_column_images(t0):
    """(I + T0) m for each column m of the domain split as it was taken
    before the split was shared, from the projections P_+/- D and their
    SVDs, one t0.apply per column, with the signs +1 on M_+ and -1 on M_-."""
    cols, signs = [], []
    for proj, sign in zip(fundamental_projections(t0.space), (1.0, -1.0)):
        m = orthonormal_columns(proj @ t0.domain, floor=1.0)
        for k in range(m.shape[1]):
            cols.append(m[:, k] + t0.apply(m[:, k]))
            signs.append(sign)
    return cols, np.asarray(signs)


problems = st.builds(lambda seed, n: random_partial_contraction(
    np.random.default_rng(seed), random_signature_space(np.random.default_rng(seed + 1), n),
    proper=False), st.integers(0, 2 ** 31), st.integers(2, 12))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(t0=problems)
def test_reconstruct_matches_the_per_column_route(t0):
    cols, signs = per_column_images(t0)
    for sub, sign in zip(reconstruct_subspaces(t0), (1.0, -1.0)):
        mine = [c for c, s in zip(cols, signs) if s == sign]
        want = Subspace(np.column_stack(mine)) if mine else Subspace.empty(t0.space.dim)
        assert sub.dim == want.dim
        assert opnorm(projector(sub.basis) - projector(want.basis)) <= 1e-13


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(t0=problems)
def test_c0_matches_the_per_column_route(t0):
    cols, signs = per_column_images(t0)
    f = np.column_stack(cols)
    want = (f * signs) @ np.linalg.pinv(f)
    c0 = c0_operator(t0)
    # ||C0|| grows as ||T0|| nears 1; over 2,000 problems the gap stayed
    # below 1.5e-14 ||C0||.
    assert opnorm(c0.matrix - want) <= 1e-13 * max(1.0, opnorm(want))
    np.testing.assert_array_equal(c0.signs, signs)



# ------------------------------------------- the adapted domain and its fallback

def count_domain_splits(monkeypatch):
    """The shapes of the bases that PartialContraction splits along J."""
    calls = []
    real = angular.split_along_j

    def split(space, u):
        calls.append(u.shape)
        return real(space, u)
    monkeypatch.setattr(angular, "split_along_j", split)
    return calls


def mixed(t0, seed):
    """The same T0 given in the basis D Q with the action A Q, Q a random unitary."""
    q = random_unitary(np.random.default_rng(seed), t0.domain_dim)
    return PartialContraction(t0.space, t0.domain @ q, t0.action @ q)


def test_readme_and_pool_domains_take_the_adapted_route(monkeypatch):
    # no domain split, and ||T0|| from the half Grams alone (no d x d Gram)
    calls, grams = count_domain_splits(monkeypatch), []
    real = angular._gram_norm
    monkeypatch.setattr(angular, "_gram_norm", lambda *blocks: grams.append(len(blocks))
                        or real(*blocks))
    readme = problem_from_obj({"J": matrix_to_obj(np.diag([1.0, -1.0])),
                               "T0_domain": matrix_to_obj([[1.0], [0.0]]),
                               "T0_action": matrix_to_obj([[0.0], [0.5]])})
    models = [build_model(SequenceModelSpec(**spec)).t0
              for spec in ref.perfbench_gen().model_pool(20261017)]
    problems = [readme, *pool_problems(), *map(ref.formed_contraction, models)]
    assert len(problems) == 1 + 12 + 24
    assert calls == [] and grams == [2] * len(problems)
    for t0 in problems:
        assert opnorm(t0.space.j @ t0.domain - t0.domain * t0.signs) <= STRUCT_TOL


def test_mixed_basis_takes_the_fallback_and_gives_the_same_interval(monkeypatch):
    calls = count_domain_splits(monkeypatch)
    models = [build_model(SequenceModelSpec(delta, variant, 32)).t0
              for delta in (0.75, 1.25) for variant in ("both_constraints", "chi_plus_zero")]
    for k, t0 in enumerate([*pool_problems(), *models]):
        calls.clear()
        other = mixed(t0, k)
        assert calls == [t0.domain.shape]
        assert opnorm(projector(other.domain) - projector(t0.domain)) <= 1e-13
        np.testing.assert_array_equal(np.sort(other.signs), np.sort(t0.signs))
        want, got = krein_interval(t0), krein_interval(other)
        assert opnorm(got.t_mu - want.t_mu) <= 1e-13
        assert opnorm(got.t_m - want.t_m) <= 1e-13
        assert (got.defect_dim, got.signature, classify_case(got)) == (
            want.defect_dim, want.signature, classify_case(want))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(t0=problems, seed=st.integers(0, 2 ** 31))
def test_domain_split_matches_split_along_j(t0, seed):
    for t in (t0, mixed(t0, seed)):
        for mine, want in zip(t.domain_split(), angular.split_along_j(t.space, t.domain)):
            assert mine.shape == want.shape
            assert opnorm(projector(mine) - projector(want)) <= 1e-12


SPACE4 = SignatureSpace(np.diag([1.0, 1.0, -1.0, -1.0]))
ROTATION = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
E = np.eye(4)


def refusal_case(kind, ratio, basis):
    """(domain, action) on span{e1, e3} of J = diag(1, 1, -1, -1) whose
    invariance or anticommutation residual is ratio * STRUCT_TOL: e1 tilted
    by t = ratio * STRUCT_TOL / 2 towards e4 with T0 = 0, or T0 e1 = e3 / 2 +
    t e2, T0 e3 = e1 / 2; given in those columns or mixed by a rotation."""
    t = ratio * STRUCT_TOL / 2.0
    if kind == "invariance":
        domain = np.column_stack([(E[0] + t * E[3]) / np.hypot(1.0, t), E[2]])
        action = np.zeros((4, 2))
    else:
        domain = E[:, [0, 2]]
        action = np.column_stack([0.5 * E[2] + t * E[1], 0.5 * E[0]])
    if basis == "mixed":
        domain, action = domain @ ROTATION, action @ ROTATION
    return domain, action


MESSAGES = {"invariance": r"^domain is not J-invariant$",
            "anticommutation": r"^J T0 \+ T0 J != 0 on the domain \(residual 2\.000e-10\)$"}


@pytest.mark.parametrize("basis", ("adapted", "mixed"))
@pytest.mark.parametrize("kind", ("invariance", "anticommutation"))
def test_refusals_keep_their_thresholds_and_messages_on_both_routes(monkeypatch, kind, basis):
    calls = count_domain_splits(monkeypatch)
    t0 = PartialContraction(SPACE4, *refusal_case(kind, 0.5, basis))
    assert calls == ([] if basis == "adapted" else [(4, 2)])
    assert t0.domain_dim == 2 and sorted(t0.signs) == [-1.0, 1.0]
    with pytest.raises(InvariantViolation, match=MESSAGES[kind]):
        PartialContraction(SPACE4, *refusal_case(kind, 2.0, basis))


E6 = np.eye(6)
SPACE6 = SignatureSpace(np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]))


def cross_term_case(gap, basis):
    """(domain, action) on span{e1, e4} of J = diag(1, 1, 1, -1, -1, -1):
    T0 e1 = e4 / 2 + v e5 + t e2 and T0 e4 = e1 / 2 + w e3 + e2 / 2, both of
    norm 1 - gap, with t = 4e-11.  The anticommutation residual is 2 t =
    0.8 STRUCT_TOL (accepted), and the cross term t / 2 of the Gram puts
    ||T0||^2 at (1 - gap)^2 + 2e-11, above both half Grams."""
    t, half = 4e-11, (1.0 - gap) ** 2
    v, w = np.sqrt(half - 0.25 - t * t), np.sqrt(half - 0.5)
    domain = E6[:, [0, 3]]
    action = np.column_stack([0.5 * E6[3] + v * E6[4] + t * E6[1],
                              0.5 * E6[0] + w * E6[2] + 0.5 * E6[1]])
    if basis == "mixed":
        domain, action = domain @ ROTATION, action @ ROTATION
    return domain, action


@pytest.mark.parametrize("basis", ("adapted", "mixed"))
def test_a_threshold_inside_the_cross_term_is_read_from_the_full_gram(basis):
    # ||T0|| = 1 + 8e-12 over half Grams of 1 - 2e-12: refused, as the
    # full Gram refuses it
    with pytest.raises(InvariantViolation, match=r"^not a strong contraction: "
                                                 r"\|\|T0\|\| = 1\.00000000001 > 1$"):
        PartialContraction(SPACE6, *cross_term_case(2e-12, basis))
    # ||T0|| = 1 over 1 - 1e-11: near_unit; 1 - ||T0|| = 1e-3 - 5e-12 over
    # 1e-3 + 5e-12: approaching the non-uniform regime
    for gap, label, approaching in ((1e-11, "definite_not_uniform", True),
                                    (1e-3 + 5e-12, "uniformly_definite", True)):
        domain, action = cross_term_case(gap, basis)
        t0 = PartialContraction(SPACE6, domain, action)
        assert abs(t0.norm - np.linalg.norm(action, 2)) <= 1e-15
        assert t0.norm <= t0.norm_bound <= t0.norm + 8.1e-11
        report = definiteness_class(t0)
        assert (report.classification, report.approaching_nonuniform) == (label, approaching)
        assert t0.near_unit == (label == "definite_not_uniform")


def two_solve_completion(t0):
    """`_completion` with Z_- from its own solve of I - A, the route before
    the corners shared one LU."""
    e, p, b, c_min, _, _, anti, z_norm = _completion(t0)
    a = hermitize(t0.domain.conj().T @ t0.action)
    eye, bh = np.eye(t0.domain_dim), b.conj().T
    z_plus, z_minus = np.linalg.solve(eye + a, bh), np.linalg.solve(eye - a, bh)
    residual = max(np.linalg.norm((eye + a) @ z_plus - bh),
                   np.linalg.norm((eye - a) @ z_minus - bh))
    return (e, p, b, c_min, hermitize(np.eye(e.shape[1]) - b @ z_minus), float(residual), anti,
            z_norm)


def diagonal_block_case(basis):
    """T0 e1 = e3 / 2 + e4 / 4 + t e1, T0 e3 = e1 / 2 + e2 / 5 on span{e1,
    e3} of J = diag(1, 1, -1, -1), t = STRUCT_TOL / 4: A = D* T0 D has the
    diagonal block t, and the anticommutation residual is 0.5 STRUCT_TOL."""
    domain = E[:, [0, 2]]
    action = np.column_stack([0.5 * E[2] + 0.25 * E[3] + 0.25 * STRUCT_TOL * E[0],
                              0.5 * E[0] + 0.2 * E[1]])
    if basis == "mixed":
        domain, action = domain @ ROTATION, action @ ROTATION
    return domain, action


@pytest.mark.parametrize("basis", ("adapted", "mixed"))
@pytest.mark.parametrize("case", ("anticommutation", "diagonal_block"))
def test_shared_lu_matches_the_two_solves_at_the_accepted_residual(monkeypatch, case, basis):
    # the shared LU solves I - A + 2 diag(A_++, A_--) for Z_-: off rounding
    # its corner moves by the measured residual, which the bounds carry
    problem = (refusal_case("anticommutation", 0.5, basis) if case == "anticommutation"
               else diagonal_block_case(basis))
    t0 = PartialContraction(SPACE4, *problem)
    got, residual = krein_interval(t0), _completion(t0)[5]
    monkeypatch.setattr(extensions, "_completion", two_solve_completion)
    want, old_residual = krein_interval(t0), two_solve_completion(t0)[5]
    allowed = _solve_term(t0, residual) + _solve_term(t0, old_residual) + 1e-15
    if case == "anticommutation":
        assert residual <= 1e-15      # A's diagonal blocks vanish exactly
    for mine, theirs in ((got.t_mu, want.t_mu), (got.t_m, want.t_m)):
        assert opnorm(mine - theirs) <= allowed
    assert max(got.excess_bound, want.excess_bound) < RESULT_TOL    # both certified
    assert (got.defect_dim, got.signature, classify_case(got)) == (
        want.defect_dim, want.signature, classify_case(want))
