import warnings

import numpy as np
import pytest

from kreinlab import (
    PartialContraction,
    SignatureSpace,
    Subspace,
    c0_operator,
    cayley_g0,
    definiteness_class,
    duality_test,
    extract_angular,
    fundamental_bases,
    reconstruct_subspaces,
)
from kreinlab.errors import CayleyUndefinedError, InvariantViolation
from kreinlab.sequence_model import SequenceModelSpec, alphas, build_model
from kreinlab.verify import random_partial_contraction, random_signature_space


def space2(j2):
    return SignatureSpace(j2)


def projector(basis):
    return basis @ basis.conj().T


@pytest.mark.parametrize("operand", ("J", "domain", "action"))
@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_non_finite_operand_refused_by_name(operand, bad):
    # Refused before any factorization: no LinAlgError, no RuntimeWarning.
    mats = {"J": np.diag([1.0, -1.0, 1.0]), "domain": np.eye(3)[:, :1],
            "action": np.array([[0.0], [0.5], [0.0]])}
    mats[operand][-1, -1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{operand} has non-finite entries$"):
            PartialContraction(SignatureSpace(mats["J"]), mats["domain"], mats["action"])


# ---------------------------------------------------------------- extraction

def test_extract_fundamental_pair_gives_zero(j2):
    space = SignatureSpace(j2)
    t0 = extract_angular(space, *map(Subspace, fundamental_bases(space)))
    assert t0.is_full_domain
    np.testing.assert_allclose(t0.full_matrix(), np.zeros((2, 2)), atol=1e-14)


def test_extract_graph_over_plus(j2):
    space = SignatureSpace(j2)
    t0 = extract_angular(space, Subspace.from_vectors([1.0, 0.5]), None)
    assert t0.domain_dim == 1
    np.testing.assert_allclose(projector(t0.domain), np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(t0.apply([1.0, 0.0]), [0.0, 0.5], atol=1e-12)


def test_extract_rejects_neutral_subspace(j2):
    space = SignatureSpace(j2)
    with pytest.raises(InvariantViolation):
        extract_angular(space, Subspace.from_vectors([1.0, 1.0]), None)


@pytest.mark.parametrize("seed", range(6))
def test_extract_reconstruct_roundtrip(seed):
    rng = np.random.default_rng(seed)
    space = random_signature_space(rng)
    t0 = random_partial_contraction(rng, space)
    l_plus, l_minus = reconstruct_subspaces(t0)
    t1 = extract_angular(space, l_plus, l_minus)
    np.testing.assert_allclose(t1.full_matrix(), t0.full_matrix(), atol=1e-10)


# ------------------------------------------------------------------- duality

def test_duality_one_dimensional_domain(j2):
    space = SignatureSpace(j2)
    t0 = PartialContraction(space, [[1.0], [0.0]], [[0.0], [0.5]])
    assert duality_test(t0)


def _four_dim_pair(c13, c31):
    space = SignatureSpace(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
    domain = np.zeros((4, 2), dtype=complex)
    domain[0, 0] = 1.0
    domain[2, 1] = 1.0
    action = np.zeros((4, 2), dtype=complex)
    action[2, 0] = c13      # T0 e1 = c13 e3
    action[0, 1] = c31      # T0 e3 = c31 e1
    return PartialContraction(space, domain, action)


def test_duality_detects_asymmetry():
    assert not duality_test(_four_dim_pair(0.5, 0.25))
    assert duality_test(_four_dim_pair(0.5, 0.5))


# -------------------------------------------------------------- definiteness

def test_definiteness_full_zero(j2):
    space = SignatureSpace(j2)
    t0 = PartialContraction(space, np.eye(2, dtype=complex), np.zeros((2, 2)))
    rep = definiteness_class(t0)
    assert rep.classification == "uniformly_definite"
    assert rep.maximal
    assert not rep.approaching_nonuniform


def test_definiteness_proper_domain(j2):
    space = SignatureSpace(j2)
    t0 = PartialContraction(space, [[1.0], [0.0]], [[0.0], [0.5]])
    rep = definiteness_class(t0)
    assert rep.classification == "uniformly_definite"
    assert not rep.maximal
    assert rep.norm == pytest.approx(0.5)


def test_definiteness_near_unit_flag(j2):
    # norm 1 - 1e-4: still uniformly definite, but flagged as approaching
    # the non-uniform regime (the truncated model family at 1e4 pairs has
    # exactly this norm).
    space = SignatureSpace(j2)
    t0 = PartialContraction(space, [[1.0], [0.0]], [[0.0], [1.0 - 1e-4]])
    rep = definiteness_class(t0)
    assert rep.classification == "uniformly_definite"
    assert rep.approaching_nonuniform
    assert rep.norm == pytest.approx(1.0 - 1e-4)


def test_definiteness_unit_norm_not_uniform(j2):
    # T0 e1 = e2 has norm 1: the pair is definite but not uniformly so, and
    # the proper domain keeps it from being maximal.
    space = SignatureSpace(j2)
    t0 = PartialContraction(space, [[1.0], [0.0]], [[0.0], [1.0]])
    rep = definiteness_class(t0)
    assert rep.classification == "definite_not_uniform"
    assert not rep.maximal
    assert rep.approaching_nonuniform
    assert rep.norm == pytest.approx(1.0)


def test_model_truncation_norm_formula():
    assert alphas(10 ** 4).max() == pytest.approx(1.0 - 1e-4, abs=1e-15)
    inst = build_model(SequenceModelSpec(1.0, n_pairs=50))
    # singular-value oracle for the operator norm
    assert np.linalg.svd(inst.t, compute_uv=False)[0] == pytest.approx(1.0 - 1.0 / 50)


# ------------------------------------------------------------------ C0 and G0

def test_c0_fundamental_pair_is_j(j2):
    space = SignatureSpace(j2)
    t0 = extract_angular(space, *map(Subspace, fundamental_bases(space)))
    c0 = c0_operator(t0)
    np.testing.assert_allclose(c0.matrix, j2, atol=1e-12)


def test_c0_fixes_single_positive_subspace(j2):
    space = SignatureSpace(j2)
    t0 = extract_angular(space, Subspace.from_vectors([1.0, 0.5]), None)
    c0 = c0_operator(t0)
    f = np.array([1.0, 0.5], dtype=complex)
    np.testing.assert_allclose(c0.apply(f), f, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_c0_involution_and_positive_form(seed):
    rng = np.random.default_rng(100 + seed)
    space = random_signature_space(rng, dim=4)
    t0 = random_partial_contraction(rng, space)
    c0 = c0_operator(t0)
    d = c0.domain
    np.testing.assert_allclose(c0.matrix @ c0.matrix @ d, d, atol=1e-10)
    assert np.linalg.eigvalsh(c0.form_matrix)[0] > 0


def test_cayley_g0_identity_map(j2):
    space = SignatureSpace(j2)
    t0 = PartialContraction(space, np.eye(2, dtype=complex), np.zeros((2, 2)))
    g0 = cayley_g0(t0)
    np.testing.assert_allclose(g0.apply([1.0, 0.0]), [1.0, 0.0], atol=1e-14)


def test_cayley_g0_half_instance(j2):
    space = SignatureSpace(j2)
    t0 = PartialContraction(space, [[1.0], [0.0]], [[0.0], [0.5]])
    g0 = cayley_g0(t0)
    np.testing.assert_allclose(g0.apply([1.0, 0.5]), [1.0, -0.5], atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_cayley_g0_j_symmetry(seed):
    # J G0 (I+T0)x = G0^{-1} J (I+T0)x; both sides equal (I + T0) Jx.
    rng = np.random.default_rng(200 + seed)
    space = random_signature_space(rng)
    t0 = random_partial_contraction(rng, space)
    g0 = cayley_g0(t0)
    j = space.j
    for k in range(t0.domain_dim):
        x = t0.domain[:, k]
        jx = j @ x
        lhs = j @ g0.apply(x + t0.apply(x))
        rhs = jx + t0.apply(jx)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_cayley_g0_undefined_at_negative_one(j2):
    space = SignatureSpace(j2)
    t = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    t0 = PartialContraction(space, np.eye(2, dtype=complex), t)
    with pytest.raises(CayleyUndefinedError):
        cayley_g0(t0)


# ------------------------------------------------------------------ validation

def test_partial_contraction_rejects_bad_input(j2):
    space = SignatureSpace(j2)
    with pytest.raises(InvariantViolation):
        # not a contraction
        PartialContraction(space, [[1.0], [0.0]], [[0.0], [1.5]])
    with pytest.raises(InvariantViolation):
        # domain not J-invariant
        PartialContraction(space, np.array([[1.0], [1.0]]) / np.sqrt(2.0),
                           np.zeros((2, 1)))
    with pytest.raises(InvariantViolation):
        # commuting rather than anticommuting action
        PartialContraction(space, [[1.0], [0.0]], [[0.5], [0.0]])


@pytest.mark.parametrize("route, message", (
    ("coords", "not in the domain of T0"),
    ("partial_map", "not in the domain"),
    ("c_symmetry", r"not in D\(C0\)"),
))
def test_domain_restricted_maps_reject_off_domain_vectors(j2, route, message):
    # D(T0) = span{e1}; C0 and G0 live on span{e1 + e2/2}: e2 lies in none
    t0 = PartialContraction(space2(j2), [[1.0], [0.0]], [[0.0], [0.5]])
    inside = {"coords": np.array([2.0, 0.0]),
              "partial_map": np.array([1.0, 0.5]),
              "c_symmetry": np.array([1.0, 0.5])}[route]
    apply = {"coords": t0.coords,
             "partial_map": cayley_g0(t0).apply,
             "c_symmetry": c0_operator(t0).apply}[route]
    apply(inside)
    with pytest.raises(ValueError, match=message):
        apply(np.array([0.0, 1.0]))
