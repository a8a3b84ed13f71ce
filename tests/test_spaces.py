import numpy as np
import pytest

from kreinlab import (
    SignatureSpace,
    Subspace,
    classify_subspace,
    fundamental_bases,
    fundamental_projections,
    indefinite_product,
)
from kreinlab._linalg import STRUCT_TOL, hermitize, operator_norm, random_unitary
from kreinlab.errors import InvariantViolation, KreinLabError
from kreinlab.verify import random_signature_space


def test_indefinite_product_basis_vectors(j2):
    space = SignatureSpace(j2)
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    neutral = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert indefinite_product(space, e1, e1) == pytest.approx(1.0)
    assert indefinite_product(space, neutral, neutral) == pytest.approx(0.0, abs=1e-15)
    assert indefinite_product(space, e1, e2) == pytest.approx(0.0, abs=1e-15)


def test_indefinite_product_first_argument_linear(j2, rng):
    # [af, g] = a[f, g] and [f, ag] = conj(a)[f, g]
    space = SignatureSpace(j2)
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a = 0.3 - 1.7j
    assert indefinite_product(space, a * f, g) == pytest.approx(a * indefinite_product(space, f, g))
    assert indefinite_product(space, f, a * g) == pytest.approx(
        np.conj(a) * indefinite_product(space, f, g)
    )


def test_classify_spanning_vectors(j2):
    space = SignatureSpace(j2)

    cls = classify_subspace(space, Subspace.from_vectors([1.0, 0.0]))
    assert cls.label == "positive"
    assert cls.uniform_margin == pytest.approx(1.0)

    cls = classify_subspace(space, Subspace.from_vectors([1.0, 1.0]))
    assert cls.label == "nonnegative"
    assert cls.uniform_margin == 0.0

    # normalized Gram eigenvalue (1 - 1/4)/(1 + 1/4) ... the margin is the
    # smallest |eigenvalue| of the Gram in the orthonormalized basis:
    # v = (1, 1/2)/sqrt(5/4), [v, v] = (1 - 1/4)/(5/4) = 3/5
    cls = classify_subspace(space, Subspace.from_vectors([1.0, 0.5]))
    assert cls.label == "positive"
    gram = (1.0 - 0.25) / 1.25
    assert cls.uniform_margin == pytest.approx(gram)
    assert cls.gram_eigenvalues == pytest.approx([gram])


def test_classify_negative_and_indefinite(j2):
    space = SignatureSpace(j2)
    assert classify_subspace(space, Subspace.from_vectors([0.0, 1.0])).label == "negative"
    full = Subspace(np.eye(2, dtype=complex))
    assert classify_subspace(space, full).label == "indefinite"


def test_fundamental_projections_diagonal(j2):
    space = SignatureSpace(j2)
    p_plus, p_minus = fundamental_projections(space)
    np.testing.assert_allclose(p_plus, np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(p_minus, np.diag([0.0, 1.0]), atol=1e-15)


def test_fundamental_projections_antidiagonal():
    j = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    space = SignatureSpace(j)
    p_plus, _ = fundamental_projections(space)
    np.testing.assert_allclose(p_plus, 0.5 * np.ones((2, 2)), atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_projection_identities_random(seed):
    rng = np.random.default_rng(seed)
    space = random_signature_space(rng)
    p_plus, p_minus = fundamental_projections(space)
    n = space.dim
    atol = 1e-12
    np.testing.assert_allclose(p_plus + p_minus, np.eye(n), atol=atol)
    np.testing.assert_allclose(p_plus - p_minus, space.j, atol=atol)
    np.testing.assert_allclose(p_plus @ p_minus, np.zeros((n, n)), atol=atol)
    np.testing.assert_allclose(p_plus @ p_plus, p_plus, atol=atol)


def test_signature_space_rejects_non_involution():
    with pytest.raises(KreinLabError):
        SignatureSpace(np.diag([1.0, -2.0]).astype(complex))
    with pytest.raises(KreinLabError):
        SignatureSpace(np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex))


def test_signature_space_counts(j2):
    space = SignatureSpace(np.diag([1.0, 1.0, -1.0]).astype(complex))
    assert (space.plus_dim, space.minus_dim) == (2, 1)
    h_plus, _ = fundamental_bases(space)
    assert h_plus.shape == (3, 2)
    cls = classify_subspace(space, Subspace(h_plus))
    assert cls.label == "positive" and cls.uniform_margin == pytest.approx(1.0)


def test_from_orthonormal_stores_a_checked_basis():
    u = np.linalg.qr(np.arange(12.0).reshape(4, 3) + np.eye(4, 3))[0].astype(complex)
    sub = Subspace.from_orthonormal(u)
    assert np.array_equal(sub.basis, u) and not sub.basis.flags.writeable
    assert u.flags.writeable
    with pytest.raises(InvariantViolation, match="orthonormal"):
        Subspace.from_orthonormal(2.0 * u)
    assert Subspace.empty(3).basis.shape == (3, 0)


def test_classify_rejects_zero_subspace(j2):
    space = SignatureSpace(j2)
    with pytest.raises(ValueError):
        classify_subspace(space, Subspace.empty(2))


def rotated_j(rng, n, plus):
    """U diag(+1 x plus, -1 x (n - plus)) U* for a random unitary U."""
    u = random_unitary(rng, n)
    signs = np.concatenate([np.ones(plus), -np.ones(n - plus)])
    return hermitize((u * signs) @ u.conj().T)


def assert_signature_and_bases(space):
    # The trace signature is the eigenvalue count, and fundamental_bases is
    # the eigenbasis of J split at minus_dim, bit for bit.
    w, v = np.linalg.eigh(space.j)
    assert space.minus_dim == int(np.sum(np.linalg.eigvalsh(space.j) < 0))
    assert space.plus_dim == space.dim - space.minus_dim
    h_plus, h_minus = fundamental_bases(space)
    assert np.array_equal(h_plus, v[:, space.minus_dim:])
    assert np.array_equal(h_minus, v[:, :space.minus_dim])
    assert operator_norm(space.j @ h_plus - h_plus) <= STRUCT_TOL
    assert operator_norm(space.j @ h_minus + h_minus) <= STRUCT_TOL


@pytest.mark.parametrize("n", (2, 7, 64))
def test_signature_of_rotated_j_every_split(n):
    rng = np.random.default_rng(n)
    for plus in range(1, n):
        space = SignatureSpace(rotated_j(rng, n, plus))
        assert (space.plus_dim, space.minus_dim) == (plus, n - plus)
        assert_signature_and_bases(space)
    for sign in (1.0, -1.0):
        with pytest.raises(KreinLabError):
            SignatureSpace(sign * rotated_j(rng, n, n))


def test_signature_of_perturbed_j():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    e = hermitize(a)
    e *= 1e-11 / operator_norm(e)
    space = SignatureSpace(rotated_j(rng, 7, 3) + e)
    assert (space.plus_dim, space.minus_dim) == (3, 4)
    assert_signature_and_bases(space)


def test_signature_space_takes_no_decomposition(monkeypatch):
    # The signature is read from tr J; construction factors nothing.
    # Wrapping numpy.linalg._linalg also counts the SVD inside norm(., 2).
    j = rotated_j(np.random.default_rng(64), 64, 27)
    counted = []
    for name in ("svd", "eigh", "eigvalsh"):
        def count(a, *args, _name=name, _real=getattr(np.linalg._linalg, name), **kwargs):
            counted.append(_name)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg._linalg, name, count)
        monkeypatch.setattr(np.linalg, name, count)
    space = SignatureSpace(j)
    assert counted == []
    assert (space.plus_dim, space.minus_dim) == (27, 37)
