"""The dense construction routes against the routes they replaced: the domain
complement from projected coordinate vectors against the complete QR,
||T0|| from the d x d Gram against the SVD 2-norm, and T_M from one product
against the two-product assembly of its block form."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as ref
from kreinlab import PartialContraction, SignatureSpace, krein_interval
from kreinlab._linalg import (
    COMPLEMENT_ROUNDING,
    hermitize,
    orthonormal_columns,
    orthonormal_complement,
    projected_complement,
)
from kreinlab.extensions import _completion
from kreinlab.oracles import qr_complement
from kreinlab.sequence_model import SequenceModelSpec, build_model
from kreinlab.spaces import fundamental_bases
from kreinlab.verify import random_anticommuting_contraction, random_signature_space

EPS = np.finfo(float).eps
KINDS = ("random", "empty", "full", "wide")


def problem(seed: int, n: int, kind: str) -> PartialContraction:
    """A J-invariant partial contraction of dimension n: a random domain,
    the empty or the full one, or ("wide") one vector in each of H_+ and
    H_-, so that codim > dim and W repeats the eigenvalue 2."""
    rng = np.random.default_rng(seed)
    space = random_signature_space(rng, n)
    t = random_anticommuting_contraction(rng, space)
    bases = fundamental_bases(space)
    if kind == "empty":
        dims = (0, 0)
    elif kind == "full":
        dims = (space.plus_dim, space.minus_dim)
    elif kind == "wide":
        dims = (1, 1)
    else:
        dims = tuple(int(rng.integers(0, b.shape[1] + 1)) for b in bases)
    cols = [orthonormal_columns(b @ (rng.standard_normal((b.shape[1], k))
                                     + 1j * rng.standard_normal((b.shape[1], k))))
            for b, k in zip(bases, dims)]
    domain = np.hstack(cols)
    return PartialContraction(space, domain, t @ domain)


def projector(basis):
    return basis @ basis.conj().T


def opnorm(m):
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


problems = st.builds(problem, st.integers(0, 2 ** 32 - 1), st.integers(2, 40),
                     st.sampled_from(KINDS))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(t0=problems)
def test_projected_complement_spans_the_domain_complement(t0):
    # Certified on every such problem, orthonormal and orthogonal to D to
    # the allowance, and the projector of the complete-QR oracle's.
    d = t0.domain
    n, m = t0.space.dim, t0.space.dim - t0.domain_dim
    e = projected_complement(d)
    assert e is not None and e.shape == (n, m)
    allowance = COMPLEMENT_ROUNDING * n * EPS
    assert opnorm(e.conj().T @ e - np.eye(m)) <= allowance
    assert opnorm(d.conj().T @ e) <= allowance
    assert opnorm(projector(e) - projector(qr_complement(d))) <= 1e-13
    assert np.array_equal(t0.complement, e)


def test_empty_domain_complement_is_the_identity():
    for n in (2, 5, 40):
        assert np.array_equal(orthonormal_complement(np.zeros((n, 0))), np.eye(n))


def tie_domain(perm=(0, 1, 2, 3)):
    # D^perp = span{(e1 + e2)/sqrt 2, (e3 + e4)/sqrt 2}, rows permuted: every
    # row of D has the same length, so S is the first two coordinates.
    r = 1.0 / np.sqrt(2.0)
    d = np.zeros((4, 2), dtype=complex)
    d[[0, 1], 0] = r, -r
    d[[2, 3], 1] = r, -r
    f = np.zeros((4, 2))
    f[[0, 1], 0] = r
    f[[2, 3], 1] = r
    perm = list(perm)
    return d[perm], f[perm]


@pytest.mark.parametrize("perm", ((0, 1, 2, 3), (1, 0, 3, 2), (0, 2, 1, 3), (2, 0, 3, 1)))
def test_tie_case_falls_back_or_certifies_correctly(perm):
    # With S = {1, 2} both projected columns are (e1 + e2)/2: V has rank one
    # and the certificate must refuse; with one coordinate of each pair it
    # may certify, and then correctly.  Either way the complement is right,
    # and so is the interval of T0 = 0 on the J-invariant domain.
    d, f = tie_domain(perm)
    e = projected_complement(d)
    if perm[:2] in ((0, 1), (1, 0)):
        assert e is None
    if e is not None:
        assert opnorm(projector(e) - projector(f)) <= 1e-13
    assert opnorm(projector(orthonormal_complement(d)) - projector(f)) <= 1e-13
    space = SignatureSpace(np.diag([1.0, 1.0, -1.0, -1.0])[np.ix_(perm, perm)])
    iv = krein_interval(PartialContraction(space, d, np.zeros_like(d)))
    assert iv.signature == (1, 1)
    assert opnorm(projector(iv.defect_basis) - projector(f)) <= 1e-13


@pytest.mark.parametrize("s", (1e-3, 1e-6, 1e-9))
def test_near_tie_needs_the_second_projection(s):
    # D^perp = span{(e1 + e2)/sqrt 2, (c (e3 + e4) + s (e1 - e2))/sqrt 2}: S is
    # {1, 2} and V has sigma_min about s.  The QR of V leaves rounding of size
    # u / s in ran D, which the second projection removes.
    c = np.sqrt(1.0 - s * s)
    f = np.zeros((4, 2), dtype=complex)
    f[[0, 1], 0] = 1.0 / np.sqrt(2.0)
    f[:, 1] = np.array([s, -s, c, c]) / np.sqrt(2.0)
    d = qr_complement(f)
    e = projected_complement(d)
    assert e is not None
    assert opnorm(projector(e) - projector(f)) <= 1e-13


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(t0=problems)
def test_gram_norm_matches_the_svd(t0):
    svd = opnorm(t0.action)
    assert abs(t0.norm - svd) <= 8 * t0.space.dim * EPS * svd
    if t0.domain_dim == 0:
        assert t0.norm == 0.0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(t0=problems)
def test_one_product_t_m_matches_the_block_assembly(t0):
    iv = krein_interval(t0)
    e, _, b, _, c_max, *_ = _completion(t0)
    a = hermitize(t0.domain.conj().T @ t0.action)
    two = hermitize(ref.completion_matrix(t0.domain, e, a, b, c_max))
    assert opnorm(iv.t_m - two) <= 1e-13 * t0.space.dim


@pytest.mark.parametrize("pairs", (64, 128))
def test_model_construction_takes_no_square_qr_or_svd(monkeypatch, pairs):
    # build_model and krein_interval take no QR and no SVD at all: the
    # model holds E = [chi_+, chi_-], so no complement of the domain is
    # orthonormalized, and ||T0|| is read as alpha_N.
    counted = []
    for name in ("qr", "svd"):
        def count(a, *args, _name=name, _real=getattr(np.linalg._linalg, name), **kwargs):
            counted.append((_name, np.shape(a), kwargs.get("mode", args[0] if args else None)))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg._linalg, name, count)
        monkeypatch.setattr(np.linalg, name, count)
    inst = build_model(SequenceModelSpec(1.25, "both_constraints", pairs))
    iv = krein_interval(inst.t0)
    assert counted == []
    assert iv.defect_dim == 2


def test_benchmark_pools_take_no_complement_fallback():
    # The projected complement certifies on every extend_dense and
    # model_sweep problem of the benchmark seed.
    gen = ref.perfbench_gen()
    domains = [item["problem"]["T0_domain"] for item in gen.extend_pool(20261017)]
    domains += [build_model(SequenceModelSpec(s["delta"], s["variant"], s["n_pairs"])).t0.domain
                for s in gen.model_pool(20261017)]
    assert len(domains) == 36
    assert [projected_complement(np.asarray(d, dtype=complex)) is None
            for d in domains] == [False] * 36
