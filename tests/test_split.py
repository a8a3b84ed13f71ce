"""The one split of an orthonormal J-invariant basis along J
(`spaces.split_along_j`) and the routes that read it: the block
completion's E, and the domain split behind reconstruct_subspaces and
c0_operator, each against the route it replaced."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as ref
from kreinlab import PartialContraction, SignatureSpace, c0_operator, reconstruct_subspaces
from kreinlab._linalg import STRUCT_TOL, hermitize, orthonormal_columns, random_unitary
from kreinlab.extensions import _completion
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

