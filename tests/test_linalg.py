"""The residual check and the self-adjointness predicate agree with the
exact 2-norm verdicts they stand for, also where the Frobenius norm does
not settle them."""
import numpy as np
import pytest

from kreinlab._linalg import (
    STRUCT_TOL,
    check_residual,
    is_self_adjoint,
    operator_norm,
    random_unitary,
)
from kreinlab.errors import InvariantViolation


def passes(a, bound):
    try:
        check_residual("residual too large", a, bound)
    except InvariantViolation:
        return False
    return True


@pytest.mark.parametrize("n", (2, 5, 16))
def test_identity_passes_on_the_2_norm_where_frobenius_fails(n):
    a = np.eye(n)
    for bound in (1.0, 0.5 * (1.0 + np.sqrt(n)), np.sqrt(n) * (1.0 - 1e-9)):
        assert np.linalg.norm(a) > bound
        assert passes(a, bound)
    assert not passes(a, 1.0 - 1e-12)


@pytest.mark.parametrize("bound", (1e-10, 1e-8, 1.0 + 1e-10, 3.0))
@pytest.mark.parametrize("factor", (1.0 - 1e-12, 1.0 + 1e-12))
def test_rank_one_verdict_at_the_bound(bound, factor):
    rng = np.random.default_rng(7)
    for shape in ((4, 4), (6, 3)):
        u = rng.standard_normal(shape[0]) + 1j * rng.standard_normal(shape[0])
        v = rng.standard_normal(shape[1]) + 1j * rng.standard_normal(shape[1])
        a = np.outer(u / np.linalg.norm(u), v.conj() / np.linalg.norm(v)) * bound * factor
        assert passes(a, bound) == (operator_norm(a) <= bound) == (factor < 1.0)


@pytest.mark.parametrize("shape", ((0, 0), (3, 0), (0, 2)))
def test_empty_residual_passes(shape):
    assert passes(np.zeros(shape), 0.0)
    assert is_self_adjoint(np.zeros(shape))


def test_failure_message_is_exact():
    with pytest.raises(InvariantViolation) as exc:
        check_residual("J must be an involution (J^2 = I)", np.eye(2), 0.5)
    assert str(exc.value) == "J must be an involution (J^2 = I)"
    with pytest.raises(InvariantViolation) as exc:
        check_residual("J T0 + T0 J != 0 on the domain (residual {residual:.3e})",
                       np.diag([3.0, 1.0]), 1.0)
    assert str(exc.value) == "J T0 + T0 J != 0 on the domain (residual 3.000e+00)"


@pytest.mark.parametrize("scale", (1.0, 100.0))
@pytest.mark.parametrize("skew", (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0))
def test_self_adjoint_verdict_matches_scaled_residual(scale, skew):
    # one skew entry, sized relative to the tolerance of a norm-`scale` matrix
    a = scale * np.eye(3, dtype=complex)
    a[0, 1] = skew * STRUCT_TOL * scale
    expect = np.max(np.abs(a - a.conj().T)) <= STRUCT_TOL * max(1.0, operator_norm(a))
    assert expect == (skew < 1.0)
    assert is_self_adjoint(a) == expect
    assert is_self_adjoint(a + a.conj().T)


@pytest.mark.parametrize("bound", (1e-10, 1.0 + 1e-10, 3.0))
@pytest.mark.parametrize("factor", (1.0 - 1e-12, 1.0 + 1e-12))
@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_hermitian_norm_verdict_at_the_bound(monkeypatch, bound, factor, sign):
    # Exactly Hermitian, with ||a||_F > bound, the largest |lambda| = bound *
    # factor on either sign: the eigvalsh route gives the SVD's verdict, and
    # takes no SVD.
    u = random_unitary(np.random.default_rng(11), 6)
    ev = bound * np.array([sign * factor, -0.9 * sign, 0.8, -0.7, 0.5, 0.0])
    a = (u * ev) @ u.conj().T
    a = 0.5 * (a + a.conj().T)
    assert np.linalg.norm(a) > bound
    want = operator_norm(a) <= bound
    monkeypatch.setattr(np.linalg._linalg, "svd", None)
    assert passes(a, bound) == want == (factor < 1.0)
