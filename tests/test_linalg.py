import numpy as np
import pytest

from nare import SingularMatrix, inf_norm, lu_solve
from nare.linalg import EPS, lu_inverse
from nare.sda import resolve_gamma
from nare.sda import SdaConfig


def test_identity_solve():
    b = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(lu_solve(np.eye(3), b), b)


def test_diagonal_solve():
    x = lu_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([[2.0], [8.0]]))
    assert np.allclose(x, [[1.0], [2.0]], rtol=0, atol=0)


def test_rank_deficient_raises():
    with pytest.raises(SingularMatrix):
        lu_solve(np.ones((2, 2)), np.eye(2))


def test_zero_matrix_raises():
    with pytest.raises(SingularMatrix):
        lu_solve(np.zeros((3, 3)), np.eye(3))


def test_shape_mismatch():
    with pytest.raises(ValueError):
        lu_solve(np.eye(3), np.eye(4))
    with pytest.raises(ValueError):
        lu_solve(np.ones((2, 3)), np.ones(2))


def test_random_recovery(rng):
    for n in (5, 20, 60):
        a = rng.standard_normal((n, n))
        a += np.diag(np.abs(a).sum(axis=1) + 1.0)  # diagonally dominant
        x0 = rng.standard_normal((n, 3))
        x = lu_solve(a, a @ x0)
        assert inf_norm(x - x0) <= 1e-10 * inf_norm(x0)


def test_inf_norm_values():
    assert inf_norm(np.array([[1.0, -2.0], [3.0, 0.0]])) == 3.0
    assert inf_norm(np.zeros((4, 4))) == 0.0
    assert inf_norm(np.array([[-5.0]])) == 5.0
    assert inf_norm(np.array([1.0, -7.0, 2.0])) == 7.0


def test_inf_norm_homogeneous(rng):
    a = rng.standard_normal((6, 6))
    for c in (-3.5, 0.0, 0.25):
        assert inf_norm(c * a) == pytest.approx(abs(c) * inf_norm(a), rel=1e-15)


@pytest.mark.parametrize("n", [32, 256])
def test_inner_matrices_inverse_roundtrip(n):
    # the W_gamma / V_gamma systems of the doubling initialization stay
    # well conditioned enough for a 1e-10 inverse roundtrip, and V_gamma^-1
    # is D_g^-1 + D_g^-1 C W_g^-1 B D_g^-1, the identity sda_init relies on
    from nare import build_problem, default_shift, quadrature_params, shifted_coefficients

    problem = build_problem(quadrature_params(n))
    eye = np.eye(n)
    for quad in (problem.quad,
                 shifted_coefficients(problem, default_shift(problem, "single")),
                 shifted_coefficients(problem, default_shift(problem, "double"))):
        gamma = resolve_gamma(quad, SdaConfig())
        a_g = quad.A + gamma * eye
        d_g = quad.D + gamma * eye
        w_g = a_g - quad.B @ lu_solve(d_g, quad.C)
        v_g = d_g - quad.C @ lu_solve(a_g, quad.B)
        for mat in (w_g, v_g):
            assert inf_norm(mat @ lu_inverse(mat) - eye) <= 1e-10
        dg_inv = lu_inverse(d_g)
        v_inv = lu_inverse(v_g)
        block = dg_inv + dg_inv @ quad.C @ lu_inverse(w_g) @ quad.B @ dg_inv
        assert inf_norm(block - v_inv) <= 1e-13 * inf_norm(v_inv)


def test_pivot_threshold_scale():
    # a matrix singular to machine precision trips the n*eps*||A|| gate
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 0.25 * EPS]])
    with pytest.raises(SingularMatrix):
        lu_solve(a, np.eye(2))


def test_lu_inverse_pivot_threshold_scale():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 0.25 * EPS]])
    with pytest.raises(SingularMatrix, match="pivot"):
        lu_inverse(a)


def test_lu_inverse_roundtrip(rng):
    for n in (5, 20, 60):
        a = rng.standard_normal((n, n))
        a += np.diag(np.abs(a).sum(axis=1) + 1.0)  # diagonally dominant
        assert inf_norm(a @ lu_inverse(a) - np.eye(n)) <= 1e-12
        assert inf_norm(lu_inverse(a) @ a - np.eye(n)) <= 1e-12
