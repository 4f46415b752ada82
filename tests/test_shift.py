import numpy as np
import pytest

import oracles
from nare import (
    NotCriticalCase,
    ShiftOutOfRegion,
    assemble_blocks,
    certify_m_matrix,
    critical_eigenvectors,
    default_shift,
    inf_norm,
    low_rank_factors,
    shifted_coefficients,
    validate_shift,
)
from nare.shift import ShiftSpec, make_shift, omega_lower_bound


def block_of(quad):
    return np.block([[quad.D, -quad.C], [-quad.B, quad.A]])


def test_validate_boundaries(prob32):
    om1 = float(prob32.omegas[0])
    validate_shift(1 / (2 * om1), -1 / (2 * om1), "double", om1)
    validate_shift(1 / om1, 0.0, "single", om1)
    with pytest.raises(ShiftOutOfRegion):
        validate_shift(1 / om1, -0.1, "double", om1)
    with pytest.raises(ShiftOutOfRegion):
        validate_shift(0.5 / om1, -2.0 / om1, "double", om1)
    with pytest.raises(ShiftOutOfRegion):
        validate_shift(-0.1, 0.0, "single", om1)
    with pytest.raises(ShiftOutOfRegion):
        validate_shift(0.3, 0.0, "double", om1)


def test_validate_relaxed_closure(prob32):
    om1 = float(prob32.omegas[0])
    validate_shift(0.0, 0.0, "double", om1, relaxed=True)
    validate_shift(1 / om1, 0.0, "double", om1, relaxed=True)
    validate_shift(0.5 / om1, omega_lower_bound(0.5 / om1, om1), "double", om1,
                   relaxed=True)
    with pytest.raises(ShiftOutOfRegion):
        validate_shift(1.0001 / om1, 0.0, "double", om1, relaxed=True)


def test_validate_relaxed_single_keeps_xi_zero(prob32):
    # the relaxed single region is 0 <= eta <= 1/omega1 with xi = 0
    om1 = float(prob32.omegas[0])
    validate_shift(0.0, 0.0, "single", om1, relaxed=True)
    validate_shift(1 / om1, 0.0, "single", om1, relaxed=True)
    with pytest.raises(ShiftOutOfRegion, match="xi = 0"):
        validate_shift(0.5 / om1, -0.3, "single", om1, relaxed=True)
    with pytest.raises(ShiftOutOfRegion):
        validate_shift(1.0001 / om1, 0.0, "single", om1, relaxed=True)


def test_default_shift_n1(prob1):
    single = default_shift(prob1, "single")
    assert (single.eta, single.xi) == (1.0, 0.0)
    double = default_shift(prob1, "double")
    assert (double.eta, double.xi) == (1.0, -1.0)
    assert double.eta * double.xi == -1.0  # saturates -1/(4 om1^2)


def test_default_shift_noncritical(prob_noncrit32):
    with pytest.raises(NotCriticalCase):
        default_shift(prob_noncrit32, "single")


def test_single_shift_coefficients_n1(prob1):
    quad = shifted_coefficients(prob1, default_shift(prob1, "single"))
    assert quad.D[0, 0] == 1.5
    assert quad.C[0, 0] == 0.5
    assert quad.B[0, 0] == 1.5
    assert quad.A[0, 0] == 0.5
    eigs = np.sort(np.linalg.eigvals(block_of(quad)).real)
    assert np.allclose(eigs, [0.0, 2.0], atol=1e-14)
    assert quad.tag == "single-shift"


def test_double_shift_coefficients_n1(prob1):
    quad = shifted_coefficients(prob1, default_shift(prob1, "double"))
    assert quad.D[0, 0] == 1.0
    assert quad.C[0, 0] == 0.0  # boundary shift zeroes this entry exactly
    assert quad.B[0, 0] == 2.0
    assert quad.A[0, 0] == 1.0
    mbar = block_of(quad)
    # independent nonsingular M-matrix check: Mbar x = 1 with x > 0
    x = np.linalg.solve(mbar, np.ones(2))
    assert np.all(x > 0)
    assert certify_m_matrix(mbar).is_nonsingular_m_matrix


def test_zmatrix_boundary_single(prob32):
    om1 = float(prob32.omegas[0])
    at_edge = ShiftSpec(eta=1 / om1, xi=0.0, mode="single")
    over_edge = ShiftSpec(eta=1.0001 / om1, xi=0.0, mode="single")
    m_at = block_of(shifted_coefficients(prob32, at_edge, check=False))
    m_over = block_of(shifted_coefficients(prob32, over_edge, check=False))
    assert certify_m_matrix(m_at).status != "z_matrix_violation"
    assert certify_m_matrix(m_over).status == "z_matrix_violation"


def test_zmatrix_boundary_double(prob32):
    om1 = float(prob32.omegas[0])
    eta = 1 / (2 * om1)
    xi_edge = omega_lower_bound(eta, om1)
    at_edge = ShiftSpec(eta=eta, xi=xi_edge, mode="double")
    over_edge = ShiftSpec(eta=eta, xi=1.01 * xi_edge, mode="double")
    m_at = block_of(shifted_coefficients(prob32, at_edge, check=False))
    m_over = block_of(shifted_coefficients(prob32, over_edge, check=False))
    assert certify_m_matrix(m_at).status != "z_matrix_violation"
    assert certify_m_matrix(m_over).status == "z_matrix_violation"


def test_out_of_region_rejected_by_default(prob32):
    om1 = float(prob32.omegas[0])
    bad = ShiftSpec(eta=1.5 / om1, xi=0.0, mode="single")
    with pytest.raises(ShiftOutOfRegion):
        shifted_coefficients(prob32, bad)


def test_spectrum_preserved_by_single_shift(prob8):
    # determinant sign patterns of M and Mhat agree on a dense grid
    m_block, _ = assemble_blocks(prob8)
    m_hat = block_of(shifted_coefficients(prob8, default_shift(prob8, "single")))
    eye = np.eye(2 * prob8.n)
    top = 1.05 / prob8.omegas.min()
    for lam in np.linspace(-0.5, top, 1000):
        assert oracles.det_sign(m_block - lam * eye) == \
            oracles.det_sign(m_hat - lam * eye)


def test_single_shift_relocates_null_vector(prob32):
    spec = default_shift(prob32, "single")
    vec = critical_eigenvectors(prob32)
    _, h_block = assemble_blocks(prob32)
    h_hat = h_block + spec.eta * np.outer(vec.v, vec.r)
    v = vec.v
    assert inf_norm(h_hat @ v - spec.eta * v) <= 1e-12 * inf_norm(v)


def test_low_rank_factors_zero_shift(prob8):
    spec = make_shift(prob8, 0.0, 0.0, "double", relaxed=True)
    q1, q2, e1, e2 = low_rank_factors(prob8, spec)
    assert np.array_equal(q1[:, 0], prob8.q) and np.array_equal(q1[:, 1], prob8.q)
    assert np.all(q2[:, 1] == 0.0) and np.all(e1[:, 1] == 0.0)
    quad = prob8.quad
    assert np.max(np.abs(np.diag(prob8.gamma) - q1 @ e1.T - quad.D)) < 1e-14
    assert np.max(np.abs(q1 @ q2.T - quad.C)) < 1e-14
    assert np.max(np.abs(e2 @ e1.T - quad.B)) < 1e-14
    assert np.max(np.abs(np.diag(prob8.delta) - e2 @ q2.T - quad.A)) < 1e-14


def test_low_rank_factors_n1(prob1):
    spec = default_shift(prob1, "double")
    q1, q2, e1, e2 = low_rank_factors(prob1, spec)
    assert np.allclose(q1, [[0.5, 1.0]], atol=0)
    assert np.allclose(q2, [[1.0, -0.5]], atol=0)
    assert np.allclose(e1, [[1.0, 0.5]], atol=0)
    assert np.allclose(e2, [[1.5, 1.0]], atol=0)


def test_admissible_region_implies_product_bound(prob32, rng):
    # every admissible double shift satisfies eta*xi >= -1/(4 omega_1^2)
    om1 = float(prob32.omegas[0])
    cap = -1.0 / (4.0 * om1 ** 2)
    for _ in range(200):
        eta = rng.uniform(1e-6, 1.0 - 1e-6) / om1
        xi = rng.uniform(omega_lower_bound(eta, om1), -1e-9)
        validate_shift(eta, xi, "double", om1)
        assert eta * xi >= cap - 1e-15


def test_low_rank_factors_reconstruct(prob32, rng):
    om1 = float(prob32.omegas[0])
    for _ in range(5):
        eta = rng.uniform(0.0, 1.0) / om1
        xi = rng.uniform(omega_lower_bound(eta, om1), 0.0)
        spec = make_shift(prob32, eta, xi, "double", relaxed=True)
        a, b, c, d = oracles.shifted_quadruple_by_eigenvectors(prob32, eta, xi)
        q1, q2, e1, e2 = low_rank_factors(prob32, spec)
        assert np.max(np.abs(np.diag(prob32.gamma) - q1 @ e1.T - d)) < 1e-13
        assert np.max(np.abs(q1 @ q2.T - c)) < 1e-13
        assert np.max(np.abs(e2 @ e1.T - b)) < 1e-13
        assert np.max(np.abs(np.diag(prob32.delta) - e2 @ q2.T - a)) < 1e-13
        quad = shifted_coefficients(prob32, spec, check=False)
        for mine, ref in zip((quad.A, quad.B, quad.C, quad.D), (a, b, c, d)):
            assert np.max(np.abs(mine - ref)) < 1e-13
