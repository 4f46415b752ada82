import numpy as np
import pytest

import oracles
from nare import (
    NotCriticalCase,
    ShiftOutOfRegion,
    assemble_blocks,
    build_problem,
    certify_m_matrix,
    default_shift,
    inf_norm,
    quadrature_params,
    shifted_coefficients,
    validate_shift,
)
from nare.problem import low_rank_form
from nare.shift import ShiftSpec, make_shift, omega_lower_bound


def block_of(quad):
    return np.block([[quad.D, -quad.C], [-quad.B, quad.A]])


def test_validate_boundaries(prob32):
    om1 = float(prob32.omegas[0])
    validate_shift(prob32, ShiftSpec(1 / (2 * om1), -1 / (2 * om1), "double"))
    validate_shift(prob32, ShiftSpec(1 / om1, 0.0, "single"))
    with pytest.raises(ShiftOutOfRegion):
        validate_shift(prob32, ShiftSpec(1 / om1, -0.1, "double"))
    with pytest.raises(ShiftOutOfRegion):
        validate_shift(prob32, ShiftSpec(0.5 / om1, -2.0 / om1, "double"))
    with pytest.raises(ShiftOutOfRegion):
        validate_shift(prob32, ShiftSpec(-0.1, 0.0, "single"))
    # xi = 0 is in the closed double region; the doubling needs xi < 0
    with pytest.raises(ShiftOutOfRegion):
        shifted_coefficients(prob32, ShiftSpec(0.3, 0.0, "double"))


def test_validate_relaxed_closure(prob32):
    om1 = float(prob32.omegas[0])
    validate_shift(prob32, ShiftSpec(0.0, 0.0, "double"))
    validate_shift(prob32, ShiftSpec(1 / om1, 0.0, "double"))
    validate_shift(prob32, ShiftSpec(0.5 / om1, omega_lower_bound(0.5 / om1, om1), "double"))
    with pytest.raises(ShiftOutOfRegion):
        validate_shift(prob32, ShiftSpec(1.0001 / om1, 0.0, "double"))


def test_validate_relaxed_single_keeps_xi_zero(prob32):
    # the closed single region is 0 <= eta <= 1/omega1 with xi = 0
    om1 = float(prob32.omegas[0])
    validate_shift(prob32, ShiftSpec(0.0, 0.0, "single"))
    validate_shift(prob32, ShiftSpec(1 / om1, 0.0, "single"))
    with pytest.raises(ShiftOutOfRegion, match="xi = 0"):
        validate_shift(prob32, ShiftSpec(0.5 / om1, -0.3, "single"))
    with pytest.raises(ShiftOutOfRegion):
        validate_shift(prob32, ShiftSpec(1.0001 / om1, 0.0, "single"))


def test_validate_shift_refuses_an_unknown_mode(prob8):
    with pytest.raises(ValueError, match="unknown shift mode 'triple'"):
        validate_shift(prob8, ShiftSpec(0.5, -0.5, "triple"))


def region(eta, xi, mode, om1, closed):
    """The admissible region written out: its closure, or the open region of the doubling."""
    top, lo = 1.0 / om1, omega_lower_bound(eta, om1)
    if closed:
        return 0.0 <= eta <= top and lo <= xi <= 0.0 and (mode == "double" or xi == 0.0)
    if mode == "single":
        return 0.0 < eta <= top and xi == 0.0
    return 0.0 < eta < top and lo <= xi < 0.0


def edge_points(om1):
    """(eta, xi) at and an ulp beside every edge of the region, and at signed zeros,
    NaN and infinities."""
    top, tiny, inf, nan = 1.0 / om1, 5e-324, np.inf, np.nan
    etas = [0.0, -0.0, tiny, -tiny, 0.5 / om1, top, np.nextafter(top, 0.0),
            np.nextafter(top, inf), 2.0 * top, nan, inf, -inf]
    for eta in etas:
        lo = omega_lower_bound(eta, om1)
        for xi in (0.0, -0.0, -tiny, tiny, -0.3, lo, np.nextafter(lo, -inf),
                   np.nextafter(lo, inf), nan, inf, -inf):
            yield eta, xi


@pytest.mark.parametrize("n", [8, 16, 32])
def test_edge_points_get_the_written_out_decisions(n):
    # at n = 16 and 32 (1/omega1)*omega1 rounds below 1, so the rounded lower bound at
    # eta = 1/omega1 is an ulp below 0: the doubling still refuses that edge
    problem = build_problem(quadrature_params(n))
    om1 = float(problem.omegas[0])
    for mode in ("single", "double"):
        for eta, xi in edge_points(om1):
            spec = ShiftSpec(eta, xi, mode)
            for check, closed in ((validate_shift, True), (shifted_coefficients, False)):
                try:
                    check(problem, spec)
                    accepted = True
                except ShiftOutOfRegion:
                    accepted = False
                assert accepted == region(eta, xi, mode, om1, closed), (check, spec)


def test_vector_users_accept_the_closure_the_doubling_refuses(prob8):
    from nare.si import SiConfig, si_shifted_solve
    from nare.spectra import sda_rate_bound

    om1 = float(prob8.omegas[0])
    for spec in (ShiftSpec(0.0, -0.5 / om1, "double"), ShiftSpec(0.5 / om1, 0.0, "double")):
        assert si_shifted_solve(prob8, spec, SiConfig(max_iter=3)).iterations == 3
        assert 0.0 < sda_rate_bound(prob8, spec) <= 1.0
        with pytest.raises(ShiftOutOfRegion, match="the doubling needs eta > 0"):
            shifted_coefficients(prob8, spec)


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


@pytest.mark.parametrize("mode,xi", [("single", 0.0), ("double", -0.3)])
def test_every_user_of_a_shift_checks_its_region(prob8, mode, xi):
    # make_shift checks no region; each code that uses a shift checks the one it needs
    from nare.si import si_shifted_solve
    from nare.spectra import sda_rate_bound, shifted_interlaced_spectrum

    bad = ShiftSpec(eta=5.0, xi=xi, mode=mode)  # eta above 1/omega1 = 1.036
    assert make_shift(prob8, 5.0, xi, mode) == bad
    for use in (shifted_coefficients, si_shifted_solve, shifted_interlaced_spectrum,
                sda_rate_bound):
        with pytest.raises(ShiftOutOfRegion, match="1/omega1; eta = 5.0"):
            use(prob8, bad)


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
    v1, v2, _, _, r1, r2, _, _ = oracles.critical_null_vectors(prob32)
    v, r = np.concatenate([v1, v2]), np.concatenate([r1, r2])
    _, h_block = assemble_blocks(prob32)
    h_hat = h_block + spec.eta * np.outer(v, r)
    assert inf_norm(h_hat @ v - spec.eta * v) <= 1e-12 * inf_norm(v)


def test_low_rank_factors_zero_shift(prob8):
    spec = make_shift(prob8, 0.0, 0.0, "double")
    form = low_rank_form(prob8, spec.eta, spec.xi)
    q1, q2, e1, e2 = form.q1, form.q2, form.e1, form.e2
    assert np.array_equal(q1[:, 0], prob8.q) and np.array_equal(q1[:, 1], prob8.q)
    assert np.all(q2[:, 1] == 0.0) and np.all(e1[:, 1] == 0.0)
    quad = prob8.quad
    assert np.max(np.abs(np.diag(prob8.gamma) - q1 @ e1.T - quad.D)) < 1e-14
    assert np.max(np.abs(q1 @ q2.T - quad.C)) < 1e-14
    assert np.max(np.abs(e2 @ e1.T - quad.B)) < 1e-14
    assert np.max(np.abs(np.diag(prob8.delta) - e2 @ q2.T - quad.A)) < 1e-14


def test_low_rank_factors_n1(prob1):
    spec = default_shift(prob1, "double")
    form = low_rank_form(prob1, spec.eta, spec.xi)
    q1, q2, e1, e2 = form.q1, form.q2, form.e1, form.e2
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
        shifted_coefficients(prob32, ShiftSpec(eta, xi, "double"))
        assert eta * xi >= cap - 1e-15


def test_low_rank_factors_reconstruct(prob32, rng):
    om1 = float(prob32.omegas[0])
    for _ in range(5):
        eta = rng.uniform(0.0, 1.0) / om1
        xi = rng.uniform(omega_lower_bound(eta, om1), 0.0)
        spec = make_shift(prob32, eta, xi, "double")
        a, b, c, d = oracles.shifted_quadruple_by_eigenvectors(prob32, eta, xi)
        form = low_rank_form(prob32, spec.eta, spec.xi)
        q1, q2, e1, e2 = form.q1, form.q2, form.e1, form.e2
        assert np.max(np.abs(np.diag(prob32.gamma) - q1 @ e1.T - d)) < 1e-13
        assert np.max(np.abs(q1 @ q2.T - c)) < 1e-13
        assert np.max(np.abs(e2 @ e1.T - b)) < 1e-13
        assert np.max(np.abs(np.diag(prob32.delta) - e2 @ q2.T - a)) < 1e-13
        quad = shifted_coefficients(prob32, spec, check=False)
        for mine, ref in zip((quad.A, quad.B, quad.C, quad.D), (a, b, c, d)):
            assert np.max(np.abs(mine - ref)) < 1e-13
