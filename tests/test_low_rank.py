"""One low-rank form for every quadruple, and the O(n^2) report built on it.

The assembly must reproduce the written-out dense quadruples bit for bit, and
the certificates of ``solution_report`` must read what the dense
``certify_m_matrix`` reads on the same matrices, for every solver's X and at
the edges of the shift region.
"""

import numpy as np
import pytest

from oracles import original_quadruple_dense, shifted_quadruple_dense
from nare import (
    Solution,
    SdaConfig,
    TransportParams,
    build_problem,
    certify_m_matrix,
    default_shift,
    quadrature_params,
    sda_solve,
    shifted_coefficients,
    solution_report,
)
from nare.cli import SOLVERS, run_solver
from nare.diagnostics import _certify_low_rank
from nare.problem import block_matrix
from nare.sda import resolve_gamma
from nare.shift import ShiftSpec, make_shift, omega_lower_bound

POINTS = ((0.0, 1.0), (0.3, 0.9), (1e-6, 1.0 - 1e-6))


def small_problem(n, alpha, c):
    """The n = 1, 2 fixture directions, or the Gauss-Legendre set, at (alpha, c)."""
    if n > 2:
        return build_problem(quadrature_params(n, alpha, c))
    weights, omegas = ([1.0], [0.5]) if n == 1 else ([0.5, 0.5], [0.8, 0.4])
    return build_problem(TransportParams(alpha, c, np.array(weights), np.array(omegas)))


def dense_statuses(quad, x):
    return {"closed_loop": certify_m_matrix(quad.D - quad.C @ x).status,
            "block_matrix": certify_m_matrix(block_matrix(quad)).status}


@pytest.mark.parametrize("alpha, c", ((0.0, 1.0), (0.3, 0.9), (0.5, 0.5)))
@pytest.mark.parametrize("n", (1, 4, 32, 256))
def test_quadruples_equal_the_written_out_formulas(n, alpha, c):
    problem = small_problem(n, alpha, c)
    quad = problem.quad
    assert quad.tag == "original" and quad.n == n
    for got, want in zip((quad.A, quad.B, quad.C, quad.D), original_quadruple_dense(problem)):
        assert np.array_equal(got, want)
    half = 1.0 / (2.0 * float(problem.omegas[0]))
    for spec in (ShiftSpec(half, 0.0, "single"), ShiftSpec(half, -half, "double")):
        quad = shifted_coefficients(problem, spec, check=False)
        want = shifted_quadruple_dense(problem, spec.eta, spec.xi)
        for got, ref in zip((quad.A, quad.B, quad.C, quad.D), want):
            assert np.array_equal(got, ref), spec


@pytest.mark.parametrize("alpha, c", ((0.0, 1.0), (0.3, 0.9), (0.5, 0.5), (1e-6, 1.0 - 1e-6)))
@pytest.mark.parametrize("n", (1, 4, 32))
def test_gamma_bound_from_factors_is_the_dense_diagonal_bound(n, alpha, c):
    problem = small_problem(n, alpha, c)
    half = 1.0 / (2.0 * float(problem.omegas[0]))
    for spec in (None, ShiftSpec(half, 0.0, "single"), ShiftSpec(half, -half, "double")):
        quad = problem.quad if spec is None else shifted_coefficients(problem, spec, check=False)
        dense = max(float(np.max(np.diag(quad.A))), float(np.max(np.diag(quad.D))))
        assert resolve_gamma(quad, SdaConfig()) == dense, spec


@pytest.mark.parametrize("alpha, c", POINTS)
@pytest.mark.parametrize("n", (1, 2, 8, 64))
def test_report_certificates_match_dense(n, alpha, c):
    problem = small_problem(n, alpha, c)
    blocks = set()
    for solver in SOLVERS if problem.is_critical else ("sda", "si"):
        sol, spec, _ = run_solver(problem, solver)
        quad = problem.quad if spec is None else shifted_coefficients(problem, spec)
        report = solution_report(problem, sol, None if spec is None else quad)
        assert report.m_matrix_certificates == dense_statuses(quad, sol.x), solver
        blocks.add(report.m_matrix_certificates["block_matrix"])
    # the unshifted critical block is singular; the double shift makes it an M-matrix
    expected = {"singular_or_not", "nonsingular_m_matrix"}
    assert blocks == (expected if problem.is_critical else {"nonsingular_m_matrix"})


@pytest.mark.parametrize("n", (8, 32))
def test_report_certificates_match_dense_at_region_edges(n):
    problem = small_problem(n, 0.0, 1.0)
    om1 = float(problem.omegas[0])
    x = sda_solve(problem, shifted_coefficients(problem, default_shift(problem, "double")),
                  SdaConfig(tol=1e-14, max_iter=100)).x
    eta = 1 / (2 * om1)
    xi_edge = omega_lower_bound(eta, om1)
    specs = [ShiftSpec(1 / om1, 0.0, "single"), ShiftSpec(1.0001 / om1, 0.0, "single"),
             ShiftSpec(eta, xi_edge, "double"), ShiftSpec(eta, 1.01 * xi_edge, "double"),
             make_shift(problem, 0.0, 0.0, "double"),
             make_shift(problem, 0.0, -1 / om1, "double")]
    rng = np.random.default_rng(9)
    for _ in range(5):
        eta_i = rng.uniform(0.05, 0.95) / om1
        xi_i = rng.uniform(omega_lower_bound(eta_i, om1) * 0.999, -1e-6)
        specs.append(ShiftSpec(eta_i, max(xi_i, omega_lower_bound(eta_i, om1)), "double"))
    solved = Solution(x, None, "sda", "converged")
    statuses = set()
    for spec in specs:
        quad = shifted_coefficients(problem, spec, check=False)
        report = solution_report(problem, solved, quad)
        assert report.m_matrix_certificates == dense_statuses(quad, x), spec
        statuses.add(report.m_matrix_certificates["block_matrix"])
    assert statuses == {"nonsingular_m_matrix", "singular_or_not", "z_matrix_violation"}
    # the accurate X makes the unshifted closed loop singular to working precision
    unshifted = solution_report(problem, solved).m_matrix_certificates
    assert unshifted == dense_statuses(problem.quad, x)
    assert unshifted["closed_loop"] == "singular_or_not"
    # an eta = 0 vector solve, in the closed region the doubling refuses
    sol, spec, _ = run_solver(problem, "si-double", eta=0.0)
    quad = shifted_coefficients(problem, spec, check=False)
    report = solution_report(problem, sol, quad)
    assert report.m_matrix_certificates == dense_statuses(quad, sol.x)


def test_factored_certificate_matches_dense_on_random_matrices(rng):
    counts = {}
    for _ in range(300):
        n, r = int(rng.integers(1, 7)), int(rng.integers(1, 3))
        dg = rng.uniform(0.5, 2.0, n)
        u = rng.uniform(-0.2, 1.0, (n, r))
        v = rng.uniform(-0.2, 1.0, (n, r)) * rng.uniform(0.0, 1.5 / n)
        cert = _certify_low_rank(dg, u, v)
        dense = certify_m_matrix(np.diag(dg) - u @ v.T)
        assert cert.status == dense.status, (dg, u, v)
        assert cert.worst_offdiag == pytest.approx(dense.worst_offdiag, rel=1e-12, abs=1e-15)
        counts[cert.status] = counts.get(cert.status, 0) + 1
    assert len(counts) == 3, counts
