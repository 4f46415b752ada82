import gc

import numpy as np
import pytest

import oracles
from nare import (
    InvalidParams,
    InvalidSize,
    NotCriticalCase,
    TransportParams,
    TransportProblem,
    assemble_blocks,
    build_problem,
    gauss_legendre_composite,
    inf_norm,
    quadrature_params,
)
from nare.cli import SOLVERS, run_solver
from nare.problem import require_critical
from nare.shift import make_shift

# frozen from the bisection-on-recurrence oracle (tests below re-derive them)
GL4_NODES_01 = np.array([0.0694318442029737, 0.3300094782075719,
                         0.6699905217924281, 0.9305681557970263])
GL4_WEIGHTS_01 = np.array([0.1739274225687269, 0.3260725774312731,
                           0.3260725774312731, 0.1739274225687269])


def test_gl4_against_bisection_oracle():
    roots, weights = oracles.gauss_legendre_bisect(4)
    nodes01 = (roots + 1.0) / 2.0
    w01 = weights / 2.0
    assert np.all(np.abs(nodes01 - GL4_NODES_01) < 1e-12)
    assert np.all(np.abs(w01 - GL4_WEIGHTS_01) < 1e-12)


def test_composite_n4_matches_frozen_values():
    weights, nodes = gauss_legendre_composite(4)
    assert np.all(np.abs(nodes - GL4_NODES_01[::-1]) < 1e-12)
    assert np.all(np.abs(weights - GL4_WEIGHTS_01[::-1]) < 1e-12)


@pytest.mark.parametrize("n", [4, 8, 32, 64, 256])
def test_composite_weights_sum_to_one(n):
    weights, nodes = gauss_legendre_composite(n)
    assert abs(weights.sum() - 1.0) < 1e-14
    assert np.all(np.diff(nodes) < 0)
    assert 0 < nodes[-1] and nodes[0] < 1


@pytest.mark.parametrize("bad", [6, 0, -4, 3])
def test_composite_rejects_bad_sizes(bad):
    with pytest.raises(InvalidSize):
        gauss_legendre_composite(bad)


@pytest.mark.parametrize("n", [4, 16])
def test_composite_degree_seven_exactness(n):
    weights, nodes = gauss_legendre_composite(n)
    for k in range(8):
        quad = float(np.sum(weights * nodes ** k))
        assert abs(quad - 1.0 / (k + 1)) < 1e-13


def test_build_n1_critical(prob1):
    assert prob1.q[0] == 1.0
    assert prob1.delta[0] == 2.0
    assert prob1.gamma[0] == 2.0
    for mat in (prob1.quad.A, prob1.quad.B, prob1.quad.C, prob1.quad.D):
        assert mat.shape == (1, 1) and mat[0, 0] == 1.0


def test_critical_sum_identity(prob32):
    total = prob32.q @ (prob32.e / prob32.gamma) + prob32.e @ (prob32.q / prob32.delta)
    assert abs(total - 1.0) < 1e-12


def test_noncritical_vectors_scalar_recomputation():
    params = quadrature_params(4, alpha=0.5, c=0.5)
    problem = build_problem(params)
    # a problem is its parameters plus its vectors
    assert isinstance(problem, TransportParams)
    assert (problem.alpha, problem.c) == (params.alpha, params.c)
    assert problem.weights is params.weights and problem.omegas is params.omegas
    q, delta, d = oracles.transport_arrays(0.5, 0.5, problem.weights,
                                           problem.omegas)
    assert np.all(np.abs(problem.delta - delta) < 1e-14 * np.abs(delta))
    assert np.all(np.abs(problem.gamma - d) < 1e-14 * np.abs(d))
    assert np.all(np.abs(problem.q - q) == 0.0)


@pytest.mark.parametrize("kwargs", [
    dict(alpha=-0.1, c=1.0),
    dict(alpha=1.0, c=1.0),
    dict(alpha=0.0, c=0.0),
    dict(alpha=0.0, c=1.5),
])
def test_invalid_alpha_c(kwargs):
    with pytest.raises(InvalidParams):
        build_problem(TransportParams(weights=np.array([1.0]),
                                      omegas=np.array([0.5]), **kwargs))


def test_non_finite_inputs_rejected():
    with pytest.raises(InvalidParams):
        build_problem(TransportParams(0.0, 1.0, np.array([np.nan, 0.5]),
                                      np.array([0.8, 0.4])))
    with pytest.raises(InvalidParams):
        build_problem(TransportParams(0.0, 1.0, np.array([0.5, 0.5]),
                                      np.array([np.inf, 0.4])))


@pytest.mark.parametrize("weights, omegas", [
    ([0.5, 0.5], np.array([0.8, 0.4])),
    (np.array([0.5, 0.5]), [0.8, 0.4]),
    ([0.5, 0.5], [0.8, 0.4]),
])
def test_non_array_inputs_are_invalid_params(weights, omegas):
    with pytest.raises(InvalidParams, match="1-D numpy arrays"):
        build_problem(TransportParams(0.0, 1.0, weights, omegas))


@pytest.mark.parametrize("c", [1e-310, 5e-324])
def test_subnormal_c_is_refused_without_a_warning(c):
    # 1/(c omega) overflows at 1e-310 and divides by zero at 5e-324; the test
    # configuration turns the RuntimeWarning either would raise into an error
    with pytest.raises(InvalidParams, match="Gamma or Delta not finite"):
        build_problem(quadrature_params(8, 0.0, c))


def test_invalid_weights_and_nodes():
    with pytest.raises(InvalidParams):
        build_problem(TransportParams(0.0, 1.0, np.array([0.6, 0.6]),
                                      np.array([0.8, 0.4])))
    with pytest.raises(InvalidParams):
        build_problem(TransportParams(0.0, 1.0, np.array([0.5, 0.5]),
                                      np.array([0.4, 0.8])))
    with pytest.raises(InvalidParams):
        build_problem(TransportParams(0.0, 1.0, np.array([0.5, 0.5]),
                                      np.array([1.2, 0.4])))
    with pytest.raises(InvalidParams):
        build_problem(TransportParams(0.0, 1.0, np.array([0.5, -0.5]),
                                      np.array([0.8, 0.4])))


def test_assemble_blocks_n1(prob1):
    m_block, h_block = assemble_blocks(prob1)
    assert np.array_equal(m_block, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(h_block, [[1.0, -1.0], [1.0, -1.0]])
    eigs = np.sort(np.linalg.eigvals(m_block).real)
    assert np.allclose(eigs, [0.0, 2.0], atol=1e-14)


def test_h_block_is_m_with_negated_bottom(prob8):
    m_block, h_block = assemble_blocks(prob8)
    n = prob8.n
    assert np.array_equal(h_block[:n], m_block[:n])
    assert np.array_equal(h_block[n:], -m_block[n:])


def test_critical_eigenvectors_identities(prob32):
    v1, v2, u1, u2, r1, r2, s1, s2 = oracles.critical_null_vectors(prob32)
    v, u = np.concatenate([v1, v2]), np.concatenate([u1, u2])
    r, s = np.concatenate([r1, r2]), np.concatenate([s1, s2])
    m_block, h_block = assemble_blocks(prob32)
    scale = inf_norm(h_block)
    assert inf_norm(h_block @ v) <= 1e-12 * scale
    assert inf_norm(u @ h_block) <= 1e-12 * scale
    assert abs(r @ v - 1.0) < 1e-12
    assert abs(s @ u - 1.0) < 1e-12
    assert abs(u1 @ v1 + u2 @ v2) < 1e-12
    # null vectors of M itself: M v = 0 and (u^T J) M = 0
    uj = np.concatenate([u1, -u2])
    assert inf_norm(m_block @ v) <= 1e-12 * scale
    assert inf_norm(uj @ m_block) <= 1e-12 * scale


def test_not_critical_case():
    problem = build_problem(TransportParams(0.001, 1.0, np.array([1.0]),
                                            np.array([0.5])))
    with pytest.raises(NotCriticalCase, match=r"critical case \(alpha, c\) = \(0, 1\)"):
        require_critical(problem, "a shift")
    with pytest.raises(NotCriticalCase):
        make_shift(problem, None, None, "single")


def test_noncritical_m_is_nonsingular_m_matrix(prob_noncrit32):
    # M-matrix characterization: M x = 1 has a positive solution
    m_block, _ = assemble_blocks(prob_noncrit32)
    x = np.linalg.solve(m_block, np.ones(2 * prob_noncrit32.n))
    assert np.all(x > 0)


def test_build_and_solve_leave_no_reference_cycle(monkeypatch):
    # a problem holds only its vectors, so refcounting frees every nare
    # object of a build and a solve; none is left to the cyclic collector
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for solver in SOLVERS:
            run_solver(build_problem(quadrature_params(8)), solver, max_iter=200)
        gc.collect()
        cyclic = [type(obj).__qualname__ for obj in gc.garbage
                  if type(obj).__module__.startswith("nare")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert cyclic == []

    # the vector solvers and the shifted doubling never build the dense quadruple
    def no_quad(self):
        raise AssertionError("dense original quadruple built")

    monkeypatch.setattr(TransportProblem, "quad", property(no_quad))
    problem = build_problem(quadrature_params(8))
    for solver in ("si", "si-single", "si-double", "sda-single", "sda-double"):
        sol, _, _ = run_solver(problem, solver, max_iter=200)
        assert sol.iterations > 0
