import math
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nare import (
    NotCriticalCase,
    TransportParams,
    auto_tol,
    build_kernel,
    build_problem,
    default_shift,
    inf_norm,
    quadrature_params,
    relative_residual,
    shifted_coefficients,
    si_init,
    si_shift_step,
    si_shifted_solve,
    si_solution,
    si_solve,
    si_step,
)
from nare.cli import run_solver
from nare.linalg import EPS
from nare.sda import SdaConfig, sda_solve
from nare.shift import ShiftSpec, make_shift, omega_lower_bound
from nare.si import SWEEP_BLOCK, SiConfig, SiState


def test_kernel_scalar_case(prob1):
    kernel = build_kernel(prob1)
    assert kernel.TT.shape == (1, 1, 1)  # gamma = delta: one half, T = T^T
    assert kernel.TT[0, 0, 0] == 0.25 and np.array_equal(kernel.T, kernel.T.T)
    assert kernel.T[0, 0] == 0.25
    assert np.array_equal(kernel.scale, [prob1.q, prob1.e])
    assert np.array_equal(kernel.e21, [prob1.e, prob1.e])


def test_si_step_products_match_written_out(prob32, prob_noncrit32, rng):
    # one batched product gives T (q o b), T b and T^T (q o a); off alpha = 0 the
    # two halves of [T^T; T] differ, so a swapped half would show there; at
    # (0, 0.9) the one half T = T^T serves off the critical point
    for problem in (prob32, prob_noncrit32, build_problem(quadrature_params(32, 0.0, 0.9))):
        n, q = problem.n, problem.q
        t = 1.0 / (problem.delta[:, None] + problem.gamma[None, :])
        ab = rng.uniform(0.5, 2.0, (2, n))
        kernel = build_kernel(problem)
        assert np.all(kernel.TT > 0.0)
        nxt = si_step(kernel, SiState(np.zeros((2, n)), ab, np.zeros(n)))
        a, b = ab
        p_b = np.array([math.fsum(t[i] * q * b) for i in range(n)])
        t_b = np.array([math.fsum(t[i] * b) for i in range(n)])
        q_a = np.array([math.fsum(t[:, i] * q * a) for i in range(n)])
        assert np.array_equal(nxt.mn, ab)
        for got, want in ((nxt.ab[0], a * p_b + 1.0), (nxt.ab[1], b * q_a + 1.0),
                          (nxt.x_rows, a * t_b)):
            assert np.all(np.abs(got - want) <= 4 * n * EPS * want)


def test_kernel_transpose_relation():
    # T^T comes from the swapped sum 1/(d_i + delta_j), which rounds as the transpose
    for alpha, c in [(0.3, 0.9), (1e-4, 1.0 - 1e-4)]:
        tt = build_kernel(build_problem(quadrature_params(8, alpha, c))).TT
        assert np.array_equal(tt[0], tt[1].T)
        assert not np.array_equal(tt[0], tt[1])


@pytest.mark.parametrize("alpha, c", [(0.0, 1.0), (1e-4, 1.0 - 1e-4), (0.3, 0.9)])
def test_kernel_starts_on_a_cache_line(alpha, c):
    # the sweep's thin product ran twice as long against a T off a 64-byte line
    problem = build_problem(quadrature_params(256, alpha, c))
    dg = np.array([problem.gamma, problem.delta])
    for _ in range(4):  # fresh allocations land at different offsets
        tt = build_kernel(problem).TT
        assert tt.ctypes.data % 64 == 0 and tt.flags.c_contiguous
        assert np.array_equal(tt[0], 1.0 / (dg[0][:, None] + dg[1][None, :]))


def test_kernel_entries_scalar_recomputation(prob2):
    kernel = build_kernel(prob2)
    for i in range(2):
        for j in range(2):
            expected = 1.0 / (1.0 / prob2.omegas[i] + 1.0 / prob2.omegas[j])
            assert kernel.T[i, j] == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 32, 256, 512])
def test_critical_kernel_is_bitwise_symmetric(n, prob1, prob2):
    # the shifted sweep takes T (N o Q1) and T^T (M o Q2) from one product with T
    problem = {1: prob1, 2: prob2}.get(n) or build_problem(quadrature_params(n))
    kernel = build_kernel(problem)
    assert np.array_equal(kernel.T, kernel.T.T)
    assert kernel.TT.shape[0] == 1  # gamma = delta: the one half is T = T^T


def test_shifted_sweep_refuses_a_noncritical_problem(prob_noncrit32):
    # off (0, 1) T is not symmetric, and a hand-built spec gets past make_shift's gate
    with pytest.raises(NotCriticalCase, match="a shift requires the critical case"):
        si_shifted_solve(prob_noncrit32, ShiftSpec(0.0, 0.0, "double"))


def test_si_first_iterates(prob1):
    kernel = build_kernel(prob1)
    state = si_init(kernel)
    state = si_step(kernel, state)
    assert state.m[0] == 1.0 and state.n[0] == 1.0
    state = si_step(kernel, state)
    assert state.m[0] == 1.25 and state.n[0] == 1.25
    # monotone and bounded by the fixed point m = 2
    prev = state.m[0]
    for _ in range(200):
        state = si_step(kernel, state)
        assert prev < state.m[0] < 2.0
        prev = state.m[0]


def small_problem(n, alpha=0.0, c=1.0):
    """The n = 1, 2 fixtures of conftest, or the n-point quadrature problem."""
    if n == 1:
        return build_problem(TransportParams(
            alpha=alpha, c=c, weights=np.array([1.0]), omegas=np.array([0.5])))
    if n == 2:
        return build_problem(TransportParams(
            alpha=alpha, c=c, weights=np.array([0.5, 0.5]), omegas=np.array([0.8, 0.4])))
    return build_problem(quadrature_params(n, alpha, c))


@pytest.mark.parametrize("max_iter", [1, 15, 16, 17, 33, None])
@pytest.mark.parametrize("alpha, c", [(0.0, 1.0), (0.3, 0.9)])
@pytest.mark.parametrize("n", [1, 4, 16])
def test_si_blocks_match_per_sweep_loop(n, alpha, c, max_iter):
    # sweeps run and are measured SWEEP_BLOCK at a time, ahead of the driver;
    # the result must be that of measuring each sweep as it runs, bit for bit,
    # whether the run stops inside a block, at its end, or one sweep past it
    problem = small_problem(n, alpha, c)
    config = SiConfig() if max_iter is None else SiConfig(max_iter=max_iter)
    sol = si_solve(problem, config)
    x, errs, ress, reason = oracles.si_per_sweep_reference(
        problem, config.max_iter, auto_tol(n))
    assert np.array_equal(sol.x, x)
    assert sol.err_history == errs and sol.res_history == ress
    assert sol.stop_reason == reason


def _classic_one_sweep_at_a_time(problem, max_iter, tol):
    """``si_solve`` written out with one ``si_step`` call and one ``classic_sweep_metrics``
    call per sweep, on fresh arrays, under the "either" stop rule."""
    from nare import diagnostics, si

    kernel = build_kernel(problem)
    state, errs, ress, reason = si_init(kernel), [], [], "max_iter"
    for _ in range(max_iter):
        nxt = si.si_step(kernel, state)
        [(err, res)] = diagnostics.classic_sweep_metrics(
            np.array([state.mn, nxt.mn, nxt.ab]), nxt.x_rows[None])
        if not math.isfinite(res):
            reason = "nonfinite"
            break
        state = nxt
        errs.append(err)
        ress.append(res)
        if err < tol or res < tol:
            reason = "converged"
            break
    return si_solution(kernel, *state.mn), errs, ress, reason


@pytest.mark.parametrize("blown", [None, 17])
@pytest.mark.parametrize("max_iter", [1, 17, 33, None])
@pytest.mark.parametrize("alpha, c", [(0.0, 1.0), (0.3, 0.9)])
@pytest.mark.parametrize("n", [1, 8])
def test_si_in_place_blocks_match_one_sweep_at_a_time(n, alpha, c, max_iter, blown, monkeypatch):
    # each block of sweeps is written in place into one row stack and measured there;
    # the Solution must be that of stepping and measuring one sweep at a time, bit for
    # bit: at a cap inside a block (1, 17, 33), at a stop inside one, and when the first
    # sweep of a block (sweep 17) turns NaN
    import nare.si

    if blown:
        calls = [0]

        def nan_at_sweep(kernel, state, out=(None, None), _step=nare.si.si_step):
            nxt = _step(kernel, state, out)
            calls[0] += 1
            if calls[0] >= blown:
                nxt.ab[...] = np.nan  # in place: in a block, the row stack's row
            return nxt
        monkeypatch.setattr(nare.si, "si_step", nan_at_sweep)
    problem = small_problem(n, alpha, c)
    config = SiConfig() if max_iter is None else SiConfig(max_iter=max_iter)
    sol = si_solve(problem, config)
    if blown:
        calls[0] = 0
    x, errs, ress, reason = _classic_one_sweep_at_a_time(problem, config.max_iter, auto_tol(n))
    assert np.array_equal(sol.x, x)
    assert sol.err_history == errs and sol.res_history == ress
    assert sol.stop_reason == reason
    if blown and config.max_iter > 16:
        assert (reason, sol.iterations) == ("nonfinite", 16)
    elif max_iter is None and (alpha, c) != (0.0, 1.0):
        assert reason == "converged" and sol.iterations % 16  # a stop inside a block


@pytest.mark.parametrize("max_iter", [1, 15, 16, 17, 33, None])
@pytest.mark.parametrize("mode", ["single", "double"])
@pytest.mark.parametrize("n", [1, 2, 4, 16, 128])
def test_si_shift_blocks_match_per_sweep_loop(n, mode, max_iter):
    # shifted sweeps run and are measured a block at a time (16 up to n = 64,
    # 4 at n = 128); the result must be that of measuring each sweep as it runs
    problem = small_problem(n)
    spec = default_shift(problem, mode)
    config = SiConfig() if max_iter is None else SiConfig(max_iter=max_iter)
    sol = si_shifted_solve(problem, spec, config)
    x, errs, ress, reason = oracles.si_shift_per_sweep_reference(
        problem, spec, config.max_iter, auto_tol(n))
    assert np.array_equal(sol.x, x)
    assert sol.err_history == errs and sol.res_history == ress
    assert sol.stop_reason == reason


@pytest.mark.parametrize("max_iter, solver", [(5, "si-double"), (None, "si-double"), (5, "si")],
                         ids=["5", "None", "5-classic"])
@pytest.mark.parametrize("n", [8, 256])
def test_si_shift_block_size_rule(n, max_iter, solver, monkeypatch):
    # a block of B shifted sweeps stacks B n^2 residual entries: 16 sweeps a
    # block at n = 8, so a run of k sweeps makes ceil(k / 16) 16 of them, and
    # one at n = 256, where no sweep runs past the stop.  Classic sweeps run
    # SWEEP_BLOCK a block at every n (capped: classic si does not converge at (0, 1))
    import nare.si

    name = "si_step" if solver == "si" else "si_shift_step"
    calls = [0]

    def counted(kernel, state, out, _step=getattr(nare.si, name)):
        calls[0] += 1
        return _step(kernel, state, out)

    monkeypatch.setattr(nare.si, name, counted)
    sol, _, _ = run_solver(build_problem(quadrature_params(n)), solver, max_iter=max_iter)
    k = sol.iterations
    assert k == max_iter if max_iter else sol.converged
    size = 1 if solver == "si-double" and n == 256 else SWEEP_BLOCK
    assert calls[0] == -(-k // size) * size


@pytest.mark.parametrize("config", [SdaConfig, SiConfig])
def test_unknown_stop_rule_rejected_when_config_built(config):
    with pytest.raises(ValueError, match="stop rule must be one of"):
        config(stop_rule="x")
    assert config(stop_rule="residual").stop_rule == "residual"


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
@pytest.mark.parametrize("config", [SdaConfig, SiConfig])
def test_bad_tolerance_rejected_when_config_built(config, tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        config(tol=tol)
    assert config(tol=1e-300).tol == 1e-300 and config().tol is None


def test_si_critical_symmetry_and_bounds(prob8):
    # at alpha = 0 the kernel is the one half T = T^T, so m and n stay bitwise
    # equal; iterates sit between e and the limit vector.  (0, 0.9) is off the
    # critical point, where the unshifted doubling gives the limit
    off = build_problem(quadrature_params(8, 0.0, 0.9))
    shifted = shifted_coefficients(prob8, default_shift(prob8, "double"))
    for problem, quad in ((prob8, shifted), (off, off.quad)):
        kernel = build_kernel(problem)
        assert kernel.TT.shape[0] == 1 and np.array_equal(kernel.T, kernel.T.T)
        x_ref = sda_solve(problem, quad, SdaConfig(tol=1e-14)).x
        m_lim = x_ref @ problem.q + 1.0
        state = si_init(kernel)
        for _ in range(200):
            state = si_step(kernel, state)
            assert np.array_equal(state.m, state.n)
            assert np.all(state.m >= 1.0)
            assert np.all(state.m <= m_lim * (1 + 1e-12))


def test_si_critical_hits_iteration_cap(prob32):
    sol = si_solve(prob32, SiConfig(max_iter=500))
    assert not sol.converged
    assert sol.iterations == 500


def test_si_noncritical_converges_and_matches_sda(prob_noncrit32):
    sol = si_solve(prob_noncrit32, SiConfig(max_iter=20000))
    assert sol.converged
    ref = sda_solve(prob_noncrit32, prob_noncrit32.quad, SdaConfig(tol=1e-14))
    assert inf_norm(sol.x - ref.x) <= 1e-8 * inf_norm(ref.x)


def test_si_shifted_single_count(prob32):
    sol = si_shifted_solve(prob32, default_shift(prob32, "single"))
    assert sol.converged
    assert 155 <= sol.iterations <= 170
    assert sol.res_final <= 1e-12


def test_si_shifted_double_count(prob32):
    sol = si_shifted_solve(prob32, default_shift(prob32, "double"))
    assert sol.converged
    assert 36 <= sol.iterations <= 44
    assert sol.res_final <= 1e-12


def test_si_single_second_dual_column_vanishes(prob8):
    spec = default_shift(prob8, "single")
    kernel = build_kernel(prob8, spec)
    state = si_init(kernel)
    for _ in range(10):
        state = si_shift_step(kernel, state)
        assert np.all(state.n[1] == 0.0)


def test_zero_shift_matches_classic_iteration(prob8):
    spec = make_shift(prob8, 0.0, 0.0, "double")
    kernel, z_kernel = build_kernel(prob8), build_kernel(prob8, spec)
    z_state, v_state = si_init(z_kernel), si_init(kernel)
    for _ in range(25):
        z_state = si_shift_step(z_kernel, z_state)
        v_state = si_step(kernel, v_state)
        x_classic = si_solution(kernel, v_state.m, v_state.n)
        z = si_solution(kernel, z_state.m, z_state.n)
        assert np.max(np.abs(z - x_classic)) < 1e-13


def test_shift_dominance_small(prob8):
    spec0 = make_shift(prob8, 0.0, 0.0, "double")
    spec1 = default_shift(prob8, "single")
    spec2 = default_shift(prob8, "double")
    k0, k1, k2 = (build_kernel(prob8, s) for s in (spec0, spec1, spec2))
    s0, s1, s2 = si_init(k0), si_init(k1), si_init(k2)
    for _ in range(40):
        s0 = si_shift_step(k0, s0)
        s1 = si_shift_step(k1, s1)
        s2 = si_shift_step(k2, s2)
        z0, z1, z2 = (si_solution(k0, *s.mn) for s in (s0, s1, s2))
        slack = 1e-13 * max(1.0, inf_norm(z2))
        assert np.min(z1 - z0) >= -slack
        assert np.min(z2 - z1) >= -slack


def test_monotone_increase_random_admissible_shifts(prob8, rng):
    # strict entrywise growth holds for every admissible shift, not just
    # the default one
    from nare.shift import omega_lower_bound

    om1 = float(prob8.omegas[0])
    for _ in range(4):
        eta = rng.uniform(0.0, 1.0) / om1
        xi = rng.uniform(omega_lower_bound(eta, om1), 0.0)
        kernel = build_kernel(prob8, make_shift(prob8, eta, xi, "double"))
        state = si_init(kernel)
        prev = si_solution(kernel, *state.mn)
        for _ in range(30):
            state = si_shift_step(kernel, state)
            z = si_solution(kernel, *state.mn)
            assert np.min(z - prev) > 0.0
            prev = z


def test_monotone_increase_and_upper_bound(prob8):
    spec = default_shift(prob8, "double")
    ref = sda_solve(prob8, shifted_coefficients(prob8, spec), SdaConfig(tol=1e-14))
    kernel = build_kernel(prob8, spec)
    state = si_init(kernel)
    prev = si_solution(kernel, *state.mn)
    for _ in range(60):
        state = si_shift_step(kernel, state)
        z = si_solution(kernel, *state.mn)
        gap = inf_norm(z - ref.x)
        if gap <= 10 * 64 * 2.0 ** -52:
            break
        assert np.min(z - prev) > 0.0  # strict entrywise increase
        assert np.max(z - ref.x) <= 1e-12  # never exceeds the limit
        prev = z


def test_component_limits(prob32):
    # 300 sweeps puts the iterate at its floating-point floor (the limit
    # cycles in the last bit, so exact stationarity never happens)
    spec = default_shift(prob32, "double")
    kernel = build_kernel(prob32, spec)
    state = si_init(kernel)
    for _ in range(300):
        state = si_shift_step(kernel, state)
    x = si_solution(kernel, *state.mn)
    m1, m2 = state.m
    n1, n2 = state.n
    m_lim = x @ prob32.q + 1.0
    n_lim = x.T @ prob32.q + 1.0
    assert inf_norm(m1 - m2) <= 1e-8 * inf_norm(m_lim)
    assert inf_norm(m2 - m_lim) <= 1e-8 * inf_norm(m_lim)
    assert inf_norm(n1 - n_lim) <= 1e-8 * inf_norm(n_lim)
    assert inf_norm(n2) <= 1e-8


def test_factors_to_solution_matches_triple_loop(prob4, rng):
    kernel = build_kernel(prob4)
    m_fac = rng.uniform(0.0, 2.0, (prob4.n, 2))
    n_fac = rng.uniform(0.0, 2.0, (prob4.n, 2))
    direct = si_solution(kernel, m_fac.T, n_fac.T)
    brute = oracles.hadamard_triple_loop(kernel.T, m_fac, n_fac)
    assert np.max(np.abs(direct - brute)) < 1e-14
    assert np.array_equal(si_solution(kernel, np.zeros((2, prob4.n)), np.zeros((2, prob4.n))),
                          np.zeros((prob4.n, prob4.n)))


@pytest.mark.parametrize("n", [1, 2, 3, 31, 64, 255, 512])
def test_si_solution_of_vectors_is_bitwise_the_outer_product(n, rng):
    # the classic X takes the rank-one path of the factor-row product, a
    # one-term matmul, which must round as np.outer does
    kernel = SimpleNamespace(T=rng.uniform(0.0, 1.0, (n, n)))
    m, nv = rng.uniform(0.0, 3.0, (2, n))
    assert np.array_equal(si_solution(kernel, m, nv), kernel.T * np.outer(m, nv))


def test_scalar_shifted_limit(prob1):
    # the residual computes to an exact 0.0 already at error ~sqrt(eps)
    # (cancellation below ulp), so drive the run by the update error
    sol = si_shifted_solve(prob1, default_shift(prob1, "double"),
                           SiConfig(tol=1e-300, stop_rule="error", max_iter=300))
    assert abs(sol.x[0, 0] - 1.0) <= 1e-12


def test_si_solution_reference_loop_agreement(prob8):
    # package solver against the independent transcription of the scheme;
    # both are driven to their floating-point floor
    spec = default_shift(prob8, "double")
    sol = si_shifted_solve(prob8, spec,
                           SiConfig(tol=1e-300, stop_rule="error", max_iter=500))
    z_ref, _ = oracles.si_shifted_reference(
        0.0, 1.0, prob8.weights, prob8.omegas, spec.eta, spec.xi, max_iter=2000)
    assert inf_norm(sol.x - z_ref) <= 1e-12 * inf_norm(z_ref)


@pytest.mark.parametrize("n", [4, 32])
@pytest.mark.parametrize("solver", ["si", "si-single", "si-double"])
def test_vector_final_residual_describes_returned_iterate(solver, n):
    # si hits the cap, the shifted schemes converge; either way res_final is
    # the residual of the returned x, which the solver builds only at return
    problem = build_problem(quadrature_params(n))
    sol, _, _ = run_solver(problem, solver, max_iter=500)
    assert abs(sol.res_final - relative_residual(problem, sol.x)) <= 10 * n * EPS


@st.composite
def vector_runs(draw):
    """si anywhere in the valid (alpha, c) range, or a shifted scheme under an
    admissible single or double shift at the critical point."""
    n = draw(st.sampled_from(range(4, 33, 4)))
    mode = draw(st.sampled_from(["none", "single", "double"]))
    if mode == "none":
        alpha, c = draw(st.floats(0.0, 0.99)), draw(st.floats(0.01, 1.0))
        return build_problem(quadrature_params(n, alpha, c)), None
    problem = build_problem(quadrature_params(n))
    om1 = float(problem.omegas[0])
    eta = draw(st.floats(0.0, 1.0)) / om1
    xi = 0.0 if mode == "single" else draw(st.floats(omega_lower_bound(eta, om1), 0.0))
    return problem, make_shift(problem, eta, xi, mode)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(vector_runs())
def test_factored_residual_matches_dense_residual(run):
    problem, spec = run
    kernel = build_kernel(problem, spec)
    config = SiConfig(tol=1e-300, max_iter=40)
    if spec is None:
        sol = si_solve(problem, config)
        step = partial(si_step, kernel)
    else:
        sol = si_shifted_solve(problem, spec, config)
        step = partial(si_shift_step, kernel)
    state = si_init(kernel)
    # both metrics round at the scale of Gamma and Delta, 1/(c (1 -+ alpha))
    tol = 4 * problem.n * EPS / (problem.c * (1.0 - problem.alpha))
    for res in sol.res_history:
        state = step(state)
        assert abs(res - relative_residual(problem, si_solution(kernel, *state.mn))) <= tol


def test_shift_step_row_sums_of_z_with_negative_factor_entries(prob8, rng):
    # a negative factor entry can make Z negative somewhere; the row sums that
    # scale the residual must then be those of |Z|
    kernel = build_kernel(prob8, default_shift(prob8, "double"))
    m_fac, n_fac = rng.uniform(0.5, 2.0, (2, prob8.n, 2))
    n_fac[:, 1] *= -4.0
    state = si_shift_step(kernel, replace(si_init(kernel), ab=np.array([m_fac.T, n_fac.T])))
    z = si_solution(kernel, m_fac.T, n_fac.T)
    assert np.min(z) < 0.0
    assert state.x_rows == pytest.approx(np.abs(z).sum(axis=1), rel=1e-14)
