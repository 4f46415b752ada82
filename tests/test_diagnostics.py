import math

import numpy as np
import pytest

from nare import (
    assemble_blocks,
    build_problem,
    certify_m_matrix,
    convergence_order,
    default_shift,
    inf_norm,
    normalized_residual,
    quadrature_params,
    relative_residual,
    relative_update_error,
    shift_equivalence_gap,
    shifted_coefficients,
    solution_identities,
)
from nare.diagnostics import (SHIFT_STACK, classic_sweep_metrics, factor_sweep_metrics,
                              residual_matrix)
from oracles import shift_equivalence_gap_dense
from nare.si import build_kernel, si_init, si_shift_step, si_solution, si_step
from nare.sda import SdaConfig, sda_solve


def one_step_metrics(prev, cur, ab, x_rows):
    """``factor_sweep_metrics`` of one step on rank-one factors, rows [m; n]."""
    return factor_sweep_metrics(np.array([prev, cur, ab])[:, :, None], np.asarray(x_rows)[None])[0]


@pytest.fixture(scope="module")
def x32(prob32):
    quad = shifted_coefficients(prob32, default_shift(prob32, "double"))
    return sda_solve(prob32, quad, SdaConfig(tol=1e-14, max_iter=100)).x


def test_normalized_residual_exact_cases(prob1):
    assert normalized_residual(prob1, np.array([[1.0]])) == 0.0
    assert normalized_residual(prob1, np.zeros((1, 1))) == 1.0


def test_normalized_residual_zero_iterate_any_size(prob32):
    assert normalized_residual(prob32, np.zeros((32, 32))) == pytest.approx(1.0, rel=1e-12)


def test_normalized_residual_converged(prob32, x32):
    assert normalized_residual(prob32, x32) <= 1e-13


def test_relative_residual_converged(prob32, x32):
    assert relative_residual(prob32, x32) <= 1e-13
    assert relative_residual(prob32, np.zeros((32, 32))) == math.inf


def test_residual_rank_structure_identity(prob32, prob_noncrit32, rng):
    for problem in (prob32, prob_noncrit32):
        quad = problem.quad
        for _ in range(50):
            x = rng.uniform(0.0, 2.0, (problem.n, problem.n))
            direct = x @ quad.C @ x - x @ quad.D - quad.A @ x + quad.B
            packed = residual_matrix(problem, x)
            assert abs(inf_norm(packed) - inf_norm(direct)) <= 1e-12 * inf_norm(direct)
            assert np.max(np.abs(packed + direct)) <= 1e-12 * inf_norm(direct)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_residual_matrix_bitwise_equals_direct_expression(n, rng):
    # residual_matrix builds R in place; each entry takes the same rounded
    # operations in the same order as the expression it replaces
    problem = build_problem(quadrature_params(n))
    x = rng.uniform(0.0, 2.0, (n, n))
    m = x @ problem.q + problem.e
    nn = problem.q @ x + problem.e
    direct = x * problem.gamma[None, :] + problem.delta[:, None] * x - np.outer(m, nn)
    assert np.array_equal(residual_matrix(problem, x), direct)
    assert relative_residual(problem, x) == inf_norm(direct) / (2.0 * inf_norm(x))


@pytest.mark.parametrize("alpha, c", [(0.0, 1.0), (0.3, 0.9)])
def test_factor_sweep_metrics_on_classic_sweeps(alpha, c):
    # every classic sweep is monotone, so the O(n) path runs; it must return
    # exactly the update error and the one-sign row sums of R = m n^T - a b^T,
    # and agree with the generic row sums of the exact path to rounding, step
    # by step and on the one block stack that both metrics take
    problem = build_problem(quadrature_params(16, alpha, c))
    kernel = build_kernel(problem)
    state = si_init(kernel)
    states = [state]
    for _ in range(60):
        nxt = si_step(kernel, state)
        (m, n), (a, b) = nxt.mn, nxt.ab
        x_rows = m * (kernel.T @ n)
        err, res = classic_sweep_metrics(np.array([state.mn, nxt.mn, nxt.ab]), x_rows[None])[0]
        assert err == relative_update_error(zip(state.mn, nxt.mn))
        assert res == float(np.max(a * b.sum() - m * n.sum())) / (2.0 * float(x_rows.max()))
        generic = one_step_metrics(state.mn, (m, n), (a, b), x_rows)
        assert generic[0] == err
        assert generic[1] == pytest.approx(res, rel=1e-13)
        state = nxt
        states.append(state)
    sweeps = np.array([s.mn for s in states] + [state.ab])
    x_rows = np.array([s.x_rows for s in states[1:]])
    classic = classic_sweep_metrics(sweeps, x_rows)
    generic = factor_sweep_metrics(sweeps[:, :, None], x_rows)
    assert len(classic) == len(generic) == 60
    for (err, res), (g_err, g_res) in zip(classic, generic):
        assert g_err == err
        assert g_res == pytest.approx(res, rel=1e-13)


def test_classic_sweep_metrics_batch_with_falling_and_nan_steps():
    # a block of real classic sweeps, crafted so that steps 2 and 3 share a
    # fall (sweep 4 drops below sweep 3) and steps 6 and 7 read a NaN (sweep
    # 8); those steps must come from the exact path of pairs, and every other
    # step must be exactly what a batch of one gives
    problem = build_problem(quadrature_params(8, 0.3, 0.9))
    kernel = build_kernel(problem)
    state = si_init(kernel)
    rows, x_rows = [state.mn, state.ab], []
    for _ in range(8):
        state = si_step(kernel, state)
        rows.append(state.ab)
        x_rows.append(state.m * (kernel.T @ state.n))
    sweeps, x_rows = np.array(rows), np.array(x_rows)
    sweeps[4, 1, 3] = 0.5 * sweeps[3, 1, 3]
    sweeps[8, 0, 2] = np.nan
    metrics = classic_sweep_metrics(sweeps, x_rows)
    assert len(metrics) == 8
    for k, got in enumerate(metrics):
        prev, cur, ab = sweeps[k:k + 3]
        if k in (2, 3, 6, 7):
            assert not (np.diff(sweeps[k:k + 3], axis=0).min() >= 0.0)
            want = one_step_metrics(prev, cur, ab, x_rows[k])
            assert np.array_equal(got, want, equal_nan=True)
            assert math.isnan(got[1]) == (k in (6, 7))
        else:
            assert got == classic_sweep_metrics(sweeps[k:k + 3], x_rows[k:k + 1])[0]
    # rows that rise everywhere from a negative entry before the block: only step 0
    # reads that entry, so it alone comes from the exact path
    low = np.array(rows)
    low[:, 0, 2] -= 1.0
    assert low[0].min() < 0.0 <= min(low[1:].min(), np.diff(low, axis=0).min())
    metrics = classic_sweep_metrics(low, x_rows)
    assert metrics[0] == one_step_metrics(*low[:3], x_rows[0])
    assert metrics[1:] == [classic_sweep_metrics(low[k:k + 3], x_rows[k:k + 1])[0]
                           for k in range(1, 8)]


def test_factored_residual_exact_path_for_non_monotone_factors(prob8, rng):
    # factors that are not iterates: a = Xq + e falls below m in some rows,
    # so R = m n^T - a b^T has entries of both signs and the O(n) row sums
    # a_i sum(b) - m_i sum(n) would be wrong; and m falls from prev in some
    # entries, so the update error must take |m - prev|
    kernel = build_kernel(prob8)
    m, n = rng.uniform(0.5, 4.0, (2, prob8.n))
    x = si_solution(kernel, m, n)
    a, b = x @ prob8.q + 1.0, prob8.q @ x + 1.0
    assert np.any(a < m)
    dense = relative_residual(prob8, x)
    one_sign = np.max(a * b.sum() - m * n.sum()) / (2.0 * inf_norm(x))
    assert abs(one_sign - dense) > 0.1 * dense
    prev = np.array([m, n]) + rng.uniform(-1.0, 1.0, (2, prob8.n))
    assert np.any(prev > np.array([m, n]))
    err, res = classic_sweep_metrics(np.array([prev, [m, n], [a, b]]), x.sum(axis=1)[None])[0]
    assert res == pytest.approx(dense, rel=1e-12)
    assert err == relative_update_error([(prev[0], m), (prev[1], n)])
    # a step that falls everywhere: a row-max rise would be negative
    err, res = classic_sweep_metrics(np.array([2.0 * np.array([m, n]), [m, n], [a, b]]),
                                     x.sum(axis=1)[None])[0]
    assert err == relative_update_error([(2.0 * m, m), (2.0 * n, n)]) > 0.0
    assert res == pytest.approx(dense, rel=1e-12)
    # a rising step through a negative entry: max(m) is not ||m||
    cur = np.array([m, n])
    cur[0, 0] = -40.0
    prev, ab = cur - [[1.0], [0.0]], cur + 1.0
    err, res = classic_sweep_metrics(np.array([prev, cur, ab]), np.ones((1, prob8.n)))[0]
    assert err == relative_update_error(zip(prev, cur))
    r = np.outer(cur[0], cur[1]) - np.outer(ab[0], ab[1])
    assert res == pytest.approx(np.abs(r).sum(axis=1).max() / 2.0, rel=1e-13)


def test_factored_residual_of_zero_iterate_is_infinite():
    zero, one = np.zeros((2, 3)), np.ones((2, 3))
    # a zero current iterate: both metrics are infinite, on either path
    assert classic_sweep_metrics(np.array([zero, zero, one]), zero[:1]) == [(math.inf, math.inf)]
    assert one_step_metrics(zero, zero, one, zero[0]) == (math.inf, math.inf)
    # the first classic sweep is finite on the O(n) path
    err, res = classic_sweep_metrics(np.array([zero, one, 2.0 * one]), one[:1])[0]
    assert err == 1.0 and res == (2.0 * 6.0 - 3.0) / 2.0  # rows a_i sum(b) - m_i sum(n)


@pytest.mark.parametrize("n,chunks", [(512, 4), (300, 2)])
def test_factor_sweep_metrics_chunks_round_as_one_product(n, chunks, rng):
    # the residual's rows are summed SHIFT_STACK // n at a time (four even chunks at
    # n = 512, 218 rows and an 82-row tail at n = 300); each entry is still a 3-term
    # product and each row one sum, so the values are those of one product, bit for bit
    assert -(-n // (SHIFT_STACK // n)) == chunks
    sweeps = rng.uniform(0.0, 2.0, (3, 2, 2, n))
    x_rows = rng.uniform(1.0, 2.0, (1, n))
    left = np.concatenate([sweeps[1, 0], -sweeps[2, 0, -1:]]).T
    right = np.concatenate([sweeps[1, 1], sweeps[2, 1, :1]])
    row = np.abs(left[None] @ right[None]).sum(axis=2).max(axis=1)[0]
    assert factor_sweep_metrics(sweeps, x_rows)[0][1] == row / (2.0 * x_rows.max())
    sweeps[1, 0, 0, -1] = math.nan  # a NaN in the last chunk's rows
    assert math.isnan(factor_sweep_metrics(sweeps, x_rows)[0][1])
    sweeps[1] = 0.0  # zero factors
    assert factor_sweep_metrics(sweeps, x_rows)[0][0] == math.inf


@pytest.mark.parametrize("mode", ["single", "double"])
def test_factor_sweep_metrics_block_equals_steps_alone(mode, prob8):
    # a block of 16 shifted sweeps measured at once gives each step bit for bit
    # what it gives alone, and the update error is relative_update_error's
    kernel = build_kernel(prob8, default_shift(prob8, mode))
    states = [si_init(kernel)]
    for _ in range(16):
        states.append(si_shift_step(kernel, states[-1]))
    sweeps = np.array([s.mn for s in states] + [states[-1].ab])
    x_rows = np.array([s.x_rows for s in states[1:]])
    block = factor_sweep_metrics(sweeps, x_rows)
    assert len(block) == 16
    for k, (prev, cur) in enumerate(zip(states, states[1:])):
        assert block[k] == factor_sweep_metrics(sweeps[k:k + 3], x_rows[k:k + 1])[0]
        assert block[k][0] == relative_update_error(((prev.m.T, cur.m.T), (prev.n.T, cur.n.T)))
        z = kernel.T * (cur.m.T @ cur.n)
        assert block[k][1] == pytest.approx(relative_residual(prob8, z), rel=1e-12)


def test_relative_update_error_cases():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert relative_update_error([(a, a)]) == 0.0
    assert relative_update_error([(np.zeros((1, 1)), np.array([[1.0]]))]) == 1.0
    assert relative_update_error([(a, np.zeros((2, 2)))]) == math.inf
    nan = np.full((2, 2), np.nan)
    assert math.isnan(relative_update_error([(a, nan)]))
    assert math.isnan(relative_update_error([(a, a), (nan, a)]))


def test_solution_identities_scalar(prob1):
    gaps = solution_identities(prob1, np.array([[1.0]]))
    assert gaps["Xv1_minus_v2"] == 0.0
    assert gaps["u2X_plus_u1"] == 0.0
    assert gaps["symmetry_gap"] == 0.0


def test_solution_identities_converged(prob32, x32):
    gaps = solution_identities(prob32, x32)
    assert all(v <= 1e-8 for v in gaps.values())


def test_solution_identities_reject_non_solution(prob32):
    gaps = solution_identities(prob32, np.zeros((32, 32)))
    assert gaps["Xv1_minus_v2"] == 1.0  # ||0 - v2|| / ||v2||
    assert gaps["u2X_plus_u1"] == 1.0


def test_shift_equivalence_gap(prob32, x32):
    bound = 1e-10 * (1.0 + inf_norm(x32) ** 2)
    for mode in ("single", "double"):
        quad = shifted_coefficients(prob32, default_shift(prob32, mode))
        gap = shift_equivalence_gap(prob32, quad, x32)
        assert gap <= bound
        assert abs(gap - shift_equivalence_gap_dense(prob32, quad, x32)) <= bound
    # the gap has power: at X = 0 it reduces to ||Bbar - B|| which is not 0
    quad = shifted_coefficients(prob32, default_shift(prob32, "double"))
    zero = np.zeros((32, 32))
    assert shift_equivalence_gap(prob32, quad, zero) > 1e-3
    assert shift_equivalence_gap(prob32, quad, zero) == pytest.approx(
        shift_equivalence_gap_dense(prob32, quad, zero), rel=1e-12)


def test_certify_identity():
    assert certify_m_matrix(np.eye(2)).is_nonsingular_m_matrix


def test_certify_z_but_not_m():
    cert = certify_m_matrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))
    assert cert.status == "singular_or_not"
    assert cert.min_inverse_entry < 0


def test_certify_z_violation():
    cert = certify_m_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert cert.status == "z_matrix_violation"


def test_certify_critical_block_matrix(prob32):
    m_block, _ = assemble_blocks(prob32)
    assert certify_m_matrix(m_block).status == "singular_or_not"


def test_certify_shifted_block_matrix(prob32):
    quad = shifted_coefficients(prob32, default_shift(prob32, "double"))
    mbar = np.block([[quad.D, -quad.C], [-quad.B, quad.A]])
    assert certify_m_matrix(mbar).is_nonsingular_m_matrix


def test_certify_closed_loop_matrices(prob32, x32):
    quad = prob32.quad
    assert certify_m_matrix(quad.D - quad.C @ x32).status == "singular_or_not"
    sq = shifted_coefficients(prob32, default_shift(prob32, "double"))
    assert certify_m_matrix(sq.D - sq.C @ x32).is_nonsingular_m_matrix


def test_solution_report_bundle(prob32):
    quad = shifted_coefficients(prob32, default_shift(prob32, "double"))
    sol = sda_solve(prob32, quad)
    from nare import solution_report

    report = solution_report(prob32, sol, quad)
    assert report.res <= 1e-13
    assert report.err_final == sol.err_history[-1]
    assert report.m_matrix_certificates["closed_loop"] == "nonsingular_m_matrix"
    assert report.m_matrix_certificates["block_matrix"] == "nonsingular_m_matrix"
    assert "shift_equivalence_gap" in report.identity_gaps
    unshifted = solution_report(prob32, sda_solve(prob32, prob32.quad))
    # the critical block matrix itself is singular regardless of X
    assert unshifted.m_matrix_certificates["block_matrix"] == "singular_or_not"
    assert 0.3 <= unshifted.rate_estimate <= 0.7


def test_solution_report_forms_no_dense_inverse(prob32, monkeypatch):
    import nare.diagnostics as diagnostics
    import nare.linalg as linalg

    def refuse(*args):
        raise AssertionError("dense inverse formed")

    for module, name in ((diagnostics, "lu_inverse"), (linalg, "lu_inverse"),
                         (diagnostics, "certify_m_matrix")):
        monkeypatch.setattr(module, name, refuse)
    quad = shifted_coefficients(prob32, default_shift(prob32, "double"))
    report = diagnostics.solution_report(prob32, sda_solve(prob32, quad), quad)
    assert set(report.m_matrix_certificates.values()) == {"nonsingular_m_matrix"}


def test_convergence_order_geometric():
    rate, order = convergence_order([2.0 ** -k for k in range(1, 15)])
    assert rate == pytest.approx(0.5, rel=1e-12)
    assert order == pytest.approx(1.0, abs=1e-6)


def test_convergence_order_quadratic():
    errs = [10.0 ** -(2 ** k) for k in range(1, 6)]
    _, order = convergence_order(errs)
    assert order == pytest.approx(2.0, abs=1e-2)


def test_convergence_order_requires_history():
    # fewer than 4 usable entries give no estimate: (nan, nan)
    for history in ([1.0, 0.5], [0.5, 0.0, 0.0, 0.0, 0.0], [math.inf] * 8):
        assert all(math.isnan(v) for v in convergence_order(history)), history


def test_convergence_order_uses_trailing_run():
    # entries before the trailing decreasing run are ignored
    errs = [0.01, 0.02] + [2.0 ** -k for k in range(10)]
    rate, _ = convergence_order(errs)
    assert rate == pytest.approx(0.5, rel=1e-10)


def test_convergence_order_restarts_after_zero_and_nan():
    # a zero and a NaN end the run walking back; the geometric run after them counts
    errs = [0.3, 0.0, 0.2, math.nan] + [2.0 ** -k for k in range(8)]
    rate, order = convergence_order(errs)
    assert rate == pytest.approx(0.5, rel=1e-12)
    assert order == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("solver", ["sda", "si", "si-double"])
def test_stopping_metrics_looked_up_on_diagnostics(solver, prob8, monkeypatch):
    # per-layer tracing patches the metrics on the diagnostics module, so
    # the solvers must reach them through that module's attributes; the
    # vector solvers read their residual off the factors, never off X, and
    # si measures its sweeps a block at a time
    from nare import diagnostics
    from nare.cli import run_solver

    calls = {}
    for name in ("relative_residual", "factor_sweep_metrics", "relative_update_error",
                 "classic_sweep_metrics"):
        def counted(*args, _fn=getattr(diagnostics, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(diagnostics, name, counted)
    sol, _, _ = run_solver(prob8, solver, max_iter=5)
    assert sol.iterations == 5
    if solver == "sda":
        assert calls == {"relative_residual": 5, "relative_update_error": 5}
    elif solver == "si":  # one batched call measures the first block of sweeps
        assert calls == {"classic_sweep_metrics": 1}
    else:  # so does one call on the factor stacks of the first shifted block
        assert calls == {"factor_sweep_metrics": 1}
