import numpy as np
import pytest

from nare import (
    Breakdown,
    SingularMatrix,
    TransportParams,
    build_problem,
    default_shift,
    inf_norm,
    make_shift,
    quadrature_params,
    relative_residual,
    relative_update_error,
    shifted_coefficients,
)
from nare.problem import CoefficientQuadruple
from nare.sda import SdaConfig, SdaState, resolve_gamma, sda_init, sda_solve, sda_step
from oracles import critical_null_vectors, sda_init_reference, sda_step_reference


def test_init_scalar_case(prob1):
    state = sda_init(prob1.quad)
    assert state.E[0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert state.F[0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert state.G[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert state.H[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_init_auto_gamma_matches_explicit(prob1):
    assert resolve_gamma(prob1.quad) == 1.0


def test_init_nonnegative_coupling(prob32):
    state = sda_init(prob32.quad)
    assert np.min(state.G) >= 0.0
    assert np.min(state.H) >= 0.0


def factor_quadruple(gamma, delta):
    """The 2 x 2 quadruple diag(delta), 0, 0, diag(gamma): zero factors."""
    zero = np.zeros((2, 2))
    return CoefficientQuadruple(np.full(2, gamma), np.full(2, delta), zero, zero, zero, zero)


def test_init_degenerate_raises():
    quad = factor_quadruple(-1.0, 1.0)  # D + gamma I = 0 at the bound gamma = 1
    with pytest.raises(SingularMatrix, match="zero diagonal"):
        sda_init(quad)


def test_init_singular_shifted_d_raises_through_pivot_gate():
    # d = Gamma + gamma = 2 > 0, but D + gamma I = diag(2, 2) - Q1 E1^T = [[1, -1], [-1, 1]]
    rank_one = np.array([[1.0, 0.0], [1.0, 0.0]])
    zero = np.zeros((2, 2))
    quad = CoefficientQuadruple(np.ones(2), np.ones(2), rank_one, zero, rank_one, zero)
    assert np.linalg.det(quad.D + np.eye(2)) == 0.0
    with pytest.raises(SingularMatrix, match="pivot .* below threshold"):
        sda_init(quad)


def test_init_singular_schur_complement_raises_through_pivot_gate():
    # D + gamma I = 2 I is regular; W_gamma = A + gamma I = [[1, -1], [-1, 1]] is not
    rank_one = np.array([[1.0, 0.0], [1.0, 0.0]])
    zero = np.zeros((2, 2))
    quad = CoefficientQuadruple(np.ones(2), np.ones(2), zero, rank_one, zero, rank_one)
    w_gamma = quad.A + np.eye(2) - quad.B @ np.linalg.solve(quad.D + np.eye(2), quad.C)
    assert np.linalg.det(w_gamma) == 0.0
    with pytest.raises(SingularMatrix, match="pivot .* below threshold"):
        sda_init(quad)


def test_step_scalar_recurrence(prob1):
    state = sda_step(sda_init(prob1.quad))
    # 2/3 + (-1/3)(1 - 4/9)^-1 (2/3)(-1/3) = 0.8
    assert state.H[0, 0] == pytest.approx(0.8, abs=1e-15)
    assert state.k == 1


def test_step_zero_coupling():
    e = np.array([[0.5, 0.1], [0.0, 0.25]])
    f = np.array([[0.3, 0.0], [0.2, 0.4]])
    zero = np.zeros((2, 2))
    state = SdaState(E=e, F=f, GH=np.zeros((2, 2, 2)))
    nxt = sda_step(state)
    assert np.allclose(nxt.E, e @ e, atol=1e-15)
    assert np.allclose(nxt.F, f @ f, atol=1e-15)
    assert np.array_equal(nxt.G, zero)
    assert np.array_equal(nxt.H, zero)


def test_step_breakdown():
    eye = np.eye(2)
    state = SdaState(E=eye, F=eye, GH=np.array([eye, eye]))
    with pytest.raises(Breakdown):
        sda_step(state)


def test_step_breakdown_through_pivot_gate():
    # I - GH = diag(0, 0.75) is singular but not zero: the pivot gate trips
    eye = np.eye(2)
    g = np.diag([1.0, 0.5])
    state = SdaState(E=eye, F=eye, GH=np.array([g, g]), k=3)
    with pytest.raises(Breakdown, match="I - GH singular at step 3: pivot") as info:
        sda_step(state)
    assert info.value.iteration == 3
    assert isinstance(info.value.__cause__, SingularMatrix)


def _rel_gap(x, ref):
    return inf_norm(x - ref) / inf_norm(ref)


@pytest.fixture(scope="module", params=["original", "single", "double", "alpha-c-half"])
def quad32(request, prob32, prob_noncrit32):
    # original and double take the symmetric step (F = E^T), single and alpha-c-half the general
    if request.param == "original":
        return prob32.quad
    if request.param == "alpha-c-half":
        return prob_noncrit32.quad
    return shifted_coefficients(prob32, default_shift(prob32, request.param))


START_CASES = {  # case: (problem fixture or size n, shift mode)
    "original": ("prob32", None), "single": ("prob32", "single"), "double": ("prob32", "double"),
    "n1": ("prob1", None), "n256-original": (256, None), "n256-double": (256, "double"),
    "alpha-c-half": ("prob_noncrit32", None)}


@pytest.mark.parametrize("case", START_CASES)
def test_init_matches_textbook_formulas(case, request):
    # the factored O(n^2) start against the five-solve transcription
    source, mode = START_CASES[case]
    problem = build_problem(quadrature_params(source)) if isinstance(source, int) \
        else request.getfixturevalue(source)
    quad = problem.quad if mode is None else shifted_coefficients(
        problem, default_shift(problem, mode))
    state = sda_init(quad)
    ref = sda_init_reference(quad, resolve_gamma(quad))
    for got, want in zip((state.E, state.F, state.G, state.H), ref):
        assert _rel_gap(got, want) <= 1e-13


def test_step_matches_textbook_formulas(quad32):
    # the one-inverse step against the two-solve transcription, from the same state
    state = sda_init(quad32)
    for _ in range(10):
        nxt = sda_step(state)
        ref = sda_step_reference(state.E, state.F, state.G, state.H)
        for got, want in zip((nxt.E, nxt.F, nxt.G, nxt.H), ref):
            assert _rel_gap(got, want) <= 1e-13
        state = nxt


FLAG_CASES = {  # case: ((alpha, c), (eta, xi) in units of 1/omega1 or a default mode)
    "critical": ((0.0, 1.0), None), "c-0.9": ((0.0, 0.9), None), "double": ((0.0, 1.0), "double"),
    "eta-minus-xi": ((0.0, 1.0), (0.3, -0.3)), "single": ((0.0, 1.0), "single"),
    "interior": ((0.0, 1.0), (0.3, -0.2)), "alpha-c-half": ((0.5, 0.5), None),
    "near-critical": ((1e-4, 1.0 - 1e-4), None)}


@pytest.mark.parametrize("case", FLAG_CASES)
def test_symmetric_flag_and_transposed_f(case):
    # the flag is set exactly where alpha = 0 and eta = -xi; there F is E^T at every step
    (alpha, c), shift = FLAG_CASES[case]
    problem = build_problem(quadrature_params(32, alpha, c))
    om1 = float(problem.omegas[0])
    quad = problem.quad if shift is None else shifted_coefficients(
        problem, default_shift(problem, shift) if isinstance(shift, str)
        else make_shift(problem, shift[0] / om1, shift[1] / om1, "double"))
    symmetric = case in ("critical", "c-0.9", "double", "eta-minus-xi")
    assert quad.symmetric is symmetric
    state = sda_init(quad)
    assert state.symmetric is symmetric
    steps = sda_solve(problem, quad).iterations
    for _ in range(steps):
        if symmetric:
            assert np.array_equal(state.F, state.E.T)
        state = sda_step(state)
    assert state.symmetric is symmetric


FUSED_CASES = {  # case: ((alpha, c), shift mode)
    "unshifted": ((0.0, 1.0), None), "single": ((0.0, 1.0), "single"),
    "double": ((0.0, 1.0), "double"), "alpha-c-half": ((0.5, 0.5), None),
    "c-0.9": ((0.0, 0.9), None)}


@pytest.mark.parametrize("n", [1, 8, 64])
@pytest.mark.parametrize("case", FUSED_CASES)
def test_step_metrics_match_the_unfused_calls(case, n):
    # the run takes ||G|| and ||H|| once, on the [G; H] stack, for both stopping
    # metrics; each (err, res) must be the separate calls' bit for bit
    (alpha, c), mode = FUSED_CASES[case]
    problem = build_problem(TransportParams(alpha, c, np.array([1.0]), np.array([0.5]))
                            if n == 1 else quadrature_params(n, alpha, c))
    quad = problem.quad if mode is None else shifted_coefficients(
        problem, default_shift(problem, mode))
    sol = sda_solve(problem, quad)
    state, errs, ress = sda_init(quad), [], []
    for _ in range(sol.iterations):
        nxt = sda_step(state)
        for s in (state, nxt):
            assert s.GH.shape == (2, n, n)
            assert np.shares_memory(s.G, s.GH) and np.shares_memory(s.H, s.GH)
            assert np.array_equal(s.G, s.GH[0]) and np.array_equal(s.H, s.GH[1])
        errs.append(relative_update_error(((state.G, nxt.G), (state.H, nxt.H))))
        ress.append(relative_residual(problem, nxt.H))
        state = nxt
    assert sol.iterations >= 1
    assert sol.err_history == errs and sol.res_history == ress
    assert np.array_equal(sol.x, state.H) and np.array_equal(sol.y, state.G)


def test_hand_built_quadruple_takes_the_general_step():
    quad = factor_quadruple(2.0, 2.0)
    assert not quad.symmetric
    assert not sda_init(quad).symmetric


def test_monotone_nonnegative_iterates(prob32):
    state = sda_init(prob32.quad)
    slack = 1e-12
    for _ in range(30):
        nxt = sda_step(state)
        for prev, curr in ((state.G, nxt.G), (state.H, nxt.H)):
            scale = inf_norm(curr)
            assert np.min(curr) >= -slack * scale
            assert np.min(curr - prev) >= -slack * scale
        state = nxt


def test_solve_unshifted_count(prob32):
    sol = sda_solve(prob32, prob32.quad)
    assert sol.converged
    assert 25 <= sol.iterations <= 29
    assert sol.res_final <= 1e-12


def test_solve_double_shift_count(prob32):
    quad = shifted_coefficients(prob32, default_shift(prob32, "double"))
    sol = sda_solve(prob32, quad)
    assert sol.converged
    assert 9 <= sol.iterations <= 13
    assert sol.res_final <= 1e-13


def test_scalar_solution_all_variants(prob1):
    # X = 2 omega_1 = 1; shifted runs hit it to machine accuracy, the
    # unshifted run is limited by the critical-case floor ~ sqrt(eps)
    tight = SdaConfig(tol=1e-300, max_iter=60)
    for mode in ("single", "double"):
        quad = shifted_coefficients(prob1, default_shift(prob1, mode))
        sol = sda_solve(prob1, quad, tight)
        assert abs(sol.x[0, 0] - 1.0) <= 1e-12
    sol = sda_solve(prob1, prob1.quad, tight)
    assert abs(sol.x[0, 0] - 1.0) <= 1e-7


def test_shift_invariance_of_solution(prob32):
    # the double-shifted equation has the same
    # minimal solution; observed agreement is set by the unshifted
    # method's critical-case accuracy floor (~1e-7 relative)
    long_run = sda_solve(prob32, prob32.quad, SdaConfig(tol=1e-300, max_iter=40))
    shifted = sda_solve(prob32,
                        shifted_coefficients(prob32, default_shift(prob32, "double")),
                        SdaConfig(tol=1e-14, max_iter=100))
    gap = inf_norm(long_run.x - shifted.x) / inf_norm(shifted.x)
    assert gap <= 1e-6


def test_single_vs_double_solution_agreement(prob32):
    cfg = SdaConfig(tol=1e-14, max_iter=100)
    xs = sda_solve(prob32, shifted_coefficients(prob32, default_shift(prob32, "single")),
                   cfg)
    xd = sda_solve(prob32, shifted_coefficients(prob32, default_shift(prob32, "double")),
                   cfg)
    assert inf_norm(xs.x - xd.x) <= 1e-10 * inf_norm(xd.x)


def test_converged_solution_symmetric(prob32):
    sol = sda_solve(prob32, shifted_coefficients(prob32, default_shift(prob32, "double")))
    assert inf_norm(sol.x - sol.x.T) <= 1e-10 * inf_norm(sol.x)


def test_max_iter_returns_unconverged(prob32):
    sol = sda_solve(prob32, prob32.quad, SdaConfig(max_iter=3))
    assert not sol.converged
    assert sol.stop_reason == "max_iter"
    assert sol.iterations == 3
    assert len(sol.err_history) == 3


def test_quadruple_size_mismatch_rejected(prob8, monkeypatch):
    quad = factor_quadruple(2.0, 2.0)
    steps = []
    monkeypatch.setattr("nare.sda.sda_init", lambda *a: steps.append(a))
    with pytest.raises(ValueError, match="size"):
        sda_solve(prob8, quad)
    assert steps == []


def test_noncritical_quadratic_convergence(prob_noncrit32):
    sol = sda_solve(prob_noncrit32, prob_noncrit32.quad)
    assert sol.converged
    assert sol.iterations <= 15
    assert sol.res_final <= 1e-13


def test_converged_stop_contract(prob32, prob_noncrit32):
    # acceptance of a solve means one of the two metrics fell below n^2 eps
    tol = 32 * 32 * 2.0 ** -52
    for problem, quad in (
            (prob32, prob32.quad), (prob_noncrit32, prob_noncrit32.quad),
            (prob32, shifted_coefficients(prob32, default_shift(prob32, "double")))):
        sol = sda_solve(problem, quad)
        assert sol.converged
        assert min(sol.err_final, sol.res_final) < tol


def test_dual_iterate_solves_dual_equation(prob_noncrit32):
    # G converges to the minimal solution of the dual equation
    quad = prob_noncrit32.quad
    sol = sda_solve(prob_noncrit32, quad, SdaConfig(tol=1e-14))
    y = sol.y
    dual_res = y @ quad.B @ y - y @ quad.A - quad.D @ y + quad.C
    assert inf_norm(dual_res) <= 1e-10 * max(1.0, inf_norm(y))
    assert np.min(y) >= -1e-14


def test_shifted_dual_solves_shifted_dual_equation(prob32):
    # for shifted runs the dual iterate belongs to the shifted equation
    quad = shifted_coefficients(prob32, default_shift(prob32, "double"))
    sol = sda_solve(prob32, quad, SdaConfig(tol=1e-14))
    y = sol.y
    dual_res = y @ quad.B @ y - y @ quad.A - quad.D @ y + quad.C
    assert inf_norm(dual_res) <= 1e-9 * max(1.0, inf_norm(y))
    # and it differs from the original equation's dual
    orig = prob32.quad
    orig_res = y @ orig.B @ y - y @ orig.A - orig.D @ y + orig.C
    assert inf_norm(orig_res) > 1e-3


def test_unshifted_dual_left_identity(prob32):
    # u1^T Y = -u2^T holds at the dual solution; the unshifted run
    # approximates Y to its critical-case floor only
    _, _, u1, u2, _, _, _, _ = critical_null_vectors(prob32)
    sol = sda_solve(prob32, prob32.quad, SdaConfig(tol=1e-300, max_iter=40))
    gap = inf_norm(u1 @ sol.y + u2) / inf_norm(u2)
    assert gap <= 1e-4


@pytest.mark.parametrize("rule", ["either", "error"])
def test_blown_up_run_returns_last_finite_iterate(rule, nan_from_step):
    # a step that turns NaN, as critical-case doubling can below its attainable
    # floor, ends the run on the iterate before it, not converged on it
    problem = build_problem(quadrature_params(8))
    before = sda_solve(problem, problem.quad, SdaConfig(tol=1e-300, max_iter=4))
    nan_from_step(5)
    sol = sda_solve(problem, problem.quad, SdaConfig(tol=1e-300, stop_rule=rule))
    assert sol.stop_reason == "nonfinite"
    assert not sol.converged
    assert sol.iterations == 4 and np.array_equal(sol.x, before.x)
    assert np.all(np.isfinite(sol.x)) and np.all(np.isfinite(sol.y))
    assert sol.res_final == relative_residual(problem, sol.x)


@pytest.mark.parametrize("n", [4, 32])
def test_final_residual_describes_returned_iterate(n):
    problem = build_problem(quadrature_params(n))
    sol = sda_solve(problem, problem.quad, SdaConfig(tol=1e-300, stop_rule="residual"))
    assert sol.res_final == relative_residual(problem, sol.x)
    assert sol.iterations == len(sol.res_history)
