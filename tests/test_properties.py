"""Property tests over drawn direction sets: the critical-case theory, the solvers
off the critical point, and the one gate that refuses every critical-only operation
off (alpha, c) = (0, 1)."""

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from nare import (InvalidParams, NotCriticalCase, TransportParams, build_problem, inf_norm,
                  spectra)
from nare.cli import run_solver
from nare.diagnostics import solution_identities, solution_report
from nare.shift import ShiftSpec, default_shift, make_shift, shifted_coefficients
from nare.si import SiConfig, build_kernel, si_init, si_shifted_solve, si_step

MIN_GAP = 1e-3
SHIFTED = ("sda-single", "sda-double", "si-single", "si-double")


@st.composite
def directions(draw):
    """Descending omegas in (0.01, 0.99) at least MIN_GAP apart, positive weights
    summing to one.  Sorted u_k plus k MIN_GAP spreads the nodes out, which reaches
    every such set without rejecting a draw."""
    n = draw(st.integers(1, 24))
    top = 0.99 - (n - 1) * MIN_GAP
    u = sorted(draw(st.lists(st.floats(0.01, top, exclude_min=True, exclude_max=True),
                             min_size=n, max_size=n)))
    omegas = (np.array(u) + MIN_GAP * np.arange(n))[::-1]
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    return weights / weights.sum(), omegas


@settings(max_examples=25, deadline=None, derandomize=True)
@given(directions())
def test_critical_solution_and_certificates(dirs):
    problem = build_problem(TransportParams(0.0, 1.0, *dirs))
    for solver in SHIFTED:
        sol, spec, _ = run_solver(problem, solver)
        assert sol.converged, solver
        report = solution_report(problem, sol, shifted_coefficients(problem, spec))
        certs = report.m_matrix_certificates
        assert certs["closed_loop"] == "nonsingular_m_matrix", solver
        # a single shift moves one of the two zero eigenvalues
        assert certs["block_matrix"] == ("singular_or_not" if spec.mode == "single"
                                         else "nonsingular_m_matrix"), solver
        if solver == "sda-double":
            assert np.all(sol.x >= 0.0)
            assert max(report.identity_gaps.values()) < 1e-10, report.identity_gaps


@st.composite
def off_critical_params(draw):
    """alpha in [0, 0.99) and d = 1 - c log-uniform in [1e-3, 1], with the edges
    alpha = 0 (d > 0) and c = 1 (alpha >= sqrt(1e-3)) drawn on purpose, so that
    s = sqrt(d + alpha^2) >= sqrt(1e-3) on both edges."""
    alpha = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99, exclude_max=True)))
    log_d = st.floats(-3.0, 0.0).map(lambda t: 10.0 ** t).filter(lambda d: d < 1.0)  # c > 0
    d = draw(log_d if alpha < np.sqrt(1e-3) else st.one_of(st.just(0.0), log_d))
    return TransportParams(alpha, 1.0 - d, *draw(directions()))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(off_critical_params())
def test_off_critical_solvers_agree_and_iterate_monotonically(params):
    problem = build_problem(params)
    sda, _, _ = run_solver(problem, "sda")
    si, _, _ = run_solver(problem, "si")
    assert sda.converged and si.converged
    assert inf_norm(sda.x - si.x) <= 1e-10 * inf_norm(sda.x)
    assert np.all(sda.x >= 0.0) and np.all(si.x >= 0.0)
    # the classic iterates rise entry by entry from m = n = e after the first sweep
    kernel = build_kernel(problem)
    state = si_init(kernel)
    for sweep in range(min(si.iterations, 200)):
        nxt = si_step(kernel, state)
        assert np.all(nxt.mn >= state.mn) and np.all(nxt.mn >= 1.0), sweep
        state = nxt
    report = solution_report(problem, sda)
    assert report.m_matrix_certificates["closed_loop"] == "nonsingular_m_matrix"


def test_off_critical_edge_below_the_drawn_floor():
    # alpha = 2^-9 at c = 1, below the strategy's floor: s = sqrt(d + alpha^2)
    # ~ 0.002, so the classic sweep needs ~27/s ~ 14,000 sweeps and meets its
    # cap, while doubling converges
    problem = build_problem(TransportParams(2.0 ** -9, 1.0, np.array([1.0]), np.array([0.5])))
    sda, _, _ = run_solver(problem, "sda")
    si, _, _ = run_solver(problem, "si")
    assert sda.converged
    assert si.stop_reason == "max_iter"
    assert si.iterations == len(si.err_history) == len(si.res_history) == SiConfig.max_iter


@st.composite
def noncritical_params(draw):
    alpha = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
    c = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True),
                       st.floats(1e-15, 1e-6).map(lambda d: 1.0 - d)))
    assume(not (alpha == 0.0 and c == 1.0))
    params = TransportParams(alpha, c, *draw(directions()))
    try:
        build_problem(params)
    except InvalidParams:  # a c so small that Gamma or Delta overflow, as a subnormal c does
        reject()
    return params


@settings(max_examples=25, deadline=None, derandomize=True)
@given(noncritical_params())
def test_every_critical_only_entry_point_is_refused(params):
    problem = build_problem(params)
    om1 = float(problem.omegas[0])
    spec = ShiftSpec(eta=0.5 / om1, xi=-0.5 / om1, mode="double")
    calls = [
        lambda: make_shift(problem, None, None, "double"),
        lambda: default_shift(problem, "single"),
        lambda: spectra.interlaced_spectrum(problem),
        lambda: spectra.shifted_interlaced_spectrum(problem, spec),
        lambda: spectra.closed_loop_spectrum(problem),
        lambda: spectra.sda_rate_bound(problem, spec),
        lambda: si_shifted_solve(problem, spec),
        lambda: solution_identities(problem, np.zeros((problem.n, problem.n))),
    ]
    for call in calls:
        with pytest.raises(NotCriticalCase, match=r"critical case \(alpha, c\) = \(0, 1\)"):
            call()
