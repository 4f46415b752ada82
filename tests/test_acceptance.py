"""Acceptance suite: one test per criterion, each printing a PASS line.

The two unshifted variants in criterion 2 are strict expected failures:
at the critical case their iterations floor at O(sqrt(eps)) solution
error in double precision (the doubling recurrence amplifies roundoff
through (I - GH)^-1 once the error reaches that level, and the vector
iteration's increments fall below rounding), so 1e-12 absolute accuracy
is unattainable for them; the shifted variants all reach it.
"""

import math

import numpy as np
import pytest

import oracles
from nare import (
    TransportParams,
    build_kernel,
    build_problem,
    certify_m_matrix,
    convergence_order,
    default_shift,
    inf_norm,
    interlaced_spectrum,
    quadrature_params,
    shift_equivalence_gap,
    shifted_coefficients,
    shifted_interlaced_spectrum,
    si_init,
    si_shift_step,
    si_solution,
    si_step,
    solution_identities,
)
from nare.cli import table51_rows
from nare.linalg import EPS
from nare.sda import SdaConfig, sda_init, sda_solve, sda_step
from nare.shift import make_shift, omega_lower_bound
from nare.si import SiConfig, si_shifted_solve, si_solve

SIZES = (32, 64, 128, 256)

# published benchmark cells: residual (iterations)
REFERENCE_CELLS = {
    "sda": {32: (9.7e-14, 27), 64: (4.2e-13, 27), 128: (1.7e-12, 27),
            256: (6.8e-12, 27)},
    "sda-single": {32: (4.5e-15, 11), 64: (1.6e-14, 12), 128: (4.2e-14, 13),
                   256: (1.2e-13, 14)},
    "sda-double": {32: (7.4e-15, 11), 64: (1.9e-14, 12), 128: (6.1e-14, 13),
                   256: (1.4e-13, 14)},
    "si-single": {32: (2.4e-13, 164), 64: (1.0e-12, 154), 128: (4.0e-12, 145),
                  256: (1.6e-11, 136)},
    "si-double": {32: (2.9e-13, 40), 64: (1.3e-12, 38), 128: (5.4e-12, 36),
                  256: (2.2e-11, 34)},
}


@pytest.fixture(scope="module")
def table_rows():
    return table51_rows(SIZES)


@pytest.fixture(scope="module")
def ref32(prob32):
    quad = shifted_coefficients(prob32, default_shift(prob32, "double"))
    return sda_solve(prob32, quad, SdaConfig(tol=1e-14, max_iter=100)).x


def test_criterion_1_table_reproduction(table_rows):
    by_key = {(n, solver): sol for n, solver, sol, _, _, _ in table_rows}
    for solver, cells in REFERENCE_CELLS.items():
        for n, (ref_res, ref_its) in cells.items():
            sol = by_key[(n, solver)]
            assert sol.converged, (solver, n)
            assert abs(sol.iterations - ref_its) <= 2, \
                f"{solver} n={n}: {sol.iterations} vs {ref_its}"
            assert abs(math.log10(sol.res_final / ref_res)) <= 2.0, \
                f"{solver} n={n}: res {sol.res_final} vs {ref_res}"
    for n in SIZES:
        sol = by_key[(n, "si")]
        assert not sol.converged and sol.iterations == 10000
    singles = [by_key[(n, "sda-single")].iterations for n in SIZES]
    doubles = [by_key[(n, "sda-double")].iterations for n in SIZES]
    assert singles == sorted(singles)  # counts grow with n
    assert all(abs(s - d) <= 2 for s, d in zip(singles, doubles))
    si_doubles = [by_key[(n, "si-double")].iterations for n in SIZES]
    assert si_doubles == sorted(si_doubles, reverse=True)  # shrink with n
    assert by_key[(32, "sda-double")].res_final <= 1e-13
    print("ACCEPTANCE 1 PASS: benchmark table reproduced "
          f"(counts {[by_key[(n, 'sda')].iterations for n in SIZES]} for the "
          "unshifted doubling run)")


UNSHIFTED_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="unshifted iterations floor at O(sqrt(eps)) error in the "
           "critical case; 1e-12 is unattainable in double precision",
)


@pytest.mark.parametrize("omega1", [0.5, 0.37])
@pytest.mark.parametrize("variant", [
    "sda-single", "sda-double", "si-single", "si-double",
    pytest.param("sda", marks=UNSHIFTED_XFAIL),
    pytest.param("si", marks=UNSHIFTED_XFAIL),
])
def test_criterion_2_scalar_oracle(variant, omega1):
    problem = build_problem(TransportParams(
        0.0, 1.0, np.array([1.0]), np.array([float(omega1)])))
    target = 2.0 * omega1
    if variant.startswith("sda"):
        quad = problem.quad
        if variant != "sda":
            mode = variant.split("-")[1]
            quad = shifted_coefficients(problem, default_shift(problem, mode))
        sol = sda_solve(problem, quad, SdaConfig(tol=1e-300, stop_rule="error",
                                                 max_iter=60))
    elif variant == "si":
        sol = si_solve(problem, SiConfig(tol=1e-300, stop_rule="error",
                                         max_iter=20000))
    else:
        mode = variant.split("-")[1]
        sol = si_shifted_solve(problem, default_shift(problem, mode),
                               SiConfig(tol=1e-300, stop_rule="error",
                                        max_iter=500))
    assert abs(sol.x[0, 0] - target) <= 1e-12, \
        f"{variant}: |X - 2 omega1| = {abs(sol.x[0, 0] - target):.2e}"
    print(f"ACCEPTANCE 2 PASS: {variant} at omega1={omega1} hit X = 2*omega1 "
          "to 1e-12")


@pytest.mark.parametrize("n", [4, 32])
def test_criterion_3_solution_equivalence(n):
    problem = build_problem(quadrature_params(n))
    spec = default_shift(problem, "double")
    sol = sda_solve(problem, shifted_coefficients(problem, spec))
    z_ref, sweeps = oracles.si_shifted_reference(
        0.0, 1.0, problem.weights, problem.omegas, spec.eta, spec.xi,
        max_iter=10 ** 6)
    gap = inf_norm(sol.x - z_ref)
    assert gap <= 1e-8 * inf_norm(z_ref), f"n={n}: gap {gap:.2e}"
    # the printed error, held well below the paper's bound
    assert gap <= 1e-13 * inf_norm(z_ref), f"n={n}: relative gap {gap / inf_norm(z_ref):.2e}"
    print(f"ACCEPTANCE 3 PASS: n={n} doubling vs long vector-iteration oracle "
          f"gap {gap / inf_norm(z_ref):.1e} (oracle stationary after {sweeps} sweeps)")


@pytest.mark.parametrize("n", [8, 32])
def test_criterion_4_spectral_suite(n):
    problem = build_problem(quadrature_params(n))
    report = interlaced_spectrum(problem)
    eigs = report.eigenvalues
    assert len(eigs) == 2 * n and np.all(np.diff(eigs) > 0)

    from nare import assemble_blocks

    m_block, _ = assemble_blocks(problem)
    eye = np.eye(2 * n)
    width = 1e-10
    for root in report.free_roots:
        halo = max(1e-7, 1e-9 * root)
        oracle_root, (lo, hi) = oracles.det_sign_bisect(
            lambda lam: m_block - lam * eye, root - halo, root + halo,
            width=width)
        assert hi - lo <= 2 * width
        assert abs(oracle_root - root) <= 1e-9

    spec = default_shift(problem, "double")
    shifted_report = shifted_interlaced_spectrum(problem, spec)
    vals = shifted_report.free_roots
    poles = np.sort(1.0 / problem.omegas)
    assert len(vals) == 2 * n and np.all(vals > 0)
    for k in range(n):
        lo = 0.0 if k == 0 else poles[k - 1]
        assert lo < vals[2 * k] <= vals[2 * k + 1] < poles[k]

    # single-shift spectrum preservation, simple roots via the same oracle
    m_hat_quad = shifted_coefficients(problem, default_shift(problem, "single"))
    m_hat = np.block([[m_hat_quad.D, -m_hat_quad.C],
                      [-m_hat_quad.B, m_hat_quad.A]])
    for root in report.free_roots:
        halo = max(1e-7, 1e-9 * root)
        hat_root, _ = oracles.det_sign_bisect(
            lambda lam: m_hat - lam * eye, root - halo, root + halo, width=width)
        assert abs(hat_root - root) <= 1e-8
    # full multiset agreement including the double roots at the poles
    hat_eigs = np.sort(np.linalg.eigvals(m_hat).real)
    assert np.max(np.abs(hat_eigs - eigs)) <= 1e-8
    print(f"ACCEPTANCE 4 PASS: n={n} spectra interlace; all roots confirmed "
          "by the determinant-sign oracle")


def test_criterion_5_identity_suite(prob32, ref32):
    gaps = solution_identities(prob32, ref32)
    assert gaps["Xv1_minus_v2"] <= 1e-8
    assert gaps["u2X_plus_u1"] <= 1e-8
    assert gaps["symmetry_gap"] <= 1e-8
    bound = 1e-10 * (1.0 + inf_norm(ref32) ** 2)
    for mode in ("single", "double"):
        quad = shifted_coefficients(prob32, default_shift(prob32, mode))
        assert shift_equivalence_gap(prob32, quad, ref32) <= bound
    print("ACCEPTANCE 5 PASS: solution identities and the shifted-residual "
          "equivalence hold at 1e-8 / 1e-10")


def test_criterion_6_rational_sum_identities(prob32):
    rng = np.random.default_rng(61)
    om, c = prob32.omegas, prob32.weights
    cw = float(np.sum(c * om))
    poles = 1.0 / om
    checked = 0
    while checked < 1000:
        lam = rng.uniform(0.0, poles.max() * 1.05)
        if np.min(np.abs(poles - lam)) < 1e-8:
            continue
        checked += 1
        g1, g2, g3 = oracles.secular_sums(prob32, lam)
        assert abs(g1 - lam * lam * g2 - lam * cw) <= \
            1e-9 * max(1.0, abs(g1), abs(lam * lam * g2))
        assert abs(g1 - g3 + 1.0) <= 1e-9 * max(1.0, abs(g1), abs(g3))
    print("ACCEPTANCE 6 PASS: both rational-sum identities hold at 1000 "
          "random points to 1e-9")


def test_criterion_7_rate_properties(prob32, ref32):
    scale = inf_norm(ref32)
    state = sda_init(prob32.quad)
    errs = []
    for _ in range(30):
        state = sda_step(state)
        errs.append(inf_norm(state.H - ref32) / scale)
    ratios = [errs[i + 1] / errs[i] for i in range(9, 22)]
    assert all(0.4 <= r <= 0.6 for r in ratios), ratios

    quad = shifted_coefficients(prob32, default_shift(prob32, "double"))
    state = sda_init(quad)
    errs_s = []
    for _ in range(14):
        state = sda_step(state)
        errs_s.append(inf_norm(state.H - ref32) / scale)
    informative = [e for e in errs_s if e > 1e-13][-4:]
    _, order = convergence_order(informative)
    assert order >= 1.7, order

    spec = default_shift(prob32, "double")
    zkernel = build_kernel(prob32, spec)
    zstate = si_init(zkernel)
    errs_z = []
    for _ in range(60):
        zstate = si_shift_step(zkernel, zstate)
        z = si_solution(zkernel, *zstate.mn)
        errs_z.append(inf_norm(z - ref32) / scale)
    late = [errs_z[i + 1] / errs_z[i] for i in range(30, 55)]
    assert all(0.0 < r < 0.95 for r in late), late

    kernel = build_kernel(prob32)
    vstate = si_init(kernel)
    e_prev = e_curr = None
    for k in range(1, 1002):
        vstate = si_step(kernel, vstate)
        if k >= 1000:
            err = inf_norm(si_solution(kernel, vstate.m, vstate.n) - ref32) / scale
            e_prev, e_curr = e_curr, err
    assert e_prev is not None and e_curr / e_prev > 0.99
    print("ACCEPTANCE 7 PASS: rate 1/2 linear window, shifted order "
          f"{order:.2f}, shifted ratio ~{late[-1]:.2f}, sublinear ratio "
          f"{e_curr / e_prev:.4f}")


def test_criterion_8_monotonicity_and_dominance(prob32, ref32):
    tol = 32 * 32 * EPS
    spec0 = make_shift(prob32, 0.0, 0.0, "double")
    spec1 = default_shift(prob32, "single")
    spec2 = default_shift(prob32, "double")
    k0, k1, k2 = (build_kernel(prob32, s) for s in (spec0, spec1, spec2))
    s0, s1, s2 = si_init(k0), si_init(k1), si_init(k2)
    xi = spec2.xi
    n2_cap = -xi / prob32.gamma
    m_lim = ref32 @ prob32.q + 1.0
    n_lim = ref32.T @ prob32.q + 1.0
    bound_slack = 1e-10
    z2 = si_solution(k2, *s2.mn)
    for k in range(1, 201):
        prev2 = z2
        s0 = si_shift_step(k0, s0)
        s1 = si_shift_step(k1, s1)
        s2 = si_shift_step(k2, s2)
        z0, z1, z2 = (si_solution(k2, *s.mn) for s in (s0, s1, s2))
        slack = 1e-13 * max(1.0, inf_norm(z2))
        assert np.min(z1 - z0) >= -slack, f"dominance (eta,0) at k={k}"
        assert np.min(z2 - z1) >= -slack, f"dominance (eta,xi) at k={k}"
        if inf_norm(z2 - ref32) > 10 * tol * inf_norm(ref32):
            assert np.min(z2 - prev2) > 0.0, f"strict increase at k={k}"
        m1, m2 = s2.m
        n1, n2 = s2.n
        assert np.all(m1 >= 1.0 - bound_slack) and np.all(m2 >= 1.0 - bound_slack)
        assert np.all(n1 >= 1.0 - bound_slack)
        assert np.all(m1 <= m_lim * (1 + bound_slack) + bound_slack)
        assert np.all(m2 <= m_lim * (1 + bound_slack) + bound_slack)
        assert np.all(n1 <= n_lim * (1 + bound_slack) + bound_slack)
        assert np.all(n2 >= -bound_slack)
        assert np.all(n2 <= n2_cap * (1 + bound_slack) + bound_slack)
    print("ACCEPTANCE 8 PASS: strict entrywise increase, component bounds, "
          "and shift dominance hold at every sweep")


def test_criterion_9_zmatrix_sharpness(prob32):
    from nare.shift import ShiftSpec

    om1 = float(prob32.omegas[0])
    def block(eta, xi, mode):
        spec = ShiftSpec(eta=eta, xi=xi, mode=mode)
        quad = shifted_coefficients(prob32, spec, check=False)
        return np.block([[quad.D, -quad.C], [-quad.B, quad.A]])

    assert certify_m_matrix(block(1 / om1, 0.0, "single")).status \
        != "z_matrix_violation"
    assert certify_m_matrix(block(1.0001 / om1, 0.0, "single")).status \
        == "z_matrix_violation"
    eta = 1 / (2 * om1)
    xi_edge = omega_lower_bound(eta, om1)
    assert certify_m_matrix(block(eta, xi_edge, "double")).status \
        != "z_matrix_violation"
    assert certify_m_matrix(block(eta, 1.01 * xi_edge, "double")).status \
        == "z_matrix_violation"
    rng = np.random.default_rng(9)
    for _ in range(5):
        eta_i = rng.uniform(0.05, 0.95) / om1
        xi_i = rng.uniform(omega_lower_bound(eta_i, om1) * 0.999, -1e-6)
        xi_i = max(xi_i, omega_lower_bound(eta_i, om1))
        cert = certify_m_matrix(block(eta_i, xi_i, "double"))
        assert cert.is_nonsingular_m_matrix, (eta_i, xi_i, cert)
    print("ACCEPTANCE 9 PASS: Z-matrix boundaries are sharp and interior "
          "shifts certify as nonsingular M-matrices")
