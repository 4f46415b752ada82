"""Workloads of the nare benchmark: fixed job lists, their set-up and checks.

A job is one unit of user work:

* a solver job builds ``problem.build_problem(problem.quadrature_params(n,
  alpha, c))`` and runs ``cli.run_solver`` on it with the caps of
  ``nare table51`` (100 doubling steps, ``cli.SI_CAP`` vector sweeps);
* an analysis job is one call of ``diagnostics.solution_report`` or of a
  ``spectra`` report on a problem and solution prepared during set-up.

Jobs call nare through module attributes (``cli.run_solver``, not a name
bound at import time), so the traced run can wrap them.  Every check runs
outside the timed region.

Workloads, why each was chosen, and which layer metric of the traced run
should move which end-to-end metric:

``doubling`` (fixed, the seed is not used)
    The critical problem at n=256 under ``sda``, ``sda-single`` and
    ``sda-double`` (the paper's cells: 27, 15 and 14 steps), plus ``sda`` at
    (alpha, c) = (0.5, 0.5), n=256.  ``sda.sda_step`` and
    ``linalg.lu_solve`` do nearly all the work; the vector code does none.
    ``sda.sda_step.self_ms``, ``linalg.lu_solve.self_ms`` and
    ``linalg.lu_solve.rhs_cols_per_step`` move ``jobs_per_s`` and
    ``job_ms.p50`` here, and should not move ``vector`` or ``analysis``.
    ``sda.sda_init.p50_us`` moves ``job_ms.p50`` here and on ``many-small``.

``vector`` (fixed)
    ``si`` at the near-critical point (1e-4, 1 - 1e-4), n=256 (1686
    sweeps), and ``si-single`` and ``si-double`` at the critical point,
    n=512.  The critical ``si`` cell would stop at the 10000-sweep cap and
    count as a failure, so the near-critical point stands in for it.  The
    stopping metric dominates the plain sweep and the n x n Z build the
    shifted sweep.  ``diagnostics.relative_residual.self_ms``,
    ``diagnostics.stop_share``, ``si.si_solution.calls_per_sweep`` and
    ``si.si_shift_step.p50_us`` move ``jobs_per_s`` here, and should not
    move ``doubling``.

``many-small`` (drawn from the seed)
    Sixteen (alpha, c) points per n in {8, 16, 32}, each solved by ``sda``
    and ``si``, plus the four shifted solvers at the critical point of each
    n: 108 jobs.  Python per-call and per-iteration overhead dominates
    instead of BLAS, so a new per-solve cost or a change of the solvers'
    iteration loop shows here and not on ``doubling``.  ``cli.run_solver.self_ms``,
    ``problem.build_problem.p50_us`` and ``sda.sda_step.p50_us`` move
    ``jobs_per_s`` and ``job_ms.p90`` here.

``analysis`` (fixed)
    The critical problems at n=64 and n=256: ``solution_report`` on the
    ``sda-double`` solution, ``interlaced_spectrum``,
    ``shifted_interlaced_spectrum`` and ``sda_rate_bound`` with the default
    double shift, and ``closed_loop_spectrum``.  Without it the ``spectra``
    layer and the post-solve report would go unmeasured.
    ``diagnostics.solution_report.self_ms``,
    ``diagnostics.certify_m_matrix.self_ms`` and ``spectra.*.self_ms`` move
    ``jobs_per_s`` here and should not move the three solver workloads.

``iterations_total`` must not move on any workload unless a change names
that effect beforehand.
"""

import hashlib
import math

import numpy as np

from nare import cli, diagnostics, problem, shift, spectra
from nare.linalg import EPS

SDA_CAP = 100
SI_CAP = cli.SI_CAP

# Unshifted critical cells stop at an O(sqrt(eps)) solution error.  So does
# si-double: the default double shift lies on the boundary of the shift
# region, where the shifted problem has a double eigenvalue (measured
# errors 2e-7 at n=8 up to 1.3e-5 at n=512).  Every other cell agrees with
# the other solver family to about 1e-9 or better.
FLOOR_BOUND = 1e-4
ACCURATE_BOUND = 1e-7
NORMALIZED_RESIDUAL_BOUND = 1e-12
SHIFT_EQUIVALENCE_BOUND = 1e-8
EIGENVALUE_BOUND = 1e-9
RATE_BOUND_TOL = 1e-9

# The paper's cells at n=256, checked with the same +-2 tolerance as the
# table-reproduction acceptance test.
PAPER_ITERATIONS = {"sda": 27, "sda-single": 15, "sda-double": 14}
PAPER_ITERATION_TOL = 2

SMALL_SIZES = (8, 16, 32)
POINTS_PER_SIZE = 16
# s = sqrt((1 - c) + alpha^2) sets the vector sweep count, roughly 27 / s.
# s >= 0.08 keeps every point at least 6.4e-3 from (0, 1) and si under about
# 350 sweeps.  Log-uniform strata in s and uniform strata in the angle keep
# the work of a pass, and its slowest jobs, within a few percent across seeds.
S_RANGE = (0.08, 0.9)


def _rel_diff(x, ref):
    return float(np.max(np.abs(x - ref).sum(axis=1)) / np.max(np.abs(ref).sum(axis=1)))


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _is_floor_cell(critical, solver):
    return critical and solver in ("sda", "si", "si-double")


def _cap(solver):
    return SI_CAP if solver.startswith("si") else SDA_CAP


def solve(n, alpha, c, solver):
    """One solver run as a user would make it; returns (problem, solution)."""
    prob = problem.build_problem(problem.quadrature_params(n, alpha, c))
    sol, _, _ = cli.run_solver(prob, solver, max_iter=_cap(solver))
    return prob, sol


def reference_solution(n, alpha, c, solver):
    """Set-up solve whose solution later jobs are compared against."""
    prob, sol = solve(n, alpha, c, solver)
    if not sol.converged:
        raise RuntimeError(f"reference {solver} at n={n}, ({alpha}, {c}) "
                           f"did not converge in {sol.iterations} steps")
    return sol.x


class SolverJob:
    """A solver job and the checks on its solution."""

    def __init__(self, n, alpha, c, solver, reference, expected_iterations=None):
        self.n, self.alpha, self.c, self.solver = n, alpha, c, solver
        self.reference = reference
        self.expected_iterations = expected_iterations
        self.label = f"{solver} n={n} (alpha, c)=({alpha:.6g}, {c:.6g})"

    def run(self):
        return solve(self.n, self.alpha, self.c, self.solver)

    @staticmethod
    def iterations(out):
        return out[1].iterations

    @staticmethod
    def digest(out):
        sol = out[1]
        return f"{sol.iterations}:{_digest(sol.x)}"

    def check(self, out):
        prob, sol = out
        x = sol.x
        tol = self.n * self.n * EPS
        floor = _is_floor_cell(prob.is_critical, self.solver)
        bound = FLOOR_BOUND if floor else ACCURATE_BOUND
        bad = []
        if not sol.converged:
            bad.append(f"not converged after {sol.iterations} steps")
        elif not min(sol.err_final, sol.res_final) < tol:
            # the solvers stop on 'either': update error or residual below n^2 eps
            bad.append(f"stopping metrics err={sol.err_final:.3e} "
                       f"res={sol.res_final:.3e} not below n^2 eps={tol:.3e}")
        if (self.expected_iterations is not None
                and abs(sol.iterations - self.expected_iterations) > PAPER_ITERATION_TOL):
            bad.append(f"{sol.iterations} steps, paper cell has "
                       f"{self.expected_iterations}")
        if not np.all(np.isfinite(x)):
            bad.append("non-finite entries in X")
            return bad
        if float(np.min(x)) < 0.0:
            bad.append(f"negative entry {float(np.min(x)):.3e} in X")
        res = diagnostics.normalized_residual(prob, x)
        if not res < NORMALIZED_RESIDUAL_BOUND:
            bad.append(f"normalized residual {res:.3e}")
        gap = _rel_diff(x, self.reference)
        if not gap < bound:
            bad.append(f"differs from the other solver family by {gap:.3e}")
        if prob.is_critical:
            for key, val in diagnostics.solution_identities(prob, x).items():
                if not val < bound:
                    bad.append(f"identity {key} gap {val:.3e}")
        return bad


class AnalysisJob:
    """One report call on a prepared critical problem and solution."""

    def __init__(self, label, call, check, iterations=0):
        self.label = label
        self._call = call
        self._check = check
        self._iterations = iterations

    def run(self):
        return self._call()

    def iterations(self, out):
        return self._iterations

    @staticmethod
    def digest(out):
        if isinstance(out, diagnostics.SolutionReport):
            values = [out.res, out.err_final, *out.identity_gaps.values()]
            return _digest(np.array(values)) + repr(out.m_matrix_certificates)
        if isinstance(out, spectra.SpectrumReport):
            return _digest(out.eigenvalues)
        return _digest(np.atleast_1d(out))

    def check(self, out):
        return self._check(out)


def _eigenvalue_check(reference):
    scale = float(np.max(np.abs(reference)))

    def check(values):
        values = np.sort(np.asarray(values, dtype=np.float64))
        if values.shape != reference.shape:
            return [f"{values.size} eigenvalues, dense reference has {reference.size}"]
        gap = float(np.max(np.abs(values - reference))) / scale
        return [] if gap < EIGENVALUE_BOUND else [f"eigenvalues off dense by {gap:.3e}"]

    return check


def _dense_real_eigenvalues(matrix):
    vals = np.linalg.eigvals(matrix)
    if float(np.max(np.abs(vals.imag))) > 1e-8 * float(np.max(np.abs(vals))):
        raise RuntimeError("dense reference spectrum is not real")
    return np.sort(vals.real)


def _report_check(out):
    bad = []
    if not out.res < NORMALIZED_RESIDUAL_BOUND:
        bad.append(f"normalized residual {out.res:.3e}")
    for key, status in out.m_matrix_certificates.items():
        if status != "nonsingular_m_matrix":
            bad.append(f"{key} certificate reads {status}")
    for key, val in out.identity_gaps.items():
        limit = SHIFT_EQUIVALENCE_BOUND if key == "shift_equivalence_gap" else ACCURATE_BOUND
        if not val < limit:
            bad.append(f"identity {key} gap {val:.3e}")
    return bad


def _rate_bound_reference(prob, spec, closed_loop):
    """rho(C(D-CX)) * rho(C(A-BY)) from the dense closed-loop spectrum.

    The smallest closed-loop eigenvalue (zero at the critical point) is
    replaced by eta on the primal side and by -xi on the dual side.
    """
    quad = prob.quad
    gamma = max(float(np.max(np.diag(quad.A))), float(np.max(np.diag(quad.D))))
    lams = closed_loop[1:]
    primal = np.concatenate([[spec.eta], lams])
    dual = np.concatenate([[-spec.xi], lams])
    cay = lambda z: np.abs((z - gamma) / (z + gamma))  # noqa: E731
    return float(np.max(cay(primal)) * np.max(cay(dual)))


def _analysis_jobs(n):
    prob = problem.build_problem(problem.quadrature_params(n))
    sol, spec, _ = cli.run_solver(prob, "sda-double", max_iter=SDA_CAP)
    if not sol.converged:
        raise RuntimeError(f"sda-double at n={n} did not converge")
    shifted = shift.shifted_coefficients(prob, spec, check=False)
    block, _ = problem.assemble_blocks(prob)
    shifted_block = np.block([[shifted.D, -shifted.C], [-shifted.B, shifted.A]])
    closed = _dense_real_eigenvalues(prob.quad.D - prob.quad.C @ sol.x)
    closed_check = _eigenvalue_check(closed)
    rate_ref = _rate_bound_reference(prob, spec, closed)

    def rate_check(rate):
        if not 0.0 < rate < 1.0:
            return [f"rate bound {rate!r} outside (0, 1)"]
        if abs(rate - rate_ref) > RATE_BOUND_TOL:
            return [f"rate bound {rate!r}, dense reference {rate_ref!r}"]
        return []

    def spectrum_check(reference):
        inner = _eigenvalue_check(reference)
        return lambda report: inner(report.eigenvalues)

    tag = f"n={n}"
    return [
        AnalysisJob(f"solution_report {tag}",
                    lambda: diagnostics.solution_report(prob, sol, shifted),
                    _report_check, iterations=sol.iterations),
        AnalysisJob(f"interlaced_spectrum {tag}",
                    lambda: spectra.interlaced_spectrum(prob),
                    spectrum_check(_dense_real_eigenvalues(block))),
        AnalysisJob(f"shifted_interlaced_spectrum {tag}",
                    lambda: spectra.shifted_interlaced_spectrum(prob, spec),
                    spectrum_check(_dense_real_eigenvalues(shifted_block))),
        AnalysisJob(f"sda_rate_bound {tag}",
                    lambda: spectra.sda_rate_bound(prob, spec),
                    rate_check),
        AnalysisJob(f"closed_loop_spectrum {tag}",
                    lambda: spectra.closed_loop_spectrum(prob),
                    closed_check),
    ]


def doubling_jobs(seed):
    crit_ref = reference_solution(256, 0.0, 1.0, "si-single")
    half_ref = reference_solution(256, 0.5, 0.5, "si")
    jobs = [SolverJob(256, 0.0, 1.0, solver, crit_ref, PAPER_ITERATIONS[solver])
            for solver in ("sda", "sda-single", "sda-double")]
    jobs.append(SolverJob(256, 0.5, 0.5, "sda", half_ref))
    return jobs


def vector_jobs(seed):
    near = (1e-4, 1.0 - 1e-4)
    near_ref = reference_solution(256, *near, "sda")
    crit_ref = reference_solution(512, 0.0, 1.0, "sda-double")
    return [
        SolverJob(256, *near, "si", near_ref),
        SolverJob(512, 0.0, 1.0, "si-single", crit_ref),
        SolverJob(512, 0.0, 1.0, "si-double", crit_ref),
    ]


def small_points(seed):
    """Stratified (n, alpha, c) draws for the many-small workload."""
    rng = np.random.default_rng(seed)
    lo, hi = (math.log(s) for s in S_RANGE)
    points = []
    for n in SMALL_SIZES:
        angle_strata = rng.permutation(POINTS_PER_SIZE)
        for k in range(POINTS_PER_SIZE):
            s = math.exp(lo + (hi - lo) * (k + rng.random()) / POINTS_PER_SIZE)
            phi = 0.5 * math.pi * (angle_strata[k] + rng.random()) / POINTS_PER_SIZE
            points.append((n, s * math.sin(phi), 1.0 - (s * math.cos(phi)) ** 2))
    return points


def many_small_jobs(seed):
    jobs = []
    for n, alpha, c in small_points(seed):
        jobs.append(SolverJob(n, alpha, c, "sda",
                              reference_solution(n, alpha, c, "si")))
        jobs.append(SolverJob(n, alpha, c, "si",
                              reference_solution(n, alpha, c, "sda")))
    for n in SMALL_SIZES:
        si_ref = reference_solution(n, 0.0, 1.0, "si-single")
        sda_ref = reference_solution(n, 0.0, 1.0, "sda-double")
        jobs += [SolverJob(n, 0.0, 1.0, "sda-single", si_ref),
                 SolverJob(n, 0.0, 1.0, "sda-double", si_ref),
                 SolverJob(n, 0.0, 1.0, "si-single", sda_ref),
                 SolverJob(n, 0.0, 1.0, "si-double", sda_ref)]
    return jobs


def analysis_jobs(seed):
    return _analysis_jobs(64) + _analysis_jobs(256)


WORKLOADS = {
    "doubling": doubling_jobs,
    "vector": vector_jobs,
    "many-small": many_small_jobs,
    "analysis": analysis_jobs,
}
