"""Error metrics, residuals, solution identities, M-matrix certificates."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHistory, SingularMatrix
from .linalg import inf_norm, lu_inverse
from .problem import block_matrix, critical_eigenvectors

Z_PATTERN_TOL = 1e-14
INVERSE_SIGN_TOL = 1e-12


def residual_matrix(problem, x):
    """X Gamma + Delta X - (Xq + e)(q^T X + e^T); equals -(XCX - XD - AX + B).

    The rank-structure identity holds for every (alpha, c): expanding
    (Xq + e)(q^T X + e^T) reproduces the quadratic terms of the Riccati
    operator, so the displacement form below avoids any n^3 product.
    """
    m = x @ problem.q + problem.e
    n = problem.q @ x + problem.e
    r = np.multiply(x, problem.gamma)
    r += (tmp := problem.delta[:, None] * x)
    r -= np.multiply.outer(m, n, out=tmp)
    return r


def normalized_residual(problem, x):
    """Relative residual with the fully normalized denominator

    ||X||*||Gamma|| + ||X||*||Delta|| + (||X||*||q|| + ||e||)(||q^T||*||X|| + ||e^T||)

    where row-vector norms are absolute sums (||q^T|| = sum|q_i|,
    ||e^T|| = n).  Equals 1 at X = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    r = residual_matrix(problem, x)
    num = float(np.abs(r, out=r).sum(axis=1).max())
    nx = inf_norm(x)
    den = (nx * inf_norm(problem.gamma) + nx * inf_norm(problem.delta)
           + (nx * float(np.max(np.abs(problem.q))) + 1.0)
           * (float(np.sum(np.abs(problem.q))) * nx + problem.n))
    return num / den


def relative_residual(problem, x):
    """Residual scaled by twice the iterate norm: ||R(X)|| / (2 ||X||).

    This is the stopping metric; the vector solvers, which never form X in
    their loop, take it from ``vector_step_metrics`` (from
    ``classic_sweep_metrics``, O(n), for classic sweeps).  In the critical case
    delta_1 + d_1 = 2/omega_1 is close to 2, so the value tracks the relative
    fixed-point residual of X = T o ((Xq+e)(q^T X+e^T)); it is the convention
    under which the benchmark iteration counts reproduce.
    """
    x = np.asarray(x, dtype=np.float64)
    nx = inf_norm(x)
    if nx == 0.0:
        return math.inf
    r = residual_matrix(problem, x)
    return float(np.abs(r, out=r).sum(axis=1).max()) / (2.0 * nx)


def relative_update_error(pairs):
    """max over (prev, curr) pairs of ||curr - prev|| / ||curr||.

    A zero-norm current iterate reports +inf and a NaN in either iterate
    reports NaN: neither must ever be read as convergence.
    """
    return _update_error(pairs)  # separate body: a tracer on this name misses vector_step_metrics


def _update_error(pairs):
    worst = 0.0
    for prev, curr in pairs:
        den = inf_norm(curr)
        if den == 0.0:
            return math.inf
        ratio = inf_norm(np.asarray(curr) - np.asarray(prev)) / den
        if math.isnan(ratio):  # max() would drop it
            return math.nan
        worst = max(worst, ratio)
    return worst


def vector_step_metrics(prev, cur, ab, x_rows):
    """``relative_update_error`` from ``prev`` to ``cur`` and ``relative_residual``
    of X = T o (M N^T), ``cur`` = (M, N), in one call that never forms X.

    ``ab`` holds the next sweep's a = Xq + e, b = X^T q + e, so R(X) = M N^T - a b^T,
    and ``x_rows`` the row sums of |X|.  The rows of |[M, -a] [N, b]^T| are summed,
    O(n^2); ``classic_sweep_metrics`` is the O(n) path for monotone classic sweeps.
    """
    err = _update_error(zip(prev, cur))
    nx = float(x_rows.max())
    if nx == 0.0:
        return err, math.inf
    r = np.column_stack([cur[0], -ab[0]]) @ np.column_stack([cur[1], ab[1]]).T
    return err, float(np.abs(r, out=r).sum(axis=1).max()) / (2.0 * nx)


def classic_sweep_metrics(sweeps, x_rows):
    """``vector_step_metrics`` of each step of a block of classic sweeps, in one call.

    ``sweeps`` stacks the rows [m; n] of B + 1 iterates and the last one's [a; b];
    step k reads (prev, cur, ab) = ``sweeps[k:k + 3]`` and ``x_rows[k]``.  A monotone
    step 0 <= prev <= cur <= ab, as every classic sweep is, takes O(n): norms are
    row maxima and R <= 0 has row sums a_i sum(b) - m_i sum(n), each rounded as
    alone.  A step that falls or holds a NaN goes as pairs.
    """
    rise = sweeps[1:] - sweeps[:-1]  # cur - prev, then ab - cur, of each step
    low_rise = rise.min(axis=(1, 2))
    low = np.minimum(sweeps[:-2].min(axis=(1, 2)), np.minimum(low_rise[:-1], low_rise[1:]))
    peak = sweeps[1:-1].max(axis=2)  # max(m), max(n): the norms of monotone iterates
    sums = sweeps.sum(axis=2)
    rows = sweeps[2:, 0] * sums[2:, 1:] - sweeps[1:-1, 0] * sums[1:-1, 1:]
    nx = x_rows.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where((peak == 0.0).any(axis=1), math.inf,
                       (rise[:-1].max(axis=2) / peak).max(axis=1))
        res = np.where(nx == 0.0, math.inf, rows.max(axis=1) / (2.0 * nx))
    metrics = list(zip(err.tolist(), res.tolist()))
    for k in np.flatnonzero(~(low >= 0.0)):
        metrics[k] = vector_step_metrics(*sweeps[k:k + 3], x_rows[k])
    return metrics


def solution_identities(problem, x):
    """Gaps of the critical-case solution identities, each relative.

    X v1 = v2, u2^T X = -u1^T, and X = X^T; returns their normalized
    violations.  A non-solution X produces O(1) gaps.
    """
    vec = critical_eigenvectors(problem)
    x = np.asarray(x, dtype=np.float64)
    gap_v = inf_norm(x @ vec.v1 - vec.v2) / inf_norm(vec.v2)
    gap_u = inf_norm(vec.u2 @ x + vec.u1) / inf_norm(vec.u1)
    nx = inf_norm(x)
    gap_sym = inf_norm(x - x.T) / nx if nx > 0 else 0.0
    return {
        "Xv1_minus_v2": gap_v,
        "u2X_plus_u1": gap_u,
        "symmetry_gap": gap_sym,
    }


def shift_equivalence_gap(problem, quad, x):
    """||Rbar(X) - R(X)||_inf for a shifted quadruple: zero at the solution.

    Rbar uses the shifted coefficients and R the original equation, from
    the problem's vectors (``residual_matrix``); their agreement at the
    minimal solution is what makes the shifted equation interchangeable
    with the original.
    """
    x = np.asarray(x, dtype=np.float64)
    r0 = -residual_matrix(problem, x)
    r1 = x @ quad.C @ x - x @ quad.D - quad.A @ x + quad.B
    return inf_norm(r1 - r0)


@dataclass(frozen=True)
class MMatrixCertificate:
    """Outcome of the Z/M-matrix check.

    status is one of:
      nonsingular_m_matrix  - Z pattern and entrywise nonnegative inverse
      singular_or_not       - Z pattern but singular or inverse not >= 0
      z_matrix_violation    - a positive off-diagonal entry
    """

    status: str
    worst_offdiag: float
    min_inverse_entry: float = math.nan

    @property
    def is_nonsingular_m_matrix(self):
        return self.status == "nonsingular_m_matrix"


def certify_m_matrix(a):
    """Certify a square matrix as a nonsingular M-matrix, or say why not.

    Off-diagonal entries up to 1e-14 * ||A|| above zero are treated as
    rounding; the computed inverse may carry entries down to
    -1e-12 * ||A^-1|| and still certify.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    scale = inf_norm(a)
    off = a - np.diag(np.diag(a))
    worst = float(np.max(off)) if n > 1 else 0.0
    if worst > Z_PATTERN_TOL * scale:
        return MMatrixCertificate(status="z_matrix_violation", worst_offdiag=worst)
    try:
        inv = lu_inverse(a)
    except SingularMatrix:
        return MMatrixCertificate(status="singular_or_not", worst_offdiag=worst)
    min_entry = float(np.min(inv))
    if min_entry >= -INVERSE_SIGN_TOL * inf_norm(inv):
        return MMatrixCertificate(status="nonsingular_m_matrix",
                                  worst_offdiag=worst, min_inverse_entry=min_entry)
    return MMatrixCertificate(status="singular_or_not", worst_offdiag=worst,
                              min_inverse_entry=min_entry)


@dataclass(frozen=True)
class SolutionReport:
    """Bundle of quality metrics for one computed solution.

    ``res`` is the fully normalized residual; ``identity_gaps`` and
    ``m_matrix_certificates`` are keyed maps, and the rate/order fields
    are NaN when the history is too short to estimate them.
    """

    res: float
    err_final: float
    identity_gaps: dict
    m_matrix_certificates: dict
    rate_estimate: float
    order_estimate: float


def solution_report(problem, solution, shifted_quad=None):
    """Assemble a SolutionReport for a solve on ``problem``.

    Identity gaps are only defined in the critical case; the closed-loop
    certificate uses the quadruple that was actually solved when a
    shifted one is supplied.
    """
    x = solution.x
    gaps = {}
    if problem.is_critical:
        gaps = solution_identities(problem, x)
        if shifted_quad is not None:
            gaps["shift_equivalence_gap"] = shift_equivalence_gap(
                problem, shifted_quad, x)
    quad = shifted_quad if shifted_quad is not None else problem.quad
    certs = {
        "closed_loop": certify_m_matrix(quad.D - quad.C @ x).status,
        "block_matrix": certify_m_matrix(block_matrix(quad)).status,
    }
    try:
        rate, order = convergence_order(solution.err_history)
    except InsufficientHistory:
        rate, order = math.nan, math.nan
    return SolutionReport(
        res=normalized_residual(problem, x),
        err_final=solution.err_final,
        identity_gaps=gaps,
        m_matrix_certificates=certs,
        rate_estimate=rate,
        order_estimate=order,
    )


def convergence_order(err_history, window=None):
    """Empirical (rate, order) from an error history.

    Works on the trailing strictly-decreasing positive window (or the
    last ``window`` entries of it): rate is the geometric mean of
    successive ratios, order the least-squares slope of
    log e_{k+1} against log e_k.
    """
    run = []
    for e in reversed([float(e) for e in err_history]):
        # walking back, stop at a non-positive or non-finite entry or one that does not rise
        if not 0.0 < e < math.inf or (run and e <= run[-1]):
            break
        run.append(e)
    run.reverse()
    if window is not None:
        run = run[-int(window):]
    if len(run) < 4:
        raise InsufficientHistory(
            f"need at least 4 strictly decreasing positive entries, have {len(run)}"
        )
    logs = np.log(run)
    rate = float(np.exp((logs[-1] - logs[0]) / (len(run) - 1)))
    x, y = logs[:-1], logs[1:]
    slope = float(np.polyfit(x, y, 1)[0])
    return rate, slope
