"""Error metrics, residuals, solution identities, M-matrix certificates.

``certify_m_matrix`` checks a dense matrix by its LU inverse.  The two that
``solution_report`` certifies, [[D, -C], [-B, A]] and D - CX, are a positive
diagonal minus rank two on the quadruple's ``form``, and are checked in O(n^2).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import InsufficientHistory, SingularMatrix
from .linalg import EPS, inf_norm, lu_inverse
from .problem import critical_eigenvectors, low_rank_form

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
    their loop, take it from ``factor_sweep_metrics`` (from
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


def factor_sweep_metrics(factors, ab, x_rows):
    """``relative_update_error`` and ``relative_residual`` of each step of a block of
    sweeps on X = T o (M N^T), in one call that never forms X.

    ``factors`` stacks [M^T, N^T] of B + 1 iterates, shape (B + 1, 2, r, n); step k
    goes from ``factors[k]`` to ``factors[k + 1]``.  ``ab`` (B, 2, n) holds each step's
    next-sweep columns a = Xq + e, b = X^T q + e, so R(X) = M N^T - a b^T, and
    ``x_rows`` (B, n) the row sums of |X|.  The rows of |[M, -a] [N, b]^T| are summed
    from one stacked matmul, O(B n^2 r).  A NaN reports NaN, else a zero M or N
    an infinite error and a zero X an infinite residual.
    """
    cur = factors[1:]
    left = np.concatenate([cur[:, 0], -ab[:, :1]], axis=1).transpose(0, 2, 1)
    r = left @ np.concatenate([cur[:, 1], ab[:, 1:]], axis=1)
    rows = np.abs(r, out=r).sum(axis=2).max(axis=1)
    norms = np.abs(np.concatenate([cur - factors[:-1], cur], axis=1)).sum(axis=2).max(axis=2)
    metrics = []  # B is small: plain floats divide faster than arrays under errstate
    for (dm, dn, m, n), row, nx in zip(norms.tolist(), rows.tolist(), x_rows.max(axis=1).tolist()):
        err = math.nan if math.isnan(dm + dn + m + n) else (
            max(dm / m, dn / n) if m != 0.0 and n != 0.0 else math.inf)
        metrics.append((err, row / (2.0 * nx) if nx != 0.0 else math.inf))
    return metrics


def classic_sweep_metrics(sweeps, x_rows):
    """``factor_sweep_metrics`` of each step of a block of classic sweeps, O(n) a step.

    ``sweeps`` stacks the rows [m; n] of B + 1 iterates and the last one's [a; b];
    step k reads (prev, cur, ab) = ``sweeps[k:k + 3]`` and ``x_rows[k]``.  A monotone
    step 0 <= prev <= cur <= ab, as every classic sweep is, takes O(n): norms are
    row maxima and R <= 0 has row sums a_i sum(b) - m_i sum(n), each rounded as
    alone.  A step that falls or holds a NaN goes to ``factor_sweep_metrics`` (r = 1).
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
        metrics[k] = factor_sweep_metrics(sweeps[k:k + 2, :, None], sweeps[k + 2:k + 3],
                                          x_rows[k:k + 1])[0]
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

    Rbar uses the shifted coefficients and R the original equation; their
    agreement at the minimal solution is what makes the shifted equation
    interchangeable with the original.  On the quadruple's ``form`` both
    share -X Gamma - Delta X, so the gap is
    ||(X Q1 + E2)(X^T Q2 + E1)^T - (Xq + e)(q^T X + e^T)||, O(n^2).
    """
    x, f = np.asarray(x, dtype=np.float64), quad.form
    left = np.column_stack([x @ f.q1 + f.e2, -(x @ problem.q + problem.e)])
    return inf_norm(left @ np.column_stack([x.T @ f.q2 + f.e1, problem.q @ x + problem.e]).T)


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
    return _sign_certificate(worst, inv)


def _sign_certificate(worst, inv):
    min_entry = float(inv.min())  # the norm is read only for a negative entry
    ok = min_entry >= 0.0 or min_entry >= -INVERSE_SIGN_TOL * inf_norm(inv)
    return MMatrixCertificate(status="nonsingular_m_matrix" if ok else "singular_or_not",
                              worst_offdiag=worst, min_inverse_entry=min_entry)


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


def _certify_low_rank(dg, u, v):
    """``certify_m_matrix`` of diag(dg) - U V^T, dg > 0, U and V N x r, in O(N^2 r).

    By Sherman-Morrison-Woodbury the inverse is diag(dg)^-1 + (dg^-1 U) S^-1 (V^T dg^-1),
    S = I - V^T dg^-1 U.  S is singular when an LU pivot falls below
    N eps ||I + |V|^T dg^-1 |U| ||, the size of the sums that formed it, as
    ``lu_factor`` scales its gate by ||A||; ||S|| is no scale, as S cancels to
    about N eps at the critical point.
    """
    n, eye = len(dg), np.eye(u.shape[1])
    p = u @ v.T
    diag = dg - p.diagonal()
    np.fill_diagonal(p, 0.0)  # minus the off-diagonal part
    worst = max(0.0, -float(p.min()))
    # ||M|| >= max |M_ii|: the row sums are read only for an entry above that gate
    if worst > Z_PATTERN_TOL * np.abs(diag).max() and worst > Z_PATTERN_TOL * (
            np.abs(p).sum(axis=1) + np.abs(diag)).max():
        return MMatrixCertificate(status="z_matrix_violation", worst_offdiag=worst)
    ud = u / dg[:, None]
    lu, piv, _ = lapack.dgetrf(eye - v.T @ ud)
    if np.abs(lu.diagonal()).min() < n * EPS * inf_norm(eye + np.abs(v).T @ np.abs(ud)):
        return MMatrixCertificate(status="singular_or_not", worst_offdiag=worst)
    inv = ud @ lapack.dgetrs(lu, piv, v.T / dg)[0]
    inv.flat[::n + 1] += 1.0 / dg
    return _sign_certificate(worst, inv)


def solution_report(problem, solution, shifted_quad=None):
    """Assemble a SolutionReport for a solve on ``problem``.

    Identity gaps are only defined in the critical case; the certificates
    use the ``form`` of the quadruple that was actually solved when a
    shifted one is supplied, and D - CX = Gamma - Q1 (X^T Q2 + E1)^T.
    """
    x = np.asarray(solution.x, dtype=np.float64)
    form = shifted_quad.form if shifted_quad is not None else low_rank_form(problem)
    if form is None:
        raise ValueError("a quadruple built by hand carries no form to report on")
    gaps = {}
    if problem.is_critical:
        gaps = solution_identities(problem, x)
        if shifted_quad is not None:
            gaps["shift_equivalence_gap"] = shift_equivalence_gap(problem, shifted_quad, x)
    certs = {
        "closed_loop": _certify_low_rank(form.gamma, form.q1, x.T @ form.q2 + form.e1).status,
        "block_matrix": _certify_low_rank(np.concatenate([form.gamma, form.delta]),
                                          np.vstack([form.q1, form.e2]),
                                          np.vstack([form.e1, form.q2])).status,
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
