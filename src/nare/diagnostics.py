"""Error metrics, residuals, solution identities, M-matrix certificates.

``certify_m_matrix`` checks a dense matrix by its LU inverse.  The two that
``solution_report`` certifies, [[D, -C], [-B, A]] and D - CX, are a positive
diagonal minus rank two on the quadruple's factors, and are checked in O(n^2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix
from .linalg import inf_norm, inf_norms, lu_inverse, smw_factors
from .problem import require_critical

Z_PATTERN_TOL = 1e-14
INVERSE_SIGN_TOL = 1e-12
SHIFT_STACK = 16 * 64 ** 2  # cap on the entries of a residual temporary, at every n


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


def relative_residual(problem, x, x_norm=None):
    """Residual scaled by twice the iterate norm, ``x_norm`` if given: ||R(X)|| / (2 ||X||).

    This is the stopping metric; the vector solvers, which never form X in
    their loop, take it from ``factor_sweep_metrics`` (from
    ``classic_sweep_metrics``, O(n), for classic sweeps).  In the critical case
    delta_1 + d_1 = 2/omega_1 is close to 2, so the value tracks the relative
    fixed-point residual of X = T o ((Xq+e)(q^T X+e^T)); it is the convention
    under which the benchmark iteration counts reproduce.
    """
    x = np.asarray(x, dtype=np.float64)
    nx = inf_norm(x) if x_norm is None else x_norm
    if nx == 0.0:
        return math.inf
    r = residual_matrix(problem, x)
    return float(np.abs(r, out=r).sum(axis=1).max()) / (2.0 * nx)


def relative_update_error(pairs, norms=None):
    """max over (prev, curr) pairs of ||curr - prev|| / ||curr||; a pair of (k, n, n)
    stacks counts as its k pairs of matrices, taken in one set of calls, and ``norms``, if
    given, are the ||curr|| in order.  A zero-norm current iterate reports +inf and a NaN
    in either iterate reports NaN: neither must ever be read as convergence.
    """
    nums, dens = [], []
    for prev, curr in pairs:
        curr = np.asarray(curr, dtype=np.float64)
        nums += inf_norms(curr - prev, overwrite=True)
        dens += inf_norms(curr) if norms is None else []
    worst = 0.0
    for num, den in zip(nums, dens if norms is None else norms):
        if den == 0.0:
            return math.inf
        ratio = num / den
        if math.isnan(ratio):  # max() would drop it
            return math.nan
        worst = max(worst, ratio)
    return worst


def factor_sweep_metrics(sweeps, x_rows):
    """``relative_update_error`` and ``relative_residual`` of each step of a block of
    sweeps on X = T o (M N^T), in one call that never forms X.

    ``sweeps`` stacks the rows [M^T; N^T] of B + 1 iterates and the last one's next
    sweep, shape (B + 2, 2, r, n); step k goes from ``sweeps[k]`` to ``sweeps[k + 1]``,
    whose next sweep ``sweeps[k + 2]`` holds a = Xq + e as the last row of M^T and
    b = X^T q + e as the first row of N^T, so R(X) = M N^T - a b^T; ``x_rows`` (B, n)
    holds the row sums of |X|.  The rows of |[M, -a] [N, b]^T| are summed in chunks, each
    a stacked matmul of at most SHIFT_STACK entries, O(B n^2 r).  A NaN reports NaN, else
    a zero M or N an infinite error and a zero X an infinite residual.
    """
    cur, nxt = sweeps[1:-1], sweeps[2:]
    left = np.concatenate([cur[:, 0], -nxt[:, 0, -1:]], axis=1).transpose(0, 2, 1)
    right = np.concatenate([cur[:, 1], nxt[:, 1, :1]], axis=1)
    sums = np.empty(left.shape[:2])  # (B, n) row sums
    chunk = max(1, SHIFT_STACK // sums.size)
    for i in range(0, sums.shape[1], chunk):
        r = left[:, i:i + chunk] @ right
        np.abs(r, out=r).sum(axis=2, out=sums[:, i:i + chunk])
    rows = sums.max(axis=1)
    norms = np.abs(np.concatenate([cur - sweeps[:-2], cur], axis=1)).sum(axis=2).max(axis=2)
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
    peak = sweeps[1:-1].max(axis=2)  # max(m), max(n): the norms of monotone iterates
    sums = sweeps.sum(axis=2)
    rows = sweeps[2:, 0] * sums[2:, 1:] - sweeps[1:-1, 0] * sums[1:-1, 1:]
    nx = x_rows.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where((peak == 0.0).any(axis=1), math.inf,
                       (rise[:-1].max(axis=2) / peak).max(axis=1))
        res = np.where(nx == 0.0, math.inf, rows.max(axis=1) / (2.0 * nx))
    metrics = list(zip(err.tolist(), res.tolist()))
    if not rise.min() >= 0.0 <= sweeps[0].min():  # some step falls or holds a NaN: which?
        low_rise = rise.min(axis=(1, 2))
        low = np.minimum(sweeps[:-2].min(axis=(1, 2)), np.minimum(low_rise[:-1], low_rise[1:]))
        for k in np.flatnonzero(~(low >= 0.0)):
            metrics[k] = factor_sweep_metrics(sweeps[k:k + 3, :, None], x_rows[k:k + 1])[0]
    return metrics


def solution_identities(problem, x):
    """Gaps of the critical-case solution identities, each relative.

    X v1 = v2, u2^T X = -u1^T, and X = X^T, with the critical null vectors
    v = (q/gamma, e/delta) and u = (e/gamma, -q/delta) of the block matrix;
    returns their normalized violations.  A non-solution X produces O(1) gaps.
    """
    require_critical(problem, "the solution-identity check")
    q, e, gamma, delta = problem.q, problem.e, problem.gamma, problem.delta
    v1, v2, u1, u2 = q / gamma, e / delta, e / gamma, -q / delta
    x = np.asarray(x, dtype=np.float64)
    gap_v = inf_norm(x @ v1 - v2) / inf_norm(v2)
    gap_u = inf_norm(u2 @ x + u1) / inf_norm(u1)
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
    interchangeable with the original.  On the quadruple's factors both
    share -X Gamma - Delta X, so the gap is
    ||(X Q1 + E2)(X^T Q2 + E1)^T - (Xq + e)(q^T X + e^T)||, O(n^2).
    """
    x = np.asarray(x, dtype=np.float64)
    left = np.column_stack([x @ quad.q1 + quad.e2, -(x @ problem.q + problem.e)])
    return inf_norm(left @ np.column_stack([x.T @ quad.q2 + quad.e1,
                                            problem.q @ x + problem.e]).T)


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

    The inverse is diag(dg)^-1 + (dg^-1 U) S^-1 (V^T dg^-1), gated on S by ``smw_factors``.
    """
    p = u @ v.T
    diag = dg - p.diagonal()
    np.fill_diagonal(p, 0.0)  # minus the off-diagonal part
    worst = max(0.0, -float(p.min()))
    # ||M|| >= max |M_ii|: the row sums are read only for an entry above that gate
    if worst > Z_PATTERN_TOL * np.abs(diag).max() and worst > Z_PATTERN_TOL * (
            np.abs(p).sum(axis=1) + np.abs(diag)).max():
        return MMatrixCertificate(status="z_matrix_violation", worst_offdiag=worst)
    try:
        ud, s_inv = smw_factors(dg, u, v)
    except SingularMatrix:
        return MMatrixCertificate(status="singular_or_not", worst_offdiag=worst)
    inv = ud @ (s_inv @ (v.T / dg))
    inv.flat[::len(dg) + 1] += 1.0 / dg
    return _sign_certificate(worst, inv)


def solution_report(problem, solution, shifted_quad=None):
    """Assemble a SolutionReport for a solve on ``problem``.

    Identity gaps are only defined in the critical case; the certificates
    use the factors of the quadruple that was actually solved when a
    shifted one is supplied, and D - CX = Gamma - Q1 (X^T Q2 + E1)^T.
    """
    x = np.asarray(solution.x, dtype=np.float64)
    quad = problem.quad if shifted_quad is None else shifted_quad
    gaps = {}
    if problem.is_critical:
        gaps = solution_identities(problem, x)
        if shifted_quad is not None:
            gaps["shift_equivalence_gap"] = shift_equivalence_gap(problem, shifted_quad, x)
    certs = {
        "closed_loop": _certify_low_rank(quad.gamma, quad.q1, x.T @ quad.q2 + quad.e1).status,
        "block_matrix": _certify_low_rank(np.concatenate([quad.gamma, quad.delta]),
                                          np.vstack([quad.q1, quad.e2]),
                                          np.vstack([quad.e1, quad.q2])).status,
    }
    rate, order = convergence_order(solution.err_history)
    return SolutionReport(
        res=normalized_residual(problem, x),
        err_final=solution.err_final,
        identity_gaps=gaps,
        m_matrix_certificates=certs,
        rate_estimate=rate,
        order_estimate=order,
    )


def convergence_order(err_history):
    """Empirical (rate, order) from an error history.

    Works on the trailing strictly-decreasing positive run: rate is the
    geometric mean of successive ratios, order the least-squares slope of
    log e_{k+1} against log e_k.  A run shorter than 4 entries gives (nan, nan).
    """
    run = []
    for e in reversed([float(e) for e in err_history]):
        # walking back, stop at a non-positive or non-finite entry or one that does not rise
        if not 0.0 < e < math.inf or (run and e <= run[-1]):
            break
        run.append(e)
    run.reverse()
    if len(run) < 4:
        return math.nan, math.nan
    logs = np.log(run)
    rate = float(np.exp((logs[-1] - logs[0]) / (len(run) - 1)))
    x, y = logs[:-1], logs[1:]
    slope = float(np.polyfit(x, y, 1)[0])
    return rate, slope
