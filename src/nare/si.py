"""Vector fixed-point solvers built on the Hadamard solution form.

The minimal solution factors as X = T o (m n^T) with
T_ij = 1/(delta_i + d_j), reducing the matrix equation to the coupled
vector fixed point

    m = m o T (q o n) + e,   n = n o T^T (q o m) + e.

A classic sweep reads the kernel once: one batched product of [q o n; n] and [q o m; m]
with the stacked [T^T; T] gives both updates and T n.  The shifted variant iterates
rank-two factors M = [m1, m2], N = [n1, n2] of Z = T o (M N^T) at (alpha, c) = (0, 1),
where T = T^T, through one thin (10 x n) GEMM with T per sweep, O(n^2).  Both carry one
``SiState``: factor rows ([m; n], 2 x n, or [M^T; N^T], 2 x 2 x n), the next sweep's
rows and X's row sums.  X is not formed in the loop (Z only for ||Z|| if a factor entry
turns negative): X Gamma + Delta X = M N^T, and Xq + e, X^T q + e are rows a, b of the
next sweep, so the residual is R = M N^T - a b^T, exact up to rounding.  Sweeps run in
blocks, each measured in one call on its (B + 2, 2, r, n) stack of rows:
``diagnostics.classic_sweep_metrics``, O(n) a sweep, for SWEEP_BLOCK classic sweeps;
``diagnostics.factor_sweep_metrics``, O(n^2) a sweep, for up to
``diagnostics.SHIFT_STACK`` / n^2 shifted ones (one from n = 256, and above that its
residual in row chunks).  Sweeps run past the stop are dropped.  X or Z is built at
return, by ``si_solution``.
"""

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import diagnostics
from .problem import low_rank_form, require_critical
from .shift import validate_shift
from .solution import check_config, iterate

SWEEP_BLOCK = 16  # classic sweeps run, and measured in one call, at a time
# [M, M, N, N, M, M, N] of [M^T; N^T]: [2:] scales [Q1^T; Q2^T; e] before T, [:5] after
_PICK = np.array([0, 0, 1, 1, 0, 0, 1])


@dataclass(frozen=True)
class SiConfig:
    tol: Optional[float] = None
    max_iter: int = 10000
    stop_rule: str = "either"
    __post_init__ = check_config


@dataclass(frozen=True)
class HadamardKernel:
    """The entrywise-positive kernel T_ij = 1/(delta_i + d_j), as TT = [T^T; T], and qe = [q; e].

    ([q; e] * [b; a]) @ TT, one (2, 2, n) product, holds T (q o b), T b, T^T (q o a), T^T a.
    """

    TT: np.ndarray
    qe: np.ndarray

    T = property(lambda self: self.TT[1])


@dataclass
class SiState:
    """Factor rows [m; n] of X = T o (m^T n), the next sweep's rows [a; b] and X's row sums.

    Classic sweeps hold 2 x n rows; shifted ones 2 x 2 x n rows [M^T; N^T].
    """

    mn: np.ndarray
    ab: np.ndarray
    x_rows: np.ndarray

    m = property(lambda self: self.mn[0])
    n = property(lambda self: self.mn[1])


def build_kernel(problem):
    # T^T_ij = 1/(d_i + delta_j), the swapped sum, rounds as the transpose does: both
    # halves come from one division, row-major, and at (0, 1) both are T bit for bit
    dg = np.array([problem.gamma, problem.delta])
    tt = 1.0 / (dg[:, :, None] + dg[::-1, None, :])
    return HadamardKernel(tt, np.array([problem.q, problem.e]))


def si_init(problem):
    return SiState(np.zeros((2, problem.n)), np.ones((2, problem.n)), np.zeros(problem.n))


def si_step(kernel, state):
    """Make the next sweep's vectors current and run the sweep after them."""
    prod = (kernel.qe * state.ab[::-1, None]) @ kernel.TT
    ab = state.ab * prod[:, 0]
    ab += 1.0
    return SiState(state.ab, ab, state.ab[0] * prod[0, 1])


def si_solution(kernel, m, n):
    """X = T o (m^T n) for factor rows m, n: vectors (r = 1) or r x n."""
    k = m.shape[-1]
    return kernel.T * (m.reshape(-1, k).T @ n.reshape(-1, k))


def _block_metrics(metric, states):
    """``metric`` of a block on its (B + 2, 2, r, n) stack of rows and X's row sums."""
    return metric(np.array([s.mn for s in states] + [states[-1].ab]),
                  np.array([s.x_rows for s in states[1:]]))


def si_solve(problem, config=None):
    """Classic vector iteration from m = n = 0.

    Converges linearly off the critical case and sublinearly at it, in
    which case the iteration is expected to hit max_iter.
    """
    kernel = build_kernel(problem)
    return iterate(problem, si_init(problem), partial(si_step, kernel),
                   partial(_block_metrics, diagnostics.classic_sweep_metrics), SWEEP_BLOCK,
                   lambda s: si_solution(kernel, *s.mn), config or SiConfig(), "si")


def si_shift_init(problem, shift):
    """The shifted sweep's constant rows and its zero iterate, M = N = 0.

    Checks the critical case, whose T = T^T the sweep relies on, and the closure of the
    shift region.  The rows are [Q1^T; Q2^T; e] (with a broadcast axis) and [E2^T; E1^T].
    """
    require_critical(problem, "the shifted vector iteration")
    validate_shift(shift.eta, shift.xi, shift.mode, float(problem.omegas[0]), relaxed=True)
    f = low_rank_form(problem, shift.eta, shift.xi)
    rows = np.vstack([f.q1.T, f.q2.T, problem.e])[:, None], np.array([f.e2.T, f.e1.T])
    return rows, SiState(np.zeros((2, 2, problem.n)), rows[1], np.zeros(problem.n))


def si_shift_step(kernel, rows, state):
    """Make the next sweep's factor rows current and run the shifted sweep after them:

        M_next = Z Q1 + E2,   N_next = Z^T Q2 + E1,   Z = T o (M N^T)

    with ``rows`` from ``si_shift_init``.  Z is never formed: Z Q1 = sum_k M_k o T (N_k o Q1)
    and Z^T Q2 = sum_k N_k o T^T (M_k o Q2) come, as T = T^T, from one thin GEMM, with e
    beside Q1 for the row sums Z e.  Column by column, m1 = Z (I - eta Gamma^-1) q +
    (I + eta Delta^-1) e, m2 = Z q + e, n1 = Z^T q + e and n2 = -xi (Gamma^-1 e -
    Z^T Delta^-1 q); at xi = 0 the second dual column vanishes identically and the
    scheme degenerates to the classic fixed point on Z.
    """
    scale, e21 = rows
    mn = state.ab.take(_PICK, axis=0)
    # factors as 10 x n rows: a k x n by n x n GEMM ran faster than n x n by n x k
    t_f = ((scale * mn[2:]).reshape(10, -1) @ kernel.T).reshape(5, 2, -1)
    z_q = (t_f * mn[:5]).sum(axis=1)  # rows (Z Q1)^T, (Z^T Q2)^T and (Z e)^T
    z_rows = np.abs(si_solution(kernel, *state.ab)).sum(axis=1) if state.ab.min() < 0.0 else z_q[4]
    return SiState(state.ab, z_q[:4].reshape(e21.shape) + e21, z_rows)


def si_shifted_solve(problem, shift, config=None):
    """Shifted low-rank iteration from M = N = 0 (closure of the region allowed)."""
    kernel = build_kernel(problem)
    rows, state = si_shift_init(problem, shift)
    size = max(1, min(SWEEP_BLOCK, diagnostics.SHIFT_STACK // problem.n ** 2))
    return iterate(problem, state, partial(si_shift_step, kernel, rows),
                   partial(_block_metrics, diagnostics.factor_sweep_metrics), size,
                   lambda s: si_solution(kernel, *s.mn), config or SiConfig(), f"si-{shift.mode}")
