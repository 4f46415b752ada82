"""Vector fixed-point solvers built on the Hadamard solution form.

The minimal solution factors as X = T o (m n^T) with
T_ij = 1/(delta_i + d_j), reducing the matrix equation to the coupled
vector fixed point

    m = m o (P n) + e,   n = n o (Q m) + e.

The shifted variant iterates rank-two factors M = [m1, m2], N = [n1, n2]
of Z = T o (M N^T) through two thin GEMMs with T per sweep, O(n^2).  X and Z
are not formed in the loop (Z only for ||Z|| if a factor entry turns negative):
X Gamma + Delta X = M N^T, and Xq + e, X^T q + e are columns a, b of the next
sweep, which each state carries, so the residual is R = M N^T - a b^T, exact
up to rounding.  Both solvers run their sweeps in blocks, each measured in
one call: ``diagnostics.classic_sweep_metrics``, O(n) a sweep, takes
SWEEP_BLOCK classic sweeps; ``diagnostics.factor_sweep_metrics``, O(n^2) a
sweep, up to SHIFT_STACK / n^2 shifted ones (one a block from n = 256).  Sweeps
run past the stop are dropped.  X or Z is built at return.
"""

from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from . import diagnostics
from .shift import low_rank_factors
from .solution import check_config, iterate

SWEEP_BLOCK = 16  # classic sweeps run, and measured in one call, at a time
SHIFT_STACK = SWEEP_BLOCK * 64 ** 2  # cap on B n^2, the entries of a shifted block's residuals


@dataclass(frozen=True)
class SiConfig:
    tol: Union[float, str] = "auto"
    max_iter: int = 10000
    stop_rule: str = "either"
    __post_init__ = check_config


@dataclass(frozen=True)
class HadamardKernel:
    """Entrywise-positive kernel matrices of the Hadamard form.

    T_ij = 1/(delta_i + d_j); P scales T's columns by q_j; Qm_ij = q_j T_ji.
    PT = [P; T], so one GEMV gives both P b and T b.
    """

    PT: np.ndarray
    Qm: np.ndarray

    P = property(lambda self: self.PT[:len(self.Qm)])
    T = property(lambda self: self.PT[len(self.Qm):])


@dataclass
class SiState:
    """2 x n rows [m; n] and the next sweep's [Xq + e; X^T q + e]; X's row sums m o (T n)."""

    mn: np.ndarray
    ab: np.ndarray
    x_rows: np.ndarray

    m = property(lambda self: self.mn[0])
    n = property(lambda self: self.mn[1])


@dataclass
class SiShiftState:
    """Factors of Z = T o (M N^T), the next sweep's factors, and Z's row sums."""

    M: np.ndarray
    N: np.ndarray
    M_next: np.ndarray
    N_next: np.ndarray
    z_rows: np.ndarray
    low_rank: tuple  # [Q1 e]^T, Q2^T (with a broadcast axis), E1^T, E2^T


def build_kernel(problem):
    t = 1.0 / (problem.delta[:, None] + problem.gamma[None, :])
    # keep all three row-major so the critical case's m/n symmetry is
    # bitwise (a transposed layout changes the BLAS summation order)
    qm = np.ascontiguousarray(t.T) * problem.q[None, :]
    return HadamardKernel(PT=np.vstack([t * problem.q[None, :], t]), Qm=qm)


def si_init(problem):
    return SiState(np.zeros((2, problem.n)), np.ones((2, problem.n)), np.zeros(problem.n))


def si_step(kernel, state):
    """Make the next sweep's vectors current and run the sweep after them."""
    p_b, t_b = (kernel.PT @ state.ab[1]).reshape(2, -1)
    ab = state.ab * np.array([p_b, kernel.Qm @ state.ab[0]])
    ab += 1.0
    return SiState(state.ab, ab, state.ab[0] * t_b)


def _classic_metrics(states):
    sweeps = np.array([s.mn for s in states] + [states[-1].ab])
    return diagnostics.classic_sweep_metrics(sweeps, np.array([s.x_rows for s in states[1:]]))


def si_solution(kernel, m, n):
    """X = T o (m n^T) for the classic iterate vectors."""
    return kernel.T * np.outer(m, n)


def si_solve(problem, config=None):
    """Classic vector iteration from m = n = 0.

    Converges linearly off the critical case and sublinearly at it, in
    which case the iteration is expected to hit max_iter.
    """
    kernel = build_kernel(problem)
    return iterate(problem, si_init(problem), partial(si_step, kernel), _classic_metrics,
                   SWEEP_BLOCK, lambda s: si_solution(kernel, *s.mn), config or SiConfig(), "si")


def factors_to_solution(kernel, m_fac, n_fac):
    """Z = T o (M N^T) for n x 2 factor matrices."""
    return kernel.T * (m_fac @ n_fac.T)


def si_shift_init(problem, shift):
    """Zero iterate of the shifted scheme; validates the relaxed shift region."""
    q1, q2, e1, e2 = low_rank_factors(problem, shift)
    q1e = np.vstack([q1.T, problem.e])[:, None]
    zero = np.zeros((2, problem.n))
    return SiShiftState(zero.T, zero.T, e2, e1, zero[0],
                        (q1e, q2.T[:, None], e1.T.copy(), e2.T.copy()))


def si_shift_step(kernel, state):
    """Make the next sweep's factors current and run the shifted sweep after them:

        M_next = Z Q1 + E2,   N_next = Z^T Q2 + E1,   Z = T o (M N^T)

    with the factors of ``shift.low_rank_factors``.  Z is never formed:
    Z Q1 = sum_k M_k o T (N_k o Q1) and Z^T Q2 = sum_k N_k o T^T (M_k o Q2) take
    one thin GEMM per side, and e beside Q1 gives the row sums Z e.  Column
    by column, m1 = Z (I - eta Gamma^-1) q + (I + eta Delta^-1) e, m2 = Z q + e,
    n1 = Z^T q + e and n2 = -xi (Gamma^-1 e - Z^T Delta^-1 q); at xi = 0 the
    second dual column vanishes identically and the scheme degenerates to the
    classic fixed point on Z.
    """
    q1e, q2, e1, e2 = state.low_rank
    # factors as 2 x n rows: a k x n by n x n GEMM ran faster than n x n by n x k
    m_fac, n_fac = state.M_next, state.N_next
    m_t, n_t = m_fac.T, n_fac.T
    n = m_t.shape[1]
    t_nq = ((q1e * n_t).reshape(6, n) @ kernel.T.T).reshape(3, 2, n)  # T (N_k o [Q1 e])
    zq = (t_nq * m_t).sum(axis=1)  # rows (Z Q1)^T and (Z e)^T
    tt_mq = ((q2 * m_t).reshape(4, n) @ kernel.T).reshape(2, 2, n)  # T^T (M_k o Q2)
    ztq = (tt_mq * n_t).sum(axis=1)
    z_rows = zq[2]
    if min(m_t.min(), n_t.min()) < 0.0:  # Z may hold negative entries
        z_rows = np.abs(factors_to_solution(kernel, m_fac, n_fac)).sum(axis=1)
    return SiShiftState(m_fac, n_fac, (zq[:2] + e2).T, (ztq + e1).T, z_rows,
                        state.low_rank)


def si_shifted_solve(problem, shift, config=None):
    """Shifted low-rank iteration from M = N = 0 (closure of the region allowed)."""
    kernel = build_kernel(problem)
    size = max(1, min(SWEEP_BLOCK, SHIFT_STACK // problem.n ** 2))
    return iterate(problem, si_shift_init(problem, shift), partial(si_shift_step, kernel),
                   _shifted_metrics, size,
                   lambda s: factors_to_solution(kernel, s.M, s.N),
                   config or SiConfig(), f"si-{shift.mode}")


def _shifted_metrics(states):
    return diagnostics.factor_sweep_metrics(
        np.array([(s.M.T, s.N.T) for s in states]),
        np.array([(s.M_next[:, 1], s.N_next[:, 0]) for s in states[1:]]),
        np.array([s.z_rows for s in states[1:]]))
