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
up to rounding; ``diagnostics.vector_step_metrics`` takes it with the update
error in one call, O(n) on monotone classic sweeps (the state's 2 x n rows
[m; n], [a; b]), O(n^2) otherwise.  The iterate is built once, at return.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import diagnostics
from .shift import low_rank_factors
from .solution import check_max_iter, iterate


@dataclass(frozen=True)
class SiConfig:
    tol: Union[float, str] = "auto"
    max_iter: int = 10000
    stop_rule: str = "either"
    __post_init__ = check_max_iter


@dataclass(frozen=True)
class HadamardKernel:
    """Entrywise-positive kernel matrices of the Hadamard form.

    T_ij = 1/(delta_i + d_j); P scales T's columns by q_j; Qm_ij = q_j T_ji.
    """

    T: np.ndarray
    P: np.ndarray
    Qm: np.ndarray


@dataclass
class SiState:
    """Iterate vectors [m; n] and the next sweep's, [Xq + e; X^T q + e], as 2 x n rows."""

    mn: np.ndarray
    ab: np.ndarray

    m = property(lambda self: self.mn[0])
    n = property(lambda self: self.mn[1])
    m_next = property(lambda self: self.ab[0])
    n_next = property(lambda self: self.ab[1])


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
    return HadamardKernel(T=t, P=t * problem.q[None, :], Qm=qm)


def si_init(problem):
    return SiState(mn=np.zeros((2, problem.n)), ab=np.ones((2, problem.n)))


def si_step(kernel, state):
    """Make the next sweep's vectors current and run the sweep after them."""
    ab = state.ab * np.array([kernel.P @ state.ab[1], kernel.Qm @ state.ab[0]])
    ab += 1.0
    return SiState(state.ab, ab)


def si_solution(kernel, m, n):
    """X = T o (m n^T) for the classic iterate vectors."""
    return kernel.T * np.outer(m, n)


def si_solve(problem, config=None):
    """Classic vector iteration from m = n = 0.

    Converges linearly off the critical case and sublinearly at it, in
    which case the iteration is expected to hit max_iter.
    """
    kernel = build_kernel(problem)
    return iterate(problem, si_init(problem), lambda s: si_step(kernel, s),
                   lambda s, t: diagnostics.vector_step_metrics(
                       s.mn, t.mn, t.ab, t.m * (kernel.T @ t.n)),
                   lambda s: si_solution(kernel, s.m, s.n), config or SiConfig(), "si")


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
    state = si_shift_init(problem, shift)
    kernel = build_kernel(problem)
    return iterate(problem, state, lambda s: si_shift_step(kernel, s),
                   lambda s, t: diagnostics.vector_step_metrics(
                       (s.M, s.N), (t.M, t.N), (t.M_next[:, 1], t.N_next[:, 0]), t.z_rows),
                   lambda s: factors_to_solution(kernel, s.M, s.N),
                   config or SiConfig(), f"si-{shift.mode}")
