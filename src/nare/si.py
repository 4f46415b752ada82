"""Vector fixed-point solvers built on the Hadamard solution form.

The minimal solution factors as X = T o (m n^T) with
T_ij = 1/(delta_i + d_j), reducing the matrix equation to the coupled
vector fixed point

    m = m o (P n) + e,   n = n o (Q m) + e.

The shifted variant iterates rank-two factors M_k = [m1, m2],
N_k = [n1, n2] with Z_k = T o (M_k N_k^T); every step touches Z_k only
through two n x 2 products with the shifted quadruple's low-rank factors
plus one rank-2 Hadamard update, keeping the cost at O(n^2) per step.
"""

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .shift import low_rank_factors
from .solution import iterate


@dataclass(frozen=True)
class SiConfig:
    tol: Union[float, str] = "auto"
    max_iter: int = 10000
    stop_rule: str = "either"


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
    m: np.ndarray
    n: np.ndarray


@dataclass
class SiShiftState:
    """Rank-two factors and the materialized iterate of the shifted scheme."""

    M: np.ndarray
    N: np.ndarray
    Z: np.ndarray
    low_rank: tuple  # (Q1, Q2, E1, E2) of shift.low_rank_factors, fixed per solve


def build_kernel(problem):
    t = 1.0 / (problem.delta[:, None] + problem.gamma[None, :])
    # keep all three row-major so the critical case's m/n symmetry is
    # bitwise (a transposed layout changes the BLAS summation order)
    qm = np.ascontiguousarray(t.T) * problem.q[None, :]
    return HadamardKernel(T=t, P=t * problem.q[None, :], Qm=qm)


def si_init(problem):
    return SiState(m=np.zeros(problem.n), n=np.zeros(problem.n))


def si_step(kernel, state):
    """One sweep of the coupled vector iteration (simultaneous update)."""
    m_next = state.m * (kernel.P @ state.n) + 1.0
    n_next = state.n * (kernel.Qm @ state.m) + 1.0
    return replace(state, m=m_next, n=n_next)


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
                   lambda s: (s.m, s.n), lambda s: si_solution(kernel, s.m, s.n),
                   config or SiConfig(), "si")


def factors_to_solution(kernel, m_fac, n_fac):
    """Z = T o (M N^T) for n x 2 factor matrices."""
    return kernel.T * (m_fac @ n_fac.T)


def si_shift_init(problem, shift):
    """Zero iterate of the shifted scheme; validates the relaxed shift region."""
    n = problem.n
    return SiShiftState(M=np.zeros((n, 2)), N=np.zeros((n, 2)), Z=np.zeros((n, n)),
                        low_rank=low_rank_factors(problem, shift))


def si_shift_step(kernel, state):
    """One step of the shifted rank-two iteration in factored form:

        M <- Z Q1 + E2,   N <- Z^T Q2 + E1,   Z <- T o (M N^T)

    with the factors of ``shift.low_rank_factors``.  Column by column,
    M = [m1, m2] and N = [n1, n2] with

        m1 = Z (I - eta Gamma^-1) q + (I + eta Delta^-1) e
        m2 = Z q + e
        n1 = Z^T q + e
        n2 = -xi (Gamma^-1 e - Z^T Delta^-1 q)

    At xi = 0 the second dual column vanishes identically and the scheme
    degenerates to the classic fixed point on Z.
    """
    q1, q2, e1, e2 = state.low_rank
    m_fac = state.Z @ q1 + e2
    n_fac = state.Z.T @ q2 + e1
    return replace(state, M=m_fac, N=n_fac,
                   Z=factors_to_solution(kernel, m_fac, n_fac))


def si_shifted_solve(problem, shift, config=None):
    """Shifted low-rank iteration from M = N = 0 (closure of the region allowed)."""
    state = si_shift_init(problem, shift)
    kernel = build_kernel(problem)
    return iterate(problem, state, lambda s: si_shift_step(kernel, s),
                   lambda s: (s.M, s.N), lambda s: s.Z,
                   config or SiConfig(), f"si-{shift.mode}")
