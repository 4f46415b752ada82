"""Vector fixed-point solvers built on the Hadamard solution form.

The minimal solution factors as X = T o (m n^T) with T_ij = 1/(delta_i + d_j), reducing
the matrix equation to the coupled vector fixed point

    m = m o T (q o n) + e,   n = n o T^T (q o m) + e.

The shifted variant iterates rank-two factors M = [m1, m2], N = [n1, n2] of
Z = T o (M N^T) at (alpha, c) = (0, 1).  Both are M+ = Z Q1 + E2, N+ = Z^T Q2 + E1 and
differ only in constant rows: ``build_kernel(problem, shift=None)`` sets up either solve
and ``si_init(kernel)`` starts it.  A classic sweep reads the kernel in one batched
product, a shifted one in one thin (12 x n) GEMM with T, O(n^2).  Both carry one
``SiState``: factor rows ([m; n], 2 x n, or [M^T; N^T], 2 x 2 x n), the next sweep's
rows and X's row sums.  X is not formed in the loop (Z only for ||Z|| if a factor entry
turns negative): X Gamma + Delta X = M N^T, and Xq + e, X^T q + e are rows a, b of the
next sweep, so the residual is R = M N^T - a b^T, exact up to rounding.  Sweeps run in
blocks, written in place into and measured in one call on a (B + 2, 2, r, n) row stack:
``diagnostics.classic_sweep_metrics``, O(n) a sweep, for SWEEP_BLOCK classic sweeps;
``diagnostics.factor_sweep_metrics``, O(n^2) a sweep, for up to
``diagnostics.SHIFT_STACK`` / n^2 shifted ones (one from n = 256, and above that its
residual in row chunks).  Sweeps run past the stop are dropped.  X or Z is built at
return, by ``si_solution``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diagnostics
from .problem import low_rank_form
from .shift import validate_shift
from .solution import check_config, iterate

SWEEP_BLOCK = 16  # classic sweeps run, and measured in one call, at a time


@dataclass(frozen=True)
class SiConfig:
    tol: Optional[float] = None
    max_iter: int = 10000
    stop_rule: str = "either"
    __post_init__ = check_config


@dataclass(frozen=True)
class HadamardKernel:
    """A vector solve's constants: T_ij = 1/(delta_i + d_j) as TT, (T,) where gamma = delta
    bit for bit (alpha = 0, T = T^T) and [T^T; T] otherwise; ``scale``, the rows that
    multiply the factor rows before the product, and ``e21`` = [E2^T; E1^T], added after.

    Classic: scale = [q; e] and e21 = [e; e]; ([q; e] * [b; a]) @ [T^T; T] holds T (q o b),
    T b, T^T (q o a), T^T a.  Shifted, from ``low_rank_form``: [Q1^T; e] and [Q2^T; e]
    interleaved by row, (3, 2, 1, n), so the sweep's products broadcast over the outer axis
    only, which ran faster than over a middle one.
    """

    TT: np.ndarray
    scale: np.ndarray
    e21: np.ndarray

    T = property(lambda self: self.TT[-1])


@dataclass(slots=True)
class SiState:
    """Factor rows [m; n] of X = T o (m^T n), the next sweep's rows [a; b] and X's row sums;
    classic sweeps hold 2 x n rows, shifted ones 2 x 2 x n rows [M^T; N^T]."""

    mn: np.ndarray
    ab: np.ndarray
    x_rows: np.ndarray

    m = property(lambda self: self.mn[0])
    n = property(lambda self: self.mn[1])


def build_kernel(problem, shift=None):
    """The constants of a classic solve or, given a shift, of a shifted one; ``validate_shift``
    checks the shift, and its critical-case gate gives the T = T^T that the sweep relies on."""
    if shift is not None:
        validate_shift(problem, shift)
    # T^T_ij = 1/(d_i + delta_j), the swapped sum, rounds as the transpose does: both
    # halves come from one division, row-major, and one is kept if gamma = delta.  T starts
    # on a 64-byte cache line (numpy gives 16 bytes): a sweep's GEMM took 2x as long off one
    dg = np.array([problem.gamma, problem.delta])
    if np.array_equal(*dg):
        dg = dg[1:]
    buf = np.empty(dg.size * dg.shape[1] + 7)
    tt = buf[-buf.ctypes.data % 64 // 8:][:buf.size - 7].reshape(*dg.shape, -1)
    np.divide(1.0, np.add(dg[:, :, None], dg[::-1, None, :], out=tt), out=tt)
    if shift is None:
        return HadamardKernel(tt, np.array([problem.q, problem.e]), np.array([problem.e] * 2))
    f = low_rank_form(problem, shift.eta, shift.xi)
    scale = np.array([*zip(f.q1.T, f.q2.T), (problem.e, problem.e)])[:, :, None]
    return HadamardKernel(tt, scale, np.array([f.e2.T, f.e1.T]))


def si_init(kernel):
    """The zero iterate of either solve: factors 0, next sweep's rows e21."""
    return SiState(np.zeros_like(kernel.e21), kernel.e21, np.zeros(kernel.e21.shape[-1]))


def si_step(kernel, state, out=(None, None)):
    """Make the next sweep's vectors current and run the sweep after them; ``out``, when
    given, holds the arrays that take the next sweep's rows and X's row sums."""
    # one half (T,) broadcasts over both 2-row products, which round as against [T^T; T]
    prod = (kernel.scale * state.ab[::-1, None]) @ kernel.TT
    ab = np.multiply(state.ab, prod[:, 0], out[0])
    ab += kernel.e21
    return SiState(state.ab, ab, np.multiply(state.ab[0], prod[0, 1], out[1]))


def si_solution(kernel, m, n):
    """X = T o (m^T n) for factor rows m, n: vectors (r = 1) or r x n."""
    k = m.shape[-1]
    return kernel.T * (m.reshape(-1, k).T @ n.reshape(-1, k))


def _blocks(step, kernel, metric, size):
    """``iterate``'s ``advance`` for ``step(kernel, state, out)``: a block of ``size`` steps,
    step k writing its rows and X's row sums, its ``out``, into row k + 2 of a new
    (size + 2, 2, r, n) stack and row k of a new (size, n) one, which ``metric`` then reads;
    a block takes new stacks, so a state the driver keeps is never written over."""
    def advance(state):
        sweeps, rows = np.empty((size + 2, *state.ab.shape)), np.empty((size, len(state.x_rows)))
        sweeps[:2] = state.mn, state.ab
        states = []
        for k in range(size):
            state = step(kernel, state, (sweeps[k + 2], rows[k]))
            states.append(state)
        return zip(states, metric(sweeps, rows))

    return advance


def si_solve(problem, config=None):
    """Classic vector iteration from m = n = 0.

    Converges linearly off the critical case and sublinearly at it, in
    which case the iteration is expected to hit max_iter.
    """
    kernel = build_kernel(problem)
    advance = _blocks(si_step, kernel, diagnostics.classic_sweep_metrics, SWEEP_BLOCK)
    return iterate(problem, si_init(kernel), advance, lambda s: si_solution(kernel, *s.mn),
                   config or SiConfig())


def si_shift_step(kernel, state, out=(None, None)):
    """Make the next sweep's factor rows current and run the shifted sweep after them:

        M_next = Z Q1 + E2,   N_next = Z^T Q2 + E1,   Z = T o (M N^T)

    with the constants of ``build_kernel(problem, shift)``.  Z is never formed:
    Z Q1 = sum_k M_k o T (N_k o Q1) and Z^T Q2 = sum_k N_k o T^T (M_k o Q2) come, as
    T = T^T, from one thin GEMM, with e beside Q1 for the row sums Z e.  Column by column,
    m1 = Z (I - eta Gamma^-1) q + (I + eta Delta^-1) e, m2 = Z q + e, n1 = Z^T q + e and
    n2 = -xi (Gamma^-1 e - Z^T Delta^-1 q); at xi = 0 the second dual column vanishes
    identically and the scheme degenerates to the classic fixed point on Z (``out``: si_step's).
    """
    # [Q1^T; e] o N, [Q2^T; e] o M as 12 x n rows: k x n by n x n ran faster than n x n by n x k
    t_f = kernel.scale * state.ab[::-1]
    t_f = (t_f.reshape(12, -1) @ kernel.T).reshape(t_f.shape)
    t_f *= state.ab
    # the sum over k of t_f[j, :, k] is (Z Q1)^T_j, (Z^T Q2)^T_j for j < 2 and Z e, Z^T e for j = 2
    ab = np.add(*t_f[:2].transpose(2, 1, 0, 3), out=out[0])
    ab += kernel.e21
    z_rows = (np.abs(si_solution(kernel, *state.ab)).sum(axis=1, out=out[1])
              if state.ab.min() < 0.0 else np.add(t_f[2, 0, 0], t_f[2, 0, 1], out=out[1]))
    return SiState(state.ab, ab, z_rows)


def si_shifted_solve(problem, shift, config=None):
    """Shifted low-rank iteration from M = N = 0 (closure of the region allowed)."""
    kernel = build_kernel(problem, shift)
    size = max(1, min(SWEEP_BLOCK, diagnostics.SHIFT_STACK // problem.n ** 2))
    advance = _blocks(si_shift_step, kernel, diagnostics.factor_sweep_metrics, size)
    return iterate(problem, si_init(kernel), advance, lambda s: si_solution(kernel, *s.mn),
                   config or SiConfig())
