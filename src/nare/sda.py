"""Structure-preserving doubling algorithm.

Initialization (scalar gamma >= max diagonal of A and D) is O(n^2) on the factors:
with d = Gamma + gamma and w = Delta + gamma, ``smw_factors`` inverts D_g = D + gamma I
= diag(d) - Q1 E1^T and W_g = A + gamma I - B D_g^-1 C = diag(w) - (E2 S1^-1) Q2^T by
their 2 x 2 capacitances S1 = I - E1^T U1, U1 = Q1/d, and S2 = I - Q2^T U2, U2 = E2 S1^-1/w.
With L_G = U1 S1^-1 S2^-1, L_H = U2 S2^-1 and V_g = D_g - C (A + gamma I)^-1 B,

    G0 = 2 gamma D_g^-1 C W_g^-1 = L_G (2 gamma Q2/w)^T    F0 = I - 2 gamma W_g^-1
    H0 = 2 gamma W_g^-1 B D_g^-1 = L_H (2 gamma E1/d)^T    E0 = I - 2 gamma V_g^-1

and F0 + L_H (2 gamma Q2/w)^T, E0 + L_G (2 gamma E1/d)^T are diagonal.  The doubling
step, with K = (I - G H)^-1 and (I - H G)^-1 = I + H K G,

    E <- E K E                       G <- G + E K (G F)
    F <- F F + (F H) K (G F)         H <- H + (F H) K E

is [E; F H] K [E, G F] plus F F and G H: one LU, one inverse and ten n^3
GEMM-equivalents.  On a symmetric quadruple (alpha = 0, unshifted or eta = -xi, as
the default double shift) every F is E^T, taken as a view and not computed: eight
products a step.  G and H are then symmetric only to rounding; that is not forced.
It drives H to the minimal nonnegative solution of the Riccati equation and G to
the minimal nonnegative solution of its dual.
The quadruple iterated may be a shifted one; ``sda_solve`` measures each
residual against the original equation of the problem it is given.
"""

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import diagnostics
from .errors import Breakdown, SingularMatrix
from .linalg import inf_norms, lu_inverse, smw_factors
from .solution import check_config, iterate


@dataclass(frozen=True)
class SdaConfig:
    """Doubling-run controls; these are the defaults of every doubling run.

    ``gamma=None`` takes equality in the admissibility bound,
    gamma = max(max_i A_ii, max_i D_ii); smaller gamma gives smaller
    Cayley radii on the positive axis.  ``tol=None`` is n^2 * eps.
    """

    gamma: Optional[float] = None
    tol: Optional[float] = None
    max_iter: int = 100
    stop_rule: str = "either"
    __post_init__ = check_config


@dataclass(slots=True)
class SdaState:
    """Doubling iterates E, F and the stack GH = [G; H] at step k; ``symmetric`` keeps F = E^T."""

    E: np.ndarray
    F: np.ndarray
    GH: np.ndarray
    k: int = 0
    symmetric: bool = False

    G, H = property(lambda self: self.GH[0]), property(lambda self: self.GH[1])


def resolve_gamma(quad, gamma=None):
    # diag(A) = Delta - rowsum(E2 o Q2) and diag(D) = Gamma - rowsum(Q1 o E1), O(n)
    bound = max(float((quad.delta - (quad.e2 * quad.q2).sum(axis=1)).max()),
                float((quad.gamma - (quad.q1 * quad.e1).sum(axis=1)).max()))
    if gamma is None:
        return bound
    gamma = float(gamma)
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if gamma < bound:
        # below the diagonal bound the initial iterates lose their
        # M-matrix structure and monotone convergence is forfeit
        raise ValueError(f"gamma = {gamma} is below the admissible bound {bound}")
    return gamma


def sda_init(quad, gamma=None):
    """Initial doubling state for a coefficient quadruple, in O(n^2) on its factors;
    ``gamma`` is checked, or taken when None, by ``resolve_gamma``.

    Raises SingularMatrix if D_g or W_g is degenerate: an invalid quadruple or gamma.
    """
    gamma = resolve_gamma(quad, gamma)
    n, (d, w) = quad.n, (dw := np.concatenate([quad.gamma, quad.delta]).reshape(2, -1) + gamma)
    u1, s1 = smw_factors(d, quad.q1, quad.e1)
    u2, s2 = smw_factors(w, quad.e2 @ s1, quad.q2)
    lg, lh, r = u1 @ (s1 @ s2), u2 @ s2, 2.0 * gamma / dw
    # [G0; H0; E0; F0] = [L_G; L_H; -L_G; -L_H] [(r Q2)^T; (r E1)^T; (r E1)^T; (r Q2)^T]
    right = (np.concatenate([quad.e1, quad.q2]).reshape(2, n, 2) * r[:, :, None]).transpose(0, 2, 1)
    m = 4 - quad.symmetric  # a symmetric F0 is E0^T, not built
    left = np.concatenate([lg, lh, -lg, -lh][:m]).reshape(m, n, 2)
    out = np.matmul(left, right[[1, 0, 0, 1][:m]])
    out.reshape(m, n * n)[2:, ::n + 1] += (1.0 - r)[:m - 2]  # the diagonals of E0 and F0
    return SdaState(out[2], out[2].T if quad.symmetric else out[3], out[:2], 0, quad.symmetric)


def sda_step(state):
    """One doubling step, in place where it can be; raises Breakdown when I - GH degenerates."""
    e, f, (g, h), sym = state.E, state.F, state.GH, state.symmetric
    n = h.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        k = g @ h
        np.subtract(0.0, k, out=k).ravel()[::n + 1] += 1.0  # I - GH, rounded as np.eye(n) - GH
        try:
            k = lu_inverse(k)
        except SingularMatrix as exc:
            raise Breakdown(state.k, f"I - GH singular at step {state.k}: {exc}") from exc
        ek = np.empty((2 * n, n))  # [E; F H], then [E K; F H K]
        ek[:n] = e
        np.matmul(f, h, out=ek[n:])
        ek = (ek @ k).reshape(2, n, n)
        del k
        gf, gh = g @ f, np.empty((2, n, n))
        np.matmul(ek[0], gf, out=gh[0])
        gh[0] += g
        np.matmul(ek[1], e, out=gh[1])
        gh[1] += h
        f = None if sym else f @ f + ek[1] @ gf
        del gf
        e = ek[0] @ e
        return SdaState(e, e.T if sym else f, gh, state.k + 1, sym)


def sda_solve(problem, quad, config=None):
    """Run the doubling iteration on ``quad`` to the configured stopping rule.

    Residuals are measured against ``problem``, the original equation, so
    shifted runs report the accuracy of the original-equation solution
    (which the shift preserves).  Raises ValueError when ``quad`` and
    ``problem`` differ in size.
    """
    if quad.n != problem.n:
        raise ValueError(f"quadruple of size {quad.n} for a problem of size {problem.n}")
    config = config or SdaConfig()
    return iterate(problem, sda_init(quad, config.gamma), partial(_doubling_step, problem),
                   lambda s: s.H, config, y_of=lambda s: s.G)


def _doubling_step(problem, prev):
    """``iterate``'s ``advance``: one doubling step from ``prev``, its update error and
    the residual of its H."""
    cur = sda_step(prev)
    norms = inf_norms(cur.GH)  # ||G||, ||H||: one set of calls on the stack, for both metrics
    return [(cur, (diagnostics.relative_update_error(((prev.GH, cur.GH),), norms),
                   diagnostics.relative_residual(problem, cur.H, norms[1])))]
