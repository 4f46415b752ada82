"""Structure-preserving doubling algorithm.

Initialization (scalar gamma >= max diagonal of A and D) takes two inverses:

    D_g = D + gamma I                W_g = A + gamma I - B D_g^-1 C
    G0 = 2 gamma D_g^-1 C W_g^-1     H0 = 2 gamma W_g^-1 B D_g^-1
    F0 = I - 2 gamma W_g^-1          E0 = I - 2 gamma D_g^-1 - G0 B D_g^-1

E0 is I - 2 gamma V_g^-1 for V_g = D_g - C (A + gamma I)^-1 B, by the
block-inverse identity V_g^-1 = D_g^-1 + D_g^-1 C W_g^-1 B D_g^-1.  The
doubling step, with K = (I - G H)^-1 and (I - H G)^-1 = I + H K G,

    E <- E K E                       G <- G + E K (G F)
    F <- F F + (F H) K (G F)         H <- H + (F H) K E

is [E; F H] K [E, G F] plus F F and G H: one LU, one inverse and ten n^3
GEMM-equivalents.  It drives H to the minimal nonnegative solution of the
Riccati equation and G to the minimal nonnegative solution of its dual.
The quadruple iterated may be a shifted one; ``sda_solve`` measures each
residual against the original equation of the problem it is given.
"""

from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from . import diagnostics
from .errors import Breakdown, SingularMatrix
from .linalg import lu_inverse
from .solution import check_config, iterate


@dataclass(frozen=True)
class SdaConfig:
    """Doubling-run controls.

    ``gamma="auto"`` takes equality in the admissibility bound,
    gamma = max(max_i A_ii, max_i D_ii); smaller gamma gives smaller
    Cayley radii on the positive axis.  ``tol="auto"`` is n^2 * eps.
    """

    gamma: Union[float, str] = "auto"
    tol: Union[float, str] = "auto"
    max_iter: int = 100
    stop_rule: str = "either"
    __post_init__ = check_config


@dataclass
class SdaState:
    """Doubling iterates E, F, G, H at step k."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    k: int = 0


def resolve_gamma(quad, config):
    bound = max(float(np.max(np.diag(quad.A))), float(np.max(np.diag(quad.D))))
    if config.gamma == "auto" or config.gamma is None:
        return bound
    gamma = float(config.gamma)
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if gamma < bound:
        # below the diagonal bound the initial iterates lose their
        # M-matrix structure and monotone convergence is forfeit
        raise ValueError(f"gamma = {gamma} is below the admissible bound {bound}")
    return gamma


def sda_init(quad, config=None):
    """Initial doubling state for a coefficient quadruple.

    Raises SingularMatrix if any of the inner systems is degenerate,
    which signals an invalid quadruple or gamma.
    """
    gamma = resolve_gamma(quad, config or SdaConfig())
    eye = np.eye(quad.n)
    dg_inv = lu_inverse(quad.D + gamma * eye)
    dg_inv_c = dg_inv @ quad.C
    w_inv = lu_inverse(quad.A + gamma * eye - quad.B @ dg_inv_c)
    b_dg_inv = quad.B @ dg_inv
    g0 = 2.0 * gamma * dg_inv_c @ w_inv
    e0 = eye - 2.0 * gamma * dg_inv - g0 @ b_dg_inv
    return SdaState(E=e0, F=eye - 2.0 * gamma * w_inv, G=g0,
                    H=2.0 * gamma * w_inv @ b_dg_inv)


def sda_step(state):
    """One doubling step; raises Breakdown when I - GH degenerates."""
    e, f, g, h = state.E, state.F, state.G, state.H
    n = h.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            k = lu_inverse(np.eye(n) - g @ h)
        except SingularMatrix as exc:
            raise Breakdown(state.k,
                            f"I - GH singular at step {state.k}: {exc}") from exc
        ek, fhk = (np.vstack([e, f @ h]) @ k).reshape(2, n, n)  # two views, no copy
        gf = g @ f
        return SdaState(ek @ e, f @ f + fhk @ gf, g + ek @ gf, h + fhk @ e, state.k + 1)


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
    return iterate(problem, sda_init(quad, config), sda_step, partial(_doubling_metrics, problem),
                   1, lambda s: s.H, config, f"sda[{quad.tag}]", y_of=lambda s: s.G)


def _doubling_metrics(problem, states):
    """The update error and the residual of one doubling step, states (before, after)."""
    prev, cur = states
    return [(diagnostics.relative_update_error(((prev.G, cur.G), (prev.H, cur.H))),
             diagnostics.relative_residual(problem, cur.H))]
