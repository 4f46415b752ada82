"""Structure-preserving doubling algorithm.

Initialization (scalar gamma >= max diagonal of A and D):

    A_g = A + gamma I          D_g = D + gamma I
    W_g = A_g - B D_g^-1 C     V_g = D_g - C A_g^-1 B
    E0 = I - 2 gamma V_g^-1    F0 = I - 2 gamma W_g^-1
    G0 = 2 gamma D_g^-1 C W_g^-1
    H0 = 2 gamma W_g^-1 B D_g^-1

then the doubling recurrence

    E <- E (I - G H)^-1 E
    F <- F (I - H G)^-1 F
    G <- G + E (I - G H)^-1 G F
    H <- H + F (I - H G)^-1 H E

drives H to the minimal nonnegative solution of the Riccati equation and
G to the minimal nonnegative solution of its dual.
"""

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from . import diagnostics
from .errors import Breakdown, SingularMatrix
from .linalg import lu_solve
from .solution import iterate


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
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
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
    config = config or SdaConfig()
    gamma = resolve_gamma(quad, config)
    n = quad.n
    eye = np.eye(n)
    a_g = quad.A + gamma * eye
    d_g = quad.D + gamma * eye
    dg_inv_c = lu_solve(d_g, quad.C)
    ag_inv_b = lu_solve(a_g, quad.B)
    w_g = a_g - quad.B @ dg_inv_c
    v_g = d_g - quad.C @ ag_inv_b
    e0 = eye - 2.0 * gamma * lu_solve(v_g, eye)
    w_inv = lu_solve(w_g, eye)
    f0 = eye - 2.0 * gamma * w_inv
    g0 = 2.0 * gamma * dg_inv_c @ w_inv
    h0 = 2.0 * gamma * w_inv @ quad.B @ lu_solve(d_g, eye)
    return SdaState(E=e0, F=f0, G=g0, H=h0)


def sda_step(state):
    """One doubling step; raises Breakdown when an inner solve degenerates."""
    n = state.H.shape[0]
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        gh = state.G @ state.H
        hg = state.H @ state.G
        try:
            s1 = lu_solve(eye - gh, np.hstack([state.E, state.G @ state.F]))
            s2 = lu_solve(eye - hg, np.hstack([state.F, state.H @ state.E]))
        except SingularMatrix as exc:
            raise Breakdown(state.k,
                            f"I - GH singular at step {state.k}: {exc}") from exc
        e_next = state.E @ s1[:, :n]
        g_next = state.G + state.E @ s1[:, n:]
        f_next = state.F @ s2[:, :n]
        h_next = state.H + state.F @ s2[:, n:]
    return replace(state, E=e_next, F=f_next, G=g_next, H=h_next, k=state.k + 1)


def sda_solve(quad, config=None):
    """Run the doubling iteration to the configured stopping rule.

    Residuals are always measured against the original problem carried
    by the quadruple, so shifted runs report the accuracy of the
    original-equation solution (which the shift preserves).
    """
    config = config or SdaConfig()
    if quad.problem is None:
        raise ValueError("quadruple is not attached to a problem")
    return iterate(quad.problem, sda_init(quad, config), sda_step, lambda s: (s.G, s.H),
                   lambda s: diagnostics.relative_residual(quad.problem, s.H),
                   lambda s: s.H, config, f"sda[{quad.tag}]", y_of=lambda s: s.G)
