"""Single- and double-shift constructions for the critical case.

The shift moves the zero eigenvalues of the signed block matrix to
eta > 0 (and xi < 0 for the double shift) through rank-one corrections
built from the critical null vectors, without changing the minimal
nonnegative solution.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShiftOutOfRegion
from .problem import CoefficientQuadruple, critical_eigenvectors


def omega_lower_bound(eta, omega1):
    """Lower admissible xi for a given eta: (-1 + eta*omega1)/omega1."""
    return (-1.0 + eta * omega1) / omega1


@dataclass(frozen=True)
class ShiftSpec:
    """Validated shift parameters.

    single mode: 0 < eta <= 1/omega1 and xi = 0.
    double mode: 0 < eta < 1/omega1 and (-1 + eta*omega1)/omega1 <= xi < 0.
    The relaxed closure (used by the low-rank iteration) additionally
    admits eta = 0 and, in double mode, xi = 0 and the eta = 1/omega1 edge;
    single mode keeps xi = 0.
    """

    eta: float
    xi: float
    mode: str


def validate_shift(eta, xi, mode, omega1, relaxed=False):
    """Check (eta, xi) against the admissible region, naming any violation.

    With ``relaxed`` set, the closure of the mode's region is accepted,
    including (0, 0); this is the admissibility used by the low-rank
    fixed-point iteration.
    """
    if not 0.0 < omega1 < 1.0:
        raise ValueError(f"omega1 must lie in (0, 1), got {omega1}")
    if mode not in ("single", "double"):
        raise ValueError(f"unknown shift mode {mode!r}")
    top = 1.0 / omega1
    lo = omega_lower_bound(eta, omega1)
    if mode == "single" and xi != 0.0:
        raise ShiftOutOfRegion(f"single shift needs xi = 0; xi = {xi}")
    if relaxed:
        if not 0.0 <= eta <= top:
            raise ShiftOutOfRegion(f"relaxed region needs 0 <= eta <= 1/omega1; eta = {eta}")
        if not lo <= xi <= 0.0:
            raise ShiftOutOfRegion(
                f"relaxed region needs (-1 + eta*omega1)/omega1 <= xi <= 0; "
                f"xi = {xi}, lower bound {lo}"
            )
        return
    if mode == "single":
        if not 0.0 < eta <= top:
            raise ShiftOutOfRegion(f"single shift needs 0 < eta <= 1/omega1; eta = {eta}")
    else:
        if not 0.0 < eta < top:
            raise ShiftOutOfRegion(f"double shift needs 0 < eta < 1/omega1; eta = {eta}")
        if not lo <= xi < 0.0:
            raise ShiftOutOfRegion(
                f"double shift needs (-1 + eta*omega1)/omega1 <= xi < 0; "
                f"xi = {xi}, lower bound {lo}"
            )


def make_shift(problem, eta, xi, mode, relaxed=False):
    """Build a validated ShiftSpec for ``problem`` (critical case only)."""
    critical_eigenvectors(problem)  # raises NotCriticalCase off the critical point
    validate_shift(float(eta), float(xi), mode, float(problem.omegas[0]),
                   relaxed=relaxed)
    return ShiftSpec(eta=float(eta), xi=float(xi), mode=mode)


def default_shift(problem, mode):
    """The benchmark shift values: (1/(2 om1), 0) single, (1/(2 om1), -1/(2 om1)) double.

    The double choice sits exactly on the closed lower boundary of the
    admissible region and saturates eta*xi = -1/(4 om1^2).
    """
    om1 = float(problem.omegas[0])
    eta = 1.0 / (2.0 * om1)
    xi = 0.0 if mode == "single" else -1.0 / (2.0 * om1)
    return make_shift(problem, eta, xi, mode)


def shifted_coefficients(problem, shift, check=True):
    """Coefficient quadruple of the shifted equation.

    Assembled from the rank-two factors of ``low_rank_factors``:
        Dbar = Gamma - Q1 E1^T    Cbar = Q1 Q2^T
        Bbar = E2 E1^T            Abar = Delta - E2 Q2^T
    which equal D + eta v1 r1^T + xi s1 u1^T, C - eta v1 r2^T - xi s1 u2^T,
    B + eta v2 r1^T + xi s2 u1^T and A - eta v2 r2^T - xi s2 u2^T; single
    mode is the xi = 0 specialization.  ``check=False`` skips region
    validation so that out-of-region quadruples can be probed (the block
    matrix then need not be a Z-matrix).
    """
    if check:
        validate_shift(shift.eta, shift.xi, shift.mode, float(problem.omegas[0]))
    q1, q2, e1, e2 = _rank_two_factors(problem, shift)
    d = np.diag(problem.gamma) - q1 @ e1.T
    c = q1 @ q2.T
    b = e2 @ e1.T
    a = np.diag(problem.delta) - e2 @ q2.T
    tag = "single-shift" if shift.mode == "single" else "double-shift"
    return CoefficientQuadruple(A=a, B=b, C=c, D=d, tag=tag)


def low_rank_factors(problem, shift):
    """Rank-two factors of the shifted quadruple for the O(n^2) iteration.

    Q1 = [(I - eta G^-1) q, q]      Q2 = [q, xi D^-1 q]
    E1 = [e, -xi G^-1 e]            E2 = [(I + eta D^-1) e, e]

    with G = Gamma, D = Delta diagonal, reconstructing
    Dbar = Gamma - Q1 E1^T, Cbar = Q1 Q2^T, Bbar = E2 E1^T,
    Abar = Delta - E2 Q2^T.  The closure of the shift region is allowed.
    """
    validate_shift(shift.eta, shift.xi, shift.mode, float(problem.omegas[0]),
                   relaxed=True)
    return _rank_two_factors(problem, shift)


def _rank_two_factors(problem, shift):
    q, e = problem.q, problem.e
    gamma, delta = problem.gamma, problem.delta
    eta, xi = shift.eta, shift.xi
    q1 = np.column_stack([(1.0 - eta / gamma) * q, q])
    q2 = np.column_stack([q, xi * q / delta])
    e1 = np.column_stack([e, -xi * e / gamma])
    e2 = np.column_stack([(1.0 + eta / delta) * e, e])
    return q1, q2, e1, e2
