"""Single- and double-shift constructions for the critical case.

The shift moves the zero eigenvalues of the signed block matrix to
eta > 0 (and xi < 0 for the double shift) through rank-one corrections
built from the critical null vectors, without changing the minimal
nonnegative solution.
"""

from dataclasses import dataclass

from .errors import ShiftOutOfRegion
from .problem import low_rank_form, require_critical


def omega_lower_bound(eta, omega1):
    """Lower admissible xi for a given eta: (-1 + eta*omega1)/omega1."""
    return (-1.0 + eta * omega1) / omega1


@dataclass(frozen=True)
class ShiftSpec:
    """Shift parameters; the code that uses a shift checks its region.

    single mode: 0 < eta <= 1/omega1 and xi = 0.
    double mode: 0 < eta < 1/omega1 and (-1 + eta*omega1)/omega1 <= xi < 0.
    ``shifted_coefficients`` checks this region.  ``si.build_kernel``, the
    spectra and ``sda_rate_bound`` check its closure, which adds eta = 0 and,
    in double mode, xi = 0 and eta = 1/omega1; single mode keeps xi = 0.
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


def make_shift(problem, eta, xi, mode):
    """An unchecked ShiftSpec for ``problem`` (critical case only).

    ``eta`` or ``xi`` None takes its ``default_shift`` value.  The code that
    uses the shift checks the region it needs (see ``ShiftSpec``).
    """
    require_critical(problem, "a shift")
    om1 = float(problem.omegas[0])
    eta = 1.0 / (2.0 * om1) if eta is None else float(eta)
    xi = (0.0 if mode == "single" else -1.0 / (2.0 * om1)) if xi is None else float(xi)
    return ShiftSpec(eta=eta, xi=xi, mode=mode)


def default_shift(problem, mode):
    """The benchmark shift values: (1/(2 om1), 0) single, (1/(2 om1), -1/(2 om1)) double.

    The double choice sits exactly on the closed lower boundary of the
    admissible region and saturates eta*xi = -1/(4 om1^2).
    """
    return make_shift(problem, None, None, mode)


def shifted_coefficients(problem, shift, check=True):
    """Coefficient quadruple of the shifted equation.

    The ``problem.low_rank_form`` at (eta, xi), after the region check.  Dbar, Cbar, Bbar, Abar
    equal D + eta v1 r1^T + xi s1 u1^T, C - eta v1 r2^T - xi s1 u2^T,
    B + eta v2 r1^T + xi s2 u1^T and A - eta v2 r2^T - xi s2 u2^T; single
    mode is the xi = 0 specialization.  ``check=False`` skips region
    validation so that out-of-region quadruples can be probed (the block
    matrix then need not be a Z-matrix).
    """
    if check:
        validate_shift(shift.eta, shift.xi, shift.mode, float(problem.omegas[0]))
    tag = "single-shift" if shift.mode == "single" else "double-shift"
    return low_rank_form(problem, shift.eta, shift.xi, tag)
