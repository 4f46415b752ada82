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
    """Shift parameters, unchecked; ``validate_shift`` is the one check of them."""

    eta: float
    xi: float
    mode: str


def validate_shift(problem, shift):
    """The one shift check: the critical case, a known mode and the closed region.

    The region is 0 <= eta <= 1/omega1 and (-1 + eta*omega1)/omega1 <= xi <= 0,
    with xi = 0 in single mode; it includes (0, 0), the classic iteration.
    ``shifted_coefficients`` adds the doubling's eta > 0 and, double, xi < 0.
    """
    require_critical(problem, "a shift")
    eta, xi, mode = shift.eta, shift.xi, shift.mode
    if mode not in ("single", "double"):
        raise ValueError(f"unknown shift mode {mode!r}")
    if mode == "single" and xi != 0.0:
        raise ShiftOutOfRegion(f"single shift needs xi = 0; xi = {xi}")
    om1 = float(problem.omegas[0])
    if not 0.0 <= eta <= 1.0 / om1:
        raise ShiftOutOfRegion(f"shift region needs 0 <= eta <= 1/omega1; eta = {eta}")
    lo = omega_lower_bound(eta, om1)
    if not lo <= xi <= 0.0:
        raise ShiftOutOfRegion(
            f"shift region needs (-1 + eta*omega1)/omega1 <= xi <= 0; "
            f"xi = {xi}, lower bound {lo}"
        )


def make_shift(problem, eta, xi, mode):
    """An unchecked ShiftSpec for ``problem`` (critical case only).

    ``eta`` or ``xi`` None takes its ``default_shift`` value.  The code that
    uses the shift checks it (see ``validate_shift``).
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

    The ``problem.low_rank_form`` at (eta, xi), after ``validate_shift`` and
    the openness the doubling needs.  Dbar, Cbar, Bbar, Abar
    equal D + eta v1 r1^T + xi s1 u1^T, C - eta v1 r2^T - xi s1 u2^T,
    B + eta v2 r1^T + xi s2 u1^T and A - eta v2 r2^T - xi s2 u2^T; single
    mode is the xi = 0 specialization.  ``check=False`` skips both checks so
    that out-of-region quadruples can be probed (the block matrix then need
    not be a Z-matrix).
    """
    if check:
        validate_shift(problem, shift)
        # in the closed region xi < 0 implies eta < 1/omega1, but for the rounding of the
        # lower bound at eta = 1/omega1, which can leave it an ulp below 0
        top = 1.0 / float(problem.omegas[0])
        if not (shift.eta > 0.0 and (shift.mode == "single" or shift.xi < 0.0 and shift.eta < top)):
            raise ShiftOutOfRegion(f"the doubling needs eta > 0 and, for a double shift, xi < 0 "
                                   f"and eta < 1/omega1; eta = {shift.eta}, xi = {shift.xi}")
    return low_rank_form(problem, shift.eta, shift.xi)
