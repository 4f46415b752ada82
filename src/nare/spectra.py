"""Secular-equation machinery: eigenvalue location by bisection, Cayley rates.

The shifted block matrix factors as

    det(Mbar - lam I) = -prod_i(1/om_i - lam)^2 * (g1 + eta*xi*g2*g3)(lam)

with g1 = lam s(c), g2 = s(c om), g3 = s(c/om) for the rational sums
s(num) = sum_i num_i/(1/om_i - lam).  A shift with eta*xi = 0, the single
shift among them, leaves the factor of the critical block matrix,

    det(M - lam I) = -prod_i(1/om_i - lam)^2 * g1(lam),

so the eigenvalues of M are 0 (g1 carries the factor lam), the n poles
1/om_i (the squared prefactor cancels each simple pole of g1) and one root
of g1 per pole gap.  The rational sums stay finite at any n, so the roots
are bisected on their sign, all gaps at once and on only the sums read, and
the product prefactor, which overflows doubles near the spectrum edges, is
never formed.  (Deriving the determinant of the diagonal-plus-rank-2 form
gives g1, not lam*g1, in the first term; the n=1 case with the boundary
shift confirms it: the shifted matrix has the double eigenvalue
1/(2*om_1), which is a root of g1 + eta*xi*g2*g3 only.)
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailure, PoleHit
from .problem import low_rank_form, require_critical
from .sda import SdaConfig, resolve_gamma
from .shift import omega_lower_bound, validate_shift

POLE_GUARD = 1e-14
BRACKET_WIDTH_FACTOR = 1e-12
MAX_BISECT = 200


@dataclass(frozen=True)
class SpectrumReport:
    """Located eigenvalues with their brackets and secular residuals.

    ``fixed_roots`` holds the poles 1/om_i when they are eigenvalues
    (unshifted critical case only); ``free_roots`` the bisected ones.
    """

    fixed_roots: np.ndarray
    free_roots: np.ndarray
    brackets: tuple
    residuals: np.ndarray
    bracket_widths: np.ndarray
    includes_zero: bool
    on_boundary: bool = False
    coalesced: tuple = field(default=())

    @property
    def eigenvalues(self):
        parts = [self.fixed_roots, self.free_roots]
        if self.includes_zero:
            parts.append(np.array([0.0]))
        return np.sort(np.concatenate(parts))


def _rational_sums(problem, *nums):
    """Return ``sums``: lams -> [s(num) at each of lams, for num in nums].

    Each point is one row of the n-wide denominators, summed along the row,
    so a point rounds the same in a batch as in a call of its own.
    """
    poles = 1.0 / problem.omegas

    def sums(lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
        den = poles - lams[:, None]
        return [np.sum(num / den, axis=1) for num in nums]

    return sums


def _bisect(sign, lo, hi, sign_lo, width):
    """Bisect every bracket [lo_k, hi_k] at once on sign values.

    ``sign(lams, ks)`` gives the signs at the midpoints ``lams`` of the
    open brackets ``ks``; ``sign_lo`` is each bracket's sign just right of
    its lower end.  Only midpoints are evaluated, so the ends may be poles.
    A bracket closes at width ``width``, after ``MAX_BISECT`` rounds, or on
    an exact zero, which collapses it to its midpoint.  Returns the roots
    and the final lower and upper ends.
    """
    lo = np.array(lo, dtype=np.float64)
    hi = np.array(hi, dtype=np.float64)
    sign_lo = np.broadcast_to(sign_lo, lo.shape)
    ks = np.flatnonzero(hi - lo > width)
    for _ in range(MAX_BISECT):
        if ks.size == 0:
            break
        mid = 0.5 * (lo[ks] + hi[ks])
        sm = sign(mid, ks)
        up = sm == sign_lo[ks]
        lo[ks[up | (sm == 0)]] = mid[up | (sm == 0)]
        hi[ks[~up]] = mid[~up]
        ks = ks[(sm != 0) & (hi[ks] - lo[ks] > width)]
    return 0.5 * (lo + hi), lo, hi


def _gap_roots(problem, sign, sign_lo):
    """Bisect ``sign`` over every gap between the sorted poles 1/om_i at once.

    Returns the sorted poles and ``_bisect``'s roots, lower and upper ends.
    """
    poles = np.sort(1.0 / problem.omegas)
    return (poles, *_bisect(sign, poles[:-1], poles[1:], sign_lo,
                            BRACKET_WIDTH_FACTOR * poles[-1]))


def interlaced_spectrum(problem):
    """Eigenvalues of the critical block matrix M.

    Returns 0, the n poles 1/om_i, and one bisected root of g1 strictly
    inside each pole gap, with the strict interlacing verified.  g1 falls
    to -inf just right of each pole and rises to +inf just left of the
    next, which fixes the starting signs; every gap lies at lam > 0, so
    s(c) = g1/lam, which is bisected, has g1's sign.  The residual of a
    root is |sum_j t_j| / max_j |t_j| with t_j = c_j/(1/om_j - lam): the
    level of cancellation left in g1/lam.
    """
    require_critical(problem, "the secular machinery")
    sums = _rational_sums(problem, problem.weights)
    poles, roots, lo, hi = _gap_roots(problem, lambda lams, ks: np.sign(sums(lams)[0]), -1.0)
    terms = problem.weights / (1.0 / problem.omegas - roots[:, None])
    residuals = np.abs(roots * sums(roots)[0]) / (roots * np.max(np.abs(terms), axis=1))
    if not bool(np.all((roots > poles[:-1]) & (roots < poles[1:]))):
        raise BracketFailure("interior root escaped its pole gap")
    report = SpectrumReport(
        fixed_roots=poles.copy(),
        free_roots=roots,
        brackets=tuple(zip(lo, hi)),
        residuals=residuals,
        bracket_widths=hi - lo,
        includes_zero=True,
    )
    if np.any(np.diff(report.eigenvalues) <= 0):
        raise BracketFailure("interlacing order violated")
    return report


def shifted_interlaced_spectrum(problem, shift):
    """Eigenvalues of the shifted block matrix, for a shift in the closure of its region.

    With eta*xi = 0 (a single shift, or eta = 0) the characteristic
    polynomial is g1's, and this is ``interlaced_spectrum``.  Otherwise it
    locates two roots of the shifted secular function in (0, 1/om_1) and
    two in each pole gap.  The function is negative at 0 and tends to -inf
    at every pole (eta*xi*g2*g3 has double poles), and an analytic probe
    is positive inside each interval: 1/(2 om_1) in the first, and in each
    gap the point where g3 = 4 om_1^2/(om_{k-1} om_k).  The probe is the
    only source of brackets: all intervals are bisected together, one root
    on each side of it.  A vanishing probe value marks a coalesced double
    root, which occurs exactly on the boundary of the admissible region.
    """
    require_critical(problem, "the secular machinery")
    om1 = float(problem.omegas[0])
    validate_shift(shift.eta, shift.xi, shift.mode, om1, relaxed=True)
    eta, xi = shift.eta, shift.xi
    if eta * xi == 0.0:
        return interlaced_spectrum(problem)
    on_boundary = abs(xi - omega_lower_bound(eta, om1)) <= 1e-12 * abs(xi)
    om, c = problem.omegas, problem.weights
    sums = _rational_sums(problem, c, c * om, c / om)

    def gbar(lams):
        s1, g2, g3 = sums(lams)
        return lams * s1 + eta * xi * g2 * g3

    level_sums = _rational_sums(problem, c / om)
    target = 4.0 * om1 ** 2 / (om[:-1] * om[1:])
    poles, level, _, _ = _gap_roots(
        problem, lambda lams, ks: np.sign(level_sums(lams)[0] - target[ks]), -1.0)
    lo_end = np.concatenate([[0.0], poles[:-1]])
    probe = np.concatenate([[1.0 / (2.0 * om1)], level])
    gp = gbar(probe)
    coalesced = ~(gp > 0.0)
    failed = coalesced & ~(on_boundary & (np.abs(gp) <= 1e-9))
    if np.any(failed):
        k = int(np.flatnonzero(failed)[0])
        raise BracketFailure(
            f"no positive value of the shifted secular function found "
            f"in interval {k} ({lo_end[k]}, {poles[k]})"
        )
    # a coalesced double root closes both brackets at the probe
    lo = np.column_stack([lo_end, probe])
    hi = np.column_stack([probe, poles])
    lo[coalesced] = hi[coalesced] = probe[coalesced, None]
    free, lo, hi = _bisect(lambda lams, ks: np.sign(gbar(lams)),
                           lo.ravel(), hi.ravel(), np.tile([-1.0, 1.0], problem.n),
                           BRACKET_WIDTH_FACTOR * poles[-1])
    report = SpectrumReport(
        fixed_roots=np.array([]),
        free_roots=free,
        brackets=tuple(zip(lo, hi)),
        residuals=np.abs(gbar(free)),
        bracket_widths=hi - lo,
        includes_zero=False,
        on_boundary=on_boundary,
        coalesced=tuple(int(k) for k in np.flatnonzero(coalesced)),
    )
    # two positive roots per interval, in order, strictly between its ends
    a, b = free[0::2], free[1::2]
    inside = (lo_end < a) & (a < poles) & (lo_end < b) & (b < poles)
    bad = np.flatnonzero(~inside | ~((a < b) | (coalesced & (a == b))))
    if bad.size:
        k = bad[0]
        raise BracketFailure(f"interval {k}: pair ({a[k]}, {b[k]}) violates "
                             f"the interlacing pattern")
    return report


def closed_loop_spectrum(problem):
    """Eigenvalues {0, lam_2, ..., lam_n} of D - C X at the minimal solution.

    These are the nonnegative eigenvalues of the signed block matrix H,
    located as roots of the even secular function
    1 - sum c_j / (1 - om_j^2 lam^2), one per pole gap, where it falls
    from +inf just right of one pole to -inf just left of the next.
    """
    require_critical(problem, "the secular machinery")
    om, c = problem.omegas, problem.weights

    def sign(lams, ks):
        return np.sign(1.0 - np.sum(c / (1.0 - om ** 2 * lams[:, None] ** 2), axis=1))

    _, roots, _, _ = _gap_roots(problem, sign, 1.0)
    return np.concatenate([[0.0], roots])


def cayley(z, gamma):
    """Cayley transform (z - gamma)/(z + gamma), elementwise; maps (0, inf) into (-1, 1)."""
    z = np.asarray(z, dtype=np.float64)
    gamma = float(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if np.any(np.abs(z + gamma) < POLE_GUARD):
        raise PoleHit(f"Cayley transform pole at z = -gamma = {-gamma}")
    return (z - gamma) / (z + gamma)


def sda_rate_bound(problem, shift=None, gamma=None):
    """Doubling convergence-rate bound rho(C(D-CX)) * rho(C(A-BY)).

    The spectra come from the located eigenvalues: the closed-loop
    spectrum {0, lam_2..lam_n} with 0 replaced by eta (and, on the dual
    side, by -xi) when the corresponding shift is active; the shift must lie
    in the closure of its region.  Equals 1.0 exactly for the unshifted
    critical case.
    """
    lams = closed_loop_spectrum(problem)[1:]  # the critical-case gate
    eta, xi = (shift.eta, shift.xi) if shift is not None else (0.0, 0.0)
    if shift is not None:
        validate_shift(eta, xi, shift.mode, float(problem.omegas[0]), relaxed=True)
    # sda_solve's gamma rule, on the quadruple that the shifted run iterates
    gamma = resolve_gamma(low_rank_form(problem, eta, xi), SdaConfig(gamma=gamma))
    # a single shift's xi = 0 gives |cayley(-0.0)| = 1, as an unshifted zero does
    rho1 = float(np.max(np.abs(cayley(np.concatenate([[eta], lams]), gamma))))
    rho2 = float(np.max(np.abs(cayley(np.concatenate([[-xi], lams]), gamma))))
    return rho1 * rho2
