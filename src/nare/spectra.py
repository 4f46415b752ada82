"""Secular-equation machinery: eigenvalue location by bisection, Cayley rates.

The double-shifted block matrix factors as

    det(Mbar - lam I) = -prod_i(1/om_i - lam)^2 * (g1 + eta*xi*g2*g3)(lam)

with the rational sums g1, g2, g3 below, and the critical-case block
matrix is its eta*xi = 0 case,

    det(M - lam I) = -prod_i(1/om_i - lam)^2 * g1(lam),

so the eigenvalues of M are 0 (g1 carries the factor lam), the n poles
1/om_i (the squared prefactor cancels each simple pole of g1) and one root
of g1 per pole gap.  The rational sums stay finite at any n, so the roots
are bisected on their sign, all gaps of a spectrum at once, and the
product prefactor, which overflows doubles near the spectrum edges, is
never formed.  (Deriving the determinant of the diagonal-plus-rank-2 form
gives g1, not lam*g1, in the first term; the n=1 case with the boundary
shift confirms it: the shifted matrix has the double eigenvalue
1/(2*om_1), which is a root of g1 + eta*xi*g2*g3 only.)
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailure, NotCriticalCase, PoleHit, ShiftOutOfRegion
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


def _require_critical(problem):
    if not problem.is_critical:
        raise NotCriticalCase(
            "secular machinery is defined for (alpha, c) = (0, 1) only"
        )


def _secular_evaluator(problem):
    """Return ``sums``: lams -> (g1, g2, g3), each an array over ``lams``.

    g1 = lam * sum c_i/(1/om_i - lam)
    g2 = sum c_i om_i/(1/om_i - lam)
    g3 = sum c_i/(om_i (1/om_i - lam))

    The poles and numerators are formed once per problem.  Each point is
    one row of the n-wide denominators, summed along the row, so a point
    rounds the same in a batch as in a call of its own.
    """
    om, c = problem.omegas, problem.weights
    poles = 1.0 / om
    num1, num2, num3 = c, c * om, c / om

    def sums(lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
        den = poles - lams[:, None]
        return (lams * np.sum(num1 / den, axis=1),
                np.sum(num2 / den, axis=1),
                np.sum(num3 / den, axis=1))

    return sums


def secular_sums(problem, lam):
    """The three rational sums (g1, g2, g3) at ``lam``, as floats."""
    _require_critical(problem)
    lam = float(lam)
    if np.any(np.abs(1.0 / problem.omegas - lam) < POLE_GUARD):
        raise PoleHit(f"lambda = {lam!r} collides with a pole 1/omega_i")
    return tuple(float(g[0]) for g in _secular_evaluator(problem)(lam))


def shifted_secular(problem, shift, lam):
    """Secular function of the shifted block matrix: g1 + eta*xi*g2*g3.

    Off the poles its zeros are exactly the eigenvalues of the shifted
    block matrix; at xi = 0 it reduces to g1, whose off-pole zeros are
    zero plus the interior eigenvalues of the unshifted matrix.
    """
    _require_critical(problem)
    validate_shift(shift.eta, shift.xi, shift.mode, float(problem.omegas[0]),
                   relaxed=True)
    g1, g2, g3 = secular_sums(problem, lam)
    return g1 + shift.eta * shift.xi * g2 * g3


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


def interlaced_spectrum(problem):
    """Eigenvalues of the critical block matrix M.

    Returns 0, the n poles 1/om_i, and one bisected root of g1 strictly
    inside each pole gap, with the strict interlacing verified.  g1 falls
    to -inf just right of each pole and rises to +inf just left of the
    next, which fixes the starting signs.  The residual of a root is
    |sum_j t_j| / max_j |t_j| with t_j = c_j/(1/om_j - lam): the level of
    cancellation left in g1/lam.
    """
    _require_critical(problem)
    poles = np.sort(1.0 / problem.omegas)
    width = BRACKET_WIDTH_FACTOR * poles[-1]
    sums = _secular_evaluator(problem)
    roots, lo, hi = _bisect(lambda lams, ks: np.sign(sums(lams)[0]),
                            poles[:-1], poles[1:], -1.0, width)
    terms = problem.weights / (1.0 / problem.omegas - roots[:, None])
    residuals = np.abs(sums(roots)[0]) / (roots * np.max(np.abs(terms), axis=1))
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
    """Eigenvalues of the double-shifted block matrix.

    Locates two roots of the shifted secular function in (0, 1/om_1) and
    two in each pole gap.  The function is negative at 0 and tends to -inf
    at every pole (eta*xi*g2*g3 has double poles), and an analytic probe
    is positive inside each interval: 1/(2 om_1) in the first, and in each
    gap the point where g3 = 4 om_1^2/(om_{k-1} om_k).  The probe is the
    only source of brackets: all intervals are bisected together, one root
    on each side of it.  A vanishing probe value marks a coalesced double
    root, which occurs exactly on the boundary of the admissible region.
    """
    _require_critical(problem)
    om1 = float(problem.omegas[0])
    validate_shift(shift.eta, shift.xi, shift.mode, om1, relaxed=True)
    eta, xi = shift.eta, shift.xi
    if eta * xi == 0.0:
        raise ShiftOutOfRegion(
            "shifted spectrum needs eta > 0 and xi < 0 (double shift)"
        )
    on_boundary = abs(xi - omega_lower_bound(eta, om1)) <= 1e-12 * abs(xi)
    sums = _secular_evaluator(problem)

    def gbar(lams):
        g1, g2, g3 = sums(lams)
        return g1 + eta * xi * g2 * g3

    poles = np.sort(1.0 / problem.omegas)
    width = BRACKET_WIDTH_FACTOR * poles[-1]
    lo_end = np.concatenate([[0.0], poles[:-1]])
    target = 4.0 * om1 ** 2 / (problem.omegas[:-1] * problem.omegas[1:])
    level, _, _ = _bisect(lambda lams, ks: np.sign(sums(lams)[2] - target[ks]),
                          poles[:-1], poles[1:], -1.0, width)
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
                           width)
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
    _require_critical(problem)
    om, c = problem.omegas, problem.weights

    def sign(lams, ks):
        return np.sign(1.0 - np.sum(c / (1.0 - om ** 2 * lams[:, None] ** 2), axis=1))

    poles = np.sort(1.0 / om)
    width = BRACKET_WIDTH_FACTOR * poles[-1]
    roots, _, _ = _bisect(sign, poles[:-1], poles[1:], 1.0, width)
    return np.concatenate([[0.0], roots])


def cayley(z, gamma):
    """Cayley transform (z - gamma)/(z + gamma); maps (0, inf) into (-1, 1)."""
    z = float(z)
    gamma = float(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if abs(z + gamma) < POLE_GUARD:
        raise PoleHit(f"Cayley transform pole at z = -gamma = {-gamma}")
    return (z - gamma) / (z + gamma)


def sda_rate_bound(problem, shift=None, gamma=None):
    """Doubling convergence-rate bound rho(C(D-CX)) * rho(C(A-BY)).

    The spectra come from the located eigenvalues: the closed-loop
    spectrum {0, lam_2..lam_n} with 0 replaced by eta (and, on the dual
    side, by -xi) when the corresponding shift is active.  Equals 1.0
    exactly for the unshifted critical case.
    """
    _require_critical(problem)
    if gamma is None:
        gamma = resolve_gamma(problem.quad, SdaConfig())
    eta, xi = (shift.eta, shift.xi) if shift is not None else (0.0, 0.0)
    lams = closed_loop_spectrum(problem)[1:]
    # a single shift's xi = 0 gives |cayley(-0.0)| = 1, as an unshifted zero does
    rho1 = max(abs(cayley(z, gamma)) for z in np.concatenate([[eta], lams]))
    rho2 = max(abs(cayley(z, gamma)) for z in np.concatenate([[-xi], lams]))
    return rho1 * rho2
