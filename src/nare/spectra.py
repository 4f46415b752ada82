"""Secular-equation machinery: eigenvalue location by bisection, Cayley rates.

The double-shifted block matrix factors as

    det(Mbar - lam I) = -prod_i(1/om_i - lam)^2 * (g1 + eta*xi*g2*g3)(lam)

with the rational sums g1, g2, g3 below, and the critical-case block
matrix is its eta*xi = 0 case,

    det(M - lam I) = -prod_i(1/om_i - lam)^2 * g1(lam),

so the eigenvalues of M are 0 (g1 carries the factor lam), the n poles
1/om_i (the squared prefactor cancels each simple pole of g1) and one root
of g1 per pole gap.  The rational sums stay finite at any n, so every root
is bisected on their sign and the product prefactor, which overflows
doubles near the spectrum edges, is never formed.  (Deriving the
determinant of the diagonal-plus-rank-2 form gives g1, not lam*g1, in the
first term; the n=1 case with the boundary shift confirms it: the shifted
matrix has the double eigenvalue 1/(2*om_1), which is a root of
g1 + eta*xi*g2*g3 only.)
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailure, NotCriticalCase, PoleHit, ShiftOutOfRegion
from .sda import SdaConfig, resolve_gamma

POLE_GUARD = 1e-14
BRACKET_WIDTH_FACTOR = 1e-12
MAX_BISECT = 200
CHEB_SAMPLES = (64, 128, 256, 512, 1024, 2048, 4096)


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


def _check_poles(problem, lam):
    if np.any(np.abs(1.0 / problem.omegas - lam) < POLE_GUARD):
        raise PoleHit(f"lambda = {lam!r} collides with a pole 1/omega_i")


def _secular_evaluator(problem):
    """Return ``sums``: lams -> (g1, g2, g3), each an array over ``lams``.

    g1 = lam * sum c_i/(1/om_i - lam)
    g2 = sum c_i om_i/(1/om_i - lam)
    g3 = sum c_i/(om_i (1/om_i - lam))

    The poles and numerators are formed once per problem, so each call
    costs three n x len(lams) divisions and their column sums.
    """
    om, c = problem.omegas, problem.weights
    poles = (1.0 / om)[:, None]
    num1, num2, num3 = c[:, None], (c * om)[:, None], (c / om)[:, None]

    def sums(lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
        den = poles - lams[None, :]
        return (lams * np.sum(num1 / den, axis=0),
                np.sum(num2 / den, axis=0),
                np.sum(num3 / den, axis=0))

    return sums


def secular_sums(problem, lam):
    """The three rational sums (g1, g2, g3) at ``lam``, as floats."""
    _require_critical(problem)
    lam = float(lam)
    _check_poles(problem, lam)
    return tuple(float(g[0]) for g in _secular_evaluator(problem)(lam))


def shifted_secular(problem, shift, lam):
    """Secular function of the shifted block matrix: g1 + eta*xi*g2*g3.

    Off the poles its zeros are exactly the eigenvalues of the shifted
    block matrix; at xi = 0 it reduces to g1, whose off-pole zeros are
    zero plus the interior eigenvalues of the unshifted matrix.
    """
    from .shift import validate_shift  # local import to avoid a cycle

    _require_critical(problem)
    validate_shift(shift.eta, shift.xi, shift.mode, float(problem.omegas[0]),
                   relaxed=True)
    g1, g2, g3 = secular_sums(problem, lam)
    return g1 + shift.eta * shift.xi * g2 * g3


def _bisect(fn, a, b, sa, width):
    """Bisection on sign values, ``sa`` the sign just right of ``a``.

    Only midpoints are evaluated, so ``a`` and ``b`` may be poles.
    Returns (root, final half-bracket).
    """
    for _ in range(MAX_BISECT):
        if b - a <= width:
            break
        mid = 0.5 * (a + b)
        sm = fn(mid)
        if sm == 0:
            return mid, (mid, mid)
        if sm == sa:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), (a, b)


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

    def sgn(lam):
        return np.sign(sums(lam)[0][0])

    roots, brackets, residuals, widths = [], [], [], []
    for k in range(problem.n - 1):
        root, (lo, hi) = _bisect(sgn, poles[k], poles[k + 1], -1.0, width)
        terms = problem.weights / (1.0 / problem.omegas - root)
        roots.append(root)
        brackets.append((lo, hi))
        residuals.append(abs(sums(root)[0][0]) / (root * np.max(np.abs(terms))))
        widths.append(hi - lo)

    values = np.array(roots)
    if problem.n > 1:
        inside = (values > poles[:-1]) & (values < poles[1:])
        if not bool(np.all(inside)):
            raise BracketFailure("interior root escaped its pole gap")
    report = SpectrumReport(
        fixed_roots=poles.copy(),
        free_roots=values,
        brackets=tuple(brackets),
        residuals=np.array(residuals),
        bracket_widths=np.array(widths),
        includes_zero=True,
    )
    eigs = report.eigenvalues
    if np.any(np.diff(eigs) <= 0):
        raise BracketFailure("interlacing order violated")
    return report


def _chebyshev_points(a, b, m):
    theta = (2.0 * np.arange(m) + 1.0) * math.pi / (2.0 * m)
    return np.sort(0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta))


def _g3_level_point(sums, a, b, target):
    """Point in (a, b) where g3 reaches ``target``; g3 rises from -inf to +inf."""
    root, _ = _bisect(lambda lam: np.sign(sums(lam)[2][0] - target), a, b, -1.0, 0.0)
    return root


def shifted_interlaced_spectrum(problem, shift):
    """Eigenvalues of the double-shifted block matrix.

    Locates two roots of the shifted secular function in (0, 1/om_1) and
    two in each pole gap: Chebyshev sampling (64 doubling to 4096 points)
    finds the positive hump; if sampling misses it, the hump is probed at
    an analytically guaranteed point (the midpoint 1/(2 om_1) for the
    first interval, the g3 level-set point for the gaps).  A vanishing
    probe value marks a coalesced double root, which occurs exactly on
    the boundary of the admissible region.  The function is negative at
    0 and tends to -inf at every pole (eta*xi*g2*g3 has double poles), so
    each hump is bracketed by a rising and a falling sign change.
    """
    from .shift import omega_lower_bound, validate_shift

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

    def gbar_many(lams):
        g1, g2, g3 = sums(lams)
        return g1 + eta * xi * g2 * g3

    def gbar(lam):
        return float(gbar_many(lam)[0])

    poles = np.sort(1.0 / problem.omegas)
    width = BRACKET_WIDTH_FACTOR * poles[-1]
    free, brackets, residuals, widths = [], [], [], []
    coalesced = []

    for k in range(problem.n):
        a = 0.0 if k == 0 else poles[k - 1]
        b = poles[k]
        pair = None
        for m in CHEB_SAMPLES:
            pts = _chebyshev_points(a, b, m)
            signs = np.sign(gbar_many(pts))
            idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
            if len(idx) >= 2:
                pair = ((pts[idx[0]], pts[idx[0] + 1], signs[idx[0]]),
                        (pts[idx[-1]], pts[idx[-1] + 1], signs[idx[-1]]))
                break
        if pair is None:
            # analytically guaranteed positive probe inside the interval
            if k == 0:
                probe = 1.0 / (2.0 * om1)
            else:
                target = 4.0 * om1 ** 2 / (problem.omegas[k - 1] * problem.omegas[k])
                probe = _g3_level_point(sums, a, b, target)
            gp = gbar(probe)
            if gp > 0.0:
                pair = ((a, probe, -1.0), (probe, b, 1.0))
            elif on_boundary and abs(gp) <= 1e-9:
                # double root on the region boundary
                free.extend([probe, probe])
                brackets.extend([(probe, probe)] * 2)
                residuals.extend([abs(gp)] * 2)
                widths.extend([0.0, 0.0])
                coalesced.append(k)
                continue
            else:
                raise BracketFailure(
                    f"no positive value of the shifted secular function found "
                    f"in interval {k} ({a}, {b})"
                )
        for lo0, hi0, sa in pair:
            root, (lo, hi) = _bisect(lambda x: np.sign(gbar(x)), lo0, hi0, sa, width)
            free.append(root)
            brackets.append((lo, hi))
            residuals.append(abs(gbar(root)))
            widths.append(hi - lo)

    free = np.array(free)
    report = SpectrumReport(
        fixed_roots=np.array([]),
        free_roots=free,
        brackets=tuple(brackets),
        residuals=np.array(residuals),
        bracket_widths=np.array(widths),
        includes_zero=False,
        on_boundary=on_boundary,
        coalesced=tuple(coalesced),
    )
    _check_shifted_order(problem, report)
    return report


def _check_shifted_order(problem, report):
    """Verify the two-per-gap pattern with all eigenvalues positive."""
    poles = np.sort(1.0 / problem.omegas)
    vals = report.free_roots
    if len(vals) != 2 * problem.n or np.any(vals <= 0):
        raise BracketFailure("shifted spectrum must be 2n positive values")
    for k in range(problem.n):
        lo = 0.0 if k == 0 else poles[k - 1]
        hi = poles[k]
        a, b = vals[2 * k], vals[2 * k + 1]
        pair_ok = (lo < a < hi) and (lo < b < hi)
        order_ok = a < b or (k in report.coalesced and a == b)
        if not (pair_ok and order_ok):
            raise BracketFailure(
                f"interval {k}: pair ({a}, {b}) violates the interlacing pattern"
            )


def closed_loop_spectrum(problem):
    """Eigenvalues {0, lam_2, ..., lam_n} of D - C X at the minimal solution.

    These are the nonnegative eigenvalues of the signed block matrix H,
    located as roots of the even secular function
    1 - sum c_j / (1 - om_j^2 lam^2), one per pole gap, where it falls
    from +inf just right of one pole to -inf just left of the next.
    """
    _require_critical(problem)
    om, c = problem.omegas, problem.weights

    def even_secular(lam):
        return 1.0 - float(np.sum(c / (1.0 - om ** 2 * lam ** 2)))

    poles = np.sort(1.0 / om)
    width = BRACKET_WIDTH_FACTOR * poles[-1]
    roots = [0.0]
    for k in range(problem.n - 1):
        root, _ = _bisect(lambda x: np.sign(even_secular(x)), poles[k], poles[k + 1],
                          1.0, width)
        roots.append(root)
    return np.array(roots)


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
    lams = closed_loop_spectrum(problem)[1:]
    if shift is None:
        primal = np.concatenate([[0.0], lams])
        dual = primal
    elif shift.mode == "single":
        primal = np.concatenate([[shift.eta], lams])
        dual = np.concatenate([[0.0], lams])
    else:
        primal = np.concatenate([[shift.eta], lams])
        dual = np.concatenate([[-shift.xi], lams])
    rho1 = max(abs(cayley(z, gamma)) for z in primal)
    rho2 = max(abs(cayley(z, gamma)) for z in dual)
    return rho1 * rho2
