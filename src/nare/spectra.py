"""Secular-equation machinery: eigenvalue location by safeguarded Newton, Cayley rates.

The shifted block matrix factors as

    det(Mbar - lam I) = -prod_i(1/om_i - lam)^2 * (g1 + eta*xi*g2*g3)(lam)

with g1 = lam s(c), g2 = s(c om), g3 = s(c/om) for the rational sums
s(num) = sum_i num_i/(1/om_i - lam).  A shift with eta*xi = 0, the single
shift among them, leaves the factor of the critical block matrix,

    det(M - lam I) = -prod_i(1/om_i - lam)^2 * g1(lam),

so the eigenvalues of M are 0 (g1 carries the factor lam), the n poles
1/om_i (the squared prefactor cancels each simple pole of g1) and one root
of g1 per pole gap.  The rational sums stay finite at any n, so the roots
are found on the sums and their derivatives, all brackets at once, and the
product prefactor, which overflows doubles near the spectrum edges, is
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
MAX_ROUNDS = 200
ROW_BLOCK = 1 << 15


@dataclass(frozen=True)
class SpectrumReport:
    """Located eigenvalues with their brackets and secular residuals.

    ``fixed_roots`` holds the poles 1/om_i when they are eigenvalues
    (unshifted critical case only); ``free_roots`` the located ones.
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


def _rational_sums(problem, *nums, poles=None):
    """Return ``sums``: lams -> array (2, len(nums), len(lams)) of s(num) =
    sum_i num_i r_i and s'(num) = sum_i num_i r_i^2, r_i = 1/(p_i - lam), over
    the poles p_i = 1/om_i or ``poles``.

    Each point is one row of r, one division per pole, contracted with the
    numerators by einsum before and after squaring.  Not by BLAS (no
    ``optimize``): a gemv rounds unlike the same row of a gemm, while einsum
    sums each row in one order, so a point rounds the same in a batch as
    alone.  The points go ``ROW_BLOCK // n`` at a time, so r stays in cache.
    """
    poles = 1.0 / problem.omegas if poles is None else poles
    nums = np.array(nums)
    rows = max(1, ROW_BLOCK // poles.size)

    def sums(lams):
        out = np.empty((2, len(nums), lams.size))
        for i in range(0, lams.size, rows):
            r = 1.0 / (poles - lams[i:i + rows, None])
            out[0, :, i:i + rows] = np.einsum("rn,kn->kr", r, nums)
            out[1, :, i:i + rows] = np.einsum("rn,kn->kr", r * r, nums)
        return out

    return sums


def _secular_roots(fn, lo, hi, sign_lo, poles, width):
    """Find the root in every bracket [lo_k, hi_k] at once, by safeguarded Newton.

    ``fn(lams, ks)`` gives values and derivatives at points ``lams`` of brackets
    ``ks``; ``sign_lo`` is each bracket's sign just right of lo.  The step divides
    out the poles ``(a, m_a, b, m_b)``, a <= lo and b >= hi of orders m_a, m_b:
    dx = f / (f' + f (m_a/(x - a) - m_b/(b - x))).  A step that leaves the
    bracket, or is not below half the move two rounds before, takes the
    midpoint.  A step below width/4, or a bracket below ``width``, makes the
    point a candidate: the bracket closes on the points 0.45 width either side
    of it when their signs straddle, so no end sits on the root, where the sign
    is rounding; else a bracket below ``width`` closes as it is.  Only points
    inside the starting brackets are evaluated, so their ends may be poles.
    Returns the roots and the ends; ``BracketFailure`` names a bracket still
    open after ``MAX_ROUNDS``.
    """
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    out, ks = np.array([lo, hi, 0.5 * (lo + hi)]), np.flatnonzero(hi - lo > width)
    # a column per open bracket: ends, point, its last two moves, starting ends, poles, sign
    state = np.array([*out, hi - lo, hi - lo, lo, hi,
                      *(np.broadcast_to(v, lo.shape) for v in (*poles, sign_lo))])[:, ks]
    for _ in range(MAX_ROUNDS):
        if ks.size == 0:
            break
        lo_k, hi_k, x_k, move, move2, lo0, hi0, a, m_a, b, m_b, s_lo = state
        f, df = fn(x_k, ks)
        side = np.sign(f) * s_lo  # 1 left of the root, -1 right of it
        np.copyto(lo_k, x_k, where=side >= 0)
        np.copyto(hi_k, x_k, where=side <= 0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / (df + f * (m_a / (x_k - a) - m_b / (b - x_k)))
        small, xn = np.abs(step) < 0.25 * width, x_k - step
        ok = (small & (lo0 < xn) & (xn < hi0)
              | (lo_k < xn) & (xn < hi_k) & (np.abs(step) <= 0.5 * move2))
        xn = np.where(ok, xn, np.where(hi_k - lo_k > width, 0.5 * (lo_k + hi_k), x_k))
        move2[:], move[:], x_k[:] = move, np.abs(xn - x_k), xn
        cand, shut, h = small | (hi_k - lo_k <= width), np.zeros(ks.size, dtype=bool), 0.45 * width
        c = np.flatnonzero(cand & (lo0 < x_k - h) & (x_k + h < hi0))
        if c.size:
            cc, pts = np.tile(c, 2), np.concatenate([x_k[c] - h, x_k[c] + h])
            side = np.sign(fn(pts, ks[cc])[0]) * s_lo[cc]
            np.maximum.at(lo_k, cc[side >= 0], pts[side >= 0])
            np.minimum.at(hi_k, cc[side <= 0], pts[side <= 0])
            shut[c] = (side[:c.size] == 1) & (side[c.size:] == -1)
            lo_k[shut], hi_k[shut] = x_k[shut] - h, x_k[shut] + h
        done = shut | (hi_k - lo_k <= width)
        x_k[cand & ~done] = 0.5 * (lo_k + hi_k)[cand & ~done]
        out[:, ks[done]] = state[:3, done]
        state, ks = state[:, ~done], ks[~done]
    if ks.size:
        raise BracketFailure(f"bracket {ks[0]} ({state[0, 0]}, {state[1, 0]}) still open "
                             f"after {MAX_ROUNDS} rounds")
    return np.clip(out[2], out[0], out[1]), out[0], out[1]


def _gap_roots(poles, fn, sign_lo, m_lo=1.0):
    """``_secular_roots`` over the gaps of the sorted ``poles``, left ones of order ``m_lo``."""
    return _secular_roots(fn, poles[:-1], poles[1:], sign_lo, (poles[:-1], m_lo, poles[1:], 1.0),
                          BRACKET_WIDTH_FACTOR * poles[-1])


def interlaced_spectrum(problem):
    """Eigenvalues of the critical block matrix M.

    Returns 0, the n poles 1/om_i, and one located root of g1 strictly
    inside each pole gap, with the strict interlacing verified.  g1 falls
    to -inf just right of each pole and rises to +inf just left of the
    next, which fixes the starting signs; every gap lies at lam > 0, so
    s(c) = g1/lam, which is solved for, has g1's sign.  The residual of a
    root is |sum_j t_j| / max_j |t_j| with t_j = c_j/(1/om_j - lam): the
    level of cancellation left in g1/lam.
    """
    require_critical(problem, "the secular machinery")
    sums = _rational_sums(problem, problem.weights)
    poles = np.sort(1.0 / problem.omegas)
    roots, lo, hi = _gap_roots(poles, lambda lams, ks: sums(lams)[:, 0], -1.0)
    if not bool(np.all((roots > poles[:-1]) & (roots < poles[1:]))):
        raise BracketFailure("interior root escaped its pole gap")
    terms = problem.weights / (1.0 / problem.omegas - roots[:, None])
    residuals = np.abs(roots * np.sum(terms, axis=1)) / (roots * np.max(np.abs(terms), axis=1))
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
    """Eigenvalues of the shifted block matrix, for a shift that passes ``validate_shift``.

    With eta*xi = 0 (a single shift, or eta = 0) the characteristic
    polynomial is g1's, and this is ``interlaced_spectrum``.  Otherwise it
    locates two roots of the shifted secular function in (0, 1/om_1) and
    two in each pole gap.  The function is negative at 0 and tends to -inf
    at every pole (eta*xi*g2*g3 has double poles), and an analytic probe
    is positive inside each interval: 1/(2 om_1) in the first, and in each
    gap the point where g3 = 4 om_1^2/(om_{k-1} om_k).  The probe is the
    only source of brackets: all intervals are solved together, one root on
    each side of it, with g3 = sum(c) + lam s(c).  A vanishing probe value
    marks a coalesced double root, which occurs exactly on the boundary of
    the admissible region.  Domain: ``BracketFailure`` is raised where a gap
    root sits closer to a pole than the bracket width (weights over many decades).
    """
    validate_shift(problem, shift)
    om1, eta, xi = float(problem.omegas[0]), shift.eta, shift.xi
    if eta * xi == 0.0:
        return interlaced_spectrum(problem)
    on_boundary = abs(xi - omega_lower_bound(eta, om1)) <= 1e-12 * abs(xi)
    om, c = problem.omegas, problem.weights
    sums = _rational_sums(problem, c, c * om)
    w = float(np.sum(c))

    def gbar(lams, ks=None):
        (s, g2), (ds, dg2) = sums(lams)
        g3, dg3 = w + lams * s, s + lams * ds
        return lams * s + eta * xi * g2 * g3, s + lams * ds + eta * xi * (dg2 * g3 + g2 * dg3)

    level_sums = _rational_sums(problem, c / om)
    target = 4.0 * om1 ** 2 / (om[:-1] * om[1:])
    # g3 - target sits near -target away from the right pole: divide out that pole only
    poles = np.sort(1.0 / om)
    level, _, _ = _gap_roots(poles, lambda lams, ks: level_sums(lams)[:, 0]
                             - target[ks] * [[1.0], [0.0]], -1.0, m_lo=0.0)
    lo_end = np.concatenate([[0.0], poles[:-1]])
    probe = np.concatenate([[1.0 / (2.0 * om1)], level])
    gp = gbar(probe)[0]
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
    # divide out the interval's double poles; lam = 0 is no pole
    m_a = np.repeat(np.where(lo_end > 0.0, 2.0, 0.0), 2)
    free, lo, hi = _secular_roots(gbar, lo.ravel(), hi.ravel(), np.tile([-1.0, 1.0], problem.n),
                                  (np.repeat(lo_end, 2), m_a, np.repeat(poles, 2), 2.0),
                                  BRACKET_WIDTH_FACTOR * poles[-1])
    # two positive roots per interval, in order, strictly between its ends
    a, b = free[0::2], free[1::2]
    inside = (lo_end < a) & (a < poles) & (lo_end < b) & (b < poles)
    bad = np.flatnonzero(~inside | ~((a < b) | (coalesced & (a == b))))
    if bad.size:
        k = bad[0]
        raise BracketFailure(f"interval {k}: pair ({a[k]}, {b[k]}) violates "
                             f"the interlacing pattern")
    return SpectrumReport(
        fixed_roots=np.array([]),
        free_roots=free,
        brackets=tuple(zip(lo, hi)),
        residuals=np.abs(gbar(free)[0]),
        bracket_widths=hi - lo,
        includes_zero=False,
        on_boundary=on_boundary,
        coalesced=tuple(int(k) for k in np.flatnonzero(coalesced)),
    )


def closed_loop_spectrum(problem):
    """Eigenvalues {0, lam_2, ..., lam_n} of D - C X at the minimal solution.

    These are the nonnegative eigenvalues of the signed block matrix H,
    located as roots of the even secular function
    1 - sum c_j / (1 - om_j^2 lam^2), one per pole gap, where it falls
    from +inf just right of one pole to -inf just left of the next.
    """
    require_critical(problem, "the secular machinery")
    om, c = problem.omegas, problem.weights
    # in mu = lam^2 the sum is s(c/om^2) over the poles 1/om^2; find s - 1 = 0 in mu
    sums = _rational_sums(problem, c / om ** 2, poles=1.0 / om ** 2)
    mus, _, _ = _gap_roots(np.sort(1.0 / om ** 2),
                           lambda mus, ks: sums(mus)[:, 0] - [[1.0], [0.0]], -1.0)
    return np.concatenate([[0.0], np.sqrt(mus)])


def cayley(z, gamma):
    """Cayley transform (z - gamma)/(z + gamma), elementwise; maps (0, inf) into (-1, 1)."""
    z, gamma = np.asarray(z, dtype=np.float64), float(gamma)
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
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
        validate_shift(problem, shift)
    # sda_solve's gamma rule, on the quadruple that the shifted run iterates
    gamma = resolve_gamma(low_rank_form(problem, eta, xi), SdaConfig(gamma=gamma))
    # a single shift's xi = 0 gives |cayley(-0.0)| = 1, as an unshifted zero does
    rho1 = float(np.max(np.abs(cayley(np.concatenate([[eta], lams]), gamma))))
    rho2 = float(np.max(np.abs(cayley(np.concatenate([[-xi], lams]), gamma))))
    return rho1 * rho2
