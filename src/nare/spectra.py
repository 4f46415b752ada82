"""Secular-equation machinery: eigenvalue location by safeguarded Newton, Cayley rates.

Every pole-gap root here is a root of one diagonal-plus-rank-one secular
equation (Golub, SIAM Review 15, 1973), s(num) = sum_i num_i/(p_i - x) = level
on sorted poles p_i.  The shifted block matrix factors as

    det(Mbar - lam I) = -prod_i(1/om_i - lam)^2 * (g1 + eta*xi*g2*g3)(lam)

with g1 = lam s(c), g2 = s(c om), g3 = s(c/om) on the poles 1/om_i.  A shift
with eta*xi = 0, the single shift among them, leaves det(M - lam I) =
-prod_i(1/om_i - lam)^2 * g1(lam), so the eigenvalues of M are 0, the n poles
1/om_i (the squared prefactor cancels each simple pole of g1) and the root of
s(c) = 0 in each pole gap.  The closed-loop roots solve s(c) = 0 on the poles
1/om_i^2 in mu = lam^2, and the shifted spectrum's probes solve s(c/om) = level.
The sums stay finite at any n, so the roots are found on the sums and their
derivatives, all brackets at once; the product prefactor, which overflows
doubles near the spectrum edges, is never formed.  (The determinant of the
diagonal-plus-rank-2 form has g1, not lam*g1, in its first term: with n = 1 and
the boundary shift the shifted matrix has the double eigenvalue 1/(2*om_1), a
root of g1 + eta*xi*g2*g3 only.)
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailure, PoleHit
from .problem import low_rank_form, require_critical
from .sda import resolve_gamma
from .shift import omega_lower_bound, validate_shift

POLE_GUARD = 1e-14
MAX_ROUNDS = 200
ROW_BLOCK = 1 << 15


@dataclass(frozen=True)
class SpectrumReport:
    """Located eigenvalues.

    ``fixed_roots`` holds the poles 1/om_i when they are eigenvalues
    (unshifted critical case only); ``free_roots`` the located ones.
    """

    fixed_roots: np.ndarray
    free_roots: np.ndarray
    includes_zero: bool
    on_boundary: bool = False
    coalesced: tuple = field(default=())

    @property
    def eigenvalues(self):
        parts = [self.fixed_roots, self.free_roots]
        if self.includes_zero:
            parts.append(np.array([0.0]))
        return np.sort(np.concatenate(parts))


def _rational_sums(poles, *nums):
    """Return ``sums``: (origins, taus) -> array (2, len(nums), len(taus)) of
    s(num) = sum_i num_i r_i and s'(num) = sum_i num_i r_i^2 at lam = origin + tau,
    r_i = 1/((p_i - origin) - tau), over the ``poles`` p_i.

    With a pole p_j as origin, r_j = -1/tau to the last bit however near lam sits
    to p_j; at origin 0, r_i = 1/(p_i - lam).  Each point is one row of r, one
    division per pole, contracted with the numerators by einsum before and after
    squaring.  Not by BLAS (no ``optimize``): a gemv rounds unlike the same row of
    a gemm, while einsum sums each row in one order, so a point rounds the same in
    a batch as alone.  The points go ``ROW_BLOCK // n`` at a time, so r stays in cache.
    """
    nums = np.array(nums)
    rows = max(1, ROW_BLOCK // poles.size)

    def sums(origins, taus):
        origins, taus = np.broadcast_arrays(origins, taus)
        out = np.empty((2, len(nums), taus.size))
        for i in range(0, taus.size, rows):
            r = poles - origins[i:i + rows, None]
            r -= taus[i:i + rows, None]
            np.divide(1.0, r, out=r)
            out[0, :, i:i + rows] = np.einsum("rn,kn->kr", r, nums)
            r *= r
            out[1, :, i:i + rows] = np.einsum("rn,kn->kr", r, nums)
        return out

    return sums


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _secular_roots(fn, lo, hi, sign_lo, poles, residues=(np.nan, np.nan)):
    """Find the root in every bracket [lo_k, hi_k] at once, to relative accuracy,
    by safeguarded Newton on its distance tau = lam - o from the nearer end o.

    ``fn(origins, taus, ks)`` gives values and derivatives at the points
    origin + tau of brackets ``ks``; ``sign_lo`` is each bracket's sign just
    right of lo.  The sign at the midpoint picks o, the end on the root's side,
    so tau and the pole distances (p - o) - tau keep their relative accuracy
    however near a pole the root sits, as in LAPACK's dlaed4.  Where the ends are
    simple poles of f with the numerators ``residues`` (w_lo, w_hi), the first
    step goes to the root of the two-pole model w_lo/(lo - lam) + w_hi/(hi - lam)
    + C, C matching f at the midpoint, if it lies strictly inside the root's half
    (Li, LAPACK Working Note 89).  Every other step divides out the poles
    ``(a, m_a, b, m_b)``, a <= lo and b >= hi of orders m_a, m_b:
    dt = f / (f' + f (m_a/(t - a) - m_b/(b - t))).  A step that leaves the
    bracket, or is not below half the move two rounds before, takes the midpoint.
    A point with f = 0 takes no step, even where f' = 0 too (dt would be 0/0).
    A bracket stops, taking its step, at a step below 2 eps |tau|; from the
    second round, at a step below 1e-10 |tau| that shrank at least quadratically,
    |step| |tau| <= 16 move^2 against the last move, so that the next would fall
    below eps |tau| (a linear run never passes this); at a step below 1e-8 |tau|
    that is not below half the last move (the function's rounding); or at
    adjacent ends.  Only points strictly inside the starting brackets are
    evaluated, so their ends may be poles, and a root is returned strictly inside
    its bracket, as one within half an ulp of a pole would round onto it; but a
    bracket with no float inside returns its left end.
    ``interlaced_spectrum``'s escape check and ``shifted_interlaced_spectrum``'s
    interlacing-pattern check refuse such a root.
    ``BracketFailure`` names a bracket still open after ``MAX_ROUNDS``.
    """
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    roots, ks = lo.copy(), np.flatnonzero(lo < hi)
    a, m_a, b, m_b, s_lo, w_lo, w_hi = (np.broadcast_to(v, lo.shape)[ks]
                                        for v in (*poles, sign_lo, *residues))
    half = 0.5 * (hi - lo)[ks]
    f, df = fn(lo[ks], half, ks)
    right = np.sign(f) * s_lo > 0  # the root lies right of the midpoint: o = hi
    o, t = np.where(right, hi[ks], lo[ks]), np.where(right, -half, half)
    # the two-pole model's root in tau: with its poles at tau 0 (the origin) and
    # 2 t (the far end), it solves c x^2 - beta x + gamma = 0, c = C
    c = f + (w_lo - w_hi) / half
    beta, gamma = 2.0 * t * c + w_lo + w_hi, 2.0 * t * np.where(right, w_hi, w_lo)
    model = 2.0 * gamma / (beta + np.sqrt(beta * beta - 4.0 * c * gamma))
    # a column per open bracket: origin, ends and point in tau, its last two
    # moves, poles, sign, and the values at the point
    state = np.array([o, np.minimum(t, 0.0), np.maximum(t, 0.0), t, 2.0 * half, 2.0 * half,
                      a - o, m_a, b - o, m_b, s_lo, f, df])
    for r in range(MAX_ROUNDS):
        o, t_lo, t_hi, t, move, move2, a, m_a, b, m_b, s_lo, f, df = state
        step = np.where(f == 0.0, 0.0, f / (df + f * (m_a / (t - a) - m_b / (b - t))))
        if r == 0:
            step = np.where((t_lo < model) & (model < t_hi) & (f != 0.0), t - model, step)
        tn, mid, size, at = t - step, 0.5 * (t_lo + t_hi), np.abs(step), np.abs(t)
        done = ((size <= 2.0 * np.finfo(np.float64).eps * at) | (mid == t_lo) | (mid == t_hi)
                | (size <= 1e-8 * at) & (size > 0.5 * move))
        if r:
            done |= (size <= 1e-10 * at) & (size * at <= 16.0 * move * move)
        roots[ks[done]] = (o + np.clip(tn, t_lo, t_hi))[done]
        tn = np.where((t_lo < tn) & (tn < t_hi) & (size <= 0.5 * move2), tn, mid)
        move2[:], move[:], t[:] = move, np.abs(tn - t), tn
        state, ks = state[:, ~done], ks[~done]
        if ks.size == 0:
            break
        o, t_lo, t_hi, t = state[:4]
        state[11:] = fn(o, t, ks)
        side = np.sign(state[11]) * state[10]  # 1 left of the root, -1 right of it
        np.copyto(t_lo, t, where=side >= 0)
        np.copyto(t_hi, t, where=side <= 0)
    else:
        o, t_lo, t_hi = state[:3, 0]
        raise BracketFailure(f"bracket {ks[0]} ({o + t_lo}, {o + t_hi}) still open "
                             f"after {MAX_ROUNDS} rounds")
    return np.clip(roots, np.nextafter(lo, hi), np.nextafter(hi, lo))


def _gap_roots(problem, num, poles, level=0.0, m_lo=1.0, gaps=slice(None)):
    """The root of s(num) = ``level`` (a scalar, or one value per gap) in each of the
    ``gaps`` of the sorted ``poles``, in order, the left poles divided out at order ``m_lo``.

    With positive ``num``, s rises from -inf just right of each pole to +inf just
    left of the next, so its sign just right of a gap's left pole is -1.  The
    numerators at a gap's two poles are the residues of its two-pole model.
    """
    require_critical(problem, "the secular machinery")
    sums = _rational_sums(poles, num)
    order = np.argsort(poles)
    poles, num = poles[order], num[order]
    lo, hi = poles[:-1][gaps], poles[1:][gaps]
    level = np.broadcast_to(level, poles[:-1].shape)[gaps] * np.array([[1.0], [0.0]])
    return _secular_roots(lambda origins, taus, ks: sums(origins, taus)[:, 0] - level[:, ks],
                          lo, hi, -1.0, (lo, m_lo, hi, 1), (num[:-1][gaps], num[1:][gaps]))


def interlaced_spectrum(problem):
    """Eigenvalues of the critical block matrix M.

    Returns 0, the n poles 1/om_i, and the root of g1 = lam s(c) strictly
    inside each pole gap, located as s(c) = 0 on the poles 1/om_i (every gap
    lies at lam > 0).  ``BracketFailure`` is raised where a root is not
    strictly inside its gap.
    """
    roots = _gap_roots(problem, problem.weights, 1.0 / problem.omegas)
    poles = np.sort(1.0 / problem.omegas)
    if not bool(np.all((roots > poles[:-1]) & (roots < poles[1:]))):
        raise BracketFailure("interior root escaped its pole gap")
    return SpectrumReport(fixed_roots=poles, free_roots=roots, includes_zero=True)


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
    the admissible region.  Domain: ``BracketFailure`` is raised where a probe
    value is not positive.  With weights over many decades a probe can sit
    within a few ulps of a pole, where the positive stretch around it can be
    narrower than the float spacing of lam: with weights scaled by
    10^U(-14, 0), 11 of 300 random direction sets (n = 2-23) fail so at the
    default double shift and 3 at (0.3, -0.2)/om_1.
    """
    validate_shift(problem, shift)
    om1, eta, xi = float(problem.omegas[0]), shift.eta, shift.xi
    if eta * xi == 0.0:
        return interlaced_spectrum(problem)
    on_boundary = abs(xi - omega_lower_bound(eta, om1)) <= 1e-12 * abs(xi)
    om, c = problem.omegas, problem.weights
    sums = _rational_sums(1.0 / om, c, c * om)
    w = float(np.sum(c))

    def gbar(origins, taus, ks=None):
        (s, g2), (ds, dg2) = sums(origins, taus)
        lams = origins + taus
        g3, dg3 = w + lams * s, s + lams * ds
        return lams * s + eta * xi * g2 * g3, s + lams * ds + eta * xi * (dg2 * g3 + g2 * dg3)

    # g3 - level sits near -level away from the right pole: divide out that pole only
    level = _gap_roots(problem, c / om, 1.0 / om, 4.0 * om1 ** 2 / (om[:-1] * om[1:]), m_lo=0.0)
    poles = np.sort(1.0 / om)
    lo_end = np.concatenate([[0.0], poles[:-1]])
    probe = np.concatenate([[1.0 / (2.0 * om1)], level])
    gp = gbar(0.0, probe)[0]
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
    free = _secular_roots(gbar, lo.ravel(), hi.ravel(), np.tile([-1.0, 1.0], problem.n),
                          (np.repeat(lo_end, 2), m_a, np.repeat(poles, 2), 2.0))
    # two positive roots per interval, in order, strictly between its ends
    a, b = free[0::2], free[1::2]
    inside = (lo_end < a) & (a < poles) & (lo_end < b) & (b < poles)
    bad = np.flatnonzero(~inside | ~((a < b) | (coalesced & (a == b))))
    if bad.size:
        k = bad[0]
        raise BracketFailure(f"interval {k}: pair ({a[k]}, {b[k]}) violates "
                             f"the interlacing pattern")
    return SpectrumReport(fixed_roots=np.array([]), free_roots=free, includes_zero=False,
                          on_boundary=on_boundary,
                          coalesced=tuple(int(k) for k in np.flatnonzero(coalesced)))


def closed_loop_spectrum(problem):
    """Eigenvalues {0, lam_2, ..., lam_n} of D - C X at the minimal solution.

    These are the nonnegative eigenvalues of the signed block matrix H, the
    roots of the even secular function 1 - sum c_j/(1 - om_j^2 lam^2).  With
    sum c = 1 it equals -mu s(c) on the poles 1/om_j^2, mu = lam^2, so lam_k
    is the square root of the root of s(c) = 0 in the k-th gap.  This solves
    the problem with its weights normalized to sum exactly to one, for which
    the reported 0 is an exact root.
    """
    mus = _gap_roots(problem, problem.weights, 1.0 / problem.omegas ** 2)
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

    The spectra are the closed-loop spectrum {0, lam_2..lam_n} with 0
    replaced by eta (and, on the dual side, by -xi) when the corresponding
    shift is active; the shift must lie in the closure of its region.
    |C(z)| = |z - gamma|/(z + gamma) falls on [0, gamma] and rises after it,
    so only lam_2 and lam_n are located.  Equals 1.0 exactly for the
    unshifted critical case.
    """
    lams = np.sqrt(_gap_roots(problem, problem.weights, 1.0 / problem.omegas ** 2,
                              gaps=[0, -1][:problem.n - 1]))  # the critical gate
    eta, xi = (shift.eta, shift.xi) if shift is not None else (0.0, 0.0)
    if shift is not None:
        validate_shift(problem, shift)
    # sda_solve's gamma rule, on the quadruple that the shifted run iterates
    gamma = resolve_gamma(low_rank_form(problem, eta, xi), gamma)
    # a single shift's xi = 0 gives |cayley(-0.0)| = 1, as an unshifted zero does
    rho1 = float(np.max(np.abs(cayley(np.concatenate([[eta], lams]), gamma))))
    rho2 = float(np.max(np.abs(cayley(np.concatenate([[-xi], lams]), gamma))))
    return rho1 * rho2
