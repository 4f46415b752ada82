"""Independent oracles used by the test suite.

Everything here recomputes expected values through routes that do not
touch the package's own algorithms: bisection on the Legendre
recurrence for quadrature data, LU determinant signs for spectra, and a
direct transcription of the shifted fixed-point iteration for reference
solutions, the classic and the shifted vector iterations one sweep and one
measurement at a time, the rational secular sums one point at a time, and
the coefficient quadruples and the shift-equivalence gap written out densely,
and the secular roots bisected in mpmath.
"""

import numpy as np

from nare import PoleHit
from nare.problem import require_critical
from nare.spectra import POLE_GUARD


def legendre_value(k, x):
    """P_k(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    if k == 0:
        return 1.0
    for j in range(1, k):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p


def legendre_derivative(k, x):
    """P_k'(x) from P_k and P_{k-1}."""
    return k * (x * legendre_value(k, x) - legendre_value(k - 1, x)) / (x * x - 1.0)


def gauss_legendre_bisect(k):
    """Nodes and weights of the k-node rule on [-1, 1] via sign bisection.

    Roots of P_k are isolated by a fine sign scan and bisected to ~1e-15;
    weights use w = 2 / ((1 - x^2) P_k'(x)^2).
    """
    grid = np.linspace(-1.0, 1.0, 20001)
    vals = np.array([legendre_value(k, x) for x in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            a, b = grid[i], grid[i + 1]
            fa = legendre_value(k, a)
            for _ in range(100):
                mid = 0.5 * (a + b)
                fm = legendre_value(k, mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if (fa < 0) == (fm < 0):
                    a, fa = mid, fm
                else:
                    b = mid
            roots.append(0.5 * (a + b))
    roots = np.array(sorted(roots))
    weights = np.array([2.0 / ((1 - x * x) * legendre_derivative(k, x) ** 2)
                        for x in roots])
    return roots, weights


def det_sign(mat):
    """Sign of det via numpy's slogdet (LU under the hood)."""
    sign, _ = np.linalg.slogdet(mat)
    return int(sign)


def det_sign_bisect(mat_fn, a, b, iters=120, width=None):
    """Bisect a sign change of det(mat_fn(lam)) on (a, b)."""
    sa = det_sign(mat_fn(a))
    sb = det_sign(mat_fn(b))
    assert sa != 0 and sb != 0 and sa != sb, (sa, sb, a, b)
    for _ in range(iters):
        if width is not None and b - a <= width:
            break
        mid = 0.5 * (a + b)
        sm = det_sign(mat_fn(mid))
        if sm == 0:
            return mid, (mid, mid)
        if sm == sa:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), (a, b)


def transport_arrays(alpha, c, weights, omegas):
    """Vectors (q, delta, d) straight from the defining formulas."""
    q = weights / (2.0 * omegas)
    delta = 1.0 / (c * omegas * (1.0 + alpha))
    d = 1.0 / (c * omegas * (1.0 - alpha))
    return q, delta, d


def original_quadruple_dense(problem):
    """(A, B, C, D) = (Delta - e q^T, e e^T, q q^T, Gamma - q e^T) as outer products."""
    q, e = problem.q, problem.e
    return (np.diag(problem.delta) - np.outer(e, q), np.outer(e, e), np.outer(q, q),
            np.diag(problem.gamma) - np.outer(q, e))


def shifted_quadruple_dense(problem, eta, xi):
    """(Abar, Bbar, Cbar, Dbar) from the rank-two factors, each product written out:

    Q1 = [(1 - eta/gamma) q, q], Q2 = [q, xi q/delta], E1 = [e, -xi e/gamma],
    E2 = [(1 + eta/delta) e, e]; Dbar = Gamma - Q1 E1^T, Cbar = Q1 Q2^T,
    Bbar = E2 E1^T, Abar = Delta - E2 Q2^T.
    """
    q, e, gamma, delta = problem.q, problem.e, problem.gamma, problem.delta
    q1 = np.column_stack([(1.0 - eta / gamma) * q, q])
    q2 = np.column_stack([q, xi * q / delta])
    e1 = np.column_stack([e, -xi * e / gamma])
    e2 = np.column_stack([(1.0 + eta / delta) * e, e])
    return (np.diag(delta) - e2 @ q2.T, e2 @ e1.T, q1 @ q2.T,
            np.diag(gamma) - q1 @ e1.T)


def secular_sums(problem, lam):
    """The three rational sums (g1, g2, g3) at ``lam``, as floats, written out:

    g1 = lam sum c_i/(1/om_i - lam), g2 = sum c_i om_i/(1/om_i - lam) and
    g3 = sum c_i/(om_i (1/om_i - lam)); critical case only, and ``PoleHit``
    within ``POLE_GUARD`` of a pole 1/om_i.
    """
    require_critical(problem, "the secular machinery")
    lam = float(lam)
    om, c = problem.omegas, problem.weights
    den = 1.0 / om - lam
    if np.any(np.abs(den) < POLE_GUARD):
        raise PoleHit(f"lambda = {lam!r} collides with a pole 1/omega_i")
    return (float(lam * np.sum(c / den)), float(np.sum(c * om / den)),
            float(np.sum(c / om / den)))


def shifted_secular(problem, shift, lam):
    """The shifted block matrix's secular function g1 + eta xi g2 g3, written out:

    g1 = lam sum c_i/(1/om_i - lam), g2 = sum c_i om_i/(1/om_i - lam) and
    g3 = sum c_i/(om_i (1/om_i - lam)).  Off the poles its zeros are exactly the
    eigenvalues of the shifted block matrix; at xi = 0 it reduces to g1, whose
    off-pole zeros are zero plus the interior eigenvalues of the unshifted matrix.
    """
    om, c = problem.omegas, problem.weights
    den = 1.0 / om - lam
    g1 = lam * np.sum(c / den)
    return float(g1 + shift.eta * shift.xi * np.sum(c * om / den) * np.sum(c / om / den))


def secular_roots_mp(problem, dps=40, shift=None, gaps=None):
    """Roots of the secular functions of ``problem``'s float64 data, by mpmath
    bisection at ``dps`` digits, as floats.

    The omegas, weights and shift are taken as the exact binary values they
    hold.  Returns a dict: "interlaced", the root of sum_i c_i/(1/om_i - lam)
    in each gap between consecutive poles 1/om_i; "closed_loop", the root of
    1 - sum_i c_i/(1 - om_i^2 lam^2) in each gap; both over the ``gaps`` only
    (indices from the smallest pole; default all); with a double ``shift``,
    "shifted", the two roots of g1 + eta xi g2 g3 in each interval (0 or a
    pole, next pole), one on each side of the probe: 1/(2 om_1) in the first,
    else the point of the gap before where g3 = 4 om_1^2/(om_{k-1} om_k).
    Each bisection halves its interval log2(10) dps + 10 times.
    """
    import mpmath

    with mpmath.workdps(dps):
        om = [mpmath.mpf(float(w)) for w in problem.omegas]  # descending
        c = [mpmath.mpf(float(w)) for w in problem.weights]
        poles = [1 / w for w in om]

        def s(num, lam):
            return mpmath.fsum(v / (p - lam) for v, p in zip(num, poles))

        def bisect(f, lo, hi, sign_lo):
            for _ in range(int(3.33 * dps) + 10):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if mpmath.sign(f(mid)) == sign_lo else (lo, mid)
            return (lo + hi) / 2

        pairs = list(zip(poles, poles[1:]))
        chosen = pairs if gaps is None else [pairs[k] for k in gaps]
        out = {
            "interlaced": [bisect(lambda lam: s(c, lam), a, b, -1) for a, b in chosen],
            "closed_loop": [bisect(lambda lam: 1 - mpmath.fsum(
                ci / (1 - w * w * lam * lam) for ci, w in zip(c, om)), a, b, 1) for a, b in chosen],
        }
        if shift is not None:
            eta, xi = mpmath.mpf(float(shift.eta)), mpmath.mpf(float(shift.xi))
            c_om, c_by_om = [ci * w for ci, w in zip(c, om)], [ci / w for ci, w in zip(c, om)]

            def gbar(lam):
                return lam * s(c, lam) + eta * xi * s(c_om, lam) * s(c_by_om, lam)

            probes = [1 / (2 * om[0])] + [
                bisect(lambda lam: s(c_by_om, lam) - 4 * om[0] ** 2 / (om[k] * om[k + 1]),
                       a, b, -1) for k, (a, b) in enumerate(pairs)]
            out["shifted"] = []
            for lo, probe, hi in zip([mpmath.mpf(0)] + poles, probes, poles):
                assert gbar(probe) > 0
                out["shifted"] += [bisect(gbar, lo, probe, -1), bisect(gbar, probe, hi, 1)]
        return {key: np.array([float(v) for v in vals]) for key, vals in out.items()}


def shift_equivalence_gap_dense(problem, quad, x):
    """||Rbar(X) - R(X)||_inf with R(X) = XCX - XD - AX + B formed densely for both."""
    a, b, c, d = original_quadruple_dense(problem)
    r0 = x @ c @ x - x @ d - a @ x + b
    r1 = x @ quad.C @ x - x @ quad.D - quad.A @ x + quad.B
    return float(np.abs(r1 - r0).sum(axis=1).max())


def critical_null_vectors(problem):
    """(v1, v2, u1, u2, r1, r2, s1, s2) of the critical block matrix, written out:

    v = (q/gamma, e/delta) and u = (e/gamma, -q/delta) are the right and left null
    vectors of the signed block matrix, r = (e, q) and s = (q, -e) the normalizing
    vectors with r.v = s.u = 1.
    """
    q, e = problem.q, problem.e
    return (q / problem.gamma, e / problem.delta, e / problem.gamma, -q / problem.delta,
            e, q, q, -e)


def shifted_quadruple_by_eigenvectors(problem, eta, xi):
    """(Abar, Bbar, Cbar, Dbar) as rank-one corrections by the critical null vectors.

    Dbar = D + eta v1 r1^T + xi s1 u1^T    Cbar = C - eta v1 r2^T - xi s1 u2^T
    Bbar = B + eta v2 r1^T + xi s2 u1^T    Abar = A - eta v2 r2^T - xi s2 u2^T
    with the vectors of ``critical_null_vectors``.
    """
    v1, v2, u1, u2, r1, r2, s1, s2 = critical_null_vectors(problem)
    quad = problem.quad
    d = quad.D + eta * np.outer(v1, r1) + xi * np.outer(s1, u1)
    c = quad.C - eta * np.outer(v1, r2) - xi * np.outer(s1, u2)
    b = quad.B + eta * np.outer(v2, r1) + xi * np.outer(s2, u1)
    a = quad.A - eta * np.outer(v2, r2) - xi * np.outer(s2, u2)
    return a, b, c, d


def si_shifted_reference(alpha, c, weights, omegas, eta, xi, max_iter=10 ** 6):
    """Direct transcription of the shifted fixed-point iteration.

    Runs up to ``max_iter`` sweeps but exits early once the iterate is
    bitwise stationary (or 2-cycling in the last bit), after which all
    further sweeps provably repeat.  Returns (Z, sweeps_done).
    """
    q, delta, d = transport_arrays(alpha, c, weights, omegas)
    n = len(omegas)
    e = np.ones(n)
    t = 1.0 / (delta[:, None] + d[None, :])
    q_eta = (1.0 - eta / d) * q
    e_eta = (1.0 + eta / delta) * e
    ge = e / d
    dq = q / delta
    z = np.zeros((n, n))
    z_prev = None
    z_prev2 = None
    for k in range(1, max_iter + 1):
        m2 = z @ q + e
        m1 = z @ q_eta + e_eta
        n1 = z.T @ q + e
        n2 = -xi * (ge - z.T @ dq)
        z_next = t * (np.outer(m1, n1) + np.outer(m2, n2))
        if z_prev is not None and (np.array_equal(z_next, z)
                                   or np.array_equal(z_next, z_prev)):
            return z_next, k
        z_prev2, z_prev, z = z_prev, z, z_next
    return z, max_iter


def si_per_sweep_reference(problem, max_iter, tol):
    """The classic vector iteration m = m o T (q o n) + e, n = n o T^T (q o m) + e
    from zero, each sweep measured on its own, under the "either" stop rule.

    Each sweep takes T (q o n), T n and T^T (q o m) from one batched (2, 2, n)
    product with [T^T; T], the shape that sets their rounding.  Every sweep is
    monotone, so the update error is max(cur - prev) / max(cur) per vector and
    the residual R = m n^T - a b^T <= 0 has row sums a_i sum(b) - m_i sum(n),
    scaled by twice max_i m_i (T n)_i.  Returns (X, err_history, res_history,
    stop_reason).
    """
    t = 1.0 / (problem.delta[:, None] + problem.gamma[None, :])
    tt = np.array([t.T, t])
    mn, ab = np.zeros((2, problem.n)), np.ones((2, problem.n))
    errs, ress, reason = [], [], "max_iter"
    for _ in range(max_iter):
        cur = ab
        prod = np.array([[problem.q * cur[1], cur[1]], [problem.q * cur[0], cur[0]]]) @ tt
        ab = cur * prod[:, 0] + 1.0
        assert mn.min() >= 0.0 and (cur - mn).min() >= 0.0 and (ab - cur).min() >= 0.0
        err = max(float((cur[i] - mn[i]).max()) / float(cur[i].max()) for i in (0, 1))
        rows = ab[0] * ab[1].sum() - cur[0] * cur[1].sum()
        res = float(rows.max()) / (2.0 * float((cur[0] * prod[0, 1]).max()))
        mn = cur
        errs.append(err)
        ress.append(res)
        if err < tol or res < tol:
            reason = "converged"
            break
    return t * np.outer(mn[0], mn[1]), errs, ress, reason


def si_shift_per_sweep_reference(problem, shift, max_iter, tol):
    """The shifted sweep M <- Z Q1 + E2, N <- Z^T Q2 + E1 with Z = T o (M N^T) from
    M = N = 0, each sweep measured on its own, under the "either" stop rule.

    Q1 = [(I - eta G^-1) q, q], Q2 = [q, xi D^-1 q], E1 = [e, -xi G^-1 e] and
    E2 = [(I + eta D^-1) e, e], with G = Gamma, D = Delta.  M and N are kept as
    2 x n rows M^T, N^T.  Z Q1 and Z^T Q2 are sums over the factor columns k of
    M_k o T (N_k o Q1) and N_k o T^T (M_k o Q2); the critical T is symmetric, so both,
    with Z e, come from one (10, n) product with T whose rows are N_k o Q1, M_k o Q2
    and N_k o e, the shape and order that set their rounding.  The update error is max
    over M, N of ||cur - prev|| / ||cur|| (n x 2 row sums); the residual is the row
    sums of |[M, -a] [N, b]^T| with a = m2, b = n1 of the next sweep, over twice the
    row sums of |Z|.  Returns (Z, err_history, res_history, stop_reason).
    """
    q, e, gamma, delta = problem.q, problem.e, problem.gamma, problem.delta
    eta, xi = shift.eta, shift.xi
    q1 = np.column_stack([(1.0 - eta / gamma) * q, q])
    q2 = np.column_stack([q, xi * q / delta])
    e1 = np.column_stack([e, -xi * e / gamma])
    e2 = np.column_stack([(1.0 + eta / delta) * e, e])
    n = problem.n
    t = 1.0 / (delta[:, None] + gamma[None, :])

    def sweep(m, nf):
        left = np.vstack([q1[:, [0, 0, 1, 1]].T * np.vstack([nf, nf]),
                          q2[:, [0, 0, 1, 1]].T * np.vstack([m, m]), e * nf])
        p = left @ t
        zq = (p[:4].reshape(2, 2, n) * m).sum(axis=1)
        ztq = (p[4:8].reshape(2, 2, n) * nf).sum(axis=1)
        z_rows = (p[8:] * m).sum(axis=0)
        if min(m.min(), nf.min()) < 0.0:
            z_rows = np.abs(t * (m.T @ nf)).sum(axis=1)
        return zq + e2.T, ztq + e1.T, z_rows

    m = nf = np.zeros((2, n))
    m_next, n_next = e2.T, e1.T
    errs, ress, reason = [], [], "max_iter"
    for _ in range(max_iter):
        prev = (m, nf)
        m, nf = m_next, n_next
        m_next, n_next, z_rows = sweep(m, nf)
        err = max(float(np.abs(c - p).sum(axis=0).max()) / float(np.abs(c).sum(axis=0).max())
                  for p, c in zip(prev, (m, nf)))
        r = np.vstack([m, -m_next[1]]).T @ np.vstack([nf, n_next[0]])
        res = float(np.abs(r).sum(axis=1).max()) / (2.0 * float(z_rows.max()))
        errs.append(err)
        ress.append(res)
        if err < tol or res < tol:
            reason = "converged"
            break
    return t * (m.T @ nf), errs, ress, reason


def hadamard_triple_loop(t, m_fac, n_fac):
    """Entrywise T o (M N^T) with explicit loops."""
    n, r = m_fac.shape
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for col in range(r):
                acc += m_fac[i, col] * n_fac[j, col]
            out[i, j] = t[i, j] * acc
    return out


def sda_init_reference(quad, gamma):
    """Doubling initial (E0, F0, G0, H0) from the textbook formulas, by five solves.

    With A_g = A + gamma I, D_g = D + gamma I, W_g = A_g - B D_g^-1 C and
    V_g = D_g - C A_g^-1 B: E0 = I - 2 gamma V_g^-1, F0 = I - 2 gamma W_g^-1,
    G0 = 2 gamma D_g^-1 C W_g^-1, H0 = 2 gamma W_g^-1 B D_g^-1.
    """
    eye = np.eye(quad.n)
    a_g = quad.A + gamma * eye
    d_g = quad.D + gamma * eye
    dg_inv_c = np.linalg.solve(d_g, quad.C)
    ag_inv_b = np.linalg.solve(a_g, quad.B)
    w_g = a_g - quad.B @ dg_inv_c
    v_g = d_g - quad.C @ ag_inv_b
    e0 = eye - 2.0 * gamma * np.linalg.solve(v_g, eye)
    w_inv = np.linalg.solve(w_g, eye)
    f0 = eye - 2.0 * gamma * w_inv
    g0 = 2.0 * gamma * dg_inv_c @ w_inv
    h0 = 2.0 * gamma * w_inv @ quad.B @ np.linalg.solve(d_g, eye)
    return e0, f0, g0, h0


def sda_step_reference(e, f, g, h):
    """One doubling step from the textbook formulas, by two solves.

    E <- E (I - GH)^-1 E, F <- F (I - HG)^-1 F, G <- G + E (I - GH)^-1 G F,
    H <- H + F (I - HG)^-1 H E.
    """
    n = h.shape[0]
    eye = np.eye(n)
    s1 = np.linalg.solve(eye - g @ h, np.hstack([e, g @ f]))
    s2 = np.linalg.solve(eye - h @ g, np.hstack([f, h @ e]))
    return e @ s1[:, :n], f @ s2[:, :n], g + e @ s1[:, n:], h + f @ s2[:, n:]
