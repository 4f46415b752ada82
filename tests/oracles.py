"""Independent oracles used by the test suite.

Everything here recomputes expected values through routes that do not
touch the package's own algorithms: bisection on the Legendre
recurrence for quadrature data, LU determinant signs for spectra, and a
direct transcription of the shifted fixed-point iteration for reference
solutions, the classic and the shifted vector iterations one sweep and one
measurement at a time, and the coefficient quadruples and the shift-equivalence gap written
out densely.
"""

import numpy as np


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


def scan_roots_by_det(mat, lo, hi, samples=10000):
    """Brute-force: sign-scan det(M - lam I) on (lo, hi), bisect each change."""
    n = mat.shape[0]
    eye = np.eye(n)
    pts = np.linspace(lo, hi, samples)
    signs = np.array([det_sign(mat - lam * eye) for lam in pts])
    roots = []
    for i in range(samples - 1):
        if signs[i] != 0 and signs[i + 1] != 0 and signs[i] != signs[i + 1]:
            root, _ = det_sign_bisect(lambda lam: mat - lam * eye,
                                      pts[i], pts[i + 1])
            roots.append(root)
    return np.array(roots)


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


def shift_equivalence_gap_dense(problem, quad, x):
    """||Rbar(X) - R(X)||_inf with R(X) = XCX - XD - AX + B formed densely for both."""
    a, b, c, d = original_quadruple_dense(problem)
    r0 = x @ c @ x - x @ d - a @ x + b
    r1 = x @ quad.C @ x - x @ quad.D - quad.A @ x + quad.B
    return float(np.abs(r1 - r0).sum(axis=1).max())


def shifted_quadruple_by_eigenvectors(problem, eta, xi):
    """(Abar, Bbar, Cbar, Dbar) as rank-one corrections by the critical null vectors.

    Dbar = D + eta v1 r1^T + xi s1 u1^T    Cbar = C - eta v1 r2^T - xi s1 u2^T
    Bbar = B + eta v2 r1^T + xi s2 u1^T    Abar = A - eta v2 r2^T - xi s2 u2^T
    with v = (q/gamma, e/delta), u = (e/gamma, -q/delta), r = (e, q) and
    s = (q, -e).
    """
    q, e = problem.q, problem.e
    v1, v2 = q / problem.gamma, e / problem.delta
    u1, u2 = e / problem.gamma, -q / problem.delta
    r1, r2, s1, s2 = e, q, q, -e
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
    """The classic vector iteration m = m o (P n) + e, n = n o (Q m) + e from zero,
    each sweep measured on its own, under the "either" stop rule.

    Every sweep is monotone, so the update error is max(cur - prev) / max(cur)
    per vector and the residual R = m n^T - a b^T <= 0 has row sums
    a_i sum(b) - m_i sum(n), scaled by twice max_i m_i (T n)_i.  Returns
    (X, err_history, res_history, stop_reason).
    """
    t = 1.0 / (problem.delta[:, None] + problem.gamma[None, :])
    p = t * problem.q[None, :]
    qm = np.ascontiguousarray(t.T) * problem.q[None, :]
    mn, ab = np.zeros((2, problem.n)), np.ones((2, problem.n))
    errs, ress, reason = [], [], "max_iter"
    for _ in range(max_iter):
        cur = ab
        ab = cur * np.array([p @ cur[1], qm @ cur[0]]) + 1.0
        assert mn.min() >= 0.0 and (cur - mn).min() >= 0.0 and (ab - cur).min() >= 0.0
        err = max(float((cur[i] - mn[i]).max()) / float(cur[i].max()) for i in (0, 1))
        rows = ab[0] * ab[1].sum() - cur[0] * cur[1].sum()
        res = float(rows.max()) / (2.0 * float((cur[0] * (t @ cur[1])).max()))
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
    E2 = [(I + eta D^-1) e, e], with G = Gamma, D = Delta.  Z Q1 and Z^T Q2 are
    sums over the factor columns k of M_k o T (N_k o Q1) and N_k o T^T (M_k o Q2),
    taken as one (6, n) and one (4, n) product with T, the shapes that set their
    rounding.  The update error is max over M, N of ||cur - prev|| / ||cur|| (n x 2
    row sums); the residual is the row sums of |[M, -a] [N, b]^T| with a = m2,
    b = n1 of the next sweep, over twice the row sums of |Z|.  Returns
    (Z, err_history, res_history, stop_reason).
    """
    q, e, gamma, delta = problem.q, problem.e, problem.gamma, problem.delta
    eta, xi = shift.eta, shift.xi
    q1 = np.column_stack([(1.0 - eta / gamma) * q, q])
    q2 = np.column_stack([q, xi * q / delta])
    e1 = np.column_stack([e, -xi * e / gamma])
    e2 = np.column_stack([(1.0 + eta / delta) * e, e])
    n = problem.n
    t = 1.0 / (delta[:, None] + gamma[None, :])
    q1e, q2t = np.vstack([q1.T, e])[:, None], q2.T[:, None]

    def sweep(m, nf):
        zq = ((((q1e * nf.T).reshape(6, n) @ t.T).reshape(3, 2, n)) * m.T).sum(axis=1)
        ztq = ((((q2t * m.T).reshape(4, n) @ t).reshape(2, 2, n)) * nf.T).sum(axis=1)
        z_rows = zq[2] if min(m.min(), nf.min()) >= 0.0 else np.abs(t * (m @ nf.T)).sum(axis=1)
        return (zq[:2] + e2.T).T, (ztq + e1.T).T, z_rows

    m = nf = np.zeros((n, 2))
    m_next, n_next = e2, e1
    errs, ress, reason = [], [], "max_iter"
    for _ in range(max_iter):
        prev = (m, nf)
        m, nf = m_next, n_next
        m_next, n_next, z_rows = sweep(m, nf)
        err = max(float(np.abs(c - p).sum(axis=1).max()) / float(np.abs(c).sum(axis=1).max())
                  for p, c in zip(prev, (m, nf)))
        r = np.column_stack([m, -m_next[:, 1]]) @ np.column_stack([nf, n_next[:, 0]]).T
        res = float(np.abs(r).sum(axis=1).max()) / (2.0 * float(z_rows.max()))
        errs.append(err)
        ress.append(res)
        if err < tol or res < tol:
            reason = "converged"
            break
    return t * (m @ nf.T), errs, ress, reason


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
