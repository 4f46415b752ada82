"""Dense linear-algebra kernel: checked LU factors, solves, inverses, norms, SMW factors.

All matrices are numpy float64 arrays in row-major (C) order.
"""

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import SingularMatrix

EPS = 2.0 ** -52


def inf_norm(a):
    """Infinity norm: max absolute row sum for matrices, max |entry| for vectors."""
    a = np.abs(np.asarray(a, dtype=np.float64))
    return float((a.sum(axis=1) if a.ndim > 1 else a).max()) if a.size else 0.0


def inf_norms(a, overwrite=False):
    """``inf_norm`` of a vector, a matrix or each matrix of a stack (k, n, n) in one set of
    calls, as a list; ``overwrite`` takes |a| in place."""
    a = np.abs(a, out=a if overwrite else None)
    return (a.sum(axis=-1) if a.ndim > 1 else a).max(axis=-1).reshape(-1).tolist()


def lu_factor(a):
    """LU factors ``(lu, piv)`` of a square A with partial pivoting.

    Raises SingularMatrix on a zero matrix or when a pivot magnitude falls
    below n * eps * ||A||_inf; callers treat that as an iteration breakdown
    rather than continuing with an amplified solution.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    threshold = n * EPS * inf_norm(a)
    if threshold == 0.0:
        raise SingularMatrix("zero matrix")
    # scipy.linalg.lu_factor's getrf without its wrapper; info > 0 (a zero pivot) fails below
    lu, piv, _ = lapack.dgetrf(a)
    pivot = np.abs(lu.diagonal()).min()
    if pivot < threshold:
        raise SingularMatrix(f"pivot {pivot:.3e} below threshold {threshold:.3e}")
    return lu, piv


def lu_solve(a, b):
    """Solve A X = B on the checked factors of ``lu_factor``."""
    return scipy.linalg.lu_solve(lu_factor(a), b, check_finite=False)


def lu_inverse(a):
    """A^-1 by LAPACK getri on the checked factors of ``lu_factor``."""
    lwork = int(lapack.dgetri_lwork(len(a))[0])
    return lapack.dgetri(*lu_factor(a), lwork=lwork, overwrite_lu=True)[0]


def smw_factors(dg, u, v):
    """``(dg^-1 U, S^-1)`` of diag(dg) - U V^T, U and V N x r: by Sherman-Morrison-Woodbury
    its inverse is diag(dg)^-1 + (dg^-1 U) S^-1 (V^T dg^-1), S = I - V^T dg^-1 U, r x r.

    Raises SingularMatrix on a zero entry of dg, before any division, and when an LU pivot of S
    falls below N eps (1 + max row sum of |V|^T |dg^-1 U|) = N eps ||I + |V|^T |dg^-1 U| ||: the
    size of the sums that formed S, since S itself cancels to about N eps at the critical point.
    """
    if not dg.all():
        raise SingularMatrix("zero diagonal entry")
    ud = u / dg[:, None]
    lu, piv, _ = lapack.dgetrf(np.eye(u.shape[1]) - v.T @ ud)
    pivot = min(map(abs, lu.diagonal().tolist()))
    threshold = len(dg) * EPS * (1.0 + max((np.abs(v).T @ np.abs(ud)).sum(axis=1).tolist()))
    if pivot < threshold:
        raise SingularMatrix(f"pivot {pivot:.3e} below threshold {threshold:.3e}")
    return ud, lapack.dgetri(lu, piv)[0]
