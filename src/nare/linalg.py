"""Dense linear-algebra kernel: checked LU factors, solves, inverses, infinity norms.

All matrices are numpy float64 arrays in row-major (C) order.
"""

import warnings

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import SingularMatrix

EPS = 2.0 ** -52


def inf_norm(a):
    """Infinity norm: max absolute row sum for matrices, max |entry| for vectors."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return 0.0
    if a.ndim <= 1:
        return float(np.abs(a).max())
    return float(np.abs(a).sum(axis=1).max())


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
    with warnings.catch_warnings():
        # zero pivots are reported through SingularMatrix below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivot = np.abs(np.diag(lu)).min()
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
