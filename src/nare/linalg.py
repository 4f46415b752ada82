"""Dense linear-algebra kernel: LU solves with breakdown detection, infinity norms.

All matrices are numpy float64 arrays in row-major (C) order.
"""

import warnings

import numpy as np
import scipy.linalg

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


def lu_solve(a, b):
    """Solve A X = B by LU with partial pivoting.

    Raises SingularMatrix when any pivot magnitude falls below
    n * eps * ||A||_inf; callers treat that as an iteration breakdown
    rather than continuing with an amplified solution.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ValueError(f"right-hand side has {b.shape[0]} rows, expected {n}")
    threshold = n * EPS * inf_norm(a)
    if threshold == 0.0:
        raise SingularMatrix("zero matrix")
    with warnings.catch_warnings():
        # zero pivots are reported through SingularMatrix below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) < threshold:
        raise SingularMatrix(
            f"pivot {np.min(pivots):.3e} below threshold {threshold:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def lu_inverse(a):
    """Inverse via ``lu_solve(a, I)``; same breakdown contract."""
    return lu_solve(a, np.eye(a.shape[0]))
