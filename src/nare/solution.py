"""Shared solver plumbing: result container, stop rules and the iteration driver."""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import EPS

STOP_RULES = ("error", "residual", "either")
STOP_REASONS = ("converged", "max_iter", "nonfinite")


@dataclass
class Solution:
    """Outcome of an iterative solve.

    ``x`` is the minimal nonnegative solution iterate; ``y`` the dual
    iterate when the method produces one (the dual of the quadruple that
    was actually solved, so the shifted dual for shifted runs).
    Histories hold one entry per iteration; ``x`` is the iterate of the
    last entry.  ``stop_reason`` is one of ``STOP_REASONS``.
    """

    x: np.ndarray
    y: Optional[np.ndarray]
    method: str
    stop_reason: str
    err_history: list = field(default_factory=list)
    res_history: list = field(default_factory=list)

    @property
    def iterations(self):
        return len(self.res_history)

    @property
    def converged(self):
        return self.stop_reason == "converged"

    @property
    def err_final(self):
        return self.err_history[-1] if self.err_history else math.inf

    @property
    def res_final(self):
        return self.res_history[-1] if self.res_history else math.inf


def auto_tol(n):
    """Default stopping threshold n^2 * eps (eps = 2^-52)."""
    return n * n * EPS


def check_max_iter(config):
    if config.max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {config.max_iter}")


def resolve_tol(tol, n):
    if tol is None or tol == "auto":
        return auto_tol(n)
    tol = float(tol)
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return tol


def stop_hit(rule, err, res, tol):
    if rule == "error":
        return err < tol
    if rule == "residual":
        return res < tol
    if rule == "either":
        return err < tol or res < tol
    raise ValueError(f"stop rule must be one of {STOP_RULES}, got {rule!r}")


def iterate(problem, state, step, measure, x_of, config, method, y_of=None):
    """Run ``state = step(state)`` to the stopping rule of ``config``.

    Each step is measured by one call ``measure(prev, nxt) -> (err, res)``, the
    update error from ``prev`` and the relative residual of ``nxt``'s iterate,
    so the two metrics can share work; solvers look them up on ``diagnostics``
    there, where patched instrumentation sees them.  ``x_of`` builds the
    returned iterate once.  A step whose residual is not finite (critical-case
    doubling blows up past its attainable accuracy) ends the run on the iterate
    before it; otherwise the run returns the last one.
    """
    tol = resolve_tol(config.tol, problem.n)
    errs, ress = [], []
    reason = "max_iter"
    for _ in range(config.max_iter):
        nxt = step(state)
        err, res = measure(state, nxt)
        if not math.isfinite(res):
            reason = "nonfinite"
            break
        state = nxt
        errs.append(err)
        ress.append(res)
        if stop_hit(config.stop_rule, err, res, tol):
            reason = "converged"
            break
    return Solution(x=x_of(state), y=y_of(state) if y_of else None, method=method,
                    stop_reason=reason, err_history=errs, res_history=ress)
