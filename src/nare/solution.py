"""Shared solver plumbing: result container, stop rules and the iteration driver."""

import math
from dataclasses import dataclass, field
from itertools import islice
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


def check_config(config):
    if config.max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {config.max_iter}")
    if config.stop_rule not in STOP_RULES:
        raise ValueError(f"stop rule must be one of {STOP_RULES}, got {config.stop_rule!r}")


def resolve_tol(tol, n):
    if tol is None:
        return auto_tol(n)
    tol = float(tol)
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return tol


def measured_steps(step, metric, size, state):
    """Steps from ``state``, run ``size`` at a time, as ``(state, err, res)``: the
    update error from the state before and the relative residual of the new one.

    ``metric(states)`` measures a block in one call: it takes the block's ``size + 1``
    states, the one before it first, and returns each step's ``(err, res)``.
    """
    while True:
        states = [state]
        for _ in range(size):
            states.append(step(states[-1]))
        for state, (err, res) in zip(states[1:], metric(states)):
            yield state, err, res


def iterate(problem, state, step, metric, size, x_of, config, method, y_of=None):
    """Draw ``measured_steps(step, metric, size, state)`` to the stopping rule.

    Solvers look the step and the metrics up on their modules (``diagnostics``
    for the metrics), where patched instrumentation sees them.  At most
    ``config.max_iter`` steps are drawn; the rest of a block, up to ``size - 1``
    steps past the stop or the cap, is dropped.  ``x_of`` builds the returned
    iterate once.  A step whose residual is not finite (critical-case doubling
    blows up past its attainable accuracy) ends the run on the iterate before it.
    """
    tol, rule = resolve_tol(config.tol, problem.n), config.stop_rule
    errs, ress = [], []
    reason = "max_iter"
    for nxt, err, res in islice(measured_steps(step, metric, size, state), config.max_iter):
        if not math.isfinite(res):
            reason = "nonfinite"
            break
        state = nxt
        errs.append(err)
        ress.append(res)
        if (rule != "residual" and err < tol) or (rule != "error" and res < tol):
            reason = "converged"
            break
    return Solution(x=x_of(state), y=y_of(state) if y_of else None, method=method,
                    stop_reason=reason, err_history=errs, res_history=ress)
