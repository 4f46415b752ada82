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
    iterate when the solver produces one (the dual of the quadruple that
    was actually solved, so the shifted dual for shifted runs).
    Histories hold one entry per iteration; ``x`` is the iterate of the
    last entry.  ``stop_reason`` is one of ``STOP_REASONS``.
    """

    x: np.ndarray
    y: Optional[np.ndarray]
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
    """Refuse a run config when built: a cap below 1, an unknown stop rule, or a
    ``tol`` that is neither None (``auto_tol``) nor positive and finite."""
    if config.max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {config.max_iter}")
    if config.stop_rule not in STOP_RULES:
        raise ValueError(f"stop rule must be one of {STOP_RULES}, got {config.stop_rule!r}")
    if config.tol is not None and not 0 < float(config.tol) < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {float(config.tol)}")


def iterate(problem, state, advance, x_of, config, y_of=None):
    """Draw measured steps from ``advance`` to the stopping rule.

    ``advance(state)`` runs one block of steps from ``state`` and returns them as
    ``(state, (err, res))``: the update error from the state before and the relative
    residual of the new one.  Each block starts from the last state of the one before.
    Solvers look the step and the metrics up on their modules (``diagnostics`` for
    the metrics) when the solve runs, where patched instrumentation sees them.
    At most ``config.max_iter`` steps are drawn, and no block runs after the one
    that holds the stop; the rest of that block is dropped.  ``x_of`` builds the
    returned iterate once.  A step whose residual is not finite (critical-case
    doubling blows up past its attainable accuracy) ends the run on the iterate before it.
    The threshold is ``config.tol``, checked when the config was built, or ``auto_tol(n)``.
    """
    tol = auto_tol(problem.n) if config.tol is None else float(config.tol)
    rule = config.stop_rule
    errs, ress = [], []
    reason = "max_iter"
    while reason == "max_iter" and len(ress) < config.max_iter:
        for nxt, (err, res) in islice(advance(state), config.max_iter - len(ress)):
            if not math.isfinite(res):
                reason = "nonfinite"
                break
            state = nxt
            errs.append(err)
            ress.append(res)
            if (rule != "residual" and err < tol) or (rule != "error" and res < tol):
                reason = "converged"
                break
    return Solution(x=x_of(state), y=y_of(state) if y_of else None, stop_reason=reason,
                    err_history=errs, res_history=ress)
