"""The iteration driver ``nare.solution.iterate`` on a toy counting iteration.

The state is an integer that each step raises by one; ``advance`` runs a block
of such steps and reports a fixed error and residual except where a test plants
a value, so every stop reason falls at a known step.
"""

import math
from types import SimpleNamespace

import pytest

from nare.sda import SdaConfig
from nare.solution import iterate

PROBLEM = SimpleNamespace(n=1)  # the driver reads only n, for the default tolerance


def run(planted, size=1, **config):
    """``iterate`` from state 0 in blocks of ``size`` steps, with (err, res) =
    planted.get(state, (1.0, 1.0)); returns the Solution and the blocks run."""
    blocks = [0]

    def advance(state):
        blocks[0] += 1
        return [(s, planted.get(s, (1.0, 1.0))) for s in range(state + 1, state + size + 1)]
    sol = iterate(PROBLEM, 0, advance, lambda s: 10 * s, SdaConfig(tol=1e-3, **config),
                  y_of=lambda s: -s)
    return sol, blocks[0]


@pytest.mark.parametrize("size", [1, 2, 4])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_residual_ends_on_the_iterate_before(size, bad):
    sol, _ = run({3: (1.0, bad)}, size)
    assert sol.stop_reason == "nonfinite" and not sol.converged
    assert sol.x == 20 and sol.y == -2  # both built from state 2
    assert sol.err_history == sol.res_history == [1.0, 1.0]


def test_nan_error_alone_neither_converges_nor_stops():
    # a NaN update error fails every comparison; only the residual ends a run early
    sol, _ = run({2: (math.nan, 1.0)}, stop_rule="error", max_iter=5)
    assert sol.stop_reason == "max_iter" and sol.iterations == 5
    assert math.isnan(sol.err_history[1])


@pytest.mark.parametrize("rule, planted, steps", [
    ("either", {3: (1e-4, 1.0)}, 3), ("either", {3: (1.0, 1e-4)}, 3),
    ("error", {2: (1.0, 1e-4), 4: (1e-4, 1.0)}, 4),
    ("residual", {2: (1e-4, 1.0), 4: (1.0, 1e-4)}, 4)])
def test_stop_rule_reads_its_metrics(rule, planted, steps):
    sol, _ = run(planted, stop_rule=rule)
    assert sol.stop_reason == "converged" and sol.iterations == steps
    assert sol.x == 10 * steps


def test_cap_counts_steps_not_blocks():
    # the block of four runs past the cap of 6, and its extra steps are dropped
    sol, _ = run({}, size=4, max_iter=6)
    assert sol.stop_reason == "max_iter" and sol.iterations == 6 and sol.x == 60


@pytest.mark.parametrize("size", [1, 2, 4])
@pytest.mark.parametrize("planted, config, drawn", [
    ({3: (1e-4, 1.0)}, {}, 3), ({4: (1.0, 1e-4)}, {}, 4), ({8: (1e-4, 1.0)}, {}, 8),
    ({5: (1.0, math.nan)}, {}, 5), ({}, {"max_iter": 6}, 6), ({}, {"max_iter": 8}, 8)])
def test_no_block_runs_after_the_one_that_holds_the_stop(size, planted, config, drawn):
    # a run that draws k steps, the stop inside a block, at its end or at the cap,
    # calls advance ceil(k / size) times
    sol, blocks = run(planted, size, **config)
    assert sol.iterations == drawn - (sol.stop_reason == "nonfinite")
    assert blocks == -(-drawn // size)
