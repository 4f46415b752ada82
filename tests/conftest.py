import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nare import TransportParams, build_problem, quadrature_params, sda


def critical_problem(n):
    return build_problem(quadrature_params(n))


@pytest.fixture(scope="session")
def prob1():
    """n=1 critical with omega = 0.5: the fully hand-checkable case."""
    return build_problem(TransportParams(
        alpha=0.0, c=1.0, weights=np.array([1.0]), omegas=np.array([0.5])))


@pytest.fixture(scope="session")
def prob2():
    return build_problem(TransportParams(
        alpha=0.0, c=1.0, weights=np.array([0.5, 0.5]),
        omegas=np.array([0.8, 0.4])))


@pytest.fixture(scope="session")
def prob4():
    return critical_problem(4)


@pytest.fixture(scope="session")
def prob8():
    return critical_problem(8)


@pytest.fixture(scope="session")
def prob32():
    return critical_problem(32)


@pytest.fixture(scope="session")
def prob_noncrit32():
    return build_problem(quadrature_params(32, alpha=0.5, c=0.5))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def nan_from_step(monkeypatch):
    """``nan_from_step(k)`` patches the doubling step so that the state it returns at
    step k or later is all NaN: a run that blows up at a known step, whatever its rounding."""
    def patch(k):
        step = sda.sda_step

        def blown(state):
            nxt = step(state)
            return nxt if nxt.k < k else dataclasses.replace(
                nxt, **{f: np.full_like(getattr(nxt, f), np.nan) for f in ("E", "F", "GH")})
        monkeypatch.setattr(sda, "sda_step", blown)
    return patch
