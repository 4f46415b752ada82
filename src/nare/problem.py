"""Transport-problem construction.

Derives the vectors q, e, delta, gamma from physical parameters (alpha, c)
and a direction/weight set (omega_i, c_i).  Every coefficient quadruple is a
positive diagonal plus rank two (``CoefficientQuadruple``), and
``low_rank_form`` builds them all; the original A = Delta - e q^T, B = e e^T,
C = q q^T, D = Gamma - q e^T is the zero shift, bit for bit.  The 2n x 2n
block matrices are built on request, and ``require_critical`` is the one
gate of every operation defined only at (alpha, c) = (0, 1).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, InvalidSize, NotCriticalCase

WEIGHT_SUM_TOL = 1e-12

# 4-node Gauss-Legendre rule on [-1, 1]
_GL4_NODES = np.array([
    -0.8611363115940526, -0.3399810435848563,
    0.3399810435848563, 0.8611363115940526,
])
_GL4_WEIGHTS = np.array([
    0.3478548451374538, 0.6521451548625461,
    0.6521451548625461, 0.3478548451374538,
])


@dataclass(frozen=True)
class TransportParams:
    """Physical parameters: alpha in [0,1), c in (0,1], weighted directions.

    ``omegas`` are strictly descending in (0, 1) and ``weights`` sum to one;
    the two arrays are index-aligned.
    """

    alpha: float
    c: float
    weights: np.ndarray
    omegas: np.ndarray

    @property
    def n(self):
        return len(self.omegas)

    @property
    def is_critical(self):
        return self.alpha == 0.0 and self.c == 1.0

    def validate(self):
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidParams(f"alpha must be in [0, 1), got {self.alpha}")
        if not 0.0 < self.c <= 1.0:
            raise InvalidParams(f"c must be in (0, 1], got {self.c}")
        if not (isinstance(self.weights, np.ndarray) and isinstance(self.omegas, np.ndarray)
                and self.weights.shape == self.omegas.shape and self.omegas.ndim == 1):
            raise InvalidParams("weights and omegas must be aligned 1-D numpy arrays")
        if self.n == 0:
            raise InvalidParams("at least one direction is required")
        w, om = self.weights, self.omegas
        if not (np.isfinite(w).all() and np.isfinite(om).all()):
            raise InvalidParams("weights and omegas must be finite")
        if not (w > 0).all():
            raise InvalidParams("all weights must be positive")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidParams(f"weights sum to {w.sum()!r}, expected 1")
        if not ((om > 0).all() and (om < 1).all()):
            raise InvalidParams("omegas must lie strictly inside (0, 1)")
        if not (om[1:] < om[:-1]).all():
            raise InvalidParams("omegas must be strictly descending")


@dataclass(frozen=True)
class CoefficientQuadruple:
    """The coefficient quadruple of a Riccati instance: the diagonals Gamma, Delta and
    the n x 2 factors Q1, Q2, E1, E2 of D = Gamma - Q1 E1^T, C = Q1 Q2^T, B = E2 E1^T
    and A = Delta - E2 Q2^T, whose dense forms are built on each access, not stored.
    ``symmetric`` marks A = D^T with B, C symmetric, where the doubling keeps F = E^T.
    """

    gamma: np.ndarray
    delta: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    symmetric: bool = False

    @property
    def n(self):
        return len(self.gamma)

    @property
    def A(self):
        return np.diag(self.delta) - self.e2 @ self.q2.T

    @property
    def B(self):
        return self.e2 @ self.e1.T

    @property
    def C(self):
        return self.q1 @ self.q2.T

    @property
    def D(self):
        return np.diag(self.gamma) - self.q1 @ self.e1.T


@dataclass(frozen=True)
class TransportProblem(TransportParams):
    """A parameter set plus its derived vectors q, e, delta, gamma."""

    q: np.ndarray
    e: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray

    @property
    def quad(self):
        """The original coefficient quadruple, built on each access, not stored."""
        return low_rank_form(self)


def require_critical(problem, what):
    """Raise NotCriticalCase, naming ``what``, unless (alpha, c) = (0, 1) exactly."""
    if not problem.is_critical:
        raise NotCriticalCase(f"{what} requires the critical case (alpha, c) = (0, 1); "
                              f"got ({problem.alpha}, {problem.c})")


def gauss_legendre_composite(n):
    """Composite 4-node Gauss-Legendre rule on [0, 1].

    Splits [0, 1] into n/4 equal subintervals and applies the 4-node rule
    on each.  Returns ``(weights, nodes)`` sorted so that nodes descend
    (omega_1 is the largest direction), weights carried along.  Weights
    sum to one since the rule integrates constants exactly.
    """
    if n < 4 or n % 4 != 0:
        raise InvalidSize(f"quadrature size must be a positive multiple of 4, got {n}")
    m = n // 4
    width = 1.0 / m
    starts = np.arange(m) * width
    nodes = (starts[:, None] + width * (_GL4_NODES[None, :] + 1.0) / 2.0).ravel()
    weights = np.tile(_GL4_WEIGHTS * width / 2.0, m)
    order = np.argsort(-nodes)
    return weights[order], nodes[order]


def quadrature_params(n, alpha=0.0, c=1.0):
    """TransportParams backed by the composite Gauss-Legendre direction set."""
    weights, nodes = gauss_legendre_composite(n)
    return TransportParams(alpha=float(alpha), c=float(c), weights=weights, omegas=nodes)


def build_problem(params):
    """Validate ``params`` and return them, as a TransportProblem, with their vectors."""
    params.validate()
    om = params.omegas
    q = params.weights / (2.0 * om)
    e = np.ones(params.n)
    with np.errstate(over="ignore", divide="ignore"):  # a subnormal c overflows them
        delta = 1.0 / (params.c * om * (1.0 + params.alpha))
        gamma = 1.0 / (params.c * om * (1.0 - params.alpha))
    if not (np.isfinite(delta).all() and np.isfinite(gamma).all()):
        raise InvalidParams(f"c = {params.c!r} leaves Gamma or Delta not finite")
    return TransportProblem(params.alpha, params.c, params.weights, om, q, e, delta, gamma)


def low_rank_form(problem, eta=0.0, xi=0.0):
    """The quadruple shifted by (eta, xi); (0, 0) is the original.

    Q1 = [(I - eta G^-1) q, q]      Q2 = [q, xi D^-1 q]
    E1 = [e, -xi G^-1 e]            E2 = [(I + eta D^-1) e, e]

    with G = Gamma, D = Delta.  At (0, 0) the second columns of Q2 and E1 are
    zeros, so the dense A-D round as rank-one outer products.  With Gamma = Delta
    (alpha = 0) and eta = -xi, A = D^T and B, C are symmetric: ``symmetric`` is set.
    """
    q, e, gamma, delta = problem.q, problem.e, problem.gamma, problem.delta
    factors = np.empty((4, len(q), 2))  # Q1, Q2, E1, E2, each a C-contiguous n x 2
    factors[:, :, 0] = (1.0 - eta / gamma) * q, q, e, (1.0 + eta / delta) * e
    factors[:, :, 1] = q, xi * q / delta, -xi * e / gamma, e
    return CoefficientQuadruple(gamma, delta, *factors,
                                symmetric=eta == -xi and np.array_equal(gamma, delta))


def block_matrix(quad):
    """The 2n x 2n block matrix [[D, -C], [-B, A]] of a coefficient quadruple."""
    return np.block([[quad.D, -quad.C], [-quad.B, quad.A]])


def assemble_blocks(problem):
    """Return (M, H): the block matrix [[D, -C], [-B, A]] and J M, J = diag(I, -I)."""
    m_block = block_matrix(problem.quad)
    h_block = m_block.copy()
    h_block[problem.n:, :] *= -1.0
    return m_block, h_block
