"""Transport-problem construction.

Derives the vectors q, e, delta, gamma from physical parameters (alpha, c)
and a direction/weight set (omega_i, c_i).  The coefficient quadruple

    A = Delta - e q^T,  B = e e^T,  C = q q^T,  D = Gamma - q e^T

the 2n x 2n block matrices and the critical-case eigenvector data used by
the shift constructions are built from those vectors on request.
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
        if self.weights.shape != self.omegas.shape or self.omegas.ndim != 1:
            raise InvalidParams("weights and omegas must be aligned 1-D arrays")
        if self.n == 0:
            raise InvalidParams("at least one direction is required")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.omegas))):
            raise InvalidParams("weights and omegas must be finite")
        if np.any(self.weights <= 0):
            raise InvalidParams("all weights must be positive")
        if abs(float(np.sum(self.weights)) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidParams(
                f"weights sum to {np.sum(self.weights)!r}, expected 1"
            )
        if np.any(self.omegas <= 0) or np.any(self.omegas >= 1):
            raise InvalidParams("omegas must lie strictly inside (0, 1)")
        if np.any(np.diff(self.omegas) >= 0):
            raise InvalidParams("omegas must be strictly descending")


@dataclass(frozen=True)
class CoefficientQuadruple:
    """Four n x n coefficient matrices of a Riccati instance.

    ``tag`` records how the quadruple was generated (original,
    single-shift, double-shift).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    tag: str = "original"

    @property
    def n(self):
        return self.A.shape[0]


@dataclass(frozen=True)
class TransportProblem:
    """Derived vectors for one parameter set."""

    params: TransportParams
    q: np.ndarray
    e: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray

    @property
    def quad(self):
        """The original coefficient quadruple, built on each access, not stored."""
        return CoefficientQuadruple(
            A=np.diag(self.delta) - np.outer(self.e, self.q),
            B=np.outer(self.e, self.e),
            C=np.outer(self.q, self.q),
            D=np.diag(self.gamma) - np.outer(self.q, self.e),
        )

    @property
    def n(self):
        return self.params.n

    @property
    def omegas(self):
        return self.params.omegas

    @property
    def weights(self):
        return self.params.weights

    @property
    def is_critical(self):
        return self.params.is_critical


@dataclass(frozen=True)
class CriticalEigenvectors:
    """Null-vector data of the critical-case block matrices.

    v and u are the right/left null vectors of the signed block matrix,
    r and s the normalizing vectors with r.v = s.u = 1.
    """

    v1: np.ndarray
    v2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    @property
    def v(self):
        return np.concatenate([self.v1, self.v2])

    @property
    def u(self):
        return np.concatenate([self.u1, self.u2])

    @property
    def r(self):
        return np.concatenate([self.r1, self.r2])

    @property
    def s(self):
        return np.concatenate([self.s1, self.s2])


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
    """Construct a TransportProblem, validating parameter invariants."""
    params.validate()
    om = params.omegas
    q = params.weights / (2.0 * om)
    e = np.ones(params.n)
    delta = 1.0 / (params.c * om * (1.0 + params.alpha))
    gamma = 1.0 / (params.c * om * (1.0 - params.alpha))
    return TransportProblem(params=params, q=q, e=e, delta=delta, gamma=gamma)


def block_matrix(quad):
    """The 2n x 2n block matrix [[D, -C], [-B, A]] of a coefficient quadruple."""
    return np.block([[quad.D, -quad.C], [-quad.B, quad.A]])


def assemble_blocks(problem):
    """Return (M, H): the block matrix [[D, -C], [-B, A]] and J M, J = diag(I, -I)."""
    m_block = block_matrix(problem.quad)
    h_block = m_block.copy()
    h_block[problem.n:, :] *= -1.0
    return m_block, h_block


def critical_eigenvectors(problem):
    """Null-vector data for the critical case; raises NotCriticalCase otherwise.

    The shift constructions rely on these vectors being exact null vectors,
    which only holds at (alpha, c) = (0, 1).
    """
    if not problem.is_critical:
        raise NotCriticalCase(
            f"(alpha, c) = ({problem.params.alpha}, {problem.params.c}); "
            "shift vectors exist only at (0, 1)"
        )
    q, e = problem.q, problem.e
    gamma, delta = problem.gamma, problem.delta
    return CriticalEigenvectors(
        v1=q / gamma, v2=e / delta,
        u1=e / gamma, u2=-q / delta,
        r1=e.copy(), r2=q.copy(),
        s1=q.copy(), s2=-e.copy(),
    )
