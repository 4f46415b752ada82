"""Exception types shared across the solver suite."""


class NareError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(NareError):
    """A pivot fell below the degeneracy threshold during LU elimination."""


class InvalidSize(NareError):
    """Quadrature size is not a positive multiple of four."""


class InvalidParams(NareError):
    """Transport parameters violate their construction invariants."""


class NotCriticalCase(NareError):
    """Operation requires (alpha, c) = (0, 1) exactly."""


class PoleHit(NareError):
    """Evaluation point collides with a pole 1/omega_i."""


class ShiftOutOfRegion(NareError):
    """Shift parameters lie outside the admissible region."""


class BracketFailure(NareError):
    """A prescribed root bracket shows no sign change, or ordering failed."""


class Breakdown(NareError):
    """Doubling iteration hit a singular inner system.

    Carries the iteration index at which the breakdown occurred.
    """

    def __init__(self, iteration, message=""):
        self.iteration = iteration
        super().__init__(message or f"doubling breakdown at iteration {iteration}")
