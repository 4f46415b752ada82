"""Solvers for the transport-theory nonsymmetric algebraic Riccati equation.

The equation XCX - XD - AX + B = 0 with the rank-structured transport
coefficients is solved by a structure-preserving doubling algorithm and
by vector fixed-point iterations, both with single- and double-shift
acceleration for the critical case (alpha, c) = (0, 1).
"""

from .diagnostics import (
    MMatrixCertificate,
    SolutionReport,
    certify_m_matrix,
    convergence_order,
    normalized_residual,
    relative_residual,
    relative_update_error,
    shift_equivalence_gap,
    solution_identities,
    solution_report,
)
from .errors import (
    BracketFailure,
    Breakdown,
    InvalidParams,
    InvalidSize,
    NareError,
    NotCriticalCase,
    PoleHit,
    ShiftOutOfRegion,
    SingularMatrix,
)
from .linalg import inf_norm, lu_solve
from .problem import (
    CoefficientQuadruple,
    TransportParams,
    TransportProblem,
    assemble_blocks,
    build_problem,
    gauss_legendre_composite,
    quadrature_params,
)
from .sda import SdaConfig, sda_init, sda_solve, sda_step
from .shift import (
    ShiftSpec,
    default_shift,
    make_shift,
    shifted_coefficients,
    validate_shift,
)
from .si import (
    SiConfig,
    SiState,
    build_kernel,
    si_init,
    si_shift_step,
    si_shifted_solve,
    si_solve,
    si_step,
    si_solution,
)
from .solution import Solution, auto_tol
from .spectra import (
    SpectrumReport,
    cayley,
    closed_loop_spectrum,
    interlaced_spectrum,
    sda_rate_bound,
    shifted_interlaced_spectrum,
)

__version__ = "0.1.0"
