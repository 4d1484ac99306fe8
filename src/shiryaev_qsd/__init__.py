"""Quasi-stationary law of the Shiryaev diffusion restricted to [0, A].

Public surface: the eigenvalue solve (spectral), the density/cdf pair
(distribution), closed-form moments of arbitrary real order (moments), and
the adaptive-quadrature verification engine (quadrature). Everything the
closed forms produce can be cross-checked against direct integration.
"""

from .errors import (
    ConsistencyError,
    ConvergenceError,
    DenominatorPoleError,
    DomainError,
    PoleError,
    RegimeError,
    ToleranceNotMetError,
)
from .spectral import (
    EigenSystem,
    assemble_system,
    eigen_checks,
    eigencondition,
    lambda_bounds,
    one_minus_xi,
    solve_lambda,
    xi_of_lambda,
)
from .distribution import qsd_cdf, qsd_pdf, stationary_cdf, stationary_pdf
from .moments import (
    MomentResult,
    limit_moment,
    moment_frac,
    moment_integer,
    moment_log,
    moment_recurrence_residual,
    moment_singular_base,
    moment_singular_shifted,
    moment_special_value,
)
from .quadrature import normalization_check, quad_log_moment, quad_moment, quad_moments
from .report import CheckRow, EvalReport, ResultRow
from .verify import run_checks

__all__ = [
    "CheckRow",
    "ConsistencyError",
    "ConvergenceError",
    "DenominatorPoleError",
    "DomainError",
    "EigenSystem",
    "EvalReport",
    "MomentResult",
    "PoleError",
    "RegimeError",
    "ResultRow",
    "ToleranceNotMetError",
    "assemble_system",
    "eigen_checks",
    "eigencondition",
    "lambda_bounds",
    "limit_moment",
    "moment_frac",
    "moment_integer",
    "moment_log",
    "moment_recurrence_residual",
    "moment_singular_base",
    "moment_singular_shifted",
    "moment_special_value",
    "normalization_check",
    "one_minus_xi",
    "qsd_cdf",
    "qsd_pdf",
    "quad_log_moment",
    "quad_moment",
    "quad_moments",
    "run_checks",
    "solve_lambda",
    "stationary_cdf",
    "stationary_pdf",
    "xi_of_lambda",
]

__version__ = "0.1.0"
