"""Quasi-stationary law of the Shiryaev diffusion restricted to [0, A].

Public surface: the eigenvalue solve (spectral), the density/cdf pair
(distribution), closed-form moments of arbitrary real order (moments), and
the adaptive-quadrature verification engine (quadrature). Everything the
closed forms produce can be cross-checked against direct integration.

Importing the package loads errors, spectral (with specfun) and report.
The names of distribution, moments, quadrature and verify resolve on first
access (PEP 562): `_LAZY` maps each to its module, which `__getattr__`
imports then, and the value is stored in this namespace, so every later
access is a plain attribute read. A command line request that never uses a
module then never compiles it.
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
from .report import CheckRow, EvalReport, ResultRow

# public name -> the module that defines it, imported on first access
_LAZY = {
    "qsd_cdf": "distribution",
    "qsd_pdf": "distribution",
    "stationary_cdf": "distribution",
    "stationary_pdf": "distribution",
    "MomentResult": "moments",
    "limit_moment": "moments",
    "moment_frac": "moments",
    "moment_integer": "moments",
    "moment_log": "moments",
    "moment_recurrence_residual": "moments",
    "moment_singular_base": "moments",
    "moment_singular_shifted": "moments",
    "moment_special_value": "moments",
    "normalization_check": "quadrature",
    "quad_log_moment": "quadrature",
    "quad_moment": "quadrature",
    "quad_moments": "quadrature",
    "run_checks": "verify",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{module}", fromlist=(name,)), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


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
