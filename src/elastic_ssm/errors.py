"""Exception taxonomy shared across the package.

Each error class maps onto one process exit code used by the command line
driver, so library failures surface with a stable, scriptable meaning:

====================  ==========  =========================================
exception             exit code   meaning
====================  ==========  =========================================
ConfigError           2           bad config file, flag, or argument value
                                  (BudgetError, an illegal budget, is one)
ArtifactError         3           file format / header / checksum mismatch
NumericError          4           numerical failure (divergence, NaN flood)
AuditError            5           assertion or audit failure (bound violated,
                                  gradient check failed, acceptance check)
====================  ==========  =========================================
"""

from __future__ import annotations

__all__ = [
    "EssmError",
    "ConfigError",
    "StructuralError",
    "BudgetError",
    "ArtifactError",
    "ConvergenceError",
    "NumericError",
    "AuditError",
    "EXIT_CODES",
]


class EssmError(Exception):
    """Base class for all package errors."""


class ConfigError(EssmError, ValueError):
    """Invalid configuration value, unknown key, or malformed argument."""


class StructuralError(EssmError, ValueError):
    """Array arguments have the wrong shape, dtype, or symmetry."""


class BudgetError(ConfigError):
    """Budget outside the legal range 2 <= K <= capacity (budgets of 1 are
    rejected); raised by ``config.check_budgets``."""


class ArtifactError(EssmError, IOError):
    """Serialized artifact is malformed: bad magic, version, truncated
    payload, checksum mismatch, or header fields that disagree with what
    the caller asked for."""


class ConvergenceError(EssmError, RuntimeError):
    """Iterative numerical routine failed to converge."""


class NumericError(EssmError, RuntimeError):
    """Numerical failure at runtime (non-finite values, step-skip flood)."""


class AuditError(EssmError, AssertionError):
    """A verified property failed: stability bound exceeded, gradient check
    above tolerance, or similar."""


#: Exit codes used by the CLI (0 = success).
EXIT_CODES = {
    ConfigError: 2,
    StructuralError: 2,
    ArtifactError: 3,
    ConvergenceError: 4,
    NumericError: 4,
    AuditError: 5,
}


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code, defaulting to 1."""
    for klass, code in EXIT_CODES.items():
        if isinstance(exc, klass):
            return code
    return 1
