"""Exception taxonomy shared by all modules, and the argument checks
that raise DomainError on a bad scalar before any work is done.

The CLI maps these onto process exit codes: FormatError -> 2,
DomainError -> 3, ConvergenceError -> 4.
"""

import math
import numbers


class UncrelError(Exception):
    """Base class for all library errors."""


class FormatError(UncrelError):
    """Malformed input data (tables, files, CLI specs)."""


class DomainError(UncrelError):
    """Parameter outside the validity window of a formula or bound."""


class DivergenceError(DomainError):
    """An integral does not converge for the requested order."""


class BracketError(DomainError):
    """Root or minimum bracketing failed (no sign change / no interior minimum)."""


class ConvergenceError(UncrelError):
    """An iterative numerical procedure exhausted its budget."""


class NonFiniteError(ConvergenceError):
    """An integrand returned NaN or infinity at an interior point."""


def check_integer(what: str, x) -> None:
    """DomainError unless x is an integer >= 1; a bool is not one."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) \
            or not math.isfinite(x) or x != int(x) or x < 1:
        raise DomainError(f"{what} must be an integer >= 1, got {x}")


def check_finite(what: str, x) -> None:
    """DomainError unless x is a finite real number; a bool is not one."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
        raise DomainError(f"{what} must be a finite number, got {x}")


def check_positive(what: str, x) -> None:
    """DomainError unless x is a finite real number > 0; a bool is not one."""
    check_finite(what, x)
    if x <= 0:
        raise DomainError(f"{what} must be positive, got {x}")
