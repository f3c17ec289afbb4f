"""Exception taxonomy shared by all modules, the argument checks that
raise DomainError on a bad scalar before any work is done, and the one
guard, formed, that raises it where a double cannot hold a value.

The CLI maps these onto process exit codes: FormatError -> 2,
DomainError -> 3, ConvergenceError -> 4.
"""

import math
import numbers
from typing import Callable

TINY = 2.2250738585072014e-308  # smallest normal float; below it bits are lost


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


def _finite_real(what: str, x, wanted: str) -> None:
    """DomainError unless x is a real number, not a bool, that a finite
    float holds; a plain float or int skips the costly numbers.Real ABC check."""
    try:
        if (type(x) is float or type(x) is int
                or (not isinstance(x, bool) and isinstance(x, numbers.Real))) and math.isfinite(x):
            return
        got = x
    except OverflowError:  # an integer, or a ratio, past the double range
        got = "a number beyond the double-precision range"
    raise DomainError(f"{what} must be {wanted}, got {got}")


def check_integer(what: str, x) -> None:
    """DomainError unless x is an integer >= 1 that a float can hold; a
    bool is not one."""
    _finite_real(what, x, "an integer >= 1")
    if x != int(x) or x < 1:
        raise DomainError(f"{what} must be an integer >= 1, got {x}")


def check_finite(what: str, x) -> None:
    """DomainError unless x is a finite real number; a bool is not one."""
    _finite_real(what, x, "a finite number")


def check_positive(what: str, x) -> None:
    """DomainError unless x is a finite real number > 0; a bool is not one."""
    _finite_real(what, x, "a finite number")
    if x <= 0:
        raise DomainError(f"{what} must be positive, got {x}")


def formed(what: str, form: Callable[[], float], *args) -> float:
    """form(), or a DomainError "<what> leaves the double-precision range"
    where it overflows, divides by zero or is not in [TINY, inf), <what>
    being what.format(*args), formatted only then: a repr costs more."""
    try:
        value = form()
    except (OverflowError, ZeroDivisionError):
        value = 0.0
    if not TINY <= value < math.inf:
        raise DomainError(f"{what.format(*args)} leaves the double-precision range")
    return value
