"""Moment, entropic-moment and Fisher-information functionals of
d-dimensional radial densities, with the full family of verified
uncertainty-relation bounds built on them."""

__version__ = "0.1.0"

from .constants import SystemConfig
from .densities import (DensityPair, RadialDensity, exponential_radial,
                        gaussian_pair, harmonic_fermions_1d, hydrogenic_pair,
                        load_tabulated, scale_pair)
from .errors import (BracketError, ConvergenceError, DivergenceError,
                     DomainError, FormatError, NonFiniteError, UncrelError)
from .functionals import (MomentValue, entropic_moment, fisher_information,
                          radial_moment, variance)
from .inequalities import BoundReport, Direction, InequalityId, evaluate, sweep
from .mathcore import MinimizeResult, QuadratureSpec
from .varoracle import ExtremalConstant, extremal_F, extremal_G

__all__ = [
    "__version__",
    "BoundReport", "BracketError", "ConvergenceError",
    "DensityPair", "Direction", "DivergenceError", "DomainError",
    "ExtremalConstant", "FormatError", "InequalityId", "MinimizeResult",
    "MomentValue", "NonFiniteError", "QuadratureSpec", "RadialDensity",
    "SystemConfig", "UncrelError",
    "entropic_moment", "evaluate", "exponential_radial", "extremal_F",
    "extremal_G", "fisher_information", "gaussian_pair",
    "harmonic_fermions_1d", "hydrogenic_pair", "load_tabulated",
    "radial_moment", "scale_pair", "sweep", "variance",
]
