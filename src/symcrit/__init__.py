"""Multiplicity intervals and symmetry-reduced solvers for
Delta u + alpha u = f u^p on compact manifolds with isometry actions."""

from .errors import *
from .constants import *
from .geometry import *
from .best_constants import *
from .conditions import *
from .solver import *
from .expansion import *
from .jsonio import *

__version__ = "0.1.0"

__all__ = (
    ["__version__"]
    + errors.__all__
    + constants.__all__
    + geometry.__all__
    + best_constants.__all__
    + conditions.__all__
    + solver.__all__
    + expansion.__all__
    + jsonio.__all__
)
