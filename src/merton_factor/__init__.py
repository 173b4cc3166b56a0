"""Optimal consumption and investment with a stochastic market factor.

Computes well-posedness certificates, optimal policies and value functions
for infinite-horizon power-utility portfolio problems whose coefficients
are driven by a finite-state Markov chain or a one-dimensional diffusion,
with Monte Carlo cross-verification of the results.
"""

from . import analysis, diffusion_solver, discretizer, errors, linalg, model, montecarlo, regime_solver
from .analysis import *
from .diffusion_solver import *
from .discretizer import *
from .errors import *
from .linalg import *
from .model import *
from .montecarlo import *
from .regime_solver import *

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__,
    *diffusion_solver.__all__,
    *discretizer.__all__,
    *errors.__all__,
    *linalg.__all__,
    *model.__all__,
    *montecarlo.__all__,
    *regime_solver.__all__,
    "__version__",
]
