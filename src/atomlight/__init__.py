"""Numerics for the three-dimensional light / atomic-ensemble interface.

Modules:
    medium     -- effective interaction matrices, Lorentz-Lorenz resummation
    modes      -- dressed plane waves, Hermite-Gauss basis, overlap fields
    propagator -- short propagator, dipole propagator, decay matrices
    qops       -- quadratic operator algebra, Stokes/spin perturbative terms
    dynamics   -- Gaussian states, paraxial/multimode/collective maps
    pointgas   -- Monte Carlo point-scatterer statistics
    regime     -- validity-regime checks
    cli        -- scenario runner (run/sweep)
"""

__version__ = "0.1.0"

from . import dynamics, medium, modes, pointgas, propagator, qops, regime
from .errors import AtomLightError

__all__ = ["AtomLightError", "cli", "dynamics", "medium", "modes",
           "pointgas", "propagator", "qops", "regime", "__version__"]
