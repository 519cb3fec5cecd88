"""Exception types shared across the package."""


class AtomLightError(Exception):
    """Base class for all package-specific errors."""


class NonDecomposable(AtomLightError):
    """Matrix cannot be written in the rank-(0,1,2) interaction family."""


class ZeroDetuning(AtomLightError):
    """Adiabatic elimination requires every detuning to be nonzero."""


class SeriesDiverges(AtomLightError):
    """Geometric resummation requested outside its convergence radius."""


class UnphysicalMedium(AtomLightError):
    """Mean interaction too strong for a real refractive index."""


class DegenerateGeometry(AtomLightError):
    """Spin and propagation direction parallel; polarization basis is gauge."""


class MixedWavenumbers(AtomLightError):
    """Operation requires all modes to share a common wavenumber."""


class OutsideDomain(AtomLightError):
    """Inputs outside the domain where a result is finite.

    The short-propagator coefficients need 0 <= a1 < a0 and an entry
    that does not overflow; a CLI analysis raises it where a cell would
    be inf or NaN.
    """


class ZeroSeparation(AtomLightError):
    """Radiative dipole propagator is singular at zero separation."""


class BasisMismatch(AtomLightError):
    """Operator algebra between operators living on different bases."""


class NonUniformClassicalMode(AtomLightError):
    """Collective-mode construction needs a flat classical beam profile."""


class FrameNotOrthonormal(AtomLightError):
    """Local polarization frames must be right-handed orthonormal triads."""


class UnknownProfile(AtomLightError):
    """Unrecognized atom-cloud density profile."""


class TooFewBatches(AtomLightError):
    """Correlation error bars need at least 16 independent clouds."""


class ConfigInvalid(AtomLightError):
    """Run configuration failed validation; message names the field."""


class AnalysisFailed(AtomLightError):
    """An analysis raised; original error is chained as the cause."""


class BadParameterPath(AtomLightError):
    """Sweep parameter path does not resolve to a scalar config field."""
