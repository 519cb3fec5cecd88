"""Validity-regime bookkeeping for the perturbative input-output maps.

The truncated light and spin equations are controlled by small
dimensionless combinations of the coupling kappa, the photon and atom
numbers, the resonant optical depth, and the sample geometry.  A
scenario passes when every neglected-term estimate is below 0.1.  A
separate Fresnel check guards the paraxial mode expansion.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

from .modes import MAX_ORDER

THRESHOLD = 0.1
OD_CONSISTENCY = 0.2
FRESNEL_MARGIN = 10.0


@dataclass(frozen=True)
class Scenario:
    """Operating point of the interface.

    kappa          -- collective coupling
    n_photons      -- photons in the classical mode
    n_atoms        -- atoms in the sample
    optical_depth  -- resonant optical depth along the beam
    wavelength     -- optical wavelength
    length         -- sample length along the beam
    transverse_size-- beam/sample transverse extent d
    detuning       -- laser detuning Delta
    linewidth      -- excited-state linewidth gamma
    density        -- atomic number density (optional; enables the
                      optical-depth consistency check)
    """

    kappa: float
    n_photons: float
    n_atoms: float
    optical_depth: float
    wavelength: float
    length: float
    transverse_size: float
    detuning: float
    linewidth: float
    density: float | None = None

    def __post_init__(self):
        for name in ("n_photons", "n_atoms", "optical_depth", "wavelength",
                     "length", "transverse_size", "linewidth"):
            value = getattr(self, name)
            if not (_is_finite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0")
        for name in ("kappa", "detuning"):
            if not _is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if self.detuning == 0:
            raise ValueError("detuning must be nonzero")
        d = self.density
        if d is not None and not (_is_finite(d) and d > 0):
            raise ValueError(
                f"density must be None or a finite number > 0: {d!r}")


def _is_finite(x) -> bool:
    """A finite real number, not a bool or an int too big for a float."""
    if type(x) is float:  # the common case, without the numbers.Real check
        return math.isfinite(x)
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    value: float
    threshold: float
    passed: bool

    @property
    def margin(self) -> float:
        """threshold - value: positive means the check passes with room."""
        return self.threshold - self.value


@dataclass(frozen=True)
class RegimeReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def table(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [f"{'check':<{width}}  {'value':>12}  {'limit':>8}  status"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name:<{width}}  {c.value:>12.4e}  "
                         f"{c.threshold:>8.2g}  {status}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _check(name: str, value: float,
           threshold: float = THRESHOLD) -> RegimeCheck:
    return RegimeCheck(name=name, value=float(value), threshold=threshold,
                       passed=bool(value < threshold))


def check_light_series(sc: Scenario) -> RegimeReport:
    """Neglected-term estimates of the truncated light equation.

    kappa / sqrt(N_P), kappa^2 / sqrt(N_P), and
    (kappa^2 / OD) * (N_A / N_P) must each be below 0.1.
    """
    checks = [
        _check("kappa/sqrt(N_P)", sc.kappa / math.sqrt(sc.n_photons)),
        _check("kappa^2/sqrt(N_P)", sc.kappa**2 / math.sqrt(sc.n_photons)),
        _check("(kappa^2/OD)*(N_A/N_P)",
               sc.kappa**2 / sc.optical_depth * sc.n_atoms / sc.n_photons),
    ]
    checks += _od_consistency(sc)
    return RegimeReport(checks=tuple(checks))


def check_spin_series(sc: Scenario) -> RegimeReport:
    """Neglected-term estimates of the truncated spin equation.

    kappa / sqrt(N_A), kappa^2 / OD,
    kappa^2 sqrt(d / (L * OD)), and
    kappa^2 sqrt(Delta/gamma) sqrt(lambda / (L * OD)) below 0.1.
    """
    od = sc.optical_depth
    checks = [
        _check("kappa/sqrt(N_A)", sc.kappa / math.sqrt(sc.n_atoms)),
        _check("kappa^2/OD", sc.kappa**2 / od),
        _check("kappa^2*sqrt(d/(L*OD))",
               sc.kappa**2 * math.sqrt(sc.transverse_size / (sc.length * od))),
        _check("kappa^2*sqrt(Delta/gamma)*sqrt(lambda/(L*OD))",
               sc.kappa**2 * math.sqrt(abs(sc.detuning) / sc.linewidth)
               * math.sqrt(sc.wavelength / (sc.length * od))),
    ]
    checks += _od_consistency(sc)
    return RegimeReport(checks=tuple(checks))


def _od_consistency(sc: Scenario) -> list:
    """Optional cross-check OD ~ rho lambda^2 L within 20%."""
    if sc.density is None:
        return []
    estimate = sc.density * sc.wavelength**2 * sc.length
    rel = abs(estimate - sc.optical_depth) / sc.optical_depth
    return [_check("OD vs rho*lambda^2*L (rel dev)", rel, OD_CONSISTENCY)]


def fresnel_number(wavelength: float, transverse_size: float,
                   length: float) -> float:
    """F = w^2 / (lambda L) for beam size w over propagation length L."""
    return transverse_size**2 / (wavelength * length)


def check_fresnel(F: float, m: int, n: int) -> RegimeCheck:
    """Paraxial-validity condition F >= 10 * (1 + m + n) for mode (m, n).

    Encoded as requiring 10 * (1 + m + n) / F < 1.
    """
    value = FRESNEL_MARGIN * (1 + m + n) / F
    return RegimeCheck(name=f"fresnel({m},{n})", value=float(value),
                       threshold=1.0, passed=bool(value <= 1.0))


def check_fresnel_basis(F: float, max_order: int) -> list[RegimeCheck]:
    """Fresnel checks for every Hermite-Gauss mode with m + n <= max_order.

    max_order must be an integer in 0 .. modes.MAX_ORDER; ValueError
    otherwise, before any check is built.
    """
    max_order = operator.index(max_order)
    if not 0 <= max_order <= MAX_ORDER:
        raise ValueError(
            f"max_order must be in 0..{MAX_ORDER}, got {max_order}")
    return [check_fresnel(F, m, n)
            for m in range(max_order + 1)
            for n in range(max_order + 1 - m)]
