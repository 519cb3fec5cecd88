"""Effective ground-state interaction of light with a polarized atomic gas.

The atom-light coupling, after adiabatic elimination of the excited
states, acts on the field polarization as a 3x3 matrix built from at most
rank-two tensors in the atomic spin.  This module constructs that matrix
from its (c0, c1, c2) coefficients, fits the coefficients back out of a
given matrix, performs the adiabatic elimination from raw dipole matrix
elements, and provides the mean (scalar) dielectric response including
the all-orders Lorentz-Lorenz resummation.

Internal units: epsilon_0 = hbar = c = 1.  The coupling constant beta
carries the dimensional content (a volume).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonDecomposable, SeriesDiverges, UnphysicalMedium, ZeroDetuning


@dataclass(frozen=True)
class PhysicalParams:
    """Laser/atom parameters fixing the coupling strength.

    gamma   -- excited-state linewidth (rad/s)
    delta   -- detuning of the laser from the transition (rad/s)
    k_L     -- laser wavenumber (1/m); the laser frequency is c k_L
    """

    gamma: float
    delta: float
    k_L: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.k_L > 0:
            raise ValueError("k_L must be positive")
        if self.delta == 0:
            raise ValueError("delta must be nonzero")
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")

    @property
    def beta(self) -> float:
        """Coupling constant beta = pi*gamma / (2*delta*k_L^3)."""
        return np.pi * self.gamma / (2.0 * self.delta * self.k_L**3)


@dataclass(frozen=True)
class InteractionCoefficients:
    """Coefficients (beta; c0, c1, c2) of the rank-decomposed interaction."""

    beta: float
    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0


@dataclass(frozen=True)
class SpinField:
    """Mean single-atom spin and atomic density, possibly on a grid.

    J may be a single 3-vector or an array of shape (..., 3); rho is a
    scalar or an array broadcastable against J[..., 0].
    """

    J: np.ndarray
    rho: np.ndarray | float

    def __post_init__(self):
        object.__setattr__(self, "J", np.asarray(self.J, dtype=float))
        if np.any(np.asarray(self.rho) < 0):
            raise ValueError("density must be nonnegative")

    @property
    def j_hat(self) -> np.ndarray:
        norm = np.linalg.norm(self.J, axis=-1, keepdims=True)
        if not np.all((0.0 < norm) & (norm < np.inf)):
            raise ValueError("j_hat needs a finite nonzero mean spin")
        return self.J / norm


@dataclass(frozen=True)
class MediumScalars:
    """Scalars a0 = 1 - beta*rho*c0*J^2 and a1 = beta*rho*c1*|J|."""

    a0: float
    a1: float

    def __post_init__(self):
        if not (math.isfinite(self.a0) and math.isfinite(self.a1)):
            raise ValueError(f"a0 and a1 must be finite, got {self.a0}, {self.a1}")
        if self.a0 <= 0 or self.a0 - abs(self.a1) <= 0:
            raise ValueError("need a0 > 0 and a0 - |a1| > 0")

    @classmethod
    def from_fields(cls, coeffs: InteractionCoefficients, spin: SpinField,
                    J_sq: float | None = None) -> "MediumScalars":
        J = np.atleast_1d(spin.J)
        jsq = float(np.dot(J, J)) if J_sq is None else float(J_sq)
        a0 = 1.0 - coeffs.beta * float(spin.rho) * coeffs.c0 * jsq
        a1 = coeffs.beta * float(spin.rho) * coeffs.c1 * float(np.linalg.norm(J))
        return cls(a0=a0, a1=a1)


def cross_matrix(v: np.ndarray) -> np.ndarray:
    """Matrix [v]_x with [v]_x w = v x w."""
    vx, vy, vz = v
    return np.array([[0.0, -vz, vy],
                     [vz, 0.0, -vx],
                     [-vy, vx, 0.0]])


def build_interaction_matrix(coeffs: InteractionCoefficients, J,
                             J_sq: float | None = None) -> np.ndarray:
    """3x3 interaction matrix for mean spin J.

    V = beta * [ (c0 - c2) J^2 * I + c2 * J J^T - i c1 [J]_x ].

    J_sq overrides the scalar J^2; pass the quantum value J(J+1) (e.g.
    3/4 for spin-1/2) when the scalar term should carry it instead of
    |J|^2 of the mean-spin vector.
    """
    J = np.asarray(J, dtype=float)
    jsq = float(np.dot(J, J)) if J_sq is None else float(J_sq)
    V = (coeffs.c0 - coeffs.c2) * jsq * np.eye(3) + coeffs.c2 * np.outer(J, J)
    V = V.astype(complex)
    V -= 1j * coeffs.c1 * cross_matrix(J)
    return coeffs.beta * V


def decompose_interaction(V: np.ndarray, J, beta: float,
                          J_sq: float | None = None) -> tuple[float, float, float]:
    """Fit (c0, c1, c2) such that build_interaction_matrix reproduces V.

    Linear least squares over the 3-parameter family; raises
    NonDecomposable when the residual exceeds 1e-9 * ||V||.
    """
    V = np.asarray(V, dtype=complex)
    J = np.asarray(J, dtype=float)
    jsq = float(np.dot(J, J)) if J_sq is None else float(J_sq)
    basis = [
        jsq * np.eye(3, dtype=complex),                       # c0
        -1j * cross_matrix(J).astype(complex),                # c1
        np.outer(J, J).astype(complex) - jsq * np.eye(3),     # c2
    ]
    A = np.stack([np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in basis],
                 axis=1)
    target = V / beta
    b = np.concatenate([target.real.ravel(), target.imag.ravel()])
    coef, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    resid = np.linalg.norm(A @ coef - b)
    norm = np.linalg.norm(V)
    if norm > 0 and resid * abs(beta) > 1e-9 * norm:
        raise NonDecomposable(
            f"residual {resid * abs(beta):.3e} exceeds 1.0e-09 * ||V||")
    c0, c1, c2 = (float(c) for c in coef)
    return c0, c1, c2


def adiabatic_eliminate(dipole_elems) -> np.ndarray:
    """Ground-manifold polarizability from excited-state dipole elements.

    dipole_elems: iterable of (d, delta) with d the 3-vector matrix
    element <g|P|e_j> and delta the detuning of |e_j>.  Returns

        V = sum_j  d_j d_j^dagger / delta_j

    acting on field polarization vectors (epsilon_0 = 1).  Hermitian for
    real detunings; positive semidefinite when all detunings share one
    sign (each term is a scaled outer product).
    """
    V = np.zeros((3, 3), dtype=complex)
    for d, delta in dipole_elems:
        if delta == 0:
            raise ZeroDetuning("detuning must be nonzero")
        d = np.asarray(d, dtype=complex)
        V += np.outer(d, d.conj()) / delta
    return V


def lorentz_lorenz(V: float) -> float:
    """All-orders inverse permittivity (1 - V/3) / (1 + 2V/3).

    Raises UnphysicalMedium where 1 + 2V/3 is zero or not finite.
    """
    den = 1.0 + 2.0 * V / 3.0
    if den == 0 or not math.isfinite(den):
        raise UnphysicalMedium(f"V = {V}: 1 + 2V/3 is zero or not finite")
    return (1.0 - V / 3.0) / den


def lorentz_lorenz_series(V: float, n_terms: int) -> float:
    """Partial sum of the geometric series for the inverse permittivity.

    eps^-1 = 1 - V - V * sum_{n=1}^{N} (-2V/3)^n, convergent for
    |2V/3| < 1.  Raises SeriesDiverges outside the radius.
    """
    q = -2.0 * V / 3.0
    if abs(q) >= 1.0:
        raise SeriesDiverges(f"|2V/3| = {abs(q):.3f} >= 1")
    powers = q ** np.arange(1, n_terms + 1)
    return 1.0 - V - V * float(np.sum(powers))


def mean_index_of_refraction(V: float) -> float:
    """n = 1/sqrt(1 - V) for a finite scalar mean interaction V < 1."""
    if not math.isfinite(V):
        raise UnphysicalMedium(f"V = {V} is not finite")
    if V >= 1.0:
        raise UnphysicalMedium(f"V = {V} >= 1")
    return 1.0 / np.sqrt(1.0 - V)
