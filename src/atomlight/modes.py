"""Optical mode families for the magnetized ensemble.

Two bases are provided.  Dressed plane waves diagonalize the wave
operator of the homogeneous polarized medium, whose response matrix is

    M = a0 * I + i * a1 * [j_hat]_x ,

and carry the modified dispersion w^2 = c^2 k^2 (a0 +- a1 (j.k)).
Hermite-Gaussian paraxial modes serve as the transverse basis for the
input-output maps.  Overlap fields Psi[m,n](r) = U_m^*(r) U_n(r) are the
weights through which the atoms see mode interference.

`hermite_gauss_eval` uses that a Hermite-Gaussian mode separates in x
and y (Siegman, Lasers, ch. 16): U = c * u_m(x) * u_n(y), where each
axis factor carries the Gaussian envelope and the wavefront curvature,
and the scalar c carries the waist scale, the Gouy phase and the k z
phase.  Exponentials run on the 1-D axes only, and the large k z enters
once, in c.

`mode_values` stacks a shared-k basis on a grid, and `TransverseGrid.weights`
holds the trapezoid weights of `TransverseGrid.integrate`.  Overlap fields
and the collective commutator are products of these two.

An axis factor is the normalized Hermite function phi_n at
xi = sqrt(2) v/w, from phi_n = sqrt(2/n) xi phi_(n-1) - sqrt((n-1)/n) phi_(n-2)
(Bunck, BIT 49, 281 (2009); Gil, Segura & Temme, Numerical Methods for
Special Functions, SIAM 2007), with no factorial and no overflow.  The
recurrence starts from phi_0 = pi^(-1/4) e^(-xi^2/4), and its result is
multiplied by the other half of the envelope e^(-xi^2/2), so a value that
is a normal float stays one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, MixedWavenumbers
from .medium import cross_matrix

DEGENERACY_TOL = 1e-12
# The highest mode order m + n that HermiteGaussMode accepts, and so the
# bound of the CLI's `modes.max_order` and of `regime.check_fresnel_basis`.
# The axis recurrence itself has no order limit.
MAX_ORDER = 149


def medium_matrix(a0: float, a1: float, j_hat) -> np.ndarray:
    """Response matrix M = a0*I + i*a1*[j_hat]_x of the polarized medium."""
    return a0 * np.eye(3, dtype=complex) + 1j * a1 * cross_matrix(np.asarray(j_hat))


@dataclass(frozen=True)
class DressedPlaneWave:
    """One helicity branch of the dressed plane-wave pair."""

    k_hat: np.ndarray
    s: int                       # +1 or -1 helicity branch
    polarization: np.ndarray     # complex 3-vector, unit under medium inner product
    omega2: float                # squared frequency for wavenumber k (c = 1)
    norm: float                  # (2*(a0 + s*a1*(j.k)))^(-1/2) mode-function prefactor


def dressed_modes(k_hat, j_hat, a0: float, a1: float, k: float = 1.0,
                  gauge=None) -> tuple[DressedPlaneWave, DressedPlaneWave]:
    """Dressed polarization pair for propagation direction k_hat.

    The transverse frame is v1 = j x k / |j x k|, v2 = k x v1, and the
    branches are eps_s ~ (v1 + i*s*v2), normalized to unity under the
    medium inner product.  When j_hat is parallel to k_hat the frame is
    gauge: pass any vector with a transverse component as `gauge` to fix
    v1, otherwise DegenerateGeometry is raised.  Dispersion:
    omega2 = k^2 (a0 + s*a1*(j.k)) with c = 1.
    """
    k_hat = np.asarray(k_hat, dtype=float)
    j_hat = np.asarray(j_hat, dtype=float)
    k_hat = k_hat / np.linalg.norm(k_hat)
    j_hat = j_hat / np.linalg.norm(j_hat)
    jk = float(j_hat @ k_hat)
    for s in (+1, -1):
        if a0 + s * a1 * jk <= 0:
            raise ValueError("need a0 +- a1*(j.k) > 0 for both branches")

    v1 = np.cross(j_hat, k_hat)
    n1 = np.linalg.norm(v1)
    if n1 < DEGENERACY_TOL:
        if gauge is None:
            raise DegenerateGeometry(
                "j_hat parallel to k_hat; supply a gauge vector for the "
                "transverse frame")
        g = np.asarray(gauge, dtype=float)
        v1 = g - (g @ k_hat) * k_hat
        n1 = np.linalg.norm(v1)
        if n1 < DEGENERACY_TOL:
            raise DegenerateGeometry("gauge vector has no transverse component")
    v1 = v1 / n1
    v2 = np.cross(k_hat, v1)

    branches = []
    for s in (+1, -1):
        w = a0 + s * a1 * jk
        # conj(eps) M eps = 2 w for eps = v1 + i s v2 and M = medium_matrix
        norm = 1.0 / np.sqrt(2.0 * w)
        branches.append(DressedPlaneWave(
            k_hat=k_hat, s=s, polarization=(v1 + 1j * s * v2) * norm,
            omega2=k * k * w, norm=norm))
    return branches[0], branches[1]


def _is_mode_index(value) -> bool:
    """True for a nonnegative integer; bools and floats are not indices."""
    if isinstance(value, bool):
        return False
    try:
        return operator.index(value) >= 0
    except TypeError:
        return False


@dataclass(frozen=True)
class HermiteGaussMode:
    """Paraxial Hermite-Gaussian beam U_mn with waist w0 at z = 0."""

    m: int
    n: int
    k: float
    w0: float

    def __post_init__(self):
        if not (_is_mode_index(self.m) and _is_mode_index(self.n)):
            raise ValueError("mode indices must be nonnegative integers: "
                             f"{self.m!r}, {self.n!r}")
        # operator.index: a sum of two numpy uint8 indices would wrap.
        if operator.index(self.m) + operator.index(self.n) > MAX_ORDER:
            raise ValueError(f"mode order m + n must be at most {MAX_ORDER}: "
                             f"{self.m!r}, {self.n!r}")
        if not all(math.isfinite(v) and v > 0 for v in (self.w0, self.k)):
            raise ValueError("w0 and k must be finite and positive")
        if not (math.isfinite(self.z0) and self.z0 > 0):
            raise ValueError(f"Rayleigh range k*w0^2/2 = {self.z0!r} must be "
                             "finite and positive")

    @property
    def z0(self) -> float:
        """Rayleigh range pi*w0^2/lambda = k*w0^2/2."""
        return 0.5 * self.k * (self.w0 * self.w0)

    def waist(self, z: float) -> float:
        return self.w0 * math.hypot(1.0, z / self.z0)


def hermite_gauss_eval(mode: HermiteGaussMode, x, y, z):
    """Evaluate U_mn at (x, y, z); x and y may be arrays, z a finite scalar.

    Gouy phase (m+n+1)*arctan(z/z0); wavefront curvature
    R(z) = z + z0^2/z, flat at the waist.  The mode separates in x and y:

        U = c * u_m(x) * u_n(y),  u_j(v) = phi_j(sqrt(2) v/w) e^(i k v^2/2R),

    with the normalized Hermite functions phi_j and the scalar
    c = (sqrt(2)/w) e^(i (k z - gouy)).  Each factor is evaluated on its
    own axis and the result costs one product of the two; the large k z
    phase enters once, through c, and never meets the transverse phase.
    An infinite coordinate gives 0 and a NaN one NaN.  ValueError unless
    z, k z and z/z0 are finite.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = float(z)
    t = z / mode.z0
    if not (math.isfinite(mode.k * z) and math.isfinite(t)):
        raise ValueError(f"z, k*z and z/z0 must be finite, got z = {z!r}")
    w = mode.waist(z)
    gouy = (mode.m + mode.n + 1) * math.atan(t)
    c = math.sqrt(2.0) / w * np.exp(1j * (mode.k * z - gouy))
    with np.errstate(over="ignore"):      # a huge v / w gives the factor 0
        return c * _axis_factor(mode.m, x / w, t) \
            * _axis_factor(mode.n, y / w, t)


def _axis_factor(order: int, s: np.ndarray, t: float) -> np.ndarray:
    """phi_order(sqrt(2) s) e^(i k v^2/2R) at s = v/w; k v^2/2R = t s^2.

    Where the half envelope is 0, s is set to 0, so an infinite s gives 0,
    not inf * 0; a NaN s stays NaN.
    """
    half = np.exp(-0.5 * s * s)              # e^(-xi^2/4), xi = sqrt(2) s
    s = np.where(half == 0.0, 0.0, s)
    xi = math.sqrt(2.0) * s
    prev, phi = 0.0, np.pi ** -0.25 * half
    for j in range(1, order + 1):
        prev, phi = phi, math.sqrt(2.0 / j) * xi * phi \
            - math.sqrt((j - 1) / j) * prev
    u = phi * half
    if t:
        u = u * np.exp(1j * t * (s * s))
    return u


def mode_values(basis, x, y, z: float = 0.0) -> np.ndarray:
    """Stack U[i] = hermite_gauss_eval(basis[i], x, y, z) of a shared-k basis.

    Shape (len(basis),) + the broadcast shape of x and y.  Raises
    MixedWavenumbers unless every mode has the same k.
    """
    ks = {mode.k for mode in basis}
    if len(ks) > 1:
        raise MixedWavenumbers(f"basis mixes wavenumbers {sorted(ks)}")
    U = np.empty((len(basis),) + np.broadcast(x, y).shape, dtype=complex)
    for i, mode in enumerate(basis):
        U[i] = hermite_gauss_eval(mode, x, y, z)
    return U


@dataclass(frozen=True)
class TransverseGrid:
    """Uniform tensor-product grid on a transverse plane."""

    x: np.ndarray   # 1D
    y: np.ndarray   # 1D

    @property
    def X(self):
        return self.x[:, None]

    @property
    def Y(self):
        return self.y[None, :]

    @property
    def weights(self) -> np.ndarray:
        """(nx, ny) trapezoid weights: the integral of f is sum(weights * f)."""
        wx, wy = (_trapezoid_weights(v) for v in (self.x, self.y))
        return np.outer(wx, wy)

    def integrate(self, field):
        """Trapezoid quadrature over the first two (grid) axes of a field.

        A numpy scalar for a 2-D field, summed pairwise (a BLAS dot is not).
        """
        w = self.weights[(...,) + (None,) * (np.ndim(field) - 2)]
        return (w * field).sum(axis=(0, 1))


def _trapezoid_weights(v: np.ndarray) -> np.ndarray:
    """Trapezoid weights on axis v: half of each interval beside a point."""
    half = np.diff(v) / 2
    w = np.append(half, 0.0)
    w[1:] += half
    return w


def make_grid(w: float, extent_factor: float = 6.0, n: int = 128) -> TransverseGrid:
    """Square grid of half-width extent_factor*w with n points per axis."""
    if not all(math.isfinite(v) and v > 0 for v in (w, extent_factor)):
        raise ValueError("w and extent_factor must be finite and positive")
    if n < 2:
        raise ValueError("grid needs at least 2 points per axis")
    x = np.linspace(-extent_factor * w, extent_factor * w, n)
    return TransverseGrid(x=x, y=x.copy())


@dataclass(frozen=True)
class OverlapField:
    """Mode-pair interference weights Psi[m,n](r_perp) = U_m^* U_n at fixed z."""

    Psi: np.ndarray          # shape (n_modes, n_modes, nx, ny)
    grid: TransverseGrid
    z: float

    def __getitem__(self, idx):
        m, n = idx
        return self.Psi[m, n]


def overlap_field(basis: list, grid: TransverseGrid, z: float = 0.0) -> OverlapField:
    """Overlap fields for every pair in a shared-k Hermite-Gauss basis.

    Hermitian in (m, n) by construction; the transverse integral of
    Psi[m,n] is delta_mn up to quadrature error.
    """
    U = mode_values(basis, grid.X, grid.Y, z)
    Psi = np.empty((len(basis),) + U.shape, dtype=complex)
    for m in range(len(basis)):
        Psi[m, m] = np.abs(U[m])**2
        np.multiply(np.conj(U[m]), U[m + 1:], out=Psi[m, m + 1:])
        np.conj(Psi[m, m + 1:], out=Psi[m + 1:, m])
    return OverlapField(Psi=Psi, grid=grid, z=z)
