"""Gaussian input-output dynamics of the light-spin interface.

Covers the paraxial single-mode polarization rotation, the multimode
weak-coupling increments, the collective-quadrature (kappa) map with its
Gaussian-state machinery, a measurement-plus-feedback memory protocol,
the spontaneous-emission corrections, and the beyond-paraxial
generalization in local polarization frames.

Quadratures are ordered (X_P..., P_P..., X_A..., P_A...): light first,
atoms second, positions before momenta within each species.  Vacuum
variance is 1/2, [X, P] = i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameNotOrthonormal, NonUniformClassicalMode
from .modes import mode_values

FRAME_TOL = 1e-12
UNIFORMITY_TOL = 0.01


@dataclass(frozen=True)
class QuadratureOrdering:
    """Index bookkeeping for the (X_P.., P_P.., X_A.., P_A..) ordering."""

    n_light: int
    n_atom: int

    @property
    def dim(self) -> int:
        return 2 * (self.n_light + self.n_atom)

    def X_P(self, i: int = 0) -> int:
        return i

    def P_P(self, i: int = 0) -> int:
        return self.n_light + i

    def X_A(self, i: int = 0) -> int:
        return 2 * self.n_light + i

    def P_A(self, i: int = 0) -> int:
        return 2 * self.n_light + self.n_atom + i


def symplectic_form(ordering: QuadratureOrdering) -> np.ndarray:
    """Matrix Omega with [q_a, q_b] = i * Omega[a, b]."""
    light, atom = np.arange(ordering.n_light), np.arange(ordering.n_atom)
    X = np.concatenate([ordering.X_P(light), ordering.X_A(atom)])
    P = np.concatenate([ordering.P_P(light), ordering.P_A(atom)])
    O = np.zeros((ordering.dim, ordering.dim))
    O[X, P], O[P, X] = 1.0, -1.0
    return O


@dataclass
class GaussianState:
    """Gaussian state: mean vector and symmetric covariance matrix."""

    ordering: QuadratureOrdering
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        d = self.ordering.dim
        if self.mean.shape != (d,) or self.cov.shape != (d, d):
            raise ValueError("state arrays do not match ordering dimension")

    @classmethod
    def vacuum(cls, ordering: QuadratureOrdering) -> "GaussianState":
        d = ordering.dim
        return cls(ordering, np.zeros(d), 0.5 * np.eye(d))

    def uncertainty_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of cov + (i/2)*Omega; all >= 0 for a physical state."""
        O = symplectic_form(self.ordering)
        return np.linalg.eigvalsh(self.cov.astype(complex) + 0.5j * O)

    def is_physical(self) -> bool:
        return bool(np.min(self.uncertainty_eigenvalues()) >= -1e-10)

    def variance(self, idx: int) -> float:
        return float(self.cov[idx, idx])


# ---------------------------------------------------------------------------
# Paraxial single-k maps
# ---------------------------------------------------------------------------

def faraday_angle(k_L: float, beta: float, c1: float,
                  column_rho_Jz: float) -> float:
    """Polarization rotation angle phi = k_L c1 beta int rho Jz dz."""
    return k_L * c1 * beta * column_rho_Jz


def paraxial_stokes_map(s, phi: float):
    """Second-order truncated rotation of the Stokes vector about s3.

    s = (s1, s2, s3); returns (s1 - phi*s2 - phi^2/2*s1,
    s2 + phi*s1 - phi^2/2*s2, s3).  s3 is exactly invariant.
    """
    s1, s2, s3 = s
    return (s1 - phi * s2 - 0.5 * phi**2 * s1,
            s2 + phi * s1 - 0.5 * phi**2 * s2,
            s3)


def paraxial_spin_map(J, s3_sum: float, k_L: float, beta: float, c1: float):
    """Second-order truncated spin rotation about the beam axis.

    Omega = beta c1 k_L (sum_k s3^k) e_z;
    J' = J + J x Omega + ((J x Omega) x Omega)/2.  Jz is invariant.
    """
    J = np.asarray(J, dtype=float)
    Omega = beta * c1 * k_L * s3_sum * np.array([0.0, 0.0, 1.0])
    JxO = np.cross(J, Omega)
    return J + JxO + 0.5 * np.cross(JxO, Omega)


# ---------------------------------------------------------------------------
# Multimode weak-coupling increments
# ---------------------------------------------------------------------------

def multimode_light_increments(W_o: np.ndarray, n_photons: float,
                               k_L: float, beta: float, c1: float):
    """Quadrature kicks on the quantum sidemodes from the atomic sample.

    W_o[m] = int d3r rho(r) ((0,Jy,Jz).e_z) Psi[m,o](r) is the complex
    overlap weight against the classical mode o.  Returns (dX, dP) with
    dX^m ~ Re W_o[m], dP^m ~ Im W_o[m].
    """
    W_o = np.asarray(W_o, dtype=complex)
    pref = k_L * beta * c1 * np.sqrt(n_photons / 2.0)
    return pref * np.real(W_o), pref * np.imag(W_o)


def multimode_spin_increment(Psi_no_at_r: np.ndarray, X: np.ndarray,
                             P: np.ndarray, J_at_r, n_photons: float,
                             k_L: float, beta: float, c1: float,
                             e_z=(0.0, 0.0, 1.0)):
    """Local spin kick from the sidemode quadratures.

    dJ(r) = k_L beta c1 sqrt(N/2) sum_n [Re Psi^{no}(r) P_n
            - Im Psi^{no}(r) X_n] (J(r) x e_z).
    """
    Psi = np.asarray(Psi_no_at_r, dtype=complex)
    scalar = float(np.sum(np.real(Psi) * P - np.imag(Psi) * X))
    pref = k_L * beta * c1 * np.sqrt(n_photons / 2.0)
    return pref * scalar * np.cross(np.asarray(J_at_r, dtype=float),
                                    np.asarray(e_z, dtype=float))


# ---------------------------------------------------------------------------
# Collective quadratures and the kappa map
# ---------------------------------------------------------------------------

def check_uniform_classical_mode(U_values) -> float:
    """Relative spread of |U_o| over the sample; raises above 1%."""
    mags = np.abs(np.asarray(U_values, dtype=complex))
    peak = float(np.max(mags))
    if peak == 0.0:
        raise NonUniformClassicalMode("classical mode vanishes on the sample")
    spread = float((np.max(mags) - np.min(mags)) / peak)
    if spread > UNIFORMITY_TOL:
        raise NonUniformClassicalMode(
            f"classical mode varies by {spread:.1%} over the sample "
            f"(limit {UNIFORMITY_TOL:.0%})")
    return spread


def collective_mode_norm(rho: float, J_x: float, L: float) -> float:
    """Prefactor sqrt(rho / (J_x L)) of the collective atomic quadratures.

    X_A^m = sqrt(rho/(J_x L)) int d3r Jy(r) U_m(r_perp) e^{-ikz},
    P_A^m likewise with Jz.  With the linearized spin commutator
    [Jy(r), Jz(r')] = (i J_x / rho) delta(r - r') and transverse mode
    orthonormality this yields [X_A^m, P_A^n] = i delta_mn.
    """
    if rho <= 0 or J_x <= 0 or L <= 0:
        raise ValueError("rho, J_x and L must be positive")
    return float(np.sqrt(rho / (J_x * L)))


def collective_commutator_matrix(modes, grid, rho: float, J_x: float,
                                 L: float, z: float = 0.0) -> np.ndarray:
    """Numerical [X_A^m, P_A^n] / i via the transverse mode overlaps.

    Evaluates norm^2 * (J_x/rho) * L * int U_m^* U_n d2r, which is
    delta_mn up to quadrature error of the grid.
    """
    norm2 = collective_mode_norm(rho, J_x, L)**2
    # One product over the flattened grid, without holding every pairwise
    # U_m^* U_n on the grid at once.
    flat = mode_values(modes, grid.X, grid.Y, z).reshape(len(modes), -1)
    overlaps = (np.conj(flat) * grid.weights.ravel()) @ flat.T
    return norm2 * (J_x / rho) * L * overlaps


def kappa_coupling(k_L: float, beta: float, c1: float, U_o: float,
                   n_photons: float, rho: float, J_x: float,
                   L: float) -> float:
    """Dimensionless coupling kappa = k_L beta c1 U_o sqrt(N rho J_x L / 2)."""
    if not all(0 < v < np.inf for v in (n_photons, rho, J_x, L)):
        raise ValueError("n_photons, rho, J_x, L must be positive and finite")
    kappa = k_L * beta * c1 * U_o * np.sqrt(n_photons * rho * J_x * L / 2.0)
    if not np.isfinite(kappa):
        raise ValueError(f"kappa = {kappa} is not a finite number")
    return kappa


def collective_map_matrix(ordering: QuadratureOrdering, kappa: float) -> np.ndarray:
    """Symplectic matrix of the passive QND exchange on modes 0.

    X_P' = X_P + kappa * P_A,  X_A' = X_A + kappa * P_P,
    momenta unchanged.
    """
    S = np.eye(ordering.dim)
    S[ordering.X_P(), ordering.P_A()] = kappa
    S[ordering.X_A(), ordering.P_P()] = kappa
    return S


def symplectic_residual(S: np.ndarray, ordering: QuadratureOrdering) -> float:
    """max |S Omega S^T - Omega|: zero for an exactly symplectic S."""
    O = symplectic_form(ordering)
    return float(np.max(np.abs(S @ O @ S.T - O)))


def apply_collective_map(state: GaussianState, kappa: float) -> GaussianState:
    """Apply the kappa map to a Gaussian state."""
    S = collective_map_matrix(state.ordering, kappa)
    return GaussianState(state.ordering, S @ state.mean, S @ state.cov @ S.T)


def condition_on_quadrature(state: GaussianState, idx: int,
                            outcome: float) -> GaussianState:
    """Gaussian update after a homodyne measurement of quadrature idx.

    mean' = mean + cov[:, idx] (m - mean[idx]) / cov[idx, idx],
    cov'  = cov - cov[:, idx] cov[idx, :] / cov[idx, idx].
    The measured row and column collapse to zero variance.
    """
    v = state.cov[idx, idx]
    if v <= 0:
        raise ValueError("measured quadrature has no variance")
    gain_vec = state.cov[:, idx] / v
    mean = state.mean + gain_vec * (outcome - state.mean[idx])
    cov = state.cov - np.outer(state.cov[:, idx], state.cov[idx, :]) / v
    return GaussianState(state.ordering, mean, cov)


@dataclass(frozen=True)
class MemoryResult:
    state: GaussianState
    outcome: float


def memory_protocol(state: GaussianState, kappa: float, gain: float,
                    outcome: float | None = None,
                    rng: np.random.Generator | None = None) -> MemoryResult:
    """Write a light mode onto the collective spin.

    Steps: (1) kappa map writes P_P onto X_A; (2) homodyne of X_P'
    (which carries kappa * P_A) with the stated outcome, sampled from
    the state statistics when not given; (3) feedback displaces P_A by
    gain * outcome.  With gain = -1/kappa the atomic momentum becomes
    -X_P/kappa up to conditional noise, completing the map of both
    light quadratures into the atoms.
    """
    after = apply_collective_map(state, kappa)
    i_meas = after.ordering.X_P(0)
    if outcome is None:
        rng = np.random.default_rng() if rng is None else rng
        outcome = float(rng.normal(after.mean[i_meas],
                                   np.sqrt(after.cov[i_meas, i_meas])))
    cond = condition_on_quadrature(after, i_meas, outcome)
    mean = cond.mean.copy()
    mean[cond.ordering.P_A(0)] += gain * outcome
    final = GaussianState(cond.ordering, mean, cond.cov)
    return MemoryResult(state=final, outcome=float(outcome))


# ---------------------------------------------------------------------------
# Spontaneous-emission corrections (paraxial, order beta^2)
# ---------------------------------------------------------------------------

def paraxial_mode_density(k_L: float) -> float:
    """Transverse mode density rho(r_perp) = k_L^3 / (16 pi^2).

    Satisfies sum_n |U_n(r_perp)|^2 = (2/k_L) * rho(r_perp) for a
    complete paraxial basis.
    """
    return k_L**3 / (16.0 * np.pi**2)


def spontaneous_stokes_correction(s, spin_moments: dict, c0: float, c1: float,
                                  beta: float, k_L: float,
                                  column_density: float):
    """Damped Stokes vector after one pass through the sample.

    s = (s0, s1, s2, s3); spin_moments needs keys Jx2, Jy2, Jz2, J4
    (second moments of the spin components and the squared J^2).
    """
    s0, s1, s2, s3 = s
    vr = paraxial_mode_density(k_L)
    eta = 0.5 * beta**2 * k_L * vr * column_density
    Jx2, Jy2 = spin_moments["Jx2"], spin_moments["Jy2"]
    Jz2, J4 = spin_moments["Jz2"], spin_moments["J4"]
    s1o = s1 - eta * (c1**2 * (Jy2 - Jz2) * s0
                      + (c0**2 * J4 + c1**2 * (4 * Jz2 + Jy2)) * s1)
    s2o = s2 - eta * (c0**2 * J4 + c1**2 * (3 * Jz2 + Jy2 + Jx2)) * s2
    s3o = s3 - eta * (c0**2 * J4 + c1**2 * (Jz2 + Jy2 + Jx2)) * s3
    return (s0, s1o, s2o, s3o)


def spontaneous_spin_correction(J, stokes, c1: float, beta: float,
                                k_L: float):
    """Damped mean spin after one pass; stokes = (s0, s1, s2, s3) summed over k."""
    s0, s1, s2, _ = stokes
    Jx, Jy, Jz = np.asarray(J, dtype=float)
    g = beta**2 * c1**2 * k_L * paraxial_mode_density(k_L)
    Jxo = Jx - g * (Jx * (s0 + 0.5 * s1) + 0.5 * Jy * s2)
    Jyo = Jy - g * (Jy * (s0 + 0.5 * s1) + 0.5 * Jx * s2)
    Jzo = Jz - g * Jz * s0
    return np.array([Jxo, Jyo, Jzo])


# ---------------------------------------------------------------------------
# Beyond-paraxial maps in local polarization frames
# ---------------------------------------------------------------------------

def validate_frame(e_x, e_y, e_z) -> None:
    """Require a right-handed orthonormal triad (e_x, e_y, e_z)."""
    E = np.stack([np.asarray(e_x, dtype=float),
                  np.asarray(e_y, dtype=float),
                  np.asarray(e_z, dtype=float)])
    if np.max(np.abs(E @ E.T - np.eye(3))) > FRAME_TOL:
        raise FrameNotOrthonormal("triad is not orthonormal")
    if np.max(np.abs(np.cross(E[0], E[1]) - E[2])) > FRAME_TOL:
        raise FrameNotOrthonormal("triad is not right-handed")


@dataclass(frozen=True)
class LocalFrames:
    """Polarization triads of the classical mode and each quantum mode."""

    classical: tuple          # (e_ox, e_oy, e_oz)
    quantum: tuple            # tuple of (e_mx, e_my, e_mz) per mode

    def __post_init__(self):
        validate_frame(*self.classical)
        for triad in self.quantum:
            validate_frame(*triad)


def beyond_paraxial_light_increments(Psi_o: np.ndarray, rho_w: np.ndarray,
                                     Jy: np.ndarray, Jz: np.ndarray,
                                     frames: LocalFrames, n_photons: float,
                                     k_L: float, beta: float, c1: float):
    """Quadrature kicks with local-frame projection factors.

    Psi_o[m, p] is the overlap Psi^{mo} at sample point p; rho_w[p] the
    density times quadrature weight.  Each mode picks up the factor
    J_{e_oz} (e_ox . e_mx) - J_{e_ox} (e_ox . e_mz) evaluated
    pointwise.  For global frames this reduces exactly to the
    multimode weak-coupling increments.
    """
    Psi_o = np.asarray(Psi_o, dtype=complex)
    rho_w = np.asarray(rho_w, dtype=float)
    Jy, Jz = np.asarray(Jy, dtype=float), np.asarray(Jz, dtype=float)
    e_ox, _, e_oz = (np.asarray(v, dtype=float) for v in frames.classical)
    pref = k_L * beta * c1 * np.sqrt(n_photons / 2.0)
    ex, _, ez = np.asarray(frames.quantum[:len(Psi_o)], dtype=float).transpose(1, 0, 2)
    # (0, Jy, Jz) . e_oz and (0, Jy, Jz) . e_ox at every sample point
    J_oz, J_ox = (Jy * e[1] + Jz * e[2] for e in (e_oz, e_ox))
    factor = np.outer(ex @ e_ox, J_oz) - np.outer(ez @ e_ox, J_ox)
    dX = pref * np.sum(rho_w * np.real(Psi_o) * factor, axis=1)
    dP = pref * np.sum(rho_w * np.imag(Psi_o) * factor, axis=1)
    return dX, dP


def beyond_paraxial_spin_increment(Psi_o_at_r: np.ndarray, X: np.ndarray,
                                   P: np.ndarray, J_at_r,
                                   frames: LocalFrames, n_photons: float,
                                   k_L: float, beta: float, c1: float):
    """Local spin kick with the axis J x (e_ox x e_ny) per mode."""
    Psi = np.asarray(Psi_o_at_r, dtype=complex)
    J = np.asarray(J_at_r, dtype=float)
    e_ox = np.asarray(frames.classical[0], dtype=float)
    pref = k_L * beta * c1 * np.sqrt(n_photons / 2.0)
    e_y = np.asarray(frames.quantum[:Psi.size], dtype=float)[:, 1]
    axes = np.cross(J, np.cross(e_ox, e_y))
    weights = np.real(Psi) * np.asarray(P) - np.imag(Psi) * np.asarray(X)
    return pref * (weights @ axes)
