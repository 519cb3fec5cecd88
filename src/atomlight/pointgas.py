"""Monte Carlo statistics of a gas of pointlike scatterers.

The continuous-density description of the ensemble replaces sums over
atoms by integrals against rho(r).  This module samples actual atom
positions and checks the identities that justify that replacement: the
coherent scattering sum, the self-term (shot-noise) contribution to
density correlations, and the single-atom operator products of spin-1/2
scatterers.

Randomness uses the counter-based Philox bit generator seeded through
numpy's SeedSequence; independent clouds come from spawned child
sequences, so batches are reproducible and uncorrelated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewBatches, UnknownProfile

MIN_BATCHES = 16

PROFILES = ("box", "gaussian")


def make_rng(seed: int) -> np.random.Generator:
    """Philox-backed generator for a root seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def spawn_rngs(seed: int, n: int) -> list:
    """n independent Philox streams spawned from one root seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def sample_cloud(n_atoms: int, profile: str, size: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Positions (n_atoms, 3) for a named density profile.

    box      -- uniform over a cube of side `size` centered at origin;
    gaussian -- isotropic normal with standard deviation `size`.
    """
    if n_atoms <= 0:
        raise ValueError("n_atoms must be positive")
    if profile == "box":
        return rng.uniform(-0.5 * size, 0.5 * size, size=(n_atoms, 3))
    if profile == "gaussian":
        return rng.normal(0.0, size, size=(n_atoms, 3))
    raise UnknownProfile(f"profile must be one of {PROFILES}, got {profile!r}")


def scattering_sum(positions: np.ndarray, delta_k) -> float:
    """|sum_a exp(i delta_k . r_a)|^2 for one cloud.

    At delta_k = 0 this is exactly N^2: all N atoms scatter in phase.
    """
    positions = np.asarray(positions, dtype=float)
    phases = positions @ np.asarray(delta_k, dtype=float)
    amp = np.sum(np.exp(1j * phases))
    return float(np.abs(amp)**2)


@dataclass(frozen=True)
class CorrelationEstimate:
    """Batched estimate of the scattering sum at one momentum transfer."""

    delta_k: tuple
    n_atoms: int
    n_batches: int
    raw_mean: float           # mean of |sum exp|^2, includes the self-term N
    raw_sem: float
    corrected_mean: float     # (raw - N) / (N^2 - N): pair-correlation weight
    corrected_sem: float

    @property
    def self_term(self) -> int:
        """Shot-noise floor: N atoms always contribute |1|^2 each."""
        return self.n_atoms


def density_correlation(clouds, delta_k) -> CorrelationEstimate:
    """Estimate the scattering sum over a batch of independent clouds.

    Requires at least 16 clouds so the standard error of the mean is
    meaningful; raises TooFewBatches otherwise.  The corrected estimator
    subtracts the exact self-term N and normalizes by the N^2 - N
    ordered pairs, converging to |f(delta_k)|^2 with f the normalized
    form factor of the density profile.
    """
    clouds = list(clouds)
    if len(clouds) < MIN_BATCHES:
        raise TooFewBatches(
            f"need at least {MIN_BATCHES} clouds, got {len(clouds)}")
    n_atoms = clouds[0].shape[0]
    vals = np.array([scattering_sum(c, delta_k) for c in clouds])
    raw_mean = float(np.mean(vals))
    raw_sem = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    denom = n_atoms * (n_atoms - 1)
    corr = (vals - n_atoms) / denom
    return CorrelationEstimate(
        delta_k=tuple(float(v) for v in np.asarray(delta_k, dtype=float)),
        n_atoms=n_atoms, n_batches=len(clouds),
        raw_mean=raw_mean, raw_sem=raw_sem,
        corrected_mean=float(np.mean(corr)),
        corrected_sem=float(np.std(corr, ddof=1) / np.sqrt(len(corr))))


def box_form_factor(delta_k, size: float) -> float:
    """|f|^2 for the uniform cube: product of sinc^2(dk_i size / 2)."""
    dk = np.asarray(delta_k, dtype=float)
    return float(np.prod(np.sinc(dk * size / (2.0 * np.pi)))**2)


def gaussian_form_factor(delta_k, size: float) -> float:
    """|f|^2 for the isotropic Gaussian: exp(-|dk|^2 size^2)."""
    dk = np.asarray(delta_k, dtype=float)
    return float(np.exp(-float(dk @ dk) * size**2))


def spin_half_self_product(J_bar) -> np.ndarray:
    """Single-atom products <j_n j_m> of a spin-1/2 scatterer.

    C[n, m] = delta_nm / 4 + (i/2) eps_nml <j_l>.  The diagonal is the
    fixed 1/4 of spin-1/2; off-diagonal elements are purely quantum and
    survive even though the mean spin components commute classically.
    """
    J_bar = np.asarray(J_bar, dtype=float)
    C = 0.25 * np.eye(3, dtype=complex)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    C += 0.5j * np.einsum("nml,l->nm", eps, J_bar)
    return C


def spin_correlation_check(J_bar, tol: float = 1e-12) -> dict:
    """Internal consistency of the spin-1/2 self products.

    Checks hermiticity, the fixed trace 3/4, and that the antisymmetric
    part reproduces (i/2) J_bar.  Returns the residuals.
    """
    C = spin_half_self_product(J_bar)
    herm = float(np.max(np.abs(C - C.conj().T)))
    trace = abs(C.trace() - 0.75)
    anti = (C - C.T) / 2.0
    recovered = np.array([anti[1, 2], anti[2, 0], anti[0, 1]]) / 0.5j
    vec = float(np.max(np.abs(recovered - np.asarray(J_bar, dtype=complex))))
    result = {"hermiticity": herm, "trace": float(trace), "vector": vec}
    for key, val in result.items():
        if val > tol:
            raise AssertionError(f"spin self-product check failed: {key}={val}")
    return result
