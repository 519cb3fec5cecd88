"""Field propagators inside and outside the ensemble.

Covers the equal-position delta-in-time ("infinitely short") propagator
of the polarized medium, both as a closed form and as a Gauss-Legendre
quadrature oracle, the classic radiating-dipole propagator, truncated
mode-sum Green's functions with a reciprocity residual, and the light
and spin decay coefficients the short propagator feeds.  The
independent k-space route to the dipole propagator, its reference,
lives in the tests, so this module runs on numpy alone.

Conventions: c = hbar = 1.  The short propagator is reported through
the coefficient triple (rho_par, rho_perp, rho_gamma); the full matrix
is -i*delta(t-t') times the assembled 3x3 form.  Lamb-shift (principal
value) contributions are dropped; only the delta-in-time dissipative
part is kept.

The triple is k^3/(8 pi) times the integrals over x in [-1, 1] of
2(1 - x^2) f, (1 + x^2) f and 2 x f, f = u^(-5/2), u = a0 + a1 x, for
0 <= a1 < a0.  In s = sqrt(a0 - a1) and t = sqrt(a0 + a1) the closed
form has no a1 in a denominator.  The oracle is one Gauss-Legendre rule
in log u = ln(s t) + h T, h = ln(t/s), T in [-1, 1]: then
x = (s t/a1) expm1(h T) - a1/(s t + a0) and f dx = (h/a1) (s t)^(-3/2)
e^(-1.5 h T) dT, sums of e^(lambda h T), lambda in {-3/2, -1/2, 1/2},
with h <= 18.7 (a0 - a1 >= 2^-53 a0), so it is smooth on both edges.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.polynomial.legendre  # loaded at import, not in the first call

from .errors import OutsideDomain, ZeroSeparation
from .medium import cross_matrix


class ShortPropagatorCoeffs(NamedTuple):
    """Triple (rho_par, rho_perp, rho_gamma), units of k_L^3."""

    rho_par: float
    rho_perp: float
    rho_gamma: float


def _check_domain(a0: float, a1: float, k_L: float) -> None:
    # Compared with DBL_MAX, not converted: an int beyond float range fails
    # here instead of raising OverflowError.
    big = sys.float_info.max
    if not (0 <= a1 < a0 <= big and 0 < k_L and k_L * k_L * k_L <= big):
        raise OutsideDomain("need 0 <= a1 < a0 < inf and k_L > 0 with a "
                            f"finite k_L**3, got {a0}, {a1}, {k_L}")


def short_propagator_closed(a0: float, a1: float, k_L: float) -> ShortPropagatorCoeffs:
    """Closed-form short-propagator coefficients for 0 <= a1 < a0.

    With u = a0 + a1 x the moments are sums of a1^-m (s^-n - t^-n), and
    t - s = 2 a1/(s + t) cancels every power of a1.  For
    c = k^3/(3 pi (s + t)^3 s t) and q = s/t + t/s: rho_par = 8 c,
    rho_perp = c (q^2 + 3 q - 2), rho_gamma = -2 c (a1/(s t)) (q + 3).
    (s + t)^2 = 2 (a0 + s t) and s t = sqrt((a0 - a1)(a0 + a1)) make
    s t = a0 and q = 2 at a1 = 0, so rho_perp == rho_par there, and
    0.0 - x (not -x) keeps rho_gamma at +0.0.

    Overflow rule: the expressions run on A = a0 4^-j and B = a1 4^-j,
    A in [0.5, 2), and on the mantissas of k_L and a1; each entry takes
    its power of two back in one ldexp.  So no intermediate overflows or
    loses bits as a subnormal where its unscaled value would: the
    denominator d = 3 pi (s + t) 2 (a0 + s t) s t above a0 of about
    4e122, k_L^3, c, or a1/(s t).  Where every unscaled intermediate is
    normal, the entries have its bits.  Raises OutsideDomain where an
    entry overflows or d is subnormal (a0 below about 1.5e-124 at
    a1 = 0).
    """
    _check_domain(a0, a1, k_L)
    j = math.frexp(a0)[1] // 2
    A, B = math.ldexp(a0, -2 * j), math.ldexp(a1, -2 * j)
    K, n = math.frexp(k_L)
    m1, e1 = math.frexp(a1)
    s, t = math.sqrt(A - B), math.sqrt(A + B)
    st = math.sqrt((A - B) * (A + B))
    q = s / t + t / s
    d = 3.0 * math.pi * (s + t) * (2.0 * (A + st)) * st
    if math.frexp(d)[1] + 5 * j <= -1022:  # the unscaled d 2^(5 j) < 2^-1022
        raise OutsideDomain(f"subnormal denominator at a0={a0}, a1={a1}")
    c, e = K * K * K / d, 3 * n - 5 * j
    try:
        return ShortPropagatorCoeffs(
            math.ldexp(8.0 * c, e), math.ldexp(c * (q * (q + 3.0) - 2.0), e),
            0.0 - math.ldexp(2.0 * c * (m1 / st) * (q + 3.0), e + e1 - 2 * j))
    except OverflowError:
        raise OutsideDomain(f"triple overflows at a0={a0}, a1={a1}, "
                            f"k_L={k_L}") from None


@functools.cache
def _gauss_legendre(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights, once per n_points."""
    rule = np.polynomial.legendre.leggauss(n_points)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def short_propagator_quadrature(a0: float, a1: float, k_L: float,
                                n_points: int = 128) -> ShortPropagatorCoeffs:
    """Gauss-Legendre oracle for the triple: one rule in log u (see above).

    With wf = W e^(-1.5 h T) and x = y - b, y = (s t/a1) expm1(h T), it
    sums wf, wf y and wf y^2 and expands the integrands in them.  Every
    entry is within 1.6e-13 of the largest entry of a 50-digit mpmath
    triple on 0 <= a1 < a0 at 128 nodes (4.2e-13 at 257).  The rule is
    built once per n_points per process; n_points=128.0 raises TypeError.

    Overflow rule: the prefactor runs on k_L's mantissa, and for a0
    outside [2^-256, 2^256] the rule runs on A = a0 4^-j and B = a1 4^-j,
    as in the closed form; each entry takes its power of two back in one
    ldexp.  h, s t/a1 and b are ratios, so they keep their bits while B is
    normal.  Inside that range j = 0, since pow is not exact under the
    scaling (it moves about 6 in 10^4 of the a0 = 2.5 triples by an ulp),
    and no unscaled intermediate leaves the normal range there.  So the
    oracle no longer underflows at large a0; it raises OutsideDomain where
    an entry overflows, and no entry can be inf or NaN.
    """
    if n_points < 64:
        raise ValueError("n_points must be at least 64")
    _check_domain(a0, a1, k_L)
    T, W = _gauss_legendre(operator.index(n_points))
    j = 0 if 2.0**-256 <= a0 <= 2.0**256 else math.frexp(a0)[1] // 2
    A, B = math.ldexp(a0, -2 * j), math.ldexp(a1, -2 * j)
    K, n = math.frexp(k_L)
    st = math.sqrt(A - B) * math.sqrt(A + B)
    h = 0.5 * math.log1p(2.0 * B / (A - B))
    # Where st/B is 0/0 (a1 = 0) or overflows, the a1 -> 0 limit is exact.
    if B > st / sys.float_info.max:
        y = np.expm1(T * h)
        y *= st / B
        b, jac = B / (st + A), h / B
    else:
        y, b, jac = T, 0.0, 1.0 / A
    # One buffer: e^(-1.5 h T), then wf, then wf y; the same products and
    # dot sums as separate arrays, so the same bits.
    e = T * (-1.5 * h)
    np.exp(e, out=e)
    m0 = float(W.dot(e))
    e *= W
    m1 = float(e.dot(y))
    e *= y
    m2 = float(e.dot(y))
    wx, wxx = m1 - b * m0, m2 - b * (2.0 * m1 - b * m0)
    pref = K * K * K / (8.0 * math.pi) * (jac * st**-1.5)
    shift = 3 * n - 5 * j
    try:
        return ShortPropagatorCoeffs(
            math.ldexp(pref * 2.0 * (m0 - wxx), shift),
            math.ldexp(pref * (m0 + wxx), shift),
            math.ldexp(2.0 * pref * wx, shift))
    except OverflowError:
        raise OutsideDomain(f"triple overflows at a0={a0}, a1={a1}, "
                            f"k_L={k_L}") from None


def coordinate_free_short_propagator(coeffs: ShortPropagatorCoeffs,
                                     j_hat) -> np.ndarray:
    """Short-propagator matrix for an arbitrary spin direction.

    rho_perp*I - i*rho_gamma*[j]_x + (rho_par - rho_perp)*j j^T; the
    matrix rotates covariantly with j_hat.
    """
    j = np.asarray(j_hat, dtype=float)
    norm = np.linalg.norm(j)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"j_hat must be finite and nonzero, got {j_hat!r}")
    j = j / norm
    return (coeffs.rho_perp * np.eye(3, dtype=complex)
            - 1j * coeffs.rho_gamma * cross_matrix(j)
            + (coeffs.rho_par - coeffs.rho_perp) * np.outer(j, j))


def dipole_propagator(n_vec, k_L: float) -> np.ndarray:
    """Radiative part of the free-space dipole propagator at separation n.

    -(k^3/4pi) (e^{ikn}/kn) [ (1 + 3i/kn - 3/(kn)^2) nn^T
                              - (1 + i/kn - 1/(kn)^2) I ].

    The contact self-term (2/3) delta(n) I is NOT included here; it is
    returned separately by dipole_self_term() and must never be smeared
    onto a grid.
    """
    n_vec = np.asarray(n_vec, dtype=float)
    n = np.linalg.norm(n_vec)
    if n == 0:
        raise ZeroSeparation("radiative propagator undefined at zero separation")
    kn = k_L * n
    n_hat = n_vec / n
    trans = 1.0 + 3.0j / kn - 3.0 / kn**2
    lon = 1.0 + 1.0j / kn - 1.0 / kn**2
    return (-(k_L**3 / (4.0 * np.pi)) * np.exp(1j * kn) / kn
            * (trans * np.outer(n_hat, n_hat) - lon * np.eye(3)))


def dipole_self_term() -> float:
    """Coefficient of the delta(n)*I contact term of the dipole propagator."""
    return 2.0 / 3.0


@dataclass(frozen=True)
class GreensSum:
    """Truncated vacuum mode-sum Green's function (scalar medium).

    k_grid: (N,3) wavevectors; weights: (N,) quadrature weights;
    omega_L: carrier frequency.  The kernel is

        G(r,t|r',t') = Theta(t-t') * (-i/(2 omega_L)) *
            sum_k w_k f_k^*(r) f_k(r')
                  exp(i (omega_k^2 - omega_L^2)(t-t') / (2 omega_L))

    with f_k(r) = e^{i k.r} / (2 pi)^{3/2} and omega_k = |k| (c = 1).
    """

    k_grid: np.ndarray
    weights: np.ndarray
    omega_L: float

    def evaluate(self, r, t, r_prime, t_prime) -> complex:
        dt = t - t_prime
        if dt < 0:
            return 0.0 + 0.0j
        r = np.asarray(r, dtype=float)
        rp = np.asarray(r_prime, dtype=float)
        kdotr = self.k_grid @ r
        kdotrp = self.k_grid @ rp
        omega2 = np.sum(self.k_grid**2, axis=1)
        phase = np.exp(1j * (kdotrp - kdotr)
                       + 1j * (omega2 - self.omega_L**2) * dt
                       / (2.0 * self.omega_L))
        return complex(-1j / (2.0 * self.omega_L)
                       * np.sum(self.weights * phase) / (2.0 * np.pi)**3)


def symmetric_k_grid(n_per_axis: int, k_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Cubic k-grid symmetric under k -> -k with uniform weights."""
    axis = np.linspace(-k_max, k_max, n_per_axis)
    dk = axis[1] - axis[0]
    KX, KY, KZ = np.meshgrid(axis, axis, axis, indexing="ij")
    grid = np.stack([KX.ravel(), KY.ravel(), KZ.ravel()], axis=1)
    weights = np.full(grid.shape[0], dk**3)
    return grid, weights


def greens_reciprocity_residual(gsum: GreensSum, pairs) -> float:
    """Max deviation from G(r,t|r',t') = G(r',-t'|r,-t) over the pairs."""
    worst = 0.0
    for (r, t, rp, tp) in pairs:
        lhs = gsum.evaluate(r, t, rp, tp)
        rhs = gsum.evaluate(rp, -tp, r, -t)
        worst = max(worst, abs(lhs - rhs))
    return worst


@dataclass(frozen=True)
class LightDecayMatrix:
    """Decay coefficients of the light polarization (spin mean along x)."""

    Gamma_par: float
    Gamma_perp1: float
    Gamma_perp2: float
    Gamma_Gamma: float

    @property
    def matrix(self) -> np.ndarray:
        return np.array([
            [self.Gamma_par, 0.0, 0.0],
            [0.0, self.Gamma_perp1, 1j * self.Gamma_Gamma],
            [0.0, -1j * self.Gamma_Gamma, self.Gamma_perp2],
        ], dtype=complex)


def light_decay_matrix(coeffs: ShortPropagatorCoeffs, c0: float, c1: float,
                       J, J_sq: float | None = None) -> LightDecayMatrix:
    """Decay coefficients for mean spin J given in the x-aligned basis.

    J_sq optionally overrides the scalar J^2 appearing in the J^2 and
    J^4 = (J^2)^2 factors (quantum value for low spin).
    """
    Jx, Jy, Jz = (float(c) for c in np.asarray(J, dtype=float))
    jsq = Jx**2 + Jy**2 + Jz**2 if J_sq is None else float(J_sq)
    j4 = jsq**2
    rp, rt, rg = coeffs.rho_par, coeffs.rho_perp, coeffs.rho_gamma
    g_par = c0**2 * j4 * rp + c1**2 * rt * (Jz**2 + Jy**2)
    g_p1 = (c0**2 * j4 * rt + 2.0 * c0 * c1 * rg * jsq * Jx
            + c1**2 * (rp * Jz**2 + rt * Jx**2))
    g_p2 = (c0**2 * j4 * rt + 2.0 * c0 * c1 * rg * jsq * Jx
            + c1**2 * (rp * Jy**2 + rt * Jx**2))
    g_g = (rt * 2.0 * c1 * c0 * jsq * Jx - rp * 0.5 * c1**2 * Jx
           + rg * (c0**2 * jsq + c1**2 * Jx**2))
    return LightDecayMatrix(g_par, g_p1, g_p2, g_g)


def spin_decay_rates(coeffs: ShortPropagatorCoeffs, c1: float, beta: float,
                     D_intensity: float) -> tuple[float, float, float]:
    """Spin damping rates for x-polarized driving light.

    Uses the isotropic branch rho = rho_perp (valid when rho_gamma ~ 0
    and rho_par ~ rho_perp); the rate along the light polarization is
    twice the transverse rates: (2 Gamma_D, Gamma_D, Gamma_D).
    """
    gamma_d = beta**2 * c1**2 * coeffs.rho_perp * D_intensity
    return (2.0 * gamma_d, gamma_d, gamma_d)
