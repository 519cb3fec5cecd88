"""Independent reference values the benchmark checks the program against.

Nothing here calls atomlight: each reference is derived separately from
the formulas the program documents, so a defect in the program cannot
also hide in its reference.
"""

from __future__ import annotations

import mpmath
import numpy as np

REFERENCE_DIGITS = 50

# Polarization tensor xi[j, l] = delta_lx delta_jy - delta_jx delta_ly,
# with x -> 0 and y -> 1.
XI = np.array([[0.0, -1.0], [1.0, 0.0]])


def rho_gamma(a0: float, a1: float, k_L: float = 1.0) -> float:
    """rho_gamma = k^3/(4 pi) int_{-1}^{1} x (a0 + a1 x)^(-5/2) dx, exactly.

    With u = a0 + a1 x the integral is elementary,
        a1^-2 [ -2 u^(-1/2) + (2 a0 / 3) u^(-3/2) ] from a0 - a1 to a0 + a1,
    and is evaluated in mpmath at REFERENCE_DIGITS digits, which leaves
    more than 30 correct digits after the cancellation as a1 -> 0.
    """
    if a1 == 0.0:
        return 0.0
    with mpmath.workdps(REFERENCE_DIGITS):
        A0, A1 = mpmath.mpf(a0), mpmath.mpf(a1)

        def prim(u):
            return -2 / mpmath.sqrt(u) + (2 * A0 / 3) / u**mpmath.mpf(1.5)

        integral = (prim(A0 + A1) - prim(A0 - A1)) / A1**2
        return float(mpmath.mpf(k_L)**3 / (4 * mpmath.pi) * integral)


def rho_gamma_quad(a0: float, a1: float, k_L: float = 1.0) -> float:
    """The same moment by mpmath's adaptive quadrature (self-test cross-check)."""
    with mpmath.workdps(REFERENCE_DIGITS):
        val = mpmath.quad(lambda x: x * (a0 + a1 * x)**mpmath.mpf(-2.5),
                          [-1, 0, 1])
        return float(mpmath.mpf(k_L)**3 / (4 * mpmath.pi) * val)


# ---------------------------------------------------------------------------
# Dense references for the multimode operators.  Index order of the
# 8-index tensors is (m, j, m', j', n, l, n', l'): the operator keyed by
# ((m, j), (m', j')) has coefficient [(n, l), (n', l')].
# ---------------------------------------------------------------------------

def stokes_first_order_norm(W, k_L, beta, c1) -> float:
    W = np.asarray(W, dtype=complex)
    M = W.shape[0]
    I_M, I_2 = np.eye(M), np.eye(2)
    pref = 0.5 * k_L * c1 * beta
    t = pref * (np.einsum("mn,jl,MN,JL->mjMJnlNL", W.conj(), XI, I_M, I_2)
                + np.einsum("mn,jl,MN,JL->mjMJnlNL", I_M, I_2, W, XI))
    return float(np.linalg.norm(t))


def stokes_second_order_norms(W, Q, k_L, beta, c1, c0) -> dict:
    W = np.asarray(W, dtype=complex)
    M = W.shape[0]
    I_M, I_2 = np.eye(M), np.eye(2)
    pa = (0.5 * k_L * beta * c1)**2
    A = pa * np.einsum("mn,jl,MN,JL->mjMJnlNL", W.conj(), XI, W, XI)
    pb = 0.125 * (k_L * beta * c1)**2
    XX = XI @ XI
    B = pb * (np.einsum("mN,jL,Mn,Jl->mjMJNLnl", W.conj() @ W.conj(), XX,
                        I_M, I_2)
              + np.einsum("mn,jl,MN,JL->mjMJnlNL", I_M, I_2, W @ W, XX))
    pd = (0.5 * k_L * beta)**2
    Q = np.asarray(Q, dtype=float)
    D = pd * (c1**2 * np.einsum("nmMN,jl,JL->mjMJnlNL", Q[..., 0], XI, XI)
              + c0**2 * np.einsum("nmMN,jl,JL->mjMJnlNL", Q[..., 1], I_2, I_2))
    return {"S2_A": float(np.linalg.norm(A)), "S2_B": float(np.linalg.norm(B)),
            "S2_D": float(np.linalg.norm(D))}


def spin_first_order_norm(Psi, J, k_L, beta, c1, e_z=(0.0, 0.0, 1.0)) -> float:
    """|J1| = beta c1 k |J x e_z| |T| with T[(m,x),(m',y)] = -i/2 Psi[m,m']
    and T[(m',y),(m,x)] = i/2 conj(Psi[m,m'])."""
    direction = np.cross(np.asarray(J, dtype=float), np.asarray(e_z, dtype=float))
    t = np.sqrt(2.0) * 0.5 * np.linalg.norm(Psi)
    return float(abs(beta * c1 * k_L) * np.linalg.norm(direction) * t)


def spin_second_order_B_norm(P4, k_L, beta, c1) -> float:
    """Three disjoint polarization patterns with weights 2, -1, -1."""
    pref = 0.5 * (0.5 * beta * c1 * k_L)**2
    return float(abs(pref) * np.sqrt(6.0) * np.linalg.norm(P4))


def beyond_paraxial_light(Psi_o, rho_w, Jy, Jz, classical, quantum,
                          n_photons, k_L, beta, c1):
    e_ox, _, e_oz = (np.asarray(v, dtype=float) for v in classical)
    ex = np.array([np.asarray(t[0], dtype=float) for t in quantum])
    ez = np.array([np.asarray(t[2], dtype=float) for t in quantum])
    j_oz = Jy * e_oz[1] + Jz * e_oz[2]
    j_ox = Jy * e_ox[1] + Jz * e_ox[2]
    factor = np.outer(ex @ e_ox, j_oz) - np.outer(ez @ e_ox, j_ox)
    pref = k_L * beta * c1 * np.sqrt(n_photons / 2.0)
    weighted = rho_w * factor * np.asarray(Psi_o, dtype=complex)
    s = weighted.sum(axis=1)
    return pref * s.real, pref * s.imag


def beyond_paraxial_spin(Psi_r, X, P, J, classical, quantum,
                         n_photons, k_L, beta, c1):
    e_ox = np.asarray(classical[0], dtype=float)
    ey = np.array([np.asarray(t[1], dtype=float) for t in quantum])
    axes = np.cross(J, np.cross(e_ox, ey))
    pref = k_L * beta * c1 * np.sqrt(n_photons / 2.0)
    Psi_r = np.asarray(Psi_r, dtype=complex)
    weights = Psi_r.real * P - Psi_r.imag * X
    return pref * (weights @ axes)
