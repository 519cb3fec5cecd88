"""Operator algebra for polarization observables on a truncated mode basis.

Light operators are quadratic forms sum a^dag M a over a basis indexed
by (transverse mode, polarization) at a common wavenumber.  The module
provides the Stokes operators and their su(2) algebra, the first and
second perturbative orders of the Stokes generator (in the coupling
beta), and the corresponding first and second order spin terms,
including the incoherent (spontaneous-emission) piece.

The ensemble enters through volume-integrated overlap weights

    W[m, n] = int d3r rho(r) Psi[m,n](r) ((0, Jy, Jz) . e_z(r)),

with Psi[m,n] = U_m^* U_n; in the paraxial frames used here the local
e_z projection is just Jz(r).

Basis index (m, j) -> 2 m + j with polarization j in (x, y) = (0, 1).
The coefficients of the generator orders are built as dense tensors
with index order (m, j, m', j', n, l, n', l'): the operator keyed by
((m, j), (m', j')) has coefficient [(n, l), (n', l')].  Their
polarization structure is the antisymmetric factor

    XI[j, l] = delta_lx delta_jy - delta_jx delta_ly = [[0, -1], [1, 0]],

the identity np.eye(2), and, in S2_B, the product XI @ XI = -I that
removes the inner polarization sum.

Each separable tensor a[m, n] b[j, l] c[m', n'] d[j', l'] is the
broadcast product of two (M, 2, M, 2) factors, a x b and c x d; S2_D
contracts its quartic weights with the polarization pairs in one
optimized einsum.

A Stokes field s_i(r) = Psi[m, m'](r) sigma_i[j, j'] / 2 is held as its
overlaps Psi alone, an (nx, ny, M, M) array.  `StokesField.integrate`
integrates Psi times each of the two nonzero polarization factors and
places the two (M, M) results in the (D, D) coefficient; the dense
(nx, ny, D, D) arrays s0..s3, half zeros, are built only when read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, MixedWavenumbers
from .modes import TransverseGrid, hermite_gauss_eval

POLS = ("x", "y")

XI = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class PolarizedModeBasis:
    """Basis of n_modes transverse modes times two polarizations at one k."""

    n_modes: int
    k: float

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    def index(self, m: int, pol: str) -> int:
        if pol not in POLS:
            raise ValueError(f"polarization must be x or y, got {pol}")
        if not 0 <= m < self.n_modes:
            raise ValueError(f"mode index {m} out of range")
        return 2 * m + POLS.index(pol)

    def labels(self):
        return [(m, pol) for m in range(self.n_modes) for pol in POLS]


@dataclass(frozen=True)
class QuadraticOperator:
    """Operator sum_{pq} coeff[p,q] a^dag_p a_q with Hermitian coeff."""

    basis: PolarizedModeBasis
    coeff: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeff, dtype=complex)
        object.__setattr__(self, "coeff", c)
        if c.shape != (self.basis.dim, self.basis.dim):
            raise ValueError("coefficient matrix does not match basis dim")

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.coeff - self.coeff.conj().T)) <= 1e-13)


def commutator(A: QuadraticOperator, B: QuadraticOperator) -> QuadraticOperator:
    """[a^dag M a, a^dag N a] = a^dag [M, N] a."""
    if A.basis != B.basis:
        raise BasisMismatch("commutator requires a common basis")
    M, N = A.coeff, B.coeff
    return QuadraticOperator(A.basis, M @ N - N @ M)


def stokes_mode_pair(basis: PolarizedModeBasis, m: int, m_prime: int):
    """Zeroth-order Stokes triple for the pair (m, x) and (m', y).

    s1 = (a^dag_mx a_mx - a^dag_m'y a_m'y)/2,
    s2 = (a^dag_mx a_m'y + a^dag_m'y a_mx)/2,
    s3 = (a^dag_mx a_m'y - a^dag_m'y a_mx)/(2i).
    """
    px = basis.index(m, "x")
    py = basis.index(m_prime, "y")
    s1, s2, s3 = np.zeros((3, basis.dim, basis.dim), dtype=complex)
    s1[px, px], s1[py, py] = 0.5, -0.5
    s2[px, py] = s2[py, px] = 0.5
    s3[px, py], s3[py, px] = 0.5 / 1j, -0.5 / 1j
    return tuple(QuadraticOperator(basis, c) for c in (s1, s2, s3))


# (1, sigma_z, sigma_x, sigma_y) / 2: the polarization factor of each
# Stokes field, indexed [j, j'].  Each nonzero entry is +-1/2 or +-i/2, so
# its product with Psi is exact.
_STOKES_POL = dict(zip(("s0", "s1", "s2", "s3"), 0.5 * np.array(
    [np.eye(2), [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])))


def _dense(which: str) -> property:
    """The dense (nx, ny, dim, dim) field `which`, built on each read."""
    return property(lambda self: self._assemble(which, lambda block: block))


@dataclass(frozen=True)
class StokesField:
    """Position-dependent Stokes operators on a detector-plane grid.

    Holds the mode overlaps Psi[x, y, m, m'] = U_m^* U_m' of shape
    (nx, ny, M, M).  The Stokes field s_i at a grid point is the
    quadratic-operator coefficient Psi[m, m'] sigma_i[j, j'] / 2 over
    the (mode, polarization) basis; half of its (j, j') blocks are zero.
    The properties s0..s3 build it as a dense (nx, ny, dim, dim) array
    when read; `integrate` never builds it.
    """

    basis: PolarizedModeBasis
    grid: TransverseGrid
    Psi: np.ndarray

    def _assemble(self, which: str, reduce) -> np.ndarray:
        """Field `which` with its nonzero (j, j') blocks passed through reduce.

        The two nonzero blocks Psi * sigma_i[j, j'] / 2 are stacked on an
        axis of their own, (nx, ny, 2, M, M), and reduce maps that array
        to (..., 2, M, M); the zero blocks stay zero.  The stacked axis
        keeps a grid sum in numpy's sequential order, as on the dense
        field, even at M = 1.
        """
        pol = _STOKES_POL[which]
        j, J = np.nonzero(pol)
        blocks = reduce(self.Psi[..., None, :, :] * pol[j, J, None, None])
        lead = blocks.shape[:-3]
        M, dim = self.basis.n_modes, self.basis.dim
        out = np.zeros(lead + (M, 2, M, 2), dtype=complex)
        # out indexed [..., j, j', m, m']
        np.moveaxis(out, (-3, -1), (-4, -3))[..., j, J, :, :] = blocks
        return out.reshape(lead + (dim, dim))

    s0, s1, s2, s3 = map(_dense, _STOKES_POL)

    def integrate(self, which: str) -> QuadraticOperator:
        """Transverse integral int s_i(r_perp) d2r as a single operator."""
        coeff = self._assemble(which, self.grid.integrate)
        return QuadraticOperator(self.basis, coeff)


def stokes_field(basis: PolarizedModeBasis, modes, grid: TransverseGrid,
                 z: float = 0.0) -> StokesField:
    """Pointwise Stokes operators built from mode profiles at plane z.

    modes: list of HermiteGaussMode, one per transverse index of basis.
    Raises MixedWavenumbers unless every mode has k == basis.k.
    """
    if len(modes) != basis.n_modes:
        raise BasisMismatch("mode list length does not match basis")
    ks = sorted({md.k for md in modes} - {basis.k})
    if ks:
        raise MixedWavenumbers(
            f"modes at wavenumbers {ks} in a basis at k = {basis.k}")
    U = np.stack([hermite_gauss_eval(md, grid.X, grid.Y, z) for md in modes],
                 axis=-1)
    # einsum rounds each complex product U_m^* U_m' as written; a broadcast
    # product may fuse its multiply-adds and differ in the last bit.
    Psi = np.einsum("xym,xyM->xymM", U.conj(), U)
    return StokesField(basis=basis, grid=grid, Psi=Psi)


@dataclass(frozen=True)
class SpinTermResult:
    """Spin increment: 3-vector of quadratic-operator coefficient arrays."""

    basis: PolarizedModeBasis
    value: np.ndarray       # shape (3, dim, dim)
    order: int


def _kron(a, b, c, d) -> np.ndarray:
    """Dense tensor a[m, n] b[j, l] c[m', n'] d[j', l'] in module index order.

    The broadcast product of the (m, j, n, l) factor a x b and the
    (m', j', n', l') factor c x d.
    """
    ab = a[:, None, :, None] * b[None, :, None, :]
    cd = c[:, None, :, None] * d[None, :, None, :]
    return (ab[:, :, None, None, :, :, None, None]
            * cd[None, None, :, :, None, None, :, :])


def _operator_dict(basis: PolarizedModeBasis, T: np.ndarray) -> dict:
    """Key the dense tensor T, reshaped to (D, D, D, D), by ((m, j), (m', j'))."""
    T = T.reshape((basis.dim,) * 4)
    labels = list(enumerate(basis.labels()))
    return {(q, qp): QuadraticOperator(basis, T[p, pp])
            for (p, q), (pp, qp) in itertools.product(labels, repeat=2)}


def stokes_first_order(basis: PolarizedModeBasis, W: np.ndarray,
                       k_L: float, beta: float, c1: float) -> dict:
    """First-order Stokes-generator matrix elements.

    W[m, n] is the ensemble overlap weight defined in the module
    docstring.  Returns a dict mapping ((m, j), (m', j')) to the
    QuadraticOperator increment of K<f_q|S^(1)|f_q'>.
    """
    W = np.asarray(W, dtype=complex)
    I_M, I2 = np.eye(basis.n_modes), np.eye(2)
    pref = k_L * c1 * beta * 0.5
    T = pref * (_kron(W.conj(), XI, I_M, I2) + _kron(I_M, I2, W, XI))
    return _operator_dict(basis, T)


def stokes_second_order_terms(basis: PolarizedModeBasis, W: np.ndarray,
                              k_L: float, beta: float, c1: float,
                              c0: float = 0.0,
                              quartic_weights: np.ndarray | None = None) -> dict:
    """Labelled second-order Stokes-generator terms {S2_A, S2_B, S2_D}.

    S2_A and S2_B are separable in the overlap weights W (double volume
    integrals factorize).  S2_D needs the quartic mode weights
    Q[n, m, m', n', a] = int rho Psi[n,m]^* -like products; it is only
    evaluated when quartic_weights of shape (M, M, M, M, 2) is given,
    where the last axis holds the (Jz^2-weighted, J^4-weighted) volume
    integrals of Psi^{nm} Psi^{m'n'}.

    The S2_C term (spin response along e_z) has coefficients that vanish
    identically for polarization indices in {x, y}; see s2c_coefficient.
    """
    W = np.asarray(W, dtype=complex)
    Wc, I_M, I2 = W.conj(), np.eye(basis.n_modes), np.eye(2)
    A = (0.5 * k_L * beta * c1)**2 * _kron(Wc, XI, W, XI)
    # sum_l xi_jl xi_ll' = (XI @ XI)[j, l'] = -delta_jl'
    B = -0.125 * (k_L * beta * c1)**2 * (_kron(Wc @ Wc, I2, I_M, I2)
                                         + _kron(I_M, I2, W @ W, I2))
    out = {"S2_A": _operator_dict(basis, A),
           "S2_B": _operator_dict(basis, B)}
    if quartic_weights is not None:
        # (Jz^2, J^4) weights pair with (c1 xi_jl xi_j'l', c0 delta_jl delta_j'l')
        pol = np.array([c1 * XI, c0 * I2])
        Dt = (0.5 * k_L * beta)**2 * np.einsum("nmMNa,ajl,aJL->mjMJnlNL",
                                               quartic_weights, pol, pol,
                                               optimize=True)
        out["S2_D"] = _operator_dict(basis, Dt)
    return out


def s2c_coefficient(J_bar, j: str, l: str, lp: str, lpp: str,
                    frames=None) -> float:
    """Coefficient C^{l'l''}_{jl} = e_j . {(J x [e_l' x e_l'']) x e_l}.

    frames: optional dict mapping 'x','y' to polarization 3-vectors
    (defaults to the global Cartesian frame).  For indices restricted to
    {x, y} with orthonormal transverse frames the value is identically
    zero: e_l' x e_l'' is along e_z, J x e_z lies in the transverse
    plane, crossing with e_l gives a vector along e_z again, orthogonal
    to e_j.
    """
    if frames is None:
        frames = {"x": np.array([1.0, 0.0, 0.0]), "y": np.array([0.0, 1.0, 0.0])}
    J_bar = np.asarray(J_bar, dtype=float)
    inner = np.cross(frames[lp], frames[lpp])
    vec = np.cross(np.cross(J_bar, inner), frames[l])
    return float(frames[j] @ vec)


def spin_first_order(basis: PolarizedModeBasis, Psi_at_r: np.ndarray,
                     J_at_r, k_L: float, beta: float, c1: float,
                     e_z=(0.0, 0.0, 1.0)) -> SpinTermResult:
    """Local first-order spin increment at a point r.

    J^(1)(r) = -beta c1 k_L sum_{mm'} (J x e_z)
               { Re[Psi^{mm'}] s3^{mm'} + Im[Psi^{mm'}] s2^{mm'} }.
    The result is orthogonal to e_z(r) by construction.
    """
    Psi_at_r = np.asarray(Psi_at_r, dtype=complex)
    direction = np.cross(np.asarray(J_at_r, dtype=float),
                         np.asarray(e_z, dtype=float))
    # Re[Psi] s3 + Im[Psi] s2 summed over the pairs (m, x), (m', y).
    total = np.zeros((basis.n_modes, 2) * 2, dtype=complex)
    total[:, 0, :, 1] = -0.5j * Psi_at_r
    total[:, 1, :, 0] = 0.5j * Psi_at_r.conj().T
    total = total.reshape(basis.dim, basis.dim)
    value = -beta * c1 * k_L * direction[:, None, None] * total[None, :, :]
    return SpinTermResult(basis=basis, value=value, order=1)


def spin_second_order_A_single_mode(basis: PolarizedModeBasis,
                                    Psi_r: np.ndarray, Psi_rp: np.ndarray,
                                    J_at_r, Jz_local_rp: float, rho_rp: float,
                                    k_L: float, beta: float, c1: float,
                                    e_z=(0.0, 0.0, 1.0)) -> SpinTermResult:
    """Single-classical-mode reduction of the dipole-dipole spin term.

    Retains the Im[Psi^{mo}(r) Psi^{om}(r')] weights of the classical
    mode o = 0 summed over the intermediate mode m; vanishes identically
    when all Psi are real.
    """
    Psi_r = np.asarray(Psi_r, dtype=complex)
    Psi_rp = np.asarray(Psi_rp, dtype=complex)
    direction = np.cross(np.asarray(J_at_r, dtype=float),
                         np.asarray(e_z, dtype=float))
    # sum_m Im[Psi^{mo}(r) Psi^{om}(r')]
    weight = float(np.sum(np.imag(Psi_r[:, 0] * Psi_rp[0, :])))
    coeff = np.zeros((basis.dim, basis.dim), dtype=complex)
    p = [basis.index(0, pol) for pol in POLS]
    coeff[p, p] = 1.0
    pref = (0.5 * beta * c1 * k_L)**2 * rho_rp * Jz_local_rp * weight
    value = pref * direction[:, None, None] * coeff[None, :, :]
    return SpinTermResult(basis=basis, value=value, order=2)


def spin_second_order_B(basis: PolarizedModeBasis, Psi_products: np.ndarray,
                        J_bar, k_L: float, beta: float, c1: float,
                        e_z=(0.0, 0.0, 1.0)):
    """Quartic second-order spin rotation term.

    Psi_products[m, n, m', n'] = Psi^{mn} Psi^{m'n'} at the evaluation
    point (single common k).  Returns (direction, tensor) where
    direction = J - e_z (J . e_z) and tensor[p, q, r, s] multiplies
    a^dag_p a^dag_q a_r a_s with the structure
    { 2 a*_mx a*_m'y a_ny a_n'x - a*_my a*_m'y a_nx a_n'x
      - a*_mx a*_m'x a_ny a_n'y }.
    """
    P = np.asarray(Psi_products, dtype=complex)
    J_bar = np.asarray(J_bar, dtype=float)
    e_z = np.asarray(e_z, dtype=float)
    direction = J_bar - e_z * float(J_bar @ e_z)
    w = -0.5 * (0.5 * beta * c1 * k_L)**2 * P.transpose(0, 2, 1, 3)
    T = np.zeros((basis.n_modes, 2) * 4, dtype=complex)
    T[:, 0, :, 1, :, 1, :, 0] = 2.0 * w
    T[:, 1, :, 1, :, 0, :, 0] = -w
    T[:, 0, :, 0, :, 1, :, 1] = -w
    return direction, T.reshape((basis.dim,) * 4)


def spin_incoherent_rate(A_minus: np.ndarray, intensity: np.ndarray,
                         J_bar, c0: float, c1: float, beta: float,
                         J_sq: float | None = None) -> np.ndarray:
    """Mean spin rate from the incoherent second-order interaction.

    A_minus: 3x3 short-propagator matrix (coordinate-free assembly);
    intensity: Hermitian matrix I_ij = <D^-_i D^+_j> of the driving
    field; returns dJ/dt as a real 3-vector.  In the isotropic limit
    A ~ rho*Id the c0 c1 cross terms cancel and the rate reduces to
    -(beta^2 c1^2 rho / 2) [ Tr(I) J + I J + H.c. ], giving the 2:1:1
    anisotropy for linearly polarized light.
    """
    A = np.asarray(A_minus, dtype=complex)
    Ap = A.conj()
    I = np.asarray(intensity, dtype=complex)
    J = np.asarray(J_bar, dtype=float)
    jsq = float(J @ J) if J_sq is None else float(J_sq)

    IJ = I @ J
    cross = jsq * (A @ IJ - I @ (Ap.T @ J))
    diag = (Ap @ IJ - np.trace(I) * (A @ J) - np.trace(A) * IJ
            + I @ (A.T @ J))
    total = beta**2 * (c1 * c0 * cross + 0.5 * c1**2 * diag)
    total = total + np.conj(total)      # + H.c.
    return np.real(total)
