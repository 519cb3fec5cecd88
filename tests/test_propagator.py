"""Tests for the short propagator, the dipole propagator, and decay rates."""

import math

import numpy as np
import pytest
from scipy.special import spherical_jn

from atomlight import propagator
from atomlight.errors import OutsideDomain, ZeroSeparation
from atomlight.medium import cross_matrix
from atomlight.propagator import (GreensSum, coordinate_free_short_propagator,
                                  dipole_propagator, dipole_self_term,
                                  greens_reciprocity_residual,
                                  light_decay_matrix, short_propagator_closed,
                                  short_propagator_quadrature, spin_decay_rates,
                                  symmetric_k_grid)

RNG = np.random.default_rng(11)


def rel_dev(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestShortPropagator:
    def test_closed_vs_quadrature(self):
        for a1 in np.linspace(0.05, 0.8, 8):
            for a0 in np.linspace(a1 + 0.1, a1 + 2.0, 8):
                closed = short_propagator_closed(a0, a1, 1.0)
                quad = short_propagator_quadrature(a0, a1, 1.0)
                for name in ("rho_par", "rho_perp", "rho_gamma"):
                    assert rel_dev(getattr(closed, name),
                                   getattr(quad, name)) < 1e-10, (a0, a1, name)

    def test_isotropic_limit(self):
        c = short_propagator_closed(1.0, 0.0, 1.0)
        assert abs(c.rho_par - 1.0 / (3.0 * np.pi)) < 1e-15
        assert c.rho_perp == c.rho_par
        assert c.rho_gamma == 0.0
        # scaling in a0 and k_L
        c2 = short_propagator_closed(2.0, 0.0, 3.0)
        assert c2.rho_par == pytest.approx(27.0 / (3.0 * np.pi) * 2.0**-2.5,
                                           rel=1e-14)

    def test_quadrature_isotropic(self):
        q = short_propagator_quadrature(1.0, 0.0, 1.0)
        assert abs(q.rho_par - 1.0 / (3.0 * np.pi)) < 1e-14
        assert abs(q.rho_gamma) < 1e-16

    def test_rho_gamma_monotone_from_zero(self):
        vals = [short_propagator_closed(1.5, a1, 1.0).rho_gamma
                for a1 in np.linspace(0.0, 1.0, 21)]
        assert vals[0] == 0.0
        diffs = np.diff(vals)
        assert np.all(diffs < 0.0) or np.all(diffs > 0.0)

    def test_outside_domain(self):
        with pytest.raises(OutsideDomain):
            short_propagator_closed(1.0, 1.0, 1.0)
        with pytest.raises(OutsideDomain):
            short_propagator_closed(1.0, -0.1, 1.0)

    @pytest.mark.parametrize("a0, a1", [(1.0, np.nan), (np.nan, 0.3),
                                        (np.nan, np.nan), (1.0, np.inf),
                                        (np.inf, 0.3), (np.inf, 0.0)])
    @pytest.mark.parametrize("coeffs", [short_propagator_closed,
                                        short_propagator_quadrature])
    def test_non_finite_outside_domain(self, coeffs, a0, a1):
        with pytest.raises(OutsideDomain):
            coeffs(a0, a1, 1.0)

    @pytest.mark.parametrize("k_L", [np.nan, np.inf, -np.inf, 0.0, -2.0,
                                     6e102, 1e103,
                                     pytest.param(10**200, id="10**200"),
                                     pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("coeffs", [short_propagator_closed,
                                        short_propagator_quadrature])
    def test_bad_wavenumber_outside_domain(self, coeffs, k_L):
        with pytest.raises(OutsideDomain):
            coeffs(1.0, 0.3, k_L)

    @pytest.mark.parametrize("a0", [pytest.param(10**400, id="10**400"),
                                    pytest.param(2**1024, id="2**1024")])
    @pytest.mark.parametrize("coeffs", [short_propagator_closed,
                                        short_propagator_quadrature])
    def test_int_a0_beyond_float_range_outside_domain(self, coeffs, a0):
        with pytest.raises(OutsideDomain):
            coeffs(a0, 0.3, 1.0)

    @pytest.mark.parametrize("coeffs", [short_propagator_closed,
                                        short_propagator_quadrature])
    def test_int_arguments_match_floats(self, coeffs):
        assert coeffs(2, 1, 3) == coeffs(2.0, 1.0, 3.0)

    @pytest.mark.parametrize("coeffs", [short_propagator_closed,
                                        short_propagator_quadrature])
    def test_tiny_wavenumber_inside_domain(self, coeffs):
        c = coeffs(1.0, 0.3, 1e-110)
        for v in (c.rho_par, c.rho_perp, c.rho_gamma):
            assert math.isfinite(v)

    def test_minimum_quadrature_points(self):
        with pytest.raises(ValueError):
            short_propagator_quadrature(1.0, 0.1, 1.0, n_points=32)

    def test_coordinate_free_assembly(self):
        c = short_propagator_closed(1.2, 0.4, 1.0)
        M = coordinate_free_short_propagator(c, [0.0, 0.0, 1.0])
        assert M[2, 2] == pytest.approx(c.rho_par, rel=1e-14)
        assert M[0, 0] == pytest.approx(c.rho_perp, rel=1e-14)
        assert M[0, 1] == pytest.approx(1j * c.rho_gamma, rel=1e-14)
        assert np.max(np.abs(M - M.conj().T)) < 1e-15

    @pytest.mark.parametrize("j_hat", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0],
                                       [np.inf, 0.0, 0.0]])
    def test_coordinate_free_rejects_degenerate_direction(self, j_hat):
        c = short_propagator_closed(1.2, 0.4, 1.0)
        with pytest.raises(ValueError, match="j_hat"):
            coordinate_free_short_propagator(c, j_hat)

    def test_coordinate_free_covariance(self):
        # Rotating j_hat conjugates the matrix by the same rotation.
        c = short_propagator_closed(1.1, 0.3, 1.0)
        theta = 0.7
        R = np.array([[np.cos(theta), 0.0, np.sin(theta)],
                      [0.0, 1.0, 0.0],
                      [-np.sin(theta), 0.0, np.cos(theta)]])
        j = np.array([0.0, 0.0, 1.0])
        M1 = coordinate_free_short_propagator(c, R @ j)
        M2 = R @ coordinate_free_short_propagator(c, j) @ R.T
        assert np.max(np.abs(M1 - M2)) < 1e-14


class TestGaussLegendreCache:
    @pytest.mark.parametrize("n_points", [64, 128, 257])
    def test_bit_identical_to_inline_rule(self, n_points):
        rule = np.polynomial.legendre.leggauss(n_points)
        for a0, a1 in ((1.0, 0.0), (1.0, 0.3), (2.5, 1.7), (1.0, 0.999)):
            expect = bits(*quadrature_reference(a0, a1, 1.7, rule))
            for _ in range(2):
                q = short_propagator_quadrature(a0, a1, 1.7, n_points)
                assert bits(q.rho_par, q.rho_perp, q.rho_gamma) == expect

    def test_cached_rule_is_read_only(self):
        short_propagator_quadrature(1.0, 0.3, 1.0)
        for arr in propagator._gauss_legendre(128):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_n_points_checks_hold_after_a_cached_call(self):
        q = short_propagator_quadrature(1.0, 0.3, 1.0, n_points=128)
        assert short_propagator_quadrature(
            1.0, 0.3, 1.0, n_points=np.int64(128)) == q
        with pytest.raises(TypeError):
            short_propagator_quadrature(1.0, 0.3, 1.0, n_points=128.0)
        with pytest.raises(ValueError):
            short_propagator_quadrature(1.0, 0.3, 1.0, n_points=32)


def closed_reference(a0, a1, k_L):
    """The closed form evaluated through numpy-scalar square roots."""
    s, t = np.sqrt(a0 - a1), np.sqrt(a0 + a1)
    st = np.sqrt((a0 - a1) * (a0 + a1))
    q = s / t + t / s
    c = k_L * k_L * k_L / (3.0 * np.pi * (s + t) * (2.0 * (a0 + st)) * st)
    return 8.0 * c, c * (q * (q + 3.0) - 2.0), \
        0.0 - 2.0 * c * (a1 / st) * (q + 3.0)


def quadrature_reference(a0, a1, k_L, rule):
    """The log-u rule in numpy scalars, with @ for the three sums."""
    T, W = rule
    a0, a1 = np.float64(a0), np.float64(a1)
    st = np.sqrt(a0 - a1) * np.sqrt(a0 + a1)
    # np.log1p and math.log1p can differ in the last bit.
    h = math.log1p(2.0 * a1 / (a0 - a1)) / 2.0
    if a1 > st / np.finfo(float).max:
        y, b, jac = np.expm1(T * h) * (st / a1), a1 / (st + a0), h / a1
    else:
        y, b, jac = T, 0.0, 1.0 / a0
    e = np.exp(T * (h * -1.5))
    m0, m1, m2 = W @ e, (W * e) @ y, (W * e * y) @ y
    sum_x, sum_xx = m1 - b * m0, m2 - b * (2.0 * m1 - b * m0)
    pref = k_L * k_L * k_L / (8.0 * np.pi) * (jac * st**-1.5)
    return (pref * 2.0 * (m0 - sum_xx), pref * (m0 + sum_xx),
            2.0 * pref * sum_x)


def bits(*values):
    return np.array(values, dtype=float).tobytes()


def edge_grid():
    """(a0, a1) over 0 <= a1 < a0, dense toward both edges."""
    fractions = np.concatenate([
        [0.0, 1e-7, 0.5, 1.0 - 1e-6], np.linspace(0.01, 0.99, 25),
        np.logspace(-7.0, -1.0, 25), 1.0 - np.logspace(-6.0, -1.0, 25)])
    return [(a0, a0 * e) for a0 in (1.0, 2.5, 1e-3, 7e4)
            for e in fractions.tolist()]


class TestAgainstNumpyScalarForms:
    """The Python-float closed form and quadrature give the same bits as
    their numpy-scalar forms."""

    @pytest.mark.parametrize("k_L", [1.0, 1.7])
    def test_closed_bit_identical(self, k_L):
        for a0, a1 in edge_grid():
            c = short_propagator_closed(a0, a1, k_L)
            assert bits(c.rho_par, c.rho_perp, c.rho_gamma) \
                == bits(*closed_reference(a0, a1, k_L)), (a0, a1)

    @pytest.mark.parametrize("n_points", [64, 128, 257])
    @pytest.mark.parametrize("k_L", [1.0, 1.7])
    def test_quadrature_bit_identical(self, k_L, n_points):
        rule = np.polynomial.legendre.leggauss(n_points)
        for a0, a1 in edge_grid():
            q = short_propagator_quadrature(a0, a1, k_L, n_points)
            assert bits(q.rho_par, q.rho_perp, q.rho_gamma) \
                == bits(*quadrature_reference(a0, a1, k_L, rule)), (a0, a1)


def separate_array_quadrature(a0, a1, k_L, rule):
    """The oracle as it was written with an array per product: exp, W e,
    W e y, each summed by np.dot, and k_L and a0 used unscaled."""
    T, W = rule
    st = math.sqrt(a0 - a1) * math.sqrt(a0 + a1)
    h = 0.5 * math.log1p(2.0 * a1 / (a0 - a1))
    y, b, jac = ((st / a1) * np.expm1(T * h), a1 / (st + a0), h / a1) \
        if a1 > st / np.finfo(float).max else (T, 0.0, 1.0 / a0)
    e = np.exp(T * (-1.5 * h))
    wf = W * e
    m0, m1, m2 = (float(np.dot(W, e)), float(np.dot(wf, y)),
                  float(np.dot(wf * y, y)))
    wx, wxx = m1 - b * m0, m2 - b * (2.0 * m1 - b * m0)
    pref = k_L * k_L * k_L / (8.0 * math.pi) * (jac * st**-1.5)
    return (pref * 2.0 * (m0 - wxx), pref * (m0 + wxx), 2.0 * pref * wx)


class TestOneBufferOracle:
    @pytest.mark.parametrize("a0", [1.0, 2.5, 1e-8, 1e8])
    def test_bit_identical_to_separate_arrays(self, a0):
        rule = np.polynomial.legendre.leggauss(128)
        rng = np.random.default_rng(27)
        edges = [0.0, 5e-324, 1e-300, math.nextafter(a0, 0.0)]
        for a1 in edges + (a0 * rng.random(10_000)).tolist():
            q = short_propagator_quadrature(a0, a1, 1.0)
            assert bits(*q) == bits(*separate_array_quadrature(
                a0, a1, 1.0, rule)), (a0, a1)

    @pytest.mark.parametrize("a0", [1e130, 1e160, 1e200])
    def test_large_a0_entries_match_closed_form(self, a0):
        # jac * (s t)**-1.5 alone is below 1e-325 here, so the unscaled
        # prefactor underflowed to 0.
        c = short_propagator_closed(a0, 0.3 * a0, 1e100)
        q = short_propagator_quadrature(a0, 0.3 * a0, 1e100)
        for name, g, x in zip(q._fields, q, c):
            assert abs(g - x) <= 1e-13 * abs(x), (name, g, x)


def dipole_propagator_kspace(n_vec, k_L: float, k_max: float = 400.0,
                             n_radial: int = 400_000) -> np.ndarray:
    """Independent k-space route to the radiative dipole propagator.

    Evaluates  int d^3k/(2pi)^3 (I - khat khat) k^2 e^{ik.n} /
    (k^2 - k_L^2 - i eta)  for n != 0.  The angular integral is done
    analytically,

        int dOmega (I - khat khat) e^{ik.n} =
            4 pi [ (2 j0(kn) - j2(kn))/3 * I + j2(kn) * nhat nhat^T ],

    and the radial weight is split as k^4/(k^2-k_L^2) = (k^2 + k_L^2)
    + k_L^4/(k^2-k_L^2).  The polynomial part is evaluated with its
    Abel-regularized moments (int j0 = pi/2n, int k^2 j0 = 0,
    int j2 = pi/4n, int k^2 j2 = 3pi/2n^3); the remainder converges and
    is integrated as a principal value with the outgoing-wave residue
    +i pi g(k_L)/(2 k_L) added.
    """
    n_vec = np.asarray(n_vec, dtype=float)
    n = np.linalg.norm(n_vec)
    if n == 0:
        raise ZeroSeparation("k-space oracle undefined at zero separation")
    n_hat = n_vec / n

    k = np.linspace(0.0, k_max, n_radial)
    kn = k * n
    j0 = spherical_jn(0, kn)
    j2 = spherical_jn(2, kn)
    A = (2.0 * j0 - j2) / 3.0     # coefficient on I
    B = j2                        # coefficient on nhat nhat^T

    denom = k**2 - k_L**2
    knL = k_L * n
    gA = (2.0 * spherical_jn(0, knL) - spherical_jn(2, knL)) / 3.0
    gB = spherical_jn(2, knL)

    def pv_plus_residue(g, gL):
        reg = np.where(np.abs(denom) > 1e-300, (g - gL) / denom, 0.0)
        # second-order hole filling at the pole: derivative of g there
        i0 = np.argmin(np.abs(k - k_L))
        reg[i0] = (reg[i0 - 1] + reg[i0 + 1]) / 2.0
        pv = np.trapezoid(reg, k)
        # int_0^kmax dk/(k^2 - kL^2) (PV) = (1/2kL) ln((kmax-kL)/(kmax+kL))
        pv += gL / (2.0 * k_L) * np.log((k_max - k_L) / (k_max + k_L))
        return pv + 1j * np.pi * gL / (2.0 * k_L)

    pref = k_L**4 / (2.0 * np.pi**2)
    IA = pref * pv_plus_residue(A, gA)
    IB = pref * pv_plus_residue(B, gB)

    # Abel-regularized polynomial-part moments for n > 0.
    int_j0 = np.pi / (2.0 * n)          # int_0^inf j0(kn) dk
    int_k2_j2 = 3.0 * np.pi / (2.0 * n**3)
    int_j2 = np.pi / (4.0 * n)
    poly_j0 = k_L**2 * int_j0           # (k^2 + k_L^2) channel, j0 part
    poly_j2 = int_k2_j2 + k_L**2 * int_j2
    IA += (1.0 / (2.0 * np.pi**2)) * (2.0 * poly_j0 - poly_j2) / 3.0
    IB += (1.0 / (2.0 * np.pi**2)) * poly_j2
    return IA * np.eye(3) + IB * np.outer(n_hat, n_hat)


class TestDipolePropagator:
    def test_zero_separation(self):
        with pytest.raises(ZeroSeparation):
            dipole_propagator([0.0, 0.0, 0.0], 1.0)

    def test_self_term(self):
        assert dipole_self_term() == 2.0 / 3.0

    def test_symmetry_under_inversion(self):
        n = np.array([0.3, -0.2, 0.9])
        G1 = dipole_propagator(n, 2.0)
        G2 = dipole_propagator(-n, 2.0)
        assert np.max(np.abs(G1 - G2)) < 1e-15

    def test_far_field_transverse(self):
        # At kn >> 1 the propagator is transverse to n_hat to O(1/kn).
        n = np.array([0.0, 0.0, 50.0])
        G = dipole_propagator(n, 10.0)
        assert abs(G[2, 2]) < abs(G[0, 0]) / 100.0

    def test_kspace_oracle(self):
        for n_vec in ([0.0, 0.0, 5.0], [3.0, 4.0, 0.0]):
            k_L = 1.0
            direct = dipole_propagator(n_vec, k_L)
            oracle = dipole_propagator_kspace(n_vec, k_L, k_max=200.0,
                                              n_radial=200_000)
            scale = np.max(np.abs(direct))
            assert np.max(np.abs(direct - oracle)) / scale < 1e-4


class TestRemovedSurface:
    def test_kspace_oracle_lives_in_the_tests(self):
        # Its spherical_jn was the last scipy import of the runtime.
        assert not hasattr(propagator, "dipole_propagator_kspace")


class TestGreensSum:
    def test_reciprocity(self):
        grid, weights = symmetric_k_grid(9, 3.0)
        gsum = GreensSum(k_grid=grid, weights=weights, omega_L=2.0)
        pairs = [(RNG.normal(size=3), float(RNG.uniform(0.1, 1.0)),
                  RNG.normal(size=3), float(RNG.uniform(-1.0, 0.0)))
                 for _ in range(10)]
        assert greens_reciprocity_residual(gsum, pairs) < 1e-10

    def test_causality(self):
        grid, weights = symmetric_k_grid(5, 2.0)
        gsum = GreensSum(k_grid=grid, weights=weights, omega_L=1.0)
        assert gsum.evaluate([0, 0, 0], 0.0, [0, 0, 0], 1.0) == 0.0


class TestDecay:
    def test_light_decay_hermitian(self):
        c = short_propagator_closed(1.2, 0.3, 1.0)
        dm = light_decay_matrix(c, c0=1.0, c1=0.7, J=[0.5, 0.0, 0.0])
        M = dm.matrix
        assert np.max(np.abs(M - M.conj().T)) < 1e-15

    def test_light_decay_scalar_limit(self):
        # c1 = 0: decay is isotropic in the (y,z) block with Gamma from
        # the scalar channel only.
        c = short_propagator_closed(1.2, 0.3, 1.0)
        dm = light_decay_matrix(c, c0=1.0, c1=0.0, J=[0.5, 0.0, 0.0])
        jsq = 0.25
        assert dm.Gamma_par == pytest.approx(jsq**2 * c.rho_par, rel=1e-14)
        assert dm.Gamma_perp1 == dm.Gamma_perp2
        assert dm.Gamma_Gamma == pytest.approx(jsq * c.rho_gamma, rel=1e-14)

    def test_spin_decay_ratio(self):
        c = short_propagator_closed(1.0, 0.0, 1.0)
        gx, gy, gz = spin_decay_rates(c, c1=0.8, beta=0.01, D_intensity=2.0)
        assert gx == 2.0 * gy
        assert gy == gz
        assert gy == pytest.approx(0.01**2 * 0.64 * c.rho_perp * 2.0,
                                   rel=1e-14)
