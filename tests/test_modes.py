"""Tests for dressed plane waves and the Hermite-Gauss paraxial basis."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from atomlight import modes
from atomlight.dynamics import collective_commutator_matrix
from atomlight.errors import DegenerateGeometry, MixedWavenumbers
from atomlight.modes import (MAX_ORDER, HermiteGaussMode, dressed_modes,
                             hermite_gauss_eval, make_grid, medium_matrix,
                             mode_values, overlap_field)

RNG = np.random.default_rng(7)


def random_unit():
    v = RNG.normal(size=3)
    return v / np.linalg.norm(v)


class TestDressedModes:
    def test_dispersion_property(self):
        for _ in range(1000):
            a0 = float(RNG.uniform(0.5, 2.0))
            a1 = float(RNG.uniform(0.0, 0.4 * a0))
            j_hat, k_hat = random_unit(), random_unit()
            if abs(np.cross(j_hat, k_hat)).max() < 1e-6:
                continue
            k = float(RNG.uniform(0.5, 3.0))
            plus, minus = dressed_modes(k_hat, j_hat, a0, a1, k=k)
            jk = float(j_hat @ k_hat)
            assert abs(plus.omega2 / k**2 - (a0 + a1 * jk)) < 1e-14
            assert abs(minus.omega2 / k**2 - (a0 - a1 * jk)) < 1e-14

    def test_isotropic_degeneracy(self):
        plus, minus = dressed_modes([0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                                    a0=1.3, a1=0.0)
        assert plus.omega2 == pytest.approx(minus.omega2, abs=0.0)
        assert plus.omega2 == pytest.approx(1.3, rel=1e-15)

    def test_transversality_and_orthonormality(self):
        a0, a1 = 1.0, 0.05
        j_hat = np.array([0.0, np.sqrt(3.0) / 2.0, 0.5])
        k_hat = np.array([0.0, 0.0, 1.0])
        plus, minus = dressed_modes(k_hat, j_hat, a0, a1)
        M = medium_matrix(a0, a1, j_hat)
        for br in (plus, minus):
            assert abs(br.polarization @ k_hat) < 1e-14
            assert abs(np.conj(br.polarization) @ M @ br.polarization
                       - 1.0) < 1e-12
        assert abs(np.conj(plus.polarization) @ M @ minus.polarization) \
            < 1e-12
        assert abs(plus.omega2 - (a0 + a1 * 0.5)) < 1e-14

    def test_normalization_on_random_tilted_directions(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            j_hat, k_hat = rng.normal(size=(2, 3))
            a0 = float(rng.uniform(0.5, 2.0))
            a1 = float(rng.uniform(0.0, 0.99 * a0))
            plus, minus = dressed_modes(k_hat, j_hat, a0, a1)
            M = medium_matrix(a0, a1, j_hat / np.linalg.norm(j_hat))
            for br in (plus, minus):
                assert abs(br.polarization @ br.k_hat) < 1e-14
                assert abs(np.conj(br.polarization) @ M @ br.polarization
                           - 1.0) < 1e-12
            assert abs(np.conj(plus.polarization) @ M
                       @ minus.polarization) < 1e-12

    def test_degenerate_geometry(self):
        with pytest.raises(DegenerateGeometry):
            dressed_modes([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], 1.0, 0.1)
        plus, _ = dressed_modes([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], 1.0, 0.1,
                                gauge=[1.0, 0.0, 0.0])
        assert abs(plus.omega2 - 1.1) < 1e-14

    def test_mode_norm_prefactor(self):
        plus, minus = dressed_modes([0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                                    a0=1.2, a1=0.1)
        assert plus.norm == pytest.approx(1.0 / np.sqrt(2.0 * 1.2), rel=1e-14)


class TestHermiteGauss:
    def test_peak_amplitude(self):
        mode = HermiteGaussMode(m=0, n=0, k=10.0, w0=1.0)
        val = hermite_gauss_eval(mode, 0.0, 0.0, 0.0)
        assert val == pytest.approx(np.sqrt(2.0 / np.pi), rel=1e-15)

    def test_parity_zero(self):
        mode = HermiteGaussMode(m=1, n=0, k=10.0, w0=1.0)
        for y, z in [(0.0, 0.0), (0.7, 2.0), (-1.2, 5.0)]:
            assert hermite_gauss_eval(mode, 0.0, y, z) == 0.0

    def test_rayleigh_range(self):
        mode = HermiteGaussMode(m=0, n=0, k=10.0, w0=0.5)
        lam = 2.0 * np.pi / 10.0
        assert mode.z0 == pytest.approx(np.pi * 0.25 / lam, rel=1e-15)

    def test_norm_along_z(self):
        mode = HermiteGaussMode(m=0, n=0, k=50.0, w0=1.0)
        for z in (0.0, mode.z0, 5.0 * mode.z0):
            grid = make_grid(mode.waist(z), extent_factor=6.0, n=256)
            norm = grid.integrate(np.abs(
                hermite_gauss_eval(mode, grid.X, grid.Y, z))**2)
            assert abs(norm - 1.0) < 1e-6

    def test_orthonormality(self):
        k, w0 = 200.0, 1.0
        modes = [HermiteGaussMode(m, n, k, w0)
                 for m in range(3) for n in range(3)]
        z = HermiteGaussMode(0, 0, k, w0).z0
        grid = make_grid(modes[0].waist(z), extent_factor=7.0, n=256)
        fields = [hermite_gauss_eval(md, grid.X, grid.Y, z) for md in modes]
        for a in range(len(modes)):
            for b in range(len(modes)):
                ov = grid.integrate(np.conj(fields[a]) * fields[b])
                assert abs(ov - (1.0 if a == b else 0.0)) < 1e-6


def bits(a):
    """The float64 bit patterns of a real or complex value or array."""
    return np.ascontiguousarray(a, dtype=np.result_type(a, float)) \
        .view(np.int64)


def mpmath_mode(mode, x, y, z):
    """U_mn at the float point (x, y, z) in 40-digit mpmath, unseparated."""
    with mpmath.workdps(40):
        m, n = mode.m, mode.n
        k, w0, x, y, z = (mpmath.mpf(v) for v in (mode.k, mode.w0, x, y, z))
        z0 = k * w0**2 / 2
        w = w0 * mpmath.sqrt(1 + (z / z0)**2)
        B = mpmath.sqrt(2 / (mpmath.pi * 2**(m + n) * mpmath.factorial(m)
                             * mpmath.factorial(n))) / w0
        rsq = x**2 + y**2
        phase = k * z - (m + n + 1) * mpmath.atan(z / z0)
        if z:
            phase += k * rsq / (2 * (z + z0**2 / z))
        amp = (B * (w0 / w) * mpmath.hermite(m, mpmath.sqrt(2) * x / w)
               * mpmath.hermite(n, mpmath.sqrt(2) * y / w)
               * mpmath.exp(-rsq / w**2))
        return complex(amp * mpmath.expj(phase))


class TestSeparableEvaluation:
    """hermite_gauss_eval takes each transverse axis on its own."""

    ORDERS = [(0, 0), (3, 5), (20, 0), (7, 13), (40, 0), (20, 20), (0, 40)]

    @pytest.mark.parametrize("k, w0", [(400.0, 1.0), (10.0, 1.0), (2.0, 3.0)])
    def test_matches_mpmath(self, k, w0):
        # Errors are relative to the largest |U| at the sampled points: near
        # a zero of H_m the pointwise relative error follows the conditioning
        # of H_m, not the evaluation (at the waist, up to 6.0e-13 at order
        # (7, 13) and 2.0e-13 at order 40 in these samples).
        # Above k z = 100 the float k z itself is off by up to half an ulp,
        # 7e-12 rad at k z = 8e4.
        rng = np.random.default_rng(int(k))
        for m, n in self.ORDERS:
            mode = HermiteGaussMode(m, n, k, w0)
            for z in (0.0, 0.7 * mode.z0, mode.z0):
                w = mode.waist(z)
                x, y = rng.uniform(-3.0 * w, 3.0 * w, size=(2, 32))
                got = hermite_gauss_eval(mode, x, y, z)
                want = np.array([mpmath_mode(mode, a, b, z)
                                 for a, b in zip(x, y)])
                tol = 1e-13 if k * z <= 100.0 else 2e-11
                assert np.max(np.abs(got - want)) \
                    <= tol * np.max(np.abs(want)), (m, n, z)

    @pytest.mark.parametrize("z_in_z0", [0.0, 0.7])
    def test_pointwise_broadcasting(self, z_in_z0):
        mode = HermiteGaussMode(7, 4, 60.0, 0.8)
        z = z_in_z0 * mode.z0
        x, y = RNG.uniform(-2.0, 2.0, size=(2, 33))
        got = hermite_gauss_eval(mode, x, y, z)
        want = np.array([hermite_gauss_eval(mode, a, b, z)
                         for a, b in zip(x, y)])
        assert got.shape == (33,)
        if z == 0.0:
            np.testing.assert_array_equal(bits(got), bits(want))
        else:
            # An array complex product may fuse multiply-adds; a scalar
            # one does not.
            np.testing.assert_allclose(got, want,
                                       rtol=4 * np.finfo(float).eps, atol=0)


TINY = np.finfo(float).tiny


class TestAxisRecurrence:
    """Each axis factor holds its relative accuracy out into the tail."""

    @pytest.mark.parametrize("order", range(MAX_ORDER + 1))
    def test_matches_mpmath(self, order):
        # Points run to 34 w, past 27.3 w, where the whole envelope
        # e^(-x^2/w^2) is below the smallest normal float.  Each value is
        # checked relative to itself, except inside the turning point
        # sqrt(order + 1/2) w, where H_order has its zeros and the rounding
        # of x moves U by more than U near a zero: there the scale adds
        # |U_(order-1)|, whose zeros interlace with those of U.
        rng = np.random.default_rng(order)
        mode = HermiteGaussMode(order, 0, 7.0, 1.3)
        for z in (0.0, 0.7 * mode.z0):
            w = mode.waist(z)
            x = np.concatenate([rng.uniform(-26.0 * w, 26.0 * w, 12),
                                np.linspace(26.0 * w, 34.0 * w, 9)])
            got = hermite_gauss_eval(mode, x, 0.0, z)
            want = np.array([mpmath_mode(mode, a, 0.0, z) for a in x])
            scale = np.abs(want)
            inside = np.abs(x) < math.sqrt(order + 0.5) * w
            if order:
                lower = HermiteGaussMode(order - 1, 0, mode.k, mode.w0)
                scale[inside] = np.hypot(scale[inside], [
                    abs(mpmath_mode(lower, a, 0.0, z)) for a in x[inside]])
            normal = np.abs(want) >= TINY
            err = np.abs(got - want)
            assert np.all(err[normal] <= 1e-12 * scale[normal]), \
                (z, x[normal][err[normal] > 1e-12 * scale[normal]])
            assert np.all(np.abs(got[~normal]) < TINY), z

    @pytest.mark.parametrize("z_in_z0", [0.0, 0.6])
    def test_gram_identity(self, z_in_z0):
        # U_m(x, 0) = u_m(x) u_0(0) with |u_0(0)|^2 = |U_00(0, 0)|, so the
        # x factors of the modes (m, 0) are orthonormal on a line.
        basis = [HermiteGaussMode(m, 0, 7.0, 1.3)
                 for m in range(MAX_ORDER + 1)]
        z = z_in_z0 * basis[0].z0
        w = basis[0].waist(z)
        x = np.linspace(-20.0 * w, 20.0 * w, 2001)
        U = mode_values(basis, x, 0.0, z)
        gram = (np.conj(U) * modes._trapezoid_weights(x)) @ U.T \
            / abs(hermite_gauss_eval(basis[0], 0.0, 0.0, z))
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-13


class TestWholeZRange:
    """Any finite z gives a finite value; any other z raises ValueError."""

    def test_huge_z_is_finite(self):
        # w = w0 * hypot(1, z/z0) = 2e200 and |U| = sqrt(2/pi)/w e^(-x^2/w^2).
        mode = HermiteGaussMode(0, 0, 1.0, 1.0)
        for x, envelope in [(0.0, 1.0), (1e200, math.exp(-0.25))]:
            got = hermite_gauss_eval(mode, x, 0.0, 1e200)
            assert abs(got) == pytest.approx(
                math.sqrt(2.0 / math.pi) / 2e200 * envelope, rel=1e-14)

    @pytest.mark.parametrize("k, w0, z", [
        (1.0, 1.0, np.inf), (1.0, 1.0, -np.inf), (1.0, 1.0, np.nan),
        (1e10, 1.0, 1e300), (1.0, 1e-100, 1e200)])
    def test_non_finite_phase_raises(self, k, w0, z):
        # The last two are finite z where k z, or z/z0 in the Gouy phase,
        # overflows to inf.
        with pytest.raises(ValueError, match="must be finite"):
            hermite_gauss_eval(HermiteGaussMode(0, 0, k, w0), 0.0, 0.0, z)

    @pytest.mark.parametrize("k, w0", [(5e-324, 1.0), (1.0, 1e-200),
                                       (1e300, 1e10)])
    def test_rayleigh_range_must_be_finite_and_positive(self, k, w0):
        with pytest.raises(ValueError, match="Rayleigh range"):
            HermiteGaussMode(0, 0, k, w0)


class TestFarTail:
    """Far out at high order the value is 0, not nan, and no warning."""

    @pytest.mark.parametrize("z", [0.0, 0.3])
    @pytest.mark.parametrize("x", [90.0, 200.0, -200.0, np.inf, -np.inf])
    def test_order_149_far_out_is_zero(self, x, z):
        mode = HermiteGaussMode(MAX_ORDER, 0, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hermite_gauss_eval(mode, x, 0.0, z) == 0.0
            assert hermite_gauss_eval(
                HermiteGaussMode(0, MAX_ORDER, 1.0, 1.0), 0.0, x, z) == 0.0

    @pytest.mark.parametrize("z", [0.0, 0.3])
    def test_grid_far_out_is_finite_without_warning(self, z):
        grid = make_grid(1.0, extent_factor=200.0, n=101)
        for m, n in [(MAX_ORDER, 0), (0, MAX_ORDER), (75, 74)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = hermite_gauss_eval(HermiteGaussMode(m, n, 1.0, 1.0),
                                         grid.X, grid.Y, z)
            assert np.isfinite(got).all(), (m, n)

    def test_nan_coordinate_stays_nan(self):
        mode = HermiteGaussMode(MAX_ORDER, 0, 1.0, 1.0)
        for z in (0.0, 0.3):
            assert np.isnan(hermite_gauss_eval(mode, np.nan, 0.0, z))
            assert np.isnan(hermite_gauss_eval(mode, 0.0, np.nan, z))


class TestHermiteGaussModeChecks:
    @pytest.mark.parametrize("m, n", [
        (1.5, 0), (0, 2.0), (np.float64(1.0), 0), (True, 0), (0, False),
        (-1, 0), (0, -2), ("1", 0), (None, 0)])
    def test_bad_index_rejected(self, m, n):
        with pytest.raises(ValueError, match="mode indices"):
            HermiteGaussMode(m, n, 10.0, 1.0)

    @pytest.mark.parametrize("k, w0", [
        (np.nan, 1.0), (10.0, np.nan), (np.inf, 1.0), (10.0, np.inf),
        (0.0, 1.0), (10.0, -1.0)])
    def test_bad_scale_rejected(self, k, w0):
        with pytest.raises(ValueError, match="w0 and k"):
            HermiteGaussMode(1, 0, k, w0)

    @pytest.mark.parametrize("m, n", [
        (0, MAX_ORDER + 1), (MAX_ORDER + 1, 0), (75, 75),
        (np.uint8(200), np.uint8(100)), (10**30, 0)])
    def test_order_above_max_rejected(self, m, n):
        with pytest.raises(ValueError, match="at most 149"):
            HermiteGaussMode(m, n, 10.0, 1.0)

    def test_numpy_integer_indices_accepted(self):
        grid = make_grid(1.0, n=16)
        mode = HermiteGaussMode(np.int64(2), np.uint8(1), 10.0, 1.0)
        np.testing.assert_array_equal(
            hermite_gauss_eval(mode, grid.X, grid.Y, 0.4),
            hermite_gauss_eval(HermiteGaussMode(2, 1, 10.0, 1.0),
                               grid.X, grid.Y, 0.4))


class TestOverlapField:
    def test_single_mode_nonnegative(self):
        basis = [HermiteGaussMode(0, 0, 100.0, 1.0)]
        grid = make_grid(1.0, n=64)
        of = overlap_field(basis, grid)
        assert np.all(np.abs(np.imag(of[0, 0])) < 1e-15)
        assert np.all(np.real(of[0, 0]) >= 0.0)

    def test_real_at_waist(self):
        basis = [HermiteGaussMode(0, 0, 100.0, 1.0),
                 HermiteGaussMode(1, 0, 100.0, 1.0)]
        grid = make_grid(1.0, n=64)
        of = overlap_field(basis, grid, z=0.0)
        assert np.max(np.abs(np.imag(of[0, 1]))) < 1e-14

    def test_hermitian_exact(self):
        basis = [HermiteGaussMode(m, 0, 100.0, 1.0) for m in range(3)]
        grid = make_grid(1.0, n=32)
        of = overlap_field(basis, grid, z=0.4)
        for m in range(3):
            for n in range(3):
                assert np.array_equal(of[m, n], np.conj(of[n, m]))

    def test_off_diagonal_integral_vanishes(self):
        k, w0 = 200.0, 1.0
        basis = [HermiteGaussMode(0, 0, k, w0), HermiteGaussMode(0, 1, k, w0)]
        z = 0.5 * basis[0].z0
        grid = make_grid(basis[0].waist(z), extent_factor=7.0, n=256)
        of = overlap_field(basis, grid, z=z)
        assert abs(grid.integrate(of[0, 1])) < 1e-6

    @pytest.mark.parametrize("build", [
        lambda basis, grid: overlap_field(basis, grid),
        lambda basis, grid: collective_commutator_matrix(basis, grid,
                                                         1.0, 1.0, 1.0),
    ], ids=["overlap_field", "collective_commutator_matrix"])
    def test_mixed_wavenumbers(self, build):
        basis = [HermiteGaussMode(0, 0, 100.0, 1.0),
                 HermiteGaussMode(0, 0, 120.0, 1.0)]
        with pytest.raises(MixedWavenumbers):
            build(basis, make_grid(1.0, n=32))

    @pytest.mark.parametrize("z_in_z0", [0.0, 1.0])
    def test_equals_per_pair_reference(self, z_in_z0):
        basis = [HermiteGaussMode(m, order - m, 100.0, 1.0)
                 for order in range(4) for m in range(order + 1)]
        z = z_in_z0 * basis[0].z0
        grid = make_grid(basis[0].waist(z), n=40)
        fields = [hermite_gauss_eval(mode, grid.X, grid.Y, z) for mode in basis]
        want = np.empty((len(basis),) * 2 + fields[0].shape, dtype=complex)
        for m in range(len(basis)):
            want[m, m] = np.abs(fields[m])**2
            for n in range(m + 1, len(basis)):
                want[m, n] = np.conj(fields[m]) * fields[n]
                want[n, m] = np.conj(want[m, n])
        got = overlap_field(basis, grid, z=z).Psi
        np.testing.assert_array_equal(bits(got), bits(want))


class TestModeValues:
    @pytest.mark.parametrize("z", [0.0, 0.37])
    def test_equals_per_mode_stack(self, z):
        basis = [HermiteGaussMode(m, order - m, 50.0, 0.8)
                 for order in range(5) for m in range(order + 1)]
        grid = make_grid(0.8, n=24)
        for x, y in [(grid.X, grid.Y), (0.31, -0.2)]:
            got = mode_values(basis, x, y, z)
            want = np.stack([hermite_gauss_eval(mode, x, y, z)
                             for mode in basis])
            assert got.shape == want.shape
            np.testing.assert_array_equal(bits(got), bits(want))


class TestGridQuadrature:
    @staticmethod
    def nested(grid, field):
        return np.trapezoid(np.trapezoid(field, grid.y, axis=1), grid.x, axis=0)

    @pytest.mark.parametrize("n", [2, 3, 64, 256])
    def test_integrate_matches_nested_trapezoid(self, n):
        grid = make_grid(0.7, n=n)
        rng = np.random.default_rng(n)
        gauss = np.exp(-((grid.X - 0.4)**2 + grid.Y**2)) * np.exp(0.3j * grid.X)
        noise = rng.normal(size=(n, n, 3, 3)) + 1j * rng.normal(size=(n, n, 3, 3))
        for field in (gauss, gauss.real, noise):
            got = grid.integrate(field)
            want = self.nested(grid, field)
            assert np.shape(got) == np.shape(want)
            assert type(got) is type(want)
            scale = self.nested(grid, np.abs(field))
            assert np.all(np.abs(got - want) <= 1e-15 * scale)

    def test_weights_sum_to_area(self):
        grid = make_grid(1.5, extent_factor=4.0, n=33)
        assert grid.weights.shape == (33, 33)
        assert grid.weights.sum() == pytest.approx(12.0**2, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 17, 128, 384, 1024])
    def test_weights_equal_identity_rule_bits(self, n):
        # The weights np.trapezoid gives each point of a unit-vector field.
        rng = np.random.default_rng(n)
        for x, y in ((np.linspace(-6.0, 6.0, n), np.linspace(-2.5, 2.5, n)),
                     (np.sort(rng.normal(size=n)), np.cumsum(rng.random(n)))):
            want = np.outer(np.trapezoid(np.eye(n), x, axis=0),
                            np.trapezoid(np.eye(n), y, axis=0))
            got = modes.TransverseGrid(x=x, y=y).weights
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_wrappers_read_only_by_tests_are_gone():
    for name in ("medium_inner", "completeness_kernel", "expand_function"):
        assert not hasattr(modes, name), name


class TestCompleteness:
    def test_gaussian_reconstruction(self):
        k, w0 = 200.0, 1.0
        basis = [HermiteGaussMode(m, n, k, w0)
                 for m in range(10) for n in range(10)]
        grid = make_grid(w0, extent_factor=6.0, n=128)
        f = np.exp(-((grid.X - 0.3)**2 + (grid.Y + 0.2)**2) / 0.8)
        f = f / np.sqrt(np.real(grid.integrate(np.abs(f)**2)))
        # c_n = int U_n^* f d2r, resummed over the truncated basis.
        U = mode_values(basis, grid.X, grid.Y)
        recon = np.tensordot(np.tensordot(np.conj(U) * grid.weights, f, 2),
                             U, 1)
        err = np.sqrt(np.real(grid.integrate(np.abs(recon - f)**2)))
        assert err < 1e-3


class TestGridAndExport:
    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            make_grid(1.0, n=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["w", "extent_factor"])
    def test_grid_scale_rejected(self, field, bad):
        args = {"w": 1.0, "extent_factor": 6.0, field: bad}
        with pytest.raises(ValueError, match="finite and positive"):
            make_grid(n=8, **args)
