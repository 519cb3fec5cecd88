"""Tests for Gaussian states, symplectic maps, and input-output dynamics."""

import numpy as np
import pytest

from atomlight import dynamics
from atomlight.dynamics import (GaussianState, LocalFrames, MemoryResult,
                                QuadratureOrdering, apply_collective_map,
                                beyond_paraxial_light_increments,
                                beyond_paraxial_spin_increment,
                                check_uniform_classical_mode,
                                collective_commutator_matrix,
                                collective_map_matrix, collective_mode_norm,
                                condition_on_quadrature, faraday_angle,
                                kappa_coupling, memory_protocol,
                                multimode_light_increments,
                                multimode_spin_increment, paraxial_mode_density,
                                paraxial_spin_map, paraxial_stokes_map,
                                spontaneous_spin_correction,
                                spontaneous_stokes_correction, symplectic_form,
                                symplectic_residual, validate_frame)
from atomlight.errors import FrameNotOrthonormal, NonUniformClassicalMode
from atomlight.modes import HermiteGaussMode, make_grid

RNG = np.random.default_rng(17)

ORD = QuadratureOrdering(n_light=1, n_atom=1)


class TestGaussianState:
    def test_vacuum_physical(self):
        vac = GaussianState.vacuum(ORD)
        assert vac.is_physical()
        assert np.min(vac.uncertainty_eigenvalues()) >= -1e-14

    def test_squeezed_below_heisenberg_rejected(self):
        bad = GaussianState(ORD, np.zeros(4), 0.1 * np.eye(4))
        assert not bad.is_physical()


class TestParaxialMaps:
    def test_stokes_map_matches_rotation_to_second_order(self):
        s = np.array([0.7, -0.2, 0.4])
        for phi in (1e-2, 1e-3):
            out = np.array(paraxial_stokes_map(tuple(s), phi))
            c, sn = np.cos(phi), np.sin(phi)
            exact = np.array([c * s[0] - sn * s[1],
                              sn * s[0] + c * s[1], s[2]])
            assert np.max(np.abs(out - exact)) < 2.0 * phi**3

    def test_s3_exactly_invariant(self):
        out = paraxial_stokes_map((0.3, 0.1, 0.55), 0.4)
        assert out[2] == 0.55

    def test_spin_map_jz_invariant_and_rotation(self):
        J = np.array([0.2, -0.1, 0.9])
        out = paraxial_spin_map(J, s3_sum=2.0, k_L=1.5, beta=0.01, c1=0.7)
        assert out[2] == J[2]
        # J' = J + J x Omega rotates by -phi about the beam axis.
        phi = -0.01 * 0.7 * 1.5 * 2.0
        exact = np.array([np.cos(phi) * J[0] - np.sin(phi) * J[1],
                          np.sin(phi) * J[0] + np.cos(phi) * J[1], J[2]])
        assert np.max(np.abs(out - exact)) < 2.0 * abs(phi)**3

    def test_faraday_angle(self):
        assert faraday_angle(2.0, 0.01, 0.5, 7.0) == pytest.approx(0.07)


class TestCollectiveMap:
    def test_symplectic_random_kappa(self):
        omega = symplectic_form(ORD)
        for _ in range(100):
            kappa = float(RNG.uniform(-3.0, 3.0))
            S = collective_map_matrix(ORD, kappa)
            assert np.max(np.abs(S @ omega @ S.T - omega)) < 1e-13
            assert symplectic_residual(S, ORD) <= 1e-12

    def test_symplectic_residual_is_the_largest_deviation(self):
        omega = symplectic_form(ORD)
        for scale in (0.0, 1e-13, 1e-11, 0.3):
            S = collective_map_matrix(ORD, 0.7) \
                + scale * RNG.normal(size=(4, 4))
            residual = symplectic_residual(S, ORD)
            assert residual == float(np.max(np.abs(S @ omega @ S.T - omega)))

    def test_vacuum_variance_growth(self):
        for kappa in (0.0, 0.5, 1.0, 2.0):
            out = apply_collective_map(GaussianState.vacuum(ORD), kappa)
            assert abs(out.variance(ORD.X_A(0)) - (0.5 + 0.5 * kappa**2)) \
                < 1e-14
            assert out.variance(ORD.P_A(0)) == 0.5
            assert out.variance(ORD.P_P(0)) == 0.5

    def test_mean_transfer(self):
        mean = np.zeros(4)
        mean[ORD.P_P(0)] = 0.7
        st = GaussianState(ORD, mean, 0.5 * np.eye(4))
        out = apply_collective_map(st, 1.3)
        assert out.mean[ORD.X_A(0)] == pytest.approx(1.3 * 0.7)

    @pytest.mark.parametrize("n_light, n_atom", [(1, 1), (2, 3), (4, 1)])
    def test_symplectic_form_matches_index_construction(self, n_light, n_atom):
        ordering = QuadratureOrdering(n_light=n_light, n_atom=n_atom)
        light, atom = np.arange(n_light), np.arange(n_atom)
        X = np.r_[ordering.X_P(light), ordering.X_A(atom)]
        P = np.r_[ordering.P_P(light), ordering.P_A(atom)]
        expect = np.zeros((ordering.dim, ordering.dim))
        expect[X, P], expect[P, X] = 1.0, -1.0
        omega = symplectic_form(ordering)
        assert omega.dtype == expect.dtype and omega.shape == expect.shape
        assert omega.tobytes() == expect.tobytes()


class TestConditioning:
    def test_measured_variance_collapses(self):
        st = apply_collective_map(GaussianState.vacuum(ORD), 1.0)
        cond = condition_on_quadrature(st, ORD.X_P(0), 0.3)
        assert abs(cond.cov[ORD.X_P(0), ORD.X_P(0)]) < 1e-15

    def test_conditional_atom_variance(self):
        # Var(P_A | X_P') = 1/(2(1+kappa^2)) from the Gaussian update.
        for kappa in (0.5, 1.0, 2.0):
            st = apply_collective_map(GaussianState.vacuum(ORD), kappa)
            cond = condition_on_quadrature(st, ORD.X_P(0), 0.0)
            expect = 0.5 / (1.0 + kappa**2)
            assert cond.cov[ORD.P_A(0), ORD.P_A(0)] == pytest.approx(
                expect, rel=1e-12)


class TestMemoryProtocol:
    def test_means_stored(self):
        # Coherent input (x0, p0) on the light: after the protocol with
        # gain = -1/kappa the atoms hold (kappa*p0, -x0/kappa).
        kappa, x0, p0 = 1.0, 0.4, -0.9
        mean = np.zeros(4)
        mean[ORD.X_P(0)] = x0
        mean[ORD.P_P(0)] = p0
        st = GaussianState(ORD, mean, 0.5 * np.eye(4))
        res = memory_protocol(st, kappa, gain=-1.0 / kappa, outcome=x0)
        assert res.outcome == x0
        assert res.state.mean[ORD.X_A(0)] == pytest.approx(kappa * p0)
        assert res.state.mean[ORD.P_A(0)] == pytest.approx(-x0 / kappa)

    def test_sampled_outcome_reproducible(self):
        st = GaussianState.vacuum(ORD)
        r1 = memory_protocol(st, 1.0, -1.0, rng=np.random.default_rng(5))
        r2 = memory_protocol(st, 1.0, -1.0, rng=np.random.default_rng(5))
        assert r1.outcome == r2.outcome
        assert isinstance(r1, MemoryResult)

    def test_covariance_outcome_independent(self):
        st = GaussianState.vacuum(ORD)
        c1 = memory_protocol(st, 1.0, -1.0, outcome=0.0).state.cov
        c2 = memory_protocol(st, 1.0, -1.0, outcome=5.0).state.cov
        assert np.array_equal(c1, c2)


class TestCollectiveConstruction:
    def test_uniformity_check(self):
        check_uniform_classical_mode([1.0, 0.995, 0.999])
        with pytest.raises(NonUniformClassicalMode):
            check_uniform_classical_mode([1.0, 0.9])

    def test_mode_norm(self):
        assert collective_mode_norm(4.0, 1.0, 1.0) == 2.0
        with pytest.raises(ValueError):
            collective_mode_norm(-1.0, 1.0, 1.0)

    def test_commutator_matrix_is_identity(self):
        k, w0 = 200.0, 1.0
        modes = [HermiteGaussMode(m, 0, k, w0) for m in range(3)]
        grid = make_grid(w0, extent_factor=7.0, n=192)
        C = collective_commutator_matrix(modes, grid, rho=2.0, J_x=0.5, L=3.0)
        assert np.max(np.abs(C - np.eye(3))) < 1e-6

    def test_kappa_formula(self):
        got = kappa_coupling(2.0, 0.01, 0.5, 3.0, 100.0, 4.0, 0.5, 2.0)
        assert got == pytest.approx(2.0 * 0.01 * 0.5 * 3.0
                                    * np.sqrt(100.0 * 4.0 * 0.5 * 2.0 / 2.0))

    def test_kappa_rejects_non_positive_inputs(self):
        # n_photons, rho, J_x and L, as collective_mode_norm checks them.
        for i in range(4, 8):
            for bad in (0.0, -1.0, np.nan):
                args = [2.0, 0.01, 0.5, 3.0, 100.0, 4.0, 0.5, 2.0]
                args[i] = bad
                with np.errstate(all="raise"), \
                        pytest.raises(ValueError, match="must be positive"):
                    kappa_coupling(*args)

    def test_kappa_rejects_non_finite_inputs_and_overflow(self):
        for i in range(4, 8):
            args = [2.0, 0.01, 0.5, 3.0, 100.0, 4.0, 0.5, 2.0]
            args[i] = np.inf
            with pytest.raises(ValueError, match="finite"):
                kappa_coupling(*args)
        with pytest.raises(ValueError, match="finite"):
            kappa_coupling(2.0, 0.01, 0.5, 3.0, 1e300, 1e300, 0.5, 2.0)
        with pytest.raises(ValueError, match="finite"):
            kappa_coupling(np.nan, 0.01, 0.5, 3.0, 100.0, 4.0, 0.5, 2.0)


class TestMultimodeIncrements:
    def test_light_kicks_split_re_im(self):
        W = np.array([1.0 + 2.0j, -0.5j])
        dX, dP = multimode_light_increments(W, 50.0, 2.0, 0.01, 0.8)
        pref = 2.0 * 0.01 * 0.8 * np.sqrt(25.0)
        assert np.allclose(dX, pref * np.array([1.0, 0.0]))
        assert np.allclose(dP, pref * np.array([2.0, -0.5]))

    def test_spin_kick_transverse(self):
        Psi = np.array([0.3 + 0.1j, -0.2j])
        dJ = multimode_spin_increment(Psi, np.array([1.0, 2.0]),
                                      np.array([0.5, -1.0]),
                                      [0.4, 0.1, 0.8], 50.0, 2.0, 0.01, 0.8)
        assert dJ[2] == 0.0
        assert np.linalg.norm(dJ) > 0.0


class TestSpontaneous:
    def test_mode_density_value(self):
        assert paraxial_mode_density(2.0) == pytest.approx(
            8.0 / (16.0 * np.pi**2))

    def test_stokes_damping(self):
        moments = {"Jx2": 0.25, "Jy2": 0.25, "Jz2": 0.25, "J4": 0.5625}
        s = (1.0, 0.5, 0.3, 0.2)
        out = spontaneous_stokes_correction(s, moments, c0=1.0, c1=0.8,
                                            beta=0.01, k_L=2.0,
                                            column_density=10.0)
        assert out[0] == s[0]
        # Jy2 == Jz2: no s0 -> s1 conversion; pure damping of s1.
        assert out[1] < s[1]
        assert out[2] < s[2]
        assert out[3] < s[3]
        # the s2 bracket exceeds the s3 bracket by 2*c1^2*Jz2*eta
        eta = 0.5 * 0.01**2 * 2.0 * paraxial_mode_density(2.0) * 10.0
        diff = (s[2] - out[2]) / s[2] - (s[3] - out[3]) / s[3]
        assert diff == pytest.approx(eta * 0.8**2 * 2.0 * 0.25, rel=1e-12)

    def test_spin_damping(self):
        J = np.array([0.5, 0.0, 0.3])
        stokes = (2.0, 0.0, 0.0, 0.0)
        out = spontaneous_spin_correction(J, stokes, c1=0.8, beta=0.01,
                                          k_L=2.0)
        g = 0.01**2 * 0.8**2 * 2.0 * paraxial_mode_density(2.0)
        assert out[0] == pytest.approx(J[0] * (1.0 - 2.0 * g))
        assert out[1] == 0.0
        assert out[2] == pytest.approx(J[2] * (1.0 - 2.0 * g))


GLOBAL_FRAMES = LocalFrames(
    classical=(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
               np.array([0.0, 0.0, 1.0])),
    quantum=((np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
              np.array([0.0, 0.0, 1.0])),
             (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
              np.array([0.0, 0.0, 1.0]))))


class TestBeyondParaxial:
    def test_frame_validation(self):
        validate_frame([1, 0, 0], [0, 1, 0], [0, 0, 1])
        with pytest.raises(FrameNotOrthonormal):
            validate_frame([1, 0, 0], [1, 0, 0], [0, 0, 1])
        with pytest.raises(FrameNotOrthonormal):
            # left-handed triad
            validate_frame([1, 0, 0], [0, 1, 0], [0, 0, -1])
        with pytest.raises(FrameNotOrthonormal):
            LocalFrames(classical=([2, 0, 0], [0, 1, 0], [0, 0, 1]),
                        quantum=())

    def test_reduces_to_multimode_light(self):
        npts = 40
        Psi = RNG.normal(size=(2, npts)) + 1j * RNG.normal(size=(2, npts))
        rho_w = RNG.uniform(0.5, 1.5, npts)
        Jy = RNG.normal(size=npts)
        Jz = RNG.normal(size=npts)
        dX, dP = beyond_paraxial_light_increments(
            Psi, rho_w, Jy, Jz, GLOBAL_FRAMES, 50.0, 2.0, 0.01, 0.8)
        W = np.array([np.sum(rho_w * Jz * Psi[m]) for m in range(2)])
        eX, eP = multimode_light_increments(W, 50.0, 2.0, 0.01, 0.8)
        assert np.max(np.abs(dX - eX)) < 1e-13
        assert np.max(np.abs(dP - eP)) < 1e-13

    def test_reduces_to_multimode_spin(self):
        Psi = np.array([0.3 + 0.2j, -0.1 + 0.5j])
        X = np.array([1.0, -0.5])
        P = np.array([0.2, 0.7])
        J = np.array([0.4, 0.1, 0.8])
        dJ = beyond_paraxial_spin_increment(Psi, X, P, J, GLOBAL_FRAMES,
                                            50.0, 2.0, 0.01, 0.8)
        eJ = multimode_spin_increment(Psi, X, P, J, 50.0, 2.0, 0.01, 0.8)
        assert np.max(np.abs(dJ - eJ)) < 1e-13


class TestFixedSettings:
    """Tolerances and the kappa map's modes are constants, not options."""

    @pytest.mark.parametrize("call, kwargs", [
        (GaussianState.vacuum(ORD).is_physical, {"tol": 1.0}),
        (lambda **kw: check_uniform_classical_mode([1.0, 0.5], **kw),
         {"tol": 1.0}),
        (lambda **kw: validate_frame([1, 0, 0], [0, 1, 0], [0, 0, 1], **kw),
         {"tol": 1.0}),
        (lambda **kw: collective_map_matrix(ORD, 0.5, **kw),
         {"light_mode": 0}),
        (lambda **kw: collective_map_matrix(ORD, 0.5, **kw),
         {"atom_mode": 0}),
        (lambda **kw: apply_collective_map(GaussianState.vacuum(ORD), 0.5,
                                           **kw), {"light_mode": 0}),
        (lambda **kw: apply_collective_map(GaussianState.vacuum(ORD), 0.5,
                                           **kw), {"atom_mode": 0}),
        (lambda **kw: symplectic_residual(np.eye(ORD.dim), ORD, **kw),
         {"tol": 1.0}),
    ])
    def test_removed_option_raises_type_error(self, call, kwargs):
        with pytest.raises(TypeError):
            call(**kwargs)

    def test_symplectic_wrapper_is_gone(self):
        # symplectic_residual is the check; no thresholded wrapper remains.
        assert not hasattr(dynamics, "is_symplectic")

    def test_memory_result_holds_state_and_outcome(self):
        res = memory_protocol(GaussianState.vacuum(ORD), 0.5, -2.0,
                              outcome=0.0)
        assert list(vars(res)) == ["state", "outcome"]
