"""Tests for the effective interaction matrix and the dielectric response."""

import numpy as np
import pytest

from atomlight.errors import (NonDecomposable, SeriesDiverges,
                              UnphysicalMedium, ZeroDetuning)
from atomlight.medium import (InteractionCoefficients, MediumScalars,
                              PhysicalParams, SpinField, adiabatic_eliminate,
                              build_interaction_matrix, cross_matrix,
                              decompose_interaction, lorentz_lorenz,
                              lorentz_lorenz_series, mean_index_of_refraction)

RNG = np.random.default_rng(20260823)


def coeffs(beta=1.0, c0=0.0, c1=0.0, c2=0.0):
    return InteractionCoefficients(beta=beta, c0=c0, c1=c1, c2=c2)


class TestPhysicalParams:
    def test_beta_formula(self):
        p = PhysicalParams(gamma=3.0e7, delta=1.0e9, k_L=7.4e6)
        assert p.beta == pytest.approx(
            np.pi * 3.0e7 / (2.0 * 1.0e9 * 7.4e6**3), rel=1e-15)

    def test_invariants(self):
        with pytest.raises(ValueError):
            PhysicalParams(gamma=-1.0, delta=1.0, k_L=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(gamma=1.0, delta=0.0, k_L=1.0)

    @pytest.mark.parametrize("field, value", [
        ("gamma", float("nan")), ("k_L", float("nan")),
        ("delta", float("nan")), ("delta", float("inf")),
        ("delta", float("-inf"))])
    def test_non_finite_rejected(self, field, value):
        params = dict(gamma=1.0, delta=1.0, k_L=1.0)
        params[field] = value
        with pytest.raises(ValueError, match=field):
            PhysicalParams(**params)


class TestBuildInteraction:
    def test_scalar_only_spin_half(self):
        # c0=1 alone with the quantum J^2 = 3/4: pure scaled identity.
        V = build_interaction_matrix(coeffs(c0=1.0), [1.0, 0.0, 0.0], J_sq=0.75)
        assert np.allclose(V, 0.75 * np.eye(3), atol=1e-15)

    def test_vector_only_z(self):
        V = build_interaction_matrix(coeffs(c1=1.0), [0.0, 0.0, 1.0])
        expect = np.zeros((3, 3), dtype=complex)
        expect[0, 1] = 1j      # -i * [J]_x with Jz = 1: (0,1) entry -i*(-1)
        expect[1, 0] = -1j
        assert np.allclose(V, expect, atol=1e-15)

    def test_entrywise_against_direct_substitution(self):
        J = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        c = coeffs(beta=2.0, c0=1.0, c1=0.5, c2=0.2)
        V = build_interaction_matrix(c, J)
        jsq = float(J @ J)
        direct = 2.0 * ((1.0 - 0.2) * jsq * np.eye(3) + 0.2 * np.outer(J, J)
                        - 0.5j * cross_matrix(J))
        assert np.max(np.abs(V - direct)) < 1e-15

    def test_structure_split(self):
        # Antisymmetric part is exactly -i*c1*beta*[J]_x.
        J = RNG.normal(size=3)
        c = coeffs(beta=0.7, c0=0.3, c1=-0.8, c2=0.1)
        V = build_interaction_matrix(c, J)
        anti = (V - V.T) / 2.0
        assert np.max(np.abs(anti - (-1j * 0.7 * -0.8 * cross_matrix(J)))) \
            < 1e-14


class TestDecompose:
    def test_round_trip_property(self):
        for _ in range(1000):
            c0, c1, c2 = RNG.uniform(-1, 1, 3)
            J = RNG.normal(size=3)
            beta = float(RNG.uniform(0.1, 2.0))
            V = build_interaction_matrix(coeffs(beta, c0, c1, c2), J)
            r0, r1, r2 = decompose_interaction(V, J, beta)
            V2 = build_interaction_matrix(coeffs(beta, r0, r1, r2), J)
            assert np.max(np.abs(V2 - V)) <= 1e-12 * max(1.0, np.max(np.abs(V)))

    def test_trivial_round_trip(self):
        J = np.array([0.2, -0.4, 0.9])
        V = build_interaction_matrix(coeffs(c0=1.0), J)
        c0, c1, c2 = decompose_interaction(V, J, 1.0)
        assert (c0, c1, c2) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_known_coefficients(self):
        J = np.array([0.0, 1.0, 0.0])
        V = build_interaction_matrix(coeffs(1.0, 0.3, -0.7, 0.1), J)
        assert decompose_interaction(V, J, 1.0) == pytest.approx(
            (0.3, -0.7, 0.1), abs=1e-12)

    def test_rank_three_perturbation_rejected(self):
        J = np.array([0.0, 0.0, 1.0])
        V = build_interaction_matrix(coeffs(1.0, 0.3, 0.2, 0.1), J)
        V = V + 0.1 * np.array([[0.0, 1.0, 0.0],
                                [1.0, 0.0, 1.0],
                                [0.0, 1.0, 0.0]])
        with pytest.raises(NonDecomposable):
            decompose_interaction(V, J, 1.0)


class TestAdiabaticElimination:
    def test_single_two_level_pair(self):
        d = np.array([2.0, 0.0, 0.0])
        V = adiabatic_eliminate([(d, 5.0)])
        expect = np.zeros((3, 3))
        expect[0, 0] = 4.0 / 5.0
        assert np.allclose(V, expect, atol=1e-15)

    def test_two_states_hand_summed(self):
        d1 = np.array([1.0, 0.0, 0.0])
        d2 = np.array([0.0, 1.0, 0.0])
        V = adiabatic_eliminate([(d1, 2.0), (d2, -4.0)])
        hand = np.outer(d1, d1) / 2.0 + np.outer(d2, d2) / -4.0
        assert np.allclose(V, hand, atol=1e-15)

    def test_spin_half_gives_no_rank_two(self):
        # Spin-1/2 atom pumped into m=+1/2, coupled to an excited
        # doublet: pi amplitude 1/sqrt(3) and sigma amplitude
        # sqrt(2/3) from the angular-momentum coupling.  The fitted c2
        # vanishes: spin-1/2 supports no rank-two tensor.
        e_minus = np.array([1.0, -1.0j, 0.0]) / np.sqrt(2.0)
        elems = [(np.array([0.0, 0.0, -1.0]) / np.sqrt(3.0), 2.0),
                 (np.sqrt(2.0 / 3.0) * e_minus, 2.0)]
        V = adiabatic_eliminate(elems)
        assert np.max(np.abs(V - V.conj().T)) < 1e-15
        c0, c1, c2 = decompose_interaction(V, [0.0, 0.0, 0.5], 1.0, J_sq=0.75)
        assert abs(c2) < 1e-12
        assert abs(c1) > 0.1

    def test_positive_semidefinite_same_sign(self):
        elems = [(RNG.normal(size=3) + 1j * RNG.normal(size=3),
                  float(RNG.uniform(0.5, 3.0))) for _ in range(5)]
        V = adiabatic_eliminate(elems)
        assert np.min(np.linalg.eigvalsh(V)) > -1e-12

    def test_zero_detuning(self):
        with pytest.raises(ZeroDetuning):
            adiabatic_eliminate([(np.array([1.0, 0.0, 0.0]), 0.0)])


class TestLorentzLorenz:
    def test_vacuum(self):
        assert lorentz_lorenz(0.0) == 1.0

    def test_closed_form_value(self):
        assert lorentz_lorenz(0.3) == pytest.approx(0.75, abs=1e-15)

    def test_series_matches_closed_form(self):
        for V in (0.1, 0.3, 0.6):
            assert lorentz_lorenz_series(V, 30) == pytest.approx(
                lorentz_lorenz(V), abs=1e-12)

    def test_series_error_monotone(self):
        V = 0.5
        errs = [abs(lorentz_lorenz_series(V, n) - lorentz_lorenz(V))
                for n in range(1, 25)]
        assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))

    def test_diverges(self):
        with pytest.raises(SeriesDiverges):
            lorentz_lorenz_series(1.5, 10)

    def test_pole_unphysical(self):
        with pytest.raises(UnphysicalMedium):
            lorentz_lorenz(-1.5)

    def test_non_finite_unphysical(self):
        # 2V overflows above about 9e307, where 1 + 2V/3 is not finite.
        for V in (np.nan, np.inf, -np.inf, 1e308, -1e308):
            with pytest.raises(UnphysicalMedium):
                lorentz_lorenz(V)
        assert lorentz_lorenz(8e307) == pytest.approx(-0.5, rel=1e-15)


class TestMeanIndex:
    def test_values(self):
        assert mean_index_of_refraction(0.0) == 1.0
        assert mean_index_of_refraction(0.19) == pytest.approx(1.0 / 0.9,
                                                               rel=1e-12)
        assert mean_index_of_refraction(0.5) == pytest.approx(np.sqrt(2.0),
                                                              rel=1e-12)

    def test_unphysical(self):
        for V in (1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(UnphysicalMedium):
                mean_index_of_refraction(V)


class TestSpinFieldAndScalars:
    def test_j_hat(self):
        sf = SpinField(J=[0.0, 0.0, 2.0], rho=1.0)
        assert np.allclose(sf.j_hat, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("J", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0],
                                   [np.inf, 0.0, 0.0],
                                   [[0.0, 0.0, 1.0], [0.0, np.nan, 0.0]]])
    def test_j_hat_rejects_degenerate_spin(self, J):
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="j_hat"):
                SpinField(J=J, rho=1.0).j_hat

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            SpinField(J=[1.0, 0.0, 0.0], rho=-1.0)

    def test_scalars_from_fields(self):
        c = InteractionCoefficients(beta=0.01, c0=1.0, c1=0.5)
        sf = SpinField(J=[0.5, 0.0, 0.0], rho=10.0)
        ms = MediumScalars.from_fields(c, sf)
        assert ms.a0 == pytest.approx(1.0 - 0.01 * 10.0 * 1.0 * 0.25)
        assert ms.a1 == pytest.approx(0.01 * 10.0 * 0.5 * 0.5)

    def test_scalars_domain(self):
        for a0, a1 in ((0.3, 0.4), (np.nan, 0.0), (np.inf, 0.0),
                       (1.0, np.nan), (np.inf, np.inf)):
            with pytest.raises(ValueError):
                MediumScalars(a0=a0, a1=a1)


class TestRemovedSurface:
    def test_physical_params_has_no_omega_l(self):
        with pytest.raises(TypeError):
            PhysicalParams(gamma=1.0, delta=1.0, k_L=1.0, omega_L=1.0)

    def test_decompose_takes_no_tolerance(self):
        with pytest.raises(TypeError):
            decompose_interaction(np.eye(3), [0.0, 0.0, 0.5], 1.0, rtol=1.0)
