"""Tests for the point-scatterer Monte Carlo statistics."""

import numpy as np
import pytest

from atomlight.errors import TooFewBatches, UnknownProfile
from atomlight.pointgas import (box_form_factor, density_correlation,
                                gaussian_form_factor,
                                make_rng, sample_cloud, scattering_sum,
                                spawn_rngs, spin_correlation_check,
                                spin_half_self_product)


class TestSampling:
    def test_unknown_profile(self):
        with pytest.raises(UnknownProfile):
            sample_cloud(10, "ring", 1.0, make_rng(0))

    def test_box_bounds(self):
        pts = sample_cloud(1000, "box", 2.0, make_rng(1))
        assert pts.shape == (1000, 3)
        assert np.max(np.abs(pts)) <= 1.0

    def test_reproducible(self):
        a = sample_cloud(50, "gaussian", 1.0, make_rng(7))
        b = sample_cloud(50, "gaussian", 1.0, make_rng(7))
        assert np.array_equal(a, b)

    def test_spawned_streams_differ(self):
        r1, r2 = spawn_rngs(3, 2)
        a = sample_cloud(50, "box", 1.0, r1)
        b = sample_cloud(50, "box", 1.0, r2)
        assert not np.array_equal(a, b)

    def test_spawn_reproducible(self):
        a = [sample_cloud(10, "box", 1.0, r) for r in spawn_rngs(9, 3)]
        b = [sample_cloud(10, "box", 1.0, r) for r in spawn_rngs(9, 3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestScatteringSum:
    def test_forward_is_n_squared_exactly(self):
        for n in (1, 10, 100):
            pts = sample_cloud(n, "box", 1.0, make_rng(n))
            assert scattering_sum(pts, [0.0, 0.0, 0.0]) == float(n * n)

    def test_single_atom(self):
        pts = np.array([[0.3, -0.2, 0.9]])
        assert scattering_sum(pts, [5.0, 1.0, -2.0]) == pytest.approx(1.0)

    def test_two_atoms_hand_value(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        dk = [0.0, 0.0, np.pi]
        # amplitudes 1 and e^{i pi/2} = i: |1 + i|^2 = 2
        assert scattering_sum(pts, dk) == pytest.approx(2.0, abs=1e-12)


class TestDensityCorrelation:
    def test_too_few_batches(self):
        clouds = [sample_cloud(10, "box", 1.0, r) for r in spawn_rngs(0, 8)]
        with pytest.raises(TooFewBatches):
            density_correlation(clouds, [1.0, 0.0, 0.0])

    def test_self_term_dominates_at_large_dk(self):
        # Beyond the form-factor support the mean reduces to the
        # self-term N, within 5 standard errors.
        n, n_clouds = 100, 64
        clouds = [sample_cloud(n, "box", 1.0, r)
                  for r in spawn_rngs(123, n_clouds)]
        est = density_correlation(clouds, [80.0, 0.0, 0.0])
        assert abs(est.raw_mean - n) < 5.0 * est.raw_sem
        assert est.self_term == n

    def test_corrected_estimator_matches_form_factor(self):
        n, n_clouds = 200, 64
        size = 1.0
        dk = [3.0, 0.0, 0.0]
        clouds = [sample_cloud(n, "box", size, r)
                  for r in spawn_rngs(77, n_clouds)]
        est = density_correlation(clouds, dk)
        expect = box_form_factor(dk, size)
        assert abs(est.corrected_mean - expect) < 5.0 * est.corrected_sem

    def test_gaussian_form_factor_value(self):
        assert gaussian_form_factor([2.0, 0.0, 0.0], 0.5) == pytest.approx(
            np.exp(-1.0))


class TestSpinProducts:
    def test_structure(self):
        J = [0.0, 0.0, 0.5]
        C = spin_half_self_product(J)
        assert C[0, 0] == 0.25
        assert C[0, 1] == pytest.approx(0.25j)   # (i/2) eps_xyz Jz
        assert C[1, 0] == pytest.approx(-0.25j)

    def test_consistency_check(self):
        res = spin_correlation_check([0.1, -0.2, 0.4])
        assert all(v <= 1e-12 for v in res.values())
