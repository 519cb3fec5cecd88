"""Tests for the point-scatterer Monte Carlo statistics."""

import importlib.util
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from atomlight import pointgas
from atomlight.errors import TooFewBatches, UnknownProfile
from atomlight.pointgas import (CorrelationEstimate, box_form_factor,
                                density_correlation, gaussian_form_factor,
                                sample_clouds, sampled_scattering_sums,
                                scattering_sums, spin_half_self_product,
                                stream_keys)


def spawned_generators(seed, n):
    """Philox generators of SeedSequence(seed).spawn(n): stream_keys' reference."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def reference_clouds(n_atoms, profile, size, rngs):
    """One generator call per stream, as each cloud was drawn on its own."""
    if profile == "box":
        return np.array([rng.uniform(-0.5 * size, 0.5 * size, (n_atoms, 3))
                         for rng in rngs])
    return np.array([rng.normal(0.0, size, (n_atoms, 3)) for rng in rngs])


def reference_sums(clouds, delta_k):
    """One 1-D complex exponential sum and one scalar np.abs per cloud."""
    dk = np.asarray(delta_k, dtype=float)
    return np.array([float(np.abs(np.sum(np.exp(1j * (pos @ dk))))**2)
                     for pos in clouds])


BLOCK = pointgas._BLOCK_ATOMS
# The fill method of each profile, and the fewest atoms per cloud that
# threads draw at the same time.
FILLS = {p: pointgas._fill_rule(1, p, 1.0)[0] for p in pointgas.PROFILES}
PARALLEL_ATOMS = {p: -(-pointgas._SERIAL_DRAWS[FILLS[p]] // 3)
                  for p in pointgas.PROFILES}
# Cloud sizes just below and at each profile's cut.
NEAR_CUTS = sorted({n for cut in PARALLEL_ATOMS.values()
                    for n in (cut - 1, cut)})
DELTA_KS = ([0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [1e3, -7.0, 250.0])


class TestSampling:
    def test_unknown_profile(self):
        with pytest.raises(UnknownProfile):
            sample_clouds(10, "ring", 1.0, stream_keys(0, 1))

    def test_box_bounds(self):
        pts = sample_clouds(1000, "box", 2.0, stream_keys(1, 1))[0]
        assert pts.shape == (1000, 3)
        assert np.max(np.abs(pts)) <= 1.0

    def test_reproducible(self):
        a = sample_clouds(50, "gaussian", 1.0, stream_keys(7, 1))
        b = sample_clouds(50, "gaussian", 1.0, stream_keys(7, 1))
        assert np.array_equal(a, b)

    def test_spawned_streams_differ(self):
        a, b = sample_clouds(50, "box", 1.0, stream_keys(3, 2))
        assert not np.array_equal(a, b)

    def test_spawn_reproducible(self):
        a = sample_clouds(10, "box", 1.0, stream_keys(9, 3))
        b = sample_clouds(10, "box", 1.0, stream_keys(9, 3))
        assert np.array_equal(a, b)


class TestBatchedAgainstReference:
    @pytest.mark.parametrize("profile", pointgas.PROFILES)
    @pytest.mark.parametrize("n_atoms, n_clouds", [
        (1, 1), (1, 16), (1, 1000), (2, 16), (2, 1000), (7, 1000),
        (100, 1), (100, 1000), (BLOCK - 1, 16), (BLOCK + 1, 1)])
    def test_bit_identical(self, profile, n_atoms, n_clouds):
        seed = n_atoms + n_clouds
        for size in (0.5, 1.7):
            ref = reference_clouds(n_atoms, profile, size,
                                   spawned_generators(seed, n_clouds))
            clouds = sample_clouds(n_atoms, profile, size,
                                   stream_keys(seed, n_clouds))
            assert np.array_equal(clouds, ref)
            for dk in DELTA_KS:
                ref_sums = reference_sums(ref, dk)
                sums = scattering_sums(clouds, dk)
                assert np.array_equal(sums, ref_sums)
                assert scattering_sums(clouds[0][None], dk)[0] == ref_sums[0]
                if n_clouds >= 16 and n_atoms >= 2:
                    est = CorrelationEstimate.from_sums(sums, n_atoms, dk)
                    assert est.raw_mean == float(np.mean(ref_sums))

    def test_more_threads_than_cores_same_bytes(self, monkeypatch):
        dk = [2.0, -1.0, 0.5]
        ref = reference_clouds(100, "gaussian", 1.3,
                               spawned_generators(5, 300))
        ref_sums = reference_sums(ref, dk)
        monkeypatch.setattr(pointgas, "_thread_count", lambda: 8)
        monkeypatch.setattr(pointgas, "_BLOCK_ATOMS", 250)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                clouds = sample_clouds(100, "gaussian", 1.3,
                                       stream_keys(5, 300))
                assert clouds.tobytes() == ref.tobytes()
                assert scattering_sums(clouds, dk).tobytes() \
                    == ref_sums.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_single_block_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(pointgas, "ThreadPoolExecutor", None)
        clouds = sample_clouds(100, "box", 1.0, stream_keys(2, 1))
        assert scattering_sums(clouds, [1.0, 0.0, 0.0]).shape == (1,)

    def test_ragged_clouds_rejected(self):
        keys = stream_keys(4, 16)
        clouds = [sample_clouds(10 + (i == 3), "box", 1.0, keys[i:i + 1])[0]
                  for i in range(len(keys))]
        with pytest.raises(ValueError):
            scattering_sums(clouds, [1.0, 0.0, 0.0])

    def test_list_of_clouds_accepted(self):
        clouds = sample_clouds(10, "box", 1.0, stream_keys(4, 16))
        assert np.array_equal(scattering_sums(list(clouds), [1.0, 0.0, 0.0]),
                              scattering_sums(clouds, [1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("size", [-1.0, 0.0, np.nan, np.inf])
    def test_size_outside_domain_rejected(self, size):
        for profile in pointgas.PROFILES:
            with pytest.raises(ValueError, match="size"):
                sample_clouds(10, profile, size, stream_keys(0, 2))


class TestSampledScatteringSums:
    # The shapes of TestBatchedAgainstReference, and 3000-atom clouds in
    # blocks of 21: 50 clouds end in a block of 8.
    @pytest.mark.parametrize("profile", pointgas.PROFILES)
    @pytest.mark.parametrize("n_atoms, n_clouds", [
        (1, 1), (1, 16), (1, 1000), (2, 16), (2, 1000), (7, 1000),
        (100, 1), (100, 1000), (3000, 50), (BLOCK - 1, 16), (BLOCK + 1, 1)])
    def test_bit_identical_to_batch(self, profile, n_atoms, n_clouds):
        keys = stream_keys(n_atoms + n_clouds, n_clouds)
        clouds = sample_clouds(n_atoms, profile, 1.7, keys)
        for dk in DELTA_KS:
            assert np.array_equal(
                sampled_scattering_sums(n_atoms, profile, 1.7, keys, dk),
                scattering_sums(clouds, dk))

    def test_more_threads_than_cores_same_bytes(self, monkeypatch):
        dk = [2.0, -1.0, 0.5]
        ref = reference_sums(
            reference_clouds(100, "gaussian", 1.3,
                             spawned_generators(5, 300)), dk)
        monkeypatch.setattr(pointgas, "_thread_count", lambda: 8)
        monkeypatch.setattr(pointgas, "_BLOCK_ATOMS", 250)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                sums = sampled_scattering_sums(100, "gaussian", 1.3,
                                               stream_keys(5, 300), dk)
                assert sums.tobytes() == ref.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_single_block_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(pointgas, "ThreadPoolExecutor", None)
        sums = sampled_scattering_sums(100, "box", 1.0, stream_keys(2, 16),
                                       [1.0, 0.0, 0.0])
        assert sums.shape == (16,)

    def test_one_philox_per_thread(self, monkeypatch):
        built = []
        philox_class = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(args)
            return philox_class(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        monkeypatch.setattr(pointgas, "_thread_count", lambda: 3)
        monkeypatch.setattr(pointgas, "_BLOCK_ATOMS", 250)
        sampled_scattering_sums(100, "box", 1.0, stream_keys(6, 300),
                                [1.0, 0.0, 0.0])
        assert 1 <= len(built) <= 3

    def test_density_correlation_of_sampled_clouds(self):
        keys = stream_keys(9, 40)
        dk = [3.0, 0.0, 1.0]
        for profile in pointgas.PROFILES:
            clouds = sample_clouds(50, profile, 0.8, keys)
            assert density_correlation(50, profile, 0.8, keys, dk) \
                == CorrelationEstimate.from_sums(scattering_sums(clouds, dk),
                                                 50, dk)
        with pytest.raises(TooFewBatches):
            density_correlation(50, "box", 1.0, keys[:15], dk)

    def test_arguments_checked(self):
        keys = stream_keys(0, 16)
        with pytest.raises(UnknownProfile):
            sampled_scattering_sums(10, "ring", 1.0, keys, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="size"):
            sampled_scattering_sums(10, "box", np.nan, keys, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="keys"):
            sampled_scattering_sums(10, "box", 1.0, keys[:, :1],
                                    [1.0, 0.0, 0.0])


class DrawWatch:
    """Stands in for np.random.Generator and watches the drawer's fills.

    Each fill records its thread and how many threads fill at once; with
    `meet` set, the first fill of each thread waits for `meet` threads
    to be filling.
    """

    def __init__(self, meet=None):
        self.generator = np.random.Generator
        self.lock = threading.Lock()
        self.filling = self.most = 0
        self.threads = set()
        self.barrier = meet and threading.Barrier(meet, timeout=10)
        self.met = threading.local()

    def __call__(self, bit_gen):
        gen = self.generator(bit_gen)
        watch = self

        class Fills:
            def random(self, out):
                watch.fill(gen.random, out)

            def standard_normal(self, out):
                watch.fill(gen.standard_normal, out)

        return Fills()

    def fill(self, method, out):
        with self.lock:
            self.filling += 1
            self.most = max(self.most, self.filling)
            self.threads.add(threading.get_ident())
        try:
            if self.barrier and not getattr(self.met, "done", False):
                self.met.done = True
                self.barrier.wait()
            time.sleep(0)
            method(out=out)
        finally:
            with self.lock:
                self.filling -= 1


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestDrawLock:
    """Small clouds are drawn by one thread at a time, with the same bits."""

    @pytest.mark.parametrize("n_atoms, profile", [
        (n, p) for n in (2, *NEAR_CUTS) for p in pointgas.PROFILES
        if n < PARALLEL_ATOMS[p]])
    def test_small_clouds_drawn_by_one_thread_at_a_time(
            self, monkeypatch, fast_switching, profile, n_atoms):
        monkeypatch.setattr(pointgas, "_thread_count", lambda: 4)
        monkeypatch.setattr(pointgas, "_BLOCK_ATOMS", 2 * n_atoms)
        keys = stream_keys(3, 64)
        for call in (lambda: sample_clouds(n_atoms, profile, 1.0, keys),
                     lambda: sampled_scattering_sums(n_atoms, profile, 1.0,
                                                     keys, [1.0, 0.0, 0.0])):
            watch = DrawWatch()
            monkeypatch.setattr(np.random, "Generator", watch)
            call()
            assert len(watch.threads) >= 2
            assert watch.most == 1

    @pytest.mark.parametrize("profile", pointgas.PROFILES)
    def test_larger_clouds_drawn_at_the_same_time(self, monkeypatch,
                                                  profile):
        n_atoms = PARALLEL_ATOMS[profile]
        monkeypatch.setattr(pointgas, "_thread_count", lambda: 2)
        monkeypatch.setattr(pointgas, "_BLOCK_ATOMS", 2 * n_atoms)
        keys = stream_keys(3, 16)
        for call in (
                lambda: sample_clouds(n_atoms, profile, 1.0, keys),
                lambda: sampled_scattering_sums(n_atoms, profile, 1.0,
                                                keys, [1.0, 0.0, 0.0])):
            # Under one lock the second thread never reaches the barrier.
            watch = DrawWatch(meet=2)
            monkeypatch.setattr(np.random, "Generator", watch)
            call()
            assert watch.most == 2

    def test_lock_per_profile(self):
        # Box clouds of 134 to 299 atoms draw under the lock; gaussian
        # clouds of as many atoms do not.
        for n_atoms, box, gaussian in [(2, True, True), (133, True, True),
                                       (134, True, False), (299, True, False),
                                       (300, False, False),
                                       (20000, False, False)]:
            for profile, locked in (("box", box), ("gaussian", gaussian)):
                lock = pointgas._draw_lock(n_atoms, FILLS[profile])
                assert (type(lock) is not nullcontext) == locked, \
                    (n_atoms, profile)

    def test_no_pointgas_run_shape_crosses_a_cut(self, monkeypatch):
        # Each shape of the pointgas-run benchmark is drawn the same way
        # under either profile's cut.
        path = Path(__file__).resolve().parents[1] / "perfbench" \
            / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        for n_atoms, _, profile, _ in workloads.SHAPES:
            sides = {3 * n_atoms < cut
                     for cut in pointgas._SERIAL_DRAWS.values()}
            assert len(sides) == 1, (n_atoms, profile)

    @pytest.mark.parametrize("profile", pointgas.PROFILES)
    @pytest.mark.parametrize("n_atoms", [
        7, *NEAR_CUTS, *sorted(3 * n for n in PARALLEL_ATOMS.values())])
    def test_same_bytes_for_1_2_and_8_threads(self, monkeypatch,
                                              fast_switching, profile,
                                              n_atoms):
        dk = [2.0, -1.0, 0.5]
        ref = reference_clouds(n_atoms, profile, 1.3,
                               spawned_generators(n_atoms, 40))
        ref_sums = reference_sums(ref, dk)
        keys = stream_keys(n_atoms, 40)
        monkeypatch.setattr(pointgas, "_BLOCK_ATOMS", 3 * n_atoms)
        for threads in (1, 2, 8):
            monkeypatch.setattr(pointgas, "_thread_count", lambda: threads)
            clouds = sample_clouds(n_atoms, profile, 1.3, keys)
            assert clouds.tobytes() == ref.tobytes(), threads
            sums = sampled_scattering_sums(n_atoms, profile, 1.3, keys, dk)
            assert sums.tobytes() == ref_sums.tobytes(), threads

    @pytest.mark.parametrize("fill", ["random", "standard_normal"])
    def test_int_list_state_draws_as_array_state(self, fill):
        keys = stream_keys(11, 20)
        clouds = np.empty((len(keys), 50, 3))
        pointgas._cloud_drawer(fill, 1.0, 0.0, nullcontext())(keys, clouds)
        for key, cloud in zip(keys, clouds):
            bit_gen = np.random.Philox(0)
            state = bit_gen.state
            state["state"]["key"] = key
            bit_gen.state = state
            want = np.empty((50, 3))
            getattr(np.random.Generator(bit_gen), fill)(out=want)
            assert cloud.tobytes() == want.tobytes()
            keyed = getattr(np.random.Generator(np.random.Philox(key=key)),
                            fill)
            assert cloud.tobytes() == keyed((50, 3)).tobytes()


class TestIntensities:
    """|amp|**2 equals one scalar np.abs(amp)**2 per amplitude, bit for bit."""

    @staticmethod
    def reference(amps):
        return np.array([np.abs(amp)**2 for amp in amps])

    def test_real_zero_tiny_and_huge_amplitudes(self):
        amps = np.array([0.0, -0.0, 3.0, -2.5, 1j, np.pi + np.e * 1j,
                         1e-160j, 1e-170 + 1e-170j, 5e-324, -1e-300,
                         2.0**40 - 3.0j, 1e150 + 1e150j, -1e152],
                        dtype=complex)
        assert pointgas._intensities(amps).tobytes() \
            == self.reference(amps).tobytes()
        assert pointgas._intensities(amps[:0]).shape == (0,)

    # The three shapes of the pointgas-run benchmark workload.
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("n_atoms, n_clouds, profile, delta_k", [
        (100, 16384, "box", (60.0, 0.0, 0.0)),
        (1000, 4096, "gaussian", (0.0, 0.0, 3.0)),
        (20000, 256, "box", (6.0, 0.0, 0.0))])
    def test_scattering_amplitudes(self, monkeypatch, seed, n_atoms,
                                   n_clouds, profile, delta_k):
        seen = []
        intensities = pointgas._intensities
        monkeypatch.setattr(pointgas, "_intensities",
                            lambda amps: seen.append(amps) or
                            intensities(amps))
        sums = sampled_scattering_sums(n_atoms, profile, 1.0,
                                       stream_keys(seed, n_clouds), delta_k)
        assert sums.tobytes() == self.reference(seen[0]).tobytes()


class TestStreamKeys:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 17, 5000])
    def test_keys_match_seed_sequence(self, seed, n):
        children = np.random.SeedSequence(seed).spawn(n)
        ref = np.array([c.generate_state(2, np.uint64) for c in children])
        keys = stream_keys(seed, n)
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, ref)

    def test_key_is_the_spawned_philox_key(self):
        keys = stream_keys(2**40 + 3, 3)
        for key, rng in zip(keys, spawned_generators(2**40 + 3, 3)):
            assert np.array_equal(rng.bit_generator.state["state"]["key"], key)

    @pytest.mark.parametrize("seed", [0, 1, 2, 12345, 2**40 + 3, 2**64 - 1])
    @pytest.mark.parametrize("profile", pointgas.PROFILES)
    def test_rows_match_spawned_streams(self, seed, profile):
        ref = reference_clouds(20, profile, 0.7, spawned_generators(seed, 64))
        assert np.array_equal(
            sample_clouds(20, profile, 0.7, stream_keys(seed, 64)), ref)

    def test_no_streams(self):
        assert stream_keys(3, 0).shape == (0, 2)
        assert sample_clouds(5, "box", 1.0, stream_keys(3, 0)).shape \
            == (0, 5, 3)

    @pytest.mark.parametrize("seed, n", [(-1, 4), (1, -1), (1.0, 4)])
    def test_bad_arguments_rejected(self, seed, n):
        with pytest.raises((ValueError, TypeError)):
            stream_keys(seed, n)

    @pytest.mark.parametrize("keys", [np.zeros(2, np.uint64),
                                      np.zeros((4, 3), np.uint64)])
    def test_key_shape_checked(self, keys):
        with pytest.raises(ValueError, match="keys"):
            sample_clouds(5, "box", 1.0, keys)


class TestScatteringSum:
    def test_forward_is_n_squared_exactly(self):
        for n in (1, 10, 100):
            pts = sample_clouds(n, "box", 1.0, stream_keys(n, 1))
            assert scattering_sums(pts, [0.0, 0.0, 0.0])[0] == float(n * n)

    def test_single_atom(self):
        pts = np.array([[0.3, -0.2, 0.9]])
        assert scattering_sums(pts[None], [5.0, 1.0, -2.0])[0] \
            == pytest.approx(1.0)

    def test_two_atoms_hand_value(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        dk = [0.0, 0.0, np.pi]
        # amplitudes 1 and e^{i pi/2} = i: |1 + i|^2 = 2
        assert scattering_sums(pts[None], dk)[0] \
            == pytest.approx(2.0, abs=1e-12)


class TestDensityCorrelation:
    def test_too_few_batches(self):
        with pytest.raises(TooFewBatches):
            density_correlation(10, "box", 1.0, stream_keys(0, 8),
                                [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("n_clouds", [0, 1, 15])
    def test_from_sums_too_few_batches(self, n_clouds):
        with pytest.raises(TooFewBatches):
            CorrelationEstimate.from_sums(np.full(n_clouds, 10.0), 10,
                                          [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("n_atoms", [-3, 0, 1])
    def test_from_sums_needs_a_pair_of_atoms(self, n_atoms):
        # The pair estimator divides by N^2 - N.
        with pytest.raises(ValueError, match="n_atoms"):
            CorrelationEstimate.from_sums(np.full(16, 1.0), n_atoms,
                                          [1.0, 0.0, 0.0])

    def test_one_atom_clouds_rejected(self):
        with pytest.raises(ValueError, match="n_atoms"):
            density_correlation(1, "box", 1.0, stream_keys(1, 16),
                                [1.0, 0.0, 0.0])

    def test_from_sums_of_the_batch_sums(self):
        keys = stream_keys(8, 16)
        clouds = sample_clouds(10, "gaussian", 1.0, keys)
        dk = [1.0, 2.0, 0.0]
        assert CorrelationEstimate.from_sums(scattering_sums(clouds, dk),
                                             10, dk) \
            == density_correlation(10, "gaussian", 1.0, keys, dk)

    def test_self_term_dominates_at_large_dk(self):
        # Beyond the form-factor support the mean reduces to the
        # self-term N, within 5 standard errors.
        n, n_clouds = 100, 64
        est = density_correlation(n, "box", 1.0, stream_keys(123, n_clouds),
                                  [80.0, 0.0, 0.0])
        assert abs(est.raw_mean - n) < 5.0 * est.raw_sem
        assert est.self_term == n

    def test_corrected_estimator_matches_form_factor(self):
        n, n_clouds = 200, 64
        size = 1.0
        dk = [3.0, 0.0, 0.0]
        est = density_correlation(n, "box", size, stream_keys(77, n_clouds),
                                  dk)
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
        # Hermitian, trace 3/4, and the antisymmetric part is (i/2) J_bar.
        J = [0.1, -0.2, 0.4]
        C = spin_half_self_product(J)
        assert np.max(np.abs(C - C.conj().T)) <= 1e-12
        assert abs(C.trace() - 0.75) <= 1e-12
        anti = (C - C.T) / 2.0
        recovered = np.array([anti[1, 2], anti[2, 0], anti[0, 1]]) / 0.5j
        assert np.max(np.abs(recovered - np.asarray(J))) <= 1e-12


def test_spin_correlation_self_test_is_gone():
    assert not hasattr(pointgas, "spin_correlation_check")
