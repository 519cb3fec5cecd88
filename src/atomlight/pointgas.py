"""Monte Carlo statistics of a gas of pointlike scatterers.

The continuous-density description of the ensemble replaces sums over
atoms by integrals against rho(r).  This module samples actual atom
positions and checks the identities that justify that replacement: the
coherent scattering sum, the self-term (shot-noise) contribution to
density correlations, and the single-atom operator products of spin-1/2
scatterers.

Randomness uses the counter-based Philox bit generator seeded through
numpy's SeedSequence; independent clouds come from spawned child
sequences, so batches are reproducible and uncorrelated.  The Philox
keys of all children are derived in one array operation over the spawn
index, equal to those of SeedSequence(seed).spawn(n), without building
a SeedSequence or Philox object per stream.

Cloud i is filled from stream i alone, so the clouds can be drawn in
any order and by any thread: each thread reseats one Philox to the key
of each of its clouds.  Sampling and summing run over blocks of whole
clouds of about 2**16 atoms each, split over as many threads as the
host gives this process cores.  A block is drawn, then scaled and
shifted as a whole; its phases, cos and sin go into one complex buffer,
summed along the atom axis per cloud.  A cloud of few atoms costs more
Python (the reseat and the fill call) than drawing, so the threads of
one call draw such clouds one thread at a time, under one lock: the
other threads sum in numpy code that releases the GIL, rather than
pass the GIL back and forth at every cloud.  Larger clouds are drawn
on all threads at once.  Gaussian draws cost more, so the cut is lower
for them: box clouds of fewer than 300 atoms take the lock, gaussian
clouds of fewer than 134.  sample_clouds returns the whole (n_clouds,
n_atoms, 3) batch and scattering_sums sums a given batch;
sampled_scattering_sums draws and sums each block in buffers its
thread reuses, and never holds the batch.  Every thread writes its own
clouds, so the results do not depend on the thread count or on which
thread draws.  The threads run in copies of the caller's context, so
its np.errstate holds in them too.
density_correlation estimates from sampled_scattering_sums; a batch in
memory goes through CorrelationEstimate.from_sums(scattering_sums(...)).
"""

from __future__ import annotations

import contextvars
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded at import, not in the first call

from .errors import TooFewBatches, UnknownProfile

MIN_BATCHES = 16
# stream_keys puts the spawn index in one 32-bit entropy word.
MAX_STREAMS = 2**32

PROFILES = ("box", "gaussian")


# SeedSequence's hash (numpy/random/bit_generator.pyx, NEP 19): 32-bit
# words, a pool of four, and the multipliers of its two hash streams.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const: int, mult: int = _MULT_A):
    """One hashed word and the next hash constant.

    value is an int or a uint64 array of 32-bit words; products of two
    such words fit in 64 bits, so masking keeps uint32 arithmetic.
    """
    next_const = const * mult & _MASK32
    value = (value ^ const) * next_const & _MASK32
    return value ^ value >> 16, next_const


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def stream_keys(seed: int, n: int) -> np.ndarray:
    """Philox keys (n, 2) of the n streams spawned from one root seed.

    Row i equals SeedSequence(seed).spawn(n)[i].generate_state(2,
    np.uint64), the key Philox takes from child i, so a Philox with key
    row i and a zero counter draws what Philox(child i) draws.
    Only the last entropy word, the spawn index, differs between the
    children: the pool is mixed once and the spawn word over an array.
    """
    seed = operator.index(seed)
    if seed < 0 or not 0 <= n <= MAX_STREAMS:
        raise ValueError(
            f"need seed >= 0 and 0 <= n <= 2**32, got {seed}, {n}")
    words = [seed >> s & _MASK32
             for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    pool, const = [], _INIT_A
    for word in words[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in [*words[_POOL_SIZE:], np.arange(n, dtype=np.uint64)]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    state, const = [], _INIT_B
    for word in pool:
        value, const = _hashmix(word, const, _MULT_B)
        state.append(value)
    keys = np.empty((n, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << 32
    keys[:, 1] = state[2] | state[3] << 32
    return keys


# Atoms per block of whole clouds.  On a 2-core host, drawing and
# summing in blocks of 2**14 to 2**17 atoms took about the same time,
# in blocks of 2**12 atoms longer.
_BLOCK_ATOMS = 2**16
# Clouds of fewer draws (3 n_atoms) than the cut of their fill method
# are drawn by one thread at a time.  Time with the lock against time
# without it, on a 2-core host, for 2**14 * 100 atoms in all (paired
# medians of 15 runs):
#
#   atoms  draws   sampled_scattering_sums   sample_clouds
#                     box   gaussian          box  gaussian
#      50    150      -30%      -28%      -10%    -26%
#     100    300      -37%      -34%      -26%    -31%
#     133    399      -29%      -23%      -23%     -6%
#     134    402      -28%      -30%      -25%     +7%
#     200    600      -15%       +4%      -18%    +67%
#     400   1200       -3%       +5%      +17%    +70%
#     800   2400       -2%       +4%      +60%    +85%
#    1600   4800       +3%       +4%      +71%    +88%
#
# and, in a later set of runs, box clouds alone:
#
#   atoms  draws   sampled_scattering_sums   sample_clouds
#     134    402      -24%                    -26%
#     150    450      -31%                    -16%
#     175    525      -20%                    -17%
#     200    600      -30%                    -20%
#     225    675      -21%                    -19%
#     250    750      -32%                    -25%
#     275    825      -29%                     -5%
#     300    900       -9%                     -0%
#     325    975      -15%                    -13%
#     350   1050      -24%                    +37%
#     400   1200      -18%                    +30%
#
# Gaussian draws cost more than uniform ones, so gaussian clouds lose
# from the lock at fewer atoms than box clouds.  Each cut sits at the
# lower crossover of its profile, sample_clouds: about 133 atoms for
# gaussian clouds, and about 300 for box clouds (its sample_clouds time
# at 300 to 350 atoms moved between -13% and +37% from one set of runs
# to the next).
_SERIAL_DRAWS = {"random": 900, "standard_normal": 400}


def _thread_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _over_blocks(n_clouds: int, n_atoms: int, start) -> None:
    """Run per-thread work over blocks of whole clouds.

    A block holds `rows` clouds, about _BLOCK_ATOMS atoms; the last one
    may hold fewer.  Thread k of n takes blocks k, k + n, ...; it calls
    start(rows) once, for work that owns its buffers, then work(block)
    with the slice of clouds of each of its blocks.  A single block runs
    on the calling thread.  Each thread runs in a copy of the caller's
    context, so the caller's np.errstate holds in it.  The work runs
    numpy code that releases the GIL, and draws small clouds under the
    call's one lock (_cloud_drawer); it must call no public function of
    this package, so that a tracer wrapping those functions sees them
    from one thread only.
    """
    rows = max(1, _BLOCK_ATOMS // max(n_atoms, 1))
    n_blocks = -(-n_clouds // rows)

    def task(first, step):
        work = start(rows)
        for b in range(first, n_blocks, step):
            work(slice(b * rows, min((b + 1) * rows, n_clouds)))

    n_threads = min(_thread_count(), n_blocks)
    if n_threads <= 1:
        task(0, 1)
        return
    with ThreadPoolExecutor(n_threads) as pool:
        futures = [pool.submit(contextvars.copy_context().run, task, k,
                               n_threads) for k in range(n_threads)]
        for future in futures:
            future.result()


def _fill_rule(n_atoms: int, profile: str, size: float):
    """Generator method that fills a cloud, and the shift after `*= size`."""
    if n_atoms <= 0:
        raise ValueError("n_atoms must be positive")
    if profile == "box":
        fill, shift = "random", -0.5 * size
    elif profile == "gaussian":
        fill, shift = "standard_normal", 0.0
    else:
        raise UnknownProfile(
            f"profile must be one of {PROFILES}, got {profile!r}")
    if not (np.isfinite(size) and size > 0):
        raise ValueError(f"size must be finite and positive, got {size!r}")
    return fill, shift


def _as_keys(keys) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim != 2 or keys.shape[1] != 2:
        raise ValueError(f"keys must have shape (n, 2), got {keys.shape}")
    return keys


def _draw_lock(n_atoms: int, fill: str):
    """The lock the threads of one call draw under, or none for big clouds."""
    if 3 * n_atoms < _SERIAL_DRAWS[fill]:
        return threading.Lock()
    return nullcontext()


def _cloud_drawer(fill: str, size: float, shift: float, lock):
    """draw(keys, out): row j of out is the cloud of Philox key keys[j].

    One Philox per thread, reseated per row, fills the rows with the
    Generator method `fill`; the block is then scaled and shifted as a
    whole.  The fills run while the thread holds `lock`, which all the
    threads of one call share for clouds of fewer draws than the
    _SERIAL_DRAWS cut of `fill` (_draw_lock): a small cloud's reseat and
    fill call hold the GIL longer than the fill releases it, so one
    thread draws a whole block while the others sum theirs.  Scaling
    runs outside the lock.
    Any thread may draw any cloud with the same bits, since each row
    depends on its key alone.
    """
    bit_gen = np.random.Philox(0)
    # A fresh Philox state: zero counter, empty buffer, no spare uint32.
    # Only the key changes from row to row.  The state setter reads
    # Python ints faster than the entries of uint64 arrays.
    state = bit_gen.state
    philox = state["state"]
    philox["counter"] = philox["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    fill_row = getattr(np.random.Generator(bit_gen), fill)

    def draw(keys, out):
        with lock:
            for key, row in zip(keys.tolist(), out):
                philox["key"] = key
                bit_gen.state = state
                fill_row(out=row)
        out *= size
        out += shift

    return draw


def _block_summer(rows: int, n_atoms: int, dk: np.ndarray):
    """Block sums of one thread: (add_up, buffer).

    add_up(clouds, out) sets out[j] = sum_a exp(i dk . r_a) of cloud j
    of a block of at most `rows` clouds of n_atoms atoms, such as one
    drawn into the front of buffer, a (rows, n_atoms, 3) array.  The
    phases and the complex terms go to arrays reused from block to
    block; the terms overwrite buffer, whose positions the phases no
    longer need.
    """
    positions = np.empty((rows, n_atoms, 3))
    phases = np.empty((rows, n_atoms))
    terms = positions.reshape(-1)[:2 * rows * n_atoms].view(complex) \
        .reshape(rows, n_atoms)

    def add_up(clouds, out):
        n = len(clouds)
        np.matmul(clouds, dk, out=phases[:n])
        np.cos(phases[:n], out=terms[:n].real)
        np.sin(phases[:n], out=terms[:n].imag)
        terms[:n].sum(axis=-1, out=out)

    return add_up, positions


def _intensities(amps: np.ndarray) -> np.ndarray:
    # Square each |amp| as a Python float, through libm pow as numpy's
    # scalar **2 does: the array square rounds some values differently.
    return np.array([v**2 for v in np.abs(amps).tolist()])


def sample_clouds(n_atoms: int, profile: str, size: float,
                  keys) -> np.ndarray:
    """Positions (len(keys), n_atoms, 3); row i drawn with Philox key keys[i].

    box      -- uniform over a cube of side `size` centered at origin;
    gaussian -- isotropic normal with standard deviation `size`.

    keys is an (n, 2) uint64 array such as stream_keys(seed, n).  Row i
    holds the same bits as rng.uniform(-size/2, size/2, (n_atoms, 3)) or
    rng.normal(0, size, (n_atoms, 3)) of a fresh Philox generator with
    key keys[i] (Philox(SeedSequence(seed).spawn(n)[i]) for
    stream_keys(seed, n)): the same draws, scaled and shifted by the same
    operations.
    """
    fill, shift = _fill_rule(n_atoms, profile, size)
    keys = _as_keys(keys)
    out = np.empty((len(keys), n_atoms, 3))
    lock = _draw_lock(n_atoms, fill)

    def start(rows):
        draw = _cloud_drawer(fill, size, shift, lock)
        return lambda block: draw(keys[block], out[block])

    _over_blocks(len(keys), n_atoms, start)
    return out


def scattering_sums(clouds, delta_k) -> np.ndarray:
    """|sum_a exp(i delta_k . r_a)|^2 for each cloud of (c, n, 3) positions.

    A ragged list of clouds raises ValueError.  At delta_k = 0 each
    entry is exactly n^2: all atoms scatter in phase.
    """
    clouds = np.asarray(clouds, dtype=float)
    if clouds.ndim != 3 or clouds.shape[2] != 3:
        raise ValueError(
            f"clouds must have shape (n_clouds, n_atoms, 3), got {clouds.shape}")
    dk = np.asarray(delta_k, dtype=float)
    n_clouds, n_atoms = clouds.shape[:2]
    amps = np.empty(n_clouds, dtype=complex)

    def start(rows):
        add_up, _ = _block_summer(rows, n_atoms, dk)
        return lambda block: add_up(clouds[block], amps[block])

    _over_blocks(n_clouds, n_atoms, start)
    return _intensities(amps)


def sampled_scattering_sums(n_atoms: int, profile: str, size: float,
                            keys, delta_k) -> np.ndarray:
    """scattering_sums(sample_clouds(n_atoms, profile, size, keys), delta_k).

    The same bits, without the (len(keys), n_atoms, 3) batch: each
    thread draws a block of clouds into its own buffer and sums it while
    the block is in cache.
    """
    fill, shift = _fill_rule(n_atoms, profile, size)
    keys = _as_keys(keys)
    dk = np.asarray(delta_k, dtype=float)
    amps = np.empty(len(keys), dtype=complex)
    lock = _draw_lock(n_atoms, fill)

    def start(rows):
        draw = _cloud_drawer(fill, size, shift, lock)
        add_up, positions = _block_summer(rows, n_atoms, dk)

        def work(block):
            clouds = positions[:block.stop - block.start]
            draw(keys[block], clouds)
            add_up(clouds, amps[block])

        return work

    _over_blocks(len(keys), n_atoms, start)
    return _intensities(amps)


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

    @classmethod
    def from_sums(cls, sums, n_atoms: int,
                  delta_k) -> "CorrelationEstimate":
        """Statistics of the scattering sums of clouds of n_atoms atoms.

        sums holds one |sum exp|^2 per cloud, as scattering_sums or
        sampled_scattering_sums return.  Requires at least 16 clouds so
        the standard error of the mean is meaningful; raises
        TooFewBatches otherwise.  The corrected estimator subtracts the
        exact self-term N and normalizes by the N^2 - N ordered pairs,
        converging to |f(delta_k)|^2 with f the normalized form factor
        of the density profile; N < 2 has no pairs and raises
        ValueError.
        """
        vals = np.asarray(sums, dtype=float)
        if len(vals) < MIN_BATCHES:
            raise TooFewBatches(
                f"need at least {MIN_BATCHES} clouds, got {len(vals)}")
        n_atoms = operator.index(n_atoms)
        if n_atoms < 2:
            raise ValueError(f"n_atoms must be at least 2, got {n_atoms}")
        raw_mean = float(np.mean(vals))
        raw_sem = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
        denom = n_atoms * (n_atoms - 1)
        corr = (vals - n_atoms) / denom
        return cls(
            delta_k=tuple(float(v) for v in np.asarray(delta_k, dtype=float)),
            n_atoms=n_atoms, n_batches=len(vals),
            raw_mean=raw_mean, raw_sem=raw_sem,
            corrected_mean=float(np.mean(corr)),
            corrected_sem=float(np.std(corr, ddof=1) / np.sqrt(len(corr))))


def density_correlation(n_atoms: int, profile: str, size: float, keys,
                        delta_k) -> CorrelationEstimate:
    """Estimate the scattering sum over the clouds of Philox keys `keys`.

    The clouds are those of sample_clouds(n_atoms, profile, size, keys),
    drawn and summed by sampled_scattering_sums without the batch.  The
    statistics, and the errors below 16 clouds or 2 atoms, are
    CorrelationEstimate.from_sums.
    """
    sums = sampled_scattering_sums(n_atoms, profile, size, keys, delta_k)
    return CorrelationEstimate.from_sums(sums, n_atoms, delta_k)


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
