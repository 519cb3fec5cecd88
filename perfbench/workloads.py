"""The three benchmark workloads: inputs from a seed, one iteration, checks.

Each workload drives atomlight from outside, either through
``atomlight.cli.main`` in-process or through the public functions of
``modes``, ``qops`` and ``dynamics``.  Functions are always looked up
on their module at call time (``qops.stokes_field``, never a name bound
here), so the tracer's wrappers see every call.

A workload object is built in three steps the worker times separately:
``__init__`` is the set-up (inputs and configs), ``prepare_reference``
is the benchmark's own reference computation (untimed), and
``iterate`` is one timed iteration.  ``check`` then validates the
iteration's outputs and returns an ``Outcome``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from atomlight import cli, dynamics, modes, pointgas, qops

@dataclass
class Outcome:
    """Checked operations of one iteration."""

    attempted: int = 0
    failed: int = 0
    # Failures outside the documented known-defect classes.
    unexpected: int = 0
    known: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    digest: str = ""

    def fail(self, note: str, known: str | None = None) -> None:
        self.failed += 1
        if known is None:
            self.unexpected += 1
            if len(self.notes) < 5:
                self.notes.append(note)
        else:
            self.known[known] = self.known.get(known, 0) + 1


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _write_config(path: Path, cfg: dict) -> None:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


SCENARIO = {"kappa": 1.0, "n_photons": 1e8, "n_atoms": 1e6,
            "optical_depth": 30.0, "wavelength": 852e-9, "length": 0.03,
            "transverse_size": 1e-3, "detuning": 1e9, "linewidth": 3e7}


# ---------------------------------------------------------------------------
# sweep-a1
# ---------------------------------------------------------------------------

def a1_values(rng: np.random.Generator, n: int = 1000, a0: float = 1.0):
    """Sweep values over 0 <= a1 < a0: 60% uniform, 20% log-clustered
    toward a1 -> 0 (down to 1e-6), 20% toward a0 - a1 -> 0 (down to 1e-4)."""
    n_edge = n // 5
    uniform = rng.uniform(0.0, a0, n - 2 * n_edge)
    small = a0 * 10.0**rng.uniform(-6.0, -1.0, n_edge)
    near = a0 - a0 * 10.0**rng.uniform(-4.0, -1.0, n_edge)
    values = np.concatenate([uniform, small, near])
    rng.shuffle(values)
    return [float(v) for v in values]


# Known defects (ROADMAP, "Make the short-propagator triple right on its
# whole domain"): the closed forms cancel as a1 -> 0, and the 128-point
# oracle behind max_rel_dev fails as a0 - a1 -> 0.  A miss of the
# accuracy checks inside these edge bands is counted as failed and
# reported by class; anywhere else it makes the run incorrect.
EDGE_BAND = 0.05
RHO_TOL = 1e-9          # relative, closed form vs the mpmath reference
ORACLE_TOL = 1e-9       # max_rel_dev reported by rho-coefficients


class SweepA1:
    name = "sweep-a1"
    item_label = "sweep points/s"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.a0 = 1.0
        self.values = a1_values(rng, a0=self.a0)
        self.stokes_in = [float(v) for v in rng.normal(size=3)]
        cfg = {"seed": seed,
               "analyses": ["rho-coefficients", "stokes-map",
                            "memory-protocol", "regime"],
               "scenario": SCENARIO,
               "physics": {"a0": self.a0, "column_rho_jz": 1e-4,
                           "stokes_in": self.stokes_in}}
        workdir.mkdir(parents=True, exist_ok=True)
        cfg_path = workdir / "sweep.json"
        _write_config(cfg_path, cfg)
        cli.load_config(cfg_path)
        self.csv_path = workdir / "out" / "sweep_physics_a1.csv"
        self.argv = ["--out", str(workdir / "out"), "sweep", str(cfg_path),
                     "--param", "physics.a1",
                     "--values", ",".join(repr(v) for v in self.values)]
        self.items = len(self.values)

    def prepare_reference(self) -> None:
        from reference import rho_gamma
        self.rho_ref = [rho_gamma(self.a0, a1) for a1 in self.values]

    def iterate(self):
        return cli.main(self.argv)

    def check(self, rc) -> Outcome:
        out = Outcome(attempted=len(self.values))
        if rc != 0:
            out.failed = out.unexpected = len(self.values)
            out.notes.append(f"sweep exit code {rc}")
            return out
        with open(self.csv_path, newline="") as fh:
            rows = list(csv.DictReader(
                line for line in fh if not line.startswith("#")))
        if len(rows) != len(self.values):
            out.failed = out.unexpected = len(self.values)
            out.notes.append(f"{len(rows)} rows for {len(self.values)} values")
            return out
        kappa = SCENARIO["kappa"]
        for a1, ref, row in zip(self.values, self.rho_ref, rows):
            accuracy, other = [], []  # failed check names
            if float(row["physics.a1"]) != a1:
                other.append("a1 column")
            rg = float(row["rho-coefficients.rho_gamma_closed"])
            if abs(rg - ref) > RHO_TOL * abs(ref):
                accuracy.append("rho_gamma_closed vs mpmath")
            if not float(row["rho-coefficients.max_rel_dev"]) <= ORACLE_TOL:
                accuracy.append("max_rel_dev")
            if abs(float(row["memory-protocol.var_XA_out"])
                   - (0.5 + 0.5 * kappa**2)) > 1e-14:
                other.append("var_XA_out")
            if not float(row["memory-protocol.symplectic_residual"]) <= 1e-13:
                other.append("symplectic residual")
            if float(row["stokes-map.s3_out"]) != self.stokes_in[2]:
                other.append("s3 invariance")
            if int(row["regime.light_passed"]) != 1:
                other.append("regime light checks")
            if not (accuracy or other):
                continue
            if a1 < EDGE_BAND * self.a0:
                band = "closed form as a1 -> 0"
            elif self.a0 - a1 < EDGE_BAND * self.a0:
                band = "quadrature oracle as a0 - a1 -> 0"
            else:
                band = None
            if other or band is None:
                out.fail(f"a1={a1!r}: {', '.join(accuracy + other)}")
            else:
                out.fail("", known=band)
        out.digest = _digest([self.csv_path])
        return out


# ---------------------------------------------------------------------------
# pointgas-run
# ---------------------------------------------------------------------------

# (n_atoms, n_clouds, profile, delta_k): from L1-sized clouds (100 atoms,
# 2.4 KB) to 20000-atom clouds of 480 KB each, 123 MB for all 256.
SHAPES = ((100, 16384, "box", (60.0, 0.0, 0.0)),
          (1000, 4096, "gaussian", (0.0, 0.0, 3.0)),
          (20000, 256, "box", (6.0, 0.0, 0.0)))
SEM_LIMIT = 5.0


class PointgasRun:
    name = "pointgas-run"
    item_label = "atoms/s"

    def __init__(self, seed: int, workdir: Path):
        self.runs = []
        for i, (n_atoms, n_clouds, profile, dk) in enumerate(SHAPES):
            cfg = {"seed": seed, "analyses": ["pointgas"],
                   "pointgas": {"n_atoms": n_atoms, "n_clouds": n_clouds,
                                "profile": profile, "size": 1.0,
                                "delta_k": list(dk)}}
            workdir.mkdir(parents=True, exist_ok=True)
            cfg_path = workdir / f"pointgas{i}.json"
            _write_config(cfg_path, cfg)
            cli.load_config(cfg_path)
            out_dir = workdir / f"out{i}"
            self.runs.append((["--out", str(out_dir), "run", str(cfg_path)],
                              out_dir, profile, dk))
        self.items = sum(n * c for n, c, _, _ in SHAPES)

    def prepare_reference(self) -> None:
        self.form_factor = [
            pointgas.box_form_factor(dk, 1.0) if profile == "box"
            else pointgas.gaussian_form_factor(dk, 1.0)
            for _, _, profile, dk in self.runs]

    def iterate(self):
        return [cli.main(argv) for argv, _, _, _ in self.runs]

    def check(self, rcs) -> Outcome:
        out = Outcome(attempted=len(self.runs))
        digests = []
        for rc, (_, out_dir, _, dk), ff in zip(rcs, self.runs, self.form_factor):
            if rc != 0:
                out.fail(f"run dk={dk} exit code {rc}")
                continue
            files = [out_dir / "pointgas.csv", out_dir / "summary.json"]
            digests.append(_digest(files))
            with open(files[0], newline="") as fh:
                row = next(csv.DictReader(
                    line for line in fh if not line.startswith("#")))
            mean = float(row["corrected_mean"])
            sem = float(row["corrected_sem"])
            if not abs(mean - ff) <= SEM_LIMIT * sem:
                out.fail(f"dk={dk}: corrected_mean {mean!r} is "
                         f"{abs(mean - ff) / sem:.1f} SEM from {ff!r}")
        out.digest = hashlib.sha256("".join(digests).encode()).hexdigest()
        return out


# ---------------------------------------------------------------------------
# multimode-ops
# ---------------------------------------------------------------------------

MAX_ORDER = 3
K_MODE, W0 = 400.0, 1.0
GRID_POINTS, FIELD_POINTS = 128, 32
K_L, BETA, C1, C0 = 2.0, 0.05, 0.8, 0.3
N_PHOTONS = 50.0
N_SAMPLES, N_PAIRS, N_CLOUD_POINTS = 8, 4, 2048
NORM_RTOL = 1e-12
ORTHO_TOL = 1e-9


def _hermitian(rng, M):
    A = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    return 0.5 * (A + A.conj().T)


def _rotation(rng, max_angle):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * K @ K


def _triad(R):
    return tuple(np.ascontiguousarray(R[:, i]) for i in range(3))


class MultimodeOps:
    name = "multimode-ops"
    item_label = "basis passes/s"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.hg = [modes.HermiteGaussMode(m, order - m, K_MODE, W0)
                   for order in range(MAX_ORDER + 1) for m in range(order + 1)]
        M = len(self.hg)
        self.z1 = self.hg[0].z0
        self.grids = [modes.make_grid(self.hg[0].waist(z), 6.0, GRID_POINTS)
                      for z in (0.0, self.z1)]
        self.field_grid = modes.make_grid(W0, 6.0, FIELD_POINTS)
        self.basis = qops.PolarizedModeBasis(n_modes=M, k=K_MODE)
        self.W = _hermitian(rng, M)
        self.Q = rng.normal(size=(M, M, M, M, 2))
        self.samples = [(_hermitian(rng, M), rng.normal(size=3))
                        for _ in range(N_SAMPLES)]
        psi = _hermitian(rng, M)
        self.P4 = np.einsum("ab,cd->abcd", psi, psi)
        self.J_bar = rng.normal(size=3)
        self.pairs = [tuple(int(v) for v in rng.integers(0, M, 2))
                      for _ in range(N_PAIRS)]
        P = N_CLOUD_POINTS
        self.Psi_o = rng.normal(size=(M, P)) + 1j * rng.normal(size=(M, P))
        self.rho_w = rng.uniform(0.5, 1.5, P)
        self.Jy, self.Jz = rng.normal(size=P), rng.normal(size=P)
        self.Psi_r = rng.normal(size=M) + 1j * rng.normal(size=M)
        self.X, self.Pq = rng.normal(size=M), rng.normal(size=M)
        self.J_r = rng.normal(size=3)
        glob = _triad(np.eye(3))
        self.global_frames = dynamics.LocalFrames(classical=glob,
                                                  quantum=(glob,) * M)
        self.tilted = dynamics.LocalFrames(
            classical=_triad(_rotation(rng, 0.2)),
            quantum=tuple(_triad(_rotation(rng, 0.3)) for _ in range(M)))
        self.W_o = (self.rho_w * self.Jz * self.Psi_o).sum(axis=1)
        self.items = 1

    def prepare_reference(self) -> None:
        import reference as ref
        self.ref = {
            "S1": ref.stokes_first_order_norm(self.W, K_L, BETA, C1),
            **ref.stokes_second_order_norms(self.W, self.Q, K_L, BETA, C1, C0),
            "J1": [ref.spin_first_order_norm(psi, J, K_L, BETA, C1)
                   for psi, J in self.samples],
            "J2_B": ref.spin_second_order_B_norm(self.P4, K_L, BETA, C1),
            "light": ref.beyond_paraxial_light(
                self.Psi_o, self.rho_w, self.Jy, self.Jz, self.tilted.classical,
                self.tilted.quantum, N_PHOTONS, K_L, BETA, C1),
            "spin": ref.beyond_paraxial_spin(
                self.Psi_r, self.X, self.Pq, self.J_r, self.tilted.classical,
                self.tilted.quantum, N_PHOTONS, K_L, BETA, C1),
        }

    def iterate(self):
        r = {}
        r["overlap"] = [modes.overlap_field(self.hg, g, z)
                        for g, z in zip(self.grids, (0.0, self.z1))]
        r["S1"] = qops.stokes_first_order(self.basis, self.W, K_L, BETA, C1)
        r["S2"] = qops.stokes_second_order_terms(
            self.basis, self.W, K_L, BETA, C1, C0, quartic_weights=self.Q)
        r["field"] = qops.stokes_field(self.basis, self.hg, self.field_grid)
        r["pairs"] = [qops.stokes_mode_pair(self.basis, m, mp)
                      for m, mp in self.pairs]
        r["J1"] = [qops.spin_first_order(self.basis, psi, J, K_L, BETA, C1)
                   for psi, J in self.samples]
        r["J2_B"] = qops.spin_second_order_B(self.basis, self.P4, self.J_bar,
                                             K_L, BETA, C1)
        light = (self.Psi_o, self.rho_w, self.Jy, self.Jz)
        spin = (self.Psi_r, self.X, self.Pq, self.J_r)
        common = (N_PHOTONS, K_L, BETA, C1)
        r["light"] = dynamics.beyond_paraxial_light_increments(
            *light, self.tilted, *common)
        r["light_global"] = dynamics.beyond_paraxial_light_increments(
            *light, self.global_frames, *common)
        r["light_multimode"] = dynamics.multimode_light_increments(
            self.W_o, *common)
        r["spin"] = dynamics.beyond_paraxial_spin_increment(
            *spin, self.tilted, *common)
        r["spin_global"] = dynamics.beyond_paraxial_spin_increment(
            *spin, self.global_frames, *common)
        r["spin_multimode"] = dynamics.multimode_spin_increment(*spin, *common)
        r["commutator"] = dynamics.collective_commutator_matrix(
            self.hg, self.grids[0], 1.0, 1.0, 1.0)
        return r

    def check(self, r) -> Outcome:
        out = Outcome()

        def expect(label, ok):
            out.attempted += 1
            if not ok:
                out.fail(label)

        def close(value, reference, rtol=NORM_RTOL):
            return abs(value - reference) <= rtol * abs(reference)

        M = len(self.hg)
        for ov in r["overlap"]:
            g = ov.grid
            gram = np.trapezoid(np.trapezoid(ov.Psi, g.y, axis=3), g.x, axis=2)
            expect(f"overlap orthonormality at z={ov.z}",
                   np.max(np.abs(gram - np.eye(M))) <= ORTHO_TOL)
        def norm(ops):
            return float(np.sqrt(sum(np.linalg.norm(o.coeff)**2
                                     for o in ops.values())))

        expect("stokes_first_order norm", close(norm(r["S1"]), self.ref["S1"]))
        expect("stokes_second_order_terms norms",
               all(close(norm(r["S2"][k]), self.ref[k])
                   for k in ("S2_A", "S2_B", "S2_D")))
        ints = [r["field"].integrate(w) for w in ("s0", "s1", "s2", "s3")]
        expect("stokes_field hermiticity and integrated s0",
               all(op.is_hermitian() for op in ints)
               and np.max(np.abs(ints[0].coeff - 0.5 * np.eye(2 * M)))
               <= ORTHO_TOL)
        worst = 0.0
        eps = {(0, 1): 1, (1, 2): 1, (2, 0): 1}
        for s in r["pairs"]:
            for (a, b), sign in eps.items():
                res = (qops.commutator(s[a], s[b]).coeff
                       - sign * 1j * s[3 - a - b].coeff)
                worst = max(worst, float(np.max(np.abs(res))))
        expect("stokes_mode_pair su(2) residual", worst <= 1e-13)
        for res, ref in zip(r["J1"], self.ref["J1"]):
            expect("spin_first_order norm",
                   close(float(np.linalg.norm(res.value)), ref))
        expect("spin_second_order_B norm",
               close(float(np.linalg.norm(r["J2_B"][1])), self.ref["J2_B"]))
        ref_x, ref_p = self.ref["light"]
        scale = max(np.max(np.abs(ref_x)), np.max(np.abs(ref_p)))
        dx, dp = r["light"]
        expect("beyond_paraxial_light_increments (tilted frames)",
               max(np.max(np.abs(dx - ref_x)), np.max(np.abs(dp - ref_p)))
               <= NORM_RTOL * scale)
        (gx, gp), (mx, mp) = r["light_global"], r["light_multimode"]
        scale = max(np.max(np.abs(mx)), np.max(np.abs(mp)))
        expect("beyond-paraxial light reduces to multimode in global frames",
               max(np.max(np.abs(gx - mx)), np.max(np.abs(gp - mp)))
               <= NORM_RTOL * scale)
        ref_s = self.ref["spin"]
        expect("beyond_paraxial_spin_increment (tilted frames)",
               np.max(np.abs(r["spin"] - ref_s))
               <= NORM_RTOL * np.max(np.abs(ref_s)))
        ms = r["spin_multimode"]
        expect("beyond-paraxial spin reduces to multimode in global frames",
               np.max(np.abs(r["spin_global"] - ms))
               <= NORM_RTOL * np.max(np.abs(ms)))
        expect("collective commutator is the identity",
               np.max(np.abs(r["commutator"] - np.eye(M))) <= ORTHO_TOL)
        return out


WORKLOADS = {cls.name: cls for cls in (SweepA1, PointgasRun, MultimodeOps)}
