"""Acceptance suite: one quantitative criterion per test, one line printed each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import itertools
import time

import numpy as np
import pytest

from atomlight.dynamics import (GaussianState, QuadratureOrdering,
                                apply_collective_map, collective_map_matrix,
                                paraxial_spin_map, paraxial_stokes_map,
                                symplectic_form)
from atomlight.medium import lorentz_lorenz, lorentz_lorenz_series
from atomlight.modes import HermiteGaussMode, hermite_gauss_eval, make_grid
from atomlight.pointgas import (CorrelationEstimate, sample_clouds,
                                scattering_sums, stream_keys)
from atomlight.propagator import (GreensSum, greens_reciprocity_residual,
                                  short_propagator_closed,
                                  short_propagator_quadrature,
                                  spin_decay_rates, symmetric_k_grid)
from atomlight.qops import (PolarizedModeBasis, QuadraticOperator, commutator,
                            s2c_coefficient, stokes_mode_pair,
                            stokes_second_order_terms)
from atomlight.regime import (Scenario, check_fresnel_basis,
                              check_light_series)

RNG = np.random.default_rng(2026)


def verdict(num, label, ok):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_01_short_propagator_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for a1 in np.linspace(0.05, 1.0, 20):
        for a0 in np.linspace(a1 + 0.051, a1 + 2.0, 20):
            closed = short_propagator_closed(a0, a1, 1.0)
            quad = short_propagator_quadrature(a0, a1, 1.0, n_points=128)
            for name in ("rho_par", "rho_perp", "rho_gamma"):
                c, q = getattr(closed, name), getattr(quad, name)
                worst = max(worst, abs(c - q) / max(abs(c), abs(q)))
    iso_err = abs(short_propagator_closed(1.0, 0.0, 1.0).rho_par
                  - 1.0 / (3.0 * np.pi))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and iso_err < 1e-12 and elapsed < 5.0
    verdict(1, f"closed vs quadrature rel dev {worst:.2e} (<1e-10), "
               f"isotropic err {iso_err:.2e} (<1e-12), {elapsed:.2f}s (<5s)",
            ok)


def test_02_spin_decay_anisotropy():
    coeffs = short_propagator_closed(1.0, 0.0, 1.0)
    gx, gy, gz = spin_decay_rates(coeffs, c1=0.8, beta=0.01, D_intensity=2.0)
    ok = (gx == 2.0 * gy) and (gy == gz) and gy > 0.0
    verdict(2, f"x-polarized spin decay ratio ({gx/gy:g}:{1}:{gz/gy:g}) "
               f"= (2:1:1) exactly", ok)


def test_03_stokes_su2():
    t0 = time.perf_counter()
    basis = PolarizedModeBasis(n_modes=6, k=1.0)
    eps = {(0, 1): 1, (1, 2): 1, (2, 0): 1,
           (1, 0): -1, (2, 1): -1, (0, 2): -1}
    worst = 0.0
    for _ in range(50):
        m, mp = (int(v) for v in RNG.integers(0, 6, 2))
        s = stokes_mode_pair(basis, m, mp)
        for (a, b), sign in eps.items():
            res = commutator(s[a], s[b]).coeff - sign * 1j * s[3 - a - b].coeff
            worst = max(worst, float(np.max(np.abs(res))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-13 and elapsed < 1.0
    verdict(3, f"su(2) residual {worst:.2e} (<1e-13) over 50 pairs, "
               f"{elapsed:.2f}s (<1s)", ok)


def test_04_second_order_stokes_consistency():
    contraction = 0.0
    for _ in range(10):
        J = RNG.normal(size=3)
        contraction += sum(abs(s2c_coefficient(J, j, l, lp, lpp))
                           for j, l, lp, lpp
                           in itertools.product("xy", repeat=4))
    basis = PolarizedModeBasis(n_modes=1, k=2.0)
    k_L, beta, c1, w = 2.0, 0.05, 0.8, 1.7
    phi = k_L * beta * c1 * w
    T = stokes_second_order_terms(basis, np.array([[w]]), k_L, beta, c1)
    qx, qy = (0, "x"), (0, "y")
    tot = {key: T["S2_A"][key].coeff + T["S2_B"][key].coeff
           for key in T["S2_A"]}
    s1, s2, _ = stokes_mode_pair(basis, 0, 0)
    d1 = 0.5 * (tot[(qx, qx)] - tot[(qy, qy)])
    d2 = 0.5 * (tot[(qx, qy)] + tot[(qy, qx)])
    dev = max(float(np.max(np.abs(d1 + 0.5 * phi**2 * s1.coeff))),
              float(np.max(np.abs(d2 + 0.5 * phi**2 * s2.coeff)))) / phi**2
    ok = contraction == 0.0 and dev < 1e-12
    verdict(4, f"S2_C 16-tuple contraction = {contraction:g} (exact 0); "
               f"S2_A+S2_B vs -phi^2/2 rel dev {dev:.2e} (<1e-12)", ok)


def test_05_symplectic_memory_map():
    ordering = QuadratureOrdering(n_light=1, n_atom=1)
    omega = symplectic_form(ordering)
    worst_s = 0.0
    for _ in range(100):
        kappa = float(RNG.uniform(-3.0, 3.0))
        S = collective_map_matrix(ordering, kappa)
        worst_s = max(worst_s, float(np.max(np.abs(S @ omega @ S.T - omega))))
    worst_v = 0.0
    for kappa in np.linspace(0.0, 2.0, 21):
        out = apply_collective_map(GaussianState.vacuum(ordering), kappa)
        worst_v = max(worst_v, abs(out.variance(ordering.X_A(0))
                                   - (0.5 + 0.5 * kappa**2)))
    s3_in = 0.5527
    s3_out = paraxial_stokes_map((0.3, -0.1, s3_in), 0.7)[2]
    jz_in = 0.8125
    jz_out = paraxial_spin_map([0.2, -0.4, jz_in], 1.3, 1.0, 0.05, 0.9)[2]
    invariant = (s3_out == s3_in) and (jz_out == jz_in)
    ok = worst_s < 1e-13 and worst_v < 1e-14 and invariant
    verdict(5, f"symplectic residual {worst_s:.2e} (<1e-13), "
               f"Var(X_A') dev {worst_v:.2e} (<1e-14), "
               f"s3/Jz invariance exact={invariant}", ok)


def test_06_lorentz_lorenz_series():
    # V = 0.6*(3/2) - eps with eps = 0.3 keeps the 30-term remainder of
    # the |2V/3| geometric series below the 1e-12 budget.
    worst = 0.0
    for V in (0.1, 0.3, 0.6 * 1.5 - 0.3):
        worst = max(worst, abs(lorentz_lorenz_series(V, 30)
                               - lorentz_lorenz(V)))
    ok = worst < 1e-12
    verdict(6, f"30-term partial sums vs closed form, worst dev {worst:.2e} "
               f"(<1e-12)", ok)


def test_07_point_gas_split():
    t0 = time.perf_counter()
    n, n_clouds = 100, 256
    clouds = sample_clouds(n, "box", 1.0, stream_keys(424242, n_clouds))
    exact = bool(np.all(scattering_sums(clouds[:16], [0.0, 0.0, 0.0])
                        == float(n * n)))
    dk = [90.0, 0.0, 0.0]
    est = CorrelationEstimate.from_sums(scattering_sums(clouds, dk), n, dk)
    nsigma = abs(est.raw_mean - n) / est.raw_sem
    elapsed = time.perf_counter() - t0
    ok = exact and nsigma < 5.0 and elapsed < 10.0
    verdict(7, f"forward sum = N^2 exact={exact}; large-dk mean "
               f"{est.raw_mean:.2f} vs N=100 at {nsigma:.2f} sigma (<5); "
               f"{elapsed:.2f}s (<10s)", ok)


def test_08_mode_hygiene():
    k, w0 = 400.0, 1.0
    modes = [HermiteGaussMode(m, n, k, w0)
             for m in range(6) for n in range(6)]
    z0 = modes[0].z0
    worst = 0.0
    for z in (0.0, z0, 5.0 * z0):
        w = modes[0].waist(z)
        grid = make_grid(w, extent_factor=8.0, n=384)
        fields = np.stack([hermite_gauss_eval(md, grid.X, grid.Y, z)
                           for md in modes])
        gram = np.einsum("axy,bxy->ab", np.conj(fields), fields)
        dx = grid.x[1] - grid.x[0]
        gram *= dx * dx
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(modes))))))
    grid_k, weights = symmetric_k_grid(9, 3.0)
    gsum = GreensSum(k_grid=grid_k, weights=weights, omega_L=2.0)
    pairs = [(RNG.normal(size=3), float(RNG.uniform(0.1, 1.0)),
              RNG.normal(size=3), float(RNG.uniform(-1.0, 0.0)))
             for _ in range(20)]
    recip = greens_reciprocity_residual(gsum, pairs)
    ok = worst < 1e-6 and recip < 1e-10
    verdict(8, f"orthonormality dev {worst:.2e} (<1e-6) over m,n<=5 at three "
               f"z-planes; reciprocity residual {recip:.2e} (<1e-10)", ok)


def test_09_regime_anchor():
    fres = check_fresnel_basis(1e4, 100)
    fres_ok = all(c.passed for c in fres)
    sc = Scenario(kappa=1.0, n_photons=1e8, n_atoms=1e6, optical_depth=30.0,
                  wavelength=852e-9, length=0.03, transverse_size=1e-3,
                  detuning=1e9, linewidth=3e7)
    light = check_light_series(sc)
    ok = fres_ok and light.passed
    verdict(9, f"F=1e4 passes all m+n<=100 Fresnel checks={fres_ok}; "
               f"kappa=1, N_P=1e8, N_A=1e6, OD=30 light checks "
               f"pass={light.passed}", ok)


def test_10_beyond_paraxial_reduction():
    from atomlight.dynamics import (LocalFrames,
                                    beyond_paraxial_light_increments,
                                    beyond_paraxial_spin_increment,
                                    multimode_light_increments,
                                    multimode_spin_increment)
    triad = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
             np.array([0.0, 0.0, 1.0]))
    frames = LocalFrames(classical=triad, quantum=(triad, triad, triad))
    npts = 60
    Psi = RNG.normal(size=(3, npts)) + 1j * RNG.normal(size=(3, npts))
    rho_w = RNG.uniform(0.5, 1.5, npts)
    Jy, Jz = RNG.normal(size=npts), RNG.normal(size=npts)
    dX, dP = beyond_paraxial_light_increments(Psi, rho_w, Jy, Jz, frames,
                                              50.0, 2.0, 0.01, 0.8)
    W = np.array([np.sum(rho_w * Jz * Psi[m]) for m in range(3)])
    eX, eP = multimode_light_increments(W, 50.0, 2.0, 0.01, 0.8)
    light_dev = max(float(np.max(np.abs(dX - eX))),
                    float(np.max(np.abs(dP - eP))))
    Psi_r = RNG.normal(size=3) + 1j * RNG.normal(size=3)
    X, P = RNG.normal(size=3), RNG.normal(size=3)
    J = np.array([0.4, 0.1, 0.8])
    dJ = beyond_paraxial_spin_increment(Psi_r, X, P, J, frames,
                                        50.0, 2.0, 0.01, 0.8)
    eJ = multimode_spin_increment(Psi_r, X, P, J, 50.0, 2.0, 0.01, 0.8)
    spin_dev = float(np.max(np.abs(dJ - eJ)))
    ok = light_dev < 1e-13 and spin_dev < 1e-13
    verdict(10, f"global-frame reduction devs: light {light_dev:.2e}, "
                f"spin {spin_dev:.2e} (<1e-13)", ok)
