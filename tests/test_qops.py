"""Tests for the quadratic operator algebra and perturbative terms."""

import dataclasses
import itertools

import numpy as np
import pytest

from atomlight import qops
from atomlight.errors import BasisMismatch, MixedWavenumbers
from atomlight.modes import HermiteGaussMode, hermite_gauss_eval, make_grid
from atomlight.qops import (POLS, PolarizedModeBasis, QuadraticOperator, commutator,
                            s2c_coefficient, spin_first_order,
                            spin_incoherent_rate, spin_second_order_B,
                            spin_second_order_A_single_mode, stokes_field,
                            stokes_first_order, stokes_mode_pair,
                            stokes_second_order_terms)

RNG = np.random.default_rng(3)

QX, QY = (0, "x"), (0, "y")


def stokes_from_generator(basis, G, m=0, mp=0):
    """Assemble (s1, s2, s3) coefficient matrices from generator elements."""
    qx, qy = (m, "x"), (mp, "y")
    s1 = 0.5 * (G[(qx, qx)].coeff - G[(qy, qy)].coeff)
    s2 = 0.5 * (G[(qx, qy)].coeff + G[(qy, qx)].coeff)
    s3 = (0.5 / 1j) * (G[(qx, qy)].coeff - G[(qy, qx)].coeff)
    return s1, s2, s3


class TestAlgebra:
    def test_su2_random_pairs(self):
        basis = PolarizedModeBasis(n_modes=4, k=1.0)
        eps = {(0, 1): 1, (1, 2): 1, (2, 0): 1,
               (1, 0): -1, (2, 1): -1, (0, 2): -1}
        for _ in range(50):
            m, mp = RNG.integers(0, 4, 2)
            s = stokes_mode_pair(basis, int(m), int(mp))
            for (a, b), sign in eps.items():
                c = 3 - a - b
                res = commutator(s[a], s[b]).coeff - sign * 1j * s[c].coeff
                assert np.max(np.abs(res)) < 1e-13

    def test_hermitian(self):
        basis = PolarizedModeBasis(n_modes=2, k=1.0)
        for op in stokes_mode_pair(basis, 0, 1):
            assert op.is_hermitian()

    def test_basis_mismatch(self):
        b1 = PolarizedModeBasis(n_modes=1, k=1.0)
        b2 = PolarizedModeBasis(n_modes=2, k=1.0)
        s1a, _, _ = stokes_mode_pair(b1, 0, 0)
        s1b, _, _ = stokes_mode_pair(b2, 0, 0)
        with pytest.raises(BasisMismatch):
            commutator(s1a, s1b)


class TestStokesField:
    def test_integrated_field_matches_mode_ops(self):
        k, w0 = 200.0, 1.0
        basis = PolarizedModeBasis(n_modes=2, k=k)
        modes = [HermiteGaussMode(0, 0, k, w0), HermiteGaussMode(1, 0, k, w0)]
        grid = make_grid(w0, extent_factor=7.0, n=128)
        field = stokes_field(basis, modes, grid)
        # int s1 d2r = sum_m s1^{mm} by mode orthonormality.
        expect = sum(stokes_mode_pair(basis, m, m)[0].coeff for m in range(2))
        got = field.integrate("s1").coeff
        assert np.max(np.abs(got - expect)) < 1e-6

    def test_pointwise_hermitian(self):
        k, w0 = 200.0, 1.0
        basis = PolarizedModeBasis(n_modes=2, k=k)
        modes = [HermiteGaussMode(0, 0, k, w0), HermiteGaussMode(0, 1, k, w0)]
        grid = make_grid(w0, n=32)
        field = stokes_field(basis, modes, grid, z=0.3)
        for name in ("s0", "s1", "s2", "s3"):
            f = getattr(field, name)
            assert np.max(np.abs(f - np.conj(np.swapaxes(f, 2, 3)))) < 1e-13

    @pytest.mark.parametrize("z", [0.0, 0.4])
    def test_equals_three_operand_einsum(self, z):
        k, w0 = 30.0, 1.0
        modes = [HermiteGaussMode(m, order - m, k, w0)
                 for order in range(3) for m in range(order + 1)]
        basis = PolarizedModeBasis(n_modes=len(modes), k=k)
        grid = make_grid(w0, n=20)
        field = stokes_field(basis, modes, grid, z=z)
        U = np.stack([hermite_gauss_eval(md, grid.X, grid.Y, z) for md in modes])
        pol = 0.5 * np.array([np.eye(2), [[1, 0], [0, -1]], [[0, 1], [1, 0]],
                              [[0, -1j], [1j, 0]]])
        want = np.einsum("mxy,Mxy,sjJ->sxymjMJ", U.conj(), U, pol)
        want = want.reshape(4, 20, 20, basis.dim, basis.dim)
        for got, ref in zip((field.s0, field.s1, field.s2, field.s3), want):
            assert got.shape == (20, 20, basis.dim, basis.dim)
            assert got.flags.c_contiguous
            # + 0.0 folds -0.0 into 0.0: einsum adds each product to a
            # zeroed output, so it never returns -0.0.
            np.testing.assert_array_equal((got + 0.0).view(np.int64),
                                          (ref + 0.0).view(np.int64))

    @pytest.mark.parametrize("ks", [(200.0, 250.0), (250.0, 250.0)],
                             ids=["mixed", "other"])
    def test_rejects_modes_off_the_basis_wavenumber(self, ks):
        basis = PolarizedModeBasis(n_modes=2, k=200.0)
        modes = [HermiteGaussMode(0, 0, ks[0], 1.0),
                 HermiteGaussMode(1, 0, ks[1], 1.0)]
        with pytest.raises(MixedWavenumbers, match="250.0"):
            stokes_field(basis, modes, make_grid(1.0, n=8))


def dense_stokes_fields(basis, modes, grid, z):
    """Reference: the four (nx, ny, D, D) fields, built densely.

    Each of the 8 nonzero (s, j, j') blocks, Psi times its polarization
    factor, is written into a zeroed array.
    """
    U = np.stack([hermite_gauss_eval(md, grid.X, grid.Y, z) for md in modes],
                 axis=-1)
    Psi = np.einsum("xym,xyM->xymM", U.conj(), U)
    pol = 0.5 * np.array([np.eye(2), [[1, 0], [0, -1]], [[0, 1], [1, 0]],
                          [[0, -1j], [1j, 0]]])
    nx, ny = grid.x.size, grid.y.size
    s = np.zeros((4, nx, ny) + (basis.n_modes, 2) * 2, dtype=complex)
    for i, j, J in zip(*np.nonzero(pol)):
        np.multiply(Psi, pol[i, j, J], out=s[i, :, :, :, j, :, J])
    return s.reshape(4, nx, ny, basis.dim, basis.dim)


class TestStokesFieldFromOverlaps:
    """StokesField holds Psi and gives the dense construction's bits."""

    NAMES = ("s0", "s1", "s2", "s3")

    @staticmethod
    def case(n, M, z):
        k = 30.0
        modes = [HermiteGaussMode(m, order - m, k, 1.0)
                 for order in range(4) for m in range(order + 1)][:M]
        basis = PolarizedModeBasis(n_modes=M, k=k)
        grid = make_grid(1.0, n=n)
        return (stokes_field(basis, modes, grid, z=z),
                dense_stokes_fields(basis, modes, grid, z))

    @pytest.mark.parametrize("z", [0.0, 0.37])
    @pytest.mark.parametrize("M", [1, 3, 10])
    @pytest.mark.parametrize("n", [8, 12, 33])
    def test_fields_and_integrals_bit_identical(self, n, M, z):
        field, dense = self.case(n, M, z)
        for name, ref in zip(self.NAMES, dense):
            got = getattr(field, name)
            assert got.shape == ref.shape and got.flags.c_contiguous
            assert got.tobytes() == ref.tobytes(), name
            want = field.grid.integrate(ref)
            assert field.integrate(name).coeff.tobytes() == want.tobytes(), \
                name

    @pytest.mark.parametrize("M", [1, 3, 10])
    def test_holds_psi_and_no_dense_field(self, M):
        field, _ = self.case(12, M, 0.37)
        assert field.Psi.shape == (12, 12, M, M)
        for f in dataclasses.fields(field):
            assert np.shape(getattr(field, f.name)) \
                != (12, 12, 2 * M, 2 * M), f.name

    def test_dense_field_built_on_each_read(self):
        field, _ = self.case(8, 3, 0.0)
        assert field.s1 is not field.s1
        assert field.s1.tobytes() == field.s1.tobytes()


class TestDenseTensors:
    """The broadcast dense tensors against the einsum that defines them."""

    @pytest.mark.parametrize("b, d", list(itertools.product(
        [np.eye(2), qops.XI], repeat=2)), ids=["II", "IX", "XI", "XX"])
    def test_kron_equals_einsum(self, b, d):
        a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        c = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        got = qops._kron(a, b, c, d)
        spec = "mn,jl,MN,JL->mjMJnlNL"
        want = np.einsum(spec, a, b, c, d)
        # The broadcast complex product may fuse multiply-adds where einsum
        # does not: a few ulp of |a| |c|, and exact zeros where b or d vanish.
        scale = np.einsum(spec, abs(a), abs(b), abs(c), abs(d))
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)

    def test_s2d_equals_einsum(self):
        M, k_L, beta, c1, c0 = 3, 1.7, 0.6, 0.9, 0.4
        Q = RNG.normal(size=(M, M, M, M, 2))
        basis = PolarizedModeBasis(n_modes=M, k=1.0)
        ops = stokes_second_order_terms(basis, np.eye(M), k_L, beta, c1, c0,
                                        quartic_weights=Q)["S2_D"]
        pol = np.array([c1 * qops.XI, c0 * np.eye(2)])
        want = (0.5 * k_L * beta)**2 * np.einsum(
            "nmMNa,ajl,aJL->mjMJnlNL", Q, pol, pol).reshape((2 * M,) * 4)
        labels = basis.labels()
        got = np.array([[ops[(q, qp)].coeff for qp in labels] for q in labels])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestFirstOrder:
    def test_single_mode_rotation(self):
        basis = PolarizedModeBasis(n_modes=1, k=2.0)
        k_L, beta, c1, w = 2.0, 0.05, 0.8, 1.7
        phi = k_L * beta * c1 * w
        G = stokes_first_order(basis, np.array([[w]]), k_L, beta, c1)
        s1, s2, s3 = stokes_mode_pair(basis, 0, 0)
        d1, d2, d3 = stokes_from_generator(basis, G)
        assert np.max(np.abs(d1 + phi * s2.coeff)) < 1e-15
        assert np.max(np.abs(d2 - phi * s1.coeff)) < 1e-15
        assert np.max(np.abs(d3)) == 0.0

    def test_multimode_hermitian_pairing(self):
        # G[q', q] must be the dagger of G[q, q'] for Hermitian W.
        basis = PolarizedModeBasis(n_modes=2, k=1.0)
        A = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        W = A + A.conj().T
        G = stokes_first_order(basis, W, 1.0, 0.1, 1.0)
        for q in basis.labels():
            for qp in basis.labels():
                assert np.max(np.abs(G[(q, qp)].coeff
                                     - G[(qp, q)].coeff.conj().T)) < 1e-14


class TestSecondOrder:
    def test_single_mode_reduction(self):
        basis = PolarizedModeBasis(n_modes=1, k=2.0)
        k_L, beta, c1, w = 2.0, 0.05, 0.8, 1.7
        phi = k_L * beta * c1 * w
        T = stokes_second_order_terms(basis, np.array([[w]]), k_L, beta, c1)
        G = {key: QuadraticOperator(basis,
                                    T["S2_A"][key].coeff + T["S2_B"][key].coeff)
             for key in T["S2_A"]}
        s1, s2, s3 = stokes_mode_pair(basis, 0, 0)
        d1, d2, d3 = stokes_from_generator(basis, G)
        assert np.max(np.abs(d1 + 0.5 * phi**2 * s1.coeff)) < 1e-12
        assert np.max(np.abs(d2 + 0.5 * phi**2 * s2.coeff)) < 1e-12
        assert np.max(np.abs(d3)) < 1e-15

    def test_s2c_contraction_zero(self):
        for _ in range(5):
            J = RNG.normal(size=3)
            total = 0.0
            for j, l, lp, lpp in itertools.product("xy", repeat=4):
                total += abs(s2c_coefficient(J, j, l, lp, lpp))
            assert total == 0.0

    def test_s2c_nonzero_outside_transverse(self):
        # Sanity: with a z index the coefficient need not vanish.
        frames = {"x": np.array([1.0, 0.0, 0.0]),
                  "y": np.array([0.0, 1.0, 0.0]),
                  "z": np.array([0.0, 0.0, 1.0])}
        val = s2c_coefficient([0.0, 1.0, 0.0], "z", "y", "x", "y",
                              frames=frames)
        assert abs(val) > 0.0

    def test_s2d_quartic_weights(self):
        basis = PolarizedModeBasis(n_modes=1, k=1.0)
        Q = np.zeros((1, 1, 1, 1, 2))
        Q[0, 0, 0, 0] = (0.5, 2.0)    # (Jz^2-weighted, J^4-weighted)
        T = stokes_second_order_terms(basis, np.array([[1.0]]), 1.0, 0.1, 0.8,
                                      c0=0.3, quartic_weights=Q)
        key = (QX, QX)
        cd = T["S2_D"][key].coeff
        # j=l=x picks only the c0 delta channel.
        assert cd[basis.index(0, "x"), basis.index(0, "x")] == pytest.approx(
            (0.5 * 1.0 * 0.1)**2 * 0.3**2 * 2.0, rel=1e-14)
        # xi_xy * xi_xy channel carries the c1 weight.
        assert cd[basis.index(0, "y"), basis.index(0, "y")] == pytest.approx(
            (0.5 * 1.0 * 0.1)**2 * 0.8**2 * 0.5, rel=1e-14)


class TestSpinTerms:
    def test_first_order_orthogonal_to_axis(self):
        basis = PolarizedModeBasis(n_modes=2, k=1.0)
        Psi = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        J = np.array([0.4, -0.2, 0.3])
        res = spin_first_order(basis, Psi, J, 1.0, 0.1, 0.9)
        assert res.order == 1
        # every operator component along e_z vanishes
        assert np.max(np.abs(res.value[2])) == 0.0

    def test_first_order_single_mode_rotation_generator(self):
        # Real Psi: only the s3 channel contributes.
        basis = PolarizedModeBasis(n_modes=1, k=1.0)
        res = spin_first_order(basis, np.array([[2.0]]), [1.0, 0.0, 0.0],
                               k_L=1.0, beta=0.1, c1=0.5)
        _, _, s3 = stokes_mode_pair(basis, 0, 0)
        expect = -0.1 * 0.5 * 2.0 * np.cross([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert np.max(np.abs(res.value[1] - expect[1] * s3.coeff)) < 1e-15

    def test_second_order_A_vanishes_for_real_overlaps(self):
        basis = PolarizedModeBasis(n_modes=2, k=1.0)
        Psi = RNG.normal(size=(2, 2))
        res = spin_second_order_A_single_mode(
            basis, Psi.astype(complex), Psi.astype(complex),
            [1.0, 0.0, 0.0], 0.3, 1.0, 1.0, 0.1, 0.9)
        assert np.max(np.abs(res.value)) == 0.0

    def test_second_order_B_direction_transverse(self):
        basis = PolarizedModeBasis(n_modes=1, k=1.0)
        P = np.ones((1, 1, 1, 1), dtype=complex)
        direction, T = spin_second_order_B(basis, P, [0.3, 0.2, 0.9],
                                           1.0, 0.1, 0.8)
        assert direction[2] == 0.0
        assert np.max(np.abs(T)) > 0.0
        # structure: the a*x a*y a_y a_x slot carries twice the weight
        ix, iy = basis.index(0, "x"), basis.index(0, "y")
        assert T[ix, iy, iy, ix] == pytest.approx(-2.0 * T[iy, iy, ix, ix])

    def test_incoherent_isotropic_2_1_1(self):
        rho = 0.7
        A = rho * np.eye(3)
        intensity = np.diag([3.0, 0.0, 0.0])    # x-polarized drive
        J = np.array([0.4, 0.3, -0.2])
        rate = spin_incoherent_rate(A, intensity, J, c0=1.3, c1=0.8, beta=0.05)
        g = 0.05**2 * 0.8**2 * rho * 3.0
        assert rate[0] == pytest.approx(-2.0 * g * J[0], rel=1e-13)
        assert rate[1] == pytest.approx(-g * J[1], rel=1e-13)
        assert rate[2] == pytest.approx(-g * J[2], rel=1e-13)

    def test_incoherent_cross_terms_cancel_isotropically(self):
        # The c0*c1 channel must vanish for any isotropic A.
        A = 1.3 * np.eye(3)
        intensity = RNG.normal(size=(3, 3))
        intensity = intensity @ intensity.T
        J = RNG.normal(size=3)
        with_cross = spin_incoherent_rate(A, intensity, J, 2.0, 0.8, 0.05)
        without = spin_incoherent_rate(A, intensity, J, 0.0, 0.8, 0.05)
        assert np.max(np.abs(with_cross - without)) < 1e-12


class TestMultimodeEntries:
    """Every entry at M = 3 against the per-entry formulas of the docstrings.

    Basis index (m, j) -> 2 m + j with j in {x, y}; xi(j, l) =
    delta_lx delta_jy - delta_jx delta_ly.  Each expected entry is
    evaluated on its own index tuple, without array algebra.
    """

    M = 3
    K_L, BETA, C1, C0 = 1.7, 0.6, 0.9, 0.4
    # Array code may sum in another order than the formulas: allow a few
    # ulp of the largest expected entry.
    ULPS = 8

    @staticmethod
    def xi(j, l):
        return float(l == "x" and j == "y") - float(j == "x" and l == "y")

    @staticmethod
    def delta(a, b):
        return float(a == b)

    @classmethod
    def setup_class(cls):
        rng = np.random.default_rng(20071)
        M = cls.M
        A = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
        cls.W = A + A.conj().T
        cls.Q = rng.normal(size=(M, M, M, M, 2))
        cls.Psi = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
        cls.P4 = rng.normal(size=(M,) * 4) + 1j * rng.normal(size=(M,) * 4)
        cls.J = rng.normal(size=3)
        cls.basis = PolarizedModeBasis(n_modes=M, k=1.0)
        cls.labels = cls.basis.labels()

    def entries(self):
        """Every ((m, j), (m', j'), (n, l), (n', l')) with its matrix slot."""
        idx = self.basis.index
        for q, qp, r, rp in itertools.product(self.labels, repeat=4):
            yield q, qp, r, rp, (idx(*r), idx(*rp))

    def assert_close(self, got, expect):
        got, expect = np.asarray(got), np.asarray(expect)
        scale = np.max(np.abs(expect))
        assert scale > 0.0
        assert np.max(np.abs(got - expect)) \
            <= self.ULPS * np.finfo(float).eps * scale

    def assert_entries(self, ops, formula):
        assert set(ops) == set(itertools.product(self.labels, repeat=2))
        got, expect = [], []
        for q, qp, r, rp, slot in self.entries():
            got.append(ops[(q, qp)].coeff[slot])
            expect.append(formula(q, qp, r, rp))
        self.assert_close(got, expect)

    def test_first_order(self):
        W, xi, d = self.W, self.xi, self.delta
        pref = self.K_L * self.BETA * self.C1 / 2

        def formula(q, qp, r, rp):
            (m, j), (mp, jp), (n, l), (n2, l2) = q, qp, r, rp
            return pref * (np.conj(W[m, n]) * xi(j, l) * d(n2, mp) * d(l2, jp)
                           + d(n, m) * d(l, j) * W[mp, n2] * xi(jp, l2))

        G = stokes_first_order(self.basis, W, self.K_L, self.BETA, self.C1)
        self.assert_entries(G, formula)

    def second_order(self):
        return stokes_second_order_terms(self.basis, self.W, self.K_L,
                                         self.BETA, self.C1, c0=self.C0,
                                         quartic_weights=self.Q)

    def test_second_order_A(self):
        W, xi = self.W, self.xi
        pref = (self.K_L * self.BETA * self.C1 / 2)**2

        def formula(q, qp, r, rp):
            (m, j), (mp, jp), (n, l), (n2, l2) = q, qp, r, rp
            return (pref * xi(j, l) * xi(jp, l2)
                    * np.conj(W[m, n]) * W[mp, n2])

        self.assert_entries(self.second_order()["S2_A"], formula)

    def test_second_order_B(self):
        # S2_B[(m,j),(m',j')][(n,l),(n',l')] = (k beta c1)^2 / 8 *
        #   { delta_(n',l'),(m',j') sum_(k,p) xi_jp xi_pl W*[m,k] W*[k,n]
        #   + delta_(n,l),(m,j) sum_(k,p) xi_j'p xi_pl' W[m',k] W[k,n'] }
        W, xi, d = self.W, self.xi, self.delta
        pref = (self.K_L * self.BETA * self.C1)**2 / 8
        inner = list(itertools.product(range(self.M), POLS))

        def formula(q, qp, r, rp):
            (m, j), (mp, jp), (n, l), (n2, l2) = q, qp, r, rp
            left = sum(xi(j, p) * xi(p, l) * np.conj(W[m, k] * W[k, n])
                       for k, p in inner)
            right = sum(xi(jp, p) * xi(p, l2) * W[mp, k] * W[k, n2]
                        for k, p in inner)
            return pref * (d(n2, mp) * d(l2, jp) * left
                           + d(n, m) * d(l, j) * right)

        self.assert_entries(self.second_order()["S2_B"], formula)

    def test_second_order_D(self):
        Q, xi, d = self.Q, self.xi, self.delta
        pref = (self.K_L * self.BETA / 2)**2

        def formula(q, qp, r, rp):
            (m, j), (mp, jp), (n, l), (n2, l2) = q, qp, r, rp
            wz, w4 = Q[n, m, mp, n2]
            return pref * (self.C1**2 * wz * xi(j, l) * xi(jp, l2)
                           + self.C0**2 * w4 * d(j, l) * d(jp, l2))

        T = self.second_order()
        self.assert_entries(T["S2_D"], formula)

    def test_stokes_field(self):
        k, w0 = 50.0, 1.0
        modes = [HermiteGaussMode(0, 0, k, w0), HermiteGaussMode(1, 0, k, w0),
                 HermiteGaussMode(0, 1, k, w0)]
        grid = make_grid(w0, n=12)
        z = 0.4
        # The class basis is at k = 1; stokes_field needs the modes' k.
        field = stokes_field(PolarizedModeBasis(n_modes=self.M, k=k), modes,
                             grid, z=z)
        U = [hermite_gauss_eval(md, grid.X, grid.Y, z) for md in modes]
        d = self.delta
        # s_i = (1/2) U_m^* U_m' sigma_i[j, j'] with sigma = (1, z, x, y).
        sigma = {"s0": lambda j, jp: d(j, jp),
                 "s1": lambda j, jp: d(j, jp) * (1.0 if j == "x" else -1.0),
                 "s2": lambda j, jp: 1.0 - d(j, jp),
                 "s3": lambda j, jp: (1.0 - d(j, jp))
                 * (-1j if j == "x" else 1j)}
        idx = self.basis.index
        got, expect = [], []
        for name, sig in sigma.items():
            f = getattr(field, name)
            assert f.shape == (12, 12, 6, 6)
            for (m, j), (mp, jp) in itertools.product(self.labels, repeat=2):
                got.append(f[:, :, idx(m, j), idx(mp, jp)])
                expect.append(0.5 * np.conj(U[m]) * U[mp] * sig(j, jp))
        self.assert_close(got, expect)

    def test_spin_first_order(self):
        # T[(m,x),(m',y)] = -i/2 Psi[m,m'], T[(m',y),(m,x)] = i/2 Psi*[m,m'],
        # J1 = -beta c1 k (J x e_z) T.
        res = spin_first_order(self.basis, self.Psi, self.J, self.K_L,
                               self.BETA, self.C1)
        direction = np.cross(self.J, [0.0, 0.0, 1.0])
        pref = -self.BETA * self.C1 * self.K_L
        idx = self.basis.index
        assert res.value.shape == (3, 6, 6)
        got, expect = [], []
        for (a, al), (b, be) in itertools.product(self.labels, repeat=2):
            if (al, be) == ("x", "y"):
                t = -0.5j * self.Psi[a, b]
            elif (al, be) == ("y", "x"):
                t = 0.5j * np.conj(self.Psi[b, a])
            else:
                t = 0.0
            for c in range(3):
                got.append(res.value[c, idx(a, al), idx(b, be)])
                expect.append(pref * direction[c] * t)
        self.assert_close(got, expect)

    def test_spin_second_order_B(self):
        # tensor[(m,.),(m',.),(n,.),(n',.)] = pref Psi^{mn} Psi^{m'n'} times
        # 2 for (x, y, y, x), -1 for (y, y, x, x) and (x, x, y, y).
        e_z = np.array([0.3, -0.4, np.sqrt(0.75)])
        direction, T = spin_second_order_B(self.basis, self.P4, self.J,
                                           self.K_L, self.BETA, self.C1,
                                           e_z=e_z)
        self.assert_close(direction, self.J - e_z * (self.J @ e_z))
        pref = -0.5 * (0.5 * self.BETA * self.C1 * self.K_L)**2
        weight = {("x", "y", "y", "x"): 2.0, ("y", "y", "x", "x"): -1.0,
                  ("x", "x", "y", "y"): -1.0}
        idx = self.basis.index
        assert T.shape == (6, 6, 6, 6)
        got, expect = [], []
        for q, qp, r, rp in itertools.product(self.labels, repeat=4):
            (m, a), (mp, b), (n, c), (n2, e) = q, qp, r, rp
            got.append(T[idx(*q), idx(*qp), idx(*r), idx(*rp)])
            expect.append(pref * self.P4[m, n, mp, n2]
                          * weight.get((a, b, c, e), 0.0))
        self.assert_close(got, expect)


class TestRemovedSurface:
    def test_operator_has_no_label_or_arithmetic(self):
        op = stokes_mode_pair(PolarizedModeBasis(1, 1.0), 0, 0)[0]
        assert not hasattr(op, "label")
        assert not hasattr(op, "expectation_number")
        for combine in (lambda a: a + a, lambda a: a - a, lambda a: 2.0 * a,
                        lambda a: a * 2.0):
            with pytest.raises(TypeError):
                combine(op)

    def test_is_hermitian_takes_no_tolerance(self):
        op = stokes_mode_pair(PolarizedModeBasis(1, 1.0), 0, 0)[0]
        with pytest.raises(TypeError):
            op.is_hermitian(tol=1.0)
        assert not hasattr(op, "norm")

    def test_single_mode_term_takes_no_mode_index(self):
        basis = PolarizedModeBasis(2, 1.0)
        Psi = np.ones((2, 2), dtype=complex)
        with pytest.raises(TypeError):
            spin_second_order_A_single_mode(basis, Psi, Psi, [1, 0, 0], 1.0,
                                            1.0, 1.0, 1.0, 1.0, o=0)
        res = spin_second_order_A_single_mode(basis, Psi, Psi, [1, 0, 0],
                                              1.0, 1.0, 1.0, 1.0, 1.0)
        assert not hasattr(res, "label")
