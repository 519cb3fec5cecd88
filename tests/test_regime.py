"""Tests for the validity-regime checker."""

import math
import numbers
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atomlight.modes import MAX_ORDER
from atomlight.regime import (RegimeCheck, Scenario, _is_finite, check_fresnel,
                              check_fresnel_basis, check_light_series,
                              check_spin_series, fresnel_number)


def anchor_scenario(**overrides):
    params = dict(kappa=1.0, n_photons=1e8, n_atoms=1e6, optical_depth=30.0,
                  wavelength=852e-9, length=0.03, transverse_size=1e-3,
                  detuning=1e9, linewidth=3e7, density=None)
    params.update(overrides)
    return Scenario(**params)


class TestLightSeries:
    def test_anchor_passes(self):
        report = check_light_series(anchor_scenario())
        assert report.passed
        assert len(report.checks) == 3

    def test_values(self):
        report = check_light_series(anchor_scenario())
        by_name = {c.name: c for c in report.checks}
        assert by_name["kappa/sqrt(N_P)"].value == pytest.approx(1e-4)
        assert by_name["(kappa^2/OD)*(N_A/N_P)"].value == pytest.approx(
            (1.0 / 30.0) * 1e-2)

    def test_strong_coupling_fails(self):
        report = check_light_series(anchor_scenario(kappa=100.0,
                                                    n_photons=1e4))
        assert not report.passed
        assert any(c.margin < 0 for c in report.checks)


class TestSpinSeries:
    def test_anchor_passes(self):
        report = check_spin_series(anchor_scenario())
        assert report.passed
        assert len(report.checks) == 4

    def test_kappa2_over_od(self):
        report = check_spin_series(anchor_scenario(kappa=2.0))
        by_name = {c.name: c for c in report.checks}
        assert by_name["kappa^2/OD"].value == pytest.approx(4.0 / 30.0)
        assert not by_name["kappa^2/OD"].passed


class TestODConsistency:
    def test_consistent_density_passes(self):
        sc = anchor_scenario(density=30.0 / (852e-9**2 * 0.03))
        report = check_light_series(sc)
        assert report.passed
        assert len(report.checks) == 4

    def test_inconsistent_density_fails(self):
        sc = anchor_scenario(density=2.0 * 30.0 / (852e-9**2 * 0.03))
        report = check_light_series(sc)
        assert not report.passed

    @pytest.mark.parametrize("density", [float("nan"), float("inf"), -1.0,
                                         0, 0.0, True, "x", [1e17],
                                         10**400])
    def test_density_outside_domain_rejected(self, density):
        with pytest.raises(ValueError, match="density"):
            anchor_scenario(density=density)

    @pytest.mark.parametrize("density", [None, 1e17, 5, 1e-300])
    def test_density_in_domain_accepted(self, density):
        assert anchor_scenario(density=density).density == density


class TestFresnel:
    def test_anchor_value(self):
        # w = 1 mm, lambda = 852 nm, L = 3 cm: F ~ 4e4
        F = fresnel_number(852e-9, 1e-3, 0.03)
        assert F == pytest.approx(1e-6 / (852e-9 * 0.03), rel=1e-12)

    def test_large_f_passes_high_orders(self):
        F = 1e4
        checks = check_fresnel_basis(F, 100)
        assert all(c.passed for c in checks)

    def test_threshold_exact(self):
        assert check_fresnel(100.0, 4, 5).passed        # F = 10*(1+9): boundary passes
        assert not check_fresnel(100.0, 5, 5).passed    # 10*11 > 100

    def test_small_f_fails(self):
        assert not check_fresnel(5.0, 0, 0).passed

    @pytest.mark.parametrize("max_order", [10**30, -1, MAX_ORDER + 1])
    def test_basis_order_outside_domain_rejected(self, max_order):
        # Raised before any check is built: 10**30 would not fit in memory,
        # and -1 would give no check, a vacuous pass.
        with pytest.raises(ValueError, match="max_order"):
            check_fresnel_basis(1e4, max_order)

    def test_basis_at_max_order(self):
        checks = check_fresnel_basis(1e6, MAX_ORDER)
        assert len(checks) == (MAX_ORDER + 1) * (MAX_ORDER + 2) // 2
        assert checks[-1].name == f"fresnel({MAX_ORDER},0)"


class TestReport:
    def test_json_and_table(self):
        report = check_light_series(anchor_scenario())
        assert len(report.checks) == 3
        table = report.table()
        assert "overall: pass" in table
        assert "kappa/sqrt(N_P)" in table

    def test_margin_sign(self):
        c = RegimeCheck(name="x", value=0.05, threshold=0.1, passed=True)
        assert c.margin == pytest.approx(0.05)


class TestScenarioValidation:
    def test_positivity(self):
        with pytest.raises(ValueError):
            anchor_scenario(n_atoms=0.0)
        with pytest.raises(ValueError):
            anchor_scenario(detuning=0.0)

    @pytest.mark.parametrize("name, value", [
        *((name, float("nan")) for name in (
            "n_photons", "n_atoms", "optical_depth", "wavelength", "length",
            "transverse_size", "linewidth", "kappa", "detuning")),
        ("kappa", float("inf")), ("kappa", float("-inf")),
        ("detuning", float("inf")), ("detuning", float("-inf")),
        ("kappa", 10**400), ("detuning", -10**400),
        pytest.param("n_photons", 10**400, id="n_photons-10**400"),
        ("linewidth", float("inf"))])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            anchor_scenario(**{name: value})

    @pytest.mark.parametrize("value", [True, False, "1.0"])
    @pytest.mark.parametrize("name", [
        "kappa", "n_photons", "n_atoms", "optical_depth", "wavelength",
        "length", "transverse_size", "detuning", "linewidth", "density"])
    def test_non_number_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            anchor_scenario(**{name: value})


def test_report_holds_checks_only():
    report = check_light_series(anchor_scenario())
    assert list(vars(report)) == ["checks"]


def is_finite_slow_path(x) -> bool:
    """_is_finite without its fast path for exact floats."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


FLOATS = (st.floats(allow_subnormal=True)
          | st.integers(0, 2**64 - 1).map(
              lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]))


class TestIsFinite:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(x=FLOATS | FLOATS.map(np.float64) | st.booleans()
           | st.integers() | st.integers(2**1023, 2**1100)
           | st.integers(-2**1100, -2**1023)
           | st.fractions() | st.fractions().map(lambda f: f * 2**1030)
           | st.sampled_from([None, "1.0", [1.0], 1j, np.float32(np.inf),
                              np.int64(3), Fraction(2**1100, 3)]))
    def test_agrees_with_slow_path(self, x):
        assert _is_finite(x) is is_finite_slow_path(x)

    @pytest.mark.parametrize("x, want", [
        (0.0, True), (-0.0, True), (5e-324, True), (math.nan, False),
        (math.inf, False), (-math.inf, False), (np.float64(1.5), True),
        (np.float64(np.nan), False), (True, False), (2**1024, False),
        (2**1024 - 2**971, True), (Fraction(1, 3), True),
        (Fraction(2**1100, 3), False)],
        ids=lambda v: repr(v) if len(repr(v)) < 20 else type(v).__name__)
    def test_values(self, x, want):
        assert _is_finite(x) is want
