"""Tests for the scenario-runner CLI: config validation, run, sweep."""

import contextlib
import copy
import csv
import functools
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import atomlight
from atomlight import cli, pointgas, propagator
from atomlight.cli import ANALYSES, load_config, main
from atomlight.modes import MAX_ORDER
from atomlight.errors import (AnalysisFailed, AtomLightError, BadParameterPath,
                              ConfigInvalid, OutsideDomain)
from atomlight.cli import _analyse, _cell, _resolve_path, sweep
from atomlight.pointgas import (CorrelationEstimate, sample_clouds,
                                scattering_sums, stream_keys)


BASE_CONFIG = {
    "seed": 11,
    "analyses": [],
    "scenario": {"kappa": 1.0, "n_photons": 1e8, "n_atoms": 1e6,
                 "optical_depth": 30.0, "wavelength": 852e-9, "length": 0.03,
                 "transverse_size": 1e-3, "detuning": 1e9, "linewidth": 3e7},
}


def write_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def exit_code(argv):
    """main's return code, or argparse's exit code for a rejected flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read_csv_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, typo_field=1)
        with pytest.raises(ConfigInvalid, match="typo_field"):
            load_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = write_config(tmp_path, pointgas={"n_atoms": 64, "resolution": 2})
        with pytest.raises(ConfigInvalid, match="pointgas.resolution"):
            load_config(path)

    def test_unknown_analysis(self, tmp_path):
        path = write_config(tmp_path, analyses=["make-coffee"])
        with pytest.raises(ConfigInvalid, match="make-coffee"):
            load_config(path)

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_invalid_config_exit_code(self, tmp_path):
        path = write_config(tmp_path, grid={"points": 0})
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("overrides, argv", [
        ({"grid": {"points": 64, "extent_factor": 6.0}}, []),
        ({"modes": {"w0": 1e-3}}, []),
        ({"modes": {"family": "hermite-gauss"}}, []),
        ({"physics": {"c0": 0.5}}, []),
        ({}, ["--threads", "2"]),
    ], ids=["grid", "modes.w0", "modes.family", "physics.c0", "--threads"])
    def test_removed_surface_rejected(self, tmp_path, overrides, argv):
        path = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert exit_code(argv + ["--out", str(out), "run", str(path)]) == 2
        assert not out.exists()

    def test_every_documented_key_loads(self, tmp_path):
        path = write_config(
            tmp_path, seed=2**64 - 1, output_dir=str(tmp_path / "o"),
            analyses=list(ANALYSES),
            scenario={**BASE_CONFIG["scenario"], "density": 1e17},
            modes={"max_order": 3, "k": 8e6},
            physics={"beta": 2e-3, "c1": 0.9, "a0": 1.2,
                     "a1": 0.4, "column_rho_jz": 1e-4,
                     "stokes_in": [0.0, 1.0, 0.0], "gain": -0.5},
            pointgas={"n_atoms": 20, "n_clouds": 16, "profile": "gaussian",
                      "size": 2.0, "delta_k": [0.0, 1.0, 0.0]})
        cfg = load_config(path)
        assert cfg["seed"] == 2**64 - 1
        assert cfg["scenario"]["density"] == 1e17
        assert cfg["modes"] == {"max_order": 3, "k": 8e6}
        assert cfg["physics"]["gain"] == -0.5
        assert cfg["pointgas"]["profile"] == "gaussian"

    @pytest.mark.parametrize("where, seed", [
        ("config", 1.5), ("config", True), ("config", "7"), ("config", -1),
        ("config", 2**64), ("--seed", -1), ("--seed", 2**64),
    ])
    def test_seed_outside_u64_rejected(self, tmp_path, where, seed):
        out = tmp_path / "out"
        if where == "config":
            path = write_config(tmp_path, seed=seed)
            with pytest.raises(ConfigInvalid, match="seed"):
                load_config(path)
            argv = []
        else:
            path = write_config(tmp_path)
            argv = ["--seed", str(seed)]
        assert main(argv + ["--out", str(out), "run", str(path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
    def test_non_finite_kappa_rejected_at_load(self, tmp_path, kappa):
        path = write_config(tmp_path, analyses=["memory-protocol"],
                            scenario={**BASE_CONFIG["scenario"],
                                      "kappa": kappa})
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("density", [float("nan"), float("inf"), -1.0,
                                         0, True, "x", 10**400])
    def test_density_outside_domain_rejected(self, tmp_path, density):
        path = write_config(tmp_path, analyses=["regime"],
                            scenario={**BASE_CONFIG["scenario"],
                                      "density": density})
        with pytest.raises(ConfigInvalid, match="density"):
            load_config(path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("pointgas", "n_atoms", 10.5), ("pointgas", "n_atoms", 1),
        ("pointgas", "n_clouds", 8), ("pointgas", "n_clouds", True),
        ("modes", "max_order", -1), ("modes", "max_order", 2.0),
    ])
    def test_integer_field_outside_domain_rejected(self, tmp_path, section,
                                                    key, value):
        path = write_config(tmp_path, **{section: {key: value}})
        with pytest.raises(ConfigInvalid, match=f"{section}.{key}"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("size", -1.0), ("size", 0.0), ("size", float("nan")),
        ("size", float("inf")), ("size", "1.0"), ("size", True),
        ("profile", "ring"), ("profile", None),
        ("delta_k", [1.0, 0.0]), ("delta_k", [float("nan"), 0.0, 0.0]),
        ("delta_k", [float("inf"), 0.0, 0.0]), ("delta_k", ["1", 0.0, 0.0]),
        ("delta_k", 1.0), pytest.param("size", 10**400, id="size-10**400"),
        pytest.param("delta_k", [10**400, 0.0, 0.0], id="delta_k-10**400"),
        pytest.param("n_clouds", 10**30, id="n_clouds-10**30"),
        pytest.param("n_clouds", 2**32 + 1, id="n_clouds-2**32+1"),
        pytest.param("n_atoms", 10**30, id="n_atoms-10**30"),
        pytest.param("n_atoms", 2**63, id="n_atoms-2**63"),
    ])
    def test_pointgas_value_outside_domain_rejected(self, tmp_path, key,
                                                    value):
        path = write_config(tmp_path, analyses=["pointgas"],
                            pointgas={"n_atoms": 10, "n_clouds": 16,
                                      key: value})
        with pytest.raises(ConfigInvalid, match=f"pointgas.{key}"):
            load_config(path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert not out.exists()

    def test_max_order_at_upper_bound_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, analyses=["regime"],
                                       modes={"max_order": MAX_ORDER}))
        assert cfg["modes"]["max_order"] == 149

    @pytest.mark.parametrize("max_order", [
        150, pytest.param(10**30, id="10**30")])
    def test_max_order_above_basis_rejected(self, tmp_path, max_order):
        path = write_config(tmp_path, analyses=["rho-coefficients"],
                            modes={"max_order": max_order})
        with pytest.raises(ConfigInvalid,
                           match=r"modes.max_order must be an integer in "
                                 r"\[0, 150\)"):
            load_config(path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert not out.exists()

    def test_pointgas_counts_at_upper_bound_load(self, tmp_path):
        # Loaded only: the largest counts are far too big to run.
        cfg = load_config(write_config(
            tmp_path, analyses=["pointgas"],
            pointgas={"n_atoms": 2**63 - 1, "n_clouds": 2**32}))
        assert cfg["pointgas"]["n_atoms"] == 2**63 - 1
        assert cfg["pointgas"]["n_clouds"] == 2**32

    @pytest.mark.parametrize("k", [float("inf"), float("nan"), "x", -1.0, 0,
                                   True, pytest.param(10**400, id="10**400")])
    def test_modes_k_outside_domain_rejected(self, tmp_path, k):
        path = write_config(tmp_path, analyses=["stokes-map"],
                            modes={"k": k})
        with pytest.raises(ConfigInvalid, match="modes.k"):
            load_config(path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("name, value", [
        pytest.param("n_photons", 10**400, id="n_photons-10**400"),
        pytest.param("length", 10**400, id="length-10**400"),
        pytest.param("kappa", 10**400, id="kappa-10**400"),
        ("n_atoms", float("inf"))])
    def test_scenario_value_outside_domain_rejected(self, tmp_path, name,
                                                    value):
        path = write_config(tmp_path, analyses=["regime"],
                            scenario={**BASE_CONFIG["scenario"],
                                      name: value})
        with pytest.raises(ConfigInvalid, match=name):
            load_config(path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("a1", float("nan")),
                                            ("a0", float("nan"))])
    def test_nan_physics_is_outside_domain(self, tmp_path, key, value):
        path = write_config(tmp_path, analyses=["rho-coefficients"],
                            physics={key: value})
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("a0", float("inf")), ("a0", float("-inf")), ("a1", float("inf")),
        ("a0", "1.0"), ("a1", True), ("beta", float("nan")),
        ("c1", float("inf")), ("column_rho_jz", None), ("c0", "x"),
        ("stokes_in", [1.0, 0.0]), ("stokes_in", [float("nan"), 0.0, 0.0]),
        ("stokes_in", 1.0), ("gain", float("inf")), ("gain", "x"),
        pytest.param("c1", 10**400, id="c1-10**400"),
        pytest.param("a0", 10**400, id="a0-10**400"),
        pytest.param("gain", -10**400, id="gain--10**400"),
        pytest.param("stokes_in", [1.0, 10**400, 0.0],
                     id="stokes_in-10**400"),
    ])
    def test_physics_value_outside_domain_rejected(self, tmp_path, key,
                                                   value):
        path = write_config(tmp_path, physics={key: value}, analyses=[
            "rho-coefficients", "stokes-map", "memory-protocol"])
        with pytest.raises(ConfigInvalid, match=f"physics.{key}"):
            load_config(path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert not out.exists()


    @pytest.mark.parametrize("name", ["kappa", "n_atoms", "detuning"])
    def test_bool_scenario_value_rejected(self, tmp_path, name):
        path = write_config(tmp_path, analyses=["regime"],
                            scenario={**BASE_CONFIG["scenario"],
                                      name: True})
        with pytest.raises(ConfigInvalid, match=name):
            load_config(path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("output_dir", [5, ["a"], None, True, "",
                                            "a\u0000b"])
    def test_output_dir_not_a_path_rejected(self, tmp_path, monkeypatch,
                                            capsys, output_dir):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, analyses=["rho-coefficients"],
                            output_dir=output_dir)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir must be")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("out", ["", "a\u0000b"])
    def test_out_not_a_path_rejected(self, tmp_path, monkeypatch, capsys,
                                     command, out):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, analyses=["rho-coefficients"])
        extra = ["--param", "physics.a1", "--values", "0.1,0.2"] \
            if command == "sweep" else []
        assert main(["--out", out, command, str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir must be")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_out_stays_out_of_the_hash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, analyses=["stokes-map"])
        assert main(["run", str(path)]) == 0
        assert main(["--out", "elsewhere", "run", str(path)]) == 0
        first, second = (json.loads((tmp_path / d / "summary.json")
                                    .read_text())["config_hash"]
                         for d in ("out", "elsewhere"))
        assert first == second

    @pytest.mark.parametrize("command, extra, name", [
        ("run", [], "stokes-map.csv"),
        ("sweep", ["--param", "physics.beta", "--values", "1e-3,2e-3"],
         "sweep_physics_beta.csv"),
    ], ids=["run", "sweep"])
    def test_output_dir_stays_out_of_the_hash(self, tmp_path, monkeypatch,
                                              command, extra, name):
        monkeypatch.chdir(tmp_path)
        heads = []
        for output_dir in ("out", "b"):
            path = write_config(tmp_path, analyses=["stokes-map"],
                                output_dir=output_dir)
            assert main([command, str(path)] + extra) == 0
            heads.append((tmp_path / output_dir / name).read_text()
                         .splitlines()[:3])
        assert heads[0] == heads[1]


class TestUnwritableOutput:
    """Output that cannot be written exits 2 or 3 and leaves no directory."""

    @staticmethod
    def argv(out, command, path, values="0.1,0.2"):
        extra = ["--param", "physics.a1", "--values", values] \
            if command == "sweep" else []
        return ["--out", str(out), command, str(path)] + extra

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("under", [False, True],
                             ids=["file", "under-file"])
    def test_output_path_blocked_by_file(self, tmp_path, capsys, command,
                                         under):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        path = write_config(tmp_path, analyses=["rho-coefficients"])
        out = blocker / "out" if under else blocker
        assert main(self.argv(out, command, path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output:") and str(blocker) in err
        assert err.count("\n") == 1
        assert blocker.read_text() == "x"

    def test_failing_analysis_run_writes_nothing(self, tmp_path):
        # stokes-map succeeds; rho-coefficients then fails on a0 = 1e-125.
        path = write_config(tmp_path,
                            analyses=["stokes-map", "rho-coefficients"],
                            physics={"a0": 1e-125, "a1": 0.0})
        out = tmp_path / "out"
        assert main(self.argv(out, "run", path)) == 3
        assert not out.exists()

    def test_failing_point_sweep_writes_nothing(self, tmp_path):
        # a1 = a0 is outside 0 <= a1 < a0: the second point fails.
        path = write_config(tmp_path, analyses=["rho-coefficients"])
        out = tmp_path / "out"
        assert main(self.argv(out, "sweep", path, "0.3,1.0")) == 3
        assert not out.exists()


def quiet_main(argv):
    """main's return code, with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


class TestFiniteCells:
    """stokes-map and memory-protocol write finite cells or exit 3."""

    @pytest.mark.parametrize("physics", [
        {"beta": 1e300, "column_rho_jz": 1e300},
        {"beta": 1e100, "column_rho_jz": 1e50},
        {"beta": 1.0, "column_rho_jz": 1e3, "stokes_in": [1e300, 1e300, 0.0]},
    ], ids=["phi-inf", "phi-squared", "s-times-phi"])
    def test_stokes_overflow_exits_3(self, tmp_path, capsys, physics):
        path = write_config(tmp_path, analyses=["stokes-map"],
                            physics=physics)
        out = tmp_path / "out"
        assert quiet_main(["--out", str(out), "run", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("analysis error: no finite result at "
                              "physics.c1 = 1.0, physics.beta = ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kappa", [
        5e-324, -5e-324, 1e-310, 1e78, 1e100, 1e153, 1e160, 1e200, -1e300])
    def test_memory_overflow_exits_3(self, tmp_path, capsys, kappa):
        # -1/kappa (the gain) overflows below about 5.6e-309; the
        # conditioning's outer product holds (kappa**2 / 2)**2.
        path = write_config(tmp_path, analyses=["memory-protocol"],
                            scenario={**BASE_CONFIG["scenario"],
                                      "kappa": kappa})
        out = tmp_path / "out"
        assert quiet_main(["--out", str(out), "run", str(path)]) == 3
        assert capsys.readouterr().err == ("analysis error: no finite result "
                                           f"at scenario.kappa = {kappa!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("name, section, values", [
        ("memory-protocol", "scenario",
         [{"kappa": k} for k in (1e-300, -1e-200, 0.0, 1.0, 1e8, 1e77,
                                 -1e77)]),
        ("stokes-map", "physics",
         ({"beta": 1e300, "column_rho_jz": 1e-300},
          {"beta": 1e3, "column_rho_jz": 1e-4},
          {"beta": -1e300, "column_rho_jz": 1e300, "c1": 0.0},
          {"beta": 1e-300, "column_rho_jz": 1e-300,
           "stokes_in": [1e300, -1e300, 1.0]})),
    ])
    def test_finite_results_keep_their_bits(self, tmp_path, name, section,
                                            values):
        runner = cli._RUNNERS[name]
        for value in values:
            cfg = full_config(tmp_path)
            cfg[section].update(value)
            metrics, rows, _ = runner(cfg, {})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                unchecked = runner.__wrapped__.__wrapped__(cfg)
            assert (metrics, rows) == unchecked[:2], value
            assert all(np.isfinite(v) for v in rows[0]), value
            assert np.array(rows[0]).tobytes() \
                == np.array(unchecked[1][0]).tobytes()


@st.composite
def a0_a1_pairs(draw):
    """physics.a0 and a1 from the whole float range, with pairs near the
    edges of 0 <= a1 < a0 and near DBL_MAX."""
    anywhere = st.floats() | st.floats(1e300, 1.7976931348623157e308)
    a0 = draw(anywhere)
    a1 = draw(anywhere | st.floats(0.0, 1.0).map(lambda f: f * a0)
              | st.just(math.nextafter(a0, -math.inf)))
    return a0, a1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=a0_a1_pairs())
@example(pair=(1.7976931348623157e308, 1.7976931348623155e308))
@example(pair=(1.7976931348623157e308, 0.0))
@example(pair=(5e-324, 0.0))
@example(pair=(1e-125, 0.0))
@example(pair=(1e124, 3e123))
@example(pair=(1.0, 1.0))
@example(pair=(1.0, -5e-324))
@example(pair=(-1.0, -2.0))
@example(pair=(1e308, 1e-310))
def test_rho_coefficients_writes_finite_cells_or_exits(pair):
    """Each run exits 0 with every cell finite, or exits 2 or 3 with one
    stderr line and no output directory."""
    a0, a1 = pair
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({"analyses": ["rho-coefficients"],
                                    "physics": {"a0": a0, "a1": a1}}))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = quiet_main(["--out", str(out), "run", str(path)])
        if code == 0:
            assert err.getvalue() == ""
            (row,) = read_csv_rows(out / "rho-coefficients.csv")
            assert all(math.isfinite(float(v)) for v in row.values()), row
        else:
            assert code in (2, 3), pair
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert not out.exists()


DBL_MAX = 1.7976931348623157e308
# Any float, NaN and +-inf included, with more draws of large and of
# moderate magnitude.
ANY_FLOAT = (st.floats() | st.floats(1e150, DBL_MAX)
             | st.floats(-DBL_MAX, -1e150) | st.floats(-1e3, 1e3))


def run_one(tmp, cfg):
    """Exit code, stderr and output directory of a run of cfg under tmp,
    with every warning raised as an error."""
    path = Path(tmp) / "config.json"
    path.write_text(json.dumps(cfg))
    out = Path(tmp) / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = quiet_main(["--out", str(out), "run", str(path)])
    return code, err.getvalue(), out


def check_finite_or_exits(code, err, out, name, invalid, given):
    """Exit 0 with every cell of name.csv finite, 3 with one line naming
    the analysis's _finite paths as given, or 2 iff the config is invalid;
    a run that fails writes no output directory."""
    if code == 0:
        assert err == ""
        (row,) = read_csv_rows(out / f"{name}.csv")
        assert all(math.isfinite(float(v)) for v in row.values()), row
        return
    assert code in (2, 3), (code, err)
    assert (code == 2) == invalid, err
    assert err.count("\n") == 1, err
    if code == 3:
        assert err == f"analysis error: no finite result at {given}\n"
    assert not out.exists()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(c1=ANY_FLOAT, beta=ANY_FLOAT, column=ANY_FLOAT, k=ANY_FLOAT,
       stokes_in=st.lists(ANY_FLOAT, min_size=3, max_size=3))
@example(c1=1.0, beta=1e300, column=1e300, k=7.4e6, stokes_in=[1.0, 0, 0])
@example(c1=1.0, beta=1e154, column=1e-6, k=1.0, stokes_in=[1.0, 0, 0])
@example(c1=0.0, beta=1e300, column=1e300, k=1e300, stokes_in=[1.0, 0, 0])
@example(c1=1.0, beta=1.0, column=1.0, k=1.0, stokes_in=[DBL_MAX, DBL_MAX, 0])
@example(c1=-DBL_MAX, beta=DBL_MAX, column=5e-324, k=5e-324,
         stokes_in=[1.0, 0, 0])
@example(c1=1.0, beta=1.0, column=1.0, k=0.0, stokes_in=[1.0, 0, 0])
def test_stokes_map_writes_finite_cells_or_exits(c1, beta, column, k,
                                                 stokes_in):
    physics = {"c1": c1, "beta": beta, "column_rho_jz": column,
               "stokes_in": stokes_in}
    invalid = not all(map(math.isfinite, [c1, beta, column, k, *stokes_in])) \
        or not k > 0
    given = ", ".join(f"physics.{key} = {value!r}"
                      for key, value in physics.items()) + f", modes.k = {k!r}"
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = run_one(tmp, {"analyses": ["stokes-map"],
                                       "physics": physics, "modes": {"k": k}})
        check_finite_or_exits(code, err, out, "stokes-map", invalid, given)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kappa=ANY_FLOAT, gain=st.none() | ANY_FLOAT)
@example(kappa=5e-324, gain=None)
@example(kappa=1e-310, gain=None)
@example(kappa=0.0, gain=None)
@example(kappa=-0.0, gain=DBL_MAX)
@example(kappa=1e77, gain=-DBL_MAX)
@example(kappa=1e78, gain=None)
@example(kappa=-DBL_MAX, gain=1.0)
@example(kappa=math.inf, gain=None)
@example(kappa=1.0, gain=math.nan)
def test_memory_protocol_writes_finite_cells_or_exits(kappa, gain):
    invalid = not math.isfinite(kappa) \
        or gain is not None and not math.isfinite(gain)
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = run_one(tmp, {
            "analyses": ["memory-protocol"], "physics": {"gain": gain},
            "scenario": {**BASE_CONFIG["scenario"], "kappa": kappa}})
        check_finite_or_exits(code, err, out, "memory-protocol", invalid,
                              f"scenario.kappa = {kappa!r}")


def run_pointgas(tmp, size, delta_k):
    """Exit code, stderr and warnings of a small pointgas run under tmp."""
    path = Path(tmp) / "config.json"
    path.write_text(json.dumps({
        "analyses": ["pointgas"],
        "pointgas": {"n_atoms": 5, "n_clouds": 16, "size": size,
                     "delta_k": delta_k}}))
    out = Path(tmp) / "out"
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as seen, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["--out", str(out), "run", str(path)])
    return code, err.getvalue(), seen, out


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_pointgas_overflow_exits_3_at_any_thread_count(monkeypatch, tmp_path,
                                                       threads):
    # Blocks of one cloud: 16 blocks over `threads` threads.
    monkeypatch.setattr(pointgas, "_thread_count", lambda: threads)
    monkeypatch.setattr(pointgas, "_BLOCK_ATOMS", 5)
    for profile in pointgas.PROFILES:
        code, err, seen, out = run_pointgas(tmp_path, 1e300, [1e10, 0, 0])
        assert code == 3
        assert err == ("analysis error: no finite result at pointgas.size "
                       "= 1e+300, pointgas.delta_k = [10000000000.0, 0, 0]\n")
        assert not seen
        assert not out.exists()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(size=st.floats() | st.floats(1e150, 1.7976931348623157e308),
       delta_k=st.lists(st.floats() | st.sampled_from([0.0, 1.0, -1e300]),
                        min_size=3, max_size=3))
@example(size=1e300, delta_k=[1e10, 0.0, 0.0])
@example(size=1.7976931348623157e308, delta_k=[0.0, 0.0, 0.0])
@example(size=1e200, delta_k=[1e-200, -1e-200, 5e-324])
@example(size=5e-324, delta_k=[1.7976931348623157e308, 0.0, 0.0])
@example(size=1.0, delta_k=[1e308, 1e308, 0.0])
def test_pointgas_writes_finite_cells_or_exits(size, delta_k):
    """Each run, drawn on four threads, exits 0 with every cell finite or
    3 with one stderr line and no output directory, and prints no
    warning; it exits 2 only where the config is invalid."""
    invalid = not (math.isfinite(size) and size > 0) \
        or not all(map(math.isfinite, delta_k))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(pointgas, "_thread_count", lambda: 4), \
            mock.patch.object(pointgas, "_BLOCK_ATOMS", 10):
        code, err, seen, out = run_pointgas(tmp, size, delta_k)
        assert not seen, [str(w.message) for w in seen]
        if code == 0:
            assert err == ""
            (row,) = read_csv_rows(out / "pointgas.csv")
            assert all(math.isfinite(float(v)) for v in row.values()), row
        else:
            assert code in (2, 3), (size, delta_k)
            assert (code == 2) == invalid
            assert err.count("\n") == 1, err
            if code == 3:
                assert "pointgas.size" in err and "pointgas.delta_k" in err
            assert not out.exists()


def csv_writer_line(row):
    """The line csv.writer writes for row, each value first formatted to
    17 significant digits if a float, else by str."""
    buf = io.StringIO()
    csv.writer(buf).writerow(
        [format(v, ".17g") if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()


CELL_VALUES = (st.floats(allow_subnormal=True)
               | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                                  5e-324, -2.2250738585072014e-308])
               | st.integers() | st.booleans()
               | st.text(st.sampled_from('ab ,"\r\n;\'\t()0')))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(row=st.lists(CELL_VALUES, min_size=1, max_size=8))
@example(row=["fresnel(0,0)", 1.0, True, 3])
@example(row=['say "hi"', "", "a\r\nb", "x\ry", "\n"])
@example(row=["", ""])
def test_cell_joins_to_csv_writer_line(row):
    # csv.writer writes a row of one empty field as "" so that it reads
    # back as a row; no CLI row is a single empty string.
    assume(row != [""])
    assert ",".join(map(_cell, row)) + "\r\n" == csv_writer_line(row)


def float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(v=st.floats(allow_subnormal=True)
       | st.integers(0, 2**64 - 1).map(float_of_bits)
       | st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0,
                          -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                          DBL_MAX, -DBL_MAX, 0.1, 1e16, 1e17, 123456789.0]))
@example(v=float_of_bits(0x7FF8000000000001))  # a NaN with a payload
@example(v=float_of_bits(0xFFF0000000000001))
def test_percent_format_of_a_float_is_its_17_digit_format(v):
    for x in (v, np.float64(v)):
        assert "%.17g" % x == format(x, ".17g") == format(float(x), ".17g")
        assert _cell(x) == format(float(x), ".17g")


class TestUnreadableInput:
    """Input that is not a config or a number list exits 2, writing nothing."""

    @pytest.mark.parametrize("values, entry", [
        ("0.1,abc", "'abc'"), ("0.1,,0.2", "''"), (",", "''"),
        ("0.1,1e", "'1e'")])
    def test_bad_values_entry(self, tmp_path, capsys, values, entry):
        path = write_config(tmp_path, analyses=["rho-coefficients"])
        out = tmp_path / "out"
        assert main(["--out", str(out), "sweep", str(path), "--param",
                     "physics.a1", "--values", values]) == 2
        assert f"--values entry is not a number: {entry}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_directory_config(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        extra = ["--param", "physics.a1", "--values", "0.1"] \
            if command == "sweep" else []
        assert main(["--out", str(out), command, str(tmp_path)] + extra) == 2
        assert f"cannot read config file {tmp_path}" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_literal_beyond_conversion_limit(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"analyses": ["stokes-map"], "physics": {"c1": 1'
                        + "0" * 5000 + "}}")
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert "config cannot be read as JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("data", [b"\xff\xfe{", b'{"seed": "\xe9"}'])
    def test_config_not_utf8(self, tmp_path, capsys, data):
        path = tmp_path / "config.json"
        path.write_bytes(data)
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 2
        assert f"config is not UTF-8: {path}" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_empty_analyses_summary_only(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["analyses"] == {}
        assert summary["seed"] == 11
        assert "config_hash" in summary

    def test_regime_analysis(self, tmp_path):
        path = write_config(tmp_path, analyses=["regime"])
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["analyses"]["regime"]["light_passed"] == 1
        rows = read_csv_rows(out / "regime.csv")
        assert all(r["passed"] == "1" for r in rows if r["group"] == "light")

    def test_header_block(self, tmp_path):
        path = write_config(tmp_path, analyses=["rho-coefficients"])
        out = tmp_path / "out"
        main(["--out", str(out), "run", str(path)])
        head = (out / "rho-coefficients.csv").read_text().splitlines()[:3]
        assert head[0].startswith("# config_hash=")
        assert head[1] == "# seed=11"
        assert head[2].startswith("# versions=atomlight")

    def test_deterministic_outputs(self, tmp_path):
        path = write_config(tmp_path, analyses=["pointgas", "rho-coefficients"])
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["--out", str(out1), "run", str(path)])
        main(["--out", str(out2), "run", str(path)])
        for name in ("pointgas.csv", "rho-coefficients.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_pointgas(self, tmp_path):
        path = write_config(tmp_path, analyses=["pointgas"],
                            pointgas={"n_atoms": 50, "n_clouds": 16,
                                      "profile": "box", "size": 1.0,
                                      "delta_k": [40.0, 0.0, 0.0]})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["--out", str(out1), "--seed", "1", "run", str(path)])
        main(["--out", str(out2), "--seed", "2", "run", str(path)])
        r1 = read_csv_rows(out1 / "pointgas.csv")[0]["raw_mean"]
        r2 = read_csv_rows(out2 / "pointgas.csv")[0]["raw_mean"]
        assert r1 != r2

    def test_seventeen_digit_roundtrip(self, tmp_path):
        path = write_config(tmp_path, analyses=["rho-coefficients"],
                            physics={"a0": 1.3, "a1": 0.45})
        out = tmp_path / "out"
        main(["--out", str(out), "run", str(path)])
        row = read_csv_rows(out / "rho-coefficients.csv")[0]
        from atomlight.propagator import short_propagator_closed
        expect = short_propagator_closed(1.3, 0.45, 1.0).rho_par
        assert float(row["rho_par_closed"]) == expect

    def test_pointgas_run_builds_no_object_per_stream(self, tmp_path,
                                                      monkeypatch):
        philox, spawns = [], []
        philox_class = np.random.Philox

        def counting_philox(*args, **kwargs):
            philox.append(args)
            return philox_class(*args, **kwargs)

        class CountingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                spawns.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        path = write_config(tmp_path, analyses=["pointgas"],
                            pointgas={"n_atoms": 10, "n_clouds": 1000})
        assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == 0
        assert spawns == []
        assert 1 <= len(philox) <= pointgas._thread_count()


    @pytest.mark.parametrize("profile", pointgas.PROFILES)
    @pytest.mark.parametrize("n_atoms, n_clouds", [(100, 64), (20000, 17)])
    def test_pointgas_row_is_density_correlation(self, tmp_path, profile,
                                                 n_atoms, n_clouds):
        dk = [3.0, -1.0, 0.5]
        path = write_config(tmp_path, analyses=["pointgas"], pointgas={
            "n_atoms": n_atoms, "n_clouds": n_clouds, "profile": profile,
            "size": 1.7, "delta_k": dk})
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 0
        clouds = sample_clouds(n_atoms, profile, 1.7, stream_keys(11, n_clouds))
        est = CorrelationEstimate.from_sums(scattering_sums(clouds, dk),
                                            n_atoms, dk)
        expect = {**dict(zip(("dk_x", "dk_y", "dk_z"), est.delta_k)),
                  "n_atoms": est.n_atoms, "n_clouds": est.n_batches,
                  **{k: getattr(est, k) for k in (
                      "raw_mean", "raw_sem", "corrected_mean",
                      "corrected_sem", "self_term")}}
        assert read_csv_rows(out / "pointgas.csv") \
            == [{k: _cell(v) for k, v in expect.items()}]

    def test_pointgas_run_holds_no_batch(self, tmp_path, monkeypatch):
        n_atoms, n_clouds = 2000, 512
        batch_bytes = n_atoms * n_clouds * 3 * 8
        monkeypatch.setattr(pointgas, "_thread_count", lambda: 2)
        path = write_config(tmp_path, analyses=["pointgas"], pointgas={
            "n_atoms": n_atoms, "n_clouds": n_clouds})
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(["--out", str(tmp_path / "out"), "run",
                         str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < batch_bytes / 4


    @pytest.mark.parametrize("a0", [1e-125, 1e-200])
    def test_unrepresentable_triple_exits_3(self, tmp_path, capsys, a0):
        path = write_config(tmp_path, analyses=["rho-coefficients"],
                            physics={"a0": a0, "a1": 0.0})
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 3
        assert "analysis error" in capsys.readouterr().err
        assert not (out / "rho-coefficients.csv").exists()


class TestSweepAnalysisErrors:
    """A runner's error at a later point fails the sweep as at the first."""

    @pytest.mark.parametrize("error, message", [
        (ZeroDivisionError("boom"),
         "analysis error: analysis 'rho-coefficients' failed: boom\n"),
        (OutsideDomain("not here"), "analysis error: not here\n"),
    ], ids=["other-error", "atomlight-error"])
    def test_error_at_a_later_point(self, tmp_path, monkeypatch, capsys,
                                    error, message):
        rho = cli._RUNNERS["rho-coefficients"]

        @functools.wraps(rho)
        def failing(cfg, memo):
            if cfg["physics"]["a1"] == 0.5:
                raise error
            return rho(cfg, memo)

        monkeypatch.setitem(cli._RUNNERS, "rho-coefficients", failing)
        path = write_config(tmp_path, analyses=["stokes-map",
                                                "rho-coefficients", "regime"])
        out = tmp_path / "out"
        assert main(["--out", str(out), "sweep", str(path), "--param",
                     "physics.a1", "--values", "0.1,0.2,0.5,0.6"]) == 3
        assert capsys.readouterr().err == message
        assert not out.exists()
        cfg = load_config(path)
        with pytest.raises(AtomLightError) as info:
            sweep(cfg, "physics.a1", [0.1, 0.5], out)
        if isinstance(error, AtomLightError):
            assert info.value is error
        else:
            assert type(info.value) is AnalysisFailed
            assert info.value.__cause__ is error
        assert not out.exists()


class TestSweep:
    def test_kappa_sweep_memory_variance(self, tmp_path):
        path = write_config(tmp_path, analyses=["memory-protocol"])
        out = tmp_path / "out"
        rc = main(["--out", str(out), "sweep", str(path),
                   "--param", "scenario.kappa", "--values", "0,0.5,1"])
        assert rc == 0
        rows = read_csv_rows(out / "sweep_scenario_kappa.csv")
        got = [float(r["memory-protocol.var_XA_out"]) for r in rows]
        assert got == pytest.approx([0.5, 0.625, 1.0], abs=1e-14)

    def test_empty_values(self, tmp_path):
        path = write_config(tmp_path, analyses=["memory-protocol"])
        out = tmp_path / "out"
        rc = main(["--out", str(out), "sweep", str(path),
                   "--param", "scenario.kappa", "--values", ""])
        assert rc == 0
        rows = read_csv_rows(out / "sweep_scenario_kappa.csv")
        assert rows == []

    def test_bad_parameter_path(self, tmp_path):
        path = write_config(tmp_path, analyses=[])
        rc = main(["sweep", str(path), "--param", "scenario.no_such",
                   "--values", "1"])
        assert rc == 2

    def test_bad_parameter_path_writes_nothing(self, tmp_path):
        path = write_config(tmp_path, analyses=[])
        out = tmp_path / "o"
        rc = main(["--out", str(out), "sweep", str(path),
                   "--param", "scenario.no_such", "--values", "1"])
        assert rc == 2
        assert not out.exists()

    def test_hash_names_the_value_list(self, tmp_path):
        path = write_config(tmp_path, analyses=["memory-protocol"])
        hashes = set()
        for i, values in enumerate(("0,0.5", "1,0.5", "0.5")):
            out = tmp_path / f"o{i}"
            assert main(["--out", str(out), "sweep", str(path),
                         "--param", "scenario.kappa", "--values", values]) == 0
            head = (out / "sweep_scenario_kappa.csv").read_text().splitlines()[0]
            assert head.startswith("# config_hash=")
            hashes.add(head)
        assert len(hashes) == 3

    def test_repeat_sweep_identical_bytes(self, tmp_path):
        path = write_config(tmp_path, analyses=["memory-protocol", "regime"])
        outs = [tmp_path / "o1", tmp_path / "o2"]
        for out in outs:
            assert main(["--out", str(out), "sweep", str(path), "--param",
                         "scenario.kappa", "--values", "0,0.5,1"]) == 0
        a, b = (out / "sweep_scenario_kappa.csv" for out in outs)
        assert a.read_bytes() == b.read_bytes()

    def test_caller_config_unchanged(self, tmp_path):
        cfg = load_config(write_config(tmp_path, analyses=["rho-coefficients"]))
        before = copy.deepcopy(cfg)
        sweep(cfg, "physics.a1", [0.1, 0.7], tmp_path / "out")
        assert cfg == before

    @pytest.mark.parametrize("analysis, param, values", [
        ("pointgas", "seed", "1.5"),
        ("pointgas", "seed", "1.5,-1"),
        ("pointgas", "seed", "3,-1"),
        ("pointgas", "pointgas.n_atoms", "10.5"),
        ("memory-protocol", "scenario.kappa", "nan,inf"),
        ("memory-protocol", "scenario.kappa", "0.5,nan"),
        ("pointgas", "pointgas.size", "1.0,-1.0"),
        ("pointgas", "pointgas.size", "0.5,nan"),
        ("pointgas", "pointgas.size", "inf"),
        ("pointgas", "pointgas.profile", "1.0"),
        ("rho-coefficients", "physics.a0", "1.0,inf"),
        ("stokes-map", "physics.beta", "nan"),
        ("memory-protocol", "physics.gain", "0.5,inf"),
        ("stokes-map", "modes.k", "1.0,inf"),
        ("pointgas", "pointgas.n_clouds", "16,4294967297"),
        ("pointgas", "pointgas.n_clouds", "16,1e30"),
        ("pointgas", "pointgas.n_atoms", "10,9223372036854775808"),
        ("pointgas", "pointgas.n_atoms", "10,1e30"),
        ("rho-coefficients", "modes.max_order", "2,150"),
        ("rho-coefficients", "modes.max_order", "2,1e30"),
        ("rho-coefficients", "physics.a1", "0.3,nan"),
    ])
    def test_bad_point_writes_nothing(self, tmp_path, analysis, param, values):
        path = write_config(tmp_path, analyses=[analysis])
        out = tmp_path / "out"
        assert main(["--out", str(out), "sweep", str(path), "--param", param,
                     "--values", values]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("analysis, param, values, message", [
        ("rho-coefficients", "modes.max_order", "2,1e30",
         "modes.max_order must be an integer in [0, 150): 1e+30"),
        ("pointgas", "pointgas.n_clouds", "16,4294967297",
         "pointgas.n_clouds must be an integer in [16, 4294967297): "
         "4294967297.0"),
        ("pointgas", "seed", "3,-1",
         "seed must be an integer in [0, 18446744073709551616): -1.0"),
    ], ids=["max_order", "n_clouds", "seed"])
    def test_bad_integer_point_names_the_entry(self, tmp_path, capsys,
                                               analysis, param, values,
                                               message):
        # The entry as its float, not the int it converts to: 1e30 is not
        # named 1000000000000000019884624838656.
        path = write_config(tmp_path, analyses=[analysis])
        out = tmp_path / "out"
        assert main(["--out", str(out), "sweep", str(path), "--param", param,
                     "--values", values]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_bad_density_point_writes_nothing(self, tmp_path, capsys):
        # BASE_CONFIG has no density, and a sweep only sets existing keys.
        path = write_config(tmp_path, analyses=["regime"],
                            scenario={**BASE_CONFIG["scenario"],
                                      "density": 1e17})
        out = tmp_path / "out"
        assert main(["--out", str(out), "sweep", str(path), "--param",
                     "scenario.density", "--values", "1e17,nan"]) == 2
        assert "density must be" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_values_set_integer_fields(self, tmp_path):
        path = write_config(tmp_path, analyses=["pointgas"],
                            pointgas={"n_atoms": 20, "n_clouds": 16})
        out = tmp_path / "out"
        assert main(["--out", str(out), "sweep", str(path), "--param", "seed",
                     "--values", "3,4"]) == 0
        rows = read_csv_rows(out / "sweep_seed.csv")
        assert [r["seed"] for r in rows] == ["3", "4"]
        for seed, row in zip((3, 4), rows):
            single = tmp_path / f"run{seed}"
            assert main(["--out", str(single), "--seed", str(seed), "run",
                         str(path)]) == 0
            summary = json.loads((single / "summary.json").read_text())
            assert float(row["pointgas.raw_mean"]) \
                == summary["analyses"]["pointgas"]["raw_mean"]

    def test_gauss_legendre_rule_built_once(self, tmp_path, monkeypatch):
        builds = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(n):
            builds.append(n)
            return leggauss(n)

        propagator._gauss_legendre.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        path = write_config(tmp_path, analyses=["rho-coefficients"])
        values = ",".join(str(v) for v in np.linspace(0.0, 0.9, 50).tolist())
        assert main(["--out", str(tmp_path / "out"), "sweep", str(path),
                     "--param", "physics.a1", "--values", values]) == 0
        assert builds == [128]

    def test_non_scalar_path_rejected(self, tmp_path):
        cfg = load_config(write_config(tmp_path, analyses=[]))
        with pytest.raises(BadParameterPath):
            _resolve_path(cfg, "scenario")

    def test_a1_sweep_rho_gamma_monotone(self, tmp_path):
        path = write_config(tmp_path, analyses=["rho-coefficients"],
                            physics={"a0": 1.5})
        out = tmp_path / "out"
        rc = main(["--out", str(out), "sweep", str(path),
                   "--param", "physics.a1",
                   "--values", "0,0.1,0.2,0.3,0.4,0.5"])
        assert rc == 0
        rows = read_csv_rows(out / "sweep_physics_a1.csv")
        gammas = [float(r["rho-coefficients.rho_gamma_closed"]) for r in rows]
        devs = [float(r["rho-coefficients.max_rel_dev"]) for r in rows]
        assert gammas[0] == 0.0
        diffs = np.diff(gammas)
        assert np.all(diffs < 0.0) or np.all(diffs > 0.0)
        assert max(devs) < 1e-10

    def test_a1_sweep_oracle_exact_near_a0(self, tmp_path):
        path = write_config(tmp_path, analyses=["rho-coefficients"],
                            physics={"a0": 1.0})
        out = tmp_path / "out"
        assert main(["--out", str(out), "sweep", str(path), "--param",
                     "physics.a1", "--values", "0.9999,0.99999999"]) == 0
        rows = read_csv_rows(out / "sweep_physics_a1.csv")
        assert len(rows) == 2
        for row in rows:
            assert float(row["rho-coefficients.max_rel_dev"]) <= 1e-12, row

    def test_a1_sweep_below_float_range_of_a1_cubed(self, tmp_path):
        # a1**3 underflows to 0 below a1 ~ 1e-103; the closed form has no
        # power of a1 in a denominator, so the point runs like any other.
        path = write_config(tmp_path, analyses=["rho-coefficients"])
        out = tmp_path / "out"
        assert main(["--out", str(out), "sweep", str(path),
                     "--param", "physics.a1", "--values", "0.3,1e-110"]) == 0
        rows = read_csv_rows(out / "sweep_physics_a1.csv")
        assert len(rows) == 2
        gamma = float(rows[1]["rho-coefficients.rho_gamma_closed"])
        assert np.isfinite(gamma) and abs(gamma) <= 1e-100


def full_config(tmp_path):
    """Every analysis, a small point gas and every scenario field set."""
    return load_config(write_config(
        tmp_path, analyses=list(ANALYSES),
        scenario={**BASE_CONFIG["scenario"], "density": 1.3e15},
        physics={"column_rho_jz": 1e-4, "stokes_in": [0.3, -0.2, 0.9]},
        pointgas={"n_atoms": 50, "n_clouds": 16}))


class TestSweepReuse:
    """A sweep reuses an analysis result only while its inputs are unchanged."""

    @pytest.mark.parametrize("param, values", [
        ("physics.a1", [0.3, 0.3, 0.1, -0.0, 0.0, 0.3]),
        ("physics.a0", [1.0, 2.0, 2.0, 1.5, 1.0]),
        ("scenario.kappa", [0.0, -0.0, 0.5, 0.5, 1.0, 0.5]),
        ("modes.max_order", [0, 2, 2, 5, 2]),
        ("modes.k", [1e6, 7.4e6, 7.4e6, 1e6]),
        ("physics.gain", [0.5, -1.0, -1.0, 2.0, 0.5]),
        ("seed", [3, 3, 4, 3]),
    ])
    def test_rows_equal_analyses_without_reuse(self, tmp_path, param, values):
        cfg = full_config(tmp_path)
        out = tmp_path / "out"
        sweep(cfg, param, values, out)
        point = copy.deepcopy(cfg)
        node, key = _resolve_path(point, param)
        expected = io.StringIO()
        writer = csv.writer(expected)
        for value in values:
            node[key] = value
            row = {param: value}
            for name in ANALYSES:
                metrics, _, _ = _analyse(name, point, {})
                row.update((f"{name}.{k}", v) for k, v in metrics.items())
            if not expected.tell():
                writer.writerow(list(row))
            writer.writerow([_cell(v) for v in row.values()])
        text = (out / f"sweep_{param.replace('.', '_')}.csv").read_bytes()
        body = "".join(line for line in text.decode().splitlines(True)
                       if not line.startswith("#"))
        assert body == expected.getvalue()

    @pytest.mark.parametrize("name", ANALYSES)
    def test_declared_reads_suffice(self, tmp_path, name):
        cfg = full_config(tmp_path)
        runner = cli._RUNNERS[name]
        assert runner(cfg, {}) == runner.__wrapped__(cfg)

    def test_undeclared_read_fails(self, tmp_path, monkeypatch):
        @cli._reads("physics.a0")
        def _analysis_rho(cfg):
            return cfg["physics"]["a1"]

        monkeypatch.setitem(cli._RUNNERS, "rho-coefficients", _analysis_rho)
        with pytest.raises(AnalysisFailed, match="a1"):
            _analyse("rho-coefficients", full_config(tmp_path), {})

    def test_work_reused_within_one_sweep_only(self, tmp_path, monkeypatch):
        calls = Counter()
        for name in ("memory_protocol", "check_light_series",
                     "short_propagator_quadrature"):
            def counting(*args, _fn=getattr(cli, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(cli, name, counting)
        path = write_config(tmp_path, analyses=[
            "rho-coefficients", "stokes-map", "memory-protocol", "regime"])
        values = ",".join(str(v) for v in np.linspace(0.0, 0.9, 50).tolist())
        a1_sweep = ["--out", str(tmp_path / "a1"), "sweep", str(path),
                    "--param", "physics.a1", "--values", values]
        assert main(a1_sweep) == 0
        assert calls == {"memory_protocol": 1, "check_light_series": 1,
                         "short_propagator_quadrature": 50}
        assert main(a1_sweep) == 0
        assert calls["memory_protocol"] == 2
        calls.clear()
        assert main(["--out", str(tmp_path / "kappa"), "sweep", str(path),
                     "--param", "scenario.kappa", "--values", "0.5,1,0.5"]) == 0
        assert calls["memory_protocol"] == 3


# One call into atomlight that each analysis body makes once.
BODY_CALLS = ("short_propagator_quadrature", "paraxial_stokes_map",
              "memory_protocol", "density_correlation", "check_light_series")


def counting_bodies(monkeypatch):
    """Count the calls to each of BODY_CALLS made through cli."""
    calls = Counter()
    for name in BODY_CALLS:
        def counting(*args, _fn=getattr(cli, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(cli, name, counting)
    return calls


def fresh_memo_body(cfg, param, values):
    """The CSV body of a sweep that runs every analysis at every point."""
    point = copy.deepcopy(cfg)
    node, key = _resolve_path(point, param)
    lines = []
    for value in values:
        node[key] = value
        header, cells = [param], [_cell(value)]
        for name in cfg["analyses"]:
            metrics = _analyse(name, point, {})[0]
            header += (f"{name}.{k}" for k in metrics)
            cells += (_cell(v) for v in metrics.values())
        lines.append(cells)
    body = io.StringIO()
    csv.writer(body).writerows([header] + lines)
    return body.getvalue()


class TestSweptPathDecidesReuse:
    """A sweep re-evaluates only the analyses that read the swept path."""

    @pytest.mark.parametrize("param, values, every_point", [
        ("output_dir", ["a", "b", "a"], ()),
        ("scenario.n_photons", [1e8, 1e6, 1e10, 1e8], ("check_light_series",)),
        ("seed", [3, 3, 4, 3], ("density_correlation",)),
        ("scenario.kappa", [0.0, 0.5, -0.0, 1.0],
         ("memory_protocol", "check_light_series")),
    ])
    def test_reruns_only_readers_of_param(self, tmp_path, monkeypatch,
                                          param, values, every_point):
        cfg = full_config(tmp_path)
        out = tmp_path / "out"
        calls = counting_bodies(monkeypatch)
        sweep(cfg, param, values, out)
        assert calls == {name: len(values) if name in every_point else 1
                         for name in BODY_CALLS}
        text = (out / f"sweep_{param.replace('.', '_')}.csv").read_bytes()
        body = "".join(line for line in text.decode().splitlines(True)
                       if not line.startswith("#"))
        assert body == fresh_memo_body(cfg, param, values)


def scalar_paths(cfg):
    """Every dotted path of cfg that names a scalar field."""
    for name, value in cfg.items():
        if isinstance(value, dict):
            yield from (f"{name}.{key}" for key, v in value.items()
                        if not isinstance(v, (dict, list)))
        elif not isinstance(value, list):
            yield name


class TestSweepPointChecks:
    """Points after the first pass only their swept field's check."""

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), -1, 0, 1.5, "x",
        pytest.param(10**30, id="10**30")])
    def test_section_checks_agree_with_whole_check(self, tmp_path, bad):
        cfg = full_config(tmp_path)
        paths = list(scalar_paths(cfg))
        assert len(paths) == 24
        for i, param in enumerate(paths):
            point = copy.deepcopy(cfg)
            node, key = _resolve_path(point, param)
            first, node[key] = node[key], bad
            try:
                cli._check_values(point)
                expected = None
            except ConfigInvalid as exc:
                expected = str(exc)
            out = tmp_path / f"out{i}"
            try:
                sweep(cfg, param, [first, bad], out)
                got = None
            except ConfigInvalid as exc:
                got = str(exc)
            except AtomLightError:
                got = None  # a value that passes the checks may fail later
            assert got == expected, param
            assert expected is None or not out.exists(), param


class TestFieldRules:
    @staticmethod
    def load_empty(tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        return load_config(path)

    def test_every_default_passes_its_own_rule(self, tmp_path):
        cfg = self.load_empty(tmp_path)
        for dotted in cli._FIELDS:
            cli._check_field(cfg, dotted)

    def test_every_field_is_read_by_an_analysis(self):
        reads = [path for runner in cli._RUNNERS.values()
                 for path in runner.reads]
        for dotted in cli._FIELDS:
            if dotted not in ("output_dir", "analyses"):
                assert any(dotted == path or dotted.startswith(path + ".")
                           for path in reads), dotted

    def test_empty_config_loads_exactly_the_row_defaults(self, tmp_path):
        expected = {"scenario": None}
        for dotted, (default, _, _) in cli._FIELDS.items():
            section, _, key = dotted.rpartition(".")
            node = expected.setdefault(section, {}) if section else expected
            node[key] = default
        assert self.load_empty(tmp_path) == expected

    def test_loaded_config_does_not_alias_the_table(self, tmp_path):
        cfg = self.load_empty(tmp_path)
        cfg["analyses"].append("regime")
        cfg["physics"]["stokes_in"][0] = 0.5
        cfg["pointgas"]["delta_k"].clear()
        assert cli._FIELDS["analyses"][0] == []
        assert cli._FIELDS["physics.stokes_in"][0] == [1.0, 0.0, 0.0]
        assert cli._FIELDS["pointgas.delta_k"][0] == [60.0, 0.0, 0.0]
        assert self.load_empty(tmp_path)["analyses"] == []


def rho_fractions():
    """a1/a0 from 0 to the last float below 1: edges, interior, random."""
    rng = np.random.default_rng(19)
    return [0.0, 5e-324, 1e-310, 1e-300, 1e-110, 1e-7, 1e-3, 0.1, 0.3, 0.5,
            0.9, 1 - 1e-4, 1 - 1e-8, 1 - 1e-12, np.nextafter(1.0, 0.0),
            *rng.uniform(0.0, 1.0, 100), *10.0**rng.uniform(-16, 0, 50),
            *(1 - 10.0**rng.uniform(-16, 0, 50))]


class TestAnalysisRows:
    """Every analysis returns tuple rows in its fieldnames' order."""

    @pytest.mark.parametrize("a0", [1.0, 2.5, 1e-3, 7e4])
    def test_max_rel_dev_is_largest_per_entry_quotient(self, a0):
        for fraction in rho_fractions():
            a1 = min(float(fraction) * a0, float(np.nextafter(a0, 0.0)))
            cfg = {"physics": {"a0": a0, "a1": a1}}
            metrics = _analyse("rho-coefficients", cfg, {})[0]
            closed = propagator.short_propagator_closed(a0, a1, 1.0)
            quad = propagator.short_propagator_quadrature(a0, a1, 1.0)
            scale = max(map(abs, closed))
            expected = max(abs(x - y) / scale for x, y in zip(closed, quad))
            assert float(metrics["max_rel_dev"]).hex() \
                == float(expected).hex(), (a0, a1)

    # Where the closed triple is below 1e-300 (a0 above about 1e120), the
    # gap is relative to the largest closed entry itself, not to 1e-300.
    @pytest.mark.parametrize("a0, a1, low, high", [
        (1e122, 0.0, 6e-15, 7e-15),
        (1e126, 0.999999e126, 6e-14, 6.5e-14)])
    def test_max_rel_dev_below_1e_300(self, a0, a1, low, high):
        dev = _analyse("rho-coefficients",
                       {"physics": {"a0": a0, "a1": a1}}, {})[0]["max_rel_dev"]
        closed = propagator.short_propagator_closed(a0, a1, 1.0)
        quad = propagator.short_propagator_quadrature(a0, a1, 1.0)
        assert 0.0 < max(map(abs, closed)) < 1e-300
        assert low < dev < high
        assert dev == max(abs(x - y) for x, y in zip(closed, quad)) \
            / max(map(abs, closed))

    def test_max_rel_dev_of_triples_underflowing_to_zero(self):
        a0 = 1.7976931348623157e308
        a1 = math.nextafter(a0, 0.0)
        metrics, rows, _ = _analyse("rho-coefficients",
                                    {"physics": {"a0": a0, "a1": a1}}, {})
        assert rows[0][2:8] == (0.0,) * 6
        assert metrics["max_rel_dev"] == 0.0

    @pytest.mark.parametrize("name", ANALYSES)
    def test_rows_are_tuples_of_fieldnames_length(self, tmp_path, name):
        _, rows, fieldnames = _analyse(name, full_config(tmp_path), {})
        assert rows
        for row in rows:
            assert isinstance(row, tuple) and len(row) == len(fieldnames)

    def test_run_writes_one_cell_per_column(self, tmp_path):
        cfg = full_config(tmp_path)
        cli.run(cfg, tmp_path / "out")
        for name in ANALYSES:
            _, rows, fieldnames = _analyse(name, cfg, {})
            with open(tmp_path / "out" / f"{name}.csv", newline="") as fh:
                header, *lines = csv.reader(
                    line for line in fh if not line.startswith("#"))
            assert header == list(fieldnames), name
            assert len(lines) == len(rows), name
            assert all(len(line) == len(header) for line in lines), name


def run_python(*args):
    """A fresh interpreter that imports this atomlight, run with args."""
    src = str(Path(atomlight.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestModuleEntryPoint:
    def test_python_m_runs_without_runtime_warning(self):
        # runpy warns (RuntimeWarning) when the package imports atomlight.cli
        # before it is executed as __main__.
        proc = run_python("-W", "error::RuntimeWarning", "-m", "atomlight.cli",
                          "--help")
        assert proc.returncode == 0, proc.stderr
        assert "usage" in proc.stdout

    def test_runs_with_scipy_blocked(self, tmp_path):
        # A None entry in sys.modules makes every import of scipy fail.
        config = tmp_path / "five.json"
        config.write_text(json.dumps({
            **BASE_CONFIG, "analyses": list(ANALYSES),
            "pointgas": {"n_atoms": 10, "n_clouds": 16}}))
        run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
        proc = run_python("-c", "\n".join([
            "import sys",
            "sys.modules['scipy'] = None",
            "from atomlight import cli",
            f"assert cli.main(['--out', {str(run_out)!r}, 'run', "
            f"{str(config)!r}]) == 0",
            f"assert cli.main(['--out', {str(sweep_out)!r}, 'sweep', "
            f"{str(config)!r}, '--param', 'physics.a1', "
            "'--values', '0.1,0.5']) == 0",
            "assert sys.modules['scipy'] is None"]))
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in run_out.iterdir()) == sorted(
            [f"{name}.csv" for name in ANALYSES] + ["summary.json"])
        assert len(read_csv_rows(sweep_out / "sweep_physics_a1.csv")) == 2
        summary = json.loads((run_out / "summary.json").read_text())
        assert summary["versions"] == {
            "atomlight": atomlight.__version__, "numpy": np.__version__}

    @pytest.mark.parametrize("module", ["atomlight", "atomlight.cli"])
    def test_import_leaves_scipy_special_unloaded(self, module):
        # scipy.special costs more to import than the rest of atomlight.
        proc = run_python("-c", f"import sys, {module}; "
                          "print(sorted(m for m in sys.modules "
                          "if m.startswith('scipy.special')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
