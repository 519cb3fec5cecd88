"""Scenario runner: config-driven analyses with CSV/JSON artifacts.

Config schema (JSON; unknown keys anywhere are errors):

    {
      "seed": 1234,                      // u64; --seed overrides
      "output_dir": "out",               // --out overrides
      "analyses": ["regime", ...],       // any of ANALYSES below
      "scenario": {                      // regime checker operating point
        "kappa": 1.0, "n_photons": 1e8, "n_atoms": 1e6,
        "optical_depth": 30, "wavelength": 852e-9, "length": 0.03,
        "transverse_size": 1e-3, "detuning": 1e9, "linewidth": 3e7,
        "density": null                  // optional; enables OD cross-check
      },
      "modes": {"family": "hermite-gauss", "max_order": 2,
                "w0": 1e-3, "k": 7.4e6},
      "grid": {"points": 64, "extent_factor": 6.0},
      "physics": {"beta": 1e-3, "c0": 0.0, "c1": 1.0,
                  "a0": 1.0, "a1": 0.3, "column_rho_jz": 0.0,
                  "stokes_in": [1.0, 0.0, 0.0], "gain": null},
      "pointgas": {"n_atoms": 100, "n_clouds": 256, "profile": "box",
                   "size": 1.0, "delta_k": [60.0, 0.0, 0.0]}
    }

Exit codes: 0 success, 2 config error, 3 analysis error.  Outputs are
bit-identical for identical config and seed; every artifact starts with
a header block carrying the config hash, the seed, and the versions of
this package and its numeric dependencies.  The --threads flag bounds
worker concurrency; reductions are summed in deterministic order, so
results do not depend on it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dynamics import (GaussianState, QuadratureOrdering, apply_collective_map,
                       collective_map_matrix, memory_protocol,
                       paraxial_stokes_map, symplectic_form)
from .errors import AnalysisFailed, AtomLightError, BadParameterPath, ConfigInvalid
from .pointgas import density_correlation, sample_cloud, spawn_rngs
from .propagator import short_propagator_closed, short_propagator_quadrature
from .regime import (Scenario, check_fresnel_basis, check_light_series,
                     check_spin_series, fresnel_number)

ANALYSES = ("rho-coefficients", "stokes-map", "memory-protocol",
            "pointgas", "regime")

_SCHEMA = {
    "": {"seed", "output_dir", "analyses", "scenario", "modes", "grid",
         "physics", "pointgas"},
    "scenario": {"kappa", "n_photons", "n_atoms", "optical_depth",
                 "wavelength", "length", "transverse_size", "detuning",
                 "linewidth", "density"},
    "modes": {"family", "max_order", "w0", "k"},
    "grid": {"points", "extent_factor"},
    "physics": {"beta", "c0", "c1", "a0", "a1", "column_rho_jz",
                "stokes_in", "gain"},
    "pointgas": {"n_atoms", "n_clouds", "profile", "size", "delta_k"},
}

_DEFAULTS = {
    "seed": 0,
    "output_dir": "out",
    "analyses": [],
    "modes": {"family": "hermite-gauss", "max_order": 2, "w0": 1e-3,
              "k": 7.4e6},
    "grid": {"points": 64, "extent_factor": 6.0},
    "physics": {"beta": 1e-3, "c0": 0.0, "c1": 1.0, "a0": 1.0, "a1": 0.3,
                "column_rho_jz": 0.0, "stokes_in": [1.0, 0.0, 0.0],
                "gain": None},
    "pointgas": {"n_atoms": 100, "n_clouds": 256, "profile": "box",
                 "size": 1.0, "delta_k": [60.0, 0.0, 0.0]},
}


def _check_keys(section: str, data: dict) -> None:
    allowed = _SCHEMA[section]
    for key in data:
        if key not in allowed:
            where = f"{section}.{key}" if section else key
            raise ConfigInvalid(f"unknown config key: {where}")


def load_config(path) -> dict:
    """Parse and validate a run configuration file."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigInvalid(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    _check_keys("", raw)
    cfg = {}
    for key, default in _DEFAULTS.items():
        if isinstance(default, dict):
            sub = dict(default)
            user = raw.get(key, {})
            if not isinstance(user, dict):
                raise ConfigInvalid(f"{key} must be an object")
            _check_keys(key, user)
            sub.update(user)
            cfg[key] = sub
        else:
            cfg[key] = raw.get(key, default)
    if "scenario" in raw:
        _check_keys("scenario", raw["scenario"])
        cfg["scenario"] = dict(raw["scenario"])
    else:
        cfg["scenario"] = None

    if not isinstance(cfg["analyses"], list):
        raise ConfigInvalid("analyses must be a list")
    for name in cfg["analyses"]:
        if name not in ANALYSES:
            raise ConfigInvalid(f"unknown analysis: analyses.{name}")
    if int(cfg["grid"]["points"]) < 2:
        raise ConfigInvalid("grid.points must be at least 2")
    if cfg["modes"]["family"] != "hermite-gauss":
        raise ConfigInvalid("modes.family must be 'hermite-gauss'")
    if cfg["scenario"] is None and any(
            a in cfg["analyses"] for a in ("regime", "memory-protocol")):
        raise ConfigInvalid("scenario section required for requested analyses")
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _header_lines(cfg: dict) -> list:
    return [
        f"# config_hash={config_hash(cfg)}",
        f"# seed={cfg['seed']}",
        f"# versions=atomlight {__version__}; numpy {np.__version__}; "
        f"scipy {scipy.__version__}",
    ]


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path: Path, cfg: dict, fieldnames, rows) -> None:
    with open(path, "w", newline="") as fh:
        for line in _header_lines(cfg):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fieldnames])


def _write_json(path: Path, cfg: dict, payload: dict) -> None:
    record = {"config_hash": config_hash(cfg), "seed": cfg["seed"],
              "versions": {"atomlight": __version__,
                           "numpy": np.__version__,
                           "scipy": scipy.__version__}}
    record.update(payload)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Analyses: each returns (metrics_dict, rows, fieldnames) for CSV emission
# ---------------------------------------------------------------------------

def _analysis_rho(cfg: dict):
    ph = cfg["physics"]
    a0, a1 = float(ph["a0"]), float(ph["a1"])
    k_L = 1.0
    closed = short_propagator_closed(a0, a1, k_L)
    quad = short_propagator_quadrature(a0, a1, k_L)
    scale = max(abs(closed.rho_par), abs(closed.rho_perp),
                abs(closed.rho_gamma), 1e-300)
    devs = [abs(getattr(closed, name) - getattr(quad, name)) / scale
            for name in ("rho_par", "rho_perp", "rho_gamma")]
    row = {"a0": a0, "a1": a1,
           "rho_par_closed": closed.rho_par,
           "rho_perp_closed": closed.rho_perp,
           "rho_gamma_closed": closed.rho_gamma,
           "rho_par_quad": quad.rho_par,
           "rho_perp_quad": quad.rho_perp,
           "rho_gamma_quad": quad.rho_gamma,
           "max_rel_dev": max(devs)}
    return {"max_rel_dev": max(devs),
            "rho_gamma_closed": closed.rho_gamma}, [row], list(row)


def _analysis_stokes(cfg: dict):
    ph = cfg["physics"]
    phi = float(ph["c1"]) * float(ph["beta"]) * float(ph["column_rho_jz"]) \
        * float(cfg["modes"]["k"])
    s_in = tuple(float(v) for v in ph["stokes_in"])
    s_out = paraxial_stokes_map(s_in, phi)
    row = {"phi": phi,
           "s1_in": s_in[0], "s2_in": s_in[1], "s3_in": s_in[2],
           "s1_out": s_out[0], "s2_out": s_out[1], "s3_out": s_out[2]}
    return {"phi": phi, "s1_out": s_out[0], "s2_out": s_out[1],
            "s3_out": s_out[2]}, [row], list(row)


def _analysis_memory(cfg: dict):
    kappa = float(cfg["scenario"]["kappa"])
    gain = cfg["physics"].get("gain")
    ordering = QuadratureOrdering(n_light=1, n_atom=1)
    vac = GaussianState.vacuum(ordering)
    S = collective_map_matrix(ordering, kappa)
    omega = symplectic_form(ordering)
    sym_res = float(np.max(np.abs(S @ omega @ S.T - omega)))
    after = apply_collective_map(vac, kappa)
    var_xa = after.variance(ordering.X_A(0))
    if gain is None:
        gain = -1.0 / kappa if kappa != 0 else 0.0
    result = memory_protocol(vac, kappa, float(gain), outcome=0.0)
    var_pa_cond = result.state.variance(ordering.P_A(0))
    row = {"kappa": kappa, "var_XA_out": var_xa,
           "var_XA_expected": 0.5 + 0.5 * kappa**2,
           "var_PA_conditioned": var_pa_cond,
           "symplectic_residual": sym_res, "gain": float(gain)}
    return {"kappa": kappa, "var_XA_out": var_xa,
            "var_PA_conditioned": var_pa_cond,
            "symplectic_residual": sym_res}, [row], list(row)


def _analysis_pointgas(cfg: dict):
    pg = cfg["pointgas"]
    n_clouds = int(pg["n_clouds"])
    rngs = spawn_rngs(int(cfg["seed"]), n_clouds)
    clouds = [sample_cloud(int(pg["n_atoms"]), pg["profile"],
                           float(pg["size"]), rng) for rng in rngs]
    est = density_correlation(clouds, pg["delta_k"])
    row = {"dk_x": est.delta_k[0], "dk_y": est.delta_k[1],
           "dk_z": est.delta_k[2], "n_atoms": est.n_atoms,
           "n_clouds": est.n_batches,
           "raw_mean": est.raw_mean, "raw_sem": est.raw_sem,
           "corrected_mean": est.corrected_mean,
           "corrected_sem": est.corrected_sem,
           "self_term": est.self_term}
    return {"raw_mean": est.raw_mean, "raw_sem": est.raw_sem,
            "corrected_mean": est.corrected_mean}, [row], list(row)


def _analysis_regime(cfg: dict):
    sc = Scenario(**{k: v for k, v in cfg["scenario"].items()})
    light = check_light_series(sc)
    spin = check_spin_series(sc)
    F = fresnel_number(sc.wavelength, sc.transverse_size, sc.length)
    fres = check_fresnel_basis(F, int(cfg["modes"]["max_order"]))
    rows = []
    for group, report in (("light", light.checks), ("spin", spin.checks),
                          ("fresnel", fres)):
        for c in report:
            rows.append({"group": group, "name": c.name, "value": c.value,
                         "threshold": c.threshold,
                         "passed": int(c.passed), "margin": c.margin})
    metrics = {"light_passed": int(light.passed),
               "spin_passed": int(spin.passed),
               "fresnel_passed": int(all(c.passed for c in fres)),
               "fresnel_number": F}
    return metrics, rows, ["group", "name", "value", "threshold", "passed",
                           "margin"]


_RUNNERS = {
    "rho-coefficients": _analysis_rho,
    "stokes-map": _analysis_stokes,
    "memory-protocol": _analysis_memory,
    "pointgas": _analysis_pointgas,
    "regime": _analysis_regime,
}


def run(cfg: dict, out_dir) -> dict:
    """Execute the configured analyses; returns the summary payload."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"analyses": {}}
    for name in cfg["analyses"]:
        try:
            metrics, rows, fieldnames = _RUNNERS[name](cfg)
        except AtomLightError:
            raise
        except Exception as exc:
            raise AnalysisFailed(f"analysis {name!r} failed: {exc}") from exc
        _write_csv(out / f"{name}.csv", cfg, fieldnames, rows)
        summary["analyses"][name] = metrics
    _write_json(out / "summary.json", cfg, summary)
    return summary


def _resolve_path(cfg: dict, dotted: str):
    """Return (container, key) for a dotted scalar path like scenario.kappa."""
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise BadParameterPath(f"no such config section: {dotted}")
        node = node[part]
    key = parts[-1]
    if not isinstance(node, dict) or key not in node:
        raise BadParameterPath(f"no such config field: {dotted}")
    if isinstance(node[key], (dict, list)):
        raise BadParameterPath(f"{dotted} is not a scalar field")
    return node, key


def sweep(cfg: dict, param: str, values, out_dir) -> list:
    """Run the analyses once per parameter value; one CSV row per value."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    node, key = _resolve_path(cfg, param)
    rows = []
    fieldnames = [param]
    for value in values:
        node[key] = value
        row = {param: value}
        for name in cfg["analyses"]:
            try:
                metrics, _, _ = _RUNNERS[name](cfg)
            except AtomLightError:
                raise
            except Exception as exc:
                raise AnalysisFailed(f"analysis {name!r} failed: {exc}") from exc
            for mk, mv in metrics.items():
                col = f"{name}.{mk}"
                row[col] = mv
                if col not in fieldnames:
                    fieldnames.append(col)
        rows.append(row)
    safe = param.replace(".", "_")
    _write_csv(out / f"sweep_{safe}.csv", cfg, fieldnames,
               [{k: r.get(k, "") for k in fieldnames} for r in rows])
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomlight",
        description="Scenario runner for the atom-light interface numerics")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (u64)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker bound; results are independent of it")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the configured analyses")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="run analyses over parameter values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True,
                         help="dotted path of a scalar config field")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list of values")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        out_dir = args.out if args.out is not None else cfg["output_dir"]
        if args.command == "run":
            run(cfg, out_dir)
        else:
            values = [float(v) for v in args.values.split(",")] \
                if args.values else []
            sweep(cfg, args.param, values, out_dir)
    except (ConfigInvalid, BadParameterPath) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AtomLightError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
