"""Scenario runner: config-driven analyses with CSV/JSON artifacts.

Config schema (JSON; unknown keys anywhere are errors):

    {
      "seed": 1234,                      // int in [0, 2**64); --seed overrides
      "output_dir": "out",               // non-empty string, no NUL; --out overrides
      "analyses": ["regime", ...],       // any of ANALYSES below
      "scenario": {                      // regime.Scenario fields, checked at load
        "kappa": 1.0, "n_photons": 1e8, "n_atoms": 1e6,
        "optical_depth": 30, "wavelength": 852e-9, "length": 0.03,
        "transverse_size": 1e-3, "detuning": 1e9, "linewidth": 3e7,
        "density": null                  // optional, finite > 0; OD check
      },
      "modes": {"max_order": 2,          // int, 0 <= n <= 149 (MAX_ORDER)
                "k": 7.4e6},             // finite, > 0
      "physics": {"beta": 1e-3, "c1": 1.0,   // finite numbers
                  "a0": 1.0, "a1": 0.3,
                  "column_rho_jz": 0.0,
                  "stokes_in": [1.0, 0.0, 0.0],         // three finite numbers
                  "gain": null},                        // null or finite
      "pointgas": {"n_atoms": 100,       // int, 2 <= n < 2**63 (pairs)
                   "n_clouds": 256,      // int, 16 <= n <= 2**32
                   "profile": "box",     // "box" or "gaussian"
                   "size": 1.0,          // finite, > 0
                   "delta_k": [60.0, 0.0, 0.0]}   // three finite numbers
    }

Exit codes: 0 success, 2 config error or output that cannot be written,
3 analysis error.  A run or sweep computes every analysis before it
creates the output directory, so one that fails writes nothing; that
includes a stokes-map or memory-protocol result that overflows, which
exits 3 naming its inputs rather than writing an inf or NaN cell.
Outputs are bit-identical for identical config and seed; every artifact
starts with a header block carrying the config hash, the seed, and the
versions of atomlight and numpy, the one package it runs on.  A CSV
cell is a float to 17 significant digits or str of any other value,
quoted as the csv module's excel dialect quotes it; each line ends in
CRLF.  --out overrides output_dir, as --seed overrides seed, and
output_dir stays out of the config hash.  A sweep's hash covers the
base config, the swept parameter and the value list.  Every sweep
point is checked before any point runs (see sweep).  An integral value
such as 3.0 may set an integer field.  The swept path also decides
reuse: a sweep re-evaluates at each point only the analyses that
declare --param or a section holding it, and reuses every other
result, and its rendered cells, from the first point.  Each point
still calls every listed analysis's runner once, and a runner that
fails at a later point fails the sweep as at the first.
A --values entry that is not a number, a config path that cannot be
read as a file and a config that is not UTF-8 are config errors
(exit 2), like a bad config value.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (GaussianState, QuadratureOrdering, apply_collective_map,
                       collective_map_matrix, memory_protocol,
                       paraxial_stokes_map, symplectic_residual)
from .errors import (AnalysisFailed, AtomLightError, BadParameterPath,
                     ConfigInvalid, OutsideDomain)
from .modes import MAX_ORDER
from .pointgas import (MAX_STREAMS, MIN_BATCHES, PROFILES, density_correlation,
                       stream_keys)
from .propagator import short_propagator_closed, short_propagator_quadrature
from .regime import (Scenario, _is_finite, check_fresnel_basis,
                     check_light_series, check_spin_series, fresnel_number)

ANALYSES = ("rho-coefficients", "stokes-map", "memory-protocol",
            "pointgas", "regime")

def _check_keys(section: str, data, allowed) -> None:
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{section or 'config'} must be an object")
    for key in data:
        if key not in allowed:
            where = f"{section}.{key}" if section else key
            raise ConfigInvalid(f"unknown config key: {where}")


def _integer(low: int, high: int):
    """The rule and description of an integer field valid in [low, high)."""
    return range(low, high), f"an integer in [{low}, {high})"


_FINITE = _is_finite, "a finite number"
_POSITIVE = (lambda v: _is_finite(v) and v > 0), "a finite number > 0"
_TRIPLE = (lambda v: isinstance(v, list) and len(v) == 3
           and all(map(_is_finite, v))), "three finite numbers"

# Every config field but the scenario section, by dotted path, in file
# order: (default, rule, description of what the rule accepts).  An
# integer field's rule is its range of valid values, any other's a
# predicate.  n_atoms sizes a numpy axis (at most 2**63 - 1), n_clouds is
# a number of stream_keys streams, and max_order is the largest m + n of
# a HermiteGaussMode.
_FIELDS = {
    "seed": (0, *_integer(0, 2**64)),
    "output_dir": ("out", lambda v: isinstance(v, str) and v != ""
                   and "\0" not in v, "a non-empty string without NUL"),
    "analyses": ([], lambda v: isinstance(v, list), "a list"),
    "modes.max_order": (2, *_integer(0, MAX_ORDER + 1)),
    "modes.k": (7.4e6, *_POSITIVE),
    "physics.beta": (1e-3, *_FINITE), "physics.c1": (1.0, *_FINITE),
    "physics.a0": (1.0, *_FINITE), "physics.a1": (0.3, *_FINITE),
    "physics.column_rho_jz": (0.0, *_FINITE),
    "physics.stokes_in": ([1.0, 0.0, 0.0], *_TRIPLE),
    "physics.gain": (None, lambda v: v is None or _is_finite(v),
                     "null or a finite number"),
    "pointgas.n_atoms": (100, *_integer(2, 2**63)),
    "pointgas.n_clouds": (256, *_integer(MIN_BATCHES, MAX_STREAMS + 1)),
    "pointgas.profile": ("box", lambda v: v in PROFILES, f"one of {PROFILES}"),
    "pointgas.size": (1.0, *_POSITIVE),
    "pointgas.delta_k": ([60.0, 0.0, 0.0], *_TRIPLE),
}


def _passes(rule, value) -> bool:
    """Whether value passes a _FIELDS rule."""
    if isinstance(rule, range):
        # Test the type first: `in` scans a range for a non-int.
        return isinstance(value, int) and not isinstance(value, bool) \
            and value in rule
    return rule(value)


def _check_field(cfg: dict, path: str) -> None:
    """Raise ConfigInvalid unless the value at path passes its _FIELDS rule."""
    _, rule, want = _FIELDS[path]
    section, _, key = path.rpartition(".")
    value = (cfg[section] if section else cfg)[key]
    if not _passes(rule, value):
        raise ConfigInvalid(f"{path} must be {want}: {value!r}")


def _check_scenario(cfg: dict) -> None:
    if cfg["scenario"] is None:
        if any(a in cfg["analyses"] for a in ("regime", "memory-protocol")):
            raise ConfigInvalid(
                "scenario section required for requested analyses")
        return
    try:
        Scenario(**cfg["scenario"])
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"invalid scenario: {exc}") from exc


def _check_values(cfg: dict) -> None:
    """Value checks on a merged config, shared by load_config and sweep."""
    for path in _FIELDS:
        _check_field(cfg, path)
    for name in cfg["analyses"]:
        if name not in ANALYSES:
            raise ConfigInvalid(f"unknown analysis: analyses.{name}")
    _check_scenario(cfg)


def load_config(path) -> dict:
    """Parse and validate a run configuration file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigInvalid(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: "
                            f"{exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config is not UTF-8: {path}") from exc
    except ValueError as exc:  # also an int literal over 4300 digits
        raise ConfigInvalid(f"config cannot be read as JSON: {exc}") from exc
    cfg = {}
    for dotted, (default, _, _) in _FIELDS.items():
        section, _, key = dotted.rpartition(".")
        node = cfg.setdefault(section, {}) if section else cfg
        node[key] = copy.copy(default)  # no config aliases a list default
    _check_keys("", raw, {*cfg, "scenario"})
    for key, default in cfg.items():
        value = raw.get(key, default)
        if isinstance(default, dict):
            _check_keys(key, value, default)
            value = {**default, **value}
        cfg[key] = value
    cfg["scenario"] = raw.get("scenario")
    if cfg["scenario"] is not None:
        _check_keys("scenario", cfg["scenario"],
                    {f.name for f in dataclasses.fields(Scenario)})
    _check_values(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _provenance(cfg: dict, **swept) -> dict:
    """Header block of every artifact: config hash, seed, versions.

    The hash covers cfg without output_dir, which moves the artifacts
    and changes none, and a sweep's parameter and value list.
    """
    hashed = {k: v for k, v in cfg.items() if k != "output_dir"}
    if swept:
        hashed = {"config": hashed, **swept}
    return {"config_hash": config_hash(hashed), "seed": cfg["seed"],
            "versions": {"atomlight": __version__, "numpy": np.__version__}}


def _cell(v) -> str:
    """A float to 17 digits, else str(v) quoted as csv.writer quotes it."""
    if isinstance(v, float):  # np.float64 too
        return "%.17g" % v
    text = str(v)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, provenance: dict, header, lines) -> None:
    """Write the provenance block and the _cell-rendered rows, CRLF-ended."""
    versions = "; ".join(map(" ".join, provenance["versions"].items()))
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={provenance['config_hash']}\n"
                 f"# seed={provenance['seed']}\n"
                 f"# versions={versions}\n{','.join(map(_cell, header))}\r\n")
        fh.writelines(f"{line}\r\n" for line in lines)


def _write_json(path: Path, provenance: dict, payload: dict) -> None:
    record = {**provenance, **payload}
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Analyses: each returns (metrics, rows, fieldnames), a row a tuple of cells
# ---------------------------------------------------------------------------

def _reads(*paths):
    """Declare the dotted config paths an analysis reads.

    The analysis is called with a config holding only those paths, so
    reading any other raises KeyError.  The runner stores the result in
    memo (one dict per run or sweep) under the analysis's name and
    returns it while it is there; sweep drops it when the swept path is
    one of the runner's `reads` or lies under one.
    """
    split = [path.rpartition(".")[::2] for path in paths]

    def decorate(analysis):
        name = analysis.__name__

        @functools.wraps(analysis)
        def runner(cfg: dict, memo: dict):
            result = memo.get(name)
            if result is None:
                inputs = {}
                for section, field in split:
                    node = inputs.setdefault(section, {}) if section else inputs
                    node[field] = (cfg[section] if section else cfg)[field]
                result = memo[name] = analysis(inputs)
            return result
        runner.reads = paths
        return runner
    return decorate


def _finite(*paths):
    """Make an analysis raise OutsideDomain, naming paths, where it overflows.

    An inf or NaN cell, a Python float overflow and a numpy overflow or
    invalid operation each count, and numpy warns of none of them.
    """
    def decorate(analysis):
        @functools.wraps(analysis)
        def checked(cfg: dict):
            try:
                with np.errstate(over="raise", invalid="raise"):
                    result = analysis(cfg)
                if all(math.isfinite(v) for row in result[1] for v in row):
                    return result
            except (FloatingPointError, OverflowError):
                pass
            given = ", ".join(f"{path} = {cfg[section][key]!r}"
                              for path in paths
                              for section, key in [path.split(".")])
            raise OutsideDomain(f"no finite result at {given}")
        return checked
    return decorate


# The CSV columns of each analysis, in the order of the cells of its rows.
_RHO_COLUMNS = ("a0", "a1", "rho_par_closed", "rho_perp_closed",
                "rho_gamma_closed", "rho_par_quad", "rho_perp_quad",
                "rho_gamma_quad", "max_rel_dev")
_STOKES_COLUMNS = ("phi", "s1_in", "s2_in", "s3_in",
                   "s1_out", "s2_out", "s3_out")
_MEMORY_COLUMNS = ("kappa", "var_XA_out", "var_XA_expected",
                   "var_PA_conditioned", "symplectic_residual", "gain")
_POINTGAS_COLUMNS = ("dk_x", "dk_y", "dk_z", "n_atoms", "n_clouds",
                     "raw_mean", "raw_sem", "corrected_mean", "corrected_sem",
                     "self_term")
_REGIME_COLUMNS = ("group", "name", "value", "threshold", "passed", "margin")


@_reads("physics.a0", "physics.a1")
def _analysis_rho(cfg: dict):
    ph = cfg["physics"]
    a0, a1 = float(ph["a0"]), float(ph["a1"])
    c0, c1, c2 = short_propagator_closed(a0, a1, 1.0)
    q0, q1, q2 = short_propagator_quadrature(a0, a1, 1.0)
    # Rounding is monotone, so this is max(|c - q| / scale) bit for bit.
    gap = max(abs(c0 - q0), abs(c1 - q1), abs(c2 - q2))
    dev = gap / max(abs(c0), abs(c1), abs(c2)) if gap else 0.0
    return ({"max_rel_dev": dev, "rho_gamma_closed": c2},
            [(a0, a1, c0, c1, c2, q0, q1, q2, dev)], _RHO_COLUMNS)


@_reads("physics.c1", "physics.beta", "physics.column_rho_jz",
        "physics.stokes_in", "modes.k")
@_finite("physics.c1", "physics.beta", "physics.column_rho_jz",
         "physics.stokes_in", "modes.k")
def _analysis_stokes(cfg: dict):
    ph = cfg["physics"]
    phi = float(ph["c1"]) * float(ph["beta"]) * float(ph["column_rho_jz"]) \
        * float(cfg["modes"]["k"])
    s_in = tuple(float(v) for v in ph["stokes_in"])
    s1, s2, s3 = paraxial_stokes_map(s_in, phi)
    return ({"phi": phi, "s1_out": s1, "s2_out": s2, "s3_out": s3},
            [(phi, *s_in, s1, s2, s3)], _STOKES_COLUMNS)


@_reads("scenario.kappa", "physics.gain")
@_finite("scenario.kappa")
def _analysis_memory(cfg: dict):
    kappa = float(cfg["scenario"]["kappa"])
    gain = cfg["physics"]["gain"]
    ordering = QuadratureOrdering(n_light=1, n_atom=1)
    vac = GaussianState.vacuum(ordering)
    sym_res = symplectic_residual(collective_map_matrix(ordering, kappa),
                                  ordering)
    var_xa = apply_collective_map(vac, kappa).variance(ordering.X_A(0))
    if gain is None:
        gain = -1.0 / kappa if kappa != 0 else 0.0
    result = memory_protocol(vac, kappa, float(gain), outcome=0.0)
    var_pa_cond = result.state.variance(ordering.P_A(0))
    return ({"kappa": kappa, "var_XA_out": var_xa,
             "var_PA_conditioned": var_pa_cond,
             "symplectic_residual": sym_res},
            [(kappa, var_xa, 0.5 + 0.5 * kappa**2, var_pa_cond, sym_res,
              float(gain))], _MEMORY_COLUMNS)


@_reads("seed", "pointgas")
@_finite("pointgas.size", "pointgas.delta_k")
def _analysis_pointgas(cfg: dict):
    pg = cfg["pointgas"]
    est = density_correlation(pg["n_atoms"], pg["profile"], float(pg["size"]),
                              stream_keys(cfg["seed"], pg["n_clouds"]),
                              pg["delta_k"])
    return ({"raw_mean": est.raw_mean, "raw_sem": est.raw_sem,
             "corrected_mean": est.corrected_mean},
            [(*est.delta_k, est.n_atoms, est.n_batches, est.raw_mean,
              est.raw_sem, est.corrected_mean, est.corrected_sem,
              est.self_term)], _POINTGAS_COLUMNS)


@_reads("scenario", "modes.max_order")
def _analysis_regime(cfg: dict):
    sc = Scenario(**cfg["scenario"])
    light = check_light_series(sc)
    spin = check_spin_series(sc)
    F = fresnel_number(sc.wavelength, sc.transverse_size, sc.length)
    fres = check_fresnel_basis(F, cfg["modes"]["max_order"])
    rows = [(group, c.name, c.value, c.threshold, int(c.passed), c.margin)
            for group, report in (("light", light.checks),
                                  ("spin", spin.checks), ("fresnel", fres))
            for c in report]
    metrics = {"light_passed": int(light.passed),
               "spin_passed": int(spin.passed),
               "fresnel_passed": int(all(c.passed for c in fres)),
               "fresnel_number": F}
    return metrics, rows, _REGIME_COLUMNS


_RUNNERS = {
    "rho-coefficients": _analysis_rho,
    "stokes-map": _analysis_stokes,
    "memory-protocol": _analysis_memory,
    "pointgas": _analysis_pointgas,
    "regime": _analysis_regime,
}


def _failed(name: str, exc: Exception) -> AnalysisFailed:
    """The error a runner's non-atomlight exception becomes."""
    return AnalysisFailed(f"analysis {name!r} failed: {exc}")


def _analyse(name: str, cfg: dict, memo: dict):
    """Run one analysis; errors not raised by atomlight become AnalysisFailed.

    The runner returns the result held in memo, if any (see _reads).
    """
    try:
        return _RUNNERS[name](cfg, memo)
    except AtomLightError:
        raise
    except Exception as exc:
        raise _failed(name, exc) from exc


def run(cfg: dict, out_dir) -> dict:
    """Execute the configured analyses; returns the summary payload.

    Every analysis runs before the output directory is created, so one
    that fails writes nothing.
    """
    memo = {}
    results = [(name, _analyse(name, cfg, memo)) for name in cfg["analyses"]]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    provenance = _provenance(cfg)
    summary = {"analyses": {}}
    for name, (metrics, rows, fieldnames) in results:
        _write_csv(out / f"{name}.csv", provenance, fieldnames,
                   (",".join(map(_cell, row)) for row in rows))
        summary["analyses"][name] = metrics
    _write_json(out / "summary.json", provenance, summary)
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


def sweep(cfg: dict, param: str, values, out_dir) -> None:
    """Run the analyses once per value, on a copy of cfg; one CSV row each.

    Every point is checked before the first one runs, so a bad value
    raises ConfigInvalid and writes nothing; the output directory is
    created after the last point, so a failing analysis writes nothing
    either.  The first point passes all of _check_values; a later point
    differs from it only at param, so it passes param's _FIELDS rule
    alone, or _check_scenario for a scenario path, and an analysis reruns
    only if it reads param or a section holding it.  Each point calls
    every listed runner once, as _analyse does; a row is the value's cell
    and each analysis's ",cell,..." text, rendered once per result.
    """
    values = list(values)
    point = copy.deepcopy(cfg)
    node, key = _resolve_path(point, param)
    # An integral float inside an integer field's range becomes that int;
    # any other entry stays as given, so an error names it as given.
    _, rule, _ = _FIELDS.get(param, (None,) * 3)
    settings = [int(v) if isinstance(rule, range) and isinstance(v, float)
                and v.is_integer() and int(v) in rule else v for v in values]
    for i, setting in enumerate(settings):
        node[key] = setting
        if not i:
            _check_values(point)
        elif param in _FIELDS:
            if not _passes(rule, setting):  # _check_field raises its message
                _check_field(point, param)
        elif param.startswith("scenario."):
            _check_scenario(point)
    provenance = _provenance(cfg, param=param, values=values)
    # An analysis listed twice gives its columns once.  Slot i holds the
    # i-th analysis's last result and its rendered text.
    slots = [(i, name, _RUNNERS[name])
             for i, name in enumerate(dict.fromkeys(point["analyses"]))]
    stale = [runner.__name__ for _, _, runner in slots
             if any(p == param or param.startswith(p + ".")
                    for p in runner.reads)]
    header, lines, memo = [param], [], {}
    shown, texts = [None] * len(slots), [""] * len(slots)
    for value, setting in zip(values, settings):
        node[key] = setting
        for runner_name in stale:
            memo.pop(runner_name, None)
        for i, name, runner in slots:
            try:
                result = runner(point, memo)
            except AtomLightError:
                raise
            except Exception as exc:
                raise _failed(name, exc) from exc
            if result is not shown[i]:
                if shown[i] is None:
                    header += (f"{name}.{k}" for k in result[0])
                shown[i] = result
                texts[i] = ",".join(["", *map(_cell, result[0].values())])
        lines.append(_cell(value) + "".join(texts))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    safe = param.replace(".", "_")
    _write_csv(out / f"sweep_{safe}.csv", provenance, header, lines)


def _parse_values(text: str) -> list:
    """The comma-separated --values as floats; none for an empty string."""
    entries = text.split(",") if text else []
    try:
        return list(map(float, entries))
    except ValueError:
        pass
    for entry in entries:  # name the first entry that is not a number
        try:
            float(entry)
        except ValueError:
            raise ConfigInvalid(
                f"--values entry is not a number: {entry!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomlight",
        description="Scenario runner for the atom-light interface numerics")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (u64)")
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
        for field, value in (("seed", args.seed), ("output_dir", args.out)):
            if value is not None:
                cfg[field] = value
                _check_field(cfg, field)
        if args.command == "run":
            run(cfg, cfg["output_dir"])
        else:
            sweep(cfg, args.param, _parse_values(args.values),
                  cfg["output_dir"])
    except (ConfigInvalid, BadParameterPath) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AtomLightError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the output directory or an artifact
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
