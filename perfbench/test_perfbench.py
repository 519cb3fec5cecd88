"""Self-tests of the benchmark: inputs, tracer and references.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _fingerprint(obj, workdir: Path):
    """Comparable form of a workload's generated inputs, workdir elided."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return [_fingerprint(v, workdir) for v in obj]
    if isinstance(obj, dict):
        return {k: _fingerprint(v, workdir) for k, v in obj.items()}
    if hasattr(obj, "__dataclass_fields__"):
        return _fingerprint(vars(obj), workdir)
    return repr(obj).replace(str(workdir), "<workdir>")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    prints = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        workdir = tmp_path / sub
        wl = cls(seed, workdir)
        configs = {p.name: p.read_text() for p in workdir.glob("*.json")}
        prints.append(_fingerprint([vars(wl), configs], workdir))
    assert prints[0] == prints[1]
    assert prints[0] != prints[2]


def test_a1_values_cover_the_domain_and_both_edges():
    values = np.array(workloads.a1_values(np.random.default_rng(3)))
    assert values.size == 1000
    assert np.all(values >= 0.0) and np.all(values < 1.0)
    assert values.min() < 1e-5
    assert (1.0 - values).min() < 1e-3


def _traced_iteration(wl):
    """One untraced and one traced iteration: (outcome, outcome, metrics)."""
    wl.prepare_reference()
    plain = wl.check(wl.iterate())
    tracer = Tracer()
    mark = tracer.mark()
    with tracer:
        result = wl.iterate()
    metrics = tracer.layer_metrics(mark)
    traced = wl.check(result)
    return plain, traced, metrics


def test_sweep_traced_counts_and_artifacts(tmp_path):
    wl = workloads.SweepA1(5, tmp_path)
    plain, traced, m = _traced_iteration(wl)
    assert traced.digest == plain.digest
    assert traced.unexpected == plain.unexpected == 0
    assert m["propagator.quadrature_calls"] == len(wl.values)
    assert m["propagator.closed_calls"] == len(wl.values)
    assert m["propagator.nodes_evaluated"] == 128 * len(wl.values)
    assert m["cli.analysis_calls"] == 4 * len(wl.values)
    assert m["cli.files_written"] == 1


def test_pointgas_traced_counts_and_artifacts(tmp_path):
    wl = workloads.PointgasRun(5, tmp_path)
    plain, traced, m = _traced_iteration(wl)
    assert traced.digest == plain.digest
    assert traced.failed == plain.failed == 0
    assert m["pointgas.clouds"] == sum(c for _, c, _, _ in workloads.SHAPES)
    assert m["pointgas.atoms"] == wl.items
    assert m["cli.files_written"] == 2 * len(workloads.SHAPES)


def test_multimode_traced_counts(tmp_path):
    wl = workloads.MultimodeOps(5, tmp_path)
    plain, traced, m = _traced_iteration(wl)
    assert plain.failed == traced.failed == 0
    assert m["modes.eval_calls"] == 4 * len(wl.hg)
    assert m["qops.errors"] == 0 and m["qops.calls"] > 0


def test_tracer_patches_names_bound_by_importers_and_restores_them():
    from atomlight import cli, propagator, qops
    original = propagator.short_propagator_quadrature
    with Tracer():
        assert cli.short_propagator_quadrature is not original
        assert cli.short_propagator_quadrature \
            is propagator.short_propagator_quadrature
        assert qops.hermite_gauss_eval.__wrapped__ is not None
    assert cli.short_propagator_quadrature is original
    assert propagator.short_propagator_quadrature is original
    assert not hasattr(qops.hermite_gauss_eval, "__wrapped__")


def test_tracer_records_errors_and_self_time():
    from atomlight import propagator
    tracer = Tracer()
    mark = tracer.mark()
    with tracer, pytest.raises(Exception):
        propagator.short_propagator_closed(1.0, 1.0, 1.0)
    m = tracer.layer_metrics(mark)
    assert m["propagator.calls"] == 1 and m["propagator.errors"] == 1
    assert m["propagator.self_s"] == pytest.approx(m["propagator.busy_s"])


@pytest.mark.parametrize("a1", [0.0, 1e-6, 1e-3, 0.3, 0.9, 1.0 - 1e-4])
def test_rho_gamma_reference_matches_mpmath_quadrature(a1):
    ref = reference.rho_gamma(1.0, a1)
    assert ref == pytest.approx(reference.rho_gamma_quad(1.0, a1),
                                rel=1e-14, abs=1e-300)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        bench["command"] + ["--workload", bench["workloads"][0]["name"],
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_error_counts_do_not_grow_with_repeats():
    import run
    worker = {"digest": "d", "attempted": 1000, "failed": 280,
              "unexpected": 0, "known": {"edge": 280}, "notes": []}
    total = run.merge([dict(worker) for _ in range(3)])
    assert (total["attempted"], total["failed"], total["unexpected"]) == (
        1000, 280, 0)
    total = run.merge([worker, dict(worker, digest="other")])
    assert (total["attempted"], total["failed"], total["unexpected"]) == (
        1000, 281, 1)
