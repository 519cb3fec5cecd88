"""Layered benchmark for atomlight.

    python3 perfbench/run.py --workload sweep-a1 --seed 1 --seconds 30 --trace 0

Runs one workload (sweep-a1, pointgas-run or multimode-ops; see
perfbench/README.md) from the root of a source checkout.  The
measurement runs in fresh worker interpreters, single-threaded with the
BLAS thread count pinned to 1.  With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run and the
tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, PER_LAYER, unit_of  # noqa: E402

# Fresh worker interpreters per untraced run.  Each measures for an equal
# share of the time the workers before it left, and contributes one
# set-up and one cold sample.  Fewer workers for longer iterations, so
# that a 30-s run still has several iterations after the cold ones.
WORKERS = {"sweep-a1": 3, "pointgas-run": 5, "multimode-ops": 6}

# Host tick (worker.HostSampler) of the reference host speed that timings
# are reported at.  Ticks on the 2-core Intel Xeon VM the benchmark was
# built on (Python 3.11.7, numpy 2.4.6) read 90 to 180 us.
REFERENCE_TICK_S = 120e-6

RUN_DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
OUT = ROOT / ".perfbench_out"


class BenchError(Exception):
    pass


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def tail_level(n: int) -> float:
    """Highest quantile level with at least ten samples beyond it; below
    20 samples no level above the median qualifies, so the median is used."""
    return max(0.5, (n - 10) / n) if n >= 20 else 0.5


def scaled(result: dict) -> tuple[float, list]:
    """Set-up and iteration times of one worker at the reference host speed.

    Each iteration time is multiplied by REFERENCE_TICK_S over the host
    tick measured while it ran (worker.HostSampler); the set-up time, by
    the tick of the cold iteration that follows it.
    """
    its = [raw * REFERENCE_TICK_S / t for raw, _, t in result["iterations"]]
    return result["setup"] * REFERENCE_TICK_S / result["iterations"][0][2], its


def provenance(args, versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "atomlight").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, **versions,
            "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
            "git_commit": commit, "src_sha256": src.hexdigest()[:16],
            "reference_tick_s": REFERENCE_TICK_S,
            "workers": 1 if args.trace else WORKERS[args.workload]}


def run_worker(args, seconds: float, index: int, deadline: float) -> dict:
    workdir = OUT / f"{args.workload}-seed{args.seed}-w{index}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.csv")]
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {index} did not finish in time") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"worker {index} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge(results: list) -> dict:
    """Checked operations of a run: those of the first worker.

    Every worker repeats the same operations on the same seed, so the
    others only have to reproduce the first one's artifacts and check
    results; each one that does not adds an unexpected failure.
    """
    first = results[0]
    total = {"attempted": first["attempted"], "failed": first["failed"],
             "unexpected": first["unexpected"], "known": dict(first["known"]),
             "notes": list(first["notes"])}
    for r in results[1:]:
        total["notes"] += r["notes"]
        keys = ("digest", "attempted", "failed", "unexpected", "known")
        if any(r[k] != first[k] for k in keys):
            total["failed"] = min(total["attempted"], total["failed"] + 1)
            total["unexpected"] += 1
            total["notes"].append("a fresh process's artifacts or checks "
                                  "differ from the first one's")
    return total


def end_to_end(results: list, lines: list) -> dict:
    first = results[0]
    setups, colds, wall = [], [], []
    for r in results:
        setup, its = scaled(r)
        setups.append(setup)
        colds.append(its[0])
        wall += its[1:]
    n = len(wall)
    level = tail_level(n)
    p50 = statistics.median(wall)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_s": (statistics.median(colds), "s"),
        "wall_s.p50": (p50, "s"),
        "wall_s.tail": (quantile(wall, level), "s"),
        "items_per_s": (first["items"] / p50, "1/s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
    }
    raw = [it[0] for r in results for it in r["iterations"][1:]]
    raw_of = {"setup_s": statistics.median(r["setup"] for r in results),
              "cold_s": statistics.median(r["iterations"][0][0] for r in results),
              "wall_s.p50": statistics.median(raw),
              "wall_s.tail": quantile(raw, level)}
    notes = {"setup_s": f"median of {len(results)} fresh interpreters",
             "cold_s": f"median of {len(results)} fresh processes",
             "wall_s.p50": f"n={n} iterations",
             "wall_s.tail": f"p{100 * level:.0f} of n={n}"
             + (" (below 20 samples no percentile above p50 has 10 beyond it)"
                if n < 20 else ""),
             "items_per_s": f"{first['items']} {first['item_label'].split('/')[0]}"
             " per iteration / wall_s.p50",
             "peak_rss_mb": "ru_maxrss, median over worker processes"}
    ticks = [it[2] for r in results for it in r["iterations"]]
    lines.append(f"  timings at reference host speed (host tick: reference "
                 f"{REFERENCE_TICK_S * 1e6:.1f} us, this run median "
                 f"{statistics.median(ticks) * 1e6:.1f} us)")
    for name, (value, unit) in metrics.items():
        extra = f"  raw {raw_of[name]:.4f} s" if name in raw_of else ""
        lines.append(f"  {name:<12} {value:12.4f} {unit:<4} {notes[name]}{extra}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(result: dict, lines: list) -> dict:
    """Medians over the traced iterations; the cold iteration is dropped.

    Layer times are raw span times.  The tracing overhead is the median
    over adjacent (untraced, traced) pairs of the difference of their
    times at the reference host speed.
    """
    its = result["iterations"][1:]
    traced = [raw for raw, flag, _ in its if flag]
    ref = scaled(result)[1][1:]
    overheads = [ref[i + 1] - ref[i] for i in range(0, len(its) - 1, 2)]
    layers = result["layers"]
    values = {}
    for name in PER_LAYER:
        if name.endswith(".share"):
            layer = name.split(".")[0]
            values[name] = statistics.median(
                m[f"{layer}.busy_s"] / t for m, t in zip(layers, traced))
        elif name == "trace.overhead_s":
            values[name] = statistics.median(overheads)
        else:
            values[name] = statistics.median(m.get(name, 0) for m in layers)
    lines.append(f"  {len(overheads)} pairs of untraced and traced iterations;"
                 f" traced median {statistics.median(traced):.4f} s raw;"
                 f" tracing overhead {values['trace.overhead_s']:+.4f} s at"
                 " reference host speed")
    lines.append(f"  {'layer':<11}{'calls':>9}{'busy_s':>10}{'self_s':>10}"
                 f"{'errors':>7}{'share':>7}")
    for layer in LAYERS:
        v = [values[f"{layer}.{k}"] for k in
             ("calls", "busy_s", "self_s", "errors", "share")]
        lines.append(f"  {layer:<11}{v[0]:9.0f}{v[1]:10.4f}{v[2]:10.4f}"
                     f"{v[3]:7.0f}{v[4]:7.3f}")
    for name in PER_LAYER:
        if name.split(".")[1] not in ("calls", "busy_s", "self_s", "errors",
                                      "share"):
            lines.append(f"  {name:<28} {values[name]:.6g} {unit_of(name)}")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "atomlight" / "__init__.py").is_file():
        print(f"error: no atomlight sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds through subprocess.run, which kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            results = [run_worker(args, args.seconds, 0, deadline)]
        else:
            n, left, results = WORKERS[args.workload], args.seconds, []
            for i in range(n):
                results.append(run_worker(args, left / (n - i), i, deadline))
                left -= results[-1]["window_s"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prov = provenance(args, results[0]["versions"])
    total = merge(results)
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}",
             "provenance " + json.dumps(prov, sort_keys=True)]
    if args.trace:
        metrics = per_layer(results[0], lines)
    else:
        metrics = end_to_end(results, lines)
    rate = total["failed"] / total["attempted"]
    known = ", ".join(f"{k}: {n}" for k, n in sorted(total["known"].items()))
    lines.append(f"  error_rate   {total['failed']}/{total['attempted']} = "
                 f"{rate:.4f}  (known defects: {known or 'none'}; "
                 f"unexpected: {total['unexpected']})")
    for note in total["notes"][:10]:
        lines.append(f"  unexpected failure: {note}")
    print("\n".join(lines))

    record = {"provenance": prov, "metrics": metrics, "error": total,
              "workers": [{k: r[k] for k in ("setup", "iterations", "rss_mb")}
                          for r in results]}
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": total["unexpected"] == 0,
                      "attempted": total["attempted"],
                      "failed": total["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
