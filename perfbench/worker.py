"""One benchmark process: set-up, a cold iteration, timed iterations, checks.

run.py starts this script in a fresh interpreter, one or more times per
run, and reads the JSON object it prints as its last line.  A
``HostSampler`` thread measures the host's speed while the workload runs,
so that run.py can report the timings at a reference host speed.

    python3 perfbench/worker.py --workload sweep-a1 --seed 1 --seconds 10 \
        --trace 0 --workdir .perfbench_out/w0
"""

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class HostSampler:
    """Background thread that times two fixed kernels every 40 ms.

    One kernel runs ufuncs on a 128-element array, the size of the
    program's small-array kernels; the other is a pure-Python loop.  On a
    contended host the first slows down more than the second, and the
    workloads mix both kinds of work, so the host tick is the geometric
    mean of the two.  Both are timed in the thread's own CPU time, so
    waiting for the interpreter lock does not count, and neither calls
    atomlight code.  Only a second pass of each is timed: the first one
    would also measure how much of the sampler's cache state the main
    thread had evicted, which depends on what the program does.  The
    kernels run slower while the main thread sleeps, so ticks are only
    taken over iterations.
    """

    PERIOD_S = 0.04

    def __init__(self):
        import numpy
        self._x = numpy.linspace(-1.0, 1.0, 128)
        self.samples = []  # (perf_counter, numpy kernel s, Python kernel s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _numpy_kernel(self) -> float:
        t = time.thread_time()
        y = self._x
        for _ in range(60):
            y = y * 0.999 + 0.001
        return time.thread_time() - t

    @staticmethod
    def _python_kernel() -> float:
        t = time.thread_time()
        total = 0
        for i in range(3000):
            total += i * i
        return time.thread_time() - t

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self._numpy_kernel()
            numpy_s = self._numpy_kernel()
            self._python_kernel()
            self.samples.append((time.perf_counter(), numpy_s,
                                 self._python_kernel()))

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def tick(self, t0: float, t1: float) -> float:
        """Geometric mean of the two kernels' mean times over [t0, t1]."""
        inside = [s for s in self.samples if t0 <= s[0] <= t1]
        if not inside:  # interval shorter than the period: nearest sample
            inside = [min(self.samples, key=lambda s: abs(s[0] - t1))]
        numpy_s = sum(s[1] for s in inside) / len(inside)
        python_s = sum(s[2] for s in inside) / len(inside)
        return (numpy_s * python_s) ** 0.5


def _versions() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def run(args) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import atomlight
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    setup_raw = time.perf_counter() - t0
    if not Path(atomlight.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"atomlight imported from {atomlight.__file__}")
    with HostSampler() as host:
        return measure(args, workload, setup_raw, host)


def measure(args, workload, setup_raw: float, host: HostSampler) -> dict:
    workload.prepare_reference()
    result = {"setup": setup_raw, "iterations": [], "layers": [], "attempted": 0, "failed": 0,
              "unexpected": 0, "known": {}, "notes": [], "digest": None,
              "items": workload.items, "item_label": workload.item_label,
              "versions": _versions()}

    def account(outcome):
        """Count the cold iteration's checked operations once.

        Every iteration repeats the same operations on the same inputs, so
        the counts depend on the seed only, not on how many iterations fit
        in the window.  A later iteration must reproduce the first one's
        artifacts and check results; one that does not is an unexpected
        failure.
        """
        summary = (outcome.digest, outcome.attempted, outcome.failed,
                   outcome.unexpected, outcome.known)
        if result["digest"] is None:
            result["digest"] = outcome.digest
            result["summary"] = summary
            for key in ("attempted", "failed", "unexpected"):
                result[key] = getattr(outcome, key)
            result["known"] = dict(outcome.known)
            result["notes"] = outcome.notes[:5]
        elif summary != result["summary"]:
            if result["failed"] < result["attempted"]:
                result["failed"] += 1
            result["unexpected"] += 1
            if len(result["notes"]) < 5:
                result["notes"].append("an iteration's artifacts or checks "
                                       "differ from the first iteration's")

    def timed(tracer=None):
        """One iteration, recorded as [seconds, traced, host tick]."""
        if tracer:
            mark = tracer.mark()
            t0 = time.perf_counter()
            with tracer:
                out = workload.iterate()
            t1 = time.perf_counter()
            result["layers"].append(tracer.layer_metrics(mark))
        else:
            t0 = time.perf_counter()
            out = workload.iterate()
            t1 = time.perf_counter()
        result["iterations"].append([t1 - t0, bool(tracer), host.tick(t0, t1)])
        account(workload.check(out))
        return t1 - t0

    # The window closes where the next iteration would end more than half
    # an iteration past it; at least one iteration follows the cold one.
    window = time.perf_counter()
    last = timed()  # cold
    if not args.trace:
        while (len(result["iterations"]) < 2
               or time.perf_counter() - window + last / 2 < args.seconds):
            last = timed()
    else:
        from tracer import Tracer
        tracer = Tracer()
        while (not result["layers"]
               or time.perf_counter() - window + last < args.seconds):
            last = max(timed(), timed(tracer))
        if args.spans:
            tracer.write_spans(args.spans)
    result["window_s"] = time.perf_counter() - window
    del result["summary"]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None,
                        help="CSV file for the traced spans")
    args = parser.parse_args()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
