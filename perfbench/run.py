"""igopt benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload rbm16 --seed 161616 --seconds 32 --trace 0

Runs the workload's unit of work back to back, each unit starting when the
previous one has ended, until about ``--seconds`` have been measured.  Every
unit's outputs are checked against properties from the paper; a failed check
is counted, not raised.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics (set-up time, time per unit,
  objective evaluations per second, peak memory), untraced.  The unit time
  is the 90th percentile over the timed units (see ``slow_quantile``).
* ``--trace 1``: the per-layer metrics.  Traced and untraced units
  alternate; spans come from the traced ones (see ``tracing.py``), and
  ``trace.overhead_s`` is the traced minus the untraced median unit time.

Lines before it, each starting with ``#``, give the environment, the output
fingerprint, the per-unit times and, when traced, each layer's share of the
unit time.  Without ``--seed`` a workload runs on its acceptance seed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("rbm16", "gauss_full20", "linear_100k", "flow_binval")
SETUP_REPEATS = 5
# The benchmark runs one client and starts no threads; a BLAS thread pool on
# a small shared host only adds contention noise.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


@dataclass
class Unit:
    seconds: float
    traced: bool
    outcome: object           # workloads.Outcome
    layers: dict = None       # per-layer metrics, traced units only
    spans: dict = None        # span name -> (busy, self, calls), traced units only


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: its acceptance seed)")
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="measured time to aim for (default 32)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from traced units")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def slow_quantile(times):
    """The 90th percentile of repeated timings of identical work.

    On a small shared host the CPU's own speed shifts, by up to 1.5x, for
    stretches of a few seconds to over a minute as neighbours come and go.
    A run's median then depends on how much of the run fell in fast
    stretches, which differs from run to run.  Most runs hold some slow
    stretch, so a high quantile of their units measures the same host state
    each time.
    """
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def setup_seconds(workload, seed):
    """Median fresh-process set-up time over SETUP_REPEATS processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times), times


def run_unit(workload, state, traced):
    if traced:
        import tracing

        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            t0 = time.perf_counter()
            result = workload.run(state)
            elapsed = time.perf_counter() - t0
        return Unit(elapsed, True, workload.outcome(state, result),
                    tracing.layer_metrics(tracer), tracer.busy_and_self())
    t0 = time.perf_counter()
    result = workload.run(state)
    elapsed = time.perf_counter() - t0
    return Unit(elapsed, False, workload.outcome(state, result))


def measure(workload, state, seconds, trace):
    """(warm-up unit, timed units): one untraced unit that fills caches and
    loads lazy imports, then units until the next one would end after
    ``seconds`` from the start of the warm-up."""
    start = time.perf_counter()
    warmup = run_unit(workload, state, traced=False)
    units = []
    while True:
        units.append(run_unit(workload, state, traced=trace and len(units) % 2 == 1))
        typical = statistics.median(u.seconds for u in units)
        if len(units) >= (2 if trace else 1) and \
                time.perf_counter() - start + typical > seconds:
            return warmup, units


def tally(units):
    """(attempted, failed, failed check names) over runs and checks."""
    attempted = failed = 0
    failures = set()
    for u in units:
        o = u.outcome
        attempted += o.runs + len(o.checks)
        failed += o.failed_runs + sum(not ok for ok in o.checks.values())
        failures.update(name for name, ok in o.checks.items() if not ok)
        if o.failed_runs:
            failures.add("failed_status")
    invocation_checks = {
        "fingerprints_identical": len({u.outcome.fingerprint for u in units}) == 1,
    }
    traced = [u.layers for u in units if u.traced]
    if traced:
        counts = [{k: v for k, v in layers.items() if not k.endswith("_s")}
                  for layers in traced]
        differing = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        invocation_checks["counters_identical"] = not differing
        if differing:
            print(f"# counters that differ between traced units: {differing}")
    attempted += len(invocation_checks)
    failed += sum(not ok for ok in invocation_checks.values())
    failures.update(name for name, ok in invocation_checks.items() if not ok)
    return attempted, failed, sorted(failures)


def end_to_end(units, setup_s):
    # Every unit does the same work (tally checks that their outputs agree).
    run_s = slow_quantile([u.seconds for u in units])
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "evals_per_s": (units[0].outcome.evals / run_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_unit(name):
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), (".bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(units):
    """Times are medians over traced units; counts are equal in all of them."""
    traced = [u for u in units if u.traced]
    out = {}
    for name, value in traced[0].layers.items():
        if name.endswith("_s"):
            value = statistics.median(u.layers[name] for u in traced)
        out[name] = (value, layer_unit(name))
    overhead = statistics.median(u.seconds for u in traced) - \
        statistics.median(u.seconds for u in units if not u.traced)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def print_shares(units):
    """Each span name's busy and self time as a share of the unit time."""
    last = [u for u in units if u.traced][-1]
    print(f"# traced unit {last.seconds:.4f} s; span name, busy, self, calls:")
    for name, (busy, self_s, calls) in sorted(last.spans.items(), key=lambda kv: -kv[1][0]):
        print(f"#   {name:<18} {busy:9.4f} s {100 * busy / last.seconds:5.1f}%"
              f" {self_s:9.4f} s {100 * self_s / last.seconds:5.1f}% {calls:8d}")


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def git_commit():
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinned setting."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    return fn()
    except OSError:
        pass
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def cpu_steal_seconds():
    """Host-wide CPU steal time so far, from /proc/stat (None elsewhere)."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "igopt" / "__init__.py").is_file():
        print(f"perfbench: no igopt sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(ONE_BLAS_THREAD)
    sys.path.insert(0, str(SRC))
    load_before, steal_before = os.getloadavg(), cpu_steal_seconds()

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    setup_s, setup_times = (None, [])
    if not args.trace:
        setup_s, setup_times = setup_seconds(args.workload, seed)

    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        warmup, units = measure(workload, workload.prepare(seed, out_dir),
                                args.seconds, args.trace)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted, failed, failures = tally([warmup] + units)
    metrics = per_layer(units) if args.trace else end_to_end(units, setup_s)
    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "held_out_seed": workloads.HELD_OUT_SEED,
        "environment": environment(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "cpu_steal_s": (None if steal_before is None
                        else cpu_steal_seconds() - steal_before),
        "fingerprint": units[0].outcome.fingerprint,
        "warmup_seconds": warmup.seconds,
        "unit_seconds": [u.seconds for u in units],
        "unit_traced": [u.traced for u in units],
        "evals_per_unit": units[0].outcome.evals,
        "setup_seconds": setup_times,
        "failed_frac": failed / attempted,
        "failed_checks": failures,
    }
    if args.trace:
        print_shares(units)
    print("# record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
