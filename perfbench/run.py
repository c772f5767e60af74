"""difftop benchmark runner.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; difftop is imported from ./src.
One process, one thread: the BLAS thread variables are pinned to 1 before
numpy loads.  The run builds the workload from the seed, runs one warm-up
batch that is not timed, then times batches of checked items until the
next batch would end past ``--seconds``.  Each batch is preceded by a
timed ``reference_work`` (on verify-all, each suite of a pass is
bracketed by two); throughput is taken at the reference speed (see
``items_per_s``).  Set-up time is the median of several fresh
interpreters.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run alternates untraced and traced batches, and the metrics are the
per-layer ones.  The line before it describes the run (batch
quartiles, check counts, host and library versions).  Exit code 0 when
the result line is printed, whether or not every check passed (its
``correct`` and ``failed`` say that); 2 when difftop cannot be loaded.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
SPAN_DIR = ROOT / ".bench_out"
# median time of one reference_work() on the reference host (2 vCPU Xeon)
REFERENCE_S = 2.0e-3
REFERENCE_SHARE = 0.04   # reference time per batch, as a share of the batch
SUITE_REFERENCE_REPS = 8  # reference calls per sample between verify suites


def reference_work():
    """A fixed computation in the style of the program's scalar paths.

    Bisection on a logistic of exp(-1/t) terms, as in lambda_inv, plus the
    small-array numpy calls of the disk charts.  It uses no difftop code,
    so a change to the program cannot change its speed; only the host can.
    """
    acc = 0.0
    v = np.array([0.3, 0.4, 0.5])
    for i in range(180):
        lo, hi = 0.0, 1.0
        y = (i % 97 + 1) / 99.0
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            g, h = math.exp(-1.0 / mid), math.exp(-1.0 / (1.0 - mid))
            if g / (g + h) <= y:
                lo = mid
            else:
                hi = mid
        w = np.concatenate([v[:-1], [v[-1] * math.cos(lo), v[-1] * math.sin(lo)]])
        acc += float(np.linalg.norm(w))
    return acc


def run_batches(wl, seconds, min_batches):
    """Time batches until the next one would likely end past ``seconds``.

    Before each batch, reference_work runs for about REFERENCE_SHARE of a
    batch.  Returns the batch times and the reference times per call.
    """
    times, refs = [], []
    deadline = time.perf_counter() + seconds
    while (len(times) < min_batches
           or time.perf_counter() + statistics.median(times) <= deadline):
        reps = max(1, round(REFERENCE_SHARE * (times[-1] if times else 0.0) / REFERENCE_S))
        t0 = time.perf_counter()
        for _ in range(reps):
            reference_work()
        refs.append((time.perf_counter() - t0) / reps)
        t0 = time.perf_counter()
        wl.batch(len(times))
        times.append(time.perf_counter() - t0)
    return times, refs


class _TimedSuites:
    """Times each verify suite by swapping verify.SUITES while active."""

    def __init__(self, verify):
        self.suites = verify.SUITES
        self.seconds = {}

    def __enter__(self):
        self.saved = dict(self.suites)
        for key, fn in self.saved.items():
            self.suites[key] = self._timed(key, fn)
        return self

    def __exit__(self, *exc):
        self.suites.update(self.saved)

    def _timed(self, key, fn):
        def suite(cfg):
            t0 = time.perf_counter()
            try:
                return fn(cfg)
            finally:
                self.seconds.setdefault(key, []).append(time.perf_counter() - t0)
        return suite


class _SuiteReference(_TimedSuites):
    """Reference samples between the suites of a verify-all pass.

    A pass lasts seconds, as long as the host's fast and slow phases, so
    one reference sample before it misses the phase of most of the pass.
    While active, each suite runs between two reference samples and its
    time is divided by their mean.  Sampling time is kept out of the pass.
    """

    def sample(self):
        t0 = time.perf_counter()
        for _ in range(SUITE_REFERENCE_REPS):
            reference_work()
        dt = time.perf_counter() - t0
        self.sampling_s += dt
        return dt / SUITE_REFERENCE_REPS

    def start(self):
        """Sample before a pass; reset the pass's sums."""
        self.sampling_s = 0.0
        self.last = self.first = self.sample()
        self.sampling_s = self.suite_s = self.scaled = 0.0

    def _timed(self, key, fn):
        def suite(cfg):
            t0 = time.perf_counter()
            try:
                return fn(cfg)
            finally:
                dt = time.perf_counter() - t0
                ref = self.sample()
                self.suite_s += dt
                self.scaled += dt / (0.5 * (self.last + ref))
                self.last = ref
        return suite


def run_passes(wl, seconds, min_batches):
    """run_batches for verify-all, with reference samples between suites.

    Returns the pass times without the sampling, the pass times at the
    reference speed, and the reference time per call before each pass.
    """
    from difftop import verify
    times, scaled, refs = [], [], []
    deadline = time.perf_counter() + seconds
    with _SuiteReference(verify) as ref:
        while (len(times) < min_batches
               or time.perf_counter() + statistics.median(times) <= deadline):
            ref.start()
            t0 = time.perf_counter()
            wl.batch(len(times))
            dt = time.perf_counter() - t0 - ref.sampling_s
            times.append(dt)
            # the item's own work outside the suites (hashing, the gate)
            # is taken at the speed of the last sample
            scaled.append((ref.scaled + (dt - ref.suite_s) / ref.last) * REFERENCE_S)
            refs.append(ref.first)
    return times, scaled, refs


def items_per_s(wl, times, refs):
    """Checked items per second at the reference host speed.

    The host's speed drifts by a third over minutes (other tenants share
    its cores), and every code path slows with it.  Dividing the median
    batch time by the median time of the reference work, timed between
    the same batches, cancels that drift; REFERENCE_S turns the ratio back
    into seconds.
    """
    batch_s = statistics.median(times) / statistics.median(refs) * REFERENCE_S
    return wl.items_per_batch / batch_s


def setup_times(workload, seed):
    """Medians of (import + build, import, build) over SETUP_PROBES fresh interpreters."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return (statistics.median(p["import_s"] + p["build_s"] for p in probes),
            statistics.median(p["import_s"] for p in probes),
            statistics.median(p["build_s"] for p in probes))


def _quantile_us(latency_ns, q):
    return float(np.quantile(np.asarray(latency_ns), q)) / 1e3 if len(latency_ns) else 0.0


def traced_run(wl, seconds):
    """Alternate untraced and traced batches; returns the per-layer metrics.

    The traced batches run on a twin of the workload, built from the same
    seed while the tracer was installed, so that the oracles its
    constructors hand out are traced too.  Alternating batch by batch puts
    both sides on the same host state, which ``trace.overhead_frac`` needs.
    """
    import tracing
    from difftop import verify

    twin = type(wl)(wl.seed)
    twin.checks = wl.checks
    tracer = tracing.Tracer()
    with tracer:
        twin.build()
    twin.tracer = tracer
    suites = _TimedSuites(verify)
    wl.latency_ns = array("q")
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or (time.perf_counter() + statistics.median(plain)
                         + statistics.median(traced) <= deadline):
        with suites:
            t0 = time.perf_counter()
            wl.batch(len(plain))
            plain.append(time.perf_counter() - t0)
        with tracer:
            t0 = time.perf_counter()
            twin.batch(len(traced))
            traced.append(time.perf_counter() - t0)
    lat, suite_s = wl.latency_ns, suites.seconds
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"spans-{wl.name}.npz")

    m = {}
    stats = tracer.layer_stats()
    for span in tracing.SPAN_NAMES:
        calls, self_s, us = stats.get(span, (0, 0.0, 0.0))
        m[f"{span}.calls"] = (calls, "count")
        m[f"{span}.self_s"] = (self_s, "s")
        m[f"{span}.us_per_call"] = (us, "us")
    chk = wl.checks
    m["smoothfn.lambda_fn.calls"] = (tracer.lambda_fn_calls, "count")
    m["smoothfn.fd_wrong_verdicts"] = (len(getattr(wl, "fd_wrong", ())), "count")
    fwd = chk.counts.get("forward", 0)
    m["subdivision.collapsed_frac"] = (chk.counts.get("collapsed", 0) / fwd if fwd else 0.0,
                                       "ratio")
    m["subdivision.roundtrip_worst_dev"] = (chk.worst.get("roundtrip", 0.0), "abs")
    m["lifting.worst_dev"] = (chk.worst.get("lift", 0.0), "abs")
    m["lifting.chep_build_s"] = (getattr(wl, "chep_build_s", 0.0), "s")
    m["lifting.descent_depth_max"] = (max(0, tracer.nesting_max("lifting.oracle") - 1),
                                      "levels")
    for prefix, name in (("roundtrip", "subdiv-roundtrip"), ("lift_eval", "lift-descent")):
        own = wl.name == name
        m[f"{prefix}_p50_us"] = (_quantile_us(lat, 0.5) if own else 0.0, "us")
        m[f"{prefix}_p99_us"] = (_quantile_us(lat, 0.99) if own else 0.0, "us")
    for key in verify.SUITES:
        m[f"verify.suite.{key}_s"] = (statistics.median(suite_s.get(key, [0.0])), "s")
    props = (getattr(wl, "report", None) or {}).get("properties", [])
    m["verify.properties"] = (len(props), "count")
    m["verify.properties_failed"] = (sum(not p["pass"] for p in props), "count")
    m["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0,
                                "ratio")
    return m, plain


def environment():
    import scipy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (result dict, description dict)."""
    import workloads
    wl = workloads.WORKLOADS[workload](seed)
    wl.build()
    wl.warmup()
    about = {}
    if trace:
        metrics, times = traced_run(wl, seconds)
    else:
        if workload == "verify-all":
            times, scaled, refs = run_passes(wl, seconds, wl.min_batches)
            rate = wl.items_per_batch / statistics.median(scaled)
        else:
            times, refs = run_batches(wl, seconds, wl.min_batches)
            rate = items_per_s(wl, times, refs)
        about["reference_s"] = statistics.median(refs)
        metrics = {"items_per_s": (rate, "1/s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MB")}
    setup_s, import_s, build_s = setup_times(workload, seed)
    if trace:
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.build_s"] = (build_s, "s")
    else:
        metrics["setup_s"] = (setup_s, "s")

    chk = wl.checks
    q = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    about.update({"workload": workload, "seed": seed, "trace": int(trace),
             "batches": len(times), "items_per_batch": wl.items_per_batch,
             "batch_s": {"p25": q[0], "p50": statistics.median(times), "p75": q[2]},
             "raw_items_per_s": wl.items_per_batch / statistics.median(times),
             "failed_frac": chk.failed / max(chk.attempted, 1),
             "worst_dev": chk.worst, "counts": chk.counts, "env": environment()})
    for key in ("segments", "fd_inputs"):
        if hasattr(wl, key):
            about[key] = getattr(wl, key)
    if hasattr(wl, "fd_wrong"):
        about["fd_wrong_verdicts"] = sorted(map(str, wl.fd_wrong))
    result = {"correct": chk.failed == 0, "attempted": chk.attempted, "failed": chk.failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    return result, about


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "difftop" / "__init__.py").is_file():
        print(f"perfbench: no difftop sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result, about = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(about, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
