"""Benchmark of the paratorus pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One process, BLAS/OpenMP pools pinned to one thread.

--trace 0 sets up, then runs the workload's operation as often as it is
expected to end within S seconds (at least once) and reports the
end-to-end metrics.  --trace 1 runs a fixed amount of work twice untraced
and once traced, and reports the per-layer metrics and the tracing
overhead; its spans are written to
``.perfbench/trace-<workload>-seed<N>.json``.  The last line of standard
output is the result; the line before it holds details (environment, stage
times, failures).  See README.md in this directory.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# Kernel time of SpeedProbe that defines the reference speed: op_adj_s is
# the operation's time on a machine where the kernel takes this long.
REFERENCE_KERNEL_S = 3.0e-3
# glibc mallopt parameters.  By default glibc serves the ~1 MB FFT
# temporaries from fresh mmaps until its dynamic threshold has adapted,
# which depends on the process's history; the page faults made operation
# times vary by about 40% between identical runs.  A fixed threshold gives
# every run the adapted state from the start.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20

# (name, unit) of the end-to-end metrics every workload reports.
END_TO_END = [("setup_s", "s"), ("op_adj_s.p50", "s"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("anderson_study", "drift_certify", "drift_apply"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def percentiles(samples):
    """Median, and the highest of p90/p75 with at least ten samples
    beyond it (None when the sample is too small), and the count."""
    xs = sorted(samples)
    out = {"p50": statistics.median(xs), "samples": len(xs), "tail": None,
           "values": list(samples)}
    for pct in (90, 75):
        if len(xs) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]
            out["tail"] = {"pct": pct, "value": cut}
            break
    return out


def pin_allocator():
    """Fix glibc's mmap and trim thresholds; False where libc is not glibc."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        return bool(libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                    and libc.mallopt(M_TRIM_THRESHOLD, 4 * MMAP_THRESHOLD))
    except (OSError, AttributeError):
        return False


def environment(seed, allocator):
    import numpy
    try:  # the version without importing scipy, which paratorus does not use
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version, "commit": git_commit(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "allocator": allocator,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def timed_setup(wl, sizes, outcomes):
    """Set up the workload; the cheap part is repeated for a median.
    Returns whether it succeeded, its wall seconds and the SpeedProbe's
    factor to reference speed."""
    from workloads import cheap_setup
    n = sizes.study_n if wl.name == "anderson_study" else sizes.drift_n
    cheap = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            tic = time.perf_counter()
            cheap_setup(n)
            cheap.append(time.perf_counter() - tic)
        ok = wl.setup(outcomes)
        wall = time.perf_counter() - start - probe.spent
    wall += statistics.median(cheap) - sum(cheap)
    return ok, wall, REFERENCE_KERNEL_S / probe.kernel_s()


def run_ops(wl, outcomes, count=None, seconds=None, around=None):
    """`count` operations, or as many as are expected to end within
    `seconds` (at least one); `around()` gives a context manager entered
    around each one."""
    times, stages, digests = [], {}, []
    start = time.perf_counter()
    i = 0
    while (count is None or i < count) and (
            seconds is None or i == 0
            or time.perf_counter() - start + times[-1] <= seconds):
        with around() if around is not None else SpeedProbe() as probe:
            tic = time.perf_counter()
            stage, dig = wl.op(i, outcomes)
            elapsed = time.perf_counter() - tic
        if isinstance(probe, SpeedProbe):
            elapsed -= probe.spent
            stages.setdefault("op_adj_s", []).append(
                elapsed * REFERENCE_KERNEL_S / probe.kernel_s())
        times.append(elapsed)
        for key, value in stage.items():
            stages.setdefault(key, []).append(value)
        digests.append(dig)
        i += 1
    return times, stages, digests


class SpeedProbe:
    """Samples the machine's current speed while set-up or an operation runs.

    A shared machine's speed drifts by up to +-15% within a minute.  Every
    INTERVAL seconds of wall time a timer signal runs a fixed numpy kernel
    (one 256x256 complex FFT round trip, about 3 ms) and records how long it
    took.  An operation's time, rescaled by REFERENCE_KERNEL_S over the
    median kernel time during the operation, no longer follows that drift.
    The time spent in the kernel is subtracted from the operation's time."""

    INTERVAL = 0.2
    START_SAMPLES = 3

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        tic = time.perf_counter()
        self._np.fft.ifftn(self._a * self._np.fft.fftn(self._a))
        self.samples.append(time.perf_counter() - tic)
        self.spent += time.perf_counter() - tic

    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    def __enter__(self):
        for _ in range(self.START_SAMPLES):
            self._sample()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def run_workload(workload, seed, seconds, trace, sizes=None, tmp_root=None,
                 allocator="default"):
    """Run one benchmark; returns (details, result) as dictionaries."""
    from tracing import PER_LAYER
    from workloads import FULL, WORKLOADS, Outcomes
    sizes = sizes or FULL
    tmp_root = tmp_root or ROOT / ".perfbench"
    os.makedirs(tmp_root, exist_ok=True)
    import_s = time.perf_counter() - _T_START
    outcomes = Outcomes()
    wl = WORKLOADS[workload](seed, sizes, tmp_root)
    ok, setup_wall, speed = timed_setup(wl, sizes, outcomes)
    details = {"workload": workload, "environment": environment(seed, allocator),
               "import_s": import_s, "setup_wall_s": import_s + setup_wall}
    if trace:
        metrics = traced_metrics(wl, sizes, outcomes, ok, details, seed, tmp_root)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        if ok:
            times, stages, _ = run_ops(wl, outcomes, seconds=seconds)
        else:
            # set-up refused every data set, so no operation could run; the
            # time to the refusal stands for the operation's time
            times, stages = [setup_wall], {"op_adj_s": [setup_wall * speed]}
        details["op_wall_s"] = percentiles(times)
        details["stages"] = {key: percentiles(v) for key, v in stages.items()}
        if hasattr(wl, "enhance_s"):
            details["stages"]["enhance_s"] = wl.enhance_s
        metrics = {"setup_s": (import_s + setup_wall) * speed,
                   "op_adj_s.p50": details["stages"]["op_adj_s"]["p50"],
                   "peak_rss_mb": peak_rss_mb()}
        units = dict(END_TO_END)
    details["failed_share"] = outcomes.failed / max(1, outcomes.attempted)
    details["failures"] = outcomes.failures
    result = {
        "correct": outcomes.incorrect == 0,
        "attempted": max(1, outcomes.attempted),
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return details, result


def traced_metrics(wl, sizes, outcomes, ok, details, seed, tmp_root):
    """Fixed work untraced, then the same work traced from a fresh set-up.
    The untraced work runs twice and the second pass is timed, so that the
    overhead does not include the first operation's warm-up."""
    from tracing import Tracer
    from workloads import Outcomes
    count = sizes.traced_probes if wl.name == "drift_apply" else 1
    plain_times, plain_digests = [], []
    if ok:
        _, _, warm_digests = run_ops(wl, outcomes, count=count)
        plain_times, _, plain_digests = run_ops(wl, outcomes, count=count)
        if warm_digests != plain_digests:
            outcomes.incorrect += 1
            outcomes.failures.append({"op": "repeat", "error": "check", "exit_code": None,
                                      "message": "repeated operations gave different outputs"})
    tracer = Tracer()
    tracer.install()
    try:
        traced_outcomes = Outcomes()
        with tracer.span("bench.setup"):
            traced_ok = wl.setup(traced_outcomes)
        traced_times, _, traced_digests = run_ops(
            wl, traced_outcomes, count=count, around=lambda: tracer.span("bench.op")) \
            if ok and traced_ok else ([], {}, [])
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(tmp_root, f"trace-{wl.name}-seed{seed}.json"))
    if traced_digests != plain_digests or traced_ok != ok:
        outcomes.incorrect += 1
        outcomes.failures.append({"op": "trace", "error": "check", "exit_code": None,
                                  "message": "traced outputs differ from untraced"})
    overhead = (statistics.median(traced_times) - statistics.median(plain_times)
                if plain_times and traced_times else 0.0)
    details["digests"] = plain_digests
    details["traced_failures"] = traced_outcomes.failures
    return tracer.metrics(getattr(wl, "stage_seconds", None), overhead)


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "paratorus" / "__init__.py").is_file():
        print(f"paratorus sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    allocator = "mmap threshold 32 MiB" if pin_allocator() else "default"
    sys.path.insert(0, str(SRC))
    import paratorus
    if Path(paratorus.__file__).resolve().parent != SRC / "paratorus":
        print(f"imported paratorus from {paratorus.__file__}, not {SRC}", file=sys.stderr)
        return 2
    details, result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                   allocator=allocator)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
