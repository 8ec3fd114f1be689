"""Benchmark of the gldof command line: four workloads, calibrated timings.

    python3 bench/run.py --workload {mc,path,fd,oneshot} --seed N \
        --seconds S --trace {0,1}

Each operation is one in-process call of `gldof.cli.main`, closed loop, in
one process, with BLAS fixed to one thread.  Every output is checked.  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics from a traced run with --trace 1).  See bench/README.md.
"""

import os
import time


def _process_start() -> float:
    """When this process started, on the perf_counter clock: now, less the
    time since the kernel's start time of the process (Linux, 10 ms
    resolution), so interpreter start-up counts; elsewhere, now."""
    now = time.perf_counter()
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        since_boot = time.clock_gettime(time.CLOCK_BOOTTIME)
        return now - max(0.0, since_boot - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return now


T_START = _process_start()

# must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# calibration loop size per workload (the coefficient dimension of its
# solves) and the loop's time at each size on the reference machine (README)
CAL_DIM = {"mc": 40, "path": 200, "fd": 40, "oneshot": 40}
CAL_REF_S = {40: 0.0088, 200: 0.0135}
# a calibration sample is taken after every call, or for short calls once
# this much call time has accumulated
CAL_EVERY_S = {"mc": 0.0, "path": 0.0, "fd": 0.0, "oneshot": 0.2}
SETUP_REPS = 3
TRACE_ROUNDS = {"mc": 1, "path": 1, "fd": 1, "oneshot": 2}


def import_program():
    if not os.path.isfile(os.path.join(SRC, "gldof", "cli.py")):
        sys.exit(f"error: no gldof sources at {SRC}")
    sys.path.insert(0, SRC)
    import gldof.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(gldof.cli.__file__))) != SRC:
        sys.exit(f"error: imported gldof from {gldof.cli.__file__}, not from {SRC}")
    return gldof.cli


class Calibration:
    """A fixed number of FISTA iterations on a fixed group lasso problem in
    dimension n (blocks of 4): small numpy matvecs, block reductions and
    Python arithmetic, the mix of the program's solver at that size.

    It is timed between calls, and a run's call times are rescaled by its
    reference time over the median of the run's samples.  That median
    follows the machine's drift between runs, which lasts minutes to hours;
    matching each call with the samples next to it was tried and only added
    the noise of single samples.  The loop runs at the workload's own
    dimension because work at n = 40 and at n = 200 speed up by different
    factors when the machine's speed shifts (42 % and 28 % in one shift).
    """

    def __init__(self, np, n: int):
        self.np = np
        self.ref_s = CAL_REF_S[n]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2 * n, n)) / math.sqrt(2 * n)
        self.gram = x.T @ x
        self.c = x.T @ rng.standard_normal(2 * n)
        self.step = 1.0 / float(np.linalg.eigvalsh(self.gram)[-1])
        self.perm = rng.permutation(n)
        self.offsets = np.arange(0, n, 4)
        self.thresh = 0.5 * self.step * float(
            np.sqrt(np.add.reduceat(self.c ** 2, self.offsets)).max())
        self.samples = []

    def sample(self) -> float:
        np, perm, offsets = self.np, self.perm, self.offsets
        start = time.perf_counter()
        v = z = np.zeros(self.c.size)
        t = 1.0
        for _ in range(400):
            s = (z - self.step * (self.gram @ z - self.c))[perm]
            norms = np.sqrt(np.add.reduceat(s * s, offsets))
            scale = np.maximum(norms - self.thresh, 0.0) / np.maximum(norms, 1e-300)
            w = np.empty_like(z)
            w[perm] = s * np.repeat(scale, 4)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            z = w + ((t - 1.0) / t_next) * (w - v)
            v, t = w, t_next
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


class Timeline:
    """Raw call times, with a calibration sample taken after every call, or
    for short calls after every `every` seconds of calls."""

    def __init__(self, cal: Calibration, every: float):
        self.cal, self.every = cal, every
        self.first = len(cal.samples)
        cal.sample()
        self.since = 0.0
        self.raw, self.units = [], []

    def add(self, raw: float, units: int) -> None:
        self.raw.append(raw)
        self.units.append(units)
        self.since += raw
        if self.since >= self.every:
            self.cal.sample()
            self.since = 0.0

    def factor(self) -> float:
        """Calibrated seconds per raw second over this timeline."""
        return self.cal.ref_s / statistics.median(self.cal.samples[self.first:])


class Runner:
    """Runs operations through the CLI and checks their outputs."""

    def __init__(self, cli, checker):
        self.cli, self.checker = cli, checker
        self.attempted = self.failed = 0
        self.error = None

    def call(self, op) -> tuple[int | None, float]:
        if os.path.exists(op.out):
            os.remove(op.out)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except Exception:
                rc = None
                traceback.print_exc(file=sys.__stderr__)
            elapsed = time.perf_counter() - start
        return rc, elapsed

    def check(self, op, rc, round_pos: int) -> None:
        self.attempted += 1
        try:
            if rc is None:
                raise AssertionError(f"gldof {' '.join(op.argv[:2])} raised")
            if not self.checker.check(op, rc, round_pos):
                self.failed += 1
        except (AssertionError, KeyError, OSError, TypeError, ValueError) as e:
            self.failed += 1
            if self.error is None:
                self.error = f"{op.kind}: {e}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(cli, wl, args, workdir, cal) -> tuple[float, float]:
    """Untimed warm-up calls, each after generating one round of inputs.

    Returns setup_s raw and calibrated: the time from process start through
    the imports plus the median of SETUP_REPS repetitions of (input
    generation + one call), calibrated by the median of the calibration
    samples taken around them.  The warm-up inputs are the same whatever the
    seed (seed 0, rounds the timed phase never reaches), so that set-up time
    does not follow the cost of the designs a seed draws.
    """
    import_s = time.perf_counter() - T_START
    first = len(cal.samples)
    cal.sample()
    reps = []
    for k in range(SETUP_REPS):
        start = time.perf_counter()
        ops = wl.ROUNDS[args.workload](0, 1_000_000 + k, workdir)
        Runner(cli, wl.Checker()).call(ops[0])
        reps.append(time.perf_counter() - start)
        cal.sample()
    raw = import_s + statistics.median(reps)
    return raw, raw * cal.ref_s / statistics.median(cal.samples[first:])


def timed_run(cli, wl, args, workdir, cal):
    timeline = Timeline(cal, CAL_EVERY_S[args.workload])
    runner = Runner(cli, wl.Checker())
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        runner.checker.new_round()
        for pos, op in enumerate(wl.ROUNDS[args.workload](args.seed, r, workdir)):
            rc, elapsed = runner.call(op)
            timeline.add(elapsed, op.units)
            runner.check(op, rc, pos)
        r += 1
    cal.sample()   # closes the last stretch of short calls
    return runner, timeline


def traced_run(cli, wl, spans, args, workdir, cal):
    """Each operation of the first rounds runs untraced, then traced."""
    plain = Timeline(cal, 0.0)
    traced = Timeline(cal, 0.0)
    runners = [Runner(cli, wl.Checker()) for _ in range(2)]
    tracer = spans.Tracer()
    for r in range(TRACE_ROUNDS[args.workload]):
        for runner in runners:
            runner.checker.new_round()
        for pos, op in enumerate(wl.ROUNDS[args.workload](args.seed, r, workdir)):
            rc, elapsed = runners[0].call(op)
            plain.add(elapsed, op.units)
            runners[0].check(op, rc, pos)
            tracer.install()
            try:
                rc, elapsed = runners[1].call(op)
            finally:
                tracer.uninstall()
            traced.add(elapsed, op.units)
            runners[1].check(op, rc, pos)
    overhead = 100.0 * (sum(traced.raw) / sum(plain.raw) - 1.0)
    scale = 1000.0 * traced.factor()
    metrics = spans.layer_metrics(tracer.spans, tracer.absent, scale, overhead)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
    return runners, metrics, tracer.absent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["mc", "path", "fd", "oneshot"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    import numpy as np

    import spans
    import workloads as wl

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        cal = Calibration(np, CAL_DIM[args.workload])
        setup_raw, setup_s = setup(cli, wl, args, workdir, cal)
        if args.trace:
            runners, metrics, absent = traced_run(cli, wl, spans, args, workdir, cal)
            if absent:
                print(f"absent layers (wrapped function not found): {', '.join(absent)}")
        else:
            runner, timeline = timed_run(cli, wl, args, workdir, cal)
            runners = [runner]
            factor = timeline.factor()
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "call_p50_ms": {"value": 1000.0 * factor * statistics.median(timeline.raw),
                                "unit": "ms"},
                "rate_per_s": {"value": sum(timeline.units) / (factor * sum(timeline.raw)),
                               "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            }
            raw = {"setup_s": setup_raw, "calls": len(timeline.raw),
                   "call_p50_ms": 1000.0 * statistics.median(timeline.raw),
                   "call_p95_ms": 1000.0 * statistics.quantiles(
                       timeline.raw, n=20, method="inclusive")[-1],
                   "rate_per_s": sum(timeline.units) / sum(timeline.raw),
                   "calibration_p50_s": cal.ref_s / factor,
                   "calibration_ref_s": cal.ref_s}
            print("raw " + json.dumps(raw))
        for runner in runners:
            try:
                runner.checker.finish()
            except AssertionError as e:
                runner.error = runner.error or f"{args.workload}: {e}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [r.error for r in runners if r.error]
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    result = {"correct": not errors,
              "attempted": sum(r.attempted for r in runners),
              "failed": sum(r.failed for r in runners),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
