"""nare benchmark: one workload, one process, BLAS pinned to one thread.

Run from the root of a source checkout:

    python3 bench/run.py --workload doubling --seed 1 --seconds 25 --trace 0

The load is a closed loop: one client runs one job at a time and starts the
next when the last one finished.  After set-up the workload's fixed job list
runs pass after pass until ``--seconds`` have gone by.  Only the job calls are
timed; every job's output is checked after its call, and a job that raises
or fails a check counts as failed.

Times are scaled to a fixed host speed.  The shared 2-vCPU machine this
was written on runs the same code at a speed that drifts by up to half
within seconds to minutes (CPU time tracks wall time, so the process is not
descheduled; it runs slower or faster): a pass of ``many-small`` took
0.5 s in some stretches and 0.95 s in others.  Neither the fastest pass
nor the median of a run escapes that: over ten runs of one code the
fastest pass of ``analysis`` spread by 14% to 24% (quartile distance over
median).  So ``Pace.sample`` runs a fixed reference kernel before a pass
and after each job, outside the timed region.  It calls no nare code and
mixes the three kinds of work the jobs are made of: a pure-Python loop,
sixty rounds of small numpy calls on a 256-vector (a dot product,
elementwise arithmetic, a sign) and four 96 x 96 matrix products.  Each
job time of a pass is multiplied by ``REFERENCE_KERNEL_S`` over the median
kernel time of that pass, so it reads as the wall time on a host where the
kernel takes ``REFERENCE_KERNEL_S``.  A change to nare moves a scaled time
as much as the wall time; a drift of the host moves the job and the kernel
together.  No kernel tracks every workload in every state of the host: in
two sets of six and seven 25 s runs per workload that timed the parts side
by side, the loop alone tracked ``doubling`` best (spread of
``jobs_per_s`` 0.013 and 0.047) and the numpy calls alone ``analysis``
(0.022 and 0.027), but each failed elsewhere (0.139 on ``many-small``,
0.135 on ``doubling``).  The mix kept every workload at or below 0.096 in
both sets, against 0.075 to 0.45 unscaled.  The unscaled figures are printed as
comments.  Each job's time is the median of its scaled times over the
passes of the run.

``--trace 0`` prints the end-to-end metrics:

* ``jobs_per_s``: jobs in the list over the sum of their job times;
* ``job_ms.p50`` and ``job_ms.p90``: percentiles over the jobs of the list
  of their job times.  Only ``many-small`` (108 jobs) has ten jobs beyond
  its ``p90``; on the other workloads (3 to 10 jobs) ``p90`` interpolates
  between the slowest jobs;
* ``iterations_total``: ``Solution.iterations`` summed over one pass (on
  ``analysis``, over the solutions that ``solution_report`` checks);
* ``peak_rss_mb``: peak resident memory of this process;
* ``setup_s``: import time, plus the median of three set-ups (problem
  builds, reference solutions, dense eigenvalue references), plus one
  warm-up pass over the job list, scaled by the median kernel time over
  the set-up.

``--trace 1`` interleaves untraced passes with ``TRACED_PASSES`` traced ones,
prints the per-layer metrics of ``tracing.py`` (totals over the traced
passes) and writes every span to ``bench/out/``.  Traced and untraced
passes must give bitwise-identical solutions and iteration counts, and
``trace.overhead_ratio`` is the sum of traced job times over the sum of
untraced ones.

Nothing is read from an installed nare: the package is imported from the
``src`` directory of the checkout this script lives in.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
# the keys of jobs.WORKLOADS; jobs.py imports numpy, so it loads after pinning
WORKLOAD_NAMES = ("doubling", "vector", "many-small", "analysis")
SETUP_REPEATS = 3
TRACED_PASSES = 3
# the reference kernel; its time on the host the scaled times refer to
KERNEL_LOOP = 6000
KERNEL_VECTOR = 256
KERNEL_STEPS = 60
KERNEL_MATRIX = 96
KERNEL_PRODUCTS = 4
REFERENCE_KERNEL_S = 0.8e-3

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    """Thread settings, library versions and hardware, for the record."""
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        **{k: os.environ.get(k) for k in BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def medians(per_job):
    """Each job's median over the passes, from a list of per-job times."""
    return [statistics.median(times) for times in per_job]


class Pace:
    """Host speed, read from a fixed kernel that calls no nare code."""

    def __init__(self):
        import numpy
        rng = numpy.random.default_rng(0)
        self.np = numpy
        self.vector = rng.random(KERNEL_VECTOR)
        self.matrix = rng.random((KERNEL_MATRIX, KERNEL_MATRIX))
        self.samples = []

    def sample(self):
        np, v, m = self.np, self.vector, self.matrix
        t0 = time.perf_counter()
        acc = 0
        for i in range(KERNEL_LOOP):
            acc += i * i
        for _ in range(KERNEL_STEPS):
            np.sign(v * 0.5 + 1.0 - np.dot(v, v))
        for _ in range(KERNEL_PRODUCTS):
            m @ m
        self.samples.append(time.perf_counter() - t0)

    def scale(self, since):
        """Factor from wall time to scaled time over ``samples[since:]``."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples[since:])


class Runner:
    """Runs passes over a job list and checks every output."""

    def __init__(self, jobs, pace):
        self.jobs = jobs
        self.pace = pace
        self.reference = {}          # job index -> digest from the warm-up pass
        self.failures = {}           # execution number -> (label, reasons)
        self.attempted = 0
        self.passes = {"untraced": 0, "traced": 0}
        self.seconds = {mode: [[] for _ in jobs] for mode in self.passes}  # scaled
        self.wall = {mode: [[] for _ in jobs] for mode in self.passes}
        self.traced_executions = []  # tracer job id -> execution number

    def warm_up(self):
        for i, job in enumerate(self.jobs):
            out, _ = self._call(job)
            self.reference[i] = None if out is None else job.digest(out)
            self.pace.sample()
        gc.collect()

    def _call(self, job, tracer=None):
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = job.run()
                return out, time.perf_counter() - t0
            with tracer.job(len(self.traced_executions)) as duration:
                out = job.run()
            return out, duration()
        except Exception:  # a failing job is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            return None, None

    def fail(self, execution, label, reason):
        self.failures.setdefault(execution, (label, []))[1].append(reason)

    def run_pass(self, tracer=None):
        """One pass over the job list; returns the iterations of the pass."""
        mode = "traced" if tracer is not None else "untraced"
        iterations = 0
        first_sample = len(self.pace.samples)
        self.pace.sample()
        wall = []
        for i, job in enumerate(self.jobs):
            execution = self.attempted
            self.attempted += 1
            t_start = time.perf_counter()
            out, seconds = self._call(job, tracer)
            if tracer is not None:
                self.traced_executions.append(execution)
            if out is None:
                seconds = time.perf_counter() - t_start
                self.fail(execution, f"[{mode}] {job.label}", "raised")
            else:
                bad = job.check(out)
                if job.digest(out) != self.reference[i]:
                    bad.append("output differs bitwise from the warm-up pass")
                for reason in bad:
                    self.fail(execution, f"[{mode}] {job.label}", reason)
                iterations += job.iterations(out)
            wall.append(seconds)
            del out
            self.pace.sample()
        factor = self.pace.scale(first_sample)
        for i, seconds in enumerate(wall):
            self.wall[mode][i].append(seconds)
            self.seconds[mode][i].append(seconds * factor)
        # A built problem and its coefficient quadruple refer to each other,
        # so only the cyclic collector frees them; collecting once per pass
        # keeps peak memory independent of how many passes fit in the run.
        gc.collect()
        self.passes[mode] += 1
        return iterations

    @property
    def failed(self):
        return len(self.failures)


def measure(runner, seconds):
    """Untraced passes until ``seconds`` have gone by; end-to-end values.

    Each job is timed by the median of its scaled times.  A pass
    whose outputs differ from the warm-up pass is counted as failed, so the
    iteration count of the last pass stands for every pass.
    """
    deadline = time.perf_counter() + seconds
    while True:
        iterations = runner.run_pass()
        if time.perf_counter() >= deadline:
            break
    job_ms = [s * 1e3 for s in medians(runner.seconds["untraced"])]
    return {
        "jobs_per_s": 1e3 * len(job_ms) / sum(job_ms),
        "job_ms.p50": statistics.median(job_ms),
        "job_ms.p90": statistics.quantiles(job_ms, n=10, method="inclusive")[8],
        "iterations_total": iterations,
    }


def measure_traced(runner, seconds, tracer):
    """Untraced and traced passes in turn; per-layer values."""
    deadline = time.perf_counter() + seconds
    while True:
        runner.run_pass()
        if runner.passes["traced"] < TRACED_PASSES:
            with tracer.installed():
                runner.run_pass(tracer)
        elif time.perf_counter() >= deadline:
            break
    for job_id in tracer.unbalanced_jobs():
        execution = runner.traced_executions[job_id]
        job = runner.jobs[execution % len(runner.jobs)]
        runner.fail(execution, f"[traced] {job.label}",
                    "span self times do not add up to the job time")
    overhead = (sum(medians(runner.seconds["traced"]))
                / sum(medians(runner.seconds["untraced"])))
    return tracer.layer_metrics(overhead)


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)  # before numpy is first imported

    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "nare" / "__init__.py").is_file():
        print(f"error: no nare source tree under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import nare
    if Path(nare.__file__).resolve().parent != src / "nare":
        print(f"error: imported nare from {nare.__file__}, not {src}", file=sys.stderr)
        return 2
    import jobs
    import tracing
    import_s = time.perf_counter() - t0

    pace = Pace()
    pace.sample()
    build = jobs.WORKLOADS[args.workload]
    prep_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        job_list = build(args.seed)
        prep_s.append(time.perf_counter() - t)
        pace.sample()
    runner = Runner(job_list, pace)
    t = time.perf_counter()
    runner.warm_up()
    warm_s = time.perf_counter() - t
    setup_wall_s = import_s + statistics.median(prep_s) + warm_s
    setup_s = setup_wall_s * pace.scale(0)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# env " + json.dumps(environment()))
    print(f"# setup: import {import_s:.3f} s, set-up x{SETUP_REPEATS} "
          f"{', '.join(f'{s:.3f}' for s in prep_s)} s, warm-up {warm_s:.3f} s")

    if args.trace:
        tracer = tracing.Tracer()
        metrics = measure_traced(runner, args.seconds, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(span_file)
        print(f"# {runner.passes['untraced']} untraced and "
              f"{runner.passes['traced']} traced passes of "
              f"{len(job_list)} jobs; spans in {span_file.relative_to(ROOT)}")
        if metrics["sda.sda_step.calls"]["value"]:
            under = tracer.self_time_under("sda.sda_step")
            print("# self time under sda.sda_step (ms): " + ", ".join(
                f"{k} {v * 1e3:.1f}" for k, v in sorted(under.items(), key=lambda kv: -kv[1])))
        for name, m in metrics.items():
            print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    else:
        values = measure(runner, args.seconds)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["setup_s"] = setup_s
        units = {"jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.p90": "ms",
                 "iterations_total": "count", "peak_rss_mb": "MB", "setup_s": "s"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        wall_s = medians(runner.wall["untraced"])
        print(f"# {runner.passes['untraced']} passes of {len(job_list)} jobs; "
              f"percentiles over the {len(job_list)} job times")
        print(f"# reference kernel ms: median {statistics.median(pace.samples) * 1e3:.3f}, "
              f"quartiles {', '.join(f'{q * 1e3:.3f}' for q in statistics.quantiles(pace.samples, n=4))}")
        print(f"# unscaled: jobs_per_s {len(wall_s) / sum(wall_s):.4g}, "
              f"setup_s {setup_wall_s:.4g}")
        print("# job ms (scaled median, wall median, wall fastest): " + ", ".join(
            f"{statistics.median(t) * 1e3:.2f} {statistics.median(w) * 1e3:.2f} {min(w) * 1e3:.2f}"
            for t, w in zip(runner.seconds["untraced"], runner.wall["untraced"])))
        for name, m in metrics.items():
            print(f"{name:20s} {m['value']:>16.6g} {m['unit']}")

    for label, reasons in runner.failures.values():
        print(f"FAILED {label}: {'; '.join(reasons)}", file=sys.stderr)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
