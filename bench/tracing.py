"""Span tracing for the benchmark's traced run, and the per-layer metrics.

``Tracer.installed()`` wraps the public nare functions in ``TRACED`` at every
module attribute through which callers look them up (``nare.sda.lu_solve``
as well as ``nare.linalg.lu_solve``) and restores them on exit.  Each call
records one span: name, start, end, parent span and job id.  Spans stay in
memory in flat arrays and are written out once, at the end of the run.

A span's self time is its duration minus the durations of its direct
children.  Calls are single-threaded and nest, so the self times of a
job's spans add up to the job's root span.
"""

import functools
import gzip
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (defining module, function); the metric prefix is "<module>.<function>"
TRACED = (
    ("problem", "quadrature_params"),
    ("problem", "build_problem"),
    ("cli", "run_solver"),
    ("shift", "default_shift"),
    ("shift", "make_shift"),
    ("shift", "shifted_coefficients"),
    ("sda", "resolve_gamma"),
    ("sda", "sda_solve"),
    ("sda", "sda_init"),
    ("sda", "sda_step"),
    ("si", "si_solve"),
    ("si", "si_shifted_solve"),
    ("si", "build_kernel"),
    ("si", "si_step"),
    ("si", "si_solution"),
    ("si", "si_shift_step"),
    ("diagnostics", "relative_residual"),
    ("diagnostics", "relative_update_error"),
    ("diagnostics", "normalized_residual"),
    ("diagnostics", "solution_identities"),
    ("diagnostics", "shift_equivalence_gap"),
    ("diagnostics", "certify_m_matrix"),
    ("diagnostics", "convergence_order"),
    ("diagnostics", "solution_report"),
    ("linalg", "lu_solve"),
    ("linalg", "lu_inverse"),
    ("spectra", "interlaced_spectrum"),
    ("spectra", "shifted_interlaced_spectrum"),
    ("spectra", "closed_loop_spectrum"),
    ("spectra", "sda_rate_bound"),
)
MODULES = ("problem", "shift", "sda", "si", "diagnostics", "spectra", "linalg", "cli")
NAMES = ("job",) + tuple(f"{mod}.{fn}" for mod, fn in TRACED)  # 0 is a job's root span
IDS = {n: i for i, n in enumerate(NAMES)}

# diagnostics.stop_share is the self time of STOP_METRICS over the solver-loop
# time: the time in the solve functions less their set-up calls.
SOLVE_LOOPS = ("sda.sda_solve", "si.si_solve", "si.si_shifted_solve")
SOLVE_SETUP = ("sda.sda_init", "si.build_kernel")
STOP_METRICS = ("diagnostics.relative_residual", "diagnostics.relative_update_error",
                "si.si_solution")

DERIVED = (
    ("linalg.lu_solve.rhs_cols_per_step", "cols/step"),
    ("diagnostics.stop_share", "share"),
    ("si.si_solution.calls_per_sweep", "calls/sweep"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metric_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for name in NAMES[1:]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.p50_us"] = "us"
    units.update(DERIVED)
    return units


def _under(name, parent, parent_names):
    """Mask of the spans whose parent span has one of ``parent_names``."""
    mask = parent >= 0
    mask[mask] = np.isin(name[parent[mask]], [IDS[n] for n in parent_names])
    return mask


def _rhs_cols(args, kwargs):
    b = kwargs["b"] if "b" in kwargs else args[1]
    return b.shape[1] if np.ndim(b) == 2 else 1


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._job = array("q")
        self._cols = array("q")
        self._stack = []
        self._job_id = -1

    def _open(self, name_id, cols=0):
        sid = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._job.append(self._job_id)
        self._cols.append(cols)
        self._end.append(0.0)
        self._stack.append(sid)
        self._start.append(perf_counter())
        return sid

    def _close(self, sid):
        self._end[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_id):
        count_cols = NAMES[name_id] == "linalg.lu_solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job_id < 0:  # a check between jobs, not part of one
                return fn(*args, **kwargs)
            sid = self._open(name_id, _rhs_cols(args, kwargs) if count_cols else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    @contextmanager
    def job(self, job_id):
        """Root span of one job; yields a callable returning its duration in s."""
        self._job_id = job_id
        sid = self._open(0)
        try:
            yield lambda: self._end[sid] - self._start[sid]
        finally:
            self._close(sid)
            self._job_id = -1

    @contextmanager
    def installed(self):
        """Patch every module attribute bound to a traced function."""
        wrappers = {}
        for name_id, (mod, fn_name) in enumerate(TRACED, start=1):
            fn = getattr(importlib.import_module(f"nare.{mod}"), fn_name)
            if fn.__module__ != f"nare.{mod}":
                raise RuntimeError(f"nare.{mod}.{fn_name} is defined in {fn.__module__}")
            wrappers[id(fn)] = self._wrap(fn, name_id)
        patched = []
        try:
            for mod_name in MODULES:
                mod = importlib.import_module(f"nare.{mod_name}")
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrappers:
                        patched.append((mod, attr, val))
                        setattr(mod, attr, wrappers[id(val)])
            yield self
        finally:
            for mod, attr, val in patched:
                setattr(mod, attr, val)

    def _columns(self):
        name = np.frombuffer(self._name, dtype=np.int32)
        start = np.frombuffer(self._start, dtype=np.float64)
        dur = np.frombuffer(self._end, dtype=np.float64) - start
        parent = np.frombuffer(self._parent, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return name, start, dur, parent, dur - child

    def unbalanced_jobs(self, rel_tol=1e-6):
        """Job ids whose span self times do not add up to the root duration."""
        name, _, dur, _, self_t = self._columns()
        job = np.frombuffer(self._job, dtype=np.int64)
        roots = np.nonzero(name == 0)[0]
        sums = np.bincount(job, weights=self_t, minlength=int(job.max()) + 1)
        return [int(job[r]) for r in roots
                if abs(sums[job[r]] - dur[r]) > rel_tol * dur[r]]

    def layer_metrics(self, overhead_ratio):
        """Per-layer metrics over every traced span, with their units."""
        name, _, dur, parent, self_t = self._columns()
        values = {}
        for n in NAMES[1:]:
            mask = name == IDS[n]
            calls = int(np.count_nonzero(mask))
            values[f"{n}.calls"] = calls
            values[f"{n}.self_ms"] = float(self_t[mask].sum()) * 1e3
            values[f"{n}.p50_us"] = float(np.median(dur[mask])) * 1e6 if calls else 0.0

        steps = values["sda.sda_step.calls"]
        under_step = (name == IDS["linalg.lu_solve"]) & _under(name, parent, ["sda.sda_step"])
        cols = np.frombuffer(self._cols, dtype=np.int64)
        values["linalg.lu_solve.rhs_cols_per_step"] = (
            float(cols[under_step].sum()) / steps if steps else 0.0)

        loop = sum(float(dur[name == IDS[n]].sum()) for n in SOLVE_LOOPS)
        in_setup = (np.isin(name, [IDS[n] for n in SOLVE_SETUP])
                    & _under(name, parent, SOLVE_LOOPS))
        loop -= float(dur[in_setup].sum())
        stop = sum(values[f"{n}.self_ms"] for n in STOP_METRICS) / 1e3
        values["diagnostics.stop_share"] = stop / loop if loop > 0 else 0.0

        sweeps = values["si.si_step.calls"]
        values["si.si_solution.calls_per_sweep"] = (
            values["si.si_solution.calls"] / sweeps if sweeps else 0.0)
        values["trace.overhead_ratio"] = overhead_ratio
        units = layer_metric_units()
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    def self_time_under(self, parent_name):
        """Total self time in s of each span name directly under ``parent_name``,
        with the parent's own self time under its own name."""
        name, _, _, parent, self_t = self._columns()
        under = _under(name, parent, [parent_name])
        totals = {NAMES[i]: float(self_t[under & (name == i)].sum())
                  for i in np.unique(name[under])}
        totals[parent_name] = float(self_t[name == IDS[parent_name]].sum())
        return totals

    def write(self, path):
        """Write every span as gzipped CSV (times in microseconds)."""
        name, start, dur, parent, self_t = self._columns()
        job = np.frombuffer(self._job, dtype=np.int64)
        t0 = float(start.min()) if len(start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("span,job,parent,name,start_us,dur_us,self_us\n")
            for sid in range(len(name)):
                fh.write(f"{sid},{job[sid]},{parent[sid]},{NAMES[name[sid]]},"
                         f"{(start[sid] - t0) * 1e6:.3f},{dur[sid] * 1e6:.3f},"
                         f"{self_t[sid] * 1e6:.3f}\n")
