"""Command-line driver: solve runs, benchmark table, spectrum reports.

Exit codes: 0 converged/ok, 1 invalid input, 2 max-iterations,
3 numerical failure (breakdown or bracket failure).
"""

import argparse
import io
import json
import os
import platform
import re
import sys
import time
import warnings

import numpy as np
import scipy

from . import diagnostics, shift, spectra
from .errors import Breakdown, BracketFailure, NareError
from .problem import TransportParams, build_problem, quadrature_params
from .sda import SdaConfig, resolve_gamma, sda_solve
from .si import SiConfig, si_shifted_solve, si_solve

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MAX_ITER = 2
EXIT_NUMERICAL = 3

SOLVERS = ("sda", "sda-single", "sda-double", "si", "si-single", "si-double")
CSV_HEADER = "n,solver,eta,xi,gamma,iterations,res,err_final,wall_ms,converged"
TABLE_SIZES = (32, 64, 128, 256)
SI_CAP = SiConfig.max_iter


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a separate "-5e-1" as an option: its own pattern has no exponent
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with 2 on usage errors; the artifact reserves 2 for
    # max-iterations, so raise usage problems for main to report as invalid input.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _fmt(x):
    return f"{x:.17g}"


def build_from_args(args):
    if args.nodes:
        with warnings.catch_warnings():  # a file with no pairs is refused below
            warnings.simplefilter("ignore", UserWarning)
            pairs = np.loadtxt(args.nodes, ndmin=2)
        if pairs.shape[1] != 2:
            raise ValueError(f"{args.nodes}: expected 'weight node' pairs, one per line")
        weights, nodes = pairs[np.argsort(-pairs[:, 1])].T.copy()  # descending nodes
        params = TransportParams(args.alpha, args.c, weights, nodes)
    else:
        params = quadrature_params(args.n, args.alpha, args.c)
    return build_problem(params)


def _shift_for(problem, mode, eta_arg, xi_arg):
    eta = None if eta_arg in (None, "auto") else float(eta_arg)
    xi = None if xi_arg in (None, "auto") else float(xi_arg)
    return shift.make_shift(problem, eta, xi, mode)


def run_solver(problem, solver, eta=None, xi=None, gamma=None, tol=None,
               max_iter=None):
    """Dispatch one solver run; returns (solution, shift_spec, gamma_used).

    Unset settings take the config defaults; the solver checks the shift's region.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    family, _, mode = solver.partition("-")
    # a setting the solver would not read is refused, not dropped
    if not mode and (eta is not None or xi is not None):
        raise ValueError(f"{solver} is not shifted: eta and xi apply to the shifted solvers")
    if family == "si" and gamma is not None:
        raise ValueError(f"{solver} takes no gamma: it applies to the doubling solvers")
    cap = {} if max_iter is None else {"max_iter": max_iter}
    if family == "si":
        config = SiConfig(tol=tol, **cap)
        if not mode:
            return si_solve(problem, config), None, None
        spec = _shift_for(problem, mode, eta, xi)
        return si_shifted_solve(problem, spec, config), spec, None
    spec = _shift_for(problem, mode, eta, xi) if mode else None
    quad = shift.shifted_coefficients(problem, spec) if spec else problem.quad
    config = SdaConfig(gamma=gamma, tol=tol, **cap)
    return sda_solve(problem, quad, config), spec, resolve_gamma(quad, gamma)


def _fields(n, solver, sol, spec, gamma_used, wall_ms):
    """The CSV_HEADER fields of one run, in order; None where one does not apply."""
    eta, xi = (spec.eta, spec.xi) if spec else (None, None)
    its, res, err, ok = ((sol.iterations, sol.res_final, sol.err_final, sol.converged)
                         if sol else (None, None, None, False))
    return dict(zip(CSV_HEADER.split(","),
                    (n, solver, eta, xi, gamma_used, its, res, err, wall_ms, ok)))


def _csv_row(fields):
    cells = {**fields, "wall_ms": f"{fields['wall_ms']:.3f}",
             "converged": str(fields["converged"]).lower()}
    return ",".join("" if val is None else _fmt(val) if isinstance(val, float) else str(val)
                    for val in cells.values())


def cmd_solve(args, out):
    problem = build_from_args(args)
    t0 = time.perf_counter()
    sol, spec, gamma_used = run_solver(
        problem, args.solver, eta=args.eta, xi=args.xi, gamma=args.gamma,
        tol=args.tol, max_iter=args.max_iter)
    fields = _fields(problem.n, args.solver, sol, spec, gamma_used,
                     (time.perf_counter() - t0) * 1e3)
    code = EXIT_OK if sol.converged else EXIT_MAX_ITER
    if args.format == "csv":
        print(CSV_HEADER, _csv_row(fields), sep="\n", file=out)
        return code
    # the run checked the shift's region
    shifted_quad = shift.shifted_coefficients(problem, spec, check=False) if spec else None
    t0 = time.perf_counter()
    report = diagnostics.solution_report(problem, sol, shifted_quad)
    report_ms = (time.perf_counter() - t0) * 1e3
    record = {**fields, "stop_reason": sol.stop_reason, "res_normalized": report.res,
              "rate_estimate": report.rate_estimate, "order_estimate": report.order_estimate,
              "identity_gaps": report.identity_gaps,
              "m_matrix_certificates": report.m_matrix_certificates,
              "report_ms": report_ms}
    if args.format == "json":  # JSON has no NaN or Infinity: they are written as null
        safe = json.loads(json.dumps(record), parse_constant=lambda _: None)
        print(json.dumps({**safe, "env": run_environment()}, allow_nan=False), file=out)
        return code
    # one line an entry, nested maps flattened; a NaN rate or order had too short a history
    lines = [(k.replace("_", " "), v) for key, val in record.items()
             for k, v in (val.items() if isinstance(val, dict) else [(key, val)]) if v == v]
    width = max(len(key) for key, _ in lines)
    for key, val in lines:
        print(f"{key:<{width}} : {f'{val:.6g}' if isinstance(val, float) else val}", file=out)
    return code


def run_environment():
    """Library versions, BLAS thread variables as set (None when unset) and BLAS name."""
    try:  # numpy >= 1.25
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            **{name: os.environ.get(name) for name in threads}}


def table51_rows(sizes, si_cap=None):
    """Run the full solver grid; returns a list of (n, solver, sol, spec, gamma, wall_ms).

    ``si_cap`` None keeps ``SiConfig``'s cap.  A numerical failure in one cell
    (breakdown, bracket loss) is recorded as ``sol = None`` so the rest of the
    grid still runs.
    """
    rows = []
    for n in sizes:
        problem = build_problem(quadrature_params(n))
        for solver in SOLVERS:
            max_iter = si_cap if solver.partition("-")[0] == "si" else None
            t0 = time.perf_counter()
            try:
                sol, spec, gamma_used = run_solver(problem, solver,
                                                   max_iter=max_iter)
            except NareError:
                sol, spec, gamma_used = None, None, None
            wall_ms = (time.perf_counter() - t0) * 1e3
            rows.append((n, solver, sol, spec, gamma_used, wall_ms))
    return rows


def _cell(sol):
    if sol is None:
        return "*"
    if sol.converged:
        return f"{sol.res_final:.1e}({sol.iterations})"
    return f"* (>{sol.iterations})"


def cmd_table51(args, out):
    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else list(TABLE_SIZES)
    rows = table51_rows(sizes, si_cap=args.max_iter)
    by_key = {(n, solver): sol for n, solver, sol, _, _, _ in rows}
    titles = ("no shift", "single shift", "double shifts")
    for family, block in (("SDA", SOLVERS[:3]), ("SI", SOLVERS[3:])):
        print("n".ljust(6) + "".join(f"{family}({t})".ljust(22) for t in titles), file=out)
        for n in sizes:
            print(str(n).ljust(6) + "".join(_cell(by_key[(n, s)]).ljust(22) for s in block),
                  file=out)
        print("", file=out)
    csv_lines = [CSV_HEADER] + [_csv_row(_fields(*row)) for row in rows]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(csv_lines) + "\n")
    elif args.format == "csv":
        print("\n".join(csv_lines), file=out)
    return EXIT_OK


def cmd_spectrum(args, out):
    problem = build_from_args(args)
    if args.eta is not None or args.xi is not None:
        spec = _shift_for(problem, "double", args.eta, args.xi)
        report = spectra.shifted_interlaced_spectrum(problem, spec)
        print(f"# eigenvalues of the double-shifted block matrix "
              f"(eta={spec.eta:.6g}, xi={spec.xi:.6g})", file=out)
    else:
        report = spectra.interlaced_spectrum(problem)
        print("# eigenvalues of the critical block matrix", file=out)
    tagged = ([(v, "pole 1/omega") for v in report.fixed_roots]
              + [(v, "interior") for v in report.free_roots]
              + ([(0.0, "zero")] if report.includes_zero else []))
    for val, tag in sorted(tagged, key=lambda t: t[0]):
        print(f"{_fmt(val)}  [{tag}]", file=out)
    if report.on_boundary:
        print("# shift on the region boundary", file=out)
    return EXIT_OK


def make_parser():
    parser = _Parser(prog="nare",
                     description="Transport-theory Riccati solvers with shift "
                                 "acceleration")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        size = p.add_mutually_exclusive_group(required=True)
        size.add_argument("--n", type=int, help="composite quadrature size (multiple of 4)")
        size.add_argument("--nodes", help="node file: 'weight node' per line, any order")
        p.add_argument("--alpha", type=float, default=0.0, help="alpha in [0, 1)")
        p.add_argument("--c", type=float, default=1.0, help="c in (0, 1]")

    solve = sub.add_parser("solve", help="run one solver")
    add_problem_flags(solve)
    solve.add_argument("--solver", default="sda", choices=SOLVERS)
    solve.add_argument("--eta", help="shift eta or 'auto'")
    solve.add_argument("--xi", help="shift xi or 'auto'")
    solve.add_argument("--gamma", type=float, help="doubling scalar override")
    solve.add_argument("--tol", type=float, help="stopping threshold (default n^2 eps)")
    solve.add_argument("--max-iter", type=int, dest="max_iter")
    solve.add_argument("--format", default="table", choices=("table", "csv", "json"))
    solve.add_argument("--out", help="write output to a file")

    table = sub.add_parser("table51", help="benchmark grid over all six solvers")
    table.add_argument("--sizes", help="comma-separated sizes (default 32,64,128,256)")
    table.add_argument("--max-iter", type=int, dest="max_iter",
                       help="iteration cap for the vector solvers")
    table.add_argument("--format", default="table", choices=("table", "csv"))
    table.add_argument("--out", help="write the CSV twin to a file")

    spectrum = sub.add_parser("spectrum", help="interlaced eigenvalue report")
    add_problem_flags(spectrum)
    spectrum.add_argument("--eta", help="shift eta or 'auto'")
    spectrum.add_argument("--xi", help="shift xi or 'auto'")

    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command != "solve":
            return (cmd_table51 if args.command == "table51" else cmd_spectrum)(args, sys.stdout)
        # a failed solve must leave --out as it was: open it only to write
        out = io.StringIO() if args.out else sys.stdout
        code = cmd_solve(args, out)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out.getvalue())
        return code
    except (BracketFailure, Breakdown) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (NareError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
