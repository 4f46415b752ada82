"""Command-line driver: solve runs, benchmark table, spectrum reports.

Exit codes: 0 converged/ok, 1 invalid input, 2 max-iterations,
3 numerical failure (breakdown or bracket failure).
"""

import argparse
import io
import json
import sys
import time

import numpy as np

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
SI_CAP = 10000


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the artifact reserves 2 for
    # max-iterations, so raise usage problems for main to report as invalid input.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _fmt(x):
    return f"{x:.17g}"


def load_node_file(path):
    """Read 'weight node' pairs, one per line; '#' starts a comment."""
    weights, nodes = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'weight node', got {raw!r}")
            weights.append(float(parts[0]))
            nodes.append(float(parts[1]))
    weights = np.array(weights)
    nodes = np.array(nodes)
    order = np.argsort(-nodes)
    return weights[order], nodes[order]


def build_from_args(args):
    alpha = float(args.alpha)
    c = float(args.c)
    if args.nodes:
        weights, nodes = load_node_file(args.nodes)
        params = TransportParams(alpha=alpha, c=c, weights=weights, omegas=nodes)
    elif args.n is not None:
        params = quadrature_params(int(args.n), alpha, c)
    else:
        raise ValueError("provide --n or --nodes")
    return build_problem(params)


def _shift_for(problem, solver, eta_arg, xi_arg):
    mode = "single" if solver.endswith("single") else "double"
    spec = shift.default_shift(problem, mode)
    eta = spec.eta if eta_arg in (None, "auto") else float(eta_arg)
    xi = spec.xi if xi_arg in (None, "auto") else float(xi_arg)
    relaxed = solver.startswith("si")
    return shift.make_shift(problem, eta, xi, mode, relaxed=relaxed)


def run_solver(problem, solver, eta=None, xi=None, gamma=None, tol=None,
               max_iter=None):
    """Dispatch one solver run; returns (solution, shift_spec, gamma_used)."""
    spec = None
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    if solver in ("sda", "sda-single", "sda-double"):
        if solver == "sda":
            quad = problem.quad
        else:
            spec = _shift_for(problem, solver, eta, xi)
            quad = shift.shifted_coefficients(problem, spec)
        config = SdaConfig(gamma=gamma if gamma is not None else "auto",
                           tol=tol if tol is not None else "auto",
                           max_iter=100 if max_iter is None else max_iter)
        gamma_used = resolve_gamma(quad, config)
        sol = sda_solve(problem, quad, config)
        return sol, spec, gamma_used
    config = SiConfig(tol=tol if tol is not None else "auto",
                      max_iter=SI_CAP if max_iter is None else max_iter)
    if solver == "si":
        return si_solve(problem, config), None, None
    spec = _shift_for(problem, solver, eta, xi)
    return si_shifted_solve(problem, spec, config), spec, None


def _csv_row(n, solver, spec, gamma_used, sol, wall_ms):
    eta = _fmt(spec.eta) if spec else ""
    xi = _fmt(spec.xi) if spec else ""
    gam = _fmt(gamma_used) if gamma_used is not None else ""
    if sol is None:
        return f"{n},{solver},{eta},{xi},{gam},,,,{wall_ms:.3f},false"
    return (f"{n},{solver},{eta},{xi},{gam},{sol.iterations},"
            f"{_fmt(sol.res_final)},{_fmt(sol.err_final)},"
            f"{wall_ms:.3f},{str(sol.converged).lower()}")


def cmd_solve(args, out):
    problem = build_from_args(args)
    if args.solver != "sda" and args.solver != "si" and not problem.is_critical:
        raise ValueError("shifted solvers require the critical case (alpha, c) = (0, 1)")
    t0 = time.perf_counter()
    sol, spec, gamma_used = run_solver(
        problem, args.solver, eta=args.eta, xi=args.xi, gamma=args.gamma,
        tol=args.tol, max_iter=args.max_iter)
    wall_ms = (time.perf_counter() - t0) * 1e3
    shifted_quad = None
    if spec is not None:
        shifted_quad = shift.shifted_coefficients(problem, spec, check=False)
    report = diagnostics.solution_report(problem, sol, shifted_quad)
    if args.format == "csv":
        print(CSV_HEADER, file=out)
        print(_csv_row(problem.n, args.solver, spec, gamma_used, sol, wall_ms),
              file=out)
    elif args.format == "json":
        payload = {
            "n": problem.n, "solver": args.solver,
            "eta": spec.eta if spec else None,
            "xi": spec.xi if spec else None,
            "gamma": gamma_used,
            "iterations": sol.iterations,
            "res": sol.res_final, "err_final": sol.err_final,
            "wall_ms": wall_ms, "converged": sol.converged,
            "stop_reason": sol.stop_reason,
            "res_normalized": report.res,
            "identity_gaps": report.identity_gaps,
            "m_matrix_certificates": report.m_matrix_certificates,
        }
        print(json.dumps(payload, default=float), file=out)
    else:
        print(f"solver      : {args.solver}", file=out)
        print(f"n           : {problem.n}", file=out)
        if spec is not None:
            print(f"eta, xi     : {spec.eta:.6g}, {spec.xi:.6g}", file=out)
        if gamma_used is not None:
            print(f"gamma       : {gamma_used:.6g}", file=out)
        print(f"iterations  : {sol.iterations}", file=out)
        print(f"residual    : {sol.res_final:.1e}", file=out)
        print(f"update err  : {sol.err_final:.1e}", file=out)
        print(f"converged   : {sol.converged}", file=out)
        print(f"stop reason : {sol.stop_reason}", file=out)
        for key, val in report.identity_gaps.items():
            print(f"{key:<12s}: {val:.1e}", file=out)
        for key, val in report.m_matrix_certificates.items():
            print(f"{key:<12s}: {val}", file=out)
        if not (report.rate_estimate != report.rate_estimate):  # not NaN
            print(f"rate, order : {report.rate_estimate:.3f}, "
                  f"{report.order_estimate:.2f}", file=out)
    return EXIT_OK if sol.converged else EXIT_MAX_ITER


def table51_rows(sizes, si_cap=SI_CAP):
    """Run the full solver grid; yields (n, solver, sol, spec, gamma, wall_ms).

    A numerical failure in one cell (breakdown, bracket loss) is recorded
    as ``sol = None`` so the rest of the grid still runs.
    """
    rows = []
    for n in sizes:
        problem = build_problem(quadrature_params(n))
        for solver in SOLVERS:
            max_iter = si_cap if solver.startswith("si") else 100
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
    rows = table51_rows(sizes, si_cap=SI_CAP if args.max_iter is None else args.max_iter)
    by_key = {(n, solver): sol for n, solver, sol, _, _, _ in rows}
    groups = (("SDA(no shift)", "sda"), ("SDA(single shift)", "sda-single"),
              ("SDA(double shifts)", "sda-double"))
    si_groups = (("SI(no shift)", "si"), ("SI(single shift)", "si-single"),
                 ("SI(double shifts)", "si-double"))
    for block in (groups, si_groups):
        header = "n".ljust(6) + "".join(title.ljust(22) for title, _ in block)
        print(header, file=out)
        for n in sizes:
            line = str(n).ljust(6) + "".join(
                _cell(by_key[(n, key)]).ljust(22) for _, key in block)
            print(line, file=out)
        print("", file=out)
    csv_lines = [CSV_HEADER]
    for n, solver, sol, spec, gamma_used, wall_ms in rows:
        csv_lines.append(_csv_row(n, solver, spec, gamma_used, sol, wall_ms))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(csv_lines) + "\n")
    elif args.format == "csv":
        for line in csv_lines:
            print(line, file=out)
    return EXIT_OK


def cmd_spectrum(args, out):
    problem = build_from_args(args)
    if not problem.is_critical:
        raise ValueError("spectrum reports require the critical case")
    shifted = args.eta is not None or args.xi is not None
    if shifted:
        spec = _shift_for(problem, "si-double", args.eta, args.xi)
        if spec.xi == 0.0:
            # a single shift leaves the characteristic polynomial unchanged
            report = spectra.interlaced_spectrum(problem)
            print("# single-shift spectrum coincides with the unshifted one",
                  file=out)
        else:
            report = spectra.shifted_interlaced_spectrum(problem, spec)
            print(f"# eigenvalues of the double-shifted block matrix "
                  f"(eta={spec.eta:.6g}, xi={spec.xi:.6g})", file=out)
    else:
        report = spectra.interlaced_spectrum(problem)
        print("# eigenvalues of the critical block matrix", file=out)
    poles = set(np.round(report.fixed_roots, 12))
    for val in report.eigenvalues:
        if val == 0.0 and report.includes_zero:
            tag = "zero"
        elif np.round(val, 12) in poles:
            tag = "pole 1/omega"
        else:
            tag = "interior"
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
        p.add_argument("--n", type=int, help="composite quadrature size (multiple of 4)")
        p.add_argument("--alpha", default="0", help="alpha in [0, 1)")
        p.add_argument("--c", default="1", help="c in (0, 1]")
        p.add_argument("--nodes", help="node file: 'weight node' per line")

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
