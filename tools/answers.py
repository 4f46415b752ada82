"""Record the answers of a fixed grid of solver and spectra runs, or compare with a record.

    python tools/answers.py --write ANSWERS_baseline.json
    python tools/answers.py --check ANSWERS_baseline.json

The grid: the six solvers at (alpha, c) = (0, 1), ``sda`` and ``si`` also
at (0.3, 0.9), and ``sda`` at (0, 0.9), off the critical point on the symmetric
doubling step, for n in {1, 2, 4, 8, 32, 64, 128, 256} and ``max_iter`` in
{None, 1, 17}, each through ``cli.run_solver``; ``si-single`` and ``si-double``
also at n = 512, where a shifted sweep's residual is summed in row chunks, and
``si`` there with ``max_iter`` in {1, 17} only (the critical classic sweep on a
one-half kernel; uncapped it runs to its 10000-sweep cap), and ``si`` at the
near-critical (1e-4, 1 - 1e-4), n = 256, a 1686-sweep run (the
benchmark's ``vector`` jobs); plus the criterion-2 scalar
cells (n = 1, omega1 in {0.5, 0.37}, the strict xfails among them).  For each
run it records the SHA-256 of x, y and both histories, the stop reason, the
iteration count, ``res_final`` and the gamma used.  For each n of the grid at
(0, 1) it also records the SHA-256 of the eigenvalues of the interlaced and
closed-loop spectra, of the double-shifted spectrum at the default shift and
at (eta, xi) = (0.3, -0.2)/omega1, and of the unshifted, single and double
rate bounds.

``--check`` prints every record that differs, and a summary line with the number of
records whose hashes or ``res_final`` differ.  It exits 1 only when an
iteration count or a stop reason differs, or a record is missing: hashes and
residuals depend on the BLAS build.  BLAS threads default to one, as in the
committed record; the environment can override them.  The record's ``env`` is
``cli.run_environment()``: the Python, numpy and scipy versions, the BLAS that
made the hashes and the thread variables.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nare import (  # noqa: E402
    SdaConfig,
    SiConfig,
    TransportParams,
    build_problem,
    closed_loop_spectrum,
    default_shift,
    interlaced_spectrum,
    make_shift,
    quadrature_params,
    sda_rate_bound,
    sda_solve,
    shifted_coefficients,
    shifted_interlaced_spectrum,
    si_shifted_solve,
    si_solve,
)
from nare.cli import SOLVERS, run_environment, run_solver  # noqa: E402

SIZES = (1, 2, 4, 8, 32, 64, 128, 256)
CAPS = (None, 1, 17)
GATED = ("iterations", "stop_reason")
SPECTRA = ("interlaced", "closed_loop", "shifted_default", "shifted_interior",
           "rate_unshifted", "rate_single", "rate_double")
HASHED = ("x", "y", "err_history", "res_history") + SPECTRA


def grid_problem(n, alpha, c):
    """The n = 1, 2 test directions, else the composite Gauss-Legendre set."""
    if n > 2:
        return build_problem(quadrature_params(n, alpha, c))
    weights, omegas = ([1.0], [0.5]) if n == 1 else ([0.5, 0.5], [0.8, 0.4])
    return build_problem(TransportParams(alpha, c, np.array(weights), np.array(omegas)))


def digest(values):
    if values is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def record(sol, gamma=None):
    return {"iterations": sol.iterations, "stop_reason": sol.stop_reason,
            "res_final": sol.res_final, "gamma": gamma,
            "x": digest(sol.x), "y": digest(sol.y),
            "err_history": digest(sol.err_history), "res_history": digest(sol.res_history)}


def scalar_runs():
    """The criterion-2 cells: error-rule runs to tol = 1e-300 at n = 1."""
    for om1 in (0.5, 0.37):
        prob = build_problem(TransportParams(0.0, 1.0, np.array([1.0]), np.array([om1])))
        sda_config = SdaConfig(tol=1e-300, stop_rule="error", max_iter=60)
        yield f"scalar om1={om1} sda", sda_solve(prob, prob.quad, sda_config)
        yield f"scalar om1={om1} si", si_solve(
            prob, SiConfig(tol=1e-300, stop_rule="error", max_iter=20000))
        for mode in ("single", "double"):
            spec = default_shift(prob, mode)
            yield f"scalar om1={om1} sda-{mode}", sda_solve(
                prob, shifted_coefficients(prob, spec), sda_config)
            yield f"scalar om1={om1} si-{mode}", si_shifted_solve(
                prob, spec, SiConfig(tol=1e-300, stop_rule="error", max_iter=500))


def spectra_record(prob):
    """Digests of the spectra and rate bounds of a critical problem."""
    om1 = float(prob.omegas[0])
    single, double = default_shift(prob, "single"), default_shift(prob, "double")
    interior = make_shift(prob, 0.3 / om1, -0.2 / om1, "double")
    values = (interlaced_spectrum(prob).eigenvalues, closed_loop_spectrum(prob),
              shifted_interlaced_spectrum(prob, double).eigenvalues,
              shifted_interlaced_spectrum(prob, interior).eigenvalues,
              [sda_rate_bound(prob)], [sda_rate_bound(prob, single)],
              [sda_rate_bound(prob, double)])
    return dict(zip(SPECTRA, map(digest, values)))


def answers():
    runs = {}
    grid = (((0.0, 1.0), SIZES, SOLVERS, CAPS), ((0.3, 0.9), SIZES, ("sda", "si"), CAPS),
            ((0.0, 0.9), SIZES, ("sda",), CAPS),
            ((0.0, 1.0), (512,), ("si-single", "si-double"), CAPS),
            ((0.0, 1.0), (512,), ("si",), (1, 17)),
            ((1e-4, 1.0 - 1e-4), (256,), ("si",), CAPS))
    for (alpha, c), sizes, solvers, caps in grid:
        for n in sizes:
            prob = grid_problem(n, alpha, c)
            for solver in solvers:
                for cap in caps:
                    sol, _, gamma = run_solver(prob, solver, max_iter=cap)
                    runs[f"{solver} n={n} ({alpha}, {c}) max_iter={cap}"] = record(sol, gamma)
    for key, sol in scalar_runs():
        runs[key] = record(sol)
    for n in SIZES:
        runs[f"spectra n={n} (0.0, 1.0)"] = spectra_record(grid_problem(n, 0.0, 1.0))
    return runs


def check(path):
    """Print each differing record; return 1 if a count, a stop reason or a record differs."""
    want = json.loads(Path(path).read_text())["runs"]
    got = answers()
    failed, moved = False, 0
    for key in sorted(want.keys() | got.keys()):
        if key not in want or key not in got:
            print(f"{key}: only in {'the record' if key in want else 'this run'}")
            failed = True
            continue
        diff = [name for name in want[key] if want[key][name] != got[key].get(name)]
        if diff:
            print(f"{key}: " + ", ".join(name if name in HASHED else
                                         f"{name} {want[key][name]!r} -> {got[key].get(name)!r}"
                                         for name in diff))
            failed |= any(name in GATED for name in diff)
            moved += any(name in HASHED or name == "res_final" for name in diff)
    print(f"{len(got)} records checked against {path}: "
          + ("counts or stop reasons differ" if failed else "counts and stop reasons agree")
          + f", {moved} differ in hashes or res_final")
    return int(failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="FILE", help="record the grid's answers")
    group.add_argument("--check", metavar="FILE", help="compare the grid's answers with FILE")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    payload = {"env": run_environment(), "runs": answers()}
    Path(args.write).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"{len(payload['runs'])} records written to {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
