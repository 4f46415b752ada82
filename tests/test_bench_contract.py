"""The benchmark under ``bench/`` reads the package through fixed names.

``bench/tracing.py`` looks every traced function up by module and name, and
``bench/jobs.py`` reads the original quadruple off a built problem and, on the
``analysis`` path, the block matrices, the shifted quadruple and the solution
report.  These tests import the tracing module without running it, so a
source change that would break the traced benchmark run fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from nare import build_problem, cli, diagnostics, problem, quadrature_params, shift

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = load_tracing()
    for mod, fn_name in tracing.TRACED:
        fn = getattr(importlib.import_module(f"nare.{mod}"), fn_name)
        assert callable(fn) and fn.__module__ == f"nare.{mod}", (mod, fn_name)
    for mod in tracing.MODULES:
        importlib.import_module(f"nare.{mod}")


def test_problem_exposes_original_quadruple():
    quad = build_problem(quadrature_params(8)).quad
    for name in ("A", "B", "C", "D"):
        assert getattr(quad, name).shape == (8, 8)
    assert np.max(np.diag(quad.A)) > 0.0 and np.max(np.diag(quad.D)) > 0.0


def test_analysis_path_reads_fixed_names():
    prob = problem.build_problem(problem.quadrature_params(8))
    m_block, h_block = problem.assemble_blocks(prob)
    assert m_block.shape == h_block.shape == (16, 16)
    sol, spec, _ = cli.run_solver(prob, "sda-double", max_iter=100)
    shifted = shift.shifted_coefficients(prob, spec, check=False)
    for name in ("A", "B", "C", "D"):
        assert getattr(shifted, name).shape == (8, 8)
    report = diagnostics.solution_report(prob, sol, shifted)
    assert report.res < 1e-12 and report.err_final == sol.err_final
    assert report.m_matrix_certificates == {"closed_loop": "nonsingular_m_matrix",
                                            "block_matrix": "nonsingular_m_matrix"}
    assert {"Xv1_minus_v2", "u2X_plus_u1", "symmetry_gap",
            "shift_equivalence_gap"} <= set(report.identity_gaps)
