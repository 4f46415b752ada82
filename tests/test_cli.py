import json
import os

import numpy as np
import pytest

from nare import (TransportParams, build_problem, diagnostics, quadrature_params, shift,
                  si, spectra)
from nare.cli import CSV_HEADER, main, run_solver
from nare.sda import SdaConfig, resolve_gamma
from nare.si import SiConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_wall(csv_text):
    """CSV rows with the wall-time column blanked (timing is not asserted)."""
    lines = csv_text.strip().splitlines()
    out = []
    for line in lines:
        parts = line.split(",")
        if len(parts) == 10 and parts[8] != "wall_ms":
            parts[8] = ""
        out.append(",".join(parts))
    return out


def test_solve_csv_converged(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--solver", "sda-double",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "8" and fields[1] == "sda-double"
    assert fields[9] == "true"
    assert float(fields[6]) < 1e-12


def test_solve_table_format(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--solver", "sda")
    assert code == 0
    assert "iterations" in out and "converged" in out and "stop reason" in out


def test_solve_json_fields(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--solver", "si-double",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for key in ("n", "solver", "eta", "xi", "gamma", "iterations", "res",
                "err_final", "wall_ms", "converged", "stop_reason", "res_normalized",
                "rate_estimate", "order_estimate", "identity_gaps",
                "m_matrix_certificates", "report_ms", "env"):
        assert key in payload
    assert payload["converged"] is True
    assert payload["stop_reason"] == "converged"
    assert "Xv1_minus_v2" in payload["identity_gaps"]
    assert "shift_equivalence_gap" in payload["identity_gaps"]
    assert payload["report_ms"] > 0.0
    env = payload["env"]
    assert env["numpy"] == np.__version__ and env["python"].count(".") == 2
    assert env["scipy"] and env["blas"]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env[name] == os.environ.get(name)


def _strict_json(text):
    def refuse(token):
        raise AssertionError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("solver", ["sda-double", "si-single"])
def test_table_and_json_report_one_record(capsys, solver):
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--solver", solver, "--format", "json")
    assert code == 0
    payload = _strict_json(out)
    del payload["env"]
    keys = [key for key, val in payload.items() if not isinstance(val, dict)]
    keys += [key for val in payload.values() if isinstance(val, dict) for key in val]
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--solver", solver)
    assert code == 0
    labels = [line.split(" : ")[0].strip() for line in out.splitlines()]
    assert sorted(labels) == sorted(key.replace("_", " ") for key in keys)


def test_json_writes_non_finite_values_as_null(capsys, nan_from_step):
    # a doubling run that blows up at its first step has no finite residual or error
    nan_from_step(1)
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--format", "json")
    assert code == 2
    payload = _strict_json(out)
    assert payload["stop_reason"] == "nonfinite" and payload["iterations"] == 0
    assert payload["res"] is None and payload["err_final"] is None


def test_json_writes_an_unestimated_rate_as_null_and_the_table_leaves_it_out(capsys):
    # one step is too short a history to estimate a rate or an order
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--max-iter", "1", "--format", "json")
    payload = _strict_json(out)
    assert code == 2 and payload["iterations"] == 1
    assert payload["rate_estimate"] is None and payload["order_estimate"] is None
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--max-iter", "1")
    assert "rate estimate" not in out and "order estimate" not in out


def test_run_solver_checks_the_shift_region_once(monkeypatch):
    calls, check = [], shift.validate_shift

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(shift, "validate_shift", counted)
    monkeypatch.setattr(si, "validate_shift", counted)  # build_kernel's lookup
    problem = build_problem(quadrature_params(8))
    for solver in ("sda-single", "sda-double", "si-single", "si-double"):
        calls.clear()
        assert run_solver(problem, solver)[0].converged
        # by shifted_coefficients (doubling) or build_kernel (vector), not by make_shift
        assert len(calls) == 1, solver


def test_solve_below_attainable_tolerance_is_not_converged(capsys, nan_from_step):
    # below its attainable floor critical doubling may blow up; a step patched to
    # turn NaN makes that happen at a known step, whatever the rounding
    nan_from_step(5)
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--tol", "1e-300",
                           "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["converged"] is False
    assert payload["stop_reason"] == "nonfinite"


def test_solve_si_critical_hits_cap(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--solver", "si",
                           "--max-iter", "50", "--format", "csv")
    assert code == 2
    assert out.strip().splitlines()[1].endswith("false")


def test_shifted_solver_requires_critical(capsys):
    code, _, err = run_cli(capsys, "solve", "--n", "8", "--alpha", "0.5",
                           "--c", "0.9", "--solver", "sda-single")
    assert code == 1
    assert "critical" in err


@pytest.mark.parametrize("argv", [["solve", "--solver", "sda-double"],
                                  ["solve", "--solver", "si-single"],
                                  ["solve", "--solver", "si-double"],
                                  ["spectrum", "--eta", "auto"]])
def test_noncritical_refused_by_the_library_gate(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--n", "8", "--alpha", "0.5", "--c", "0.9")
    assert code == 1 and out == ""
    assert "requires the critical case (alpha, c) = (0, 1); got (0.5, 0.9)" in err


@pytest.mark.parametrize("solver,flag,value", [
    ("sda", "--eta", "1"), ("sda", "--xi", "-0.5"), ("si", "--eta", "auto"),
    ("si", "--xi", "-0.5")])
def test_flag_the_solver_would_not_read_is_refused(capsys, solver, flag, value):
    # sda used to print an empty eta column
    code, out, err = run_cli(capsys, "solve", "--n", "8", "--solver", solver, flag, value)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {solver} ") and flag[2:] in err


def test_unknown_solver_is_invalid_input(capsys):
    code, _, err = run_cli(capsys, "solve", "--n", "8", "--solver", "newton")
    assert code == 1


def test_missing_problem_source(capsys):
    code, _, err = run_cli(capsys, "solve", "--solver", "sda")
    assert code == 1


@pytest.mark.parametrize("command", ["solve", "spectrum"])
def test_size_zero_reports_invalid_size(capsys, command):
    # --n 0 is a given size, not a missing one: the size check names it
    code, out, err = run_cli(capsys, command, "--n", "0")
    assert code == 1 and out == ""
    assert err == "error: quadrature size must be a positive multiple of 4, got 0\n"


def test_unknown_flag_prints_usage_and_error(capsys):
    # the size is given: without one, the missing size is reported first
    code, out, err = run_cli(capsys, "solve", "--n", "8", "--bogus")
    assert code == 1 and out == ""
    assert err == ("usage: nare [-h] {solve,table51,spectrum} ...\n"
                   "error: unrecognized arguments: --bogus\n")


def test_eta_xi_overrides(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--solver", "sda-double",
                           "--eta", "0.4", "--xi", "-0.3", "--format", "csv")
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert float(fields[2]) == 0.4 and float(fields[3]) == -0.3


def test_out_of_region_override_rejected(capsys):
    code, _, err = run_cli(capsys, "solve", "--n", "8", "--solver", "sda-double",
                           "--eta", "5.0", "--xi", "-0.3")
    assert code == 1


@pytest.mark.parametrize("solver", ["sda-single", "si-single"])
def test_single_shift_rejects_nonzero_xi(capsys, solver):
    # a single shift with xi != 0 would run a double shift under the single name
    code, out, err = run_cli(capsys, "solve", "--n", "8", "--solver", solver, "--xi", "-0.3")
    assert code == 1 and out == ""
    assert err == "error: single shift needs xi = 0; xi = -0.3\n"


@pytest.mark.parametrize("order", [1, -1], ids=["descending", "ascending"])
def test_node_file_roundtrip(tmp_path, capsys, order):
    from nare import gauss_legendre_composite

    weights, nodes = gauss_legendre_composite(8)
    path = tmp_path / "nodes.txt"
    lines = ["# weight node pairs"]
    lines += [f"{w:.17g} {x:.17g}" for w, x in zip(weights[::order], nodes[::order])]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "solve", "--nodes", str(path),
                           "--solver", "sda-double", "--format", "csv")
    code2, out2, _ = run_cli(capsys, "solve", "--n", "8",
                             "--solver", "sda-double", "--format", "csv")
    assert code == 0 and code2 == 0
    assert strip_wall(out) == strip_wall(out2)


@pytest.mark.parametrize("text", ["0.5\n", "# no pairs\n", "0.5 0.3 0.2\n", "0.5 half\n"],
                         ids=["one-column", "comment-only", "three-column", "non-numeric"])
def test_node_file_malformed(tmp_path, capsys, text):
    # one error line: no traceback and no warning from the reader
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "solve", "--nodes", str(path), "--solver", "sda")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
@pytest.mark.parametrize("solver", ["sda-double", "si-double"])
def test_only_table_and_json_build_a_report(monkeypatch, capsys, solver, fmt):
    # the CSV row carries no report field, so a CSV solve builds neither the
    # report nor the unchecked shifted quadruple it reads
    calls = {"report": 0, "unchecked": 0}
    solution_report, shifted_coefficients = (diagnostics.solution_report,
                                             shift.shifted_coefficients)

    def counted_report(*args, **kwargs):
        calls["report"] += 1
        return solution_report(*args, **kwargs)

    def counted_coefficients(*args, check=True):
        calls["unchecked"] += not check
        return shifted_coefficients(*args, check=check)

    monkeypatch.setattr(diagnostics, "solution_report", counted_report)
    monkeypatch.setattr(shift, "shifted_coefficients", counted_coefficients)
    code, _, _ = run_cli(capsys, "solve", "--n", "8", "--solver", solver, "--format", fmt)
    built = 0 if fmt == "csv" else 1
    assert code == 0 and calls == {"report": built, "unchecked": built}


def test_csv_determinism(capsys):
    _, out1, _ = run_cli(capsys, "solve", "--n", "8", "--solver", "si-double",
                         "--format", "csv")
    _, out2, _ = run_cli(capsys, "solve", "--n", "8", "--solver", "si-double",
                         "--format", "csv")
    assert strip_wall(out1) == strip_wall(out2)


def test_csv_floats_have_17_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "solve", "--n", "8", "--solver", "sda-double",
                        "--format", "csv")
    eta_field = out.strip().splitlines()[1].split(",")[2]
    digits = eta_field.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) >= 16  # 17 significant digits requested from the writer


def test_spectrum_unshifted(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "8")
    assert code == 0
    values = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(values) == 16
    assert sum("zero" in line for line in values) == 1
    assert sum("pole" in line for line in values) == 8
    assert sum("interior" in line for line in values) == 7


def test_spectrum_tags_an_eigenvalue_near_a_pole_as_interior(tmp_path, capsys):
    # the nodes 0.5 and 0.4999999999999 put an interior eigenvalue within 5e-13 of
    # the pole 1/0.5 = 2; the tags come from the report's parts, not from rounding
    path = tmp_path / "close.txt"
    path.write_text("0.5 0.8\n1e-13 0.5\n0.4999999999999 0.3\n")
    code, out, _ = run_cli(capsys, "spectrum", "--nodes", str(path))
    assert code == 0
    problem = build_problem(TransportParams(0.0, 1.0, np.array([0.5, 1e-13, 0.4999999999999]),
                                            np.array([0.8, 0.5, 0.3])))
    report = spectra.interlaced_spectrum(problem)
    tags = dict(line.split("  ") for line in out.splitlines() if not line.startswith("#"))
    assert len(tags) == 6 and tags["0"] == "[zero]"
    assert sorted(k for k, v in tags.items() if v == "[pole 1/omega]") == \
        sorted(f"{v:.17g}" for v in report.fixed_roots)
    near = [v for v in report.free_roots if abs(v - 2.0) < 1e-12]
    assert len(near) == 1 and tags[f"{near[0]:.17g}"] == "[interior]"


def test_spectrum_shifted_auto(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "8", "--eta", "auto",
                           "--xi", "auto")
    assert code == 0
    values = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(values) == 16
    assert all(float(line.split()[0]) > 0 for line in values)


def test_spectrum_eta_zero_prints_the_unshifted_spectrum(capsys):
    # eta*xi = 0 leaves the spectrum unshifted, for eta = 0 as for xi = 0
    code, out, err = run_cli(capsys, "spectrum", "--n", "8", "--eta", "0", "--xi", "auto")
    assert code == 0 and err == ""
    values = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(values) == 16
    _, unshifted, _ = run_cli(capsys, "spectrum", "--n", "8")
    assert values == [line for line in unshifted.splitlines() if not line.startswith("#")]


def test_spectrum_single_shift_checks_the_closure(capsys):
    # --xi 0 prints the unshifted spectrum, but only for a shift in the region's closure
    code, out, err = run_cli(capsys, "spectrum", "--n", "8", "--eta", "-1", "--xi", "0")
    assert code == 1 and out == ""
    assert err == "error: shift region needs 0 <= eta <= 1/omega1; eta = -1.0\n"


def test_subnormal_c_is_invalid_input(capsys):
    code, out, err = run_cli(capsys, "solve", "--n", "8", "--c", "1e-310")
    assert code == 1 and out == ""
    assert err == "error: c = 1e-310 leaves Gamma or Delta not finite\n"


def test_spectrum_noncritical_rejected(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--n", "8", "--alpha", "0.5",
                           "--c", "0.5")
    assert code == 1
    assert "critical" in err


def test_solve_out_file(tmp_path, capsys):
    path = tmp_path / "run.csv"
    code = main(["solve", "--n", "8", "--solver", "sda-double",
                 "--format", "csv", "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 2


@pytest.mark.parametrize("argv", [["--n", "7"], ["--n", "8", "--solver", "si-single",
                                                  "--eta", "100"]])
def test_failed_solve_leaves_out_file_alone(argv, tmp_path, capsys):
    path = tmp_path / "run.csv"
    path.write_text("earlier results\n")
    assert main(["solve", *argv, "--out", str(path)]) == 1
    assert path.read_text() == "earlier results\n"


def test_scalar_problem_via_node_file(tmp_path, capsys):
    # n = 1 is reachable only through an explicit node file (the composite
    # quadrature needs multiples of four)
    path = tmp_path / "one.txt"
    path.write_text("1.0 0.5\n")
    code, out, _ = run_cli(capsys, "solve", "--nodes", str(path),
                           "--solver", "sda-double", "--format", "csv")
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert fields[0] == "1" and fields[9] == "true"


def test_gamma_and_tol_overrides(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--solver", "sda",
                           "--tol", "1e-10", "--format", "csv")
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert float(fields[4]) == resolve_gamma(build_problem(quadrature_params(8)).quad)
    # gamma is no setting: the flag is refused as unknown, for a doubling and a vector solver
    for solver in ("sda", "si"):
        code, out, err = run_cli(capsys, "solve", "--n", "8", "--solver", solver,
                                 "--gamma", "5")
        assert code == 1 and out == "" and "--gamma" in err, solver


@pytest.mark.parametrize("flag,value", [("--tol", "inf"), ("--tol", "nan"),
                                        ("--tol", "0"), ("--tol", "-1e-12")])
def test_nonfinite_tol_and_gamma_are_invalid_input(capsys, flag, value):
    # an infinite tolerance used to stop after one step as "converged", and a NaN
    # one ran to the cap
    for argv in ([f"{flag}={value}"], [flag, value]):
        code, out, err = run_cli(capsys, "solve", "--n", "8", *argv)
        assert code == 1, argv
        assert out == "" and "finite" in err, argv


def test_negative_exponent_value_as_a_separate_word(capsys):
    # argparse's own pattern reads "-5e-1" as an option, not as a negative number
    runs = [run_cli(capsys, "solve", "--n", "8", "--solver", "sda-double", "--eta", "0.5",
                    *xi, "--format", "csv") for xi in (["--xi", "-5e-1"], ["--xi=-5e-1"])]
    assert [code for code, _, _ in runs] == [0, 0]
    assert strip_wall(runs[0][1]) == strip_wall(runs[1][1])
    assert strip_wall(runs[0][1])[1].split(",")[3] == "-0.5"


@pytest.mark.parametrize("command", ["solve", "spectrum"])
@pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
def test_n_and_nodes_exclude_each_other(tmp_path, capsys, command, both):
    # --n was dropped when --nodes was given; neither is invalid input too
    path = tmp_path / "nodes.txt"
    path.write_text("1.0 0.5\n")  # a valid n = 1 node file
    code, out, err = run_cli(capsys, command, *(["--n", "8", "--nodes", str(path)] if both else []))
    assert code == 1 and out == ""
    assert "--n" in err.splitlines()[-1] and "--nodes" in err.splitlines()[-1]


def test_numerical_failure_exit_code(capsys, monkeypatch):
    from nare import spectra
    from nare.errors import BracketFailure

    def boom(problem):
        raise BracketFailure("forced")

    monkeypatch.setattr(spectra, "interlaced_spectrum", boom)
    code, _, err = run_cli(capsys, "spectrum", "--n", "8")
    assert code == 3
    assert "numerical failure" in err


def test_table51_single_size(tmp_path, capsys):
    out_path = tmp_path / "cells.csv"
    code, out, _ = run_cli(capsys, "table51", "--sizes", "4", "--max-iter", "400",
                           "--out", str(out_path))
    assert code == 0
    assert "SDA(no shift)" in out and "SI(double shifts)" in out
    csv_lines = out_path.read_text().strip().splitlines()
    assert csv_lines[0] == CSV_HEADER
    assert len(csv_lines) == 1 + 6  # six solvers, one size
    solvers = [line.split(",")[1] for line in csv_lines[1:]]
    assert solvers == ["sda", "sda-single", "sda-double", "si", "si-single",
                       "si-double"]
    # the capped classic iteration is marked with a star cell
    assert "* (>" in out


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_iteration_cap_below_one_is_invalid_input(capsys, cap):
    # only an absent --max-iter selects the default cap: 0 used to run the
    # default, and a negative cap ran no step and reported res = Infinity
    for argv in (("solve", "--n", "8", "--solver", "si", "--format", "json"),
                 ("solve", "--n", "8", "--solver", "sda-double"),
                 ("table51", "--sizes", "4")):
        code, out, err = run_cli(capsys, *argv, "--max-iter", cap)
        assert code == 1
        assert out == "" and "max_iter must be at least 1" in err
    for config in (SdaConfig, SiConfig):
        with pytest.raises(ValueError):
            config(max_iter=int(cap))


def test_iteration_cap_of_one_runs_one_step(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "8", "--solver", "si",
                           "--max-iter", "1", "--format", "json")
    assert code == 2 and json.loads(out)["iterations"] == 1
    out_path = tmp_path / "cells.csv"
    code, _, _ = run_cli(capsys, "table51", "--sizes", "4", "--max-iter", "1",
                         "--out", str(out_path))
    assert code == 0
    iterations = {line.split(",")[1]: line.split(",")[5]
                  for line in out_path.read_text().strip().splitlines()[1:]}
    assert [iterations[s] for s in ("si", "si-single", "si-double")] == ["1"] * 3
    assert int(iterations["sda"]) > 1  # the cap applies to the vector solvers


def test_table51_csv_determinism(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(capsys, "table51", "--sizes", "4",
                             "--max-iter", "400", "--out", str(path))
        assert code == 0
    first, second = (strip_wall(p.read_text()) for p in paths)
    assert first == second
