import json

import pytest

from nare.cli import CSV_HEADER, main
from nare.sda import SdaConfig
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
                "err_final", "wall_ms", "converged", "stop_reason",
                "identity_gaps"):
        assert key in payload
    assert payload["converged"] is True
    assert payload["stop_reason"] == "converged"
    assert "Xv1_minus_v2" in payload["identity_gaps"]
    assert "shift_equivalence_gap" in payload["identity_gaps"]


def test_solve_below_attainable_tolerance_is_not_converged(capsys):
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
    code, out, err = run_cli(capsys, "solve", "--bogus")
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


def test_node_file_roundtrip(tmp_path, capsys):
    from nare import gauss_legendre_composite

    weights, nodes = gauss_legendre_composite(8)
    path = tmp_path / "nodes.txt"
    lines = ["# weight node pairs"]
    lines += [f"{w:.17g} {x:.17g}" for w, x in zip(weights, nodes)]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "solve", "--nodes", str(path),
                           "--solver", "sda-double", "--format", "csv")
    code2, out2, _ = run_cli(capsys, "solve", "--n", "8",
                             "--solver", "sda-double", "--format", "csv")
    assert code == 0 and code2 == 0
    assert strip_wall(out) == strip_wall(out2)


def test_node_file_malformed(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\n")
    code, _, err = run_cli(capsys, "solve", "--nodes", str(path), "--solver", "sda")
    assert code == 1


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


def test_spectrum_shifted_auto(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "8", "--eta", "auto",
                           "--xi", "auto")
    assert code == 0
    values = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(values) == 16
    assert all(float(line.split()[0]) > 0 for line in values)


def test_spectrum_noncritical_rejected(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--n", "8", "--alpha", "0.5",
                           "--c", "0.5")
    assert code == 1


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
                           "--gamma", "50", "--tol", "1e-10", "--format", "csv")
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert float(fields[4]) == 50.0
    code, _, err = run_cli(capsys, "solve", "--n", "8", "--solver", "sda",
                           "--gamma", "0.5")
    assert code == 1  # below the admissible bound


@pytest.mark.parametrize("flag,value", [("--tol", "inf"), ("--tol", "nan"),
                                        ("--gamma", "nan"), ("--gamma", "inf")])
def test_nonfinite_tol_and_gamma_are_invalid_input(capsys, flag, value):
    # an infinite tolerance used to stop after one step as "converged", a NaN
    # one ran to the cap, and a non-finite gamma ran no step at all
    code, out, err = run_cli(capsys, "solve", "--n", "8", flag, value)
    assert code == 1
    assert out == "" and "finite" in err


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
