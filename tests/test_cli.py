"""Command-line interface: subcommands, reports, exit-code contract."""

import json

import pytest

from hopfcm.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_builtins(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    names = {row["name"] for row in json.loads(out)["systems"]}
    assert {
        "khaled-original",
        "e1-shifted",
        "e1-normal",
        "e1-normal-trace",
        "e1-center",
        "e1-center-perturbed",
        "e4-normal",
        "e5-normal",
    } <= names


def test_hopf_report_at_first_equilibrium(capsys):
    code, out, _ = run_cli(
        capsys, "hopf", "--system", "khaled-original", "--point", "E1",
        "--params", "a=1,c=1,b=0,d=1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["is_hopf"] is True
    assert report["omega_squared"] == "1"
    assert report["lambda3"] == "-1"


def test_hopf_exit_code_on_non_hopf_point(capsys):
    code, out, _ = run_cli(
        capsys, "hopf", "--system", "khaled-original", "--point", "E1",
        "--params", "a=2,c=1,b=0,d=1",
    )
    assert code == 2


@pytest.mark.parametrize(
    "point,params",
    [("0,0,1", "a=1,b=5,c=2,d=1"), ("E1", "a=2,c=1,b=0,d=1")],
    ids=["beta-negative", "residual-nonzero"],
)
def test_hopf_reports_no_eigenvalues_off_a_hopf_point(capsys, point, params):
    # +/- i sqrt(beta) and -alpha are the spectrum only when the test passes
    code, out, _ = run_cli(
        capsys, "hopf", "--system", "khaled-original", "--point", point,
        "--params", params,
    )
    assert code == 2
    report = json.loads(out)
    assert report["is_hopf"] is False
    assert report["eigenvalues"] == []


def test_closed_form_point_needs_the_khaled_parameters(capsys):
    code, out, err = run_cli(
        capsys, "hopf", "--system", "e1-normal", "--params", "c=0,d=1,k=1",
        "--point", "E1",
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["definitely-not-a-command"])
    assert exc.value.code == 1


def test_focus_subcommand_center(capsys):
    code, out, _ = run_cli(
        capsys, "focus", "--system", "e1-center", "--params", "d=3", "--order", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["quantities"] == ["0", "0"]


def test_focus_subcommand_jets(capsys):
    code, out, _ = run_cli(
        capsys, "focus", "--system", "e1-normal", "--order", "1",
        "--jet-degree", "1", "--small", "k,c,d", "--params", "k=1,c=0,d=1",
    )
    assert code == 0
    report = json.loads(out)
    assert "k" in report["quantities"][0]


@pytest.mark.parametrize(
    "small,params",
    [
        ("k,c,x", "k=1,c=0,d=1"),
        ("k,k", "k=1,c=0,d=1"),
        ("k,c,d", "k=1,c=0,d=1,zz=4"),
        ("k,c", "k=1,c=0"),
    ],
    ids=["small-not-a-parameter", "small-repeated", "params-not-a-parameter", "d-unbound"],
)
def test_jet_focus_rejects_a_bad_binding(capsys, small, params):
    code, _, err = run_cli(
        capsys, "focus", "--system", "e1-normal", "--order", "1",
        "--jet-degree", "1", "--small", small, "--params", params,
    )
    assert code == 2
    assert json.loads(err)["error"] == "SchemaError"


@pytest.mark.parametrize("degree", ["-1", "0"])
def test_focus_rejects_a_jet_degree_below_one(capsys, degree):
    code, out, err = run_cli(
        capsys, "focus", "--system", "e1-normal", "--order", "1",
        "--jet-degree", degree, "--small", "k,c,d", "--params", "k=1,c=0,d=1",
    )
    assert code == 2 and out == ""
    assert "--jet-degree" in json.loads(err)["message"]


def test_period_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "period", "--system", "e1-center", "--params", "d=1", "--order", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["constants"] == ["0", "1/40"]
    assert report["isochronous"] is False


def test_period_obstruction_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "period", "--system", "e4-normal", "--params", "c=0.25,h=2",
        "--order", "2",
    )
    assert code == 2
    report = json.loads(out)
    assert report["focus_obstruction"]["order"] == 3


def test_cyclicity_modes(capsys):
    code, out, _ = run_cli(capsys, "cyclicity", "--mode", "teo4", "--d0", "1/2")
    assert code == 0
    report = json.loads(out)
    assert report["total"] == 3 and report["trace_bonus"] is True

    code, out, _ = run_cli(capsys, "cyclicity", "--mode", "teo5")
    assert code == 0
    report = json.loads(out)
    assert report["total"] == 5 and report["k"] == 3 and report["l"] == 2


def test_simulate_and_displacement(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--system", "e1-center", "--params", "d=1",
        "--x0", "0.5,-0.75,0.1", "--tmax", "10", "--tol", "1e-10",
        "--plot-script", "--out", str(out_csv),
    )
    assert code == 0
    assert out_csv.exists()
    assert out_csv.read_text().startswith("t,u,v,w\n")
    assert (tmp_path / "traj_plot.py").exists()

    sweep = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "displacement", "--system", "e1-center", "--params", "d=1",
        "--rho0-grid", "0.1", "--csv", str(sweep),
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["samples"][0]["dbar"]) < 1e-9
    assert sweep.exists()


def test_normalize_with_transform_file(tmp_path, capsys):
    doc = {
        "matrix": [
            ["k*(c*d+1)/(c^2*d^2+k^2)", "c*d*(c*d+1)/(c^2*d^2+k^2)", "0"],
            ["0", "1", "0"],
            ["0", "0", "1"],
        ],
        "time_scale": "k/d",
    }
    path = tmp_path / "transform.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "normalize", "--system", "e1-shifted", "--transform", str(path)
    )
    assert code == 0
    report = json.loads(out)
    assert report["lambda"] == "(-d^2)/(k)"
    assert report["orientation"] == -1


def test_normalize_rejects_a_transform_file_without_matrix(tmp_path, capsys):
    path = tmp_path / "transform.json"
    path.write_text(json.dumps({"time_scale": "k/d"}))
    code, out, err = run_cli(
        capsys, "normalize", "--system", "e1-shifted", "--transform", str(path)
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


@pytest.mark.parametrize(
    "system,matrix,error,message",
    [
        ("e4-normal", [["abc", 0, 0], [0, 1, 0], [0, 0, 1]], "HopfcmError", "'abc'"),
        ("e1-center", [[1, 0], [0, 1]], "SchemaError", "3x3"),
        ("e1-center", "x", "SchemaError", "3x3"),
    ],
    ids=["float-entry-not-a-number", "not-3x3", "not-a-list"],
)
def test_normalize_rejects_a_malformed_matrix(tmp_path, capsys, system, matrix, error, message):
    path = tmp_path / "transform.json"
    path.write_text(json.dumps({"matrix": matrix}))
    params = "c=1/4,h=2" if system == "e4-normal" else "d=1"
    code, out, err = run_cli(
        capsys, "normalize", "--system", system, "--params", params, "--transform", str(path)
    )
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == error and message in report["message"]


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"system": "e1-normal", "order": 2}),
        json.dumps({"system": "e1-normal", "small": ["k", "c", "d"]}),
        '{"system": "e1-normal",',
    ],
    ids=["no-small", "no-order", "invalid-json"],
)
def test_custom_cyclicity_config_errors_are_schema_errors(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "cyclicity", "--mode", "custom", "--config", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


def test_verify_subcommand_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "teo1-center")
    assert code == 0
    assert json.loads(out)["passed"] is True


def _center_document(backend, d):
    """e1-center as a system-definition document; ``d`` None leaves it free."""
    return {
        "backend": backend,
        "params": {"d": d},
        "state_vars": ["u", "v", "w"],
        "equations": [
            [{"exp": [0, 1, 0], "coeff": "1"}, {"exp": [0, 1, 1], "coeff": "d"}],
            [{"exp": [1, 0, 0], "coeff": "-1"}, {"exp": [1, 0, 1], "coeff": "-d"}],
            [{"exp": [0, 0, 1], "coeff": "-d^2"}, {"exp": [1, 1, 0], "coeff": "d"}],
        ],
    }


def test_custom_system_document(tmp_path, capsys):
    path = tmp_path / "center.json"
    path.write_text(json.dumps(_center_document("exact", "1")))
    code, out, _ = run_cli(capsys, "focus", "--system", str(path), "--order", "2")
    assert code == 0
    assert json.loads(out)["quantities"] == ["0", "0"]


def test_decimal_params_parse_exactly(capsys):
    argv = ("focus", "--system", "e1-normal", "--order", "1", "--params")
    code, decimal, _ = run_cli(capsys, *argv, "c=0.1,d=1,k=1")
    assert code == 0
    assert json.loads(decimal)["quantities"] == ["61/5050"]
    assert run_cli(capsys, *argv, "c=1/10,d=1,k=1")[1] == decimal


_FOCUS = ("focus", "--system", "e1-normal", "--order", "1", "--params")
_SIMULATE = ("simulate", "--system", "e1-center", "--params", "d=1", "--tmax", "1", "--x0")
_PERIOD = ("period", "--system", "e1-center", "--params", "d=1", "--order")
_E4_DISPLACEMENT = ("displacement", "--system", "e4-normal", "--params", "c=1/4,h=2",
                    "--rho0-grid")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(_FOCUS + ("c=abc,d=1,k=1",), id="abc"),
        pytest.param(_FOCUS + ("c=1/0,d=1,k=1",), id="1/0"),
        pytest.param(_SIMULATE + ("0.1,abc,0",), id="x0-abc"),
        pytest.param(_SIMULATE + ("0.1,0",), id="x0-two-components"),
        pytest.param(
            ("displacement", "--system", "e1-center", "--params", "d=1",
             "--rho0-grid", "0.05,x"),
            id="rho0-grid-x",
        ),
        pytest.param(_PERIOD + ("0",), id="period-order-0"),
        pytest.param(_PERIOD + ("-1",), id="period-order-minus-1"),
        pytest.param(
            ("focus", "--system", "e1-normal", "--params", "c=0,d=1,k=1", "--order", "0"),
            id="focus-order-0",
        ),
        pytest.param(_E4_DISPLACEMENT + ("0.5",), id="rho0-above-range"),
        pytest.param(_E4_DISPLACEMENT + ("0",), id="rho0-zero"),
        pytest.param(_SIMULATE + ("0.1,0,0", "--tol", "0"), id="tol-zero"),
        pytest.param(_SIMULATE + ("0.1,0,0", "--tol", "0.5"), id="tol-above-range"),
    ],
)
def test_malformed_param_is_a_json_domain_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "HopfcmError"


@pytest.mark.parametrize("argv,free", [
    (("simulate", "--system", "e1-center", "--x0", "0.5,-0.75,0.1", "--tmax", "1"), "['d']"),
    (("displacement", "--system", "e1-normal", "--params", "d=1,k=1",
      "--rho0-grid", "0.05"), "['c']"),
])
def test_numeric_run_with_a_free_parameter_is_a_json_domain_error(
    capsys, tmp_path, monkeypatch, argv, free
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "HopfcmError"
    assert free in report["message"]
    assert not list(tmp_path.iterdir())


def test_float_family_report_is_the_same_for_decimal_input(capsys):
    from hopfcm.catalog import e4_normal
    from hopfcm.focusq import report_for_field

    argv = ("focus", "--system", "e4-normal", "--order", "2", "--params")
    code, decimal, _ = run_cli(capsys, *argv, "c=0.25,h=2")
    assert code == 0
    assert run_cli(capsys, *argv, "c=1/4,h=2.0")[1] == decimal
    direct = report_for_field(e4_normal({"c": 0.25, "h": 2.0}), 2).quantities
    assert json.loads(decimal)["quantities"] == direct


def test_file_system_binds_params_like_a_builtin(tmp_path, capsys):
    path = tmp_path / "center.json"
    path.write_text(json.dumps(_center_document("exact", None)))
    argv = ("period", "--order", "2", "--params", "d=2", "--system")
    code, out, _ = run_cli(capsys, *argv, str(path))
    assert code == 0
    assert out == run_cli(capsys, *argv, "e1-center")[1].replace(
        '"e1-center"', json.dumps(str(path))
    )


@pytest.mark.parametrize(
    "backend,d,given",
    [("exact", "1", "d=2"), ("exact", None, "e=2"), ("float", "1", "d=2")],
    ids=["valued-in-document", "not-a-parameter", "float-document"],
)
def test_file_system_rejects_params_it_cannot_bind(tmp_path, capsys, backend, d, given):
    path = tmp_path / "center.json"
    path.write_text(json.dumps(_center_document(backend, d)))
    code, out, err = run_cli(
        capsys, "focus", "--system", str(path), "--order", "1", "--params", given
    )
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "SchemaError",
        "message": f"unknown parameter(s) {[given.split('=')[0]]}",
    }
