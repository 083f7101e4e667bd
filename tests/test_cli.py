"""Command-line interface: subcommands, reports, exit-code contract."""

import json
import math
import operator
import os
import signal
import stat
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hopfcm import simulate
from hopfcm.catalog import PERTURBATION_PARAMS
from hopfcm.cli import build_parser, main
from hopfcm.errors import SchemaError
from hopfcm.grammar import evaluate
from hopfcm.verify import ETA_LINE, TEO5_PIVOTS


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
    assert run_cli(capsys, "cyclicity", "--mode", "teo4")[1] == run_cli(
        capsys, "cyclicity", "--mode", "teo4", "--d0", "1")[1]


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
    "transform,error,message",
    [
        ({"matrix": [[1, 0, 0], [0, 0, 1], [0, 1, 0]]},
         "BadTransform", "linear part entry (0, 2) does not vanish"),
        ({"matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "time_scale": 1},
         "BadTransform", "rotation block is not antisymmetric"),
        ({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "time_scale": 3},
         "BadTransform", "rotation entry 1/3 did not rescale to +/-1"),
        ({"matrix": [[1, 0, 0], [1, 0, 0], [0, 0, 1]]},
         "SingularTransform", "transform matrix is singular"),
    ],
    ids=["axis-coupled", "not-antisymmetric", "not-unit-rotation", "singular"],
)
def test_normalize_names_what_a_transform_breaks(tmp_path, capsys, transform, error, message):
    path = tmp_path / "transform.json"
    path.write_text(json.dumps(transform))
    code, out, err = run_cli(
        capsys, "normalize", "--system", "e1-normal", "--params", "c=0,d=1,k=1",
        "--transform", str(path),
    )
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": error, "message": message}) + "\n"


RANK_CONFIG = {
    "system": "e1-normal", "point": {"k": 1, "c": 0, "d": 1}, "small": ["k", "c", "d"],
    "order": 3,
}
LINE_CONFIG = {**RANK_CONFIG, "pivots": ["k"], "line": {"c": 1}}


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"system": "e1-normal", "order": 2}),
        json.dumps({"system": "e1-normal", "small": ["k", "c", "d"]}),
        '{"system": "e1-normal",',
        json.dumps({**LINE_CONFIG, "pivots": ["q"]}),
        json.dumps({**LINE_CONFIG, "line": {"q": 1}}),
        json.dumps({**RANK_CONFIG, "order": "4"}),
        json.dumps({**RANK_CONFIG, "point": {"k": 1, "c": "x", "d": 1}}),
        json.dumps({**LINE_CONFIG, "line": {"c": "1/0"}}),
        json.dumps({**RANK_CONFIG, "degree": 0}),
        json.dumps({**RANK_CONFIG, "small": "kcd"}),
        json.dumps({**RANK_CONFIG, "trace": "yes"}),
        json.dumps({**RANK_CONFIG, "system": 7}),
        '{"system": ' + "1" * 5000 + "}",
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["no-small", "no-order", "invalid-json", "unknown-pivot", "unknown-line-name",
         "order-a-string", "point-not-a-number", "line-divides-by-zero", "degree-0",
         "small-a-string", "trace-not-a-bool", "system-not-a-string",
         "integer-beyond-the-digit-limit", "nested-beyond-the-recursion-limit"],
)
def test_custom_cyclicity_config_errors_are_schema_errors(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "cyclicity", "--mode", "custom", "--config", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


def test_custom_cyclicity_without_a_config_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cyclicity", "--mode", "custom"])
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    usage, message = err.splitlines()[0], err.splitlines()[-1]
    assert usage.startswith("usage: hopfcm cyclicity")
    assert message == "error: --mode custom needs --config"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["focus", "--system", "e1-normal", "--order", "1", "--small", "k",
          "--params", "c=0,d=1,k=1"], "--small needs --jet-degree"),
        (["cyclicity", "--mode", "teo4", "--config", "config.json"],
         "--config needs --mode custom"),
        (["cyclicity", "--mode", "teo5", "--config", "config.json"],
         "--config needs --mode custom"),
        (["cyclicity", "--mode", "teo5", "--d0", "2"], "--d0 needs --mode teo4"),
        (["cyclicity", "--mode", "custom", "--config", "config.json", "--d0", "2"],
         "--d0 needs --mode teo4"),
    ],
    ids=["focus-small", "teo4-config", "teo5-config", "teo5-d0", "custom-d0"],
)
def test_an_option_the_mode_ignores_is_a_usage_error(capsys, argv, message):
    """The options are refused before anything is read or computed."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert err.splitlines()[-1] == f"error: {message}"


_ALL_SMALL = {"system": "e1-center-perturbed", "small": list(PERTURBATION_PARAMS), "order": 9}


def test_a_bound_needs_a_center_to_the_order_it_uses(tmp_path, capsys):
    """At a200 = 1/3 the point is a weak focus of order 2 (L1 = 0,
    L2 = 17/720), so a bound from L1..L9 there is refused; at a110 = 1/3,
    b200 = -1/3, a center of the family whose first integral is u^2 + v^2,
    each of L1..L9 adds one to the rank."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_ALL_SMALL, "point": {"a200": "1/3"}}))
    code, out, err = run_cli(capsys, "cyclicity", "--mode", "custom", "--config", str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "BadPivots",
        "message": "L2 = 17/720 at the expansion point, a weak focus of order 2: use order 1",
    }
    path.write_text(json.dumps({**_ALL_SMALL, "order": 1, "point": {"a200": "1/3"}}))
    code, out, _ = run_cli(capsys, "cyclicity", "--mode", "custom", "--config", str(path))
    assert code == 0 and json.loads(out)["k"] == 1
    path.write_text(json.dumps({**_ALL_SMALL, "point": {"a110": "1/3", "b200": "-1/3"}}))
    code, out, _ = run_cli(capsys, "cyclicity", "--mode", "custom", "--config", str(path))
    assert code == 0
    report = json.loads(out)
    assert (report["k"], report["total"]) == (9, 9)


@pytest.mark.parametrize(
    "config,mode",
    [
        ({**RANK_CONFIG, "trace": True}, ["teo4", "--d0", "1"]),
        ({"system": "e1-center-perturbed", "small": list(PERTURBATION_PARAMS), "order": 5,
          "pivots": list(TEO5_PIVOTS), "line": {k: str(v) for k, v in ETA_LINE.items()}},
         ["teo5"]),
    ],
    ids=["rank", "line"],
)
def test_custom_cyclicity_config_gives_the_built_in_bounds(tmp_path, capsys, config, mode):
    """The teo4 rank bound and the teo5 line bound, read from config files,
    are the built-in reports."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "cyclicity", "--mode", "custom", "--config", str(path))
    assert code == 0
    assert out == run_cli(capsys, "cyclicity", "--mode", *mode)[1]


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


def test_a_document_with_a_too_deep_coefficient_is_a_schema_error(tmp_path, capsys):
    document = _center_document("exact", "1")
    document["equations"][0][0]["coeff"] = "-" * 3000 + "1"
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "hopf", "--system", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SchemaError"


def test_an_exact_document_refuses_a_float_parameter(tmp_path, capsys):
    """A JSON float would bind its binary value: 0.1 is 3602879701896397/2^55."""
    path = tmp_path / "center.json"
    argv = ("focus", "--system", str(path), "--order", "1")
    path.write_text(json.dumps(_center_document("exact", 0.1)))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "SchemaError" and 'write "1/10"' in report["message"]
    for d in (2, "1/10"):
        path.write_text(json.dumps(_center_document("exact", d)))
        assert run_cli(capsys, *argv)[0] == 0


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_focus_reports_the_number_type_of_a_document(tmp_path, capsys, backend):
    path = tmp_path / "center.json"
    path.write_text(json.dumps(_center_document(backend, "1")))
    code, out, _ = run_cli(capsys, "focus", "--system", str(path), "--order", "2")
    assert code == 0
    report = json.loads(out)
    assert report["backend"] == backend
    assert all(abs(float(q)) < 1e-12 for q in report["quantities"])


def test_jets_of_a_float_document_are_refused(tmp_path, capsys):
    """Also where no jet value would be given (a document whose parameters
    all have values), and likewise for a float built-in."""
    path = tmp_path / "center.json"
    path.write_text(json.dumps(_center_document("float", "1")))
    for system, options in [
        (str(path), ("--small", "d", "--params", "d=1")),
        (str(path), ()),
        ("e4-normal", ("--params", "c=1/4,h=2")),
        ("e4-normal", ("--small", "c", "--params", "h=2")),
    ]:
        code, out, err = run_cli(capsys, "focus", "--system", system, "--order", "1",
                                 "--jet-degree", "1", *options)
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "HopfcmError",
            "message": "jet expansions need an exact-backend system",
        }


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
        pytest.param(_SIMULATE + ("0.1,0,0", "--tol", "1e-300"), id="tol-below-precision"),
        pytest.param(_SIMULATE + ("0.1,0,0", "--tol", "0.5"), id="tol-above-range"),
        pytest.param(_SIMULATE + ("0.1,0,0", "--tmax", "nan"), id="tmax-nan"),
        pytest.param(_SIMULATE + ("0.1,0,0", "--tmax", "inf"), id="tmax-inf"),
        pytest.param(_SIMULATE + ("0.1,0,0", "--tmax", "1e400"), id="tmax-overflow"),
    ],
)
def test_malformed_param_is_a_json_domain_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "HopfcmError"


@pytest.mark.parametrize(
    "argv",
    [
        ("focus", "--system", "e4-normal", "--params", "c=1e308,h=2", "--order", "1"),
        ("normalize", "--system", "e4m", "--params", "c=1e200,h=1e60"),
        ("focus", "--system", "e4-normal", "--params", "c=1e150,h=1e80", "--order", "1"),
        # h^2 > 2c in floats, while h^4 - 4c^2 rounds to 0
        ("focus", "--system", "e4-normal", "--params",
         "c=96.00828090831627,h=13.857004070744605", "--order", "1"),
    ],
    ids=["c-squared", "e4m-c-squared", "h-fourth", "edge-of-region"],
)
def test_a_radical_family_point_without_float_coefficients_is_a_region_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "RegionUndefined"


def _float_document_with_coefficient(coeff):
    """The float e1-center document at d = 1, its first coefficient ``coeff``."""
    document = _center_document("float", "1")
    document["equations"][0][0]["coeff"] = coeff
    return document


_KHALED = ("hopf", "--system", "khaled-original", "--point")
_HUGE_ENTRY = {"matrix": [["1e400", 0, 0], [0, 1, 0], [0, 0, 1]]}
_SEVENS = "7" * 3000
# (10^400 + 1) / 10^400, written as p/q
_NEAR_ONE = f"{10**400 + 1}/{10**400}"


@pytest.mark.parametrize(
    "argv,file,error,names",
    [
        (("simulate", "--system", "e1-center", "--params", "d=1", "--x0", "1e400,0,0",
          "--tmax", "1"), None, "RegionUndefined", "start state"),
        (_E4_DISPLACEMENT + ("1e400",), None, "HopfcmError", "rho0"),
        (_KHALED + ("E1", "--params", "a=1e400,b=0,c=1,d=1"), None, "RegionUndefined",
         "parameter a"),
        (_KHALED + ("1e400,0,0", "--params", "a=1,b=0,c=1,d=1"), None, "RegionUndefined",
         "omega^2"),
        (_KHALED + ("E1", "--params", "a=-1.8375290382566314e+285,b=0,c=1,d=1"), None,
         "RegionUndefined", "discriminant"),
        (("simulate", "--system", "e1-center", "--params", "d=1e200", "--x0", "0.1,0,0",
          "--tmax", "1"), None, "RegionUndefined", "coefficient"),
        (("displacement", "--system", "e1-center", "--params", "d=1e200", "--rho0-grid",
          "0.05"), None, "RegionUndefined", "coefficient"),
        (("normalize", "--system", "e4-normal", "--params", "c=1/4,h=2", "--transform",
          "input.json"), _HUGE_ENTRY, "RegionUndefined", "transform entry"),
        (("hopf", "--system", "input.json"), _center_document("exact", "abc"), "SchemaError",
         "parameter d"),
        (("hopf", "--system", "input.json"), _center_document("exact", "1/0"), "SchemaError",
         "parameter d"),
        (("hopf", "--system", "input.json"), _center_document("float", "abc"), "SchemaError",
         "parameter d"),
        (("hopf", "--system", "input.json"), _center_document("float", "1e400"),
         "RegionUndefined", "parameter d"),
        (("hopf", "--system", "input.json"), _float_document_with_coefficient("9" * 400),
         "RegionUndefined", "coefficient"),
        (("hopf", "--system", "input.json"), _float_document_with_coefficient("1" * 5000),
         "SchemaError", "integer literal"),
        (("hopf", "--system", "input.json"), _center_document("exact", True), "SchemaError",
         "parameter d"),
        (("hopf", "--system", "input.json"), _center_document("float", math.nan),
         "RegionUndefined", "parameter d"),
        (("hopf", "--system", "e4m", "--params", "c=1/4,h=2", "--point", "1e400,0,0"), None,
         "RegionUndefined", "--point"),
        (("normalize", "--system", "e4m", "--params", "c=1/4,h=2", "--point", "1e400,0,0"),
         None, "RegionUndefined", "--point"),
        (("hopf", "--system", "e1-center", "--params", f"d={_SEVENS}"), None,
         "RegionUndefined", "lambda3"),
        (("focus", "--system", "e1-center", "--order", "1", "--params", "d=" + "1" * 5000),
         None, "HopfcmError", "parameter d"),
        (("hopf", "--system", "input.json"), _center_document("exact", "1" * 5000),
         "SchemaError", "parameter d"),
        (("normalize", "--system", "khaled-original", "--point", "E1", "--params",
          f"a=2,b=0,c=1,d={_NEAR_ONE}"), None, "NotHopf", "eigenvalue conditions fail"),
        (("focus", "--system", "e1-normal", "--order", "1", "--params",
          f"c=1,k=0,d={_NEAR_ONE}"), None, "PoleAtPoint", "a coefficient has a pole at"),
        (("normalize", "--system", "e1-normal", "--params", f"c=1,k=1,d={_NEAR_ONE}",
          "--point", f"{_NEAR_ONE},0,0"), None, "NotHopf", "is not an equilibrium"),
    ],
    ids=["x0-overflow", "rho0-overflow", "equilibrium-parameter-overflow",
         "omega-overflow", "discriminant-overflow", "float-field-overflow",
         "displacement-field-overflow", "transform-entry-overflow", "exact-document-junk",
         "exact-document-pole", "float-document-junk", "float-document-overflow",
         "float-document-huge-literal", "float-document-literal-past-the-digit-limit",
         "exact-document-boolean", "float-document-nan", "hopf-point-overflow",
         "normalize-point-overflow", "lambda3-overflow", "params-past-the-digit-limit",
         "document-parameter-past-the-digit-limit", "long-eigenvalue-conditions",
         "long-pole-point", "long-non-equilibrium"],
)
def test_an_outside_number_that_does_not_fit_is_a_domain_error(
    capsys, tmp_path, monkeypatch, argv, file, error, names
):
    """A number from outside that does not parse, or whose value does not
    fit a float where one is needed, ends in one short JSON error; so does a
    domain error whose message quotes a long number."""
    monkeypatch.chdir(tmp_path)
    if file is not None:
        (tmp_path / "input.json").write_text(json.dumps(file))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == error
    assert names in report["message"] and len(report["message"]) < 200


# numbers from outside: integers of up to 500 digits, decimals with
# exponents up to +/-1000, p/0, junk and, to reach the valid ranges, p/q in
# [-1/5, 1/5], as text, and the JSON values a file may hold in their place:
# booleans, floats and NaN
_OUTSIDE_NUMBERS = st.one_of(
    st.integers(-(10**500), 10**500).map(str),
    st.fractions(Fraction(-1, 5), Fraction(1, 5), max_denominator=1000).map(str),
    st.builds("{}.{}e{}".format, st.integers(-(10**6), 10**6), st.integers(0, 10**6),
              st.integers(-1000, 1000)),
    st.integers().map("{}/0".format),
    st.text(max_size=12),
    st.booleans(),
    st.floats(),
    st.just(math.nan),
)


def _text(value):
    """A command-line value as it would be typed: JSON values as JSON."""
    return value if isinstance(value, str) else json.dumps(value)


# each takes one number from outside to (argv, the JSON file it reads or None)
_NUMBER_TARGETS = {
    "params-float": lambda v: (("focus", "--system", "e4-normal", "--order", "1",
                                f"--params=c={_text(v)},h=2"), None),
    "params-exact": lambda v: (("focus", "--system", "e1-normal", "--order", "1",
                                f"--params=c={_text(v)},d=1,k=1"), None),
    "x0": lambda v: (("simulate", "--system", "e1-center", "--params", "d=1", "--tmax", "0.1",
                      f"--x0={_text(v)},0,0"), None),
    "rho0-grid": lambda v: (("displacement", "--system", "e1-center", "--params", "d=1",
                             f"--rho0-grid={_text(v)}"), None),
    "exact-document": lambda v: (("focus", "--system", "input.json", "--order", "1"),
                                 _center_document("exact", v)),
    "float-document": lambda v: (("focus", "--system", "input.json", "--order", "1"),
                                 _center_document("float", v)),
    "transform-entry": lambda v: (("normalize", "--system", "e4-normal", "--params",
                                   "c=1/4,h=2", "--transform", "input.json"),
                                  {"matrix": [[v, 0, 0], [0, 1, 0], [0, 0, 1]]}),
}


@pytest.mark.parametrize("target", sorted(_NUMBER_TARGETS))
@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=_OUTSIDE_NUMBERS)
def test_every_outside_number_ends_in_a_report_or_a_domain_error(
    capsys, tmp_path, monkeypatch, target, value
):
    """Whatever number arrives, the run exits 0 or 2 with no traceback, and
    a nonzero exit writes one JSON error line.  A small work ceiling stops
    a fast-turning orbit from a large start state in milliseconds."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(simulate, "MAX_RHS_EVALS", 10_000)
    argv, file = _NUMBER_TARGETS[target](value)
    if file is not None:
        (tmp_path / "input.json").write_text(json.dumps(file))
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2)
    if code:
        assert out == "" and err.count("\n") == 1
        assert set(json.loads(err)) == {"error", "message"}


@pytest.mark.parametrize("command", [("normalize",), ("period", "--order", "2")])
def test_a_report_prints_every_digit(capsys, command):
    """At d = 77...7 (3,000 sevens) lambda = -d^2 has 6,001 characters; the
    interpreter's limit on int-to-text conversion is lifted for the run only."""
    digits = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, *command, "--system", "e1-center", "--params", f"d={_SEVENS}")
    assert code == 0 and sys.get_int_max_str_digits() == digits
    report = json.loads(out)
    if command[0] == "normalize":
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(report["lambda"]) == -int(_SEVENS) ** 2
        finally:
            sys.set_int_max_str_digits(digits)


def test_an_order_past_the_digit_limit_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["focus", "--system", "e1-center", "--order", "1" * 5000])
    assert exc.value.code == 1 and "invalid int value" in capsys.readouterr().err


# coefficient texts from expression trees over c, d and integer literals.  A
# leaf is (base, exponent or None), the exponent at most 3 and only on a
# leaf, so that values stay short; a node is ("neg", tree), (op, tree, tree)
# for op in + - * /, or a flat ("sum" or "product", [(op, tree), ...]), whose
# first op is not written.  Small trees nest; flat sums and products of 100
# to 300 leaves are drawn on their own, as long trees are slow to draw
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_LEAVES = st.tuples(st.sampled_from(["c", "d"]) | st.integers(0, 20).map(str),
                    st.none() | st.integers(0, 3))


def _flat(kind, terms, min_size=2):
    ops = st.sampled_from("+-" if kind == "sum" else "*/")
    return st.tuples(st.just(kind), st.lists(st.tuples(ops, terms), min_size=min_size,
                                             max_size=300))


_TREES = st.recursive(
    _LEAVES,
    lambda trees: st.one_of(
        st.tuples(st.just("neg"), trees),
        st.tuples(st.sampled_from(sorted(_BINARY)), trees, trees),
        _flat("sum", trees),
        _flat("product", trees),
    ),
    max_leaves=30,
) | _flat("sum", _LEAVES, 100) | _flat("product", _LEAVES, 100)


def _is_node(tree):
    return tree[0] in _BINARY or tree[0] in ("neg", "sum", "product")


def _render(tree):
    """The grammar text of ``tree``, each subtree that is a node in parentheses."""
    def sub(t):
        return f"({_render(t)})" if _is_node(t) else _render(t)

    kind = tree[0]
    if kind == "neg":
        return f"-{sub(tree[1])}"
    if kind in ("sum", "product"):
        return "".join(f"{op}{sub(t)}" for op, t in tree[1])[1:]
    if kind in _BINARY:
        return f"{sub(tree[1])}{kind}{sub(tree[2])}"
    base, exponent = tree
    return base if exponent is None else f"{base}^{exponent}"


def _value(tree, scope):
    """``tree`` evaluated directly, left to right; ZeroDivisionError at a pole."""
    kind = tree[0]
    if kind == "neg":
        return -_value(tree[1], scope)
    if kind in ("sum", "product"):
        (_, first), *rest = tree[1]
        acc = _value(first, scope)
        for op, t in rest:
            acc = _BINARY[op](acc, _value(t, scope))
        return acc
    if kind in _BINARY:
        return _BINARY[kind](_value(tree[1], scope), _value(tree[2], scope))
    base, exponent = tree
    x = scope[base] if base in scope else Fraction(int(base))
    return x if exponent is None else x**exponent


def _depth(tree):
    if not _is_node(tree):
        return 1
    subtrees = [t for _, t in tree[1]] if tree[0] in ("sum", "product") else tree[1:]
    return 1 + max(map(_depth, subtrees))


_RATIONALS = st.fractions(-3, 3, max_denominator=10)


@settings(derandomize=True, max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(tree=_TREES, c=_RATIONALS, d=_RATIONALS)
def test_every_coefficient_text_evaluates_as_its_tree(capsys, tmp_path, monkeypatch, tree, c, d):
    """The grammar reads a text to the value of the tree it was rendered
    from, a pole included, and a document with the text as a coefficient,
    exact or float, ends in a report or one short JSON error line."""
    assume(_depth(tree) <= 40)  # nesting stays within MAX_DEPTH
    text = _render(tree)
    scope = {"c": c, "d": d}
    try:
        want = _value(tree, scope)
    except ZeroDivisionError:
        with pytest.raises(SchemaError, match="a pole"):
            evaluate(text, scope, Fraction)
    else:
        assert evaluate(text, scope, Fraction) == want
    monkeypatch.chdir(tmp_path)
    for backend in ("exact", "float"):
        document = _center_document(backend, str(d))
        document["params"]["c"] = str(c)
        document["equations"][0][0]["coeff"] = text
        (tmp_path / "input.json").write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "hopf", "--system", "input.json")
        assert code in (0, 2)
        if err:
            assert out == "" and err.count("\n") == 1
            report = json.loads(err)
            assert set(report) == {"error", "message"} and len(report["message"]) < 200
        else:
            json.loads(out)


def test_huge_finite_span_stops_at_the_work_ceiling(capsys, tmp_path, monkeypatch):
    # about 2 s: the ceiling is 10^6 field evaluations
    monkeypatch.chdir(tmp_path)

    def hang(signum, frame):
        raise TimeoutError("simulate with --tmax 1e300 ran past 60 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        code, out, err = run_cli(capsys, *_SIMULATE, "0.1,0,0", "--tmax", "1e300")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "WorkCeiling"


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


def test_file_system_expands_in_jets_like_a_builtin(tmp_path, capsys):
    path = tmp_path / "center.json"
    path.write_text(json.dumps(_center_document("exact", None)))
    argv = ("focus", "--order", "2", "--jet-degree", "2", "--params", "d=1/2", "--system")
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


@pytest.mark.parametrize(
    "system,params",
    [("e4-normal", "c=1/4,h=2,zz=5"), ("e1-center", "d=1,zz=5")],
    ids=["float-builtin", "exact-builtin"],
)
def test_builtin_system_rejects_an_unknown_parameter(capsys, system, params):
    code, out, err = run_cli(
        capsys, "focus", "--system", system, "--order", "1", "--params", params
    )
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "SchemaError", "message": "unknown parameter(s) ['zz']"}


def test_plot_script_goes_beside_an_output_in_a_dotted_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my.dir").mkdir()
    code, out, _ = run_cli(capsys, *_SIMULATE, "0.1,0,0", "--plot-script", "--out", "my.dir/traj")
    assert code == 0
    assert json.loads(out)["artifacts"] == ["my.dir/traj", "my.dir/traj_plot.py"]
    assert (tmp_path / "my.dir" / "traj_plot.py").exists()
    assert not (tmp_path / "my_plot.py").exists()


def test_report_over_a_longer_file_holds_only_the_new_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("x" * 100_000)
    assert run_cli(capsys, "catalog", "--out", str(path))[0] == 0
    assert path.read_text() == run_cli(capsys, "catalog")[1]


def test_report_to_a_fifo_is_written_through(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run_cli(capsys, "catalog", "--out", str(fifo))[0] == 0
    reader.join(timeout=10)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert got == [run_cli(capsys, "catalog")[1]]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(_SIMULATE + ("0.1,0,0",), id="simulate"),
        pytest.param(("catalog",), id="catalog"),
        pytest.param(("verify", "--claim", "teo1-center"), id="verify"),
    ],
)
def test_output_path_that_is_a_directory_is_a_json_usage_error(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert str(tmp_path) in json.loads(err)["message"]


def test_out_dir_that_is_a_file_is_a_json_usage_error(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    code, out, err = run_cli(capsys, "verify", "--claim", "conservation", "--out-dir", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "FileExistsError"


def test_conservation_artifacts_are_the_same_on_a_rerun(tmp_path, capsys):
    argv = ("verify", "--claim", "conservation", "--out-dir", str(tmp_path))
    assert run_cli(capsys, *argv)[0] == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(first) == 10
    assert run_cli(capsys, *argv)[0] == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_usage_errors_leave_the_kept_parser_as_a_fresh_one(tmp_path, capsys):
    # each command's first call in a fresh interpreter against the same
    # commands in this process, after usage errors of the parser and of a
    # subcommand's parser
    csv = str(tmp_path / "t.csv")
    runs = [
        ["simulate", "--system", "e1-center", "--params", "d=1", "--x0", "0.5,-0.75,0.1",
         "--tmax", "10", "--out", csv],
        ["focus", "--system", "e4-normal", "--params", "c=1/4,h=2", "--order", "2"],
        ["verify", "--claim", "teo1-center"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    first = []
    for argv in runs:
        done = subprocess.run([sys.executable, "-m", "hopfcm.cli", *argv], env=env,
                              capture_output=True, text=True)
        first.append((done.returncode, done.stdout, open(csv, "rb").read()))
    for bad in (["definitely-not-a-command"], ["focus", "--system", "e1-center"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 1
    again = []
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)
        again.append((code, out, open(csv, "rb").read()))
    assert again == first
    assert [code for code, _, _ in first] == [0, 0, 0]
    assert build_parser() is build_parser()
