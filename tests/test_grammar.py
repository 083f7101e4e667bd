"""Coefficient grammar: exact and float evaluation as the text is read, sqrt rules."""

import json
from fractions import Fraction

import pytest

from hopfcm.cli import main
from hopfcm.errors import SchemaError
from hopfcm.grammar import MAX_DEPTH, eval_exact, evaluate
from hopfcm.paramfield import ParamExpr


def test_exact_rational_function():
    text = "(1 + c*d - c^2*d^2 - k^2)/(d*(1 + c*d))"
    params = ("c", "d", "k")
    c, d, k = (ParamExpr.var(params, n) for n in params)
    assert eval_exact(text, params) == (1 + c * d - c**2 * d**2 - k**2) / (
        d * (1 + c * d)
    )


def test_unary_minus_and_powers():
    (k,) = (ParamExpr.var(("k",), "k"),)
    assert eval_exact("-3*k^2 + 2", ("k",)) == -3 * k**2 + 2


def test_sqrt_rejected_under_exact_backend():
    with pytest.raises(SchemaError):
        eval_exact("sqrt(c)", ("c",))


def test_sqrt_allowed_under_float_backend():
    val = evaluate("sqrt(2)*sqrt(c)/h", {"c": 0.25, "h": 2.0}, float)
    assert val == pytest.approx(2**0.5 * 0.5 / 2.0)


def test_unknown_parameter_rejected():
    with pytest.raises(SchemaError):
        eval_exact("q + 1", ("c", "d"))


def test_negative_exponent_rejected():
    with pytest.raises(SchemaError):
        eval_exact("k^-2", ("k",))


def test_float_division_by_zero():
    with pytest.raises(SchemaError):
        evaluate("1/(c - c)", {"c": 3.0}, float)


def test_integer_literals_are_exact():
    assert eval_exact("1/3", ()) == Fraction(1, 3)


@pytest.mark.parametrize(
    "shape,value",
    [
        (lambda n: "-" * (n - 1) + "1", -1),
        (lambda n: "(" * (n - 1) + "1" + ")" * (n - 1), 1),
    ],
    ids=["signs", "parentheses"],
)
def test_nesting_beyond_the_depth_bound_is_a_schema_error(shape, value):
    # up to the bound it evaluates; far beyond it the recursive parser would
    # overflow the interpreter's stack
    assert eval_exact(shape(MAX_DEPTH), ()) == value
    for n in (MAX_DEPTH + 1, 3000):
        with pytest.raises(SchemaError, match="deeper than"):
            eval_exact(shape(n), ())


# a sum of 1,000 terms, 1*d - 2*d + 3*d - ... - 1000*d = -500 d, and a
# product of 300 factors, d*d*...*d/d/.../d = d^2 (151 times d, 149 times /d)
_LONG_SUM = "".join(f"{'+-'[k % 2 == 0]}{k}*d" for k in range(1, 1001)).lstrip("+")
_LONG_PRODUCT = "d" + "*d" * 150 + "/d" * 149


def _document(backend, coefficients):
    """e1-center at d = 2 with the coefficients of v w and u w replaced; every
    partial product of the long product is then exact in floats too."""
    vw, uw = coefficients
    return {
        "backend": backend,
        "params": {"d": "2"},
        "state_vars": ["u", "v", "w"],
        "equations": [
            [{"exp": [0, 1, 0], "coeff": "1"}, {"exp": [0, 1, 1], "coeff": vw}],
            [{"exp": [1, 0, 0], "coeff": "-1"}, {"exp": [1, 0, 1], "coeff": uw}],
            [{"exp": [0, 0, 1], "coeff": "-d^2"}, {"exp": [1, 1, 0], "coeff": "d"}],
        ],
    }


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_a_sum_or_product_of_any_length_is_read(tmp_path, capsys, backend):
    params = ("d",)
    d = ParamExpr.var(params, "d")
    assert eval_exact(_LONG_SUM, params) == -500 * d
    assert eval_exact(_LONG_PRODUCT, params) == d**2
    path = tmp_path / "system.json"
    reports = []
    for coefficients in ((_LONG_SUM, _LONG_PRODUCT), ("-500*d", "d^2")):
        path.write_text(json.dumps(_document(backend, coefficients)))
        assert main(["normalize", "--system", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    if backend == "exact":
        assert "(-1000)*x2*x3" in reports[0] and "(4)*x1*x3" in reports[0]
