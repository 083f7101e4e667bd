"""Coefficient grammar: parsing, exact and float evaluation, sqrt rules."""

from fractions import Fraction

import pytest

from hopfcm.errors import SchemaError
from hopfcm.grammar import MAX_DEPTH, eval_exact, evaluate, parse_expression
from hopfcm.paramfield import ParamExpr


def test_exact_rational_function():
    node = parse_expression("(1 + c*d - c^2*d^2 - k^2)/(d*(1 + c*d))")
    params = ("c", "d", "k")
    c, d, k = (ParamExpr.var(params, n) for n in params)
    assert eval_exact(node, params) == (1 + c * d - c**2 * d**2 - k**2) / (
        d * (1 + c * d)
    )


def test_unary_minus_and_powers():
    node = parse_expression("-3*k^2 + 2")
    (k,) = (ParamExpr.var(("k",), "k"),)
    assert eval_exact(node, ("k",)) == -3 * k**2 + 2


def test_sqrt_rejected_under_exact_backend():
    node = parse_expression("sqrt(c)")
    with pytest.raises(SchemaError):
        eval_exact(node, ("c",))


def test_sqrt_allowed_under_float_backend():
    node = parse_expression("sqrt(2)*sqrt(c)/h")
    val = evaluate(node, {"c": 0.25, "h": 2.0}, float)
    assert val == pytest.approx(2**0.5 * 0.5 / 2.0)


def test_unknown_parameter_rejected():
    node = parse_expression("q + 1")
    with pytest.raises(SchemaError):
        eval_exact(node, ("c", "d"))


def test_negative_exponent_rejected():
    with pytest.raises(SchemaError):
        parse_expression("k^-2")


def test_float_division_by_zero():
    node = parse_expression("1/(c - c)")
    with pytest.raises(SchemaError):
        evaluate(node, {"c": 3.0}, float)


def test_integer_literals_are_exact():
    node = parse_expression("1/3")
    assert eval_exact(node, ()) == Fraction(1, 3)


@pytest.mark.parametrize(
    "shape,value",
    [
        (lambda n: "-" * (n - 1) + "1", -1),
        (lambda n: "(" * (n - 1) + "1" + ")" * (n - 1), 1),
        (lambda n: "+".join(["1"] * n), MAX_DEPTH),
    ],
    ids=["signs", "parentheses", "sum"],
)
def test_nesting_beyond_the_depth_bound_is_a_schema_error(shape, value):
    # up to the bound it parses and evaluates; far beyond it the recursive
    # parser or evaluator would overflow the interpreter's stack
    assert eval_exact(parse_expression(shape(MAX_DEPTH)), ()) == value
    for n in (MAX_DEPTH + 1, 3000):
        with pytest.raises(SchemaError, match="deeper than"):
            parse_expression(shape(n))
