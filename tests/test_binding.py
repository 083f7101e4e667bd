"""Parameter binding: one path, and a fully bound exact value is a Fraction."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfcm.catalog import e1_center, e1_normal
from hopfcm.cli import main
from hopfcm.errors import HopfcmError, PoleAtPoint, SchemaError
from hopfcm.focusq import report_for_field
from hopfcm.grammar import eval_exact, parse_expression
from hopfcm.normalform import to_normal_form
from hopfcm.paramfield import ParamExpr
from hopfcm.period import isochronicity_constants
from hopfcm.polysys import parse_system

F = Fraction


def _coefficients(fld):
    return [c for comp in fld.components for c in comp.terms.values()]


def _valued_document():
    """khaled-original with every parameter valued, plus a rational term."""
    equations = [
        {(0, 1, 0): "a", (1, 0, 0): "-a", (0, 1, 1): "1"},
        {(1, 0, 0): "b", (0, 1, 0): "c", (1, 0, 1): "-1"},
        {(0, 0, 1): "-d", (1, 1, 0): "1", (0, 0, 0): "1/(c - d)"},
    ]
    return {
        "backend": "exact",
        "params": {"a": "2", "b": "-1", "c": "1/3", "d": 5},
        "state_vars": ["x", "y", "z"],
        "equations": [
            [{"exp": list(e), "coeff": c} for e, c in eq.items()] for eq in equations
        ],
    }


def _center_constants():
    pe = isochronicity_constants(to_normal_form(e1_center({"d": 2}), (F(0),) * 3), 2)
    return pe.constants + pe.odd_residuals


BOUND_PATHS = {
    "e1-normal-coefficients": lambda: _coefficients(
        e1_normal({"c": F(1, 10), "d": 1, "k": 1})
    ),
    "focus-quantities": lambda: report_for_field(
        e1_normal({"c": F(1, 10), "d": 1, "k": 1}), 3
    ).quantities,
    "isochronicity-constants": _center_constants,
    "valued-document": lambda: _coefficients(parse_system(_valued_document())),
    "grammar": lambda: [eval_exact(parse_expression("(1 + 2^3)/3 - 1/7"), ())],
}


@pytest.mark.parametrize("path", sorted(BOUND_PATHS))
def test_bound_exact_values_are_plain_fractions(path):
    values = BOUND_PATHS[path]()
    assert values
    assert all(type(x) is Fraction for x in values)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=25, deadline=None)
@given(
    bound=st.sets(st.sampled_from(("c", "d", "k")), min_size=1),
    c=_RATIONALS,
    d=_RATIONALS,
    k=_RATIONALS,
)
def test_binding_agrees_with_evaluation(bound, c, d, k):
    """Bound and partially bound coefficients equal the symbolic ones
    evaluated at the same values (free parameters as variables), a path
    that does not go through substitution."""
    fld = e1_normal()
    mapping = {p: v for p, v in {"c": c, "d": d, "k": k}.items() if p in bound}
    free = tuple(p for p in fld.params if p not in mapping)
    try:
        got = fld.substitute_params(mapping)
    except PoleAtPoint:
        assume(False)
    assert got.params == free
    values = {**mapping, **{p: ParamExpr.var(free, p) for p in free}}
    for comp, ref in zip(got.components, fld.components):
        for e, q in ref.terms.items():
            have, want = comp.terms.get(e, F(0)), q.evaluate(values)
            assert have == want
            if not free:
                assert type(have) is Fraction and type(want) is Fraction


@pytest.mark.parametrize(
    "mapping", [{"q": 1}, {"d": 1, "sigma": 0}], ids=["unknown", "one-of-two-unknown"]
)
def test_substitute_params_rejects_an_unknown_name(mapping):
    with pytest.raises(SchemaError, match="unknown parameter"):
        e1_normal().substitute_params(mapping)


def test_substitute_params_at_a_pole_raises_pole_at_point():
    # c d = -1 is a pole of e1-normal's coefficients
    with pytest.raises(PoleAtPoint):
        e1_normal().substitute_params({"c": 1, "d": -1})


def test_to_float_names_the_free_parameters():
    with pytest.raises(HopfcmError, match=r"\['c'\] are free"):
        e1_normal({"d": 1, "k": 1}).to_float()
    assert isinstance(e1_normal({"c": 0, "d": 1, "k": 1}).to_float().zero, float)


def test_valued_document_at_a_pole_is_a_schema_error():
    doc = _valued_document()
    doc["params"]["c"] = "5"
    with pytest.raises(SchemaError, match="pole"):
        parse_system(doc)


def test_bound_runs_build_no_zero_parameter_expression(monkeypatch, capsys):
    """The bound paths above, and CLI commands at bound points, never form
    a ParamExpr over an empty parameter tuple."""
    init = ParamExpr.__init__

    def guarded(self, num, den, _normalized=False):
        assert num.params, "zero-parameter ParamExpr built"
        init(self, num, den, _normalized)

    monkeypatch.setattr(ParamExpr, "__init__", guarded)
    for path in BOUND_PATHS.values():
        path()
    runs = [
        ["hopf", "--system", "khaled-original", "--point", "E1",
         "--params", "a=1,b=0,c=1,d=1"],
        ["focus", "--system", "e1-normal", "--order", "2", "--params", "c=1/10,d=1,k=1"],
        ["period", "--system", "e1-center", "--order", "2", "--params", "d=1/2"],
        ["normalize", "--system", "e1-normal", "--params", "c=1/10,d=1,k=1"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    capsys.readouterr()
