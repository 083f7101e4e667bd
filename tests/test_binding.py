"""Parameter binding: one path, and a fully bound exact value is a Fraction.

Each exact catalog entry is one function of its parameter values, bound
directly in the number type of the values (``polysys.bind``).  The oracle
for it is independent of that route: the all-free field, whose
coefficients are canonical rational functions, evaluated at the values by
``ParamExpr.evaluate``.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcm.catalog import BUILTIN_SYSTEMS, build
from hopfcm.cli import main
from hopfcm.cyclicity import jet_system
from hopfcm.errors import HopfcmError, PoleAtPoint, SchemaError
from hopfcm.focusq import report_for_field
from hopfcm.grammar import eval_exact, parse_expression
from hopfcm.normalform import to_normal_form
from hopfcm.paramfield import JetContext, ParamExpr
from hopfcm.period import isochronicity_constants
from hopfcm.polysys import parse_system

F = Fraction

EXACT_SYSTEMS = sorted(n for n, meta in BUILTIN_SYSTEMS.items() if meta["backend"] == "exact")


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


# e1-normal as a document: its coefficients as the catalog writes them
_E1_NORMAL_ROWS = [
    {(0, 1, 0): "1",
     (1, 0, 1): "c*d^2*(c*d + 1)/(k*(c^2*d^2 + k^2))",
     (0, 1, 1): "d*(2*c^4*d^4 + 2*c^3*d^3 + 2*c^2*d^2*k^2 + c^2*d^2 + k^4)"
                "/(k^2*(c*d + 1)*(c^2*d^2 + k^2))"},
    {(1, 0, 0): "-1",
     (1, 0, 1): "-d*(c*d + 1)/(c^2*d^2 + k^2)",
     (0, 1, 1): "-c*d^2*(c*d + 1)/(k*(c^2*d^2 + k^2))"},
    {(0, 0, 1): "-d^2/k",
     (1, 1, 0): "d*(c*d + 1)/(c^2*d^2 + k^2)",
     (0, 2, 0): "c*d^2*(c*d + 1)/(k*(c^2*d^2 + k^2))"},
]


def _e1_normal_document():
    return {
        "backend": "exact",
        "params": {"c": None, "d": None, "k": None},
        "state_vars": ["u", "v", "w"],
        "equations": [
            [{"exp": list(e), "coeff": c} for e, c in row.items()] for row in _E1_NORMAL_ROWS
        ],
    }


def _center_constants():
    pe = isochronicity_constants(to_normal_form(build("e1-center", {"d": 2}), (F(0),) * 3), 2)
    return pe.constants + pe.odd_residuals


BOUND_PATHS = {
    "e1-normal-coefficients": lambda: _coefficients(
        build("e1-normal", {"c": F(1, 10), "d": 1, "k": 1})
    ),
    "focus-quantities": lambda: report_for_field(
        build("e1-normal", {"c": F(1, 10), "d": 1, "k": 1}), 3
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


def _evaluated(fld, values):
    """The oracle: every coefficient of the all-free ``fld`` evaluated at
    ``values``, the parameters left out as variables of their ring; None
    when a coefficient has a pole there.  A constant coefficient is a
    Fraction already."""
    free = tuple(p for p in fld.params if p not in values)
    scope = {**values, **{p: ParamExpr.var(free, p) for p in free}}

    def value(q):
        return q.evaluate(scope) if isinstance(q, ParamExpr) else q

    try:
        return [{e: value(q) for e, q in comp.terms.items()} for comp in fld.components]
    except PoleAtPoint:
        return None


def _assert_binds_like_the_oracle(name, values):
    want = _evaluated(build(name), values)
    if want is None:
        with pytest.raises(PoleAtPoint):
            build(name, values)
        return
    got = build(name, values)
    assert got.params == tuple(p for p in BUILTIN_SYSTEMS[name]["params"] if p not in values)
    assert [c.terms for c in got.components] == [
        {e: q for e, q in row.items() if q} for row in want
    ]
    if not got.params:
        assert all(type(q) is Fraction for q in _coefficients(got))


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=90, deadline=None)
@given(data=st.data())
def test_binding_agrees_with_evaluation(data):
    """For every exact catalog entry, coefficients bound directly at a
    rational point, full or partial, equal the symbolic ones evaluated at
    the same values (free parameters as variables), a path that does not
    go through binding; and binding has a pole exactly where that
    evaluation has one.  A fully bound coefficient is a Fraction."""
    name = data.draw(st.sampled_from(EXACT_SYSTEMS), label="system")
    params = BUILTIN_SYSTEMS[name]["params"]
    bound = data.draw(st.lists(st.sampled_from(params), min_size=1, unique=True))
    _assert_binds_like_the_oracle(name, {p: data.draw(_RATIONALS, label=p) for p in bound})


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", EXACT_SYSTEMS)
def test_jet_binding_agrees_with_evaluation(name, degree):
    """Jets in every parameter around a point of the domain: the direct jet
    field equals the all-free field evaluated at the jets."""
    params = BUILTIN_SYSTEMS[name]["params"]
    # the i-th parameter at 1/(i + 2), inside every domain
    point = {p: F(1, 2 + i) for i, p in enumerate(params)}
    ctx = JetContext(params, degree)
    jets = {p: ctx.const(v) + ctx.eps(p) for p, v in point.items()}
    got = jet_system(name, point, params, degree)
    want = _evaluated(build(name), jets)
    assert [c.terms for c in got.components] == [
        {e: q for e, q in row.items() if q} for row in want
    ]


@pytest.mark.parametrize(
    "mapping", [{"q": 1}, {"d": 1, "sigma": 0}], ids=["unknown", "one-of-two-unknown"]
)
def test_binding_rejects_an_unknown_name(mapping):
    with pytest.raises(SchemaError, match="unknown parameter"):
        build("e1-normal", mapping)


def test_binding_at_a_pole_raises_pole_at_point():
    # c d = -1 is a pole of e1-normal's coefficients
    with pytest.raises(PoleAtPoint):
        build("e1-normal", {"c": 1, "d": -1})
    with pytest.raises(PoleAtPoint):
        build("e1-normal", {"c": 1, "d": -1, "k": 1})


def test_to_float_names_the_free_parameters():
    with pytest.raises(HopfcmError, match=r"\['c'\] are free"):
        build("e1-normal", {"d": 1, "k": 1}).to_float()
    assert isinstance(build("e1-normal", {"c": 0, "d": 1, "k": 1}).to_float().zero, float)


def test_valued_document_at_a_pole_is_a_schema_error():
    doc = _valued_document()
    doc["params"]["c"] = "5"
    with pytest.raises(SchemaError, match="pole"):
        parse_system(doc)


def test_a_document_coefficient_is_evaluated_as_written():
    """(d^2 - 1)/(d - 1) is d + 1 as a rational function, but at d = 1 its
    divisor is zero as written, so the bound document has a pole there."""
    doc = _valued_document()
    doc["params"]["d"] = None
    doc["equations"][2][2]["coeff"] = "(d^2 - 1)/(d - 1)"
    assert parse_system(doc, {"d": 2}).components[2].terms[(0, 0, 0)] == 3
    with pytest.raises(SchemaError, match="pole"):
        parse_system(doc, {"d": 1})


@pytest.mark.parametrize(
    "values",
    [{}, {"k": 1}, {"c": F(1, 10), "d": 1, "k": 1}, {"c": F(-2, 3), "d": F(1, 2)}],
    ids=["free", "k", "bound", "c-d"],
)
def test_a_document_binds_like_the_builtin_it_copies(values):
    got = parse_system(_e1_normal_document(), values)
    want = build("e1-normal", values)
    assert got.params == want.params
    assert [c.terms for c in got.components] == [c.terms for c in want.components]


@pytest.mark.parametrize("degree", [1, 2])
def test_a_document_expands_in_jets_like_the_builtin_it_copies(tmp_path, degree):
    path = tmp_path / "e1-normal.json"
    path.write_text(json.dumps(_e1_normal_document()))
    point, small = {"k": 1, "c": 0, "d": F(1, 2)}, ("k", "c", "d")
    got = jet_system(str(path), point, small, degree)
    want = jet_system("e1-normal", point, small, degree)
    assert [c.terms for c in got.components] == [c.terms for c in want.components]


def test_bound_runs_construct_no_parameter_expression(monkeypatch, capsys):
    """The bound paths above, and CLI commands at bound points, build each
    field directly in Fractions: not one ParamExpr is constructed."""
    built = []
    init = ParamExpr.__init__

    def counted(self, num, den, _normalized=False):
        built.append(num.params)
        init(self, num, den, _normalized)

    monkeypatch.setattr(ParamExpr, "__init__", counted)
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
    assert built == []
