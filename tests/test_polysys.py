"""Vector fields: evaluation, Jacobians, Hopf test, equilibria, transforms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcm.catalog import build, equilibria_catalog
from hopfcm.errors import SchemaError, SingularTransform
from hopfcm.paramfield import ParamExpr
from hopfcm.polysys import (
    StatePoly,
    VectorField3,
    char_cubic,
    hopf_test,
    parse_system,
    transform,
)

F = Fraction


# --- evaluation -----------------------------------------------------------------


def test_khaled_vanishes_at_first_equilibrium():
    fld = build("khaled-original", {"a": 1, "b": 0, "c": 1, "d": 1})
    assert fld.evaluate((F(0), F(0), F(1))) == (0, 0, 0)


def test_khaled_hand_substitution():
    fld = build("khaled-original", {"a": 1, "b": 0, "c": 1, "d": 1})
    assert fld.evaluate((F(1), F(1), F(1))) == (1, 0, 1)


def test_zero_field_evaluates_to_zero():
    fld = VectorField3((StatePoly.zero(),) * 3)
    assert fld.evaluate((F(2), F(3), F(4))) == (0, 0, 0)


def test_equilibrium_symbolic_over_parameters():
    fld = build("khaled-original")
    P = fld.params
    zero = ParamExpr.zero(P)
    d = ParamExpr.var(P, "d")
    res = fld.evaluate((zero, zero, 1 / d))
    assert not any(res)


# --- Jacobian and characteristic cubic ---------------------------------------------


def test_jacobian_entries_at_first_equilibrium():
    fld = build("khaled-original")
    P = fld.params
    zero = ParamExpr.zero(P)
    a, d = ParamExpr.var(P, "a"), ParamExpr.var(P, "d")
    jac = fld.jacobian_at((zero, zero, 1 / d))
    assert jac[0][1] == a + 1 / d
    assert jac[2][2] == -d
    assert not jac[0][2] and not jac[1][2]


def test_jacobian_of_linear_field_is_coefficient_matrix():
    one = F(1)
    comps = (
        StatePoly({(0, 1, 0): F(2)}),
        StatePoly({(1, 0, 0): -one}),
        StatePoly({(0, 0, 1): F(5)}),
    )
    fld = VectorField3(comps)
    jac = fld.jacobian_at((F(0), F(0), F(0)))
    assert jac == [[0, 2, 0], [-1, 0, 0], [0, 0, 5]]


def test_char_cubic_alpha_at_first_equilibrium():
    fld = build("khaled-original")
    P = fld.params
    zero = ParamExpr.zero(P)
    a, c, d = (ParamExpr.var(P, n) for n in ("a", "c", "d"))
    cc = char_cubic(fld.jacobian_at((zero, zero, 1 / d)))
    assert cc.alpha == a - c + d


def test_char_cubic_identity_matrix():
    m = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    cc = char_cubic(m)
    assert (cc.alpha, cc.beta, cc.gamma) == (-3, 3, -1)


def test_char_cubic_annihilates_eigenvalues():
    import numpy as np

    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 3))
    cc = char_cubic([[m[i][j] for j in range(3)] for i in range(3)])
    for lam in np.linalg.eigvals(m):
        val = lam**3 + cc.alpha * lam**2 + cc.beta * lam + cc.gamma
        assert abs(val) < 1e-9


# --- Hopf test ------------------------------------------------------------------------


def _e1_cubic(a, b, c, d):
    fld = build("khaled-original", {"a": a, "b": b, "c": c, "d": d})
    inv_d = 1 / F(d)
    return char_cubic(fld.jacobian_at((F(0), F(0), inv_d)))


def test_hopf_at_first_equilibrium():
    report = hopf_test(_e1_cubic(1, 0, 1, 1))
    assert report.is_hopf is True
    assert report.omega_squared == 1
    assert report.lambda3 == -1
    ev = report.eigenvalues()
    assert ev[0] == 1j and ev[1] == -1j and ev[2] == -1


def test_not_hopf_when_trace_condition_fails():
    report = hopf_test(_e1_cubic(2, 0, 1, 1))  # a != c
    assert report.is_hopf is False


def test_not_hopf_when_beta_zero():
    cc = char_cubic([[F(0), F(0), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(-1)]])
    assert hopf_test(cc).is_hopf is False


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda x: x != 0),
)
def test_hopf_iff_characterization_on_samples(b, c, d):
    """is_hopf at E1 exactly on {a=c, (1+cd)(1-bd)-c^2 d^2 > 0}."""
    disc = (1 + c * d) * (1 - b * d) - c**2 * d**2
    report = hopf_test(_e1_cubic(c, b, c, d))
    assert report.is_hopf is (disc > 0 and d != 0)
    # breaking a = c must not yield a Hopf point (residual generically nonzero)
    report2 = hopf_test(_e1_cubic(c + 1, b, c, d))
    assert report2.is_hopf is not True or (
        report2.conditions["gamma_minus_alpha_beta"] == 0
    )


# --- equilibria ---------------------------------------------------------------------------


def test_catalog_equilibria_match_spec_point():
    pts = dict(equilibria_catalog({"a": F(-1, 4), "b": F(73, 32), "c": F(1, 4), "d": 0}))
    x, y, z = (float(v) for v in pts["E4-"])
    assert x == pytest.approx(-2.828427, abs=1e-6)
    assert y == pytest.approx(0.353553, abs=1e-6)
    assert z == pytest.approx(2.25, abs=1e-12)


def test_catalog_equilibria_are_roots():
    vals = {"a": 1.0, "b": 0.5, "c": 0.7, "d": 0.9}
    fld = build("khaled-original", vals).to_float()
    for lab, p in equilibria_catalog(vals):
        res = max(abs(v) for v in fld.evaluate(tuple(float(x) for x in p)))
        assert res < 1e-10, lab
    assert dict(equilibria_catalog({"a": 1, "b": 0, "c": 1, "d": 1}))["E1"] == (0, 0, 1)


# --- transforms ------------------------------------------------------------------------------


def _eigen_matrix(P):
    c, d, k = (ParamExpr.var(P, n) for n in ("c", "d", "k"))
    zero, one = ParamExpr.zero(P), ParamExpr.one(P)
    den = c**2 * d**2 + k**2
    return [
        [k * (c * d + 1) / den, c * d * (c * d + 1) / den, zero],
        [zero, one, zero],
        [zero, zero, one],
    ]


def test_translation_of_equilibrium_gives_shifted_system():
    fld = build("khaled-original")
    P4 = fld.params
    zero4 = ParamExpr.zero(P4)
    one4 = ParamExpr.one(P4)
    d4 = ParamExpr.var(P4, "d")
    ident = [[one4, zero4, zero4], [zero4, one4, zero4], [zero4, zero4, one4]]
    shifted = transform(fld, (zero4, zero4, 1 / d4), ident, one4)
    # translated field vanishes at the origin and keeps the Jacobian
    assert all((0, 0, 0) not in c.terms for c in shifted.components)
    jac = shifted.jacobian_at((zero4, zero4, zero4))
    assert jac[2][2] == -d4


def test_equilibrium_translation_reproduces_shifted_catalog_entry():
    # bind a = c and the k-reparametrized b, then translate E1 to the origin
    P3 = ("c", "d", "k")
    c, d, k = (ParamExpr.var(P3, n) for n in P3)
    b_expr = (1 + c * d - c**2 * d**2 - k**2) / (d * (1 + c * d))
    bound = build("khaled-original", {"a": c, "b": b_expr})
    zero, one = ParamExpr.zero(P3), ParamExpr.one(P3)
    ident = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    shifted = transform(bound, (zero, zero, 1 / d), ident, one)
    for got, want in zip(shifted.components, build("e1-shifted").components):
        assert not got - want


def test_normal_form_transform_matches_catalog_exactly():
    P = ("c", "d", "k")
    zero = ParamExpr.zero(P)
    k, d = ParamExpr.var(P, "k"), ParamExpr.var(P, "d")
    g = transform(build("e1-shifted"), (zero, zero, zero), _eigen_matrix(P), k / d)
    ref = build("e1-normal")
    for got, want in zip(g.components, ref.components):
        assert not got - want


def test_identity_transform_is_identity():
    fld = build("khaled-original")
    P = fld.params
    zero, one = ParamExpr.zero(P), ParamExpr.one(P)
    ident = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    g = transform(fld, (zero, zero, zero), ident, one)
    for got, want in zip(g.components, fld.components):
        assert not got - want


def test_singular_matrix_rejected():
    fld = build("khaled-original")
    P = fld.params
    zero, one = ParamExpr.zero(P), ParamExpr.one(P)
    bad = [[one, one, zero], [one, one, zero], [zero, zero, one]]
    with pytest.raises(SingularTransform):
        transform(fld, (zero, zero, zero), bad, one)


def test_transform_preserves_equilibria():
    vals = {"a": 1.0, "b": 0.5, "c": 0.7, "d": 0.9}
    fld = build("khaled-original", vals).to_float()
    m = [[1.0, 0.2, 0.0], [0.0, 1.0, -0.3], [0.1, 0.0, 1.0]]
    shift = (0.05, -0.1, 0.2)
    g = transform(fld, shift, m, 2.0)
    for lab, p in equilibria_catalog(vals):
        p = tuple(float(v) for v in p)
        # preimage of p under x = shift + m u
        import numpy as np

        u = np.linalg.solve(np.array(m), np.array(p) - np.array(shift))
        res = max(abs(v) for v in g.evaluate(tuple(u)))
        assert res < 1e-10


# --- parse_system ------------------------------------------------------------------------------


def _khaled_doc(backend="exact", params=None):
    return {
        "backend": backend,
        "params": params or {"a": None, "b": None, "c": None, "d": None},
        "state_vars": ["x", "y", "z"],
        "equations": [
            [
                {"exp": [1, 0, 0], "coeff": "-a"},
                {"exp": [0, 1, 0], "coeff": "a"},
                {"exp": [0, 1, 1], "coeff": "1"},
            ],
            [
                {"exp": [1, 0, 0], "coeff": "b"},
                {"exp": [0, 1, 0], "coeff": "c"},
                {"exp": [1, 0, 1], "coeff": "-1"},
            ],
            [
                {"exp": [0, 0, 1], "coeff": "-d"},
                {"exp": [1, 1, 0], "coeff": "1"},
                {"exp": [0, 0, 0], "coeff": "1"},
            ],
        ],
    }


def test_parse_system_matches_builtin():
    fld = parse_system(_khaled_doc())
    ref = build("khaled-original")
    # same parameter set up to ordering; compare after aligning rings
    assert set(fld.params) == set(ref.params)
    vals = {"a": F(2), "b": F(-1), "c": F(1, 3), "d": F(5)}
    pt = (F(1), F(2), F(3))
    got = parse_system(_khaled_doc(), vals).evaluate(pt)
    assert got == build("khaled-original", vals).evaluate(pt)
    assert got == tuple(v.evaluate(vals) for v in fld.evaluate(pt))


def test_parse_system_empty_equations_rejected():
    doc = _khaled_doc()
    doc["equations"][1] = []
    with pytest.raises(SchemaError):
        parse_system(doc)


def test_parse_system_sqrt_backend_rule():
    doc = {
        "backend": "exact",
        "params": {"c": None},
        "state_vars": ["x", "y", "z"],
        "equations": [
            [{"exp": [1, 0, 0], "coeff": "sqrt(c)"}],
            [{"exp": [0, 1, 0], "coeff": "1"}],
            [{"exp": [0, 0, 1], "coeff": "1"}],
        ],
    }
    with pytest.raises(SchemaError):
        parse_system(doc)
    doc["backend"] = "float"
    doc["params"] = {"c": 4}
    fld = parse_system(doc)
    assert fld.components[0].terms[(1, 0, 0)] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "backend,params",
    [("exact", None), ("float", {"a": 1, "b": 2, "c": 3, "d": 4})],
    ids=["exact", "float"],
)
def test_parse_system_unknown_parameter(backend, params):
    doc = _khaled_doc(backend, params)
    doc["equations"][0][0]["coeff"] = "-q"
    with pytest.raises(SchemaError, match="unknown parameter 'q'"):
        parse_system(doc)
