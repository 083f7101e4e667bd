"""Cyclicity machinery: exact rank, reduction, line evaluation, bounds."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcm.catalog import PERTURBATION_PARAMS
from hopfcm import cyclicity, verify
from hopfcm.cyclicity import (
    cyclicity_bound,
    exact_rank,
    form_on_line,
    jacobian_rank,
    jet_focus_report,
    reduce_quantities,
)
from hopfcm.errors import BadPivots, TruncationTooLow
from hopfcm.paramfield import Jet, JetContext
from hopfcm.verify import ETA_LINE, TEO5_PIVOTS

F = Fraction


# --- exact rank ----------------------------------------------------------------


def test_exact_rank_known_matrix():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    rank, pivots = exact_rank(m)
    assert rank == 2 and pivots == (0, 1)


def test_rank_of_zero_rows_is_zero():
    assert exact_rank([[0, 0], [0, 0]])[0] == 0


_entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(_entries, min_size=4, max_size=4), min_size=3, max_size=3),
       st.lists(_entries.filter(lambda x: x != 0), min_size=3, max_size=3))
def test_rank_invariant_under_row_scaling(rows, scales):
    base, _ = exact_rank(rows)
    scaled = [[s * x for x in row] for s, row in zip(scales, rows)]
    assert exact_rank(scaled)[0] == base


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(_entries, min_size=3, max_size=3), min_size=3, max_size=3))
def test_rank_invariant_under_invertible_reparametrization(rows):
    rng = random.Random(11)
    while True:
        m = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        if exact_rank(m)[0] == 3:
            break
    # columns transform by an invertible matrix
    mixed = [
        [sum(row[k] * m[k][j] for k in range(3)) for j in range(3)] for row in rows
    ]
    assert exact_rank(mixed)[0] == exact_rank(rows)[0]


# --- jet Jacobians -----------------------------------------------------------------


def test_symbolic_and_jet_jacobians_agree():
    """L1 of e1-normal is printed(k, c, d) d^3 / clearing(k, c, d), and the
    printed form vanishes at (1, 0, d0), so there the degree-1 jet gradient
    of L1 is the symbolic gradient of the printed form times
    d0^3 / clearing(1, 0, d0), with clearing = 4k(c^2d^2 + k^2)(d^4 + 4k^2)."""
    c, d, k = sympy.symbols("c d k")
    printed = d * (k**2 + 4 * c**2 - 1) + 2 * (k**2 + 1) * c + 2 * c * (2 * c**2 - 1) * d**2
    small = ("k", "c", "d")
    for d0 in (F(1, 2), F(1), F(2), F(-3)):
        point = {"k": F(1), "c": F(0), "d": d0}
        L1 = jet_focus_report("e1-normal", point, small, 1, 1).quantities[0]
        scale = d0**3 / (4 * (d0**4 + 4))
        at = {k: 1, c: 0, d: sympy.Rational(d0.numerator, d0.denominator)}
        want = [F(str(sympy.diff(printed, p).subs(at))) * scale for p in (k, c, d)]
        assert jacobian_rank([L1], small).matrix[0] == want


def test_all_zero_quantities_have_rank_zero():
    ctx = JetContext(("x", "y"), 1)
    jac = jacobian_rank([ctx.zero(), ctx.zero()], ("x", "y"))
    assert jac.rank == 0


@pytest.mark.parametrize("d0", [F(1, 2), F(1), F(2)])
def test_center_line_jacobian_rank_is_two(d0):
    """The d-column vanishes (the d-line lies in the center variety) and the
    second quantity's gradient vanishes (it is zero on c = 0 and O(c^2)
    across it), so the rank is exactly two; the acceptance test of
    criterion 6 refutes the stated rank 3 and certifies this rank without
    the jet code."""
    rep = jet_focus_report("e1-normal", {"k": 1, "c": 0, "d": d0}, ("k", "c", "d"), 1, 3)
    jac = jacobian_rank(rep.quantities, ("k", "c", "d"))
    assert jac.rank == 2
    assert all(row[2] == 0 for row in jac.matrix)
    assert all(x == 0 for x in jac.matrix[1])


def test_trace_bound_reaches_three():
    """The bound of e1-normal-trace at sigma = 0 is that of e1-normal, on
    which the teo4 config runs, with the declared trace."""
    small = ("k", "c", "d")
    reports = [
        cyclicity_bound(jet_focus_report(name, point, small, 1, 3).quantities, small, True)
        for name, point in (
            ("e1-normal-trace", {"k": 1, "c": 0, "d": 1, "sigma": 0}),
            ("e1-normal", {"k": 1, "c": 0, "d": 1}),
        )
    ]
    report = reports[0]
    assert report.total == 3
    assert report.trace_bonus and report.k == 2 and report.l == 0
    assert reports[1] == report


def test_the_bound_refuses_a_quantity_that_does_not_vanish_at_the_point():
    """Off the center line (c = 1/10) L1 is nonzero at the expansion point,
    a focus, so no bound is counted there; on the line L1 gives k = 1."""
    small = ("k", "c", "d")
    point = {"k": 1, "c": F(1, 10), "d": 1}
    quantities = jet_focus_report("e1-normal", point, small, 1, 2).quantities
    with pytest.raises(BadPivots, match=r"^L1 = 61/5050 at the expansion point.*at a center"):
        cyclicity_bound(quantities, small)
    on_line = jet_focus_report("e1-normal", {"k": 1, "c": 0, "d": 1}, small, 1, 1).quantities
    assert cyclicity_bound(on_line, small).k == 1


def test_the_teo4_claim_builds_each_jet_set_once(monkeypatch):
    """One jet_focus_report per base point d0, through either module's name."""
    calls = []

    def counted(*args):
        calls.append(args)
        return jet_focus_report(*args)

    for module in (cyclicity, verify):
        monkeypatch.setattr(module, "jet_focus_report", counted)
    verify.claim_teo4_cyclicity()
    assert len(calls) == 3


# --- reduction pipeline ------------------------------------------------------------


@pytest.fixture(scope="module")
def perturbed_jets():
    return jet_focus_report("e1-center-perturbed", {}, PERTURBATION_PARAMS, 2, 5)


def test_reduced_quantities_have_zero_linear_parts(perturbed_jets):
    quantities = perturbed_jets.quantities
    h_forms = reduce_quantities(quantities, ("a011", "a101", "b011"))
    ctx = quantities[0].ctx
    piv = {ctx.names.index(p) for p in ("a011", "a101", "b011")}
    for h in h_forms:
        assert not h.homogeneous_part(1)
        assert all(i not in piv for m in h.terms for i, _ in m)


def _det(m):
    if not m:
        return F(1)
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def _solve(a, b):
    """a x = b by Cramer's rule: no code shared with the library's elimination."""
    d = _det(a)
    return [
        _det([row[:i] + [v] + row[i + 1:] for row, v in zip(a, b)]) / d
        for i in range(len(a))
    ]


def _linear_route(quantities, pivots):
    """The h forms by the route the pivot series replaces: subtract from each
    later quantity the combination of L_1..L_k that matches its linear part,
    put in the pivots' linear solution on the locus, read the degree-2 part."""
    ctx = quantities[0].ctx
    names, k = ctx.names, len(pivots)
    lin = [q.linear_coefficients() for q in quantities]
    cols = [names.index(p) for p in pivots]
    block = [[lin[r][c] for c in cols] for r in range(k)]
    on_locus = {p: ctx.zero() if p in pivots else ctx.eps(p) for p in names}
    for i, name in enumerate(names):
        if i not in cols:
            for p, v in zip(pivots, _solve(block, [-lin[r][i] for r in range(k)])):
                on_locus[p] = on_locus[p] + v * ctx.eps(name)
    forms = []
    for j in range(k, len(quantities)):
        coeffs = _solve([list(col) for col in zip(*block)], [lin[j][c] for c in cols])
        reduced = quantities[j] - sum(c * q for c, q in zip(coeffs, quantities))
        assert not reduced.homogeneous_part(1)
        forms.append(ctx.zero() + reduced.homogeneous_part(2).evaluate(on_locus))
    return forms


def test_series_forms_match_the_linear_substitution_route(perturbed_jets):
    """At degree 2 the forms on the pivot series are exactly those of the
    combinations and the linear pivot solution."""
    quantities = perturbed_jets.quantities
    h_forms = reduce_quantities(quantities, TEO5_PIVOTS)
    assert len(h_forms) == 2 and all(h_forms)
    assert h_forms == _linear_route(quantities, TEO5_PIVOTS)


@pytest.fixture(scope="module")
def perturbed_jets_degree_3():
    return jet_focus_report("e1-center-perturbed", {}, PERTURBATION_PARAMS, 3, 5)


def test_degree_3_jets_give_the_degree_2_line_analysis(perturbed_jets, perturbed_jets_degree_3):
    """The pivot series carries the quadratic corrections of a degree-3 jet,
    and the degree-2 parts on the locus are the degree-2 forms."""
    deg3 = perturbed_jets_degree_3.quantities
    forms3 = reduce_quantities(deg3, TEO5_PIVOTS)
    forms2 = reduce_quantities(perturbed_jets.quantities, TEO5_PIVOTS)
    assert [h.terms for h in forms3] == [h.terms for h in forms2]
    r3 = cyclicity_bound(deg3, PERTURBATION_PARAMS, pivots=TEO5_PIVOTS, line=ETA_LINE)
    r2 = cyclicity_bound(
        perturbed_jets.quantities, PERTURBATION_PARAMS, pivots=TEO5_PIVOTS, line=ETA_LINE
    )
    assert (r3.k, r3.l, r3.h_on_eta) == (r2.k, r2.l, r2.h_on_eta)
    assert (r3.k, r3.l, r3.total) == (3, 2, 5)


@pytest.mark.parametrize(
    "parallel,line,l",
    [(True, {"x": 1, "y": 1}, 0), (False, {"x": 1, "y": 1, "z": 1}, 3)],
    ids=["parallel-gradients", "independent-gradients"],
)
def test_transversality_needs_independent_gradients(parallel, line, l):
    """h1 = x^2 - y^2 and h2 vanish on the line and x^2 does not.  On
    x = y = 1, h2 = 2 h1 + z^2 has the gradient (4, -4, 0), parallel to h1's
    (2, -2, 0), and nothing is certified; on x = y = z = 1, h2 = z^2 - x^2
    has (-2, 0, 2), independent of h1's, and the three forms give 3."""
    ctx = JetContext(("x", "y", "z"), 2)
    x, y, z = (ctx.eps(n) for n in ctx.names)
    h1 = x * x - y * y
    h2 = 2 * h1 + z * z if parallel else z * z - x * x
    report = cyclicity_bound([h1, h2, x * x], ctx.names, line=line)
    assert [v for v, _ in report.h_on_eta] == [0, 0, 1]
    assert (report.k, report.l, report.total) == (0, l, l)
    assert ("transversality failed along the line" in report.notes) == parallel


def test_identity_reduction_with_no_pivots():
    # with no leading quantities the reduction passes quadratic parts through
    ctx = JetContext(("x", "y"), 2)
    q = 3 * ctx.eps("x") * ctx.eps("y") + ctx.eps("y") * ctx.eps("y")
    h_forms = reduce_quantities([q], ())
    assert h_forms == [q]


def test_reduction_rejects_unreducible_linear_part(perturbed_jets):
    with pytest.raises(BadPivots):
        reduce_quantities(perturbed_jets.quantities[:1], ())


def test_bad_pivots_rejected(perturbed_jets):
    with pytest.raises(BadPivots):
        reduce_quantities(perturbed_jets.quantities, ("c200", "c110", "c020"))


def test_truncation_guard():
    ctx = JetContext(("x",), 2)
    with pytest.raises(TruncationTooLow):
        (ctx.eps("x") * ctx.eps("x")).homogeneous_part(3)


def test_line_evaluation_scaling_and_zero_line(perturbed_jets):
    h_forms = reduce_quantities(perturbed_jets.quantities, ("a011", "a101", "b011"))
    line = {"b200": F(1), "c101": F(-252889, 66891)}
    double = {k: 2 * v for k, v in line.items()}
    for h in h_forms:
        v, deg, g1 = form_on_line(h, line)
        w, deg2, g2 = form_on_line(h, double)
        assert deg2 == deg or (v == 0 and w == 0)
        if deg is not None:
            assert w == v * 4  # quadratic forms scale with the square
        assert g2 == [2 * x for x in g1]  # and their gradients linearly
        assert form_on_line(h, {})[0] == 0
    # transversality verdict invariant under rescaling of the free parameter
    g1, g2 = (form_on_line(h_forms[0], point)[2] for point in (line, double))
    assert (any(x != 0 for x in g1)) == (any(x != 0 for x in g2))


def test_form_on_line_matches_the_polynomial_at_the_line_point(perturbed_jets):
    """The value and the gradient of the teo5 forms at the eta line point
    equal sympy's evaluation and derivative of the polynomial there, which
    share no code with jets; both forms have degree 2 on the line."""
    h_forms = reduce_quantities(perturbed_jets.quantities, TEO5_PIVOTS)
    names = h_forms[0].ctx.names
    symbols = sympy.symbols(names)
    at = {s: sympy.Rational(str(ETA_LINE.get(p, 0))) for s, p in zip(symbols, names)}
    for h in h_forms:
        poly = sum(
            sympy.Rational(str(c)) * sympy.Mul(*(symbols[i] ** ex for i, ex in mono))
            for mono, c in h.terms.items()
        )
        value, degree, gradient = form_on_line(h, ETA_LINE)
        assert value == F(str(poly.subs(at)))
        assert degree == 2
        assert gradient == [F(str(sympy.diff(poly, s).subs(at))) for s in symbols]
    assert form_on_line(h_forms[0], ETA_LINE)[0] == 0
    assert any(form_on_line(h_forms[0], ETA_LINE)[2])


def test_form_with_no_monomial_on_the_line_has_no_degree():
    """x y + z^2 has no monomial in x alone: on the line x = t (and with y
    listed as 0) its value is 0, its degree None, and its gradient at
    (1, 0, 0) is (y, x, 2 z) = (0, 1, 0)."""
    ctx = JetContext(("x", "y", "z"), 2)
    x, y, z = (ctx.eps(n) for n in ctx.names)
    for line in ({"x": 1}, {"x": 1, "y": 0}):
        assert form_on_line(x * y + z * z, line) == (0, None, [0, 1, 0])


def test_line_name_outside_the_small_parameters_is_refused():
    ctx = JetContext(("x", "y"), 2)
    with pytest.raises(ValueError, match=r"\['w'\] are not small parameters"):
        form_on_line(ctx.eps("x") * ctx.eps("y"), {"x": 1, "w": 1})


def test_full_quadratic_perturbation_bound(perturbed_jets):
    line = {"b200": F(1), "c101": F(-252889, 66891)}
    report = cyclicity_bound(
        perturbed_jets.quantities, PERTURBATION_PARAMS,
        pivots=("a011", "a101", "b011"), line=line,
    )
    assert (report.k, report.l, report.total) == (3, 2, 5)
    assert report.rank == 3
