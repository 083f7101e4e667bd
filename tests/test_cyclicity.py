"""Cyclicity machinery: exact rank, reduction, line evaluation, bounds."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcm.catalog import (
    PERTURBATION_PARAMS,
    e1_center_perturbed,
    e1_normal,
    e1_normal_trace,
)
from hopfcm.cyclicity import (
    cyclicity_bound_line,
    cyclicity_bound_rank,
    evaluate_on_line,
    exact_rank,
    gradient_on_line,
    jacobian_rank,
    jet_focus_report,
    reduce_quantities,
)
from hopfcm.errors import BadPivots, TruncationTooLow
from hopfcm.paramfield import Jet, JetContext, ParamExpr, ParamPoly
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
    # d/dk of the published first quantity at the center is 2 d0
    P = ("c", "d", "k")
    c, d, k = (ParamExpr.var(P, n) for n in P)
    printed = d * (k**2 + 4 * c**2 - 1) + 2 * (k**2 + 1) * c + 2 * c * (2 * c**2 - 1) * d**2
    jac = jacobian_rank([printed], ("k", "c", "d"), point={"k": 1, "c": 0, "d": 2})
    assert jac.matrix[0] == [4, 2 * (1 + 1) + (-2) * 4, 0]


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
    rep = jet_focus_report(
        e1_normal(), {"k": 1, "c": 0, "d": d0}, ("k", "c", "d"), 1, 3
    )
    jac = jacobian_rank(rep.quantities, ("k", "c", "d"))
    assert jac.rank == 2
    assert all(row[2] == 0 for row in jac.matrix)
    assert all(x == 0 for x in jac.matrix[1])


def test_trace_bound_reaches_three():
    report = cyclicity_bound_rank(
        e1_normal_trace(),
        {"k": 1, "c": 0, "d": 1, "sigma": 0},
        ("k", "c", "d"),
        1,
        3,
        trace_declared=True,
    )
    assert report.total == 3
    assert report.trace_bonus and report.k == 2 and report.l == 0


def test_bound_without_quantities_is_trace_only():
    # the first quantity has no linear sigma-dependence in this
    # normalization, so rank 0 plus the declared trace yields one cycle
    report = cyclicity_bound_rank(
        e1_normal_trace(),
        {"k": 1, "c": 0, "d": 1, "sigma": 0},
        ("sigma",),
        1,
        1,
        trace_declared=True,
        trace_param="sigma",
    )
    assert report.rank == 0 and report.total == 1


# --- reduction pipeline ------------------------------------------------------------


@pytest.fixture(scope="module")
def perturbed_jets():
    return jet_focus_report(e1_center_perturbed(), {}, PERTURBATION_PARAMS, 2, 5)


def test_reduced_quantities_have_zero_linear_parts(perturbed_jets):
    quantities = perturbed_jets.quantities
    h_forms, details = reduce_quantities(quantities, ("a011", "a101", "b011"))
    ctx = quantities[0].ctx
    piv = {ctx.names.index(p) for p in ("a011", "a101", "b011")}
    for h in h_forms:
        assert not h.homogeneous_part(1)
        assert all(i not in piv for m in h.terms for i, _ in m)


def test_reduction_combination_coefficients_are_consistent(perturbed_jets):
    quantities = perturbed_jets.quantities
    _, details = reduce_quantities(quantities, ("a011", "a101", "b011"))
    combos = details["combinations"]
    rng = random.Random(5)
    ctx = quantities[0].ctx
    for j, coeffs in combos.items():
        reduced = quantities[j]
        for r in range(3):
            reduced = reduced - ctx.const(coeffs[r]) * quantities[r]
        assert not reduced.homogeneous_part(1)


def test_pivot_locus_substitution_matches_direct_evaluation(perturbed_jets):
    """On the locus where the leading linear parts vanish, the h forms agree
    with the reduced quantities' quadratic parts evaluated directly."""
    quantities = perturbed_jets.quantities
    h_forms, details = reduce_quantities(quantities, ("a011", "a101", "b011"))
    ctx = quantities[0].ctx
    names = ctx.names
    substitution = details["substitution"]
    rng = random.Random(17)

    def eval_jet(q, assign):
        total = F(0)
        for mono, c in q.terms.items():
            prod = c
            for i, e in mono:
                prod *= assign[i] ** e
            total += prod
        return total

    for _ in range(5):
        assign = {i: F(rng.randint(-3, 3), rng.randint(1, 3)) for i in range(len(names))}
        # impose the locus: pivot values are the linear solves in the rest
        for piv, lin_form in substitution.items():
            assign[piv] = sum((c * assign[r] for r, c in lin_form.items()), F(0))
        for h, j in zip(h_forms, (3, 4)):
            reduced = quantities[j]
            for r, coeff in enumerate(details["combinations"][j]):
                reduced = reduced - ctx.const(coeff) * quantities[r]
            quad = reduced.homogeneous_part(2)
            assert eval_jet(h, assign) == eval_jet(quad, assign)


def test_identity_reduction_with_no_pivots():
    # with no leading quantities the reduction passes quadratic parts through
    ctx = JetContext(("x", "y"), 2)
    q = 3 * ctx.eps("x") * ctx.eps("y") + ctx.eps("y") * ctx.eps("y")
    h_forms, _ = reduce_quantities([q], ())
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
    h_forms, _ = reduce_quantities(perturbed_jets.quantities, ("a011", "a101", "b011"))
    line = {"b200": F(1), "c101": F(-252889, 66891)}
    double = {k: 2 * v for k, v in line.items()}
    vals = evaluate_on_line(h_forms, line)
    vals2 = evaluate_on_line(h_forms, double)
    for (v, deg), (w, deg2) in zip(vals, vals2):
        assert deg2 == deg or (v == 0 and w == 0)
        if deg is not None:
            assert w == v * 4  # quadratic forms scale with the square
    zeros = evaluate_on_line(h_forms, {})
    assert all(v == 0 for v, _ in zeros)
    # transversality verdict invariant under rescaling of the free parameter
    g1 = gradient_on_line(h_forms[0], line)
    g2 = gradient_on_line(h_forms[0], double)
    assert (any(x != 0 for x in g1)) == (any(x != 0 for x in g2))


def test_gradient_on_line_matches_the_polynomial_derivative(perturbed_jets):
    """The jet gradient of the teo5 forms on the eta line equals the
    ParamPoly derivative at the line point, which shares no code with jets."""
    h_forms, _ = reduce_quantities(perturbed_jets.quantities, TEO5_PIVOTS)
    names = h_forms[0].ctx.names
    point = {p: ETA_LINE.get(p, F(0)) for p in names}
    for h in h_forms:
        dense = {}
        for mono, c in h.terms.items():
            e = [0] * len(names)
            for i, ex in mono:
                e[i] = ex
            dense[tuple(e)] = c
        poly = ParamPoly(names, dense)
        assert gradient_on_line(h, ETA_LINE) == [
            poly.derivative(p).evaluate(point) for p in names
        ]
    assert any(gradient_on_line(h_forms[0], ETA_LINE))


def test_full_quadratic_perturbation_bound(perturbed_jets):
    line = {"b200": F(1), "c101": F(-252889, 66891)}
    report = cyclicity_bound_line(
        e1_center_perturbed(), {}, PERTURBATION_PARAMS, 5,
        ("a011", "a101", "b011"), line,
    )
    assert (report.k, report.l, report.total) == (3, 2, 5)
    assert report.rank == 3
