"""Acceptance suite: the nine headline criteria, one pass/fail line each.

Every criterion runs at its stated tolerance through the named verification
claims, so the same checks are reproducible from the command line via
``hopfcm verify --claim <id>``.

Criterion 6's rank clause is checked at the rank that holds.  The stated
Jacobian rank 3 of the first three quantities with respect to (k, c, d) on
the line {k = 1, c = 0} is refuted: at k = 1, c = 0 the normal form is the
center family e1-center for every d (criterion 2), so every d-partial
vanishes on the line.  The exact rank is 2, certified without trusting the
jet code: the second quantity vanishes on the plane c = 0 and is
quadratic in c across it, so its row is zero, and the (k, c) minor of the
first and third rows is non-zero.  The ``teo4-cyclicity`` claim reports
``passed: false`` against the stated rank 3; the bound 3 comes from rank 2
plus the trace and is asserted by the companion test.
"""

from fractions import Fraction as F

import pytest
import sympy

from hopfcm import catalog, verify
from hopfcm.focusq import report_for_field


def _report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {status} criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def teo4_result():
    return verify.claim_teo4_cyclicity()


@pytest.fixture(scope="module")
def teo5_result():
    return verify.claim_teo5_cyclicity()


def test_criterion_1_hopf_characterization():
    res = verify.claim_teo1_hopf()
    _report(1, res["passed"], "Hopf iff a=c and (1+cd)(1-bd)-c^2d^2>0; "
                              "eigenvalues +/-(k/d)i, -d under the k-form")
    assert res["passed"], res


def test_criterion_2_center_certificate():
    res = verify.claim_teo1_center()
    _report(2, res["passed"], f"first integral and L1..L3 = {res['quantities']}")
    assert res["passed"], res


def test_criterion_3_printed_first_quantity():
    res = verify.claim_teo1_l1()
    _report(3, res["passed"], f"zero set + sign on d>0; unit scale after "
                              f"clearing {res['clearing_factor']}")
    assert res["passed"], res


def test_criterion_4_focus_families():
    res = verify.claim_teo2_foci()
    worst = max(r["rel"] for r in res["rows"])
    _report(4, res["passed"], f"six points, worst relative defect {worst:.2e}")
    assert res["passed"], res


def test_criterion_5_isochronicity():
    res = verify.claim_teo1_isochronous()
    _report(5, res["passed"], f"T2=0, |T4|=d^4/(8(d^4+4)); period fits "
                              f"{[f'{f:.6f}' for f in res['fits']]} (extended)")
    assert res["passed"], res


# L1 row (dL1/dk, dL1/dc) at (1, 0, d0) from the published closed form:
# d^4 / (2(d^4 + 4)) and d^3 (2 - d^2) / (2(d^4 + 4))
PUBLISHED_L1_ROWS = {
    F(1, 2): (F(1, 130), F(7, 260)),
    F(1): (F(1, 10), F(1, 10)),
    F(2): (F(2, 5), F(-2, 5)),
}


def _quantities_in(name, bound, var):
    """L1..L3 of the built-in ``name`` with every parameter but ``var``
    bound, as sympy rational functions of the symbol ``var`` (read from the
    printed form)."""
    quantities = report_for_field(catalog.build(name, bound), 3).quantities
    return [sympy.sympify(str(q).replace("^", "**"), locals={var.name: var}) for q in quantities]


def test_criterion_6_rank_as_stated(teo4_result):
    """Rank of d(L1, L2, L3)/d(k, c, d) on the center line: 3 is refuted and
    2 is certified by checks that do not go through the jet code.

    Rank <= 2: e1-normal at k = 1, c = 0 is e1-center, a center for every d,
    so the d-column is zero.  Rank >= 2: the L2 row is zero and the (k, c)
    minor of the L1 and L3 rows is non-zero.  The L1 row is the derivative of
    the published closed form; every row is the exact derivative of the
    quantities computed in k alone (c = 0) and in c alone (k = 1).
    """
    res = teo4_result
    d0s = tuple(PUBLISHED_L1_ROWS)
    checks = {
        "e1-normal(k=1, c=0) is e1-center": (
            catalog.build("e1-normal", {"k": 1, "c": 0}).components
            == catalog.build("e1-center").components
        ),
        "e1-center certified": verify.claim_teo1_center()["passed"],
        "passed iff computed = stated and bound": res["passed"] == (
            all(r == res["stated_rank"] for r in res["computed_ranks"].values())
            and res["bound_ok"]
        ),
        "computed ranks 2": res["computed_ranks"] == {str(d0): 2 for d0 in d0s},
    }
    k, c, d = sympy.symbols("k c d")
    published = verify._printed_L1(c, d, k) * d**3 / verify._clearing_e1(c, d, k)
    for d0 in d0s:
        jac = [[F(x) for x in row] for row in res["matrices"][str(d0)]]
        at = {k: 1, c: 0, d: sympy.Rational(d0.numerator, d0.denominator)}
        derivative = tuple(F(str(sympy.diff(published, p).subs(at))) for p in (k, c))
        closed = (d0**4 / (2 * (d0**4 + 4)), d0**3 * (2 - d0**2) / (2 * (d0**4 + 4)))
        checks[f"{d0}: L1 row = published"] = (
            tuple(jac[0][:2]) == derivative == closed == PUBLISHED_L1_ROWS[d0]
        )
        checks[f"{d0}: zero d-column"] = [row[2] for row in jac] == [0, 0, 0]
        checks[f"{d0}: zero L2 row"] = jac[1] == [0, 0, 0]
        checks[f"{d0}: (k, c) minor of L1, L3"] = (
            jac[0][0] * jac[2][1] - jac[0][1] * jac[2][0] != 0
        )
        in_k = _quantities_in("e1-normal", {"c": 0, "d": d0}, k)
        in_c = _quantities_in("e1-normal", {"k": 1, "d": d0}, c)
        # the d-column is zero because the whole line is a center
        rows = [
            [F(str(sympy.diff(q, k).subs(k, 1))), F(str(sympy.diff(p, c).subs(c, 0))), 0]
            for q, p in zip(in_k, in_c)
        ]
        checks[f"{d0}: exact derivatives"] = rows == jac
        # why the L2 row is zero: L2 vanishes on c = 0 and is quadratic in c
        num, den = sympy.fraction(sympy.cancel(in_c[1]))
        checks[f"{d0}: L2 = O(c^2)"] = (
            in_k[1] == 0 and sympy.rem(num, c**2, c) == 0 and den.subs(c, 0) != 0
        )
    ok = all(checks.values())
    _report(
        6,
        ok,
        f"stated rank 3 refuted (zero d-column: the line lies in the center "
        f"variety); exact rank 2 at d0 in {{1/2, 1, 2}} (zero L2 row, non-zero "
        f"(k, c) minor of L1, L3); claim passed={res['passed']}",
    )
    assert ok, [name for name, good in checks.items() if not good]


def test_criterion_6_bound_with_trace(teo4_result):
    res = teo4_result
    ok = res["bound_ok"] and res["rank_is_two_exactly"]
    _report("6b", ok, f"bound = 3 with trace bonus at d0 in {{1/2, 1, 2}}; "
                      f"exact rank 2 with zero d-column")
    assert ok, res


def test_criterion_7_quadratic_perturbation(teo5_result):
    res = teo5_result
    _report(
        7,
        res["passed"],
        f"rank(L1..L9)={res['rank_L1_L9']}, scales={set(res['per_quantity_scales'].values())}, "
        f"h4(eta)={res['h4_on_line']}, h5(eta)={res['h5_on_line']}, bound={res['bound']}",
    )
    assert res["passed"], res


def test_criterion_8_displacement_crosscheck():
    res = verify.claim_lyapunov_crosscheck()
    worst = max(r["rel"] for r in res["rows"])
    _report(8, res["passed"], f"dbar/rho0^3 vs pi L1, worst rel {worst:.2e}; "
                              f"sign match on the unperturbed family")
    assert res["passed"], res


def test_criterion_9_conservation_and_exports(tmp_path):
    res = verify.claim_conservation(out_dir=str(tmp_path))
    _report(9, res["passed"], f"drift {res['drift']:.2e}; "
                              f"{len(res['artifacts'])} artifacts")
    assert res["passed"], res
    assert len(res["artifacts"]) == 10
