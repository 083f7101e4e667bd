"""Period expansion: series construction, isochronicity constants, obstructions."""

import cmath
import math
from fractions import Fraction

import pytest

from hopfcm.catalog import build, e4_normal, e5_normal
from hopfcm.errors import FocusObstruction
from hopfcm.focusq import report_for_field
from hopfcm.normalform import to_normal_form
from hopfcm.paramfield import GaussExpr, ParamExpr
from hopfcm.period import (
    isochronicity_constants,
    periodic_solution_series,
    polar_reduce,
)
from hopfcm.polysys import StatePoly, VectorField3

F = Fraction


def _center_nf(dval=None):
    fld = build("e1-center") if dval is None else build("e1-center", {"d": dval})
    return to_normal_form(fld, (F(0),) * 3)


def test_radial_forcing_vanishes_on_conserved_family():
    # u^2 + v^2 is a first integral, so the radial equation is identically 0
    red = polar_reduce(_center_nf(1))
    assert red.radial == {}


def test_radial_series_starts_at_second_order():
    comps = (
        StatePoly({(0, 1, 0): F(-1), (2, 0, 0): F(1)}),
        StatePoly({(1, 0, 0): F(1), (1, 1, 0): F(2)}),
        StatePoly({(0, 0, 1): F(-1)}),
    )
    nf = to_normal_form(VectorField3(comps), (F(0),) * 3)
    red = polar_reduce(nf)
    assert min(m for m, _ in red.radial) == 2


def test_linear_field_reduces_to_zero_tables():
    comps = (
        StatePoly({(0, 1, 0): F(-1)}),
        StatePoly({(1, 0, 0): F(1)}),
        StatePoly({(0, 0, 1): F(-3)}),
    )
    nf = to_normal_form(VectorField3(comps), (F(0),) * 3)
    red = polar_reduce(nf)
    assert red.radial == {} and red.angular == {} and red.transverse == {}


def test_transverse_forcing_present_for_center_family():
    # wdot = -d^2 w + d u v feeds the omega equation at first order
    red = polar_reduce(_center_nf(1))
    assert (1, 0) in red.transverse


def test_leading_radial_coefficient_is_one():
    sol = periodic_solution_series(_center_nf(1), 3)
    u0 = sol["u"][0]
    assert set(u0.terms) == {(0,)}


def test_higher_radial_coefficients_vanish_at_zero_angle():
    sol = periodic_solution_series(_center_nf(1), 4)
    for ui in sol["u"][1:]:
        at_zero = None
        for c in ui.terms.values():
            at_zero = c if at_zero is None else at_zero + c
        assert at_zero is None or not at_zero.real and not at_zero.imag


def test_transverse_coefficients_are_periodic_solutions():
    # v' = lam v + g has a unique trig-polynomial solution; residual check
    nf = _center_nf(1)
    sol = periodic_solution_series(nf, 3)
    lam = nf.lam
    # derivative of a Fourier polynomial: multiply each harmonic by i n
    def dtheta(tp):
        out = {}
        for (n,), c in tp.terms.items():
            out[(n,)] = c * GaussExpr(F(0), F(n))
        return StatePoly(out)

    # v_1 satisfies v' - lam v = g with g the first-order transverse forcing;
    # instead of rebuilding g, verify v_1 has no resonant constant term
    v1 = sol["v"][0]
    assert (0,) not in v1.terms or not lam
    assert set(dtheta(v1).terms) == set(v1.terms) - {(0,)}


def test_isochronicity_constants_symbolic():
    pe = isochronicity_constants(_center_nf(), 2)
    d = ParamExpr.var(("d",), "d")
    assert not pe.constants[0]
    assert pe.constants[1] == d**4 / (8 * (d**4 + 4))
    assert not pe.is_isochronous()


@pytest.mark.parametrize("dval,expected", [(1, F(1, 40)), (2, F(1, 10))])
def test_isochronicity_constant_values(dval, expected):
    pe = isochronicity_constants(_center_nf(dval), 2)
    assert pe.constants[0] == 0
    assert pe.constants[1] == expected


def test_odd_period_coefficients_vanish_through_order_five():
    pe = isochronicity_constants(_center_nf(1), 3)
    assert len(pe.odd_residuals) >= 3
    assert all(r == 0 for r in pe.odd_residuals)


def test_float_backend_matches_exact_constants():
    fld = build("e1-center", {"d": 1}).to_float()
    nf = to_normal_form(fld, (0.0, 0.0, 0.0))
    pe = isochronicity_constants(nf, 2)
    assert isinstance(pe.constants[1], float)
    assert pe.constants[0] == pytest.approx(0.0, abs=1e-12)
    assert pe.constants[1] == pytest.approx(1 / 40, rel=1e-10)


def test_focus_obstruction_on_first_focus_family():
    nf = to_normal_form(e4_normal({"c": 0.25, "h": 2.0}), (0.0, 0.0, 0.0))
    with pytest.raises(FocusObstruction) as exc:
        periodic_solution_series(nf, 4)
    assert exc.value.order == 3
    L1 = report_for_field(e4_normal({"c": 0.25, "h": 2.0}), 1).quantities[0]
    assert exc.value.value == pytest.approx(L1, rel=1e-9)
    assert exc.value.value < 0


def test_focus_obstruction_sign_on_second_focus_family():
    nf = to_normal_form(e5_normal({"c": -1.0, "h": 2.0}), (0.0, 0.0, 0.0))
    with pytest.raises(FocusObstruction) as exc:
        isochronicity_constants(nf, 2)
    assert exc.value.order == 3
    L1 = report_for_field(e5_normal({"c": -1.0, "h": 2.0}), 1).quantities[0]
    assert exc.value.value == pytest.approx(L1, rel=1e-9)
    assert exc.value.value > 0


def test_trig_poly_reality_closed_under_product():
    # c_{-n} = conj(c_n) inputs produce outputs with the same structure
    a = StatePoly({(1,): 0.5 + 0.25j, (-1,): 0.5 - 0.25j, (0,): 1.0 + 0j})
    b = StatePoly({(2,): -0.125j, (-2,): 0.125j})
    prod = a * b
    for (n,), c in prod.terms.items():
        assert prod.terms[(-n,)] == pytest.approx(c.conjugate())


def _complex(c):
    return complex(float(c.real), float(c.imag))


def _table_at(table, rho, theta, omega):
    total = 0j
    for (m, q), t in table.items():
        harmonics = sum(_complex(c) * cmath.exp(1j * n * theta) for (n,), c in t.terms.items())
        total += rho**m * omega**q * harmonics
    return total


@pytest.mark.parametrize(
    "nf",
    [
        to_normal_form(e4_normal({"c": 0.25, "h": 2.0}), (0.0, 0.0, 0.0)),
        to_normal_form(build("e1-normal", {"c": F(1, 3), "d": F(1, 2), "k": F(2)}), (F(0),) * 3),
    ],
    ids=["e4-normal", "e1-normal-bound"],
)
def test_polar_tables_match_the_cylindrical_field(nf):
    # the oracle evaluates P, Q, R at u = rho cos, v = rho sin, w = rho omega
    # directly, sharing no code with the complexified tables; a clockwise
    # frame is read turned: u = rho sin, v = rho cos, with P and Q traded
    red = polar_reduce(nf)
    P, Q, R = (poly.map_coeffs(float) for poly in (nf.P, nf.Q, nf.R))
    for rho in (0.3, 0.7):
        for theta in (0.4, 2.1, 5.0):
            for omega in (-0.8, 0.5):
                cos, sin = math.cos(theta), math.sin(theta)
                if nf.orientation == 1:
                    point = (rho * cos, rho * sin, rho * omega)
                    p, q, r = (poly.evaluate(point, 0.0) for poly in (P, Q, R))
                else:
                    point = (rho * sin, rho * cos, rho * omega)
                    q, p, r = (poly.evaluate(point, 0.0) for poly in (P, Q, R))
                radial = p * cos + q * sin
                expected = (radial, (q * cos - p * sin) / rho, (r - omega * radial) / rho)
                tables = (red.radial, red.angular, red.transverse)
                for table, value in zip(tables, expected):
                    got = _table_at(table, rho, theta, omega)
                    assert abs(got - value) <= 1e-12 * max(1.0, abs(value))


def _richer_center(extra_p=None):
    """udot = -v + v f, vdot = u - u f, wdot = -3/2 w + R: u^2 + v^2 is a
    first integral, so every radial forcing vanishes."""
    f = {(1, 0, 0): F(1, 2), (0, 1, 0): F(-1, 3), (0, 0, 1): F(2), (1, 1, 0): F(1, 5),
         (0, 0, 2): F(-1, 7)}
    P = {(0, 1, 0): F(-1), **{(i, j + 1, k): c for (i, j, k), c in f.items()}}
    Q = {(1, 0, 0): F(1), **{(i + 1, j, k): -c for (i, j, k), c in f.items()}}
    for e, c in (extra_p or {}).items():
        P[e] = P.get(e, 0) + c
    R = {(0, 0, 1): F(-3, 2), (1, 1, 0): F(1), (2, 0, 0): F(-1, 2), (0, 1, 1): F(1, 3),
         (1, 0, 1): F(2, 3), (0, 2, 0): F(1, 4)}
    fld = VectorField3((StatePoly(P), StatePoly(Q), StatePoly(R)))
    return to_normal_form(fld, (F(0),) * 3)


def test_richer_center_constants_are_pinned():
    pe = isochronicity_constants(_richer_center(), 3)
    assert pe.constants == [F(1, 72), F(-4115879, 23587200), F(7156249589, 25474176000)]
    assert pe.odd_residuals == [0, 0, 0]


def test_radial_term_turns_the_richer_center_into_a_focus():
    with pytest.raises(FocusObstruction) as exc:
        isochronicity_constants(_richer_center({(2, 0, 0): F(1, 3)}), 3)
    assert exc.value.order == 3
    assert exc.value.value == F(1, 8)


# --- Loud's quadratic isochrones ----------------------------------------------------------


def _loud(D, F_):
    """x' = -y + xy, y' = x + D x^2 + F y^2, w' = -w: Loud's quadratic
    centers (Loud 1964; Chavarriga & Sabatini, "A survey of isochronous
    centers", 1999) with a decoupled transverse direction."""
    comps = (
        StatePoly({(0, 1, 0): F(-1), (1, 1, 0): F(1)}),
        StatePoly({(1, 0, 0): F(1), (2, 0, 0): F(D), (0, 2, 0): F(F_)}),
        StatePoly({(0, 0, 1): F(-1)}),
    )
    return to_normal_form(VectorField3(comps), (F(0),) * 3)


@pytest.mark.parametrize("D, F_", [(0, 1), (F(-1, 2), 2), (0, F(1, 4)), (F(-1, 2), F(1, 2))])
def test_loud_isochrones_have_every_period_coefficient_zero(D, F_):
    # the independent oracle of the period series: T_1..T_8 all vanish
    exp = isochronicity_constants(_loud(D, F_), 4)
    assert exp.constants == [0] * 4 and exp.odd_residuals == [0] * 4
    assert exp.is_isochronous()


def test_loud_control_center_is_not_isochronous():
    # (D, F) = (1, 1) is a center outside Loud's list: T_1..T_4 in order
    exp = isochronicity_constants(_loud(1, 1), 2)
    series = [exp.odd_residuals[0], exp.constants[0], exp.odd_residuals[1], exp.constants[1]]
    assert series == [0, F(19, 24), F(19, 9), F(17209, 2304)]


# --- high orders, where a coefficient kept before it is final would show first ----------


def test_bound_center_constants_through_order_sixteen_are_pinned():
    exp = isochronicity_constants(_center_nf(1), 8)
    assert [str(c) for c in exp.constants] == [
        "0", "1/40", "0", "451/272000", "0", "4626297/34217600000",
        "0", "41682266959/3443659264000000",
    ]
    assert [str(c) for c in exp.odd_residuals] == ["0"] * 8


def test_symbolic_center_constants_through_order_eight_are_pinned():
    exp = isochronicity_constants(_center_nf(), 4)
    assert [str(c) for c in exp.constants] == [
        "0",
        "(1/8*d^4)/(d^4 + 4)",
        "0",
        "(3/128*d^16 + 5/8*d^12 + 23/8*d^8)/(d^16 + 28*d^12 + 240*d^8 + 832*d^4 + 1024)",
    ]
    assert [str(c) for c in exp.odd_residuals] == ["0"] * 4


def test_a_coefficient_past_the_order_is_refused_not_kept():
    # the angular table here is rho omega times a Fourier polynomial, so
    # Psi_5 needs u_3 and v_4, which an order-3 series has not solved for:
    # the request fails every time instead of keeping a provisional value
    sol = periodic_solution_series(_center_nf(1), 3)
    assert list(polar_reduce(_center_nf(1)).angular) == [(1, 1)]
    inv = sol["inv_theta"]
    assert inv[4] is inv[4]
    for _ in range(2):
        with pytest.raises(IndexError):
            inv[5]
