"""Normal-form reduction: validation, orientation, round trips."""

import random
from fractions import Fraction

import numpy as np
import pytest

from hopfcm.catalog import build, e4m, e4_normal
from hopfcm.errors import BadTransform, NotHopf, SingularTransform
from hopfcm.focusq import complexify, focus_quantities
from hopfcm.normalform import roundtrip_defect, to_normal_form
from hopfcm.paramfield import FLOAT_TOL, ParamExpr
from hopfcm.polysys import StatePoly, VectorField3, transform

F = Fraction
P = ("c", "d", "k")


def _zero3(params=P):
    z = ParamExpr.zero(params)
    return (z, z, z)


def _eigen_matrix():
    c, d, k = (ParamExpr.var(P, n) for n in P)
    zero, one = ParamExpr.zero(P), ParamExpr.one(P)
    den = c**2 * d**2 + k**2
    return [
        [k * (c * d + 1) / den, c * d * (c * d + 1) / den, zero],
        [zero, one, zero],
        [zero, zero, one],
    ]


def test_already_normal_system_validates_with_identity():
    nf = to_normal_form(build("e1-normal"), _zero3())
    d, k = ParamExpr.var(P, "d"), ParamExpr.var(P, "k")
    assert nf.lam == -(d**2) / k
    assert nf.orientation == -1
    for part in (nf.P, nf.Q, nf.R):
        assert min(map(sum, part.terms)) >= 2


def test_shifted_system_reduces_to_printed_normal_form():
    d, k = ParamExpr.var(P, "d"), ParamExpr.var(P, "k")
    nf = to_normal_form(
        build("e1-shifted"), _zero3(), matrix=_eigen_matrix(), time_scale=k / d
    )
    ref = build("e1-normal")
    for got, want in zip(nf.field.components, ref.components):
        assert not got - want
    assert roundtrip_defect(nf, build("e1-shifted")) == 0


def test_clockwise_normal_form_keeps_its_frame():
    nf = to_normal_form(build("e1-normal"), _zero3())
    assert nf.orientation == -1
    # clockwise frame as reduced, u and v not swapped: udot = v + nonlinear
    lin = nf.field.jacobian_at(_zero3())
    assert lin[0][1] == 1 and lin[1][0] == -1
    assert roundtrip_defect(nf, build("e1-normal")) == 0


def test_nonconstant_rotation_requires_explicit_time_scale():
    with pytest.raises(BadTransform):
        to_normal_form(build("e1-shifted"), _zero3(), matrix=_eigen_matrix())


def test_zero_time_scale_rejected():
    exact, numeric = build("e1-normal"), e4_normal({"c": 0.25, "h": 2.0})
    for fld, point in ((exact, _zero3()), (numeric, (0.0, 0.0, 0.0))):
        with pytest.raises(SingularTransform):
            to_normal_form(fld, point, time_scale=point[0] * 0)


def test_float_eigenbasis_path():
    nf = to_normal_form(e4m({"c": 0.25, "h": 2.0}), (0.0, 0.0, 0.0))
    assert nf.orientation == 1
    assert nf.lam == pytest.approx(0.1781741612749496, rel=1e-10)
    assert roundtrip_defect(nf, e4m({"c": 0.25, "h": 2.0})) < 1e-9


def test_one_float_coefficient_makes_a_float_field_whatever_comes_first():
    floats = e4m({"c": 0.25, "h": 2.0})
    p, q, r = floats.components
    # the same field with its first-listed coefficient c = 1/4 as a Fraction
    rest = {e: v for e, v in p.terms.items() if e != (1, 0, 0)}
    mixed_p = StatePoly({(1, 0, 0): F(1, 4), **rest})
    assert isinstance(next(iter(mixed_p.terms.values())), Fraction)
    mixed = VectorField3((mixed_p, q, r))
    assert isinstance(mixed.zero, float)
    nf = to_normal_form(mixed, (F(0),) * 3)
    want = to_normal_form(floats, (0.0, 0.0, 0.0))
    # the numeric eigenbasis, not the identity of the exact path
    assert nf.matrix == want.matrix
    assert nf.lam == pytest.approx(want.lam, rel=1e-12)
    for got, ref in zip(nf.field.components, want.field.components):
        assert set(got.terms) == set(ref.terms)
        assert all(got.terms[e] == pytest.approx(ref.terms[e], abs=1e-12) for e in ref.terms)


def test_float_prebuilt_normal_form_orientation():
    fld = e4_normal({"c": 0.25, "h": 2.0})
    identity = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    nf = to_normal_form(fld, (0.0, 0.0, 0.0), matrix=identity)
    assert nf.orientation == -1  # clockwise frame as built
    # the automatic eigenbasis lands in the counterclockwise frame
    auto = to_normal_form(fld, (0.0, 0.0, 0.0))
    assert auto.orientation == 1


def test_not_an_equilibrium_rejected():
    fld = build("khaled-original", {"a": 1, "b": 0, "c": 1, "d": 1})
    with pytest.raises(NotHopf):
        to_normal_form(fld, (F(1), F(1), F(1)))


def test_non_hopf_equilibrium_rejected():
    fld = build("khaled-original", {"a": 2, "b": 0, "c": 1, "d": 1})
    with pytest.raises(NotHopf):
        to_normal_form(fld, (F(0), F(0), F(1)))


def test_bad_matrix_rejected():
    fld = build("e1-normal", {"c": 0, "d": 1, "k": 1})
    bad = [
        [F(1), F(1), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]
    with pytest.raises(BadTransform):
        to_normal_form(fld, (F(0), F(0), F(0)), matrix=bad, time_scale=F(1))


def test_degenerate_transverse_eigenvalue_rejected():
    comps = (
        StatePoly({(0, 1, 0): F(-1), (2, 0, 0): F(1)}),
        StatePoly({(1, 0, 0): F(1)}),
        StatePoly({(1, 1, 0): F(1)}),  # lam = 0
    )
    with pytest.raises(NotHopf):
        to_normal_form(VectorField3(comps), (F(0),) * 3)


def _moved(fld, rng):
    """fld in coordinates x = shift + M y with time rescaled by tau > 0, and
    the image there of its equilibrium at the origin."""
    while True:
        m = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)]
        if abs(np.linalg.det(m)) > 0.1:
            break
    shift = [rng.uniform(-1, 1) for _ in range(3)]
    moved = transform(fld, shift, m, rng.uniform(0.5, 2.0))
    return moved, m, [float(y) for y in np.linalg.solve(m, [-s for s in shift])]


def _plane_vector(nf):
    """The +i omega eigenvector Re v + i Im v from the basis (Im v, Re v, a)."""
    return np.array([complex(row[1], row[0]) for row in nf.matrix])


@pytest.mark.parametrize(
    "fld",
    [e4_normal({"c": 0.25, "h": 2.0}), build("e1-normal", {"c": "1/10", "d": 1, "k": 1}).to_float()],
    ids=["e4-normal", "e1-normal"],
)
def test_float_eigenbasis_of_moved_fields(fld):
    ref_nf = to_normal_form(fld, (0.0, 0.0, 0.0))
    ref = focus_quantities(complexify(ref_nf), 2).quantities
    # the second move of seed 1 takes e4-normal to an equilibrium whose
    # residual is 3.7e-13
    for seed in (1, 5):
        rng = random.Random(seed)
        for _ in range(4):
            moved, m, point = _moved(fld, rng)
            nf = to_normal_form(moved, point)
            lin = nf.field.jacobian_at((0.0, 0.0, 0.0))
            want = [[0, -1, 0], [1, 0, 0], [0, 0, ref_nf.lam]]
            assert np.max(np.abs(np.subtract(lin, want))) <= FLOAT_TOL
            # the moved plane coordinates are those of the unmoved eigenbasis
            # times a complex c with M v' = c v, so L_k scales by |c|^(2k)
            v, mv = _plane_vector(ref_nf), np.array(m) @ _plane_vector(nf)
            c = mv[0] / v[0]
            assert np.max(np.abs(mv - c * v)) <= 1e-9 * abs(c)
            got = focus_quantities(complexify(nf), 2).quantities
            for k, (g, r) in enumerate(zip(got, ref), start=1):
                assert g == pytest.approx(r * abs(c) ** (2 * k), rel=1e-9)
