"""Focus quantities: oracles, center certificates, printed-form agreement."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcm import focusq, paramfield
from hopfcm.catalog import PERTURBATION_PARAMS, build, e4_normal, e4m, e5_normal, e5m
from hopfcm.cyclicity import jet_focus_report, jet_system
from hopfcm.errors import (
    DegenerateLambda,
    NotAFirstIntegralCandidate,
    NotRealSystem,
)
from hopfcm.focusq import (
    ComplexSystem,
    complexify,
    focus_quantities,
    identity_defect,
    report_for_field,
    verify_first_integral,
)
from hopfcm.normalform import to_normal_form
from hopfcm.paramfield import GaussExpr, ParamExpr
from hopfcm.polysys import StatePoly, VectorField3

F = Fraction


def planar_field(A, B, C, D, E, Fq, lam=F(-1)):
    """udot = -v + quadratic, vdot = u + quadratic, wdot = lam w (decoupled)."""
    comps = (
        StatePoly({(0, 1, 0): F(-1), (2, 0, 0): A, (1, 1, 0): B, (0, 2, 0): C}),
        StatePoly({(1, 0, 0): F(1), (2, 0, 0): D, (1, 1, 0): E, (0, 2, 0): Fq}),
        StatePoly({(0, 0, 1): lam}),
    )
    return VectorField3(comps)


def planar_first_quantity(A, B, C, D, E, Fq):
    """Independent classical first quantity for the planar quadratic block."""
    return (B * (A + C) - E * (D + Fq) - 2 * A * D + 2 * C * Fq) / 4


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=25, deadline=None)
@given(_small, _small, _small, _small, _small, _small)
def test_first_quantity_matches_classical_planar_formula(A, B, C, D, E, Fq):
    rep = report_for_field(planar_field(A, B, C, D, E, Fq), 1)
    assert rep.quantities[0] == planar_first_quantity(A, B, C, D, E, Fq)


def test_reversible_planar_center_all_quantities_vanish():
    # udot = -v + u^2, vdot = u is reversible: (u,v,t) -> (-u,v,-t)
    rep = report_for_field(planar_field(F(1), 0, 0, 0, 0, 0), 3)
    assert all(q == 0 for q in rep.quantities)


def _complexified(fld):
    return complexify(to_normal_form(fld, (fld.zero,) * 3))


# (system builder, order): one case per scalar backend of the recursion
DEFECT_CASES = [
    pytest.param(lambda: _complexified(
        planar_field(F(1), F(-2), F(1, 3), F(2), F(0), F(1))), 3, id="planar-fraction"),
    pytest.param(lambda: _complexified(
        build("e1-normal", {"c": F(1, 3), "d": F(2), "k": F(1)})), 3, id="bound-paramexpr"),
    pytest.param(lambda: _complexified(build("e1-center")), 3, id="symbolic"),
    pytest.param(lambda: _complexified(
        jet_system("e1-normal", {"k": 1, "c": 0, "d": 1}, ("k", "c", "d"), 2)), 2,
        id="jet-degree-2"),
    pytest.param(lambda: _complexified(
        jet_system("e1-normal", {"k": 1, "c": 0, "d": Fraction(3, 2)}, ("k", "c", "d"), 3)), 2,
        id="jet-degree-3"),
    pytest.param(lambda: _complexified(e4_normal({"c": 0.25, "h": 2.0})), 2, id="float"),
]


@pytest.mark.parametrize("build,n", DEFECT_CASES)
def test_identity_defect_vanishes(build, n):
    cs = build()
    if isinstance(cs.lam, float):
        assert identity_defect(cs, n) < 1e-9
    else:
        assert identity_defect(cs, n) == 0


def _assert_defect_caught(build, n, monomial, monkeypatch):
    """Adding d_110 to the Psi coefficient at ``monomial`` must leave a
    defect in the identity."""
    cs = build()
    recursion = focusq._psi_recursion

    def corrupted(cs, n):
        quantities, d = recursion(cs, n)
        one = d[(1, 1, 0)]
        d[monomial] = d[monomial] + one if monomial in d else one
        return quantities, d

    monkeypatch.setattr(focusq, "_psi_recursion", corrupted)
    if isinstance(cs.lam, float):
        assert identity_defect(cs, n) >= 1e-7
    else:
        with pytest.raises(AssertionError):
            identity_defect(cs, n)


@pytest.mark.parametrize("build,n", DEFECT_CASES)
def test_identity_defect_catches_a_corrupted_psi_coefficient(build, n, monkeypatch):
    _assert_defect_caught(build, n, (2, 1, 0), monkeypatch)


@pytest.mark.parametrize("build,n", DEFECT_CASES)
def test_identity_defect_catches_a_corrupted_mirrored_coefficient(build, n, monkeypatch):
    """The recursion computes d with k1 >= k2 and mirrors the rest; the oracle
    checks the mirrored half too."""
    _assert_defect_caught(build, n, (1, 2, 0), monkeypatch)


# L1..L5 of e1-normal as degree-2 jets in (k, c, d) around (1, 0, 1)
JET_L1_TO_L5 = [
    "1/10*k + 1/10*c + -13/50*k*c + 8/25*k*d + -41/100*k^2 + 1/50*c*d + 1/5*c^2",
    "-13/100*k*c + -3/100*c^2",
    "281/68000*k + 61/68000*c + 30377/5780000*k*c + 8901/361250*k*d"
    " + -452921/11560000*k^2 + -32619/5780000*c*d + 29/4250*c^2",
    "-3152863/187850000*k*c + -2990501/751400000*k^2 + 1689699/751400000*c^2",
    "2324157/8554400000*k + 96617/8554400000*c + 6884845899/5380717600000*k*c"
    " + 31827763/13451794000*k*d + -43430895013/10761435200000*k^2"
    " + -3350747727/5380717600000*c*d + 1403621/4277200000*c^2",
]


def test_the_recursion_computes_only_half_the_psi_coefficients(monkeypatch):
    """Mirroring the k1 < k2 coefficients by conjugation keeps the jet
    products of this report, inside fused sums or not, under 3,000 (2,638;
    computing every coefficient takes 4,524), with the same quantities."""
    count = [0]
    add_product = paramfield._add_product

    def counted(*args):
        count[0] += 1
        return add_product(*args)

    monkeypatch.setattr(paramfield, "_add_product", counted)
    rep = jet_focus_report("e1-normal", {"k": 1, "c": 0, "d": 1}, ("k", "c", "d"), 2, 5)
    assert [str(q) for q in rep.quantities] == JET_L1_TO_L5
    assert count[0] <= 3000


def test_jet_quantities_take_the_fused_sums(monkeypatch):
    """The transverse eigenvalue of a jet normal form is a Jet, so the
    recursion's identities are jets and every one of its sums is fused:
    each ``dot`` call reaches ``_jet_dot`` once per part (87 calls, 174)."""
    fld = jet_system("e1-center-perturbed", {}, PERTURBATION_PARAMS, 2)
    nf = to_normal_form(fld, (fld.zero,) * 3)
    assert isinstance(nf.lam, paramfield.Jet)
    # the products of ``complexify`` go through ``dot`` too: count only the
    # recursion's
    cs = complexify(nf)
    calls = {"dot": 0, "_jet_dot": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(focusq, "dot")
    counted(paramfield, "_jet_dot")
    focus_quantities(cs, 3)
    assert calls["dot"] > 0
    assert calls["_jet_dot"] == 2 * calls["dot"]


# --- center family ------------------------------------------------------------


def test_center_family_first_three_quantities_vanish_symbolically():
    rep = report_for_field(build("e1-center"), 3)
    assert not any(rep.quantities)


def test_center_family_first_integral():
    fld = build("e1-center")
    H = StatePoly({(2, 0, 0): F(1), (0, 2, 0): F(1)})
    assert verify_first_integral(fld, H) is True


def test_generic_normal_form_breaks_first_integral():
    fld = build("e1-normal", {"c": F(1), "d": F(1), "k": F(1)})
    H = StatePoly({(2, 0, 0): F(1), (0, 2, 0): F(1)})
    assert verify_first_integral(fld, H) is False


def test_constant_candidate_rejected():
    fld = build("e1-center")
    with pytest.raises(NotAFirstIntegralCandidate):
        verify_first_integral(fld, StatePoly({(0, 0, 0): F(5)}))


def test_center_certificate_via_psi_series_normalization():
    from hopfcm.focusq import _psi_recursion

    nf = to_normal_form(build("e1-center"), (F(0),) * 3)
    _, coefficients = _psi_recursion(complexify(nf), 2)
    for (k1, k2, k3), coeff in coefficients.items():
        if k1 == k2 and k3 == 0 and k1 >= 2:
            raise AssertionError("diagonal coefficient stored despite normalization")


# --- complexification structure ---------------------------------------------------


def test_complexified_center_coefficients():
    # the center family at d = 1, udot = v + vw, vdot = -u - uw,
    # wdot = -w + uv, read in the turned frame x = v + iu of its
    # orientation -1, gives X1 = i x z, X2 = -i y z, X3 = -(i/4)(x^2 - y^2)
    nf = to_normal_form(build("e1-center", {"d": 1}), (F(0),) * 3)
    assert nf.orientation == -1
    cs = complexify(nf)
    i_one = GaussExpr(F(0), F(1))
    assert cs.a == {(1, 0, 1): i_one}
    assert cs.b == {(0, 1, 1): GaussExpr(F(0), F(-1))}
    assert cs.c == {
        (2, 0, 0): GaussExpr(F(0), F(-1, 4)),
        (0, 2, 0): GaussExpr(F(0), F(1, 4)),
    }


def test_purely_linear_field_has_empty_coefficient_sets():
    comps = (
        StatePoly({(0, 1, 0): F(-1)}),
        StatePoly({(1, 0, 0): F(1)}),
        StatePoly({(0, 0, 1): F(-2)}),
    )
    nf = to_normal_form(VectorField3(comps), (F(0),) * 3)
    cs = complexify(nf)
    assert cs.a == {} and cs.b == {} and cs.c == {}


# a hand-built system whose b is not the conjugate mirror of a: the c term
# carries the mismatch into the first obstruction, which is then not real


def test_broken_conjugate_pair_rejected():
    i_one = GaussExpr(F(0), F(1))
    cs = ComplexSystem(
        a={(1, 0, 1): i_one},
        b={(0, 1, 1): i_one},  # should be the conjugate -i
        c={(1, 1, 0): GaussExpr(F(1), F(0))},
        lam=F(-1),
    )
    with pytest.raises(NotRealSystem, match="imaginary part 2"):
        focus_quantities(cs, 1)
    cs.b = {(0, 1, 1): -i_one}
    assert focus_quantities(cs, 1).quantities == [0]


def test_broken_conjugate_pair_rejected_on_float_ring():
    cs = ComplexSystem(a={(1, 0, 1): 1j}, b={(0, 1, 1): 1j}, c={(1, 1, 0): 1 + 0j}, lam=-1.0)
    with pytest.raises(NotRealSystem, match="imaginary part 2"):
        focus_quantities(cs, 1)
    # a conjugate pair that agrees within the float tolerance passes
    cs.b = {(0, 1, 1): -1j + 1e-12}
    assert focus_quantities(cs, 1).quantities == [pytest.approx(0.0, abs=1e-11)]


def test_degenerate_lambda_rejected():
    cs = ComplexSystem(a={}, b={}, c={}, lam=F(0))
    with pytest.raises(DegenerateLambda):
        focus_quantities(cs, 1)


def _turned(nf):
    """The counterclockwise copy of a clockwise normal form: u and v trade
    places, so udot = v + P, vdot = -u + Q becomes udot = -v + Q(v, u, w),
    vdot = u + P(v, u, w)."""

    def swap(poly):
        return StatePoly({(e[1], e[0], e[2]): c for e, c in poly.terms.items()})

    p, q, r = nf.field.components
    fld = VectorField3((swap(q), swap(p), swap(r)), params=nf.field.params)
    return replace(nf, field=fld, orientation=1)


_IDENTITY = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize(
    "build,matrix",
    [
        (lambda: build("e1-normal", {"c": F(1, 3), "d": F(2), "k": F(1)}), None),
        (lambda: build("e1-center"), None),
        (lambda: jet_system("e1-normal", {"k": 1, "c": 0, "d": 1}, ("k", "c", "d"), 2), None),
        (lambda: e4_normal({"c": 0.25, "h": 2.0}), _IDENTITY),
    ],
    ids=["e1-normal-bound", "e1-center-symbolic", "jet-degree-2", "e4-normal-float"],
)
def test_complexify_reads_a_clockwise_frame_like_its_turned_copy(build, matrix):
    fld = build()
    nf = to_normal_form(fld, (fld.zero,) * 3, matrix=matrix)
    assert nf.orientation == -1
    got, want = complexify(nf), complexify(_turned(nf))
    for name in ("a", "b", "c"):
        g, w = getattr(got, name), getattr(want, name)
        if isinstance(nf.lam, float):
            assert max(abs(g.get(e, 0) - w.get(e, 0)) for e in {**g, **w}) <= 1e-12
        else:
            assert g == w


def test_complexify_composes_two_polynomials(monkeypatch):
    # P + iQ and R; b is the conjugate mirror of a
    calls = []
    compose = StatePoly.compose

    def counted(poly, subs):
        calls.append(poly)
        return compose(poly, subs)

    monkeypatch.setattr(StatePoly, "compose", counted)
    # one field of each orientation: +1, then -1
    for fld in (planar_field(F(1), F(-2), F(1, 3), F(2), F(0), F(1)), build("e1-center", {"d": 1})):
        nf = to_normal_form(fld, (F(0),) * 3)
        calls.clear()
        complexify(nf)
        assert len(calls) == 2


# --- printed first-quantity agreement (exact pointwise) -----------------------------


def printed_L1(c, d, k):
    return d * (k**2 + 4 * c**2 - 1) + 2 * (k**2 + 1) * c + 2 * c * (2 * c**2 - 1) * d**2


def clearing_e1(c, d, k):
    """Positive-for-d>0 factor relating the raw quantity to the printed one:
    raw * 4k (c^2 d^2 + k^2)(d^4 + 4 k^2) = printed * d^3."""
    return 4 * k * (c * c * d * d + k * k) * (d**4 + 4 * k * k)


def _random_rational_points(count, seed, positive_d=False):
    import random

    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        c = F(rng.randint(-8, 8), rng.randint(1, 5))
        d = F(rng.choice([x for x in range(-8, 9) if x]), rng.randint(1, 5))
        if positive_d:
            d = abs(d)
        k = F(rng.randint(1, 9), rng.randint(1, 4))
        if 1 + c * d == 0:
            continue
        pts.append((c, d, k))
    return pts


def _computed_L1(c, d, k):
    bound = build("e1-normal", {"c": c, "d": d, "k": k})
    return report_for_field(bound, 1).quantities[0]


def test_first_quantity_clearing_identity_at_random_points():
    for (c, d, k) in _random_rational_points(12, seed=7):
        got = _computed_L1(c, d, k) * clearing_e1(c, d, k)
        assert got == printed_L1(c, d, k) * d**3


def test_all_free_quantities_match_the_bound_path(monkeypatch):
    # L1 and L2 with c, d, k free, against the fully bound Fraction path,
    # which makes no gcd call
    fld = build("e1-normal")
    free = report_for_field(fld, 2).quantities
    assert all(isinstance(q, ParamExpr) for q in free)

    def no_gcd(a, b):
        raise AssertionError("the bound path called poly_gcd")

    monkeypatch.setattr(paramfield, "poly_gcd", no_gcd)
    for (c, d, k) in _random_rational_points(6, seed=11):
        point = {"c": c, "d": d, "k": k}
        bound = report_for_field(build("e1-normal", point), 2).quantities
        assert [q.evaluate(point) for q in free] == bound


def test_all_free_second_quantity_takes_few_gcds(monkeypatch):
    """Products of one uncancelled denominator are added as numerators and
    reduced once (``paramfield.dot``): the all-free L1, L2 of e1-normal make
    507 gcd calls, where adding every product on its own made 786."""
    calls = [0]
    gcd = paramfield.poly_gcd

    def counted(a, b):
        calls[0] += 1
        return gcd(a, b)

    monkeypatch.setattr(paramfield, "poly_gcd", counted)
    report_for_field(build("e1-normal"), 2)
    assert calls[0] <= 520


def test_first_quantity_sample_values():
    # (c,d,k) = (0,2,2): printed value 6; cleared identity gives 3/64, positive
    v = _computed_L1(F(0), F(2), F(2))
    assert v == F(3, 64)
    assert printed_L1(F(0), F(2), F(2)) == 6
    # (c,d,k) = (0,1,2): printed 3 (= 3 d at d=1), computed 3/544
    assert _computed_L1(F(0), F(1), F(2)) == F(3, 544)


# --- the d = 0 focus families ----------------------------------------------------------


def _printed_L1_e4(c, h):
    return -h * c**3.5 * math.sqrt(h**4 - 4 * c * c) * (h**4 + 4 * c * c) ** 2


def _printed_L1_e5(c, h):
    return h * (-c) ** 3.5 * math.sqrt(h**4 - 4 * c * c) * (h**4 + 4 * c * c) ** 2


def _clearing_e45(c, h):
    """Divisor-norm clearing factor between raw and printed quantities."""
    W = h**4 - 4 * c * c
    lam2 = 8 * abs(c) ** 3 * h * h / W
    return math.sqrt(2) / 4 * W**3 * (lam2 + 1) ** 2 * (lam2 + 4)


@pytest.mark.parametrize("c,h", [(0.25, 2.0), (1.0, 2.0), (3.0, 5.0)])
def test_e4_first_quantity_matches_printed_closed_form(c, h):
    L1 = report_for_field(e4_normal({"c": c, "h": h}), 1).quantities[0]
    assert L1 < 0
    scaled = L1 * _clearing_e45(c, h)
    printed = _printed_L1_e4(c, h)
    assert abs(scaled - printed) <= 1e-6 * abs(printed)


@pytest.mark.parametrize("c,h", [(-0.25, 2.0), (-1.0, 2.0), (-3.0, 5.0)])
def test_e5_first_quantity_matches_printed_closed_form(c, h):
    L1 = report_for_field(e5_normal({"c": c, "h": h}), 1).quantities[0]
    assert L1 > 0
    scaled = L1 * _clearing_e45(c, h)
    printed = _printed_L1_e5(c, h)
    assert abs(scaled - printed) <= 1e-6 * abs(printed)


@pytest.mark.parametrize("c,h", [(0.25, 2.0), (1.0, 2.0), (3.0, 5.0),
                                 (-0.25, 2.0), (-1.0, 2.0), (-3.0, 5.0)])
def test_the_translated_family_reduces_to_its_normal_form_up_to_scale(c, h):
    """``e4m``/``e5m`` through the float eigenbasis and ``e4-normal``/
    ``e5-normal`` scale the rotation plane differently, so their L_k differ
    by one positive factor r^k (r = 1 to rounding at h = 2, 0.2707 at
    h = 5): L1 keeps its sign and L2 / L1^2 its value."""
    translated, normal = (e4m, e4_normal) if c > 0 else (e5m, e5_normal)
    L = report_for_field(translated({"c": c, "h": h}), 2).quantities
    N = report_for_field(normal({"c": c, "h": h}), 2).quantities
    assert (L[0] > 0) == (N[0] > 0)
    assert L[1] / L[0] ** 2 == pytest.approx(N[1] / N[0] ** 2, rel=1e-12)


def test_exact_e4_value_matches_float_backend():
    # frozen from the exact quadratic-extension computation at c=1/2, h=2
    L1 = report_for_field(e4_normal({"c": 0.5, "h": 2.0}), 1).quantities[0]
    assert L1 == pytest.approx(-289 / 46208 * math.sqrt(15), rel=1e-12)


# --- invariances -----------------------------------------------------------------------


def test_quantities_invariant_under_positive_field_scaling():
    fld = planar_field(F(1), F(2), F(0), F(-1), F(1), F(2))
    scaled = VectorField3(
        tuple(c.scale(F(3)) for c in fld.components)
    )
    # the pipeline rescales time back to unit rotation, so reports agree
    r1 = report_for_field(fld, 2).quantities
    r2 = report_for_field(scaled, 2).quantities
    assert r1 == r2
