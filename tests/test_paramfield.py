"""Exact-field foundation: canonical forms, evaluation, jets, Gaussians."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcm import paramfield
from hopfcm.errors import DivisionByZero, PoleAtPoint, TruncationTooLow
from hopfcm.paramfield import (
    GaussExpr,
    Jet,
    JetContext,
    ParamExpr,
    ParamPoly,
    Rational,
    poly_gcd,
)

P = ("c", "d", "k")


def _vars():
    return (ParamExpr.var(P, "c"), ParamExpr.var(P, "d"), ParamExpr.var(P, "k"))


# --- normalization -----------------------------------------------------------


def test_normalize_cancels_common_factor():
    _, _, k = _vars()
    assert (k**2 - 1) / (k - 1) == k + 1


def test_normalize_leaves_coprime_pair():
    c, d, k = _vars()
    e = (c**2 * d**2 + k**2) / (c * d + 1)
    assert e.num == (c**2 * d**2 + k**2).num
    assert e.den == (c * d + 1).num


def test_normalize_sign_convention():
    _, _, k = _vars()
    e = (2 * k) / ParamExpr.const(P, -2)
    assert e == -k
    # denominator leading coefficient positive after normalization
    f = k / (1 - k)
    _, lead = f.den.leading()
    assert lead > 0


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        ParamExpr(ParamPoly.const(P, 1), ParamPoly.zero(P))


# --- evaluation ---------------------------------------------------------------


def _b_expr():
    c, d, k = _vars()
    return (1 + c * d - c**2 * d**2 - k**2) / (d * (1 + c * d))


def test_evaluate_hopf_reparametrization_consistency():
    b = _b_expr()
    val = b.evaluate({"c": Rational(0), "d": Rational(1), "k": Rational(1)})
    assert val == 0


def test_evaluate_direct_substitution():
    b = _b_expr()
    val = b.evaluate({"c": Rational(1), "d": Rational(1), "k": Rational(1)})
    assert val == Fraction(1 + 1 - 1 - 1, 2)


def test_evaluate_pole_on_excluded_locus():
    b = _b_expr()
    with pytest.raises(PoleAtPoint):
        b.evaluate({"c": Rational(-1), "d": Rational(1), "k": Rational(2)})


def test_evaluate_float_backend():
    b = _b_expr()
    val = b.evaluate({"c": 0.5, "d": 2.0, "k": 1.0})
    assert val == pytest.approx((1 + 1 - 1 - 1) / (2 * (1 + 1)))


# --- differentiation ------------------------------------------------------------


def test_derivative_of_printed_first_quantity():
    c, d, k = _vars()
    L1 = d * (k**2 + 4 * c**2 - 1) + 2 * (k**2 + 1) * c + 2 * c * (2 * c**2 - 1) * d**2
    assert L1.derivative("k") == 2 * d * k + 4 * c * k


def test_derivative_of_constant_is_zero():
    e = ParamExpr.const(P, Fraction(7, 3))
    assert e.derivative("c").is_zero()


def test_quotient_rule():
    _, d, _ = _vars()
    assert (1 / d).derivative("d") == -1 / d**2


# --- field axioms (property-based) ----------------------------------------------

_coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def exprs(draw):
    c, d, k = _vars()
    gens = [c, d, k, ParamExpr.one(P)]
    acc = ParamExpr.const(P, draw(_coeffs))
    for _ in range(draw(st.integers(0, 2))):
        acc = acc * draw(st.sampled_from(gens)) + draw(_coeffs)
    denom = draw(st.sampled_from([None, 1 + c * d, k + 2, d**2 + 1]))
    if denom is not None:
        acc = acc / denom
    return acc


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs(), exprs())
def test_field_axioms_hold_exactly(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs(), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
def test_evaluate_commutes_with_arithmetic(a, b, pc, pd, pk):
    point = {"c": Rational(pc), "d": Rational(pd), "k": Rational(pk)}
    try:
        va, vb = a.evaluate(point), b.evaluate(point)
        vsum = (a + b).evaluate(point)
        vprod = (a * b).evaluate(point)
    except PoleAtPoint:
        return
    assert vsum == va + vb
    assert vprod == va * vb


# --- cancellation against full normalization and sympy (oracle) -----------------

_SYMS = sympy.symbols(P)


@st.composite
def shared_factor_exprs(draw):
    """Quotients whose numerators and denominators share factors with each
    other's, built from polynomials and normalized by the constructor."""
    c, d, k = _vars()
    factors = [(1 + c * d).num, (k + 2).num, (d**2 + 1).num, (c - d).num, k.num]
    pick = st.lists(st.sampled_from(factors), max_size=3)
    num = ParamPoly.const(P, draw(_coeffs.filter(bool)))
    for f in draw(pick):
        num = num * f
    num = num + draw(st.sampled_from([0, 0, 0, 1, c.num]))
    den = ParamPoly.const(P, draw(st.sampled_from([1, 2, -3, Fraction(1, 2)])))
    for f in draw(pick):
        den = den * f
    return ParamExpr(num, den)


def _to_sympy(e):
    def poly(p):
        c, d, k = _SYMS
        return sum(
            (sympy.Rational(q.numerator, q.denominator) * c**i * d**j * k**l
             for (i, j, l), q in p.terms.items()),
            sympy.Integer(0),
        )

    return poly(e.num) / poly(e.den)


def _from_sympy(expr):
    """sympy rational function -> ParamExpr through the normalizing constructor."""
    def poly(x):
        terms = sympy.Poly(x, *_SYMS).terms()
        return ParamPoly(P, {e: Fraction(int(q.p), int(q.q)) for e, q in terms})

    num, den = sympy.fraction(sympy.cancel(expr))
    return ParamExpr(poly(num), poly(den))


_operands = st.one_of(exprs(), shared_factor_exprs())


@settings(max_examples=60, deadline=None)
@given(_operands, _operands, st.integers(0, 3))
def test_arithmetic_matches_full_normalization_and_sympy(x, y, n):
    a, b, c, d = x.num, x.den, y.num, y.den
    sx, sy = _to_sympy(x), _to_sympy(y)
    cases = [
        (x + y, a * d + c * b, b * d, sx + sy),
        (x - y, a * d - c * b, b * d, sx - sy),
        (x * y, a * c, b * d, sx * sy),
        (y * x, c * a, d * b, sy * sx),
        (x**n, a**n, b**n, sx**n),
    ]
    if not y.is_zero():
        cases.append((x / y, a * d, b * c, sx / sy))
    if not x.is_zero():
        cases.append((y / x, c * b, d * a, sy / sx))
    for got, num, den, oracle in cases:
        full = ParamExpr(num, den)
        assert (got.num, got.den) == (full.num, full.den)
        assert str(got) == str(_from_sympy(oracle))


def test_constant_operands_make_no_gcd_call(monkeypatch):
    c, d, k = _vars()
    x = (c**2 * d**2 + k**2) / (d * (1 + c * d))
    calls = []
    gcd = paramfield.poly_gcd

    def counting_gcd(f, g):
        calls.append((f, g))
        return gcd(f, g)

    monkeypatch.setattr(paramfield, "poly_gcd", counting_gcd)
    got = [x + 0, x * 1, x * 2, x + 3, x * Fraction(1, 3), GaussExpr(x, x) * 2, x**3]
    assert calls == []
    monkeypatch.undo()
    a, b = x.num, x.den
    full = [
        ParamExpr(a, b),
        ParamExpr(a, b),
        ParamExpr(a * 2, b),
        ParamExpr(a + b * 3, b),
        ParamExpr(a * Fraction(1, 3), b),
    ]
    full.append(GaussExpr(full[2], full[2]))
    full.append(ParamExpr(a**3, b**3))
    for g, f in zip(got, full):
        assert str(g) == str(f) and g == f


# --- gcd machinery ------------------------------------------------------------------


def test_poly_gcd_multivariate():
    c, d, _ = _vars()
    a = ((c + d) ** 2 * (c - d)).num
    b = ((c + d) * (c * d + 1)).num
    g = poly_gcd(a, b)
    assert g == (c + d).num


def test_poly_gcd_coprime_is_one():
    c, d, k = _vars()
    g = poly_gcd((c * d + 1).num, (k**2 + c).num)
    assert g.is_constant() and g.constant_value() == 1


# --- Gaussian extension ----------------------------------------------------------------


def test_gauss_conjugation_is_ring_automorphism():
    c, d, _ = _vars()
    z1 = GaussExpr(c, d)
    z2 = GaussExpr(d + 1, c * d)
    assert (z1 * z2).conj() == z1.conj() * z2.conj()
    assert (z1 + z2).conj() == z1.conj() + z2.conj()
    assert z1.conj().conj() == z1
    # fixes the real subfield
    r = GaussExpr.real(c)
    assert r.conj() == r


def test_gauss_division():
    one = ParamExpr.one(P)
    zero = ParamExpr.zero(P)
    i = GaussExpr(zero, one)
    assert i * i == GaussExpr(-one, zero)
    z = GaussExpr(ParamExpr.var(P, "c"), one)
    assert (z / z) == GaussExpr(one, zero)


@pytest.mark.parametrize("kind", ["fraction", "paramexpr", "jet"])
def test_gauss_times_real_scalar_is_the_complex_product(kind):
    c, d, _ = _vars()
    ctx = JetContext(("e",), 2)
    e = ctx.eps("e")
    re, im, s = {
        "fraction": (Fraction(2, 3), Fraction(-5), Fraction(7, 2)),
        "paramexpr": (c / (1 + d), d - 1, (c + 1) / (d**2 + 1)),
        "jet": (1 + e, 3 * e * e - 2, 2 - e),
    }[kind]
    z = GaussExpr(re, im)
    real = GaussExpr(s, 0 * s)
    for scalar in (s, 3, Fraction(-1, 4)):
        lifted = GaussExpr(scalar + 0 * s, 0 * s)
        assert z * scalar == GaussExpr(re * lifted.re - im * lifted.im,
                                       re * lifted.im + im * lifted.re)
        assert scalar * z == z * scalar
    assert z / s == z / real
    assert (z / s) * s == z


# --- jets ------------------------------------------------------------------------------


def test_jet_truncation_matches_full_multiplication():
    ctx = JetContext(("e1", "e2"), 2)
    x, y = ctx.eps("e1"), ctx.eps("e2")
    j = (1 + x + 2 * y) * (1 - x + y)
    # full product has degree 2, so truncation at 2 loses nothing
    expected = 1 + 3 * y - x * x - x * y + 2 * y * y
    assert j == expected


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=6, max_size=6),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=6, max_size=6),
)
def test_jet_mul_agrees_with_poly_mul_then_truncate(cs1, cs2):
    # degree-2 jets in two parameters against ParamPoly arithmetic
    ctx = JetContext(("u", "v"), 2)
    names = ("u", "v")
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def build_jet(cs):
        u, v = ctx.eps("u"), ctx.eps("v")
        basis = [ctx.one(), u, v, u * u, u * v, v * v]
        acc = ctx.zero()
        for c, b in zip(cs, basis):
            acc = acc + c * b
        return acc

    def build_poly(cs):
        acc = ParamPoly.zero(names)
        for c, (i, j) in zip(cs, monos):
            acc = acc + ParamPoly(names, {(i, j): Fraction(c)})
        return acc

    j = build_jet(cs1) * build_jet(cs2)
    p = build_poly(cs1) * build_poly(cs2)
    truncated = {e: c for e, c in p.terms.items() if sum(e) <= 2}
    jet_terms = {}
    for m, c in j.terms.items():
        e = [0, 0]
        for i, ex in m:
            e[i] = ex
        jet_terms[tuple(e)] = c
    assert jet_terms == truncated


def test_jet_inverse_and_division():
    ctx = JetContext(("e",), 3)
    e = ctx.eps("e")
    j = 2 + e
    assert j * j.inverse() == ctx.one()
    with pytest.raises(DivisionByZero):
        e.inverse()


def test_jet_homogeneous_part_and_truncation_guard():
    ctx = JetContext(("a", "b"), 2)
    a, b = ctx.eps("a"), ctx.eps("b")
    j = 3 + a + 5 * a * b
    assert j.homogeneous_part(1) == a
    assert j.homogeneous_part(2) == 5 * a * b
    with pytest.raises(TruncationTooLow):
        j.homogeneous_part(3)


def test_param_expr_evaluates_at_jet_arguments():
    # rational-function evaluation with a jet-valued argument
    k = ParamExpr.var(("k",), "k")
    expr = (k**2 - 1) / (k + 1)
    ctx = JetContext(("e",), 2)
    val = expr.evaluate({"k": 1 + ctx.eps("e")})
    assert val == ctx.eps("e")


# --- the indexed jet kernel ---------------------------------------------------------

_SMALL = ("u", "v", "w")
_CUBIC = [(i, j, k) for i in range(4) for j in range(4) for k in range(4) if i + j + k <= 3]
_UNLIKE = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_COEFFS = st.dictionaries(st.sampled_from(_CUBIC), _UNLIKE, max_size=8)


def _jet_from(ctx, coeffs):
    """sum c * u^i v^j w^k through the jet operators, term by term."""
    eps = [ctx.eps(n) for n in ctx.names]
    acc = ctx.zero()
    for e, c in coeffs.items():
        term = ctx.const(c)
        for v, p in zip(eps, e):
            term = term * v**p
        acc = acc + term
    return acc


def _dense(jet):
    out = {}
    for m, c in jet.terms.items():
        e = [0] * len(jet.ctx.names)
        for i, ex in m:
            e[i] = ex
        out[tuple(e)] = c
    return out


def _is_canonical(jet):
    return jet.den > 0 and 0 not in jet.nums.values() and (
        math.gcd(jet.den, *jet.nums.values()) == 1 if jet.nums else jet.den == 1
    )


@settings(max_examples=40, deadline=None)
@given(_COEFFS, _COEFFS)
def test_cubic_jet_mul_agrees_with_poly_mul_then_truncate(c1, c2):
    ctx = JetContext(_SMALL, 3)
    j = _jet_from(ctx, c1) * _jet_from(ctx, c2)
    p = ParamPoly(_SMALL, c1) * ParamPoly(_SMALL, c2)
    assert _dense(j) == {e: c for e, c in p.terms.items() if sum(e) <= 3}
    assert _is_canonical(j)


@settings(max_examples=40, deadline=None)
@given(_COEFFS, _UNLIKE.filter(lambda q: q != 0))
def test_jet_times_its_inverse_is_one(coeffs, c0):
    ctx = JetContext(_SMALL, 3)
    j = _jet_from(ctx, {**coeffs, (0, 0, 0): c0})
    assert j * j.inverse() == 1
    assert j.inverse() * j == ctx.one()


@settings(max_examples=40, deadline=None)
@given(_COEFFS, _COEFFS, _UNLIKE)
def test_jets_built_two_ways_are_equal_and_hash_equal(c1, c2, q):
    ctx = JetContext(_SMALL, 3)
    a, b = _jet_from(ctx, c1), _jet_from(ctx, c2)
    # through ParamPoly evaluation at the basis jets, in another order
    via_poly = ParamPoly(_SMALL, c1).evaluate(dict(zip(_SMALL, map(ctx.eps, _SMALL))))
    assert via_poly == a and hash(via_poly) == hash(a)
    left, right = (a + b) * q, a * q + q * b
    assert left == right and hash(left) == hash(right)
    assert _is_canonical(left) and _is_canonical(a - a)


def test_constant_jet_hashes_like_its_fraction():
    ctx = JetContext(_SMALL, 2)
    assert ctx.const(3) == 3 and len({ctx.const(3), 3}) == 1
    assert len({ctx.const(Fraction(-2, 6)), Fraction(-1, 3)}) == 1
    assert len({ctx.zero(), 0, ctx.eps("u") - ctx.eps("u")}) == 1
    assert len({ctx.eps("u"), ctx.eps("v"), ctx.eps("u") * 1}) == 2
