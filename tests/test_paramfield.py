"""Exact-field foundation: canonical forms, evaluation, jets, Gaussians."""

import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfcm import paramfield
from hopfcm.errors import DivisionByZero, NotRealSystem, PoleAtPoint, TruncationTooLow
from hopfcm.paramfield import (
    GaussExpr,
    Jet,
    JetContext,
    ParamExpr,
    ParamPoly,
    dot,
    gauss,
    negligible,
    poly_gcd,
    real_part,
)
from hopfcm.polysys import CharCubic, StatePoly

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
    e = (2 * k) / Fraction(-2)
    assert e == -k
    # denominator leading coefficient positive after normalization
    f = k / (1 - k)
    den = f.den.terms
    assert den[max(den, key=_grlex)] > 0


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        ParamExpr(ParamPoly.const(P, 1), ParamPoly.zero(P))


# --- evaluation ---------------------------------------------------------------


def _b_expr():
    c, d, k = _vars()
    return (1 + c * d - c**2 * d**2 - k**2) / (d * (1 + c * d))


def test_evaluate_hopf_reparametrization_consistency():
    b = _b_expr()
    val = b.evaluate({"c": Fraction(0), "d": Fraction(1), "k": Fraction(1)})
    assert val == 0


def test_evaluate_direct_substitution():
    b = _b_expr()
    val = b.evaluate({"c": Fraction(1), "d": Fraction(1), "k": Fraction(1)})
    assert val == Fraction(1 + 1 - 1 - 1, 2)


def test_evaluate_pole_on_excluded_locus():
    b = _b_expr()
    with pytest.raises(PoleAtPoint):
        b.evaluate({"c": Fraction(-1), "d": Fraction(1), "k": Fraction(2)})


def test_evaluate_float_backend():
    b = _b_expr()
    val = b.evaluate({"c": 0.5, "d": 2.0, "k": 1.0})
    assert val == pytest.approx((1 + 1 - 1 - 1) / (2 * (1 + 1)))


# --- field axioms (property-based) ----------------------------------------------

_coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def _at(x, point):
    """The value of a ParamExpr or a Fraction at a point."""
    return x.evaluate(point) if isinstance(x, ParamExpr) else x


@st.composite
def exprs(draw):
    """A rational function of (c, d, k): a Fraction when it is constant."""
    c, d, k = _vars()
    gens = [c, d, k, Fraction(1)]
    acc = draw(_coeffs)
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
    if b:
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs(), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
def test_evaluate_commutes_with_arithmetic(a, b, pc, pd, pk):
    point = {"c": Fraction(pc), "d": Fraction(pd), "k": Fraction(pk)}
    try:
        va, vb = _at(a, point), _at(b, point)
        vsum = _at(a + b, point)
        vprod = _at(a * b, point)
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


def _poly_to_sympy(p):
    c, d, k = _SYMS
    return sum(
        (sympy.Rational(q.numerator, q.denominator) * c**i * d**j * k**l
         for (i, j, l), q in p.terms.items()),
        sympy.Integer(0),
    )


def _poly_from_sympy(x):
    terms = sympy.Poly(x, *_SYMS).terms()
    return ParamPoly(P, {e: Fraction(int(q.p), int(q.q)) for e, q in terms})


def _pair(e):
    """(num, den) of a ParamExpr, or of a Fraction over 1."""
    if isinstance(e, ParamExpr):
        return e.num, e.den
    return ParamPoly.const(P, e), ParamPoly.const(P, 1)


def _to_sympy(e):
    num, den = _pair(e)
    return _poly_to_sympy(num) / _poly_to_sympy(den)


def _from_sympy(expr):
    """sympy rational function -> ParamExpr (a Fraction when constant)
    through the normalizing constructor."""
    num, den = sympy.fraction(sympy.cancel(expr))
    return ParamExpr(_poly_from_sympy(num), _poly_from_sympy(den))


_operands = st.one_of(exprs(), shared_factor_exprs())


@settings(max_examples=60, deadline=None)
@given(_operands, _operands, st.integers(0, 3))
def test_arithmetic_matches_full_normalization_and_sympy(x, y, n):
    (a, b), (c, d) = _pair(x), _pair(y)
    sx, sy = _to_sympy(x), _to_sympy(y)
    cases = [
        (x + y, a * d + c * b, b * d, sx + sy),
        (x - y, a * d - c * b, b * d, sx - sy),
        (x * y, a * c, b * d, sx * sy),
        (y * x, c * a, d * b, sy * sx),
        (x**n, a**n, b**n, sx**n),
    ]
    if y:
        cases.append((x / y, a * d, b * c, sx / sy))
    if x:
        cases.append((y / x, c * b, d * a, sy / sx))
    for got, num, den, oracle in cases:
        full = ParamExpr(num, den)
        assert type(got) is type(full) and got == full
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


@settings(max_examples=40, deadline=None)
@given(
    _operands.filter(lambda e: isinstance(e, ParamExpr)),
    st.one_of(_operands, _coeffs, st.integers(-3, 3)),
    st.booleans(),
    st.integers(-3, 3),
)
def test_a_result_is_a_fraction_exactly_when_it_is_constant(x, y, swap, n):
    """Arithmetic that mixes ParamExprs with ints and Fractions, in both
    operand orders: a constant value comes back as a Fraction, anything
    else as a nonzero ParamExpr, each equal to sympy's value."""
    sx, sy = _to_sympy(x), _to_sympy(y)
    cases = [
        (x - x, sx - sx), (x / x, sx / sx), (x * 0, sx * 0), (0 * x, 0 * sx),
        (x**0, sx**0), (x**n, sx**n),
    ]
    if swap:
        x, y, sx, sy = y, x, sy, sx
    cases += [(x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy)]
    if y:
        cases.append((x / y, sx / sy))
    for got, oracle in cases:
        oracle = sympy.cancel(oracle)
        if oracle.free_symbols:
            assert type(got) is ParamExpr and got
            assert str(got) == str(_from_sympy(oracle))
        else:
            assert type(got) is Fraction
            assert got == Fraction(int(oracle.p), int(oracle.q))


def test_a_param_expr_survives_copies_and_pickles():
    # dataclasses.asdict deep-copies the report fields that the CLI prints
    c, d, k = _vars()
    values = [c, (c**2 * d - 1) / (3 * k + 6), GaussExpr(k, c / d)]
    for x in values:
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is type(x) and twin == x
            assert str(twin) == str(x) and hash(twin) == hash(x)
    fields = dataclasses.asdict(CharCubic(*values))
    assert list(fields.values()) == values


# --- gcd machinery ------------------------------------------------------------------


def test_poly_gcd_multivariate():
    c, d, _ = _vars()
    a = ((c + d) ** 2 * (c - d)).num
    b = ((c + d) * (c * d + 1)).num
    g, qa, qb = poly_gcd(a, b)
    assert g == (c + d).num
    assert qa * g == a and qb * g == b


def test_poly_gcd_coprime_is_one():
    c, d, k = _vars()
    a, b = (c * d + 1).num, (k**2 + c).num
    g, qa, qb = poly_gcd(a, b)
    assert g == 1
    assert qa is a and qb is b


def test_poly_gcd_keeps_a_factor_the_operands_share_in_one_variable():
    _, d, k = _vars()
    assert poly_gcd((d * k**2).num, (d**2).num) == (d.num, (k**2).num, d.num)


def _grlex(e):
    return (sum(e), e)


def _primitive_ints(terms):
    """The integer-primitive multiple with a positive grlex lead of a
    nonzero {exponent: Fraction} dict, computed from the coefficients alone."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    ints = {e: int(c * den) for e, c in terms.items()}
    g = math.gcd(*ints.values())
    if ints[max(ints, key=_grlex)] < 0:
        g = -g
    return {e: c // g for e, c in ints.items()}


def _assert_canonical(p):
    """content * prim with prim integer-primitive and a positive grlex lead;
    the zero polynomial has prim {} and content 0."""
    assert type(p.content) is Fraction
    if not p.prim:
        assert p.content == 0
        return
    assert p.content != 0
    assert all(type(c) is int and c for c in p.prim.values())
    assert p.prim == _primitive_ints(p.prim)
    assert p.terms == {e: p.content * c for e, c in p.prim.items()}


@st.composite
def factors(draw):
    """A nonzero polynomial in (c, d, k) of degree <= 2 in each variable,
    with up to three terms of height up to 10^12."""
    height = 10**12
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        e = tuple(draw(st.integers(0, 2)) for _ in P)
        num = draw(st.integers(-height, height).filter(bool))
        terms[e] = Fraction(num, draw(st.sampled_from([1, 1, 3, 7])))
    return ParamPoly(P, terms)


@settings(max_examples=60, deadline=None)
@given(factors(), factors(), factors())
def test_poly_gcd_matches_sympy_and_the_prs_fallback(a, b, g):
    f, h = a * g, b * g
    got, qf, qh = poly_gcd(f, h)
    oracle = sympy.gcd(_poly_to_sympy(f), _poly_to_sympy(h))
    assert (got.content, got.prim) == (1, _primitive_ints(_poly_from_sympy(oracle).terms))
    assert got == paramfield._prs_gcd(f, h)
    # normalized: content 1, and an integer part that is primitive with a
    # positive grlex lead
    _assert_canonical(got)
    # the shared factor divides the gcd, which divides both operands
    assert paramfield.exact_div(got, g) * g == got
    assert paramfield.exact_div(f, got) * got == f
    # the cofactors come with the gcd
    assert qf * got == f and qh * got == h


def test_poly_gcd_in_many_variables_falls_back_to_the_prs(monkeypatch):
    # xi gains digits about twofold per variable of degree 1, so these 18
    # variables outgrow the heuristic's size cap
    names = tuple(f"p{i}" for i in range(18))
    rng = random.Random(5)

    def poly(n_terms):
        return ParamPoly(names, {
            tuple(rng.randint(0, 1) for _ in names): Fraction(rng.randint(-9, 9) or 1)
            for _ in range(n_terms)
        })

    shared = poly(3)
    a, b = poly(4) * shared, poly(4) * shared
    calls = []
    prs = paramfield._prs_gcd

    def counting_prs(f, g):
        calls.append(f)
        return prs(f, g)

    monkeypatch.setattr(paramfield, "_prs_gcd", counting_prs)
    g, qa, qb = poly_gcd(a, b)
    assert (g.content, g.prim) == (1, _primitive_ints(shared.terms))
    assert qa * g == a and qb * g == b
    assert calls


def _fraction_dict_str(params, terms):
    """The printer of a ParamPoly held as an {exponent: Fraction} dict, kept
    here as the reference for the printed strings."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=_grlex, reverse=True):
        c = terms[e]
        factors = []
        for name, p in zip(params, e):
            if p == 1:
                factors.append(name)
            elif p > 1:
                factors.append(f"{name}^{p}")
        if not factors:
            body = str(c)
        elif c == 1:
            body = "*".join(factors)
        elif c == -1:
            body = "-" + "*".join(factors)
        else:
            body = str(c) + "*" + "*".join(factors)
        parts.append(body)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


@st.composite
def rational_terms(draw):
    """An {exponent: Fraction} dict in (c, d, k), empty at times, with
    negative and non-integer coefficients."""
    exps = st.tuples(*[st.integers(0, 2)] * len(P))
    coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=12).filter(bool)
    scale = draw(st.sampled_from([1, -1, Fraction(3, 7), Fraction(-10, 9), 6]))
    return {e: c * scale for e, c in draw(st.dictionaries(exps, coeffs, max_size=4)).items()}


def _by_arithmetic(terms):
    x = [ParamPoly.var(P, name) for name in P]
    acc = ParamPoly.zero(P)
    for e, c in terms.items():
        acc = acc + c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2]
    return acc


@settings(max_examples=80, deadline=None)
@given(rational_terms(), rational_terms(), st.integers(0, 3))
def test_the_polynomial_form_is_canonical(ta, tb, n):
    a, b = ParamPoly(P, ta), ParamPoly(P, tb)
    assert str(a) == _fraction_dict_str(P, ta)
    assert a.terms == ta
    # three constructions of one polynomial: equal, with equal hashes
    built = [a, _by_arithmetic(ta)]
    if b:
        built.append(paramfield.exact_div(a * b, b))
    for p in built:
        _assert_canonical(p)
        assert p == a and hash(p) == hash(a) and str(p) == str(a)
    results = [a + b, a - b, b - a, a * b, -a, a**n, a * Fraction(-2, 3)]
    if b:
        results.append(paramfield.exact_div(a * b, b))
    if a or b:
        g, qa, qb = poly_gcd(a, b)
        results += [g, qa, qb]
        assert qa * g == a and qb * g == b
    for p in results:
        _assert_canonical(p)
        assert ParamPoly(P, p.terms) == p
        assert str(p) == _fraction_dict_str(P, p.terms)
    # the rational read-outs agree with Fraction-dict arithmetic
    total = dict(ta)
    for e, c in tb.items():
        total[e] = total.get(e, 0) + c
    assert (a + b).terms == {e: c for e, c in total.items() if c}
    product = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            e = tuple(map(sum, zip(e1, e2)))
            product[e] = product.get(e, 0) + c1 * c2
    assert (a * b).terms == {e: c for e, c in product.items() if c}
    if a.is_constant():
        assert a.content == ta.get((0, 0, 0), 0)


def test_a_number_minus_a_polynomial_is_its_negated_difference():
    c, d, _ = (x.num for x in _vars())
    p = c * d - 2 * c + Fraction(1, 3)
    for q in (0, 4, Fraction(-7, 3)):
        got = q - p
        _assert_canonical(got)
        assert got == ParamPoly.const(P, q) - p and got + p == q


def test_exact_div_rejects_an_inexact_quotient():
    c, d, k = (x.num for x in _vars())
    with pytest.raises(ValueError):
        paramfield.exact_div(c * d + 1, c + k)
    with pytest.raises(ValueError):
        paramfield.exact_div(c * d + 1, 2 * c)


# --- Gaussian extension ----------------------------------------------------------------


def test_gauss_conjugation_is_ring_automorphism():
    c, d, _ = _vars()
    z1 = GaussExpr(c, d)
    z2 = GaussExpr(d + 1, c * d)
    assert (z1 * z2).conjugate() == z1.conjugate() * z2.conjugate()
    assert (z1 + z2).conjugate() == z1.conjugate() + z2.conjugate()
    assert z1.conjugate().conjugate() == z1
    # fixes the real subfield
    r = GaussExpr(c, c * 0)
    assert r.conjugate() == r


@pytest.mark.parametrize("kind", ["float", "fraction", "paramexpr", "jet"])
def test_gauss_builds_complex_for_floats_and_gauss_expr_otherwise(kind):
    x = {
        "float": 0.5,
        "fraction": Fraction(1, 2),
        "paramexpr": ParamExpr.var(P, "c"),
        "jet": JetContext(("e",), 2).eps("e"),
    }[kind]
    z = gauss(x, x ** 0)
    assert type(z) is (complex if kind == "float" else GaussExpr)
    assert z.real == x and z.imag == x ** 0


def test_gauss_expr_answers_like_complex():
    z, w = complex(0.5, -3), GaussExpr(Fraction(1, 2), Fraction(-3))
    assert (w.real, w.imag) == (z.real, z.imag)
    assert (w.conjugate().real, w.conjugate().imag) == (z.conjugate().real, z.conjugate().imag)
    y, v = complex(2, 0.25), GaussExpr(Fraction(2), Fraction(1, 4))
    for q in (3, Fraction(-5, 4)):
        for got, want in ((w - v, z - y), (q - w, q - z), (q / w, q / z)):
            assert type(got) is GaussExpr
            assert complex(float(got.real), float(got.imag)) == pytest.approx(want, rel=1e-15)


def test_gauss_subtraction_and_reflected_division_invert_their_operations():
    c, d, k = _vars()
    a, b = GaussExpr(c / (1 + d), d - 1), GaussExpr(k, (c + 1) / (k + 2))
    for q in (3, Fraction(-2, 5)):
        assert (a - b) + b == a and (q - a) + a == q
        assert (q / a) * a == q


def test_real_part_tolerates_float_noise_only():
    assert real_part(complex(2.0, 1e-12), "L", NotRealSystem) == 2.0
    with pytest.raises(NotRealSystem, match="L has imaginary part"):
        real_part(complex(2.0, 1e-3), "L", NotRealSystem)
    assert real_part(GaussExpr(Fraction(2), Fraction(0)), "L", NotRealSystem) == 2
    c = ParamExpr.var(P, "c")
    for imag in (Fraction(1, 10**12), c - c + Fraction(1, 10**12), c):
        with pytest.raises(NotRealSystem):
            real_part(GaussExpr(Fraction(2) + 0 * imag, imag), "L", NotRealSystem)


def test_negligible_is_exact_for_exact_scalars_and_relative_for_floats():
    c = ParamExpr.var(P, "c")
    ctx = JetContext(("e",), 1)
    assert negligible(Fraction(0)) and negligible(ctx.zero())
    for x in (Fraction(1, 10**12), c, ctx.eps("e") * Fraction(1, 10**12)):
        assert not negligible(x, 10**15)
    assert negligible(1e-9) and negligible(complex(0, -1e-9))
    assert not negligible(2e-9) and not negligible(complex(2e-9, 0))
    # the tolerance scales with the largest |s|, never below FLOAT_TOL itself
    assert negligible(1e-7, 0.5, -1e3) and not negligible(1e-5, 1e3)
    assert not negligible(2e-9, 0.5, 1e-3)


def test_gauss_division():
    one, zero = Fraction(1), Fraction(0)
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
        assert z * scalar == GaussExpr(re * lifted.real - im * lifted.imag,
                                       re * lifted.imag + im * lifted.real)
        assert scalar * z == z * scalar
    assert z / s == z / real
    assert (z / s) * s == z


# --- the scalar protocol -----------------------------------------------------------------

_JETS = JetContext(P, 2)
_maybe_zero = st.one_of(st.just(Fraction(0)), _coeffs)


def _real_scalar(draw, kind):
    q = draw(_maybe_zero)
    if kind == "fraction":
        return q
    if kind == "float":
        return float(q)
    if kind == "paramexpr":
        return draw(exprs()) * q
    return _JETS.const(q) + _JETS.eps(draw(st.sampled_from(P))) * draw(_maybe_zero)


@st.composite
def scalars(draw):
    """A scalar of each type the algorithms see, zero often."""
    kind = draw(st.sampled_from(
        ["fraction", "float", "paramexpr", "jet",
         "gauss-fraction", "gauss-paramexpr", "gauss-jet"]
    ))
    if kind.startswith("gauss-"):
        real = kind[len("gauss-"):]
        return GaussExpr(_real_scalar(draw, real), _real_scalar(draw, real))
    return _real_scalar(draw, kind)


@settings(max_examples=80, deadline=None)
@given(scalars())
def test_every_scalar_meets_the_protocol(x):
    assert bool(x) == (x != 0)
    zero, one = x * 0, x ** 0
    # the identities of a ParamExpr are constants, so Fractions
    kind = Fraction if isinstance(x, ParamExpr) else type(x)
    assert type(zero) is kind and type(one) is kind
    assert zero == 0 and one == 1
    assert x + zero == x and zero + x == x
    assert x * one == x and one * x == x


def test_a_polynomial_is_falsy_exactly_when_zero():
    c = ParamPoly.var(P, "c")
    assert not ParamPoly.zero(P) and not c - c
    assert ParamPoly.const(P, Fraction(-1, 3))
    assert c
    # state exponents, and the one-variable Fourier keys (n,) of the period series
    for key, other in (((1, 0, 2), (0, 1, 0)), ((-2,), (3,))):
        p = StatePoly({key: Fraction(1, 2), other: ParamExpr.var(P, "d")})
        assert not StatePoly.zero() and not StatePoly({key: Fraction(0)}) and not p - p
        assert p and StatePoly({other: 0.5}) and p - StatePoly({key: Fraction(1, 2)})


@settings(max_examples=40, deadline=None)
@given(
    exprs(),
    st.sampled_from(P),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.sampled_from(["fraction", "float", "jet"]),
)
def test_evaluate_at_a_pole_raises_pole_at_point(e, name, values, kind):
    point = {p: Fraction(v) for p, v in zip(P, values)}
    pole = e / (ParamExpr.var(P, name) - point[name])
    # e may be zero or cancel the factor
    assume(isinstance(pole, ParamExpr) and not pole.den.evaluate(point))
    if kind == "float":
        point = {p: float(v) for p, v in point.items()}
    elif kind == "jet":
        # zero constant part, nonzero linear part: not invertible, not zero
        point = {p: _JETS.const(v) + _JETS.eps(p) for p, v in point.items()}
    with pytest.raises(PoleAtPoint):
        pole.evaluate(point)


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
    assert j ** -1 == j.inverse() and j ** -2 == (j * j).inverse()
    with pytest.raises(DivisionByZero):
        e.inverse()


def test_jet_power_squares_only_what_it_uses(monkeypatch):
    ctx = JetContext(("e",), 3)
    j = 2 + ctx.eps("e")
    cases = [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)]
    wants = [math.prod([j] * n, start=ctx.one()) for n, _ in cases]
    products = []
    mul = Jet.__mul__
    monkeypatch.setattr(Jet, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for (n, count), want in zip(cases, wants):
        products.clear()
        power = j**n
        assert len(products) == count
        assert power == want


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


@settings(max_examples=40, deadline=None)
@given(_COEFFS, st.lists(_UNLIKE, min_size=3, max_size=3))
def test_jet_evaluate_agrees_with_poly_evaluate(coeffs, point):
    """At Fractions, Jet.evaluate equals ParamPoly.evaluate of the polynomial
    read off Jet.terms; at the basis jets it gives the jet back."""
    ctx = JetContext(_SMALL, 3)
    jet = _jet_from(ctx, coeffs)
    values = dict(zip(_SMALL, point))
    got = jet.evaluate(values)
    assert type(got) is Fraction
    assert got == ParamPoly(_SMALL, _dense(jet)).evaluate(values)
    assert jet.evaluate({n: ctx.eps(n) for n in _SMALL}) == jet


def _loop_sum(terms):
    """sum(w * x * y) by the plain loop that ``dot`` replaces."""
    acc = None
    for x, y, w in terms:
        term = x * y
        if w != 1:
            term = term * w
        acc = term if acc is None else acc + term
    return acc


@st.composite
def jet_dot_terms(draw):
    """(x, y, w) triples of Jets or of GaussExprs over Jets, in a context of
    degree 0-3 with 1-4 names: zero, constant and general jets over mixed
    denominators, weights 1-4."""
    ctx = JetContext(tuple(f"e{i}" for i in range(draw(st.integers(1, 4)))),
                     draw(st.integers(0, 3)))
    size = len(ctx.monomials)

    def jet():
        kind = draw(st.sampled_from(["zero", "constant", "general"]))
        if kind == "zero":
            return ctx.zero()
        keys = [0] if kind == "constant" else draw(
            st.lists(st.integers(0, size - 1), min_size=1, max_size=6, unique=True))
        nums = {k: draw(st.integers(-20, 20)) for k in keys}
        return Jet(ctx, nums, draw(st.integers(1, 12)))

    gaussian = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        x, y = (GaussExpr(jet(), jet()), GaussExpr(jet(), jet())) if gaussian else (jet(), jet())
        terms.append((x, y, draw(st.integers(1, 4))))
    return terms


@settings(max_examples=150, deadline=None)
@given(jet_dot_terms())
def test_a_fused_jet_sum_equals_the_left_to_right_sum(terms):
    got, want = dot(terms), _loop_sum(terms)
    assert type(got) is type(want) and got == want
    parts = [(got.real, want.real), (got.imag, want.imag)] if isinstance(got, GaussExpr) else [(got, want)]
    for g, w in parts:
        assert g.nums == w.nums and g.den == w.den
        assert _is_canonical(g)


def test_a_fused_jet_sum_refuses_jets_of_another_context():
    ctx, other = JetContext(("u",), 2), JetContext(("v",), 2)
    z, w = GaussExpr(ctx.eps("u"), ctx.one()), GaussExpr(other.eps("v"), other.one())
    with pytest.raises(ValueError):
        dot([(z, z, 1), (z, w, 2)])


@pytest.mark.parametrize("terms", [
    # one term of -0.0: the sum starts from that term, not from a zero
    [(complex(0.0, 0.0), complex(-0.0, 0.0), 1)],
    [(complex(0.0, 0.0), complex(-0.0, 0.0), 3), (complex(-0.0, 1.0), complex(0.0, -0.0), 1)],
    # left to right, 1e16 + 1 - 1e16 is 0.0 (a compensated sum gives 1.0)
    [(complex(1e16, 0.5), 1 + 0j, 1), (1 + 0j, 1 + 0j, 1), (complex(-1e16, 0.25), 1 + 0j, 1)],
    [(GaussExpr(Fraction(1, 3), Fraction(-2)), GaussExpr(Fraction(5, 7), Fraction(0)), 2),
     (GaussExpr(Fraction(0), Fraction(1, 2)), GaussExpr(Fraction(-3), Fraction(1, 6)), 1),
     (GaussExpr(Fraction(-1, 3), Fraction(2)), GaussExpr(Fraction(5, 7), Fraction(0)), 2)],
    # ints alone stay ints, as the plain loop leaves them
    [(2, 3, 1), (-1, 5, 2)],
], ids=["complex-negative-zero", "complex-weighted", "complex-rounding", "gauss-fraction", "ints"])
def test_dot_on_other_types_is_the_plain_loop(terms):
    got, want = dot(terms), _loop_sum(terms)
    assert type(got) is type(want) and got == want and repr(got) == repr(want)
    if isinstance(got, complex):
        assert repr(got.real) == repr(want.real) and repr(got.imag) == repr(want.imag)
    assert repr(dot(terms[:1])) == repr(_loop_sum(terms[:1]))


def test_dot_keeps_a_negative_zero_and_rounds_left_to_right():
    assert repr(dot([(complex(0.0, 0.0), complex(-0.0, 0.0), 1)])) == "(-0+0j)"
    terms = [(complex(1e16, 0.0), 1 + 0j, 1), (1 + 0j, 1 + 0j, 1), (complex(-1e16, 0.0), 1 + 0j, 1)]
    assert dot(terms).real == 0.0


def test_a_gauss_mix_of_fractions_and_jets_takes_the_fused_jet_sum(monkeypatch):
    """Rational parts among jets are constant jets of the fused sum, so the
    sum no longer depends on whether an identity was built as a Fraction."""
    ctx = JetContext(_SMALL, 2)
    u, v = ctx.eps("u"), ctx.eps("v")
    terms = [
        (GaussExpr(Fraction(1, 2), u * 3 + 1), GaussExpr(v, Fraction(-2, 3)), 2),
        (GaussExpr(u * v, Fraction(0)), GaussExpr(Fraction(5), v - 1), 1),
        (GaussExpr(Fraction(1, 3), Fraction(1, 7)), GaussExpr(u, Fraction(2)), 3),
    ]
    calls = []
    jet_dot = paramfield._jet_dot

    def counted(*args):
        calls.append(args)
        return jet_dot(*args)

    monkeypatch.setattr(paramfield, "_jet_dot", counted)
    got = dot(terms)
    assert len(calls) == 2
    monkeypatch.undo()
    want = _loop_sum(terms)
    assert got == want
    assert type(got.real) is Jet and type(got.imag) is Jet


def test_poly_gcd_of_equal_integer_parts_makes_no_heuristic_call(monkeypatch):
    c, d, k = _vars()
    prim = (c**2 * d**2 + k**2) * (1 + c * d)
    a, b = (prim * Fraction(-3, 4)).num, (prim * 6).num
    calls = []
    heu = paramfield._heu_gcd

    def counted(f, g):
        calls.append((f, g))
        return heu(f, g)

    monkeypatch.setattr(paramfield, "_heu_gcd", counted)
    g, qa, qb = poly_gcd(a, b)
    assert calls == []
    monkeypatch.undo()
    # the full gcd's triple: the PRS gcd and the exact quotients
    full = paramfield._prs_gcd(a, b)
    assert (g, qa, qb) == (full, paramfield.exact_div(a, full), paramfield.exact_div(b, full))
    assert (qa.content, qb.content) == (Fraction(-3, 4), 6) and g.content == 1


# The denominator atoms of the all-free normal form of e1-normal and of its
# Psi recursion, as polynomials in (c, d, k).
def _atoms():
    c, d, k = _vars()
    return [k, d, c * d + 1, c**2 * d**2 + k**2, d**4 + 4 * k**2]


@st.composite
def rational_dot_terms(draw):
    """(x, y, w) triples of ParamExprs over the atoms mixed with Fractions,
    real or Gaussian, weights 1-4: denominators drawn from a small pool so
    that products share them, and, when drawn, a last term that cancels
    the sum to a Fraction (0 included)."""
    c, d, k = _vars()
    atoms = _atoms()
    shared = [atoms[2], atoms[0] * atoms[3]]
    dens = [Fraction(1), atoms[0], atoms[1] * atoms[4], atoms[2] ** 2] + shared * 3
    monos = [Fraction(1), c, d, k, c * d, d**2, k**2, c * k]

    def real():
        if draw(st.integers(0, 4)) == 0:
            return draw(_coeffs)
        num = sum(draw(st.integers(-3, 3)) * m for m in draw(
            st.lists(st.sampled_from(monos), min_size=1, max_size=3)))
        # a factor of the numerator may cancel against the denominator
        num = num * draw(st.sampled_from([Fraction(1), Fraction(1), atoms[2], atoms[0]]))
        return num / draw(st.sampled_from(dens))

    gaussian = draw(st.booleans())

    def scalar():
        return GaussExpr(real(), real()) if gaussian else real()

    terms = [(scalar(), scalar(), draw(st.integers(1, 4)))
             for _ in range(draw(st.integers(2, 6)))]
    if draw(st.booleans()):
        q = draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(-5, 3), Fraction(2)]))
        terms.append((q - _loop_sum(terms), Fraction(1), 1))
    return terms


@settings(max_examples=60, deadline=None)
@given(rational_dot_terms())
def test_a_fused_rational_sum_equals_the_left_to_right_sum(terms):
    got, want = dot(terms), _loop_sum(terms)
    assert type(got) is type(want) and got == want and str(got) == str(want)
    if isinstance(got, GaussExpr):
        assert type(got.real) is type(want.real) and type(got.imag) is type(want.imag)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coeffs, _coeffs, st.integers(1, 4)), min_size=1, max_size=6),
       st.booleans())
def test_a_fused_fraction_sum_equals_the_left_to_right_sum(triples, gaussian):
    if gaussian:
        triples = [(GaussExpr(x, y), GaussExpr(y, x), w) for x, y, w in triples]
    got, want = dot(triples), _loop_sum(triples)
    assert type(got) is type(want) and got == want and repr(got) == repr(want)


def test_constant_jet_hashes_like_its_fraction():
    ctx = JetContext(_SMALL, 2)
    assert ctx.const(3) == 3 and len({ctx.const(3), 3}) == 1
    assert len({ctx.const(Fraction(-2, 6)), Fraction(-1, 3)}) == 1
    assert len({ctx.zero(), 0, ctx.eps("u") - ctx.eps("u")}) == 1
    assert len({ctx.eps("u"), ctx.eps("v"), ctx.eps("u") * 1}) == 2


@pytest.mark.parametrize("value", [Fraction(3), Fraction(-1, 3), Fraction(0)])
def test_equal_scalars_of_every_type_hash_equal(value):
    # a constant of each scalar type equals its Fraction, so it hashes like it;
    # ParamExpr arithmetic gives a constant as the Fraction itself
    c = ParamExpr.var(P, "c")
    constants = [
        ParamPoly.const(P, value),
        (c + value) - c,
        JetContext(_SMALL, 2).const(value),
        GaussExpr(value, Fraction(0)),
        GaussExpr(c * 0 + value, c - c),
    ]
    for x in constants:
        assert x == value and hash(x) == hash(value) and len({x, value}) == 1
    # as for complex, a Gaussian with no imaginary part hashes like its real part
    assert len({GaussExpr(c, c * 0), c}) == 1
    assert GaussExpr(value, Fraction(1)) != value
