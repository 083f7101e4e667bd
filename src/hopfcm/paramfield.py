"""Exact arithmetic over declared real parameters.

The coefficient tower used by the symbolic half of the package, built over
the rationals of ``fractions.Fraction``:

* ``ParamPoly``         -- multivariate polynomials in the declared parameters:
  one rational content times a sparse dict of exponent vectors to integers,
  integer-primitive with a positive leading coefficient (the content/primitive
  part split of Geddes, Czapor & Labahn, 1992, ch. 2).  Products need no gcd
  (Gauss's lemma); a sum takes one integer gcd pass.
* ``ParamExpr``         -- the non-constant elements of the fraction field of
  ``ParamPoly``, kept in a canonical form (gcd-cancelled, denominator of
  content 1) so structural equality is field equality.  A constant is a
  ``Fraction``, which its arithmetic returns whenever the value is
  constant, so a ParamExpr is never zero.
* ``poly_gcd``          -- the gcd behind that canonical form: Char, Geddes &
  Gonnet's heuristic GCDHEU.  It runs on the operands' integer parts as they
  are stored; one variable at a time is evaluated at an integer xi above
  twice the smaller max-norm, down to an integer gcd; the gcd is rebuilt
  from the symmetric base-xi digits of the images' gcd, with the integer
  contents pulled out at every level and their gcd put back.  A candidate is
  accepted only if it divides both operands exactly over Z, so the result is
  certified.  After six values of xi, or once xi outgrows 2^17 bits (many
  variables), the primitive Euclidean PRS takes over.  It returns the
  cofactors with the gcd: the heuristic's check has computed them already,
  and after the PRS ``exact_div`` does.  Quotients (``exact_div`` and the
  check) come from one sparse division over integer dicts.
* ``GaussExpr``         -- the Gaussian extension ``real + i*imag`` of any of
  the real scalar types here, used for complexified vector fields.  It has
  the ``real``, ``imag`` and ``conjugate()`` of ``complex``, which stays the
  float backend's complex type; ``gauss(real, imag)`` builds whichever of
  the two the parts call for, and ``real_part`` takes a real part back.
* ``Jet``               -- truncated polynomials in designated small parameters,
  used to expand focus quantities around a point of the center variety:
  integer numerators over one denominator, reduced by one gcd per result.
* ``dot``               -- sums of weighted products, part by part for
  ``GaussExpr``s.  Over jets, or over rationals alone, every product of a
  part is added on integers over the lcm of their denominators and the sum
  reduced once.  Over rational functions the products that share an
  uncancelled denominator add their numerators and are reduced once.
  Floats add their products left to right as a plain loop would.

All values are immutable after construction; operations are pure functions.

Every scalar type here (with ``Fraction`` and ``float``) meets one protocol,
so the generic algorithms never ask a value for its type:

* a scalar is zero exactly when it is falsy;
* whether a computed value counts as zero is ``negligible``'s one decision:
  exactly when falsy for an exact scalar, and within ``FLOAT_TOL``
  relative to a scale for a float or complex one, whose rounding leaves
  no exact zero;
* identities come from a sample value ``x`` of the wanted type, as ``x * 0``
  and ``x ** 0``; for a ``ParamExpr`` they are the ``Fraction``s 0 and 1;
* a pole is what division raises: ``ZeroDivisionError`` for ``Fraction`` and
  ``float``, ``DivisionByZero`` for ``ParamExpr`` and for a ``Jet`` with a
  zero constant part.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement
from operator import add

from .errors import (
    DivisionByZero, PoleAtPoint, RegionUndefined, TruncationTooLow, abridged, listed,
)

_ZERO, _ONE = Fraction(0), Fraction(1)
# the most digits an integer from outside may have: the interpreter's default
# limit, kept while the command line lifts it so that reports print every digit
MAX_DIGITS = sys.int_info.default_max_str_digits
_TOO_MANY_DIGITS = re.compile(rf"(?<!\d)\d{{{MAX_DIGITS + 1}}}")


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples, graded-lex order)


def _grlex_key(exp):
    return (sum(exp), exp)


def power_sum(terms, vals, scale=None, zero=_ZERO):
    """scale * sum(n * prod(vals[i] ** p for i, p in mono)) over the
    (mono, n) pairs of ``terms``, each ``mono`` a sequence of (index,
    exponent) pairs and each n a coefficient; every power is computed once.
    A scale of None applies none (``complex * 1`` can flip a signed zero).
    Returns ``zero`` for no terms."""
    powers = {}
    acc = None
    for mono, n in terms:
        term = n
        for ip in mono:
            x = powers.get(ip)
            if x is None:
                i, p = ip
                x = powers[ip] = vals[i] ** p
            term = term * x
        acc = term if acc is None else acc + term
    if acc is None:
        return zero
    return acc if scale is None else acc * scale


def binary_power(base, n, one):
    """base ** n by repeated squaring, for an integer n >= 0; ``one()``
    gives base ** 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponents must be nonnegative integers")
    if not n:
        return one()
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


class ParamPoly:
    """Sparse multivariate polynomial over Q in a fixed parameter tuple.

    Held as one rational ``content`` times an {exponent: int} dict ``prim``
    that is integer-primitive with a positive graded-lex leading
    coefficient; the zero polynomial has the empty dict and content 0.  The
    form is canonical, so equality and hashing are structural.
    """

    __slots__ = ("params", "content", "prim", "_hash")

    def __init__(self, params, terms):
        """The polynomial with the rational coefficients ``{exponent: c}``."""
        terms = {e: Fraction(c) for e, c in terms.items() if c}
        den = math.lcm(*[c.denominator for c in terms.values()])
        ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
        poly = ParamPoly._normal(tuple(params), ints, Fraction(1, den))
        self.params, self.content, self.prim, self._hash = poly.params, poly.content, poly.prim, None

    @classmethod
    def _make(cls, params, content, prim):
        """content * prim for a ``prim`` already in canonical form, without
        the normalization of ``__init__``."""
        poly = cls.__new__(cls)
        poly.params, poly.content, poly.prim, poly._hash = params, content, prim, None
        return poly

    @classmethod
    def _normal(cls, params, ints, scale):
        """scale * ints for any {exponent: int} dict and rational scale:
        one integer gcd pass, and the sign of the grlex lead."""
        if 0 in ints.values():
            ints = {e: c for e, c in ints.items() if c}
        if not ints or not scale:
            return cls._make(params, _ZERO, {})
        g = math.gcd(*ints.values())
        if ints[max(ints, key=_grlex_key)] < 0:
            g = -g
        if g != 1:
            ints = {e: c // g for e, c in ints.items()}
        return cls._make(params, scale * g, ints)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, params):
        return cls._make(tuple(params), _ZERO, {})

    @classmethod
    def const(cls, params, value):
        value = Fraction(value)
        if value == 0:
            return cls.zero(params)
        return cls._make(tuple(params), value, {(0,) * len(params): 1})

    @classmethod
    def var(cls, params, name):
        i = params.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(params)))
        return cls._make(tuple(params), _ONE, {e: 1})

    # -- basic queries -------------------------------------------------------

    @property
    def terms(self):
        """The coefficients as a new {exponent: Fraction} dict."""
        content = self.content
        return {e: content * n for e, n in self.prim.items()}

    def primitive(self):
        """The integer part ``prim`` as a polynomial (content 1; 0 stays 0)."""
        if self.content == 1 or not self.prim:
            return self
        return ParamPoly._make(self.params, _ONE, self.prim)

    def __bool__(self):
        return bool(self.prim)

    def is_constant(self):
        prim = self.prim
        return not prim or (len(prim) == 1 and not any(next(iter(prim))))

    def degree_in(self, i):
        if not self.prim:
            return -1
        return max(e[i] for e in self.prim)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            if other.params != self.params:
                raise ValueError("parameter rings differ")
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(self.params, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.prim:
            return self
        if not self.prim:
            return other
        # self + other = s * (a self.prim + b other.prim), s the rational gcd
        # of the contents and a, b integers
        p, q = self.content, other.content
        g = math.gcd(p.numerator, q.numerator)
        den = math.lcm(p.denominator, q.denominator)
        a = p.numerator // g * (den // p.denominator)
        b = q.numerator // g * (den // q.denominator)
        ints = dict(self.prim) if a == 1 else {e: c * a for e, c in self.prim.items()}
        get = ints.get
        for e, c in other.prim.items():
            ints[e] = get(e, 0) + c * b
        return ParamPoly._normal(self.params, ints, Fraction(g, den))

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._make(self.params, -self.content, self.prim)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scaling changes only the content
            if not other:
                return ParamPoly.zero(self.params)
            return ParamPoly._make(self.params, self.content * other, self.prim)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # Gauss's lemma: the product of primitive parts is primitive, and its
        # lead is the product of the (positive) leads
        out = {}
        get = out.get
        for e1, c1 in self.prim.items():
            for e2, c2 in other.prim.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return ParamPoly._make(self.params, self.content * other.content, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return binary_power(self, n, lambda: ParamPoly.const(self.params, 1))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.content == other.content and self.prim == other.prim

    def __hash__(self):
        if self._hash is None:
            # a constant equals its Fraction, so it hashes like it
            self._hash = hash(self.content) if self.is_constant() else hash(
                (self.params, self.content, frozenset(self.prim.items()))
            )
        return self._hash

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, values):
        """Evaluate with every parameter bound.

        ``values`` maps parameter name to any scalar supporting + * **
        (Fraction, float, Jet, ParamExpr, ...). Returns a Fraction for the
        zero polynomial.
        """
        vals = [values[p] for p in self.params]
        terms = (
            ([(i, p) for i, p in enumerate(e) if p], self.prim[e])
            for e in sorted(self.prim, key=_grlex_key)
        )
        return power_sum(terms, vals, self.content)

    # -- printing -------------------------------------------------------------

    def __str__(self):
        if not self.prim:
            return "0"
        parts = []
        for e in sorted(self.prim, key=_grlex_key, reverse=True):
            c = self.content * self.prim[e]
            factors = []
            for name, p in zip(self.params, e):
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

    __repr__ = __str__


# ---------------------------------------------------------------------------
# multivariate gcd: heuristic gcd by integer evaluation, PRS fallback
#
# The kernels below work on the integer parts of polynomials, {exponent:
# int} dicts; a polynomial's content stays outside them.


def _div_int(a: dict, b: dict):
    """The quotient a/b of integer polynomials (b nonzero) when b divides a
    over Z, else None.

    Sparse division by b's grlex-leading term; the remainder is one dict
    updated in place, its terms visited in decreasing grlex order from a
    heap keyed on (total degree, exponents) packed into one integer.
    """
    if not a:
        return {}
    base = 1 + max(sum(e) for e in a)  # every exponent in play is below it

    def key(e):
        k = sum(e)
        for x in e:
            k = k * base + x
        return -k

    be = max(b, key=_grlex_key)
    bc = b[be]
    tail = [(e, c) for e, c in b.items() if e != be]
    rem = dict(a)
    heap = [(key(e), e) for e in rem]
    heapify(heap)
    quo = {}
    while heap:
        e = heappop(heap)[1]
        c = rem.pop(e)
        if not c:
            continue
        qe = tuple(x - y for x, y in zip(e, be))
        q, r = divmod(c, bc)
        if r or min(qe) < 0:
            return None
        quo[qe] = q
        # every new term lies below e in grlex, so no popped key comes back
        for e2, c2 in tail:
            t = tuple(x + y for x, y in zip(qe, e2))
            old = rem.get(t)
            if old is None:
                rem[t] = -q * c2
                heappush(heap, (key(t), t))
            else:
                rem[t] = old - q * c2
    return quo


def exact_div(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Quotient a/b when b divides a exactly; raises ValueError otherwise."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if not a:
        return a
    # b | a over Q iff b.prim | a.prim over Z (Gauss's lemma), and then the
    # quotient of the integer parts is primitive with a positive lead
    quo = a.prim if b.is_constant() else _div_int(a.prim, b.prim)
    if quo is None:
        raise ValueError("inexact polynomial division")
    return ParamPoly._make(a.params, a.content / b.content, quo)


# Char, Geddes & Gonnet's GCDHEU (J. Symbolic Comput. 7, 1989; Geddes,
# Czapor & Labahn, Algorithms for Computer Algebra, 1992, ch. 7).  For
# primitive f, g in Z[x, ...] and an integer xi > 2 min(|f|, |g|) + 2 (max
# norms), let h = gcd(f(xi), g(xi)), one variable fewer, and G the
# primitive part of the polynomial whose symmetric xi-adic digits are h's
# coefficients.  If G divides f and g, it is their gcd.

_HEU_TRIES = 6
# xi grows about (d + 1)-fold in digits per variable evaluated (d the degree
# in that variable), which defeats the heuristic in many variables: 16
# variables of degree 1 reach 2.4 million bits.  The all-free L3 of
# e1-normal needs at most 27,649 bits.
_HEU_MAX_BITS = 1 << 17


def _int_content(p: dict) -> int:
    return math.gcd(*p.values())


def _evaluate_at(p: dict, i: int, xi: int) -> dict:
    """p with x_i = xi; exponent i of every key becomes 0."""
    powers = [1]
    for _ in range(max(e[i] for e in p)):
        powers.append(powers[-1] * xi)
    out = {}
    for e, c in p.items():
        if e[i]:
            c *= powers[e[i]]
            e = e[:i] + (0,) + e[i + 1:]
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _xi_adic(h: dict, i: int, xi: int) -> dict:
    """The polynomial in x_i whose symmetric base-xi digits are h's
    coefficients (h has exponent 0 in x_i)."""
    half = xi // 2
    out = {}
    for e, c in h.items():
        j = 0
        while c:
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[e[:i] + (j,) + e[i + 1:]] = r
            c = (c - r) // xi
            j += 1
    return out


def _times(p: dict, k: int) -> dict:
    """k p for an integer k; p itself when k is 1."""
    return p if k == 1 else {e: c * k for e, c in p.items()}


def _heu_gcd(f: dict, g: dict):
    """(h, f/h, g/h) for h the gcd over Z of nonzero integer polynomials,
    up to sign; None when every evaluation point tried fails, when a
    recursive call fails or when xi outgrows ``_HEU_MAX_BITS``.  The
    cofactors are the quotients of the divisibility check that accepts h."""
    cf, cg = _int_content(f), _int_content(g)
    content = math.gcd(cf, cg)
    if cf != 1:
        f = {e: c // cf for e, c in f.items()}
    if cg != 1:
        g = {e: c // cg for e, c in g.items()}
    kf, kg = cf // content, cg // content
    arity = len(next(iter(f)))
    main = next(
        (i for i in range(arity) if any(e[i] for e in f) or any(e[i] for e in g)),
        None,
    )
    one = (0,) * arity
    if main is None or len(f) == 1 and one in f or len(g) == 1 and one in g:
        return {one: content}, _times(f, kf), _times(g, kg)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_TRIES):
        if xi.bit_length() > _HEU_MAX_BITS:
            return None
        ff, gg = _evaluate_at(f, main, xi), _evaluate_at(g, main, xi)
        if ff and gg:
            h = _heu_gcd(ff, gg)
            if h is None:
                return None
            cand = _xi_adic(h[0], main, xi)
            cc = _int_content(cand)
            if len(cand) == 1 and one in cand:
                return {one: content}, _times(f, kf), _times(g, kg)
            cand = {e: c // cc for e, c in cand.items()}
            qf = _div_int(f, cand)
            qg = None if qf is None else _div_int(g, cand)
            if qg is not None:
                return _times(cand, content), _times(qf, kf), _times(qg, kg)
        xi = xi * 73794 // 27011  # grow by about 2.73
    return None


def poly_gcd(a: ParamPoly, b: ParamPoly):
    """(g, a/g, b/g) for g the gcd in Q[params], normalized to content 1;
    a and b themselves when g is 1."""
    if not a:
        g = b.primitive()
    elif not b:
        g = a.primitive()
    elif a.is_constant() or b.is_constant():
        return ParamPoly.const(a.params, 1), a, b
    elif a.prim == b.prim:
        # equal integer parts: the gcd is that part, the cofactors the contents
        params = a.params
        return a.primitive(), ParamPoly.const(params, a.content), ParamPoly.const(params, b.content)
    else:
        heu = _heu_gcd(a.prim, b.prim)
        if heu is None:
            g = _prs_gcd(a, b)
        else:
            h, qa, qb = heu
            if h[max(h, key=_grlex_key)] < 0:
                h, qa, qb = ({e: -c for e, c in p.items()} for p in heu)
            # the integer parts are primitive, so h and its cofactors are too
            g = ParamPoly._make(a.params, _ONE, h)
            if not g.is_constant():
                qa = ParamPoly._make(a.params, a.content, qa)
                return g, qa, ParamPoly._make(a.params, b.content, qb)
    if g.is_constant():
        return g, a, b
    return g, exact_div(a, g), exact_div(b, g)


# The primitive Euclidean PRS: the fallback once GCDHEU has tried all its
# evaluation points.


def _coeff_wrt(poly: ParamPoly, i: int, d: int) -> ParamPoly:
    """Coefficient of x_i^d, as a polynomial with x_i-exponent zeroed."""
    ints = {e[:i] + (0,) + e[i + 1:]: c for e, c in poly.prim.items() if e[i] == d}
    return ParamPoly._normal(poly.params, ints, poly.content)


def _shift(poly: ParamPoly, i: int, d: int) -> ParamPoly:
    """Multiply by x_i^d (which keeps the grlex order of the terms)."""
    ints = {e[:i] + (e[i] + d,) + e[i + 1:]: c for e, c in poly.prim.items()}
    return ParamPoly._make(poly.params, poly.content, ints)


def _content_wrt(poly: ParamPoly, i: int) -> ParamPoly:
    cont = ParamPoly.zero(poly.params)
    for d in range(poly.degree_in(i) + 1):
        c = _coeff_wrt(poly, i, d)
        if c:
            cont = _prs_gcd(cont, c)
            if cont.is_constant():
                break
    return cont


def _prem(f: ParamPoly, g: ParamPoly, i: int) -> ParamPoly:
    """Pseudo-remainder of f by g with respect to variable i."""
    dg = g.degree_in(i)
    lcg = _coeff_wrt(g, i, dg)
    r = f
    while r and r.degree_in(i) >= dg:
        dr = r.degree_in(i)
        lcr = _coeff_wrt(r, i, dr)
        r = lcg * r - _shift(lcr * g, i, dr - dg)
    return r


def _prs_gcd(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """The gcd of ``poly_gcd``, without cofactors, by content /
    primitive-part recursion."""
    if not a:
        return b.primitive()
    if not b:
        return a.primitive()
    if a.is_constant() or b.is_constant():
        return ParamPoly.const(a.params, 1)
    # main variable: lowest index occurring in either operand
    arity = len(a.params)
    main = next(
        i for i in range(arity) if a.degree_in(i) > 0 or b.degree_in(i) > 0
    )
    da, db = a.degree_in(main), b.degree_in(main)
    if da == 0 or db == 0:
        # gcd divides the content of the operand that involves main
        f, g = (a, b) if da == 0 else (b, a)
        return _prs_gcd(f, _content_wrt(g, main))
    ca, cb = _content_wrt(a, main), _content_wrt(b, main)
    pa, pb = exact_div(a, ca), exact_div(b, cb)
    cg = _prs_gcd(ca, cb)
    f, g = (pa, pb) if pa.degree_in(main) >= pb.degree_in(main) else (pb, pa)
    while True:
        r = _prem(f, g, main)
        if not r:
            break
        if r.degree_in(main) == 0:
            g = ParamPoly.const(a.params, 1)
            break
        f, g = g, exact_div(r, _content_wrt(r, main)).primitive()
    return cg * g.primitive()


def _unit_den(num: ParamPoly, den: ParamPoly):
    """num/den rescaled so den has content 1, the canonical denominator."""
    c = den.content
    if c == 1:
        return num, den
    return num * (1 / c), den.primitive()


# ---------------------------------------------------------------------------


class ParamExpr:
    """Element of the fraction field Q(params) that is not a constant.

    Canonical form: gcd(num, den) = 1 and den of content 1 (its integer part
    primitive with a positive leading coefficient under graded lex), so
    equal field elements have identical representations.  A constant has
    that form already as a ``Fraction``, which every operation returns when
    its value is constant (``c - c``, ``x / x``, ``x ** 0``, ``x * 0``); so
    a ParamExpr is never zero.
    """

    __slots__ = ("num", "den")

    def __new__(cls, num: ParamPoly, den: ParamPoly):
        """num/den in canonical form: a ``Fraction`` when it is constant."""
        if not den:
            raise DivisionByZero("zero denominator polynomial")
        _, num, den = poly_gcd(num, den)
        return _expr(*_unit_den(num, den))

    def __reduce__(self):
        # copies and pickles rebuild the canonical pair without a gcd
        return _expr, (self.num, self.den)

    @classmethod
    def var(cls, params, name):
        return _expr(ParamPoly.var(params, name), ParamPoly.const(params, 1))

    @property
    def params(self):
        return self.num.params

    # -- arithmetic --------------------------------------------------------------

    def _same_ring(self, other):
        if other.params != self.params:
            raise ValueError("parameter rings differ")

    # Henrici's scheme (Knuth, TAOCP 2, 4.5.1): both operands are coprime
    # pairs, so only a factor shared by the pieces named below can cancel.

    def _scaled(self, q):
        """self * q for a rational q; the denominator is unchanged."""
        if not q:
            return _ZERO
        return _expr(self.num * q, self.den)

    def __add__(self, other):
        a, b = self.num, self.den
        if isinstance(other, (int, Fraction)):
            # gcd(a + q*b, b) = gcd(a, b) = 1
            return _expr(a + b * other, b)
        if not isinstance(other, ParamExpr):
            return NotImplemented
        self._same_ring(other)
        c, d = other.num, other.den
        if b.is_constant():
            a, b, c, d = c, d, a, b
        # gcd(a + c*b, b) = gcd(a, b) = 1 when d = 1
        if d.is_constant():
            return _expr(a + c * b, b)
        # a/b + c/d = t / (b' d' g) with b = g b', d = g d', t = a d' + c b';
        # t is prime to b' and d', so only gcd(t, g) cancels
        g, b, d = poly_gcd(b, d)
        _, t, g = poly_gcd(a * d + c * b, g)
        return _expr(t, b * d * g)

    __radd__ = __add__

    def __neg__(self):
        return _expr(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, ParamExpr)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, ParamExpr):
            return NotImplemented
        self._same_ring(other)
        # (a/b)(c/d): only gcd(a, d) and gcd(c, b) can cancel
        _, a, d = poly_gcd(self.num, other.den)
        _, c, b = poly_gcd(other.num, self.den)
        return _expr(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZero("division by zero field element")
            return self._scaled(_ONE / other)
        if not isinstance(other, ParamExpr):
            return NotImplemented
        self._same_ring(other)
        # (a/b)/(c/d): only gcd(a, c) and gcd(d, b) can cancel
        _, a, c = poly_gcd(self.num, other.num)
        _, d, b = poly_gcd(other.den, self.den)
        return _expr(*_unit_den(a * d, b * c))

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self ** -1 * other

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("exponents must be integers")
        # powers of a coprime pair stay coprime, and a power of a primitive
        # polynomial with a positive lead stays so (Gauss's lemma)
        num, den = self.num ** abs(n), self.den ** abs(n)
        if n < 0:
            num, den = _unit_den(den, num)
        return _expr(num, den)

    def __eq__(self, other):
        # a number is never equal: a ParamExpr is not constant
        if not isinstance(other, ParamExpr):
            return NotImplemented
        self._same_ring(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, values):
        """Evaluate at a full assignment; raises PoleAtPoint where the
        denominator is not invertible.  Values may be Fractions, floats, or
        Jets."""
        num_val, den_val = self.num.evaluate(values), self.den.evaluate(values)
        try:
            return num_val / den_val
        except (ZeroDivisionError, DivisionByZero) as exc:
            raise PoleAtPoint(f"denominator vanishes at {listed(values)}") from exc

    def __str__(self):
        if self.den.is_constant():  # content 1, so den is 1
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _expr(num, den):
    """num/den for a coprime pair with den of content 1: the Fraction
    ``num.content`` (zero included) when both are constant, else the
    ParamExpr.  Every ParamExpr is made here."""
    if num.is_constant() and den.is_constant():
        return num.content
    expr = object.__new__(ParamExpr)
    expr.num, expr.den = num, den
    return expr


# ---------------------------------------------------------------------------


class GaussExpr:
    """real + i*imag over any real scalar type of this module, with the
    attribute names of ``complex`` (parameters stay real, so conjugation
    negates imag and fixes everything else)."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    def conjugate(self):
        return GaussExpr(self.real, -self.imag)

    def __bool__(self):
        return bool(self.real) or bool(self.imag)

    def _coerce(self, other):
        if isinstance(other, GaussExpr):
            return other
        if isinstance(other, _REALS):
            zero = self.real * 0
            return GaussExpr(other + zero, zero)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussExpr(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self):
        return GaussExpr(-self.real, -self.imag)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _REALS):
            return GaussExpr(self.real * other, self.imag * other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussExpr(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _REALS):
            return GaussExpr(self.real / other, self.imag / other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        inv = (other.real * other.real + other.imag * other.imag) ** -1
        return GaussExpr(
            (self.real * other.real + self.imag * other.imag) * inv,
            (self.imag * other.real - self.real * other.imag) * inv,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        return binary_power(self, n, lambda: GaussExpr(self.real ** 0, self.real * 0))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        # as for complex: with no imaginary part it hashes like its real part
        return hash((self.real, self.imag)) if self.imag else hash(self.real)

    def __str__(self):
        return f"({self.real}) + i*({self.imag})"

    __repr__ = __str__


# the float backend's tolerance for zero, applied through ``negligible``
FLOAT_TOL = 1e-9


def negligible(x, *scale):
    """Whether the scalar x counts as zero: exactly when it is falsy for an
    exact scalar; for a float or complex one, when |x| <= FLOAT_TOL *
    max(1, |s| for s in ``scale``)."""
    if isinstance(x, (float, complex)):
        return abs(x) <= FLOAT_TOL * max([1.0, *map(abs, scale)])
    return not x


def gauss(real, imag):
    """real + i*imag: a ``complex`` when the parts are floats, else a
    ``GaussExpr`` over their type."""
    if isinstance(real, float):
        return complex(real, imag)
    return GaussExpr(real, imag)


def real_part(z, what, error):
    """Re z; raises ``error`` unless Im z is ``negligible`` relative to |z|
    (exactly zero for a ``GaussExpr``)."""
    if not negligible(z.imag, z):
        raise error(f"{what} has imaginary part {z.imag}")
    return z.real


def exact_number(value, what, error):
    """The Fraction of a JSON integer or a text such as "1/10" or "0.1";
    anything else, a JSON boolean or float or a text with a run of more than
    ``MAX_DIGITS`` digits included, raises ``error`` naming ``what``."""
    if isinstance(value, float):
        exact = f'"{Fraction(repr(value))}"' if math.isfinite(value) else "a string p/q"
        raise error(f"{what} = {value!r} is a JSON float, which would bind its binary value; "
                    f"write {abridged(exact)}")
    if type(value) is int or isinstance(value, str) and not _TOO_MANY_DIGITS.search(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise error(f"{what}: bad number {abridged(repr(value))}")


def finite_float(x, what):
    """The float of an exact or float ``x``; RegionUndefined naming ``what``
    when it does not fit one: it overflows, or is a NaN or an infinity."""
    try:
        y = float(x)
    except OverflowError:
        y = math.inf
    if not math.isfinite(y):
        raise RegionUndefined(f"{what} = {abridged(str(x))} does not fit a float")
    return y


def dot(terms):
    """sum(w * x * y for x, y, w in terms), for a nonempty list of triples
    with int weights w.

    Exact sums are fused part by part (real and imaginary for
    ``GaussExpr``s).  Over ``Jet``s, with rationals taken as constant jets,
    each part is built in one numerator dict and reduced once
    (``_jet_dot``); so is a sum of ``Fraction``s (``_fraction_dot``).  Over
    ``ParamExpr``s and rationals, the products that share an uncancelled
    denominator add their numerators and are reduced once
    (``_rational_dot``).  Floats, complex numbers, ints alone and a single
    real product take the steps of the plain loop in its order: ``x * y``,
    then ``* w`` for w != 1, then ``+`` from the left, so float sums round
    as that loop does.  Exact sums come out the same either way, since
    their form is canonical.
    """
    x = terms[0][0]
    if not isinstance(x, (float, complex)) and (len(terms) > 1 or isinstance(x, GaussExpr)):
        fused = _fused_dot(terms)
        if fused is not None:
            return fused
    acc = None
    for x, y, w in terms:
        term = x * y
        if w != 1:
            term = term * w
        acc = term if acc is None else acc + term
    return acc


def _fused_dot(terms):
    """``dot`` part by part over jets, rational functions or Fractions,
    with rationals among the first two; None for any other scalar type."""
    real, imag, parts, gaussian = [], [], [], False
    for x, y, w in terms:
        xg, yg = isinstance(x, GaussExpr), isinstance(y, GaussExpr)
        xr, xi = (x.real, x.imag) if xg else (x, 0)
        yr, yi = (y.real, y.imag) if yg else (y, 0)
        parts += (xr, xi) if xg else (xr,)
        parts += (yr, yi) if yg else (yr,)
        gaussian = gaussian or xg or yg
        # (xr + i xi)(yr + i yi); a real factor adds no xi products
        real.append((xr, yr, w))
        if xg and yg:
            real.append((xi, yi, -w))
        if yg:
            imag.append((xr, yi, w))
        if xg:
            imag.append((xi, yr, w))
    kinds, rationals = set(map(type, parts)), {int, Fraction}
    halves = (real, imag) if gaussian else (real,)
    if Fraction in kinds and kinds <= rationals:
        sums = [_fraction_dot(half) for half in halves]
    elif Jet in kinds and kinds <= {Jet, *rationals}:
        ctx = next(v.ctx for v in parts if type(v) is Jet)
        if kinds != {Jet}:
            def jet(v):
                return v if type(v) is Jet else ctx.const(v)

            halves = [[(jet(x), jet(y), w) for x, y, w in half] for half in halves]
        sums = [_jet_dot(ctx, half) for half in halves]
    elif ParamExpr in kinds and kinds <= {ParamExpr, *rationals}:
        sums = [_rational_dot(half) for half in halves]
    else:
        return None
    return GaussExpr(*sums) if gaussian else sums[0]


def _fraction_dot(terms):
    """sum(w * x * y) over (x, y, w) triples of rationals: the numerators
    added on integers over the lcm of the product denominators, and one
    ``Fraction`` reduction."""
    num, den = 0, 1
    for x, y, w in terms:
        d = x.denominator * y.denominator
        n = x.numerator * y.numerator * w
        if d == den:
            num += n
        else:
            g = math.gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den *= d // g
    return Fraction(num, den)


def _den(x):
    """The denominator polynomial of a ParamExpr or rational x; None for 1."""
    if isinstance(x, ParamExpr) and not x.den.is_constant():
        return x.den
    return None


def _num(x):
    return x.num if isinstance(x, ParamExpr) else x


def _rational_dot(terms):
    """sum(w * x * y) over (x, y, w) triples of ParamExprs and rationals.

    Each product is keyed by its uncancelled denominator b d (x = a/b,
    y = c/d).  Two or more products of one key sum their numerators a c w
    with no gcd, and the sum is reduced once.  A product alone is the
    cancelled x * y * w, whose gcds are of the smaller pieces, and so are
    the products over the denominator 1.  The values of the keys are then
    added; a product with a zero factor is left out.
    """
    groups = {}
    for x, y, w in terms:
        if x and y:
            b, d = _den(x), _den(y)
            den = b if d is None else d if b is None else b * d
            groups.setdefault(den, []).append((x, y, w))
    acc = None
    for den, group in groups.items():
        if den is None or len(group) == 1:
            value = sum(x * y * w for x, y, w in group)
        else:
            num = sum(_num(x) * _num(y) * w for x, y, w in group)
            value = ParamExpr(num, den)
        acc = value if acc is None else acc + value
    return _ZERO if acc is None else acc


# ---------------------------------------------------------------------------


class JetContext:
    """Declares the small-parameter names and the truncation degree.

    The monomials of degree <= ``degree`` are numbered once, in graded
    order: by degree, then by their sorted ``(index, exponent)`` pairs, so
    index 0 is the constant and index 1 + i the i-th small parameter.  The
    first ``widths[d]`` of them are those of degree <= d.  The product table,
    built on first use, maps two indices to the index of their product; row
    i holds only the ``widths[degree - deg(i)]`` columns that fit under the
    cap.
    """

    __slots__ = ("names", "degree", "monomials", "degrees", "widths", "_table")

    def __init__(self, names, degree):
        if degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        self.names = tuple(names)
        self.degree = int(degree)
        monos = []
        for d in range(self.degree + 1):
            layer = combinations_with_replacement(range(len(self.names)), d)
            monos += sorted(tuple(sorted(Counter(c).items())) for c in layer)
        self.monomials = tuple(monos)
        self.degrees = tuple(sum(e for _, e in m) for m in monos)
        self.widths = tuple(bisect_right(self.degrees, d) for d in range(self.degree + 1))
        self._table = None

    def __eq__(self, other):
        return (
            isinstance(other, JetContext)
            and self.names == other.names
            and self.degree == other.degree
        )

    def __hash__(self):
        return hash((self.names, self.degree))

    def product_table(self):
        """Row i, column j: the index of monomial i times monomial j."""
        if self._table is None:
            index = {m: k for k, m in enumerate(self.monomials)}
            table = []
            for m1, d1 in zip(self.monomials, self.degrees):
                row = []
                for m2 in self.monomials[: self.widths[self.degree - d1]]:
                    merged = dict(m1)
                    for i, e in m2:
                        merged[i] = merged.get(i, 0) + e
                    row.append(index[tuple(sorted(merged.items()))])
                table.append(tuple(row))
            self._table = table
        return self._table

    def zero(self):
        return Jet(self, {})

    def one(self):
        return Jet(self, {0: 1})

    def const(self, value):
        value = Fraction(value)
        return Jet(self, {0: value.numerator}, value.denominator)

    def eps(self, name):
        """The basis jet for one small parameter."""
        i = self.names.index(name)
        if self.degree < 1:
            return self.zero()
        return Jet(self, {1 + i: 1})


def _add_product(ctx, out, a, b, scale):
    """out[k] += scale * (a * b)[k] for the truncated product of the
    numerator dicts a and b, both nonempty.

    Monomials are numbered by degree, so row i of the product table holds
    exactly the columns j < len(row) whose product with i fits under the
    cap."""
    if len(a) > len(b):
        a, b = b, a
    table = ctx.product_table()
    pairs = b.items()
    get = out.get
    for i, x in a.items():
        row = table[i]
        width = len(row)
        x *= scale
        for j, y in pairs:
            if j < width:
                k = row[j]
                out[k] = get(k, 0) + x * y


def _jet_dot(ctx, triples):
    """sum(s * p * q) over the (p, q, s) triples, as one Jet, for Jets p, q
    of ``ctx`` and integers s: every product is added into one numerator
    dict over the lcm of the pair denominators, and the sum is reduced
    once."""
    den = 1
    for p, q, _ in triples:
        for jet in (p, q):
            if jet.ctx is not ctx and jet.ctx != ctx:
                raise ValueError("jet contexts differ")
        den = math.lcm(den, p.den * q.den)
    out = {}
    for p, q, s in triples:
        if p.nums and q.nums:
            _add_product(ctx, out, p.nums, q.nums, s * (den // (p.den * q.den)))
    return Jet(ctx, out, den)


class Jet:
    """Truncated polynomial in the small parameters of a JetContext.

    Integer numerators by monomial index over one positive integer
    denominator, kept canonical: no zero numerator, the denominator prime
    to the numerators together, and 1 for the zero jet.  So equal jets have
    equal dicts.  Arithmetic drops every monomial of total degree above the
    context degree.
    """

    __slots__ = ("ctx", "nums", "den")

    def __init__(self, ctx, nums, den=1):
        """The jet sum(nums[k] * monomial k) / den, for a den > 0; takes
        ownership of the dict ``nums``."""
        if 0 in nums.values():
            nums = {k: n for k, n in nums.items() if n}
        if not nums:
            den = 1
        elif den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {k: n // g for k, n in nums.items()}
        self.ctx = ctx
        self.nums = nums
        self.den = den

    @property
    def terms(self):
        """The coefficients as a new {((index, exponent), ...): Fraction} dict,
        each monomial given by the sorted (small-parameter index, exponent)
        pairs of its nonzero exponents.  ``evaluate`` is the way to put
        values in place of the small parameters."""
        monos, den = self.ctx.monomials, self.den
        return {monos[k]: Fraction(n, den) for k, n in self.nums.items()}

    def evaluate(self, values):
        """Evaluate with every small parameter bound.

        ``values`` maps small-parameter name to any scalar supporting + * **
        (Fraction, Jet of another context, ...), like ``ParamPoly.evaluate``.
        Returns a Fraction for the zero jet.
        """
        vals = [values[name] for name in self.ctx.names]
        monos = self.ctx.monomials
        terms = ((monos[k], n) for k, n in self.nums.items())
        return power_sum(terms, vals, Fraction(1, self.den))

    def constant_part(self):
        return Fraction(self.nums.get(0, 0), self.den)

    def __bool__(self):
        return bool(self.nums)

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError("jet contexts differ")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return None

    def _plus(self, other, sign):
        """self + sign * other, in a copy of self's dict."""
        # over lcm(self.den, other.den) = self.den * s = other.den * t
        g = math.gcd(self.den, other.den)
        s, t = other.den // g, sign * (self.den // g)
        nums = dict(self.nums) if s == 1 else {k: n * s for k, n in self.nums.items()}
        get = nums.get
        for k, n in other.nums.items():
            nums[k] = get(k, 0) + n * t
        return Jet(self.ctx, nums, self.den * s)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if len(self.nums) < len(other.nums):
            return other._plus(self, 1)
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, {k: -n for k, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return Jet(ctx, {k: n * p for k, n in self.nums.items()}, self.den * other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        if self.nums and other.nums:
            _add_product(ctx, out, self.nums, other.nums, 1)
        return Jet(ctx, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        c0 = self.constant_part()
        if c0 == 0:
            raise DivisionByZero("jet with zero constant part is not invertible")
        # (c0 + n)^-1 = (1/c0) * sum_k (-n/c0)^k, n nilpotent past the cap
        inv0 = 1 / c0
        p = -inv0.numerator
        nil = Jet(self.ctx, {k: n * p for k, n in self.nums.items() if k},
                  self.den * inv0.denominator)
        acc = self.ctx.const(inv0)
        power = self.ctx.const(inv0)
        for _ in range(self.ctx.degree):
            power = power * nil
            if not power:
                break
            acc = acc + power
        return acc

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, n):
        if isinstance(n, int) and n < 0:
            return binary_power(self.inverse(), -n, self.ctx.one)
        return binary_power(self, n, self.ctx.one)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # a constant jet equals its Fraction, so it hashes like it
        if self.nums.keys() <= {0}:
            return hash(self.constant_part())
        return hash((self.ctx, self.den, frozenset(self.nums.items())))

    def homogeneous_part(self, degree):
        """The degree-m homogeneous layer, as a jet."""
        if degree > self.ctx.degree:
            raise TruncationTooLow(
                f"jet truncated at degree {self.ctx.degree}, "
                f"degree {degree} requested"
            )
        degs = self.ctx.degrees
        return Jet(
            self.ctx,
            {k: n for k, n in self.nums.items() if degs[k] == degree},
            self.den,
        )

    def linear_coefficients(self):
        """Gradient w.r.t. the small parameters, as a list of Fractions."""
        return [
            Fraction(self.nums.get(1 + i, 0), self.den)
            for i in range(len(self.ctx.names))
        ]

    def __str__(self):
        if not self.nums:
            return "0"
        monos, names = self.ctx.monomials, self.ctx.names
        parts = []
        for k in sorted(self.nums):
            factors = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in monos[k]]
            c = Fraction(self.nums[k], self.den)
            parts.append(str(c) + ("*" + "*".join(factors) if factors else ""))
        return " + ".join(parts)

    __repr__ = __str__


# the real scalar types that GaussExpr scales componentwise
_REALS = (int, Fraction, ParamExpr, Jet)
