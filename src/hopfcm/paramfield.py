"""Exact arithmetic over declared real parameters.

The coefficient tower used by the symbolic half of the package:

* ``Rational``          -- arbitrary-precision rationals (``fractions.Fraction``).
* ``ParamPoly``         -- multivariate polynomials in the declared parameters,
  sparse dict of exponent vectors, rational coefficients.
* ``ParamExpr``         -- the fraction field of ``ParamPoly``, kept in a
  canonical form (gcd-cancelled, primitive positive-leading denominator) so
  structural equality is field equality.
* ``GaussExpr``         -- the Gaussian extension ``re + i*im`` of any of the
  real scalar types here, used for complexified vector fields.
* ``FloatRing`` / ``GaussRing`` -- the complex scalar ring of the float and the
  exact backends (``scalar_ring`` picks one), so complexified algorithms need
  no per-type branches.
* ``Jet``               -- truncated polynomials in designated small parameters,
  used to expand focus quantities around a point of the center variety.

All values are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import DivisionByZero, PoleAtPoint, TruncationTooLow

Rational = Fraction


def rat(value, den=None) -> Fraction:
    """Build a Rational from ints, strings like '3/7', floats or Fractions."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, str):
        return Fraction(value)
    return Fraction(value)


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples, graded-lex order)


def _grlex_key(exp):
    return (sum(exp), exp)


def _mono_mul(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


class ParamPoly:
    """Sparse multivariate polynomial over Q in a fixed parameter tuple."""

    __slots__ = ("params", "terms", "_hash")

    def __init__(self, params, terms):
        self.params = tuple(params)
        self.terms = {e: c for e, c in terms.items() if c != 0}
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, params):
        return cls(params, {})

    @classmethod
    def const(cls, params, value):
        value = Fraction(value)
        n = len(params)
        if value == 0:
            return cls(params, {})
        return cls(params, {(0,) * n: value})

    @classmethod
    def var(cls, params, name):
        i = params.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(params)))
        return cls(params, {e: Fraction(1)})

    # -- basic queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        terms = self.terms
        return not terms or (len(terms) == 1 and not any(next(iter(terms))))

    def constant_value(self):
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self):
        """Leading (exponent, coefficient) under graded lex order."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

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
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return ParamPoly(self.params, terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(self.params, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _mono_mul(e1, e2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return ParamPoly(self.params, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be nonnegative integers")
        result = ParamPoly.const(self.params, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.params, frozenset(self.terms.items())))
        return self._hash

    # -- calculus / evaluation ------------------------------------------------

    def derivative(self, name):
        i = self.params.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = tuple(x - 1 if j == i else x for j, x in enumerate(e))
            out[e2] = out.get(e2, 0) + c * e[i]
        return ParamPoly(self.params, out)

    def evaluate(self, values):
        """Evaluate with every parameter bound.

        ``values`` maps parameter name to any scalar supporting + * **
        (Rational, float, Jet, ParamExpr, ...). Returns a Rational for the
        empty polynomial.
        """
        vals = [values[p] for p in self.params]
        acc = None
        for e, c in sorted(self.terms.items(), key=lambda item: _grlex_key(item[0])):
            term = c
            for v, p in zip(vals, e):
                if p:
                    term = term * v**p
            acc = term if acc is None else acc + term
        return Fraction(0) if acc is None else acc

    def substitute(self, mapping, new_params):
        """Partial substitution; unmapped parameters carry over to new_params.

        Rational values bind as Fractions, so the result is a Fraction when
        ``new_params`` is empty and a ParamExpr over ``new_params`` otherwise.
        """
        values = {}
        for p in self.params:
            if p in mapping:
                v = mapping[p]
                if isinstance(v, ParamExpr):
                    if v.num.params != tuple(new_params):
                        raise ValueError("substitution value in wrong ring")
                    values[p] = v
                else:
                    values[p] = Fraction(v)
            else:
                values[p] = ParamExpr.var(new_params, p)
        result = self.evaluate(values)
        if new_params and isinstance(result, Fraction):
            return ParamExpr.const(new_params, result)
        return result

    # -- printing -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
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
# multivariate gcd via content / primitive-part recursion


def _rational_content(poly: ParamPoly) -> Fraction:
    """Positive rational c with poly/c integer-primitive; sign from grlex lead."""
    if poly.is_zero():
        return Fraction(1)
    num_gcd = 0
    den_lcm = 1
    for c in poly.terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    _, lead = poly.leading()
    return content if lead > 0 else -content


def _scale(poly: ParamPoly, q: Fraction) -> ParamPoly:
    if q == 1:
        return poly
    return ParamPoly(poly.params, {e: c * q for e, c in poly.terms.items()})


def _coeff_wrt(poly: ParamPoly, i: int, d: int) -> ParamPoly:
    """Coefficient of x_i^d, as a polynomial with x_i-exponent zeroed."""
    out = {}
    for e, c in poly.terms.items():
        if e[i] == d:
            e2 = tuple(0 if j == i else x for j, x in enumerate(e))
            out[e2] = c
    return ParamPoly(poly.params, out)

def _shift(poly: ParamPoly, i: int, d: int) -> ParamPoly:
    """Multiply by x_i^d."""
    return ParamPoly(
        poly.params,
        {tuple(x + d if j == i else x for j, x in enumerate(e)): c
         for e, c in poly.terms.items()},
    )


def exact_div(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Quotient a/b when b divides a exactly; raises ValueError otherwise."""
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if a.is_zero():
        return a
    if b.is_constant():
        return _scale(a, 1 / b.constant_value())
    params = a.params
    rem = a
    quo = {}
    be, bc = b.leading()
    while not rem.is_zero():
        re, rc = rem.leading()
        qe = tuple(x - y for x, y in zip(re, be))
        if any(x < 0 for x in qe):
            raise ValueError("inexact polynomial division")
        qc = rc / bc
        quo[qe] = quo.get(qe, 0) + qc
        rem = rem - ParamPoly(params, {qe: qc}) * b
    return ParamPoly(params, quo)


def _content_wrt(poly: ParamPoly, i: int) -> ParamPoly:
    cont = ParamPoly.zero(poly.params)
    for d in range(poly.degree_in(i) + 1):
        c = _coeff_wrt(poly, i, d)
        if not c.is_zero():
            cont = poly_gcd(cont, c)
            if cont.is_constant():
                break
    return cont


def _prem(f: ParamPoly, g: ParamPoly, i: int) -> ParamPoly:
    """Pseudo-remainder of f by g with respect to variable i."""
    dg = g.degree_in(i)
    lcg = _coeff_wrt(g, i, dg)
    r = f
    while not r.is_zero() and r.degree_in(i) >= dg:
        dr = r.degree_in(i)
        lcr = _coeff_wrt(r, i, dr)
        r = lcg * r - _shift(lcr * g, i, dr - dg)
    return r


def _primitive_positive(poly: ParamPoly) -> ParamPoly:
    c = _rational_content(poly)
    return poly if c == 1 else _scale(poly, 1 / c)


def poly_gcd(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """gcd in Q[params], normalized integer-primitive with positive lead."""
    if a.is_zero():
        return _primitive_positive(b) if not b.is_zero() else b
    if b.is_zero():
        return _primitive_positive(a)
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
        return poly_gcd(f, _content_wrt(g, main))
    ca, cb = _content_wrt(a, main), _content_wrt(b, main)
    pa, pb = exact_div(a, ca), exact_div(b, cb)
    cg = poly_gcd(ca, cb)
    f, g = (pa, pb) if pa.degree_in(main) >= pb.degree_in(main) else (pb, pa)
    while True:
        r = _prem(f, g, main)
        if r.is_zero():
            break
        if r.degree_in(main) == 0:
            g = ParamPoly.const(a.params, 1)
            break
        f, g = g, _primitive_positive(exact_div(r, _content_wrt(r, main)))
    return _primitive_positive(cg * _primitive_positive(g))


def _unit_den(num: ParamPoly, den: ParamPoly):
    """Scale num/den so den is integer-primitive with a positive grlex lead."""
    c = _rational_content(den)
    if c == 1:
        return num, den
    return _scale(num, 1 / c), _scale(den, 1 / c)


def _split(a: ParamPoly, b: ParamPoly):
    """(g, a/g, b/g) for g = poly_gcd(a, b)."""
    g = poly_gcd(a, b)
    if g.is_constant():
        return g, a, b
    return g, exact_div(a, g), exact_div(b, g)


# ---------------------------------------------------------------------------


class ParamExpr:
    """Element of the fraction field Q(params), canonical after normalization.

    Canonical form: gcd(num, den) = 1 and den integer-primitive with positive
    leading coefficient under graded lex, so equal field elements have
    identical representations.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: ParamPoly, den: ParamPoly, _normalized=False):
        if den.is_zero():
            raise DivisionByZero("zero denominator polynomial")
        if not _normalized:
            num, den = self._normalize(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def _normalize(num, den):
        if num.is_zero():
            return num, ParamPoly.const(num.params, 1)
        _, num, den = _split(num, den)
        return _unit_den(num, den)

    @classmethod
    def _coprime(cls, num, den):
        """The canonical element num/den of a coprime pair."""
        return cls(*_unit_den(num, den), _normalized=True)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def const(cls, params, value):
        return cls(
            ParamPoly.const(params, value),
            ParamPoly.const(params, 1),
            _normalized=True,
        )

    @classmethod
    def var(cls, params, name):
        return cls(
            ParamPoly.var(params, name),
            ParamPoly.const(params, 1),
            _normalized=True,
        )

    @classmethod
    def zero(cls, params):
        return cls.const(params, 0)

    @classmethod
    def one(cls, params):
        return cls.const(params, 1)

    @classmethod
    def from_poly(cls, poly):
        return cls(poly, ParamPoly.const(poly.params, 1), _normalized=True)

    # -- queries ---------------------------------------------------------------

    @property
    def params(self):
        return self.num.params

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        return self.num.constant_value() / self.den.constant_value()

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ParamExpr):
            if other.params != self.params:
                raise ValueError("parameter rings differ")
            return other
        if isinstance(other, (int, Fraction)):
            return ParamExpr.const(self.params, other)
        if isinstance(other, ParamPoly):
            return ParamExpr.from_poly(other)
        return None

    # Henrici's scheme (Knuth, TAOCP 2, 4.5.1): both operands are coprime
    # pairs, so only a factor shared by the pieces named below can cancel.

    def _scaled(self, q):
        """self * q for a rational q; the denominator is unchanged."""
        if q == 0:
            return ParamExpr.zero(self.params)
        return ParamExpr(_scale(self.num, q), self.den, _normalized=True)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_constant():
            a, b, c, d = c, d, a, b
        # gcd(a + c*b, b) = gcd(a, b) = 1 when d = 1 (zero included)
        if d.is_constant():
            return ParamExpr(a + c * b, b, _normalized=True)
        # a/b + c/d = t / (b' d' g) with b = g b', d = g d', t = a d' + c b';
        # t is prime to b' and d', so only gcd(t, g) cancels
        g, b, d = _split(b, d)
        _, t, g = _split(a * d + c * b, g)
        return ParamExpr._coprime(t, b * d * g)

    __radd__ = __add__

    def __neg__(self):
        return ParamExpr(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_constant():
            return self._scaled(other.constant_value())
        if self.is_constant():
            return other._scaled(self.constant_value())
        # (a/b)(c/d): only gcd(a, d) and gcd(c, b) can cancel
        _, a, d = _split(self.num, other.den)
        _, c, b = _split(other.num, self.den)
        return ParamExpr._coprime(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero field element")
        if other.is_constant():
            return self._scaled(1 / other.constant_value())
        if self.is_zero():
            return self
        # (a/b)/(c/d): only gcd(a, c) and gcd(d, b) can cancel
        _, a, c = _split(self.num, other.num)
        _, d, b = _split(other.den, self.den)
        return ParamExpr._coprime(a * d, b * c)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("exponents must be integers")
        if n < 0:
            return ParamExpr.one(self.params) / self ** (-n)
        # powers of a coprime pair stay coprime, and den**n stays primitive
        # with a positive lead (Gauss's lemma)
        return ParamExpr(self.num**n, self.den**n, _normalized=True)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- calculus / evaluation ------------------------------------------------------

    def derivative(self, name):
        if name not in self.params:
            raise ValueError(f"unknown parameter {name!r}")
        dn = self.num.derivative(name)
        dd = self.den.derivative(name)
        return ParamExpr(dn * self.den - self.num * dd, self.den * self.den)

    def evaluate(self, values):
        """Evaluate at a full assignment; raises PoleAtPoint on a vanishing
        denominator.  Values may be Rationals, floats, or Jets."""
        den_val = self.den.evaluate(values)
        if _scalar_is_noninvertible(den_val):
            raise PoleAtPoint(f"denominator vanishes at {values!r}")
        num_val = self.num.evaluate(values)
        return num_val / den_val

    def substitute(self, mapping, new_params):
        """Partial substitution into a (possibly) smaller parameter ring; a
        Fraction when no parameter stays free."""
        den_sub = self.den.substitute(mapping, new_params)
        if den_sub == 0:
            raise PoleAtPoint(f"denominator vanishes under {mapping!r}")
        num_sub = self.num.substitute(mapping, new_params)
        return num_sub / den_sub

    def __str__(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _scalar_is_noninvertible(x):
    if isinstance(x, Jet):
        return x.constant_part() == 0
    if isinstance(x, ParamExpr):
        return x.is_zero()
    return x == 0


# ---------------------------------------------------------------------------


class GaussExpr:
    """re + i*im over any real scalar type of this module (parameters stay real,
    so conjugation negates im and fixes everything else)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @classmethod
    def real(cls, value):
        return cls(value, zero_like(value))

    def conj(self):
        return GaussExpr(self.re, -self.im)

    def is_zero(self):
        return is_zero_scalar(self.re) and is_zero_scalar(self.im)

    def _coerce(self, other):
        if isinstance(other, GaussExpr):
            return other
        if isinstance(other, _REALS):
            return GaussExpr(other + zero_like(self.re), zero_like(self.re))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussExpr(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussExpr(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _REALS):
            return GaussExpr(self.re * other, self.im * other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussExpr(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _REALS):
            return GaussExpr(self.re / other, self.im / other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        return GaussExpr(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be nonnegative integers")
        result = GaussExpr(one_like(self.re), zero_like(self.re))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        return f"({self.re}) + i*({self.im})"

    __repr__ = __str__


class FloatRing:
    """Complex scalars of the float backend: Python ``complex``.

    ``zero`` and ``one`` are real; ``close`` and ``real`` test against a
    relative tolerance.
    """

    zero = 0.0
    one = 1.0
    exact = False
    tol = 1e-9

    gauss = lift = complex

    @staticmethod
    def is_zero(z):
        return z == 0

    @staticmethod
    def conj(z):
        return z.conjugate()

    def close(self, p, q):
        return abs(p - q) <= self.tol * max(1.0, abs(p), abs(q))

    def real(self, z, what, error):
        """Real part of z; raises ``error`` when Im z is not negligible."""
        if abs(z.imag) > self.tol * max(1.0, abs(z)):
            raise error(f"{what} has imaginary part {z.imag}")
        return z.real


class GaussRing:
    """Complex scalars of the exact backends: ``GaussExpr`` over the real
    type of ``sample`` (Fraction, ParamExpr or Jet), compared exactly."""

    exact = True
    gauss = GaussExpr

    def __init__(self, sample):
        self.zero = zero_like(sample)
        self.one = one_like(sample)

    def lift(self, real):
        return GaussExpr(real, self.zero)

    @staticmethod
    def is_zero(z):
        return z.is_zero()

    @staticmethod
    def conj(z):
        return z.conj()

    @staticmethod
    def close(p, q):
        return (p - q).is_zero()

    @staticmethod
    def real(z, what, error):
        """Real part of z; raises ``error`` unless Im z is exactly zero."""
        if not is_zero_scalar(z.im):
            raise error(f"{what} has imaginary part {z.im}")
        return z.re


def scalar_ring(backend, sample):
    """The complex scalar ring of a backend; ``sample`` is a real scalar
    fixing the exact type (the transverse eigenvalue, say)."""
    return FloatRing() if backend == "float" else GaussRing(sample)


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
        """The coefficients as a new {((index, exponent), ...): Fraction} dict."""
        monos, den = self.ctx.monomials, self.den
        return {monos[k]: Fraction(n, den) for k, n in self.nums.items()}

    def constant_part(self):
        return Fraction(self.nums.get(0, 0), self.den)

    def is_zero(self):
        return not self.nums

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError("jet contexts differ")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if len(a.nums) < len(b.nums):
            a, b = b, a
        # over lcm(a.den, b.den) = a.den * s = b.den * t
        g = math.gcd(a.den, b.den)
        s, t = b.den // g, a.den // g
        nums = dict(a.nums) if s == 1 else {k: n * s for k, n in a.nums.items()}
        get = nums.get
        for k, n in b.nums.items():
            nums[k] = get(k, 0) + n * t
        return Jet(self.ctx, nums, a.den * s)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, {k: -n for k, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

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
        a, b = self.nums, other.nums
        if len(a) > len(b):
            a, b = b, a
        # fits[d]: b's terms of degree <= d, those of index < widths[d]
        items = sorted(b.items())
        fits = [items[: bisect_left(items, (w,))] for w in ctx.widths]
        cap, degs, table = ctx.degree, ctx.degrees, ctx.product_table()
        out = {}
        get = out.get
        for i, x in a.items():
            row = table[i]
            for j, y in fits[cap - degs[i]]:
                k = row[j]
                out[k] = get(k, 0) + x * y
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
            if power.is_zero():
                break
            acc = acc + power
        return acc

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be nonnegative integers")
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        """Gradient w.r.t. the small parameters, as a list of Rationals."""
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


# ---------------------------------------------------------------------------
# scalar dispatch helpers shared by the generic algorithms


def zero_like(x):
    if isinstance(x, ParamExpr):
        return ParamExpr.zero(x.params)
    if isinstance(x, Jet):
        return x.ctx.zero()
    if isinstance(x, Fraction):
        return Fraction(0)
    if isinstance(x, float):
        return 0.0
    raise TypeError(f"no zero for {type(x)!r}")


def one_like(x):
    if isinstance(x, ParamExpr):
        return ParamExpr.one(x.params)
    if isinstance(x, Jet):
        return x.ctx.one()
    if isinstance(x, Fraction):
        return Fraction(1)
    if isinstance(x, float):
        return 1.0
    raise TypeError(f"no one for {type(x)!r}")


def is_zero_scalar(x):
    if isinstance(x, (ParamExpr, Jet, GaussExpr)):
        return x.is_zero()
    return x == 0
