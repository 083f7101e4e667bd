"""Polynomial vector fields on three-dimensional state space.

Evaluation, Jacobians and the Hopf eigenvalue test,
affine/linear changes of coordinates with time rescaling, and the binding
of parameter values: a field is built once, by evaluating its coefficient
formulas at the values (``bind``; ``parse_system`` for documents).
Coefficients are either exact field elements (``ParamExpr``/``Fraction``/
``Jet``) or machine floats; the algorithms are generic over the scalar
type, which the coefficients declare themselves (``VectorField3.zero``).
"""

from __future__ import annotations

import json
import math
from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import add
from typing import Optional

from .errors import DivisionByZero, HopfcmError, PoleAtPoint, SchemaError, SingularTransform, listed
from . import grammar
from .paramfield import (
    MAX_DIGITS, Jet, ParamExpr, binary_power, dot, exact_number, finite_float, negligible,
    power_sum,
)


class StatePoly:
    """Sparse polynomial with generic coefficients, keyed by exponent tuples
    of one length: the three state variables, or the one variable e^{i theta}
    of a Fourier polynomial in ``period`` (exponents of either sign).  Zero
    exactly when falsy, like every scalar."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, value):
        return cls({(0, 0, 0): value})

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def __add__(self, other):
        if not isinstance(other, StatePoly):
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                terms[e] = terms[e] + c
            else:
                terms[e] = c
        return StatePoly(terms)

    def __neg__(self):
        return StatePoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, StatePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, StatePoly):
            return NotImplemented
        # each monomial's products are summed by ``dot`` as one list
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                if e in out:
                    out[e].append((c1, c2, 1))
                else:
                    out[e] = [(c1, c2, 1)]
        return StatePoly({e: dot(terms) for e, terms in out.items()})

    def scale(self, factor):
        return StatePoly({e: c * factor for e, c in self.terms.items()})

    def __pow__(self, n):
        return binary_power(self, n, self._one)

    def _one(self):
        if not self.terms:
            raise ValueError("0**0 of an empty polynomial needs a coefficient ring")
        e, c = next(iter(self.terms.items()))
        return StatePoly({(0,) * len(e): c ** 0})

    def diff(self, axis):
        # distinct monomials have distinct derivatives, so none collide
        return StatePoly({
            tuple(x - 1 if j == axis else x for j, x in enumerate(e)): c * e[axis]
            for e, c in self.terms.items() if e[axis]
        })

    def evaluate(self, point, zero):
        """The value at ``point``; ``zero`` for the zero polynomial."""
        terms = (([(i, p) for i, p in enumerate(e) if p], c) for e, c in self.terms.items())
        return power_sum(terms, point, zero=zero)

    def map_coeffs(self, fn):
        return StatePoly({e: fn(c) for e, c in self.terms.items()})

    def compose(self, subs):
        """Substitute each state variable by the StatePoly in ``subs``."""
        acc = None
        for e, c in self.terms.items():
            term = StatePoly.const(c)
            for s, p in zip(subs, e):
                if p:
                    term = term * s**p
            acc = term if acc is None else acc + term
        return StatePoly.zero() if acc is None else acc

    def chop(self, tol):
        """Drop float coefficients below tol in absolute value."""
        return StatePoly(
            {e: c for e, c in self.terms.items() if abs(c) > tol}
        )

    def __eq__(self, other):
        if not isinstance(other, StatePoly):
            return NotImplemented
        return not self - other

    def __str__(self):
        if not self.terms:
            return "0"
        names = ("x1", "x2", "x3")
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            mono = "*".join(
                n if p == 1 else f"{n}^{p}" for n, p in zip(names, e) if p
            )
            c = self.terms[e]
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    __repr__ = __str__


@dataclass
class VectorField3:
    """Three StatePolys and the declared parameter tuple; the number type is
    that of the coefficients."""

    components: tuple
    _: KW_ONLY
    params: tuple = ()

    def evaluate(self, point):
        return tuple(c.evaluate(point, self.zero) for c in self.components)

    @cached_property
    def zero(self):
        """The zero of the coefficients' number type: 0.0 when any
        coefficient is a float, else ``Fraction(0)``, the zero of ``ParamExpr``
        and ``Jet`` arithmetic too.  Built on first use and kept: components
        are not modified after construction."""
        if any(isinstance(c, float) for comp in self.components for c in comp.terms.values()):
            return 0.0
        return Fraction(0)

    @cached_property
    def monomials(self):
        """Per component, the (float coefficient, exponents) pairs of the
        Taylor kernel of ``simulate``; built on first use and kept."""
        return tuple(
            tuple((finite_float(c, "a coefficient"), e) for e, c in comp.terms.items())
            for comp in self.components
        )

    def jacobian_at(self, point):
        return [
            [self.components[i].diff(j).evaluate(point, self.zero) for j in range(3)]
            for i in range(3)
        ]

    def to_float(self):
        """The float field of a bound field, every coefficient through ``finite_float``.

        Raises HopfcmError naming the free parameters; bind them first
        (``bind``).  A coefficient that does not fit a float is RegionUndefined.
        """
        if self.params:
            raise HopfcmError(
                f"parameter(s) {list(self.params)} are free; a float field needs values"
            )
        to_float = partial(finite_float, what="a coefficient")
        return VectorField3(tuple(c.map_coeffs(to_float) for c in self.components))


@dataclass
class HopfReport:
    """Outcome of the eigenvalue test at an equilibrium.

    ``is_hopf`` is None when the sign conditions are undecidable symbolically;
    ``conditions`` always carries the residuals (gamma - alpha*beta, beta,
    alpha) for inspection.  ``omega_squared`` is beta.
    """

    is_hopf: Optional[bool]
    omega_squared: object
    lambda3: object
    conditions: dict

    @property
    def omega(self):
        """sqrt(beta) when beta is a known positive constant, else None."""
        beta = known_value(self.omega_squared)
        return finite_float(beta, "omega^2") ** 0.5 if beta is not None and beta > 0 else None

    def eigenvalues(self):
        """+/- i omega and lambda3, which are the spectrum only at a Hopf
        point; None unless ``is_hopf`` is True."""
        if not self.is_hopf:
            return None
        w = self.omega
        return (complex(0, w), complex(0, -w),
                complex(finite_float(known_value(self.lambda3), "lambda3"), 0))


def known_value(x):
    """The Fraction or float value of a scalar that depends on no free
    parameter (a constant Jet included), else None: a ParamExpr is never
    constant."""
    if isinstance(x, Jet):
        return x.constant_part() if x == x.constant_part() else None
    return x if isinstance(x, (int, Fraction, float)) else None


def hopf_test(m) -> HopfReport:
    """Purely imaginary pair plus nonzero real eigenvalue of the 3x3 matrix m.

    Its characteristic polynomial is lam^3 + alpha lam^2 + beta lam + gamma
    with alpha = -trace, beta the sum of the principal 2x2 minors (the
    diagonal cofactors) and gamma = -det, expanded along row 0.  Requires
    gamma - alpha*beta = 0, beta > 0 and alpha != 0; then the spectrum is
    +/- sqrt(beta) i together with -alpha.  Zero means ``negligible``:
    exactly for exact values, and for floats the residual relative to
    max(1, |gamma|, |alpha*beta|), beta and alpha absolutely.  ``is_hopf``
    is None when a free parameter leaves a condition undecided.
    """
    c00 = _cofactor(m, 0, 0)
    alpha = -(m[0][0] + m[1][1] + m[2][2])
    beta = _cofactor(m, 2, 2) + _cofactor(m, 1, 1) + c00
    gamma = -(m[0][0] * c00 + m[0][1] * _cofactor(m, 0, 1) + m[0][2] * _cofactor(m, 0, 2))
    alpha_beta = alpha * beta
    residual = gamma - alpha_beta
    conditions = {"gamma_minus_alpha_beta": residual, "beta": beta, "alpha": alpha}
    res, b, a = known_value(residual), known_value(beta), known_value(alpha)
    if res is not None and not negligible(res, gamma, alpha_beta):
        ok = False  # residual provably nonzero
    elif res is None or b is None or a is None:
        ok = None
    else:
        ok = b > 0 and not negligible(b) and not negligible(a)
    return HopfReport(ok, beta, -alpha, conditions)


# ---------------------------------------------------------------------------
# coordinate changes


def _cofactor(m, i, j):
    """The signed cofactor of entry (i, j) of a 3x3 matrix: with the other
    rows and columns taken cyclically, the sign comes out of the order."""
    r, s = (i + 1) % 3, (i + 2) % 3
    p, q = (j + 1) % 3, (j + 2) % 3
    return m[r][p] * m[s][q] - m[r][q] * m[s][p]


def _mat_inv3(m):
    """The inverse as the transposed cofactors over the determinant, which
    is expanded along row 0.  A float M is inverted as (DM)^-1 D: D scales
    each row by a power of two (at most 2^1021) to a largest entry in
    [1/2, 1), exactly, so that det(DM) does not underflow.  M is numerically
    singular when |det(DM)| over the product of DM's row norms is
    ``negligible``: Hadamard's ratio, 1 for orthogonal rows, 0 for dependent."""
    scales = (1, 1, 1)
    if any(isinstance(x, float) for row in m for x in row):
        scales = [math.ldexp(1.0, min(1021, -math.frexp(max(map(abs, row)))[1])) for row in m]
        m = [[x * d for x in row] for row, d in zip(m, scales)]
    cof = [[_cofactor(m, i, j) for j in range(3)] for i in range(3)]
    det = m[0][0] * cof[0][0] + m[0][1] * cof[0][1] + m[0][2] * cof[0][2]
    if not det:
        raise SingularTransform("transform matrix is singular")
    if isinstance(det, float) and negligible(abs(det) / math.prod(math.hypot(*r) for r in m)):
        raise SingularTransform("transform matrix is numerically singular")
    return [[cof[j][i] / det * scales[j] for j in range(3)] for i in range(3)]


def transform(fld: VectorField3, shift, linear, time_scale) -> VectorField3:
    """Express the dynamics in new coordinates u with x = shift + linear @ u,
    after the time rescaling tau = time_scale * t (the field divides by it).
    """
    inv = _mat_inv3(linear)
    if not time_scale:
        raise SingularTransform("time_scale must be nonzero")
    subs = []
    for i in range(3):
        terms = {}
        if shift[i]:
            terms[(0, 0, 0)] = shift[i]
        for j in range(3):
            if linear[i][j]:
                e = tuple(1 if t == j else 0 for t in range(3))
                terms[e] = linear[i][j]
        subs.append(StatePoly(terms))
    composed = [c.compose(subs) for c in fld.components]
    inv_scale = 1 / time_scale
    new_comps = []
    for i in range(3):
        acc = None
        for j in range(3):
            if not inv[i][j]:
                continue
            part = composed[j].scale(inv[i][j])
            acc = part if acc is None else acc + part
        acc = StatePoly.zero() if acc is None else acc
        new_comps.append(acc.scale(inv_scale))
    return VectorField3(tuple(new_comps), params=fld.params)


# ---------------------------------------------------------------------------
# binding parameter values


def bind(params, values, rows) -> VectorField3:
    """The field whose coefficient rows ``rows`` computes at ``values``.

    ``rows`` takes one value per name of ``params``, in order, in any
    number type.  ``values`` maps names to values, or is a function that
    makes that map from ``params``.  A value is a Jet, a ParamExpr, or
    anything ``Fraction`` accepts; a parameter left out is a variable of the
    result's ring: the ring of any ParamExpr value, else the parameters left
    out, in order.  Raises SchemaError on a name not in ``params`` or on a
    parameter left out beside a Jet value (jets have no parameter ring), and
    PoleAtPoint where a coefficient divides by zero.
    """
    if callable(values):
        values = values(params)
    refuse_unknown(params, values)
    free = tuple(p for p in params if p not in values)
    if free and any(isinstance(v, Jet) for v in values.values()):
        raise SchemaError(f"parameter(s) {list(free)} have no value")
    ring = next((v.params for v in values.values() if isinstance(v, ParamExpr)), free)
    scope = {p: ParamExpr.var(ring, p) for p in free}
    for p, v in values.items():
        scope[p] = v if isinstance(v, (ParamExpr, Jet)) else Fraction(v)
    try:
        coefficient_rows = rows(*(scope[p] for p in params))
    except (ZeroDivisionError, DivisionByZero) as exc:
        raise PoleAtPoint(f"a coefficient has a pole at {listed(values)}") from exc
    # an integer literal of ``rows`` becomes a Fraction like every other number
    comps = tuple(
        StatePoly({e: Fraction(c) if type(c) is int else c for e, c in row.items()})
        for row in coefficient_rows
    )
    return VectorField3(comps, params=ring)


def refuse_unknown(params, values):
    """Raise SchemaError on a name of ``values`` not in ``params``."""
    unknown = set(values) - set(params)
    if unknown:
        raise SchemaError(f"unknown parameter(s) {sorted(unknown)}")


def refuse_jets(values):
    """Raise HopfcmError on values given as a function of the parameters
    (``cyclicity.jet_system`` gives its jets so) or on a jet among them: a
    float system binds numbers only."""
    if callable(values) or any(isinstance(v, Jet) for v in values.values()):
        raise HopfcmError("jet expansions need an exact-backend system")


# ---------------------------------------------------------------------------
# system-definition documents


def _json_int(text):
    """A JSON integer; a ValueError past ``MAX_DIGITS`` digits, whatever the limit."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"an integer has more than {MAX_DIGITS} digits")
    return int(text)


def read_json(path, required, what):
    """The JSON object in the file ``path`` (a ``what``); a SchemaError when
    it is not valid JSON, not an object, or lacks a key in ``required``."""
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_int=_json_int)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} {path} is not a JSON object")
    missing = [k for k in required if k not in doc]
    if missing:
        raise SchemaError(f"{what} {path} lacks {missing}")
    return doc


def parse_system(document, values=None) -> VectorField3:
    """Build a field from a system document's dict (see the schema in README),
    with the document's parameter values and ``values``, which binds only
    those it leaves null, bound through ``bind``.

    Schema: {"backend": "exact"|"float", "params": {name: value-or-null},
    "state_vars": [s1, s2, s3], "equations": [[{"exp": [i,j,k],
    "coeff": "<grammar string>"}...] x3]}.  A value is an ``exact_number``,
    or a JSON float for the float backend, which refuses a number that does
    not fit a float (RegionUndefined).  A coefficient is evaluated as written,
    so one that divides by zero at the bound values is a SchemaError, even
    where it cancels (0/0)."""
    values = values or {}
    backend = document.get("backend")
    if backend not in ("exact", "float"):
        raise SchemaError("backend must be 'exact' or 'float'")
    params_doc = document.get("params", {})
    if not isinstance(params_doc, dict):
        raise SchemaError("params must be an object")
    state_vars = document.get("state_vars")
    if not (isinstance(state_vars, list) and len(state_vars) == 3):
        raise SchemaError("state_vars must list exactly three names")
    equations = document.get("equations")
    if not (isinstance(equations, list) and len(equations) == 3):
        raise SchemaError("equations must list exactly three components")
    if any(not eq for eq in equations):
        raise SchemaError("empty equations array")
    if backend == "float":
        refuse_jets(values)
        refuse_unknown((), values)
        scope = {}
        for k, v in params_doc.items():
            number = v if isinstance(v, float) else exact_number(v, f"parameter {k}", SchemaError)
            scope[k] = finite_float(number, f"parameter {k}")
        literal = partial(finite_float, what="a coefficient literal")
        rows = _rows(equations, lambda text: grammar.evaluate(text, scope, literal))
        return VectorField3(tuple(StatePoly(row) for row in rows)).to_float()
    fixed = {k: exact_number(v, f"parameter {k}", SchemaError)
             for k, v in params_doc.items() if v is not None}
    free = tuple(sorted(k for k, v in params_doc.items() if v is None))

    def rows(*free_values):
        scope = {**fixed, **dict(zip(free, free_values))}
        return _rows(equations, lambda text: grammar.evaluate(text, scope, Fraction))

    return bind(free, values, rows)


def _rows(equations, evaluate):
    """The coefficient rows of a document's equations, the text of each
    coefficient evaluated by ``evaluate``; a repeated exponent sums its
    coefficients."""
    rows = []
    for eq in equations:
        terms = {}
        for item in eq:
            if not isinstance(item, dict) or "exp" not in item or "coeff" not in item:
                raise SchemaError("each monomial needs 'exp' and 'coeff'")
            exp = item["exp"]
            if (
                not isinstance(exp, list)
                or len(exp) != 3
                or any(not isinstance(e, int) or e < 0 for e in exp)
            ):
                raise SchemaError(f"malformed monomial exponent {exp!r}")
            e = tuple(exp)
            coeff = evaluate(item["coeff"])
            if e in terms:
                terms[e] = terms[e] + coeff
            else:
                terms[e] = coeff
        rows.append(terms)
    return rows

