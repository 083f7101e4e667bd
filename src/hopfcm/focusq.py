"""Focus quantities via the formal-first-integral recursion.

Starting from the canonical normal form (udot = -v + P, vdot = u + Q,
wdot = lam w + R), the complex variables x = u + iv, y = u - iv, z = w turn
the system into

    xdot = ix + sum a_jkl x^j y^k z^l,
    ydot = -iy + sum b_jkl x^j y^k z^l,
    zdot = lam z + sum c_jkl x^j y^k z^l,

with b_jkl = conj(a_kjl) and c_jkl = conj(c_kjl).  A formal series
Psi = xy + sum d_K x^K is built degree by degree: writing the derivative of
Psi along the field as a sum of monomial coefficients L_K, every coefficient
with K != (k,k,0) is killed by choosing d_K = -S_K / (i(k1-k2) + lam k3),
whose divisor never vanishes for lam != 0.  The obstructions at (k,k,0),
with the normalization d_kk0 = 0, are the focus quantities L_{k-1}; the
origin is a center on the center manifold exactly when they all vanish.

The recursion is generic over the coefficient scalar: exact rational
functions, rationals, truncated jets (for expansions around a center point),
or machine complex numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateLambda,
    HopfcmError,
    NotAFirstIntegralCandidate,
    NotRealSystem,
)
from .normalform import NormalForm3, to_normal_form
from .paramfield import Jet, scalar_ring
from .polysys import StatePoly, VectorField3


@dataclass
class ComplexSystem:
    """Complexified quadratic+ coefficients and the transverse eigenvalue.

    ``sigma`` is an optional trace term on the rotation block (xdot =
    (sigma + i) x + ...); it must be an infinitesimal (zero-constant jet),
    so the monomials (k, k, 0) stay obstructions.
    """

    a: dict
    b: dict
    c: dict
    lam: object
    backend: str
    sigma: object = None


@dataclass
class FocusReport:
    """Ordered focus quantities with normalization metadata.

    The quantities are reported in the convention where the derivative of
    Psi along the field is sum_j L_{j-1} (x y)^j with x y = u^2 + v^2, and
    the series normalization d_kk0 = 0.
    """

    quantities: list
    backend: str
    normalization: str = "psi-coefficients d_kk0 = 0; quantities real"


def complexify(nf: NormalForm3) -> ComplexSystem:
    """Complex coefficient extraction; requires canonical orientation."""
    if nf.orientation != 1:
        raise ValueError("complexify needs the canonical (+1) orientation frame")
    ring = scalar_ring(nf.lam)
    half = ring.one * Fraction(1, 2)
    half_i = ring.gauss(ring.zero, half)
    # u = (x + y)/2, v = -i/2 (x - y), w = z
    subs = [
        StatePoly({(1, 0, 0): ring.lift(half), (0, 1, 0): ring.lift(half)}),
        StatePoly({(1, 0, 0): -half_i, (0, 1, 0): half_i}),
        StatePoly({(0, 0, 1): ring.lift(ring.one)}),
    ]
    P, Q = nf.P.terms, nf.Q.terms
    # P + iQ coefficient by coefficient; P - iQ is its conjugate
    P_iQ = StatePoly(
        {e: ring.gauss(P.get(e, ring.zero), Q.get(e, ring.zero)) for e in {**P, **Q}}
    )
    X1 = P_iQ.compose(subs)
    X2 = P_iQ.map_coeffs(ring.conj).compose(subs)
    X3 = nf.R.map_coeffs(ring.lift).compose(subs)
    cs = ComplexSystem(
        dict(X1.terms), dict(X2.terms), dict(X3.terms), nf.lam, nf.field.backend
    )
    _check_reality(cs)
    return cs


def _check_reality(cs: ComplexSystem):
    ring = scalar_ring(cs.lam)
    zero = ring.lift(ring.zero)
    pairs = (("a", cs.a, "b", cs.b), ("b", cs.b, "a", cs.a), ("c", cs.c, "c", cs.c))
    for name, coeffs, other_name, other in pairs:
        for (j, k, l), coeff in coeffs.items():
            if not ring.close(other.get((k, j, l), zero), ring.conj(coeff)):
                raise NotRealSystem(
                    f"{other_name}[{k},{j},{l}] != conj({name}[{j},{k},{l}])"
                )


@dataclass
class PsiSeries:
    """Coefficients d_K of the formal series Psi = xy + sum d_K x^K.

    The normalization zeroes every diagonal coefficient d_kk0, which makes the
    obstruction values unique.
    """

    coefficients: dict
    truncation_degree: int
    normalization: str = "d_kk0 = 0"


def focus_quantities(cs: ComplexSystem, n: int) -> FocusReport:
    """First n focus quantities through monomial degree 2n + 2."""
    quantities, _ = _psi_recursion(cs, n)
    return FocusReport(quantities, cs.backend)


def psi_series(cs: ComplexSystem, n: int) -> PsiSeries:
    """The formal series built alongside the first n focus quantities."""
    _, d = _psi_recursion(cs, n)
    return PsiSeries(d, 2 * n + 2)


def _psi_recursion(cs: ComplexSystem, n: int):
    if n < 1:
        raise HopfcmError(f"the focus recursion needs n >= 1, got {n}")
    if not cs.lam:
        raise DegenerateLambda("transverse eigenvalue is zero")
    lam = cs.lam
    sigma = cs.sigma
    if sigma is not None:
        if not isinstance(sigma, Jet) or sigma.constant_part() != 0:
            raise ValueError("sigma must be a zero-constant jet")
    ring = scalar_ring(lam)

    def divisor(k1, k2, k3):
        re = lam * k3 if k3 else ring.zero
        if sigma is not None and k1 + k2:
            re = re + sigma * (k1 + k2)
        return ring.gauss(re, ring.one * (k1 - k2))

    # contributions of each component: (coeff dict, exponent offset axis)
    comps = ((cs.a, 0), (cs.b, 1), (cs.c, 2))
    d = {(1, 1, 0): ring.lift(ring.one)}
    quantities = []
    for m in range(3, 2 * n + 3):
        layer = {}
        for k1 in range(m, -1, -1):
            for k2 in range(m - k1, -1, -1):
                k3 = m - k1 - k2
                target = (k1, k2, k3)
                S = None
                for coeffs, axis in comps:
                    for (j, k, l), coeff in coeffs.items():
                        kap = [k1 - j, k2 - k, k3 - l]
                        kap[axis] += 1
                        factor = kap[axis]
                        if factor <= 0 or kap[0] < 0 or kap[1] < 0 or kap[2] < 0:
                            continue
                        dk = d.get((kap[0], kap[1], kap[2]))
                        if dk is None:
                            continue
                        term = coeff * dk
                        if factor != 1:
                            term = term * factor
                        S = term if S is None else S + term
                if S is None:
                    continue
                if k1 == k2 and k3 == 0:
                    layer[target] = S  # obstruction; d stays zero
                elif S:
                    d[target] = -S / divisor(k1, k2, k3)
        if m % 2 == 0 and m >= 4:
            k = m // 2
            S = layer.get((k, k, 0))
            if S is None:
                quantities.append(ring.zero)
            else:
                quantities.append(ring.real(S, "focus quantity", NotRealSystem))
    return quantities, d


def identity_defect(cs: ComplexSystem, n: int):
    """Residual of the defining identity through degree 2n + 2.

    Differentiates the built Psi along the complex field with plain
    polynomial arithmetic, sharing no code with the recursion, and subtracts
    sum_j L_{j-1} (xy)^j; every coefficient of degree 3..2n+2 must cancel.
    (Degree 2 is the linear part acting on xy, which the recursion takes as
    given.)  Returns the worst surviving magnitude (floats) or raises
    AssertionError on a symbolic survivor.
    """
    quantities, d = _psi_recursion(cs, n)
    ring = scalar_ring(cs.lam)
    sigma = ring.zero if cs.sigma is None else cs.sigma
    # xdot = (sigma + i) x + X1, ydot = (sigma - i) y + X2, zdot = lam z + X3
    field = (
        StatePoly({(1, 0, 0): ring.gauss(sigma, ring.one)}) + StatePoly(cs.a),
        StatePoly({(0, 1, 0): ring.gauss(sigma, -ring.one)}) + StatePoly(cs.b),
        StatePoly({(0, 0, 1): ring.lift(cs.lam)}) + StatePoly(cs.c),
    )
    psi = StatePoly(d)
    defect = StatePoly(
        {(j, j, 0): -ring.lift(L) for j, L in enumerate(quantities, start=2)}
    )
    for axis, comp in enumerate(field):
        defect = defect + psi.diff(axis) * comp
    top = 2 * n + 2
    survivors = {e: c for e, c in defect.terms.items() if 3 <= sum(e) <= top}
    if not ring.exact:
        return max(map(abs, survivors.values()), default=0.0)
    if survivors:
        e, c = next(iter(survivors.items()))
        raise AssertionError(f"identity defect at monomial {e}: {c}")
    return 0.0


def verify_first_integral(fld: VectorField3, H: StatePoly, tol: float = 1e-9) -> bool:
    """True iff the derivative of H along the field is the zero polynomial."""
    if H.total_degree() <= 0:
        raise NotAFirstIntegralCandidate("candidate is constant")
    acc = None
    for axis in range(3):
        part = fld.components[axis] * H.diff(axis)
        acc = part if acc is None else acc + part
    if acc is None:
        return True
    # exact survivors are nonzero (StatePoly drops zeros); floats get ``tol``
    return all(isinstance(c, float) and abs(c) <= tol for c in acc.terms.values())


def report_for_field(
    fld: VectorField3,
    n: int,
    equilibrium=None,
    matrix=None,
    time_scale=None,
) -> FocusReport:
    """Normal form -> canonical frame -> complexify -> focus quantities."""
    if equilibrium is None:
        zero = fld._zero()
        equilibrium = (zero, zero, zero)
    nf = to_normal_form(fld, equilibrium, matrix=matrix, time_scale=time_scale)
    cs = complexify(nf.canonical())
    return focus_quantities(cs, n)


def verify_center_conditions(fld: VectorField3, condition: dict, n: int) -> bool:
    """True iff L_1..L_n vanish identically under the parameter substitution."""
    bound = fld.substitute_params(condition)  # raises PoleAtPoint
    if all(
        comp.homogeneous_component(deg).is_zero()
        for comp in bound.components
        for deg in range(2, comp.total_degree() + 1)
    ):
        return True  # linear system: every obstruction vanishes
    report = report_for_field(bound, n)
    return not any(report.quantities)
