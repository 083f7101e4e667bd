"""Focus quantities via the formal-first-integral recursion.

``complexify`` reads a normal form of either orientation.  For +1
(udot = -v + P, vdot = u + Q, wdot = lam w + R) the complex variables
x = u + iv, y = u - iv, z = w, and for -1 (udot = v + P, vdot = -u + Q) the
turned ones x = v + iu, y = v - iu, z = w, turn the system into

    xdot = ix + sum a_jkl x^j y^k z^l,
    ydot = -iy + sum b_jkl x^j y^k z^l,
    zdot = lam z + sum c_jkl x^j y^k z^l,

where b_jkl = conj(a_kjl) and c_jkl = conj(c_kjl) hold by construction,
since P, Q and R are real; so only a and c are composed.  A formal series
Psi = xy + sum d_K x^K is built degree by degree: writing the derivative of
Psi along the field as a sum of monomial coefficients L_K, every coefficient
with K != (k,k,0) is killed by choosing d_K = -S_K / (i(k1-k2) + lam k3),
whose divisor never vanishes for lam != 0.  The obstructions at (k,k,0),
with the normalization d_kk0 = 0, are the focus quantities L_{k-1}; the
origin is a center on the center manifold exactly when they all vanish.

The same reality makes Psi real: d_{k2,k1,k3} = conj(d_{k1,k2,k3}).  The
recursion therefore computes only the coefficients with k1 >= k2 and
mirrors the rest by conjugation, which relies on the b = conj(a) mirror
that ``complexify`` builds.

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
from .paramfield import dot, gauss, negligible, real_part
from .polysys import StatePoly, VectorField3


@dataclass
class ComplexSystem:
    """Complexified quadratic+ coefficients and the transverse eigenvalue.

    The focus recursion assumes the system is real: b_jkl = conj(a_kjl) and
    c_jkl = conj(c_kjl), as ``complexify`` builds them.  It computes half of
    the Psi coefficients and mirrors the rest on that assumption; a system
    built by hand that breaks it is caught only where it leaves an obstruction
    with an imaginary part (``NotRealSystem``).
    """

    a: dict
    b: dict
    c: dict
    lam: object


@dataclass
class FocusReport:
    """Ordered focus quantities with normalization metadata.

    The quantities are reported in the convention where the derivative of
    Psi along the field is sum_j L_{j-1} (x y)^j with x y = u^2 + v^2, and
    the series normalization d_kk0 = 0.  ``backend`` labels the number type
    the recursion ran in, "exact" or "float", as read off the transverse
    eigenvalue.
    """

    quantities: list
    backend: str
    normalization = "psi-coefficients d_kk0 = 0; quantities real"


def complexify(nf: NormalForm3) -> ComplexSystem:
    """Complex coefficients a, b, c of the normal form in either orientation.

    Orientation +1 (udot = -v + P) takes x = u + iv and composes P + iQ;
    orientation -1 (udot = v + P) takes the turned frame x = v + iu, so
    u = -i(x - y)/2, v = (x + y)/2, and composes Q + iP.  Both give
    xdot = ix + ...  P, Q and R are real, so b is the conjugate mirror
    b_jkl = conj(a_kjl) and needs no composition of its own.
    """
    one = nf.lam ** 0
    zero = one * 0
    half = one * Fraction(1, 2)
    half_i = gauss(zero, half)
    re = StatePoly({(1, 0, 0): gauss(half, zero), (0, 1, 0): gauss(half, zero)})
    im = StatePoly({(1, 0, 0): -half_i, (0, 1, 0): half_i})
    z = StatePoly({(0, 0, 1): gauss(one, zero)})
    P, Q = nf.P.terms, nf.Q.terms
    subs = [re, im, z]
    if nf.orientation == -1:
        P, Q, subs = Q, P, [im, re, z]
    P_iQ = StatePoly(
        {e: gauss(P.get(e, zero), Q.get(e, zero)) for e in {**P, **Q}}
    )
    a = P_iQ.compose(subs).terms
    b = {(k, j, l): coeff.conjugate() for (j, k, l), coeff in a.items()}
    c = nf.R.map_coeffs(lambda x: gauss(x, zero)).compose(subs).terms
    return ComplexSystem(a, b, c, nf.lam)


def focus_quantities(cs: ComplexSystem, n: int) -> FocusReport:
    """First n focus quantities through monomial degree 2n + 2."""
    quantities, _ = _psi_recursion(cs, n)
    return FocusReport(quantities, "float" if isinstance(cs.lam, float) else "exact")


def _psi_recursion(cs: ComplexSystem, n: int):
    """Focus quantities L_1..L_n and the Psi coefficients d through degree
    2n + 2.

    Each d of layer m comes from layers below m only, so within a layer the
    targets are independent.  Only those with k1 >= k2 are computed; each
    d_{k1,k2,k3} with k1 != k2 is stored with its mirror d_{k2,k1,k3} =
    conj(d_{k1,k2,k3}).  That halves the work and relies on
    b_jkl = conj(a_kjl) and c_jkl = conj(c_kjl), which ``complexify``
    guarantees.  Each target's products go to ``dot`` as one sum: over
    jets and over rational functions it reduces each part once, or once per
    shared denominator, so the identities' type (a jet or a Fraction) does
    not change which path a sum takes.
    """
    if n < 1:
        raise HopfcmError(f"the focus recursion needs n >= 1, got {n}")
    if not cs.lam:
        raise DegenerateLambda("transverse eigenvalue is zero")
    lam = cs.lam
    one = lam ** 0
    zero = one * 0  # not lam * 0, which is -0.0 for a negative float lam

    def divisor(k1, k2, k3):
        return gauss(lam * k3 if k3 else zero, one * (k1 - k2))

    # contributions of each component: (coeff dict, exponent offset axis)
    comps = ((cs.a, 0), (cs.b, 1), (cs.c, 2))
    d = {(1, 1, 0): gauss(one, zero)}
    quantities = []
    for m in range(3, 2 * n + 3):
        layer = {}
        for k1 in range(m, -1, -1):
            for k2 in range(min(m - k1, k1), -1, -1):
                k3 = m - k1 - k2
                target = (k1, k2, k3)
                terms = []
                for coeffs, axis in comps:
                    for (j, k, l), coeff in coeffs.items():
                        kap = [k1 - j, k2 - k, k3 - l]
                        kap[axis] += 1
                        factor = kap[axis]
                        if factor <= 0 or kap[0] < 0 or kap[1] < 0 or kap[2] < 0:
                            continue
                        dk = d.get((kap[0], kap[1], kap[2]))
                        if dk is not None:
                            terms.append((coeff, dk, factor))
                if not terms:
                    continue
                S = dot(terms)
                if k1 == k2 and k3 == 0:
                    layer[target] = S  # obstruction; d stays zero
                elif S:
                    d[target] = -S / divisor(k1, k2, k3)
                    if k1 != k2:
                        d[(k2, k1, k3)] = d[target].conjugate()
        if m % 2 == 0 and m >= 4:
            k = m // 2
            S = layer.get((k, k, 0))
            if S is None:
                quantities.append(zero)
            else:
                quantities.append(real_part(S, "focus quantity", NotRealSystem))
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
    one = cs.lam ** 0
    zero = one * 0
    # xdot = i x + X1, ydot = -i y + X2, zdot = lam z + X3
    field = (
        StatePoly({(1, 0, 0): gauss(zero, one)}) + StatePoly(cs.a),
        StatePoly({(0, 1, 0): gauss(zero, -one)}) + StatePoly(cs.b),
        StatePoly({(0, 0, 1): gauss(cs.lam, zero)}) + StatePoly(cs.c),
    )
    psi = StatePoly(d)
    defect = StatePoly(
        {(j, j, 0): -gauss(L, zero) for j, L in enumerate(quantities, start=2)}
    )
    for axis, comp in enumerate(field):
        defect = defect + psi.diff(axis) * comp
    top = 2 * n + 2
    survivors = {e: c for e, c in defect.terms.items() if 3 <= sum(e) <= top}
    if isinstance(cs.lam, float):
        return max(map(abs, survivors.values()), default=0.0)
    if survivors:
        e, c = next(iter(survivors.items()))
        raise AssertionError(f"identity defect at monomial {e}: {c}")
    return 0.0


def verify_first_integral(fld: VectorField3, H: StatePoly) -> bool:
    """True iff the derivative of H along the field is the zero polynomial,
    each coefficient tested by ``negligible``."""
    if H.total_degree() <= 0:
        raise NotAFirstIntegralCandidate("candidate is constant")
    acc = fld.components[0] * H.diff(0)
    for axis in (1, 2):
        acc = acc + fld.components[axis] * H.diff(axis)
    return all(map(negligible, acc.terms.values()))


def report_for_field(fld: VectorField3, n: int) -> FocusReport:
    """Normal form at the origin -> complexify -> focus quantities."""
    nf = to_normal_form(fld, (fld.zero,) * 3)
    return focus_quantities(complexify(nf), n)

