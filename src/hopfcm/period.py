"""Periodic-solution series and isochronicity constants.

The quasi-cylindrical coordinates u = rho cos(theta), v = o rho sin(theta),
w = rho omega are the complex coordinates of ``focusq.complexify`` in polar
form: x = u + i o v = rho e^{i theta}, y = rho e^{-i theta}, z = rho omega,
for the orientation o = +/-1, and Q below stands for the field's o Q.  So
theta = 0 is the positive u axis, and T(rho0) is the period of the orbit
through (u, v) = (rho0, 0) in both orientations.  With theta as
independent variable the normal form becomes

    drho/dtheta   = (P cos + Q sin) / (1 + B),
    domega/dtheta = (lam omega + (R - omega (P cos + Q sin))/rho) / (1 + B),
    dt/dtheta     = 1 / (1 + B),       B = (Q cos - P sin)/rho,

and (P + iQ) e^{-i theta} = (P cos + Q sin) + i rho B.  A complexified
monomial a_jkl x^j y^k z^l is a_jkl rho^{j+k+l} omega^l e^{i(j-k) theta}, so
the three right-hand sides are read off the coefficients a, b, c as tables
(rho-power, omega-power) -> trigonometric polynomial.  A trigonometric
polynomial sum c_n e^{i n theta} is a ``StatePoly`` in the one variable
e^{i theta}, keyed (n,) with n of either sign; it is real-valued when
c_{-n} = conj(c_n).

The solution through rho(0) = rho0 on the selected path expands as
rho = sum u_i(theta) rho0^{i+1}, omega = sum v_i(theta) rho0^i with u_0 = 1,
u_i(0) = 0, and each v_i the unique 2pi-periodic solution of its linear
equation (Fourier division by in - lam; e^{2 pi lam} != 1 makes endpoint
periodicity equivalent to full periodicity, which realizes the transverse
root path implicitly).  A nonzero mean in a radial equation is an
obstruction: the first return moves rho at that order and the point is a
focus, not a center.  On centers the inverse angular speed
1/(1 + B) = 1 + sum Psi_k(theta) rho0^k integrates to the period
T(rho0) = 2 pi (1 + sum_k T_k rho0^k), odd k included: off a symmetric
family the odd coefficients after the first nonzero one need not vanish.

Every series is online (van der Hoeven's relaxed series): rho, omega,
each product rho^m omega^q, the three tables, the inverse angular speed
with Psi_k = -sum_{j>=1} B_j Psi_{k-j}, and the two right-hand sides keep
each coefficient from its first request on, so nothing is recomputed.
That holds because a coefficient is requested only once it is final.  The
field is at least quadratic, so every table key has m >= 1 (m + q >= 2
when q >= 1), and every radial key has m >= 2.  At step n, with
u_0..u_{n-1} and v_1..v_{n-1} known, coefficient k <= n of rho^m omega^q
reads at most rho_n = u_{n-1} and omega_{n-1} = v_{n-1}, so B_k and Psi_k
are final for k <= n.  Coefficient n of the transverse side is then final
but for lam v_n, the left side's own term (lam omega enters it as
lam sum_{i>=1} Psi_i v_{n-i}), and gives v_n.  Coefficient n + 1 of the
radial side reads omega at most to v_n and Psi to n - 1, and gives u_n.

Everything is exact over the Gaussian extension of the coefficient field;
the float backend runs the same code on machine complex numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FocusObstruction, HopfcmError
from .focusq import complexify
from .normalform import NormalForm3
from .paramfield import gauss, real_part
from .polysys import StatePoly


def _mean(t):
    """The constant term of a Fourier polynomial, or None."""
    return t.terms.get((0,))


def _integrate_from_zero(t, one):
    """Antiderivative vanishing at theta = 0 of a Fourier polynomial without
    constant term, over the real scalars of ``one``."""
    zero = one * 0
    out = {}
    const = None
    for (n,), c in t.terms.items():
        cn = c / gauss(zero, one * n)
        out[(n,)] = cn
        const = cn if const is None else const + cn
    if const is not None:
        out[(0,)] = -const
    return StatePoly(out)


class _Series:
    """A power series in rho0 with Fourier polynomial coefficients, computed
    online: coefficient k is ``rule(k)`` on its first request, after every
    coefficient below it, and is kept.  So a rule must read only
    coefficients that are already final.  Coefficients below the valuation
    ``val`` are zero and no product requests them; a zero series (an empty
    table) has ``val`` infinite."""

    __slots__ = ("rule", "val", "coeffs")

    def __init__(self, rule, val):
        self.rule, self.val, self.coeffs = rule, val, []

    def __getitem__(self, k):
        while len(self.coeffs) <= k:
            self.coeffs.append(self.rule(len(self.coeffs)))
        return self.coeffs[k]

    def __mul__(self, other):
        def rule(k):
            acc = StatePoly.zero()
            if k < self.val + other.val:
                return acc
            for i in range(self.val, k - other.val + 1):
                a = self[i]
                if a:
                    b = other[k - i]
                    if b:
                        acc = acc + a * b
            return acc

        return _Series(rule, self.val + other.val)


@dataclass
class PolarReduction:
    """Composed right-hand sides as (rho-power, omega-power) -> Fourier
    polynomial.

    ``radial`` is P cos + Q sin; ``angular`` is (Q cos - P sin)/rho;
    ``transverse`` is (R - omega (P cos + Q sin))/rho.
    """

    radial: dict
    angular: dict
    transverse: dict


@dataclass
class PeriodExpansion:
    """The period coefficients: the even-order T_2k as ``constants`` and
    the odd-order T_2k-1 as ``odd_residuals``."""

    constants: list
    odd_residuals: list

    def is_isochronous(self):
        return not any(self.constants)


def polar_reduce(nf: NormalForm3) -> PolarReduction:
    """The three reduced right-hand sides, read off the complexified field.

    a_jkl and its conjugate mirror b_jkl land at harmonics j - k - 1 and
    j - k + 1, with weight 1/2 in the radial table and -i/2, +i/2 in the
    angular one; c_jkl lands in R/rho at harmonic j - k.
    """
    cs = complexify(nf)
    one = cs.lam ** 0
    half = one * Fraction(1, 2)
    half_i = gauss(one * 0, half)
    radial, angular, transverse = {}, {}, {}

    def add(table, key, n, value):
        terms = table.setdefault(key, {})
        terms[n] = terms[n] + value if n in terms else value

    for (j, k, l), a in cs.a.items():
        add(radial, (j + k + l, l), j - k - 1, a * half)
        add(angular, (j + k + l - 1, l), j - k - 1, -(a * half_i))
    for (j, k, l), b in cs.b.items():
        add(radial, (j + k + l, l), j - k + 1, b * half)
        add(angular, (j + k + l - 1, l), j - k + 1, b * half_i)
    for (j, k, l), c in cs.c.items():
        add(transverse, (j + k + l - 1, l), j - k, c)
    for (m, q), terms in radial.items():
        for n, value in terms.items():
            add(transverse, (m - 1, q + 1), n, -value)
    return PolarReduction(*(
        {key: StatePoly({(n,): c for n, c in terms.items()})
         for key, terms in table.items() if any(terms.values())}
        for table in (radial, angular, transverse)
    ))


def periodic_solution_series(nf: NormalForm3, order: int):
    """Series coefficients u_0..u_{order-1} and v_1..v_order on the selected
    path, with the inverse angular speed ``inv_theta``, an online series
    whose coefficients through rho0^order are final.

    Raises FocusObstruction(order, value) when a radial forcing has a
    nonzero mean; at the first obstruction ``value`` equals the matching
    focus quantity (the radial return coefficient is pi times it).
    """
    if order < 1:
        raise HopfcmError("the period series needs an order of at least 1")
    one = nf.lam ** 0
    zero = one * 0
    reduction = polar_reduce(nf)
    one_tp = StatePoly({(0,): gauss(one, zero)})
    lam_c = gauss(nf.lam, zero)
    u = [one_tp]  # u_0 = 1; the order-1 radial equation is u_0' = 0
    v = []
    rho = _Series(lambda k: u[k - 1] if k else StatePoly.zero(), 1)
    omega = _Series(lambda k: v[k - 1] if k else StatePoly.zero(), 1)

    keys = {*reduction.radial, *reduction.angular, *reduction.transverse}
    rho_pows, om_pows = [None, rho], [None, omega]  # every key has m >= 1
    for m, q in keys:
        while len(rho_pows) <= m:
            rho_pows.append(rho_pows[-1] * rho)
        while len(om_pows) <= q:
            om_pows.append(om_pows[-1] * omega)
    terms = {(m, q): rho_pows[m] * om_pows[q] if q else rho_pows[m] for m, q in keys}

    def table_series(table):
        pairs = [(terms[key], t) for key, t in table.items()]
        val = min((term.val for term, _ in pairs), default=math.inf)
        return _Series(lambda k: sum((s[k] * t for s, t in pairs), StatePoly.zero()), val)

    tables = (reduction.radial, reduction.angular, reduction.transverse)
    f_rho, b_theta, f_omega = map(table_series, tables)
    inv_theta = _Series(lambda k: -b_inv[k] if k else one_tp, 0)
    b_inv = b_theta * inv_theta
    rhs_rho, rhs_omega = f_rho * inv_theta, f_omega * inv_theta
    # lam inv_i omega_{n-i} for i >= 1; lam v_n itself is the left side's
    drift = _Series(lambda k: inv_theta[k] if k else StatePoly.zero(), 1) * omega
    for n in range(1, order + 1):
        g = rhs_omega[n] + drift[n].scale(lam_c)
        v.append(_fourier_periodic_solution(g, nf.lam))
        if n < order:
            rhs = rhs_rho[n + 1]
            mean = _mean(rhs)
            if mean is not None:
                raise FocusObstruction(n + 1, real_part(mean, "mean", ValueError) * 2)
            u.append(_integrate_from_zero(rhs, one))
    return {"u": u, "v": v, "inv_theta": inv_theta}


def _fourier_periodic_solution(g: StatePoly, lam):
    """Unique 2pi-periodic solution of v' = lam v + g."""
    one = lam ** 0
    return StatePoly({(n,): c / gauss(-lam, one * n) for (n,), c in g.terms.items()})


def isochronicity_constants(nf: NormalForm3, m: int) -> PeriodExpansion:
    """T_2, T_4, ..., T_2m with the odd-order T_1, T_3, ..., T_2m-1
    alongside.

    The period is reported in the positive minimal period convention:
    T(rho0) = 2 pi (1 + sum_k T_k rho0^k) over k = 1..2m, odd k included.
    """
    zero = nf.lam ** 0 * 0
    inv_theta = periodic_solution_series(nf, 2 * m)["inv_theta"]
    means = []
    for k in range(1, 2 * m + 1):
        mean = _mean(inv_theta[k])
        means.append(zero if mean is None else real_part(mean, "mean", ValueError))
    return PeriodExpansion(means[1::2], means[0::2])
