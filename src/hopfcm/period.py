"""Periodic-solution series and isochronicity constants.

The quasi-cylindrical coordinates u = rho cos(theta), v = rho sin(theta),
w = rho omega are the complex coordinates of ``focusq.complexify`` in polar
form: x = u + iv = rho e^{i theta}, y = rho e^{-i theta}, z = rho omega.
For orientation -1 complexify takes x = v + iu, so there u = rho sin(theta),
v = rho cos(theta), and P, Q below stand for the field's Q, P.  With theta
as independent variable the normal form becomes

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
root path implicitly).  Radial terms carry rho^2 or more, so u_0..u_{n-1}
and v_1..v_{n-1} fix the transverse equation at order n and the radial one
at order n + 1: one evaluation of the tables, truncated at n + 1, gives v_n
and then u_n.  A nonzero mean in a radial equation is an obstruction: the
first return moves rho at that order and the point is a focus, not a
center.  On centers the inverse angular speed 1 + sum Psi_k(theta) rho0^k
of the last evaluation integrates to the period
T(rho0) = 2 pi (1 + sum T_2k rho0^{2k}).

Everything is exact over the Gaussian extension of the coefficient field;
the float backend runs the same code on machine complex numbers.
"""

from __future__ import annotations

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


class RhoSeries:
    """Truncated power series in rho0 with Fourier polynomial coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        self.order = order
        self.coeffs = list(coeffs[: order + 1])
        while len(self.coeffs) <= order:
            self.coeffs.append(StatePoly.zero())

    def __add__(self, other):
        return RhoSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __mul__(self, other):
        out = [StatePoly.zero() for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.order:
                    break
                if not b:
                    continue
                out[i + j] = out[i + j] + a * b
        return RhoSeries(out, self.order)

    def scale_trig(self, t: StatePoly):
        return RhoSeries([c * t for c in self.coeffs], self.order)

    def scale(self, s):
        return RhoSeries([c.scale(s) for c in self.coeffs], self.order)

    def inverse(self):
        """Series inverse; the leading coefficient is the constant 1 (the
        angular table, the only series inverted, starts at rho-power 1)."""
        inv = [self.coeffs[0]] + [StatePoly.zero() for _ in range(self.order)]
        for n in range(1, self.order + 1):
            acc = StatePoly.zero()
            for j in range(1, n + 1):
                if not self.coeffs[j] or not inv[n - j]:
                    continue
                acc = acc + self.coeffs[j] * inv[n - j]
            inv[n] = -acc
        return RhoSeries(inv, self.order)

    def at(self, k):
        return self.coeffs[k] if k <= self.order else StatePoly.zero()


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
    """Even-order period coefficients T_2k plus the odd-order residuals."""

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


def _evaluate(reduction, rho_s, omega_s, one_tp):
    """The radial, angular and transverse tables on the (rho, omega) series,
    sharing the powers of both."""
    order = rho_s.order
    rho_pows = [RhoSeries([one_tp], order)]
    om_pows = [RhoSeries([one_tp], order)]
    out = []
    for table in (reduction.radial, reduction.angular, reduction.transverse):
        acc = RhoSeries([], order)
        for (m, q), t in table.items():
            while len(rho_pows) <= m:
                rho_pows.append(rho_pows[-1] * rho_s)
            while len(om_pows) <= q:
                om_pows.append(om_pows[-1] * omega_s)
            term = rho_pows[m] * om_pows[q] if q else rho_pows[m]
            acc = acc + term.scale_trig(t)
        out.append(acc)
    return out


def periodic_solution_series(nf: NormalForm3, order: int):
    """Series coefficients u_0..u_{order-1} and v_1..v_order on the selected
    path, with the inverse angular speed ``inv_theta`` through rho0^order.

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
    for n in range(1, order + 1):
        top = min(n + 1, order)
        rho_s = RhoSeries([StatePoly.zero()] + u, top)
        omega_s = RhoSeries([StatePoly.zero()] + v, top)
        f_rho, b_theta, f_omega = _evaluate(reduction, rho_s, omega_s, one_tp)
        inv_theta = (RhoSeries([one_tp], top) + b_theta).inverse()
        g = ((omega_s.scale(lam_c) + f_omega) * inv_theta).at(n)
        v.append(_fourier_periodic_solution(g, nf.lam))
        if n < order:
            rhs = (f_rho * inv_theta).at(n + 1)
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
    """T_2, T_4, ..., T_2m with the odd-order residuals alongside.

    The period is reported in the positive minimal period convention:
    T(rho0) = 2 pi (1 + sum T_2k rho0^{2k}).
    """
    zero = nf.lam ** 0 * 0
    inv_theta = periodic_solution_series(nf, 2 * m)["inv_theta"]
    means = []
    for k in range(1, 2 * m + 1):
        mean = _mean(inv_theta.at(k))
        means.append(zero if mean is None else real_part(mean, "mean", ValueError))
    return PeriodExpansion(means[1::2], means[0::2])
