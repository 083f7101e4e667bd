"""Periodic-solution series and isochronicity constants.

In quasi-cylindrical coordinates u = rho cos(theta), v = rho sin(theta),
w = rho omega, with theta as independent variable, the canonical normal form
becomes

    drho/dtheta   = (P cos + Q sin) / (1 + B),
    domega/dtheta = (lam omega + (R - omega (P cos + Q sin))/rho) / (1 + B),
    dt/dtheta     = 1 / (1 + B),       B = (Q cos - P sin)/rho,

all analytic in (rho, omega) with trigonometric-polynomial coefficients.
The solution through rho(0) = rho0 on the selected path expands as
rho = sum u_i(theta) rho0^{i+1}, omega = sum v_i(theta) rho0^i with u_0 = 1,
u_i(0) = 0, and each v_i the unique 2pi-periodic solution of its linear
equation (Fourier division by in - lam; e^{2 pi lam} != 1 makes endpoint
periodicity equivalent to full periodicity, which realizes the transverse
root path implicitly).  A nonzero mean in a radial equation is an
obstruction: the first return moves rho at that order and the point is a
focus, not a center.  On centers the inverse angular speed
1 + sum Psi_k(theta) rho0^k integrates to the period
T(rho0) = 2 pi (1 + sum T_2k rho0^{2k}).

Everything is exact over the Gaussian extension of the coefficient field;
the float backend runs the same code on machine complex numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FocusObstruction
from .normalform import NormalForm3
from .paramfield import scalar_ring


class TrigPoly:
    """Finite Fourier polynomial sum c_n e^{i n theta}; real-valued when
    c_{-n} = conj(c_n)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {n: c for n, c in terms.items() if c}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, value):
        return cls({0: value})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for n, c in other.terms.items():
            if n in terms:
                terms[n] = terms[n] + c
            else:
                terms[n] = c
        return TrigPoly(terms)

    def __neg__(self):
        return TrigPoly({n: -c for n, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for n1, c1 in self.terms.items():
            for n2, c2 in other.terms.items():
                n = n1 + n2
                if n in out:
                    out[n] = out[n] + c1 * c2
                else:
                    out[n] = c1 * c2
        return TrigPoly(out)

    def scale(self, s):
        return TrigPoly({n: c * s for n, c in self.terms.items()})

    def mean(self):
        return self.terms.get(0)

    def harmonics(self):
        return max((abs(n) for n in self.terms), default=0)

    def integrate_from_zero(self, ring):
        """Antiderivative vanishing at theta = 0; the mean must be zero."""
        if 0 in self.terms:
            raise ValueError("nonzero mean: antiderivative is not trigonometric")
        out = {}
        const = None
        for n, c in self.terms.items():
            cn = c / ring.gauss(ring.zero, ring.one * n)
            out[n] = cn
            const = cn if const is None else const + cn
        if const is not None:
            out[0] = -const
        return TrigPoly(out)

    def __repr__(self):
        body = ", ".join(f"{n}: {c}" for n, c in sorted(self.terms.items()))
        return f"TrigPoly({body})"


class RhoSeries:
    """Truncated power series in rho0 with TrigPoly coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        self.order = order
        self.coeffs = list(coeffs[: order + 1])
        while len(self.coeffs) <= order:
            self.coeffs.append(TrigPoly.zero())

    def __add__(self, other):
        return RhoSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __sub__(self, other):
        return RhoSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __mul__(self, other):
        out = [TrigPoly.zero() for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.order:
                    break
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return RhoSeries(out, self.order)

    def scale_trig(self, t: TrigPoly):
        return RhoSeries([c * t for c in self.coeffs], self.order)

    def scale(self, s):
        return RhoSeries([c.scale(s) for c in self.coeffs], self.order)

    def inverse(self, one_tp: TrigPoly):
        """Series inverse; the leading coefficient must be the constant 1."""
        if not (self.coeffs[0] - one_tp).is_zero():
            raise ValueError("series inverse requires unit leading coefficient")
        inv = [one_tp] + [TrigPoly.zero() for _ in range(self.order)]
        for n in range(1, self.order + 1):
            acc = TrigPoly.zero()
            for j in range(1, n + 1):
                if self.coeffs[j].is_zero() or inv[n - j].is_zero():
                    continue
                acc = acc + self.coeffs[j] * inv[n - j]
            inv[n] = -acc
        return RhoSeries(inv, self.order)

    def at(self, k):
        return self.coeffs[k] if k <= self.order else TrigPoly.zero()


@dataclass
class PolarReduction:
    """Composed right-hand sides as (rho-power, omega-power) -> TrigPoly.

    ``radial`` is P cos + Q sin; ``angular`` is (Q cos - P sin)/rho;
    ``transverse`` is (R - omega (P cos + Q sin))/rho.
    """

    radial: dict
    angular: dict
    transverse: dict

    def radial_min_rho_order(self):
        return min((m for (m, _) in self.radial), default=None)


@dataclass
class PeriodExpansion:
    """Even-order period coefficients T_2k plus the odd-order residuals."""

    constants: list
    odd_residuals: list
    backend: str = "exact"

    def is_isochronous(self):
        return not any(self.constants)


def polar_reduce(nf: NormalForm3) -> PolarReduction:
    """Expand the three reduced right-hand sides in (rho, omega)."""
    nf = nf.canonical()
    ring = scalar_ring(nf.lam)
    half = ring.one * Fraction(1, 2)
    half_i = ring.gauss(ring.zero, half)
    cos_t = TrigPoly({1: ring.lift(half), -1: ring.lift(half)})
    sin_t = TrigPoly({1: -half_i, -1: half_i})

    def expand(poly):
        out = {}
        for (a, b, cpow), coeff in poly.terms.items():
            t = TrigPoly.const(ring.lift(coeff))
            for _ in range(a):
                t = t * cos_t
            for _ in range(b):
                t = t * sin_t
            key = (a + b + cpow, cpow)
            out[key] = out.get(key, TrigPoly.zero()) + t
        return {k: v for k, v in out.items() if not v.is_zero()}

    P, Q, R = expand(nf.P), expand(nf.Q), expand(nf.R)

    radial = {}
    for (m, q), t in P.items():
        radial[(m, q)] = radial.get((m, q), TrigPoly.zero()) + t * cos_t
    for (m, q), t in Q.items():
        radial[(m, q)] = radial.get((m, q), TrigPoly.zero()) + t * sin_t
    radial = {k: v for k, v in radial.items() if not v.is_zero()}

    angular = {}
    for (m, q), t in Q.items():
        key = (m - 1, q)
        angular[key] = angular.get(key, TrigPoly.zero()) + t * cos_t
    for (m, q), t in P.items():
        key = (m - 1, q)
        angular[key] = angular.get(key, TrigPoly.zero()) - t * sin_t
    angular = {k: v for k, v in angular.items() if not v.is_zero()}

    transverse = {}
    for (m, q), t in R.items():
        key = (m - 1, q)
        transverse[key] = transverse.get(key, TrigPoly.zero()) + t
    for (m, q), t in radial.items():
        key = (m - 1, q + 1)
        transverse[key] = transverse.get(key, TrigPoly.zero()) - t
    transverse = {k: v for k, v in transverse.items() if not v.is_zero()}
    return PolarReduction(radial, angular, transverse)


def _eval_in_series(table, rho_s, omega_s, order, one_tp):
    """Evaluate a (rho-power, omega-power) -> TrigPoly table on the series."""
    acc = RhoSeries([], order)
    rho_pows = {0: RhoSeries([one_tp], order)}
    om_pows = {0: RhoSeries([one_tp], order)}

    def rho_pow(p):
        if p not in rho_pows:
            rho_pows[p] = rho_pow(p - 1) * rho_s
        return rho_pows[p]

    def om_pow(p):
        if p not in om_pows:
            om_pows[p] = om_pow(p - 1) * omega_s
        return om_pows[p]

    for (m, q), t in table.items():
        term = rho_pow(m) * om_pow(q) if q else rho_pow(m)
        acc = acc + term.scale_trig(t)
    return acc


def periodic_solution_series(nf: NormalForm3, order: int):
    """Series coefficients u_0..u_{order-1} and v_1..v_order on the selected
    path.

    Raises FocusObstruction(order, value) when a radial forcing has a
    nonzero mean; at the first obstruction ``value`` equals the matching
    focus quantity (the radial return coefficient is pi times it).
    """
    nf = nf.canonical()
    ring = scalar_ring(nf.lam)
    reduction = polar_reduce(nf)
    one_tp = TrigPoly.const(ring.lift(ring.one))
    lam_c = ring.lift(nf.lam)
    N = order

    u = [one_tp]  # u_0 = 1; the order-1 radial equation is u_0' = 0
    v = []

    def series_pair():
        rho_s = RhoSeries([TrigPoly.zero()] + u, N)
        omega_s = RhoSeries([TrigPoly.zero()] + v, N)
        return rho_s, omega_s

    for n in range(1, N + 1):
        if n >= 2:
            rho_s, omega_s = series_pair()
            b_theta = _eval_in_series(reduction.angular, rho_s, omega_s, N, one_tp)
            inv_theta = (RhoSeries([one_tp], N) + b_theta).inverse(one_tp)
            f_rho = _eval_in_series(reduction.radial, rho_s, omega_s, N, one_tp)
            rhs = (f_rho * inv_theta).at(n)
            mean = rhs.mean()
            if mean is not None:
                raise FocusObstruction(n, ring.real(mean, "mean", ValueError) * 2)
            u.append(rhs.integrate_from_zero(ring))
        rho_s, omega_s = series_pair()
        b_theta = _eval_in_series(reduction.angular, rho_s, omega_s, N, one_tp)
        inv_theta = (RhoSeries([one_tp], N) + b_theta).inverse(one_tp)
        f_omega = _eval_in_series(reduction.transverse, rho_s, omega_s, N, one_tp)
        g = ((omega_s.scale(lam_c) + f_omega) * inv_theta).at(n)
        v.append(_fourier_periodic_solution(g, nf.lam, ring))
    return {"u": u, "v": v}


def _fourier_periodic_solution(g: TrigPoly, lam, ring):
    """Unique 2pi-periodic solution of v' = lam v + g."""
    return TrigPoly(
        {n: c / ring.gauss(-lam, ring.one * n) for n, c in g.terms.items()}
    )


def isochronicity_constants(nf: NormalForm3, m: int) -> PeriodExpansion:
    """T_2, T_4, ..., T_2m with the odd-order residuals alongside.

    The period is reported in the positive minimal period convention:
    T(rho0) = 2 pi (1 + sum T_2k rho0^{2k}).
    """
    nf = nf.canonical()
    ring = scalar_ring(nf.lam)
    one_tp = TrigPoly.const(ring.lift(ring.one))
    N = 2 * m
    sol = periodic_solution_series(nf, N)
    u, v = sol["u"], sol["v"]
    reduction = polar_reduce(nf)
    rho_s = RhoSeries([TrigPoly.zero()] + u, N)
    omega_s = RhoSeries([TrigPoly.zero()] + v, N)
    b_theta = _eval_in_series(reduction.angular, rho_s, omega_s, N, one_tp)
    inv_theta = (RhoSeries([one_tp], N) + b_theta).inverse(one_tp)
    constants = []
    odd_residuals = []
    for k in range(1, N + 1):
        mean = inv_theta.at(k).mean()
        val = ring.zero if mean is None else ring.real(mean, "mean", ValueError)
        if k % 2 == 0:
            constants.append(val)
        else:
            odd_residuals.append(val)
    return PeriodExpansion(constants, odd_residuals, nf.field.backend)
