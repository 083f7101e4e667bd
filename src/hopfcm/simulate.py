"""Numerical backend: adaptive integration, Poincare sections, period and
displacement measurement, CSV/plot-script export.

Trajectories and section returns use a Dormand-Prince 8(5,3) embedded pair.
A return to the section {v = 0, u > 0} is a terminal event that scipy
locates on the pair's interpolant, so a return map stops at the first
return.  The reduced displacement at radius rho0 is measured on the path
selected by the transverse direction: the return map in omega = w/u is
solved for its fixed point omega0 (secant iteration, which handles both
signs of the transverse eigenvalue), then dbar(rho0) is the radial change of
the first return from (rho0, 0, rho0*omega0).

The period is measured with a Taylor method for polynomial fields (Jorba &
Zou, Exp. Math. 14, 2005): the Taylor coefficients of the flow come from
Cauchy products over the field's monomial table, the order and the step are
chosen from the working precision and the last two coefficients, and section
crossings are found by Newton's method on the step polynomial.  The same
kernel runs on floats (``precision="double"``) and on 30-digit ``mpmath``
floats (``precision="extended"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import HopfcmError, NoReturn, StiffnessFailure
from .polysys import VectorField3

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
EXTENDED_DPS = 30


@dataclass
class Trajectory:
    """Integration output with solver statistics.

    Adaptive step control keeps every accepted step's error estimate within
    the requested tolerances; timestamps are strictly increasing.
    """

    t: np.ndarray
    states: np.ndarray  # shape (n, 3)
    nfev: int
    status: int
    rtol: float
    atol: float
    backward: bool = False


@dataclass
class DisplacementSample:
    rho0: float
    dbar: float
    crossings: int
    omega0: float
    omega_residual: float


def integrate(
    fld: VectorField3,
    x0,
    t_span,
    rel_tol: float = DEFAULT_RTOL,
    abs_tol: float = DEFAULT_ATOL,
    max_points: Optional[int] = None,
    stop_radius: Optional[float] = None,
) -> Trajectory:
    """Adaptive integration over t_span (t1 < t0 integrates backward).

    ``stop_radius`` ends the run once the state norm escapes that radius,
    which keeps exponentially diverging directions from consuming the whole
    budget.
    """
    if not (0 < rel_tol <= 1e-2 and 0 < abs_tol <= 1e-2):
        raise HopfcmError(f"tolerances must lie in (0, 1e-2], got {rel_tol}, {abs_tol}")

    events = None
    if stop_radius is not None:
        def escape(t, s):
            return s[0] * s[0] + s[1] * s[1] + s[2] * s[2] - stop_radius**2

        escape.terminal = True
        events = escape

    backward = t_span[1] < t_span[0]
    sol = solve_ivp(
        _rhs(fld),
        t_span,
        [float(v) for v in x0],
        method="DOP853",
        rtol=rel_tol,
        atol=abs_tol,
        dense_output=False,
        events=events,
    )
    if sol.status == -1:
        raise StiffnessFailure(sol.message)
    t = sol.t
    y = sol.y.T
    if backward:
        t = t[::-1]
        y = y[::-1]
    if max_points is not None and len(t) > max_points:
        idx = np.linspace(0, len(t) - 1, max_points).astype(int)
        t, y = t[idx], y[idx]
    return Trajectory(t, y, sol.nfev, sol.status, rel_tol, abs_tol, backward)


def _rhs(fld):
    def rhs(t, s):
        return fld.evaluate(s.tolist())

    return rhs


def _flow_direction(fld, rho0):
    """Sign of vdot on the section {v = 0, u > 0} near the origin."""
    vdot = fld.evaluate((rho0, 0.0, 0.0))[1]
    return 1.0 if vdot > 0 else -1.0


def first_return(fld, rho0, omega0, rtol=1e-12, atol=1e-14, horizon=60.0):
    """First return (t, u, omega) of the section map from (rho0, 0, rho0*omega0).

    The start lies on the section, so scipy reports it as the first event
    in the flow direction, and each run stops at the second.  A crossing
    before t = 0.5 or with u <= 0 is not a return: the run goes on from it,
    on the section again, until a return or the horizon.
    """

    def section(t, s):
        return s[1]

    section.direction = _flow_direction(fld, rho0)
    section.terminal = 2
    t0, x0 = 0.0, [rho0, 0.0, rho0 * omega0]
    while True:
        sol = solve_ivp(
            _rhs(fld),
            (t0, horizon),
            x0,
            method="DOP853",
            rtol=rtol,
            atol=atol,
            events=section,
        )
        if sol.status == -1:
            raise StiffnessFailure(sol.message)
        for te, (u, v, w) in zip(sol.t_events[0], sol.y_events[0]):
            if te > 0.5 and u > 0:
                return float(te), float(u), float(w / u)
        if sol.status == 0:
            raise NoReturn(f"no section return within t = {horizon}")
        t0 = sol.t_events[0][-1]
        u, _, w = sol.y_events[0][-1]
        x0 = [u, 0.0, w]


def measure_period(
    fld: VectorField3,
    rho0: float,
    settle_time: float = 35.0,
    turns: int = 8,
    precision: str = "double",
) -> float:
    """Mean time between same-direction section crossings after settling.

    The orbit is started on the section at radius rho0 and followed for
    ``settle_time`` so the transverse transient decays onto the invariant
    surface; the radial coordinate is untouched on families that conserve
    u^2 + v^2.  The period is the mean of the next ``turns`` returns.  The
    Taylor kernel runs on floats for ``precision="double"`` and on 30-digit
    mpmath floats for ``"extended"``; its order and step follow from that
    precision.
    """
    if precision == "double":
        plan = taylor_plan(fld.monomials, float)
        return _measure_period(fld, plan, rho0, settle_time, turns, float, 1e-16)
    if precision != "extended":
        raise ValueError(f"unknown precision {precision!r}")
    import mpmath as mp

    with mp.workdps(EXTENDED_DPS):
        plan = taylor_plan(fld.monomials, mp.mpf, mp.fdot)
        eps = mp.mpf(10) ** -EXTENDED_DPS
        return float(_measure_period(fld, plan, rho0, settle_time, turns, mp.mpf, eps))


def _measure_period(fld, plan, rho0, settle_time, turns, num, eps):
    order = math.ceil(-math.log(eps) / 2) + 1
    direction = _flow_direction(fld, rho0)
    end = settle_time + 2.2 * math.pi * (turns + 2)
    t, x = num(0), [num(rho0), num(0), num(0)]
    crossings = []
    while len(crossings) <= turns:
        if t >= end:
            raise NoReturn("too few section returns while measuring period")
        coeffs = taylor_coefficients(plan, x, order)
        h = _taylor_step(coeffs)
        if not h > eps * max(1, abs(t)):
            raise StiffnessFailure(f"Taylor step collapsed at t = {float(t)}")
        h = min(num(h), end - t)
        u, v, _ = coeffs
        v0, v1 = v[0], _horner(v, h)
        if direction * v0 < 0 <= direction * v1:
            s = _step_root(v, h, v1, eps)
            if t + s > settle_time and _horner(u, s) > 0:
                crossings.append(t + s)
        x = [_horner(c, h) for c in coeffs]
        t += h
    return (crossings[-1] - crossings[0]) / turns


# ---------------------------------------------------------------------------
# Taylor kernel for polynomial fields, generic over the number type


def _dot(a, b):
    return sum(map(mul, a, b))


def taylor_plan(monomials, num, dot=_dot):
    """Code list of a polynomial field for ``taylor_coefficients``.

    ``monomials`` is ``VectorField3.monomials``.  Series 0, 1, 2 are u, v, w;
    every monomial of degree >= 2 is one more series, the product of a lower
    monomial and one state variable, listed after its factors.  Returns the
    products as (factor series, variable) pairs, per component its constant
    term and its (coefficient, series) terms, all converted by ``num``, and
    ``dot``, the inner product of two sequences of ``num`` (``mpmath.fdot``
    rounds an mpf inner product once, about three times faster than a sum).
    """
    index = {(1, 0, 0): 0, (0, 1, 0): 1, (0, 0, 1): 2}
    products = []

    def series(e):
        if e not in index:
            axis = next(a for a in range(3) if e[a])
            lower = tuple(p - (a == axis) for a, p in enumerate(e))
            products.append((series(lower), axis))
            index[e] = 2 + len(products)
        return index[e]

    components = []
    for comp in monomials:
        const, terms = num(0), []
        for c, e in comp:
            if any(e):
                terms.append((num(c), series(e)))
            else:
                const += num(c)
        components.append((const, terms))
    return products, components, dot


def taylor_coefficients(plan, x, order):
    """Taylor coefficients 0..order of the flow through x, per component.

    Order n of every product is a Cauchy product of known orders 0..n;
    then x_{n+1} = f_n / (n + 1) (Moore 1966; Jorba & Zou 2005).
    """
    products, components, dot = plan
    zero = x[0] * 0
    series = [[xi] for xi in x] + [[] for _ in products]
    for n in range(order):
        for k, (left, axis) in enumerate(products, 3):
            series[k].append(dot(series[left], reversed(series[axis])))
        for i, (const, terms) in enumerate(components):
            f = sum([c * series[k][n] for c, k in terms], const if n == 0 else zero)
            series[i].append(f / (n + 1))
    return series[:3]


def _taylor_step(coeffs):
    """Jorba-Zou step rho / e^2, rho from the last two coefficients."""
    order = len(coeffs[0]) - 1
    scale = max(1.0, max(float(abs(c[0])) for c in coeffs))
    rho = math.inf
    for j in (order - 1, order):
        size = max(float(abs(c[j])) for c in coeffs)
        if size > 0:
            rho = min(rho, (scale / size) ** (1.0 / j))
    return rho / math.e**2


def _horner(coeffs, s):
    acc = coeffs[-1] * 0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _step_root(p, h, p_h, eps):
    """Root in [0, h] of the step polynomial p, where p(0) and p(h) = p_h
    differ in sign.

    Newton's method from the secant point, kept inside the bracket by a
    bisection step whenever an iterate would leave it.  It stops once a step
    is within a few units of ``eps`` (rounding noise at double precision).
    """
    dp = [n * c for n, c in enumerate(p)][1:]
    lo, hi = 0 * h, h
    p_lo = p[0]
    s = h * p_lo / (p_lo - p_h)
    for _ in range(200):
        ps = _horner(p, s)
        if (ps < 0) == (p_lo < 0):
            lo, p_lo = s, ps
        else:
            hi = s
        d = _horner(dp, s)
        nxt = s - ps / d if d else lo - 1
        if not lo <= nxt <= hi:
            nxt = (lo + hi) / 2
        if abs(nxt - s) <= 8 * eps * h:
            return nxt
        s = nxt
    return s


def displacement(
    fld: VectorField3,
    rho0: float,
    rtol: float = 1e-12,
    atol: float = 1e-14,
    omega_tol: float = 1e-10,
    max_iter: int = 60,
) -> DisplacementSample:
    """Reduced displacement dbar(rho0) on the transversely selected path.

    Solves the fixed-point condition for omega0 (the return in omega equals
    omega0) by secant iteration, then reports the radial change of that
    return.  Works for either sign of the transverse eigenvalue.
    """
    if rho0 <= 0 or rho0 > 0.2:
        raise HopfcmError(f"rho0 must lie in (0, 0.2], got {rho0}")

    def g(om):
        _, u1, om1 = first_return(fld, rho0, om, rtol, atol)
        return u1, om1

    om = 0.0
    u1, om1 = g(om)
    resid = om1 - om
    it = 0
    while abs(resid) > omega_tol and it < max_iter:
        eps = max(1e-8, abs(resid) * 0.1)
        _, om2 = g(om + eps)
        slope = ((om2 - (om + eps)) - resid) / eps
        if slope == 0:
            break
        om = om - resid / slope
        u1, om1 = g(om)
        resid = om1 - om
        it += 1
    if abs(resid) > omega_tol:
        raise NoReturn(f"omega fixed point not reached: residual {resid}")
    return DisplacementSample(rho0, u1 - rho0, it + 1, om, abs(resid))


# ---------------------------------------------------------------------------
# export


def export_csv(trajectory: Trajectory, path):
    """CSV with header t,u,v,w at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("t,u,v,w\n")
        for t, (u, v, w) in zip(trajectory.t, trajectory.states):
            fh.write(f"{t:.16e},{u:.16e},{v:.16e},{w:.16e}\n")
    return path


def export_displacement_csv(samples, path):
    with open(path, "w") as fh:
        fh.write("rho0,dbar\n")
        for s in samples:
            fh.write(f"{s.rho0:.16e},{s.dbar:.16e}\n")
    return path


PLOT_SCRIPT = """\
#!/usr/bin/env python3
# 3D phase portrait for trajectories exported alongside this script.
import sys
import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

fig = plt.figure(figsize=(7, 6))
ax = fig.add_subplot(projection="3d")
for path in sys.argv[1:]:
    data = np.genfromtxt(path, delimiter=",", names=True)
    ax.plot(data["u"], data["v"], data["w"], lw=0.6)
ax.set_xlabel("u"); ax.set_ylabel("v"); ax.set_zlabel("w")
out = "phase_portrait.png"
fig.savefig(out, dpi=160)
print(out)
"""


def export_plot_script(path):
    with open(path, "w") as fh:
        fh.write(PLOT_SCRIPT)
    return path
