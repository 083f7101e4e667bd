"""Numerical backend: Taylor integration, Poincare sections, period and
displacement measurement, CSV/plot-script export.

Every trajectory, section return and period comes from one Taylor method
for polynomial fields (Jorba & Zou, Exp. Math. 14, 2005): the Taylor
coefficients of the flow come from Cauchy products over the field's
monomial table, the order follows from the tolerance and the step from the
last two coefficients.  Crossings of the section {v = 0} are found by
Newton's method on the step polynomial, so a return map stops at the first
return.  The reduced displacement at radius rho0 is measured on the path
selected by the transverse direction: the return map in omega = w/u is
solved for its fixed point omega0 (secant iteration, which handles both
signs of the transverse eigenvalue), then dbar(rho0) is the radial change of
the first return from (rho0, 0, rho0*omega0).

The kernel is generic over the number type: trajectories and section
returns run it on floats, and ``measure_period`` on 31-digit
``decimal.Decimal`` numbers (C libmpdec; at least the 103 bits of 30
decimal digits).

Every file the package writes goes through ``write_output``: the exports
here, the ``verify`` artifacts and the CLI's ``--out`` reports.
"""

from __future__ import annotations

import decimal
import math
import os
import stat
from dataclasses import dataclass
from operator import mul
from typing import Optional

from .errors import HopfcmError, NoReturn, StiffnessFailure, WorkCeiling
from .polysys import VectorField3

DEFAULT_TOL = 1e-10
DOUBLE_EPS = 1e-16
EXTENDED_DPS = 30
# Field evaluations (steps x order) one run may make: about 2 s of Taylor
# steps on a 3D quadratic field, a hundred times the longest run of the
# README and the verification claims (under 10^4).
MAX_RHS_EVALS = 1_000_000
OMEGA_TOL = 1e-10
# The period fit settles before it counts: on e1-center at d = 1, the field
# of the teo1-isochronous claim, the transverse transient decays as e^(-t),
# and e^(-35) < 1e-15.
SETTLE_TIME = 35.0
PERIOD_TURNS = 6
RETURN_HORIZON = 60.0
SECANT_MAX_ITER = 60


@dataclass
class Trajectory:
    """Step ends of a Taylor integration and the field evaluations it made.

    Timestamps are strictly increasing.
    """

    t: list
    states: list  # of [u, v, w]
    nfev: int


@dataclass
class DisplacementSample:
    rho0: float
    dbar: float
    omega0: float
    omega_residual: float


def integrate(
    fld: VectorField3,
    x0,
    t_span,
    tol: float = DEFAULT_TOL,
    *,
    max_points: Optional[int] = None,
    stop_radius: Optional[float] = None,
) -> Trajectory:
    """Taylor integration over t_span (t1 < t0 integrates backward).

    ``stop_radius`` ends the run at the first step that leaves that radius,
    which keeps exponentially diverging directions from consuming the whole
    budget.  ``max_points`` keeps that many evenly spaced step ends, the
    first and the last among them.  Raises HopfcmError on a tolerance
    outside (0, 1e-2], a start state or an end of ``t_span`` that is not
    finite or a ``max_points`` below 2, WorkCeiling once the run has made
    ``MAX_RHS_EVALS`` field evaluations (a finite but huge span would take
    as long), and StiffnessFailure when the solution blows up.
    """
    if not 0 < tol <= 1e-2:
        raise HopfcmError(f"tolerance must lie in (0, 1e-2], got {tol}")
    if not all(math.isfinite(t) for t in t_span):
        raise HopfcmError(f"time span must be finite, got {tuple(t_span)}")
    if max_points is not None and max_points < 2:
        raise HopfcmError(f"max_points must be at least 2, got {max_points}")
    x0 = [float(v) for v in x0]
    if not all(map(math.isfinite, x0)):
        raise HopfcmError(f"start state must be finite, got {tuple(x0)}")

    t0, t1 = (float(t) for t in t_span)
    ts, xs = [t0], [x0]
    plan = taylor_plan(fld.monomials, float)
    for t, x, _, _ in _taylor_steps(plan, t0, x0, t1, tol, DOUBLE_EPS):
        ts.append(t)
        xs.append(x)
        if stop_radius is not None and math.hypot(*x) > stop_radius:
            break
    n = len(ts)
    if t1 < t0:
        ts.reverse()
        xs.reverse()
    if max_points is not None and n > max_points:
        # the indices of numpy.linspace(0, n - 1, max_points).astype(int)
        step = (n - 1) / (max_points - 1)
        idx = [int(i * step) for i in range(max_points - 1)] + [n - 1]
        ts, xs = [ts[i] for i in idx], [xs[i] for i in idx]
    return Trajectory(ts, xs, (n - 1) * _order(tol))


def _order(tol):
    """Jorba-Zou order: with the step rho / e^2, the order's last term is
    about e^(-2 order) < tol relative to the state."""
    return math.ceil(-math.log(tol) / 2) + 1


def _taylor_steps(plan, t, x, t_end, tol, eps):
    """Taylor steps from (t, x) to t_end, forward or backward in time.

    Yields, per step, the state (t, x) at its end, its signed length h and
    the Taylor coefficients at its start.  ``eps`` is the working precision
    of the number type; ``t_end`` and each step are converted to the type of
    the state.  Raises WorkCeiling once the steps would make more than
    ``MAX_RHS_EVALS`` field evaluations (``order`` per step), and
    StiffnessFailure when the step collapses below ``eps`` or the state
    stops being finite.
    """
    num = type(x[0])
    t_end = num(t_end)
    order = _order(tol)
    evals = 0
    while t != t_end:
        evals += order
        if evals > MAX_RHS_EVALS:
            raise WorkCeiling(
                f"integration stopped after {MAX_RHS_EVALS} field evaluations, "
                f"at t = {float(t):.6g} on the way to {float(t_end):.6g}"
            )
        coeffs = taylor_coefficients(plan, x, order)
        h = num(_taylor_step(coeffs))
        if not h > eps * max(1, abs(t)):
            raise StiffnessFailure(f"Taylor step collapsed at t = {float(t):.6g}")
        if h < abs(t_end - t):
            h = h if t_end > t else -h
            t += h
        else:
            h, t = t_end - t, t_end
        x = [_horner(c, h) for c in coeffs]
        if not all(map(math.isfinite, x)):
            raise StiffnessFailure(f"solution not finite at t = {float(t):.6g}")
        yield t, x, h, coeffs


def _section_crossings(plan, x, t_end, direction, eps):
    """Crossings of the section {v = 0} in the flow ``direction`` (the sign
    of v' there) of the orbit from (0, x) until t_end, as (t, u, w).

    The start itself is not a crossing, even when it lies on the section.
    """
    t0 = x[0] * 0
    for t, x1, h, (u, v, w) in _taylor_steps(plan, t0, x, t_end, eps, eps):
        if direction * v[0] < 0 <= direction * x1[1]:
            s = _step_root(v, h, x1[1], eps)
            yield t0 + s, _horner(u, s), _horner(w, s)
        t0 = t


def _flow_direction(fld, rho0):
    """Sign of vdot on the section {v = 0, u > 0} near the origin."""
    vdot = fld.evaluate((rho0, 0.0, 0.0))[1]
    return 1 if vdot > 0 else -1


def first_return(fld, rho0, omega0):
    """First return (t, u, omega) of the section map from (rho0, 0, rho0*omega0).

    A crossing before t = 0.5 or with u <= 0 is not a return: the orbit is
    followed on to a return or to t = ``RETURN_HORIZON``.
    """
    plan = taylor_plan(fld.monomials, float)
    x = [float(rho0), 0.0, float(rho0 * omega0)]
    direction = _flow_direction(fld, rho0)
    for t, u, w in _section_crossings(plan, x, RETURN_HORIZON, direction, DOUBLE_EPS):
        if t > 0.5 and u > 0:
            return t, u, w / u
    raise NoReturn(f"no section return within t = {RETURN_HORIZON}")


def measure_period(fld: VectorField3, rho0: float) -> float:
    """Mean time between same-direction section crossings after settling.

    The orbit is started on the section at radius rho0 and followed for
    ``SETTLE_TIME`` so the transverse transient decays onto the invariant
    surface; the radial coordinate is untouched on families that conserve
    u^2 + v^2.  The period is the mean of the next ``PERIOD_TURNS``
    returns.  The Taylor kernel runs on 31-digit ``decimal.Decimal``
    numbers (at least the 103 bits of 30 decimal digits; the working
    precision is 10^-30); its order and step follow from that precision.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = EXTENDED_DPS + 1
        num = decimal.Decimal
        plan = taylor_plan(fld.monomials, num)
        eps = num(10) ** -EXTENDED_DPS
        return float(_measure_period(fld, plan, rho0, SETTLE_TIME, PERIOD_TURNS, num, eps))


def _measure_period(fld, plan, rho0, settle_time, turns, num, eps):
    end = settle_time + 2.2 * math.pi * (turns + 2)
    x = [num(rho0), num(0), num(0)]
    crossings = []
    for t, u, _ in _section_crossings(plan, x, end, _flow_direction(fld, rho0), eps):
        if t > settle_time and u > 0:
            crossings.append(t)
            if len(crossings) > turns:
                return (crossings[-1] - crossings[0]) / turns
    raise NoReturn("too few section returns while measuring period")


# ---------------------------------------------------------------------------
# Taylor kernel for polynomial fields, generic over the number type


def _dot(a, b):
    return sum(map(mul, a, b))


def taylor_plan(monomials, num):
    """Code list of a polynomial field for ``taylor_coefficients``.

    ``monomials`` is ``VectorField3.monomials``.  Series 0, 1, 2 are u, v, w;
    every monomial of degree >= 2 is one more series, the product of a lower
    monomial and one state variable, listed after its factors.  Returns the
    products as (factor series, variable) pairs, per component its constant
    term and its (coefficient, series) terms, all converted by ``num``.
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
    return products, components


def taylor_coefficients(plan, x, order):
    """Taylor coefficients 0..order of the flow through x, per component.

    Order n of every product is a Cauchy product of known orders 0..n;
    then x_{n+1} = f_n / (n + 1) (Moore 1966; Jorba & Zou 2005).
    """
    products, components = plan
    zero = x[0] * 0
    series = [[xi] for xi in x] + [[] for _ in products]
    for n in range(order):
        for k, (left, axis) in enumerate(products, 3):
            series[k].append(_dot(series[left], reversed(series[axis])))
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


def displacement(fld: VectorField3, rho0: float) -> DisplacementSample:
    """Reduced displacement dbar(rho0) on the transversely selected path.

    Solves the fixed-point condition for omega0 (the return in omega equals
    omega0) by secant iteration, then reports the radial change of that
    return.  Works for either sign of the transverse eigenvalue.
    """
    if not 0 < rho0 <= 0.2:
        raise HopfcmError(f"rho0 must lie in (0, 0.2], got {rho0}")

    def g(om):
        _, u1, om1 = first_return(fld, rho0, om)
        return u1, om1

    om = 0.0
    u1, om1 = g(om)
    resid = om1 - om
    it = 0
    while abs(resid) > OMEGA_TOL and it < SECANT_MAX_ITER:
        eps = max(1e-8, abs(resid) * 0.1)
        _, om2 = g(om + eps)
        slope = ((om2 - (om + eps)) - resid) / eps
        if slope == 0:
            break
        om = om - resid / slope
        u1, om1 = g(om)
        resid = om1 - om
        it += 1
    if abs(resid) > OMEGA_TOL:
        raise NoReturn(f"omega fixed point not reached: residual {resid}")
    return DisplacementSample(rho0, u1 - rho0, om, abs(resid))


# ---------------------------------------------------------------------------
# export


def write_output(path, text):
    """Write ``text`` to ``path`` and return ``path``.

    A regular file with a single link at ``path`` that the caller may write
    is removed and created anew with the same permission bits (the new file
    belongs to the caller): truncating a recently rewritten file can wait
    for the writeback of its old contents (ext4 starts it when a file
    truncated to zero is closed), and a new file does not.  Anything else
    (no file, a symlink, a file with other hard links, a FIFO or a device
    such as /dev/null, a file whose directory the caller cannot write) is
    opened as by ``open(path, "w")`` and written through.
    """
    flags, mode = os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st and stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and os.access(path, os.W_OK):
        try:
            os.remove(path)
            flags, mode = os.O_WRONLY | os.O_CREAT | os.O_EXCL, stat.S_IMODE(st.st_mode)
        except PermissionError:
            pass
    with open(os.open(path, flags, mode), "w") as fh:
        fh.write(text)
    return path


def export_csv(trajectory: Trajectory, path):
    """CSV with header t,u,v,w at 17 significant digits."""
    rows = "".join(
        f"{t:.16e},{u:.16e},{v:.16e},{w:.16e}\n"
        for t, (u, v, w) in zip(trajectory.t, trajectory.states)
    )
    return write_output(path, "t,u,v,w\n" + rows)


def export_displacement_csv(samples, path):
    rows = "".join(f"{s.rho0:.16e},{s.dbar:.16e}\n" for s in samples)
    return write_output(path, "rho0,dbar\n" + rows)


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
    return write_output(path, PLOT_SCRIPT)
