"""Numerical backend: adaptive integration, Poincare sections, period and
displacement measurement, CSV/plot-script export.

Integration uses a Dormand-Prince 8(5,3) embedded pair with dense output;
section crossings are polished on the dense interpolant to 1e-12.  The
reduced displacement at radius rho0 is measured on the path selected by the
transverse direction: the return map in omega = w/u is solved for its fixed
point omega0 (secant iteration, which handles both signs of the transverse
eigenvalue), then dbar(rho0) is the radial change of the first return from
(rho0, 0, rho0*omega0).  An extended-precision path
(``precision="extended"``) backs the period fit with an adaptive Taylor
integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import NoReturn, StiffnessFailure
from .polysys import VectorField3

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


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
        raise ValueError("tolerances must lie in (0, 1e-2]")

    def rhs(t, s):
        return fld.evaluate(tuple(s))

    events = None
    if stop_radius is not None:
        def escape(t, s):
            return s[0] * s[0] + s[1] * s[1] + s[2] * s[2] - stop_radius**2

        escape.terminal = True
        events = escape

    backward = t_span[1] < t_span[0]
    sol = solve_ivp(
        rhs,
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


def _section_crossings(fld, y0, horizon, rtol, atol, direction, min_time=1e-9):
    """Times of v = 0 crossings with u > 0 in the given v-direction."""

    def rhs(t, s):
        return fld.evaluate(tuple(s))

    def ev(t, s):
        return s[1]

    ev.terminal = False
    ev.direction = direction
    sol = solve_ivp(
        rhs,
        (0.0, horizon),
        list(y0),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=ev,
    )
    if sol.status == -1:
        raise StiffnessFailure(sol.message)
    out = []
    for te in sol.t_events[0]:
        if te <= min_time:
            continue
        state = sol.sol(te)
        if state[0] > 0:
            # polish the crossing on the dense interpolant
            window = max(1e-6, 1e-3 * te)
            f = lambda t: sol.sol(t)[1]
            a, b = te - window, min(te + window, sol.t[-1])
            try:
                if f(a) * f(b) < 0:
                    te = brentq(f, a, b, xtol=1e-14, rtol=8.9e-16)
            except ValueError:
                pass
            out.append((te, sol.sol(te)))
    return out, sol


def _flow_direction(fld, rho0):
    """Sign of vdot on the section {v = 0, u > 0} near the origin."""
    vdot = fld.evaluate((rho0, 0.0, 0.0))[1]
    return 1.0 if vdot > 0 else -1.0


def first_return(fld, rho0, omega0, rtol=1e-12, atol=1e-14, horizon=60.0):
    """First return (u, omega) of the section map from (rho0, 0, rho0*omega0)."""
    y0 = (rho0, 0.0, rho0 * omega0)
    direction = _flow_direction(fld, rho0)
    crossings, _ = _section_crossings(fld, y0, horizon, rtol, atol, direction)
    for te, state in crossings:
        if te > 0.5:
            u, v, w = state
            return te, u, w / u
    raise NoReturn(f"no section return within t = {horizon}")


def measure_period(
    fld: VectorField3,
    rho0: float,
    settle_time: float = 35.0,
    turns: int = 8,
    rtol: float = 1e-12,
    atol: float = 1e-14,
    precision: str = "double",
) -> float:
    """Mean time between same-direction section crossings after settling.

    The orbit is started on the section at radius rho0 and integrated for
    ``settle_time`` so the transverse transient decays onto the invariant
    surface; the radial coordinate is untouched on families that conserve
    u^2 + v^2.  ``precision`` is "double" (DOP853) or "extended" (mpmath
    Taylor method; ``rtol``/``atol`` do not apply).
    """
    if precision not in ("double", "extended"):
        raise ValueError(f"unknown precision {precision!r}")
    if precision == "extended":
        return _measure_period_extended(fld, rho0, settle_time, turns)

    def rhs(t, s):
        return fld.evaluate(tuple(s))

    settle = solve_ivp(
        rhs, (0.0, settle_time), [rho0, 0.0, 0.0], method="DOP853",
        rtol=rtol, atol=atol,
    )
    if settle.status != 0:
        raise StiffnessFailure(settle.message)
    y1 = settle.y[:, -1]
    direction = _flow_direction(fld, rho0)
    horizon = 2.2 * math.pi * (turns + 2)
    crossings, _ = _section_crossings(fld, y1, horizon, rtol, atol, direction)
    times = [te for te, _ in crossings]
    if len(times) < 3:
        raise NoReturn("fewer than three section returns while measuring period")
    diffs = np.diff(times)
    return float(np.mean(diffs[: turns]))


def _measure_period_extended(fld, rho0, settle_time, turns, dps=30):
    """mpmath Taylor-method backend for the period fit."""
    import mpmath as mp

    with mp.workdps(dps):
        def rhs(t, s):
            return [mp.mpf(str(v)) if not isinstance(v, mp.mpf) else v
                    for v in fld.evaluate((s[0], s[1], s[2]))]

        f = mp.odefun(rhs, 0, [mp.mpf(rho0), mp.mpf(0), mp.mpf(0)], tol=mp.mpf(10) ** (-(dps - 8)))
        direction = _flow_direction(fld, rho0)

        def v_at(t):
            return f(t)[1]

        # march past the transient, then bracket section crossings
        crossings = []
        t = mp.mpf(settle_time)
        prev_t, prev_v = t, v_at(t)
        step = mp.mpf(0.25)
        while len(crossings) < turns + 1 and t < settle_time + _horizon(turns):
            t = t + step
            cur_v = v_at(t)
            if prev_v * cur_v < 0 and (cur_v - prev_v) * direction > 0:
                root = mp.findroot(v_at, (prev_t + t) / 2)
                if f(root)[0] > 0:
                    crossings.append(root)
            prev_t, prev_v = t, cur_v
        if len(crossings) < 2:
            raise NoReturn("extended-precision run found too few returns")
        diffs = [crossings[i + 1] - crossings[i] for i in range(len(crossings) - 1)]
        return float(sum(diffs) / len(diffs))


def _horizon(turns):
    return 2.2 * math.pi * (turns + 2)


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
        raise ValueError("rho0 must lie in (0, 0.2]")

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
