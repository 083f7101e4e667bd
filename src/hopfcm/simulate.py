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

The kernel is straight-line float arithmetic generated per monomial shape
of the field and per order, compiled in blocks of orders on first use
(``taylor_plan``).  Trajectories, section returns and periods all run it
at double precision.

Every file the package writes goes through ``write_output``: the exports
here, the ``verify`` artifacts and the CLI's ``--out`` reports.
"""

from __future__ import annotations

import functools
import math
import os
import stat
from dataclasses import dataclass
from typing import Optional

from .errors import HopfcmError, NoReturn, StiffnessFailure, WorkCeiling, abridged
from .paramfield import finite_float
from .polysys import VectorField3

DEFAULT_TOL = 1e-10
DOUBLE_EPS = 1e-16
# Field evaluations (steps x order) one run may make: about 2 s of Taylor
# steps on a 3D quadratic field (e1-center, shared 2-vCPU x86-64 host), a
# hundred times the longest run of the README and the verification claims
# (under 10^4).
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
    outside [DOUBLE_EPS, 1e-2] (a smaller one asks for more than double
    precision holds), an end of ``t_span`` that is not finite or a
    ``max_points`` below 2, RegionUndefined on a start state that does not
    fit a float, WorkCeiling after ``MAX_RHS_EVALS`` field evaluations (a
    finite but huge span would take as long), and StiffnessFailure when the
    solution blows up.
    """
    if not DOUBLE_EPS <= tol <= 1e-2:
        raise HopfcmError(f"tolerance must lie in [1e-16, 1e-2], got {tol}")
    if not all(math.isfinite(t) for t in t_span):
        raise HopfcmError(f"time span must be finite, got {tuple(t_span)}")
    if max_points is not None and max_points < 2:
        raise HopfcmError(f"max_points must be at least 2, got {max_points}")
    x0 = [finite_float(v, "start state") for v in x0]

    t0, t1 = (float(t) for t in t_span)
    ts, xs = [t0], [x0]
    kernel = taylor_plan(fld.monomials)
    for t, x, _, _ in _taylor_steps(kernel, t0, x0, t1, tol):
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


def _taylor_steps(kernel, t, x, t_end, tol):
    """Taylor steps from (t, x) to t_end, forward or backward in time.

    Yields, per step, the state (t, x) at its end, its signed length h and
    the Taylor coefficients at its start.  Raises WorkCeiling once the
    steps would make more than ``MAX_RHS_EVALS`` field evaluations
    (``order`` per step), and StiffnessFailure when the step collapses
    below ``DOUBLE_EPS`` relative to t or the state stops being finite.
    """
    order = _order(tol)
    evals = 0
    while t != t_end:
        evals += order
        if evals > MAX_RHS_EVALS:
            raise WorkCeiling(
                f"integration stopped after {MAX_RHS_EVALS} field evaluations, "
                f"at t = {t:.6g} on the way to {t_end:.6g}"
            )
        coeffs = kernel(x, order)
        h = _taylor_step(coeffs)
        if not h > DOUBLE_EPS * max(1, abs(t)):
            raise StiffnessFailure(f"Taylor step collapsed at t = {t:.6g}")
        if h < abs(t_end - t):
            h = h if t_end > t else -h
            t += h
        else:
            h, t = t_end - t, t_end
        x = [_horner(c, h) for c in coeffs]
        if not all(map(math.isfinite, x)):
            raise StiffnessFailure(f"solution not finite at t = {t:.6g}")
        yield t, x, h, coeffs


def _section_crossings(kernel, x, t_end, direction):
    """Crossings of the section {v = 0} in the flow ``direction`` (the sign
    of v' there) of the orbit from (0, x) until t_end, as (t, u, w).

    The start itself is not a crossing, even when it lies on the section.
    """
    t0 = 0.0
    for t, x1, h, (u, v, w) in _taylor_steps(kernel, t0, x, t_end, DOUBLE_EPS):
        if direction * v[0] < 0 <= direction * x1[1]:
            s = _step_root(v, h, x1[1])
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
    kernel = taylor_plan(fld.monomials)
    x = [float(rho0), 0.0, float(rho0 * omega0)]
    direction = _flow_direction(fld, rho0)
    for t, u, w in _section_crossings(kernel, x, RETURN_HORIZON, direction):
        if t > 0.5 and u > 0:
            return t, u, w / u
    raise NoReturn(f"no section return within t = {RETURN_HORIZON}")


def measure_period(fld: VectorField3, rho0: float) -> float:
    """Mean time between same-direction section crossings after settling.

    The orbit is started on the section at radius rho0 and followed for
    ``SETTLE_TIME`` so the transverse transient decays onto the invariant
    surface; the radial coordinate is untouched on families that conserve
    u^2 + v^2.  The period is the mean of the next ``PERIOD_TURNS``
    returns.  The Taylor kernel runs at double precision, as for section
    returns; its order and step follow from that precision.
    """
    kernel = taylor_plan(fld.monomials)
    end = SETTLE_TIME + 2.2 * math.pi * (PERIOD_TURNS + 2)
    x = [float(rho0), 0.0, 0.0]
    crossings = []
    for t, u, _ in _section_crossings(kernel, x, end, _flow_direction(fld, rho0)):
        if t > SETTLE_TIME and u > 0:
            crossings.append(t)
            if len(crossings) > PERIOD_TURNS:
                return (crossings[-1] - crossings[0]) / PERIOD_TURNS
    raise NoReturn("too few section returns while measuring period")


# ---------------------------------------------------------------------------
# Taylor kernel for polynomial fields

# Multiplications (Cauchy-product and component terms) per compiled block of
# orders.  Compile memory grows with the source: the 20 orders of a run at
# double precision on e1-center peak at 1.1 MB (tracemalloc) as one function
# and at 0.5 MB in blocks of this size, the retained code included; a system
# document with more products (nine: 2.9 MB and 0.5 MB) gains more.
BLOCK_TERMS = 256


def taylor_plan(monomials):
    """Compiled Taylor kernel of a polynomial field: ``kernel(x, order)``
    returns the Taylor coefficients 0..order of the flow through x, per
    component.

    ``monomials`` is ``VectorField3.monomials``.  Series 0, 1, 2 are u, v, w;
    every monomial of degree >= 2 is one more series, the product of a lower
    monomial and one state variable, listed after its factors.  Order n of
    every product is a Cauchy product of known orders 0..n; then
    x_{n+1} = f_n / (n + 1) (Moore 1966; Jorba & Zou 2005).  The code
    depends only on the field's shape (the products and the series of each
    component's terms) and the order, so it is generated per shape and
    order, in blocks of orders (``_order_blocks``) compiled on the first
    call that needs them; the constants and coefficients are the arguments
    of each block's factory.
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

    consts, coefficients, components = [], [], []
    for comp in monomials:
        const, terms = 0.0, []
        for c, e in comp:
            if any(e):
                coefficients.append(c)
                terms.append(series(e))
            else:
                const += c
        consts.append(const)
        components.append(tuple(terms))
    shape = (tuple(products), tuple(components))
    args = (*consts, *coefficients)
    compiled = {}

    def kernel(x, order):
        blocks = compiled.get(order)
        if blocks is None:
            blocks = compiled[order] = [
                _kernel_factory(*shape, first, stop)(*args)
                for first, stop in _order_blocks(*shape, order)
            ]
        series = x
        for block in blocks:
            series = block(series)
        return series[:3]

    return kernel


def _order_blocks(products, components, order):
    """Orders 0..order-1 as (first, stop) ranges of at most ``BLOCK_TERMS``
    multiplications each (one order may exceed it alone), split from order
    0 on, so every order shares the blocks below its last.  Order 0 is one
    empty block, which only puts x into series lists."""
    terms = sum(map(len, components))
    blocks, first, size = [], 0, 0
    for n in range(order):
        cost = len(products) * (n + 1) + terms
        if size and size + cost > BLOCK_TERMS:
            blocks.append((first, n))
            first, size = n, 0
        size += cost
    blocks.append((first, order))
    return blocks


def _kernel_source(products, components, first, stop):
    """Source of the factory of one block of the kernel: orders first..stop-1
    of one shape, ``products`` as (factor series, variable) pairs and
    ``components`` as the series of each component's terms.  It names
    order n of series k ``sk_n``, the constant of component i ``ki`` and the
    j-th coefficient ``cj``, and holds no other values than these integer
    indices.

    The block is straight-line arithmetic on locals.  The first block takes
    x and returns the series lists; a later one takes those lists, unpacks
    the known orders it reads and extends them.  Order n of a product is
    ``0 + left_0 * variable_n + ... + left_n * variable_0``, the left fold
    of the builtin ``sum`` on Python 3.11; each component adds its terms in
    order to the constant at n = 0 and to ``x[0] * 0`` after, and divides
    by n + 1.
    """

    def names(k, orders):
        return ", ".join(f"s{k}_{n}" for n in orders)

    n_terms = sum(map(len, components))
    params = ["k0", "k1", "k2"] + [f"c{j}" for j in range(n_terms)]
    width = 3 + len(products)
    read = {0, 1, 2} | {left for left, _ in products}
    lines = [f"def factory({', '.join(params)}):", "    def block(series):"]
    if first == 0:
        lines.append("        s0_0, s1_0, s2_0 = series[0], series[1], series[2]")
    else:
        lines.append(f"        {', '.join(f's{k}' for k in range(width))} = series")
        for k in sorted(read):
            lines.append(f"        {names(k, range(first + 1 if k < 3 else first))}, = s{k}")
    if stop > 1:
        lines.append("        zero = s0_0 * 0")
    for n in range(first, stop):
        for k, (left, axis) in enumerate(products, 3):
            addends = ["0"] + [f"s{left}_{j} * s{axis}_{n - j}" for j in range(n + 1)]
            lines.append(f"        s{k}_{n} = {' + '.join(addends)}")
        j = 0
        for i, terms in enumerate(components):
            addends = [f"k{i}" if n == 0 else "zero"]
            addends += [f"c{j + t} * s{k}_{n}" for t, k in enumerate(terms)]
            j += len(terms)
            lines.append(f"        s{i}_{n + 1} = ({' + '.join(addends)}) / {n + 1}")
    if first == 0:
        lists = [f"[{names(k, range(stop + 1))}]" for k in range(3)]
        lists += [f"[{names(k, range(stop))}]" for k in range(3, width)]
        lines.append(f"        return [{', '.join(lists)}]")
    else:
        for k in range(width):
            orders = range(first + 1, stop + 1) if k < 3 else range(first, stop)
            lines.append(f"        s{k} += {names(k, orders)},")
        lines.append("        return series")
    lines.append("    return block")
    return "\n".join(lines) + "\n"


@functools.cache
def _kernel_factory(products, components, first, stop):
    """The factory of one kernel block (see ``_kernel_source``), compiled on
    first use."""
    namespace = {}
    exec(_kernel_source(products, components, first, stop), namespace)
    return namespace["factory"]


def _taylor_step(coeffs):
    """Jorba-Zou step rho / e^2, rho from the last two coefficients."""
    order = len(coeffs[0]) - 1
    scale = max(1.0, max(abs(c[0]) for c in coeffs))
    rho = math.inf
    for j in (order - 1, order):
        size = max(abs(c[j]) for c in coeffs)
        if size > 0:
            rho = min(rho, (scale / size) ** (1.0 / j))
    return rho / math.e**2


def _horner(coeffs, s):
    acc = coeffs[-1] * 0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _step_root(p, h, p_h):
    """Root in [0, h] of the step polynomial p, where p(0) and p(h) = p_h
    differ in sign.

    Newton's method from the secant point, kept inside the bracket by a
    bisection step whenever an iterate would leave it.  It stops once a step
    is within a few units of ``DOUBLE_EPS`` (rounding noise).
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
        if abs(nxt - s) <= 8 * DOUBLE_EPS * h:
            return nxt
        s = nxt
    return s


def displacement(fld: VectorField3, rho0) -> DisplacementSample:
    """Reduced displacement dbar(rho0) on the transversely selected path.

    Solves the fixed-point condition for omega0 (the return in omega equals
    omega0) by secant iteration, then reports the radial change of that
    return.  Works for either sign of the transverse eigenvalue.
    """
    if not 0 < rho0 <= 0.2:
        raise HopfcmError(f"rho0 must lie in (0, 0.2], got {abridged(str(rho0))}")
    rho0 = finite_float(rho0, "rho0")

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
