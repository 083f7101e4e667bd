"""Numerical backend: integration accuracy, sections, displacement, export."""

import functools
import json
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hopfcm import simulate
from hopfcm.catalog import build, e4_normal, e5_normal
from hopfcm.errors import HopfcmError, NoReturn, StiffnessFailure
from hopfcm.focusq import report_for_field
from hopfcm.normalform import to_normal_form
from hopfcm.period import isochronicity_constants
from hopfcm.polysys import StatePoly, VectorField3, parse_system
from hopfcm.simulate import (
    Trajectory,
    displacement,
    export_csv,
    export_displacement_csv,
    export_plot_script,
    first_return,
    integrate,
    measure_period,
    taylor_plan,
)


@pytest.fixture(scope="module")
def center_field():
    return build("e1-center", {"d": 1}).to_float()


def test_energy_conservation(center_field):
    traj = integrate(center_field, (0.5, -0.75, 0.1), (0.0, 100.0), 1e-10)
    states = np.asarray(traj.states)
    H = states[:, 0] ** 2 + states[:, 1] ** 2
    drift = np.max(np.abs(H - 0.8125)) / 0.8125
    assert drift < 1e-8
    assert np.all(np.diff(traj.t) > 0)


def test_tightening_tolerance_reduces_drift(center_field):
    def drift(tol):
        traj = integrate(center_field, (0.5, -0.75, 0.1), (0.0, 50.0), tol)
        states = np.asarray(traj.states)
        H = states[:, 0] ** 2 + states[:, 1] ** 2
        return float(np.max(np.abs(H - 0.8125)) / 0.8125)

    loose, tight = drift(1e-6), drift(1e-8)
    assert tight * 4 <= loose


def test_zero_field_constant_trajectory():
    comps = (StatePoly.zero(), StatePoly.zero(), StatePoly.zero())
    fld = VectorField3(comps)
    traj = integrate(fld, (1.0, 2.0, 3.0), (0.0, 5.0))
    assert np.allclose(traj.states, [1.0, 2.0, 3.0])


def test_time_reversal_returns_to_start(center_field):
    # horizon short enough that the backward-unstable w-direction does not
    # amplify roundoff past the target (growth is e^T)
    fwd = integrate(center_field, (0.3, 0.1, 0.05), (0.0, 6.0), 1e-12)
    end = tuple(fwd.states[-1])
    back = integrate(center_field, end, (0.0, -6.0), 1e-12)
    start = back.states[0]  # backward trajectories are stored time-increasing
    assert max(abs(a - b) for a, b in zip(start, (0.3, 0.1, 0.05))) < 1e-9


def test_bounded_forward_orbit_on_focus_family():
    # qualitative: no blowup over the plotted window despite the unstable
    # transverse eigenvalue
    fld = e4_normal({"c": 0.25, "h": 2.0})
    traj = integrate(fld, (0.4, 0.07, 0.13), (0.0, 50.0), 1e-10)
    assert np.all(np.isfinite(traj.states))
    assert np.max(np.abs(traj.states)) < 1e3


def test_period_measurement_matches_expansion(center_field):
    T = measure_period(center_field, 0.1)
    expected = 2 * math.pi * (1 + 0.1**4 / 40)
    assert abs(T - expected) / expected < 1e-7


def test_period_fit_matches_quartic_constant_at_d2():
    # the quartic period constant is d^4/(8(d^4+4)) = 1/10 at d = 2
    fld = build("e1-center", {"d": 2}).to_float()
    for rho0 in (0.05, 0.1):
        T = measure_period(fld, rho0)
        fit = (T / (2 * math.pi) - 1) / rho0**4
        assert abs(fit - 0.1) <= 0.05 * 0.1


def test_center_displacement_vanishes(center_field):
    for rho0 in (0.05, 0.2):
        s = displacement(center_field, rho0)
        assert abs(s.dbar) < 1e-10
        assert s.omega_residual < 1e-10


def test_focus_displacement_matches_first_quantity():
    fld = e4_normal({"c": 0.25, "h": 2.0})
    L1 = report_for_field(fld, 1).quantities[0]
    s = displacement(fld, 0.05)
    assert s.dbar < 0
    assert abs(s.dbar / 0.05**3 - math.pi * L1) < 0.1 * abs(math.pi * L1)


@pytest.mark.parametrize("c,h", [(9 / 16, 3.0), (1 / 2, 2.0)])
def test_focus_displacement_far_from_the_crosscheck_point(c, h, monkeypatch):
    # the orbit leaves the center manifold soon after its first return; a
    # return map that follows it to the horizon makes 10^5 to 10^6 field
    # evaluations (order many per Taylor step)
    fld = e4_normal({"c": c, "h": h})
    L1 = report_for_field(fld, 1).quantities[0]
    evals = 0

    def counted_plan(monomials):
        kernel = taylor_plan(monomials)

        def counted(x, order):
            nonlocal evals
            evals += order
            return kernel(x, order)

        return counted

    monkeypatch.setattr(simulate, "taylor_plan", counted_plan)
    s = displacement(fld, 0.05)
    assert s.omega_residual < 1e-10
    assert abs(s.dbar / 0.05**3 - math.pi * L1) < 0.1 * abs(math.pi * L1)
    assert 0 < evals < 20_000


def test_focus_displacement_matches_the_recorded_reference():
    # perfbench/reference/readme-displacement.json: e4-normal at c = 1/4, h = 2
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "reference", "readme-displacement.json")
    with open(path) as fh:
        samples = json.load(fh)["output"]["samples"]
    fld = e4_normal({"c": 0.25, "h": 2.0})
    assert [r["rho0"] for r in samples] == [0.025, 0.05]
    for ref in samples:
        dbar = displacement(fld, ref["rho0"]).dbar
        assert abs(dbar - ref["dbar"]) <= 1e-6 * abs(ref["dbar"])


@pytest.mark.parametrize("rho0", [math.nan, math.inf])
def test_displacement_rejects_a_radius_that_is_not_finite(center_field, rho0):
    with pytest.raises(HopfcmError):
        displacement(center_field, rho0)


@pytest.mark.parametrize("x0", [(math.nan, 0.0, 0.0), (0.1, math.inf, 0.0)])
def test_integrate_rejects_a_start_state_that_is_not_finite(center_field, x0):
    with pytest.raises(HopfcmError):
        integrate(center_field, x0, (0.0, 1.0))


def test_integrate_tolerance_stops_at_double_precision(center_field):
    traj = integrate(center_field, (0.3, 0.1, 0.05), (0.0, 1.0), simulate.DOUBLE_EPS)
    assert traj.t[-1] == 1.0
    with pytest.raises(HopfcmError, match=r"\[1e-16, 1e-2\]"):
        integrate(center_field, (0.3, 0.1, 0.05), (0.0, 1.0), simulate.DOUBLE_EPS / 2)


@pytest.mark.parametrize("t_end", [10.0, -10.0])
def test_stop_radius_ends_at_the_first_step_outside(t_end):
    # u' = u, v' = -v: forward the orbit leaves radius 3 along u, backward
    # along v
    comps = (StatePoly({(1, 0, 0): 1.0}), StatePoly({(0, 1, 0): -1.0}), StatePoly.zero())
    fld = VectorField3(comps)
    traj = integrate(fld, (1.0, 1.0, 0.0), (0.0, t_end), stop_radius=3.0)
    radii = np.linalg.norm(traj.states, axis=1)
    if t_end < 0:
        radii = radii[::-1]  # run order
    assert radii[-1] > 3.0
    assert np.all(radii[:-1] <= 3.0)
    assert np.max(np.abs(traj.t)) < abs(t_end)


@pytest.mark.parametrize("t_end", [50.0, -50.0])
def test_max_points_keeps_the_indices_of_numpy_linspace(t_end):
    # a rotation: about 70 step ends either way
    fld = _plane_rotation_field()
    full = integrate(fld, (1.0, 0.0, 1.0), (0.0, t_end))
    n = len(full.t)
    assert n > 50
    for m in range(2, n + 2):
        thin = integrate(fld, (1.0, 0.0, 1.0), (0.0, t_end), max_points=m)
        idx = np.linspace(0, n - 1, m).astype(int) if m < n else range(n)
        assert thin.t == [full.t[i] for i in idx]
        assert thin.states == [full.states[i] for i in idx]
        assert thin.nfev == full.nfev
    for m in (1, 0):
        with pytest.raises(HopfcmError):
            integrate(fld, (1.0, 0.0, 1.0), (0.0, t_end), max_points=m)


def test_blow_up_is_a_stiffness_failure():
    # u' = u^2 from u = 1 is 1 / (1 - t): it leaves every bound at t = 1
    comps = (StatePoly({(2, 0, 0): 1.0}), StatePoly.zero(), StatePoly.zero())
    fld = VectorField3(comps)
    with pytest.raises(StiffnessFailure):
        integrate(fld, (1.0, 0.0, 0.0), (0.0, 2.0))


def _rotation_field():
    # u' = -v, v' = u, w' = u^2 + v^2: from (1, 0, 0), u = cos t, v = sin t,
    # w = t, so the w series checks the Cauchy products
    comps = (
        StatePoly({(0, 1, 0): -1.0}),
        StatePoly({(1, 0, 0): 1.0}),
        StatePoly({(2, 0, 0): 1.0, (0, 2, 0): 1.0}),
    )
    return VectorField3(comps)


def _rotation_series(n, factorial):
    cos = [0 if n % 2 else (-1) ** (n // 2) / factorial(n) for n in range(n + 1)]
    sin = [(-1) ** (n // 2) / factorial(n) if n % 2 else 0 for n in range(n + 1)]
    return cos, sin, [0, 1] + [0] * (n - 1)


def test_taylor_kernel_matches_the_rotation_series_in_floats():
    fld = _rotation_field()
    got = taylor_plan(fld.monomials)([1.0, 0.0, 0.0], 20)
    for series, want in zip(got, _rotation_series(20, math.factorial)):
        assert len(series) == 21
        assert max(abs(a - b) for a, b in zip(series, want)) < 1e-15


def _generic_plan(monomials):
    # the interpreted Taylor kernel the compiled one replaced, kept as its
    # oracle: the same code list, walked by a generic loop
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
        const, terms = 0.0, []
        for c, e in comp:
            if any(e):
                terms.append((c, series(e)))
            else:
                const += c
        components.append((const, terms))
    return products, components


def _generic_coefficients(plan, x, order):
    products, components = plan
    zero = x[0] * 0
    series = [[xi] for xi in x] + [[] for _ in products]
    for n in range(order):
        # every sum runs left to right with +, as the kernel adds: a product
        # from the int 0 (the builtin sum of Python 3.11, which compensates
        # float rounding from 3.12 on), a component from its start
        for k, (left, axis) in enumerate(products, 3):
            p = 0
            for a, b in zip(series[left], reversed(series[axis])):
                p = p + a * b
            series[k].append(p)
        for i, (const, terms) in enumerate(components):
            f = const if n == 0 else zero
            for c, k in terms:
                f = f + c * series[k][n]
            series[i].append(f / (n + 1))
    return series[:3]


def _cubic_document_field():
    # a constant term, and cubic monomials that are products of products
    term = lambda e, c: {"exp": e, "coeff": c}
    return parse_system({
        "backend": "float",
        "params": {},
        "state_vars": ["x", "y", "z"],
        "equations": [
            [term([0, 1, 0], "1"), term([2, 0, 1], "1/3"), term([0, 0, 0], "1/7")],
            [term([1, 0, 0], "-1"), term([1, 2, 0], "-2/3"), term([0, 0, 3], "1/5")],
            [term([0, 0, 1], "-1/2"), term([1, 1, 1], "3/11"), term([0, 3, 0], "-1/9")],
        ],
    })


def _plane_rotation_field():
    # w' = 0: its coefficients after order 0 are the start x[0] * 0 alone
    return VectorField3((StatePoly({(0, 1, 0): -1.0}), StatePoly({(1, 0, 0): 1.0}),
                         StatePoly.zero()))


ORACLE_FIELDS = {
    "e1-center": lambda: build("e1-center", {"d": 1}).to_float(),
    "e4-normal": lambda: e4_normal({"c": 0.25, "h": 2.0}),
    "e5-normal": lambda: e5_normal({"c": -0.25, "h": 2.0}),
    "rotation": _rotation_field,
    "plane-rotation": _plane_rotation_field,
    "cubic-document": _cubic_document_field,
}


# the id names the number type, floats, that kernel and oracle run on
@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS), ids=lambda name: f"{name}-float")
def test_compiled_kernel_matches_the_generic_loop(name):
    fld = ORACLE_FIELDS[name]()
    kernel = taylor_plan(fld.monomials)
    plan = _generic_plan(fld.monomials)
    products, components = plan
    shape = (tuple(products), tuple(tuple(k for _, k in terms) for _, terms in components))
    # the kernel is compiled in blocks of orders: each side of the first
    # boundary, the orders of a trajectory (13) and of a section return or
    # a period (20), and one past more blocks (36)
    boundary = simulate._order_blocks(*shape, 36)[0][1]
    orders = sorted({0, 1, 2, boundary, boundary + 1, 13, 20, 36})
    # a negative first coordinate makes the zero start x[0] * 0 a -0.0
    for x in ([0.1, 0.0, 0.0], [-0.125, 0.0625, -0.03], [0.3, -0.2, 0.1]):
        # the generic loop computes each order from the lower ones alone
        series = _generic_coefficients(plan, x, orders[-1])
        for order in orders:
            got, want = kernel(x, order), [s[:order + 1] for s in series]
            assert got == want
            assert repr(got) == repr(want)


def test_a_kernel_is_compiled_once_per_shape():
    # e1-center has the same monomials at every d != 0
    x = [0.1, 0.0, 0.0]
    taylor_plan(build("e1-center", {"d": 1}).to_float().monomials)(x, 13)
    compiled = simulate._kernel_factory.cache_info().misses
    taylor_plan(build("e1-center", {"d": 3}).to_float().monomials)(x, 13)
    assert simulate._kernel_factory.cache_info().misses == compiled


def test_compiling_a_period_fit_kernel_stays_small(monkeypatch):
    # the widest shape of the tests (nine products), at the highest order a
    # run reaches (20, at tolerance DOUBLE_EPS): all 20 orders compiled as
    # one function peak at 2.9 MB, in blocks at 0.5 MB, a fresh cache of
    # blocks compiling each
    fld = _cubic_document_field()
    monkeypatch.setattr(simulate, "_kernel_factory",
                        functools.cache(simulate._kernel_factory.__wrapped__))
    kernel = taylor_plan(fld.monomials)
    order = simulate._order(simulate.DOUBLE_EPS)
    assert order == 20
    tracemalloc.start()
    try:
        kernel([0.1, -0.05, 0.02], order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert simulate._kernel_factory.cache_info().misses > 1
    assert peak < 1_000_000


def test_period_matches_the_exact_period_series():
    # T(rho0) = 2 pi (1 + sum_k T_2k rho0^2k) with T_2..T_12 exact: the
    # terms left out are below 1e-17 relative at rho0 <= 0.1
    for d in (1, 2):
        nf = to_normal_form(build("e1-center", {"d": d}), (Fraction(0),) * 3)
        constants = isochronicity_constants(nf, 6).constants
        fld = build("e1-center", {"d": d}).to_float()
        for rho0 in (0.05, 0.1):
            r2 = Fraction(rho0) ** 2
            want = 2 * math.pi * float(1 + sum(t * r2**k for k, t in enumerate(constants, 1)))
            got = measure_period(fld, rho0)
            assert abs(got - want) <= 1e-14 * want


def test_displacement_richardson_consistency():
    fld = e4_normal({"c": 0.25, "h": 2.0})
    r1 = displacement(fld, 0.05).dbar / 0.05**3
    r2 = displacement(fld, 0.025).dbar / 0.025**3
    assert abs(r1 - r2) <= 0.1 * abs(r2)


def test_displacement_detects_focus_drift():
    # the spiral moves the radius many orders above the center's residual
    fld = e4_normal({"c": 0.25, "h": 2.0})
    s = displacement(fld, 0.05)
    assert abs(s.dbar) > 1e-7


def test_no_return_for_non_rotating_field():
    # v increases monotonically: the orbit leaves the section forever
    comps = (
        StatePoly({(0, 0, 0): 1.0}),
        StatePoly({(0, 0, 0): 1.0}),
        StatePoly({(0, 0, 1): -1.0}),
    )
    fld = VectorField3(comps)
    with pytest.raises(NoReturn):
        first_return(fld, 0.1, 0.0)


def test_first_return_goes_on_past_an_early_crossing():
    # u stays at rho0 while (v, u + w) turns at rate 20, so the orbit meets
    # the section in the flow direction every pi / 10 ~ 0.31: the crossing
    # before t = 0.5 is not a return, the one at t = pi / 5 is.
    comps = (
        StatePoly.zero(),
        StatePoly({(1, 0, 0): 20.0, (0, 0, 1): 20.0}),
        StatePoly({(0, 1, 0): -20.0}),
    )
    fld = VectorField3(comps)
    t, u, omega = first_return(fld, 0.1, 0.0)
    assert abs(t - math.pi / 5) < 1e-9
    assert abs(u - 0.1) < 1e-12
    assert abs(omega) < 1e-9


def test_sign_match_on_unstable_normal_family():
    fld = build("e1-normal", {"c": "1/10", "d": 1, "k": 1}).to_float()
    L1 = report_for_field(fld, 1).quantities[0]
    s = displacement(fld, 0.05)
    assert (s.dbar > 0) == (L1 > 0)


def test_csv_export_three_points(tmp_path):
    traj = Trajectory(
        np.array([0.0, 0.5, 1.0]),
        np.array([[1.0, 2.0, 3.0]] * 3),
        nfev=0,
    )
    path = tmp_path / "t.csv"
    export_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "t,u,v,w"
    # 17 significant digits
    assert "1.0000000000000000e+00" in lines[1]


def test_displacement_csv_and_plot_script(tmp_path):
    fld = e4_normal({"c": 0.25, "h": 2.0})
    samples = [displacement(fld, 0.05)]
    csv = tmp_path / "sweep.csv"
    export_displacement_csv(samples, csv)
    assert csv.read_text().startswith("rho0,dbar\n")
    script = tmp_path / "plot.py"
    export_plot_script(script)
    assert os.access(script, os.R_OK)
    compile(script.read_text(), str(script), "exec")


def _long_and_short_trajectories():
    t = np.linspace(0.0, 1.0, 50)
    states = np.column_stack([np.cos(t), np.sin(t), t])
    return Trajectory(t, states, 0), Trajectory(t[:3], states[:3], 0)


def test_export_over_a_longer_file_holds_only_the_new_rows(tmp_path):
    long, short = _long_and_short_trajectories()
    path = tmp_path / "t.csv"
    export_csv(long, path)
    export_csv(short, path)
    fresh = tmp_path / "fresh.csv"
    export_csv(short, fresh)
    assert path.read_bytes() == fresh.read_bytes()
    assert len(path.read_text().splitlines()) == 4

    script = tmp_path / "plot.py"
    script.write_text("#" * 10 * len(simulate.PLOT_SCRIPT))
    export_plot_script(script)
    assert script.read_text() == simulate.PLOT_SCRIPT


def test_export_writes_through_a_symlink_and_a_hard_link(tmp_path):
    _, short = _long_and_short_trajectories()
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "t.csv"
    link.symlink_to(target)
    export_csv(short, link)
    assert link.is_symlink()
    assert target.read_text().startswith("t,u,v,w\n")

    hard = tmp_path / "hard.csv"
    os.link(target, hard)
    export_plot_script(hard)
    assert os.path.samefile(target, hard)
    assert target.read_text() == simulate.PLOT_SCRIPT


def test_export_over_a_file_keeps_its_permission_bits(tmp_path):
    _, short = _long_and_short_trajectories()
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    path.chmod(0o600)
    export_csv(short, path)
    assert path.stat().st_mode & 0o777 == 0o600
    assert path.read_text().startswith("t,u,v,w\n")
