"""Numerical backend: integration accuracy, sections, displacement, export."""

import math
import os

import numpy as np
import pytest

from hopfcm.catalog import e1_center, e1_normal, e4_normal
from hopfcm.errors import NoReturn
from hopfcm.focusq import report_for_field
from hopfcm.polysys import StatePoly, VectorField3
from hopfcm.simulate import (
    Trajectory,
    displacement,
    export_csv,
    export_displacement_csv,
    export_plot_script,
    first_return,
    integrate,
    measure_period,
    taylor_coefficients,
    taylor_plan,
)


@pytest.fixture(scope="module")
def center_field():
    return e1_center({"d": 1}).to_float({})


def test_energy_conservation(center_field):
    traj = integrate(center_field, (0.5, -0.75, 0.1), (0.0, 100.0), 1e-10, 1e-12)
    H = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
    drift = np.max(np.abs(H - 0.8125)) / 0.8125
    assert drift < 1e-8
    assert np.all(np.diff(traj.t) > 0)


def test_tightening_tolerance_reduces_drift(center_field):
    def drift(tol):
        traj = integrate(center_field, (0.5, -0.75, 0.1), (0.0, 50.0), tol, tol * 1e-2)
        H = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
        return float(np.max(np.abs(H - 0.8125)) / 0.8125)

    loose, tight = drift(1e-6), drift(1e-8)
    assert tight * 4 <= loose


def test_zero_field_constant_trajectory():
    comps = (StatePoly.zero(), StatePoly.zero(), StatePoly.zero())
    fld = VectorField3(comps, "float", ())
    traj = integrate(fld, (1.0, 2.0, 3.0), (0.0, 5.0))
    assert np.allclose(traj.states, [1.0, 2.0, 3.0])


def test_time_reversal_returns_to_start(center_field):
    # horizon short enough that the backward-unstable w-direction does not
    # amplify roundoff past the target (growth is e^T)
    fwd = integrate(center_field, (0.3, 0.1, 0.05), (0.0, 6.0), 1e-12, 1e-14)
    end = tuple(fwd.states[-1])
    back = integrate(center_field, end, (0.0, -6.0), 1e-12, 1e-14)
    start = back.states[0]  # backward trajectories are stored time-increasing
    assert max(abs(a - b) for a, b in zip(start, (0.3, 0.1, 0.05))) < 1e-9


def test_bounded_forward_orbit_on_focus_family():
    # qualitative: no blowup over the plotted window despite the unstable
    # transverse eigenvalue
    fld = e4_normal({"c": 0.25, "h": 2.0})
    traj = integrate(fld, (0.4, 0.07, 0.13), (0.0, 50.0), 1e-10, 1e-12)
    assert traj.status == 0
    assert np.all(np.isfinite(traj.states))
    assert np.max(np.abs(traj.states)) < 1e3


def test_period_measurement_matches_expansion(center_field):
    T = measure_period(center_field, 0.1)
    expected = 2 * math.pi * (1 + 0.1**4 / 40)
    assert abs(T - expected) / expected < 1e-7


def test_period_fit_matches_quartic_constant_at_d2():
    # the quartic period constant is d^4/(8(d^4+4)) = 1/10 at d = 2
    fld = e1_center({"d": 2}).to_float({})
    for rho0 in (0.05, 0.1):
        T = measure_period(fld, rho0, settle_time=12.0)
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
def test_focus_displacement_far_from_the_crosscheck_point(c, h):
    # the orbit leaves the center manifold soon after its first return; a
    # return map that follows it to the horizon costs ~10^6 evaluations
    fld = e4_normal({"c": c, "h": h})
    L1 = report_for_field(fld, 1).quantities[0]
    calls = 0
    evaluate = fld.evaluate

    def counted(point):
        nonlocal calls
        calls += 1
        return evaluate(point)

    fld.evaluate = counted
    s = displacement(fld, 0.05)
    assert s.omega_residual < 1e-10
    assert abs(s.dbar / 0.05**3 - math.pi * L1) < 0.1 * abs(math.pi * L1)
    assert calls < 20_000


def _rotation_field():
    # u' = -v, v' = u, w' = u^2 + v^2: from (1, 0, 0), u = cos t, v = sin t,
    # w = t, so the w series checks the Cauchy products
    comps = (
        StatePoly({(0, 1, 0): -1.0}),
        StatePoly({(1, 0, 0): 1.0}),
        StatePoly({(2, 0, 0): 1.0, (0, 2, 0): 1.0}),
    )
    return VectorField3(comps, "float", ())


def _rotation_series(n, factorial):
    cos = [0 if n % 2 else (-1) ** (n // 2) / factorial(n) for n in range(n + 1)]
    sin = [(-1) ** (n // 2) / factorial(n) if n % 2 else 0 for n in range(n + 1)]
    return cos, sin, [0, 1] + [0] * (n - 1)


def test_taylor_kernel_matches_the_rotation_series_in_floats():
    fld = _rotation_field()
    got = taylor_coefficients(taylor_plan(fld.monomials, float), [1.0, 0.0, 0.0], 20)
    for series, want in zip(got, _rotation_series(20, math.factorial)):
        assert len(series) == 21
        assert max(abs(a - b) for a, b in zip(series, want)) < 1e-15


def test_taylor_kernel_matches_the_rotation_series_in_mpmath():
    import mpmath as mp

    fld = _rotation_field()
    with mp.workdps(30):
        x0 = [mp.mpf(1), mp.mpf(0), mp.mpf(0)]
        got = taylor_coefficients(taylor_plan(fld.monomials, mp.mpf, mp.fdot), x0, 36)
        want = _rotation_series(36, lambda n: mp.factorial(n))
        for series in got:
            assert all(isinstance(c, mp.mpf) for c in series)
        for series, ref in zip(got, want):
            assert max(abs(a - b) for a, b in zip(series, ref)) < mp.mpf(10) ** -28


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
    fld = VectorField3(comps, "float", ())
    with pytest.raises(NoReturn):
        first_return(fld, 0.1, 0.0, horizon=10.0)


def test_first_return_goes_on_past_an_early_crossing():
    # u stays at rho0 while (v, u + w) turns at rate 20, so the orbit meets
    # the section in the flow direction every pi / 10 ~ 0.31: the crossing
    # before t = 0.5 is not a return, the one at t = pi / 5 is.
    comps = (
        StatePoly.zero(),
        StatePoly({(1, 0, 0): 20.0, (0, 0, 1): 20.0}),
        StatePoly({(0, 1, 0): -20.0}),
    )
    fld = VectorField3(comps, "float", ())
    t, u, omega = first_return(fld, 0.1, 0.0, horizon=10.0)
    assert abs(t - math.pi / 5) < 1e-9
    assert abs(u - 0.1) < 1e-12
    assert abs(omega) < 1e-9


def test_sign_match_on_unstable_normal_family():
    fld = e1_normal({"c": "1/10", "d": 1, "k": 1}).to_float({})
    L1 = report_for_field(fld, 1).quantities[0]
    s = displacement(fld, 0.05)
    assert (s.dbar > 0) == (L1 > 0)


def test_csv_export_three_points(tmp_path):
    traj = Trajectory(
        np.array([0.0, 0.5, 1.0]),
        np.array([[1.0, 2.0, 3.0]] * 3),
        nfev=0,
        status=0,
        rtol=1e-9,
        atol=1e-11,
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


def test_extended_precision_period(center_field):
    T = measure_period(center_field, 0.1, settle_time=30.0, turns=4, precision="extended")
    expected = 2 * math.pi * (1 + 0.1**4 / 40)
    assert abs(T - expected) / expected < 1e-7
    T_double = measure_period(center_field, 0.1, settle_time=30.0, turns=4)
    assert abs(T_double - T) / T < 1e-9


def test_unknown_period_precision_is_rejected(center_field):
    with pytest.raises(ValueError):
        measure_period(center_field, 0.1, precision="quad")
