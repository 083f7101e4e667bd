"""Named verification claims: one entry point per headline result.

Each claim function returns a dict with ``passed`` plus enough detail to
audit the comparison (including any normalization factors relating raw
quantities to published closed forms).  The CLI exposes them through
``verify --claim <id>``; the acceptance test suite runs them all.
"""

from __future__ import annotations

import math
import os
import random
import tempfile
from fractions import Fraction

from . import catalog, simulate
from .cyclicity import (
    cyclicity_bound,
    gradient_on_line,
    jacobian_rank,
    jet_focus_report,
    reduce_quantities,
)
from .focusq import report_for_field, verify_first_integral
from .normalform import to_normal_form
from .paramfield import ParamExpr
from .period import isochronicity_constants
from .polysys import StatePoly, char_cubic, hopf_test

F = Fraction

# sample sizes, seeds and tolerances of the claims
HOPF_SAMPLES = 200
HOPF_SEED = 20240901
FOCI_REL_TOL = 1e-6
PERIOD_FIT_TOL = 0.05
TEO5_LINEAR_ORDER = 9
CROSSCHECK_REL_TOL = 0.10
DRIFT_TOL = 1e-8


def _sample_rationals(rng, lo, hi, den):
    return F(rng.randint(lo, hi), rng.randint(1, den))


# ---------------------------------------------------------------------------
# claim 1: Hopf characterization at E1


def claim_teo1_hopf():
    """hopf_test is true exactly on {a=c, (1+cd)(1-bd)-c^2d^2 > 0}, with
    eigenvalues +/-(k/d)i and -d under the k-reparametrization.

    The characterization is sampled.  The eigenvalues are three identities
    in Q(c, d, k): at a = c, b = (1 + cd - c^2d^2 - k^2)/(d(1 + cd)) the
    characteristic cubic of E1 has gamma - alpha beta = 0, beta = (k/d)^2
    and third root -alpha = -d, so for k > 0, d != 0, cd != -1 its spectrum
    is +/-(k/d)i and -d, and the point is a Hopf point.
    """
    rng = random.Random(HOPF_SEED)
    mismatches = []
    for i in range(HOPF_SAMPLES):
        b = _sample_rationals(rng, -6, 6, 4)
        c = _sample_rationals(rng, -6, 6, 4)
        d = _sample_rationals(rng, -6, 6, 4)
        if d == 0:
            continue
        a = c if i % 2 == 0 else c + _sample_rationals(rng, 1, 4, 3)
        bound = catalog.build("khaled-original", {"a": a, "b": b, "c": c, "d": d})
        cubic = char_cubic(bound.jacobian_at((F(0), F(0), 1 / d)))
        report = hopf_test(cubic)
        disc = (1 + c * d) * (1 - b * d) - c**2 * d**2
        expected = a == c and disc > 0
        if bool(report.is_hopf) != expected:
            mismatches.append((a, b, c, d))
    c, d, k = (ParamExpr.var(("c", "d", "k"), n) for n in "cdk")
    b = (1 + c * d - c**2 * d**2 - k**2) / (d * (1 + c * d))
    bound = catalog.build("khaled-original", {"a": c, "b": b, "c": c, "d": d})
    report = hopf_test(char_cubic(bound.jacobian_at((0, 0, 1 / d))))
    identities = {
        "gamma - alpha*beta = 0": not report.conditions["gamma_minus_alpha_beta"],
        "omega^2 = (k/d)^2": report.omega_squared == (k / d) ** 2,
        "lambda3 = -d": report.lambda3 == -d,
    }
    eigen_fail = [name for name, holds in identities.items() if not holds]
    return {
        "claim": "teo1-hopf",
        "passed": not mismatches and not eigen_fail,
        "samples": HOPF_SAMPLES,
        "mismatches": mismatches[:5],
        "eigen_failures": eigen_fail,
    }


# ---------------------------------------------------------------------------
# claim 2: center certificate


def claim_teo1_center():
    """First integral u^2 + v^2 and vanishing L_1..L_3 in symbolic d."""
    fld = catalog.build("e1-center")
    one = ParamExpr.one(("d",))
    H = StatePoly({(2, 0, 0): one, (0, 2, 0): one})
    integral_ok = verify_first_integral(fld, H)
    report = report_for_field(fld, 3)
    return {
        "claim": "teo1-center",
        "passed": bool(integral_ok and not any(report.quantities)),
        "first_integral": integral_ok,
        "quantities": [str(q) for q in report.quantities],
    }


# ---------------------------------------------------------------------------
# claim 3: printed first-quantity agreement


def _printed_L1(c, d, k):
    return d * (k**2 + 4 * c**2 - 1) + 2 * (k**2 + 1) * c + 2 * c * (2 * c**2 - 1) * d**2


def _clearing_e1(c, d, k):
    # positive factor; the published polynomial equals raw * clearing / d^3
    return 4 * k * (c * c * d * d + k * k) * (d**4 + 4 * k * k)


def claim_teo1_l1():
    """The all-free first quantity times the recorded clearing factor is the
    printed polynomial times d^3, as one identity in Q(c, d, k).

    The clearing factor 4k(c^2d^2 + k^2)(d^4 + 4k^2) is positive for k > 0,
    so on the domain (k > 0, d != 0, cd != -1) the identity gives the
    printed zero set, and for d > 0 (orientation-preserving) its sign.
    """
    raw = report_for_field(catalog.build("e1-normal"), 1).quantities[0]
    c, d, k = (ParamExpr.var(raw.params, n) for n in "cdk")
    scale = raw * _clearing_e1(c, d, k) / (_printed_L1(c, d, k) * d**3)
    failures = [] if scale == 1 else [str(scale)]
    return {
        "claim": "teo1-l1",
        "passed": not failures,
        "clearing_factor": "4k(c^2d^2+k^2)(d^4+4k^2), published = raw*clearing/d^3",
        "zero_set_failures": failures,
        "sign_failures": failures,
        "identity_failures": failures,
        "scales": [str(scale)],
    }


# ---------------------------------------------------------------------------
# claim 4: E4/E5 focus quantities


def _clearing_e45(c, h):
    W = h**4 - 4 * c * c
    lam2 = 8 * abs(c) ** 3 * h * h / W
    return math.sqrt(2) / 4 * W**3 * (lam2 + 1) ** 2 * (lam2 + 4)


def claim_teo2_foci():
    """Published closed forms for the first quantity at both focus families:
    E4 (c > 0, s = 1) and E5 (c < 0, s = -1) print
    -s h |c|^(7/2) sqrt(h^4 - 4c^2) (h^4 + 4c^2)^2, and the raw quantity has
    the sign of -s."""
    rows = []
    ok = True
    for family, builder, s, points in (
        ("e4", catalog.e4_normal, 1, ((0.25, 2.0), (1.0, 2.0), (3.0, 5.0))),
        ("e5", catalog.e5_normal, -1, ((-0.25, 2.0), (-1.0, 2.0), (-3.0, 5.0))),
    ):
        for c, h in points:
            raw = report_for_field(builder({"c": c, "h": h}), 1).quantities[0]
            printed = -s * h * abs(c) ** 3.5 * math.sqrt(h**4 - 4 * c * c) * (h**4 + 4 * c * c) ** 2
            scaled = raw * _clearing_e45(c, h)
            rel = abs(scaled - printed) / abs(printed)
            ok = ok and s * raw < 0 and rel <= FOCI_REL_TOL
            rows.append(
                {"family": family, "c": c, "h": h, "raw": raw, "printed": printed, "rel": rel}
            )
    return {
        "claim": "teo2-foci",
        "passed": bool(ok),
        "clearing_factor": "sqrt(2)/4 W^3 (lam^2+1)^2 (lam^2+4), W = h^4-4c^2",
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# claim 5: isochronicity


def claim_teo1_isochronous():
    """T_2 = 0 and |T_4| = d^4/(8(d^4+4)) exactly; the numeric period fit at
    d = 1 reproduces |T_4| = 1/40 within tolerance (extended precision).

    The period module reports the positive minimal period, in which the
    quartic coefficient comes out +1/40 at d = 1; the numeric fit agrees
    with that sign, so magnitudes carry the certification.
    """
    zero3 = tuple(ParamExpr.zero(("d",)) for _ in range(3))
    nf = to_normal_form(catalog.build("e1-center"), zero3)
    pe = isochronicity_constants(nf, 2)
    d = ParamExpr.var(("d",), "d")
    t2_ok = not pe.constants[0]
    t4 = pe.constants[1]
    t4_ok = t4 == d**4 / (8 * (d**4 + 4)) or t4 == -(d**4) / (8 * (d**4 + 4))
    odd_ok = not any(pe.odd_residuals)
    not_isochronous = not pe.is_isochronous()

    fld = catalog.build("e1-center", {"d": 1}).to_float()
    fits = []
    for rho0 in (0.05, 0.1):
        T = simulate.measure_period(fld, rho0)
        fits.append((T / (2 * math.pi) - 1) / rho0**4)
    fit_ok = all(abs(abs(f) - 0.025) <= PERIOD_FIT_TOL * 0.025 for f in fits)
    sign_consistent = all((f > 0) == (float(t4.evaluate({"d": 1.0})) > 0) for f in fits)
    return {
        "claim": "teo1-isochronous",
        "passed": bool(t2_ok and t4_ok and odd_ok and not_isochronous and fit_ok and sign_consistent),
        "T2": str(pe.constants[0]),
        "T4": str(t4),
        "odd_residuals_zero": odd_ok,
        "fits": fits,
        "fit_sign_matches_T4": sign_consistent,
    }


# ---------------------------------------------------------------------------
# claim 6: cyclicity of the unperturbed family


def config_bound(cfg):
    """The jet quantities of a cyclicity config (the keys of a ``cyclicity
    --mode custom`` file, defaults filled in) and the bound from them; the
    jets have degree 2 when the config has a line."""
    line = cfg.get("line")
    degree = cfg["degree"] if line is None else 2
    jets = jet_focus_report(cfg["system"], cfg["point"], cfg["small"], degree,
                            cfg["order"]).quantities
    return jets, cyclicity_bound(jets, cfg["small"], cfg["trace"], cfg["pivots"], line)


def teo4_config(d0):
    """Degree-1 jets of L_1..L_3 of e1-normal in (k, c, d) at the
    center-line point (1, 0, d0), plus the declared trace."""
    return {"system": "e1-normal", "small": ("k", "c", "d"), "order": 3, "degree": 1,
            "point": {"k": 1, "c": 0, "d": d0}, "pivots": (), "trace": True}


def claim_teo4_cyclicity():
    """Jacobian of (L_1, L_2, L_3) w.r.t. (k, c, d) on the center line, and
    the bound 3 = rank + trace.

    The stated expectation of rank 3 cannot hold: the whole line
    {k = 1, c = 0} lies inside the center variety, so every d-partial
    vanishes there, and the second quantity vanishes on the whole plane
    c = 0 and is O(c^2) across it, so its entire gradient vanishes on the
    line.  The exact rank is 2; both facts are reported, and ``passed``
    holds only if every computed rank equals ``stated_rank`` and the bound
    holds, so it stays false.  The bound still reaches 3 through the
    declared trace direction.
    """
    ranks = {}
    matrices = {}
    bounds = {}
    for d0 in (F(1, 2), F(1), F(2)):
        cfg = teo4_config(d0)
        quantities, report = config_bound(cfg)
        jac = jacobian_rank(quantities, cfg["small"])
        ranks[str(d0)] = jac.rank
        matrices[str(d0)] = [[str(x) for x in row] for row in jac.matrix]
        bounds[str(d0)] = {
            "k": report.k,
            "l": report.l,
            "trace_bonus": report.trace_bonus,
            "total": report.total,
        }
    rank3 = all(r == 3 for r in ranks.values())
    rank2 = all(r == 2 for r in ranks.values())
    bound_ok = all(b["total"] == 3 and b["trace_bonus"] for b in bounds.values())
    return {
        "claim": "teo4-cyclicity",
        "passed": bool(rank3 and bound_ok),
        "stated_rank": 3,
        "computed_ranks": ranks,
        "rank_is_two_exactly": rank2,
        "bound_reports": bounds,
        "bound_ok": bound_ok,
        "matrices": matrices,
        "note": (
            "rank 3 is unattainable: the d-line lies in the center variety "
            "(zero d-column) and the second quantity's gradient vanishes "
            "identically at the center (its published form carries an "
            "overall factor c); the exact rank is 2 and the bound 3 comes "
            "from rank + trace"
        ),
    }


# ---------------------------------------------------------------------------
# claim 7: cyclicity under quadratic perturbation


PRINTED_LINEAR_PARTS = {
    1: {"a011": F(1, 20), "a101": F(2, 20), "b011": F(-2, 20), "b101": F(1, 20)},
    2: {"a101": F(-1, 40), "b011": F(-1, 40)},
    3: {
        "a011": F(281, 136000),
        "a101": F(342, 136000),
        "b011": F(-342, 136000),
        "b101": F(281, 136000),
    },
    4: {"a101": F(-281, 272000), "b011": F(-281, 272000)},
    5: {
        "a011": F(2324157, 17108800000),
        "a101": F(2420774, 17108800000),
        "b011": F(-2420774, 17108800000),
        "b101": F(2324157, 17108800000),
    },
    6: {"a101": F(-2324157, 34217600000), "b011": F(-2324157, 34217600000)},
    7: {
        "a011": F(18296103569, 1721829632000000),
        "a101": F(17579350678, 1721829632000000),
        "b011": F(-17579350678, 1721829632000000),
        "b101": F(18296103569, 1721829632000000),
    },
    8: {
        "a101": F(-18296103569, 3443659264000000),
        "b011": F(-18296103569, 3443659264000000),
    },
    9: {
        "a011": F(1295884288642940083, 1422019490987264000000000),
        "a101": F(1183999528745548106, 1422019490987264000000000),
        "b011": F(-1183999528745548106, 1422019490987264000000000),
        "b101": F(1295884288642940083, 1422019490987264000000000),
    },
}

ETA_LINE = {"b200": F(1), "c101": F(-252889, 66891)}
H5_ON_ETA = F(-4990766496931, 7701305314560000)
TEO5_PIVOTS = ("a011", "a101", "b011")


# the bound 5 = 3 + 2 of h4 and h5 on ETA_LINE, from the degree-2 jets of L1..L5
TEO5_CONFIG = {"system": "e1-center-perturbed", "small": catalog.PERTURBATION_PARAMS,
               "order": 5, "degree": 2, "point": {}, "pivots": TEO5_PIVOTS,
               "line": ETA_LINE, "trace": False}


def claim_teo5_cyclicity():
    """Rank-3 linear parts proportional to the published ones, the exact
    h_4 / h_5 behavior on the published line, and the bound 5."""
    params = TEO5_CONFIG["small"]
    rep1 = jet_focus_report(TEO5_CONFIG["system"], {}, params, 1, TEO5_LINEAR_ORDER)
    jac_all = jacobian_rank(rep1.quantities, params)
    jac3 = jacobian_rank(rep1.quantities[:3], params)
    names = rep1.quantities[0].ctx.names
    scales = {}
    proportional = True
    for i, q in enumerate(rep1.quantities, 1):
        grad = q.linear_coefficients()
        got = {names[j]: grad[j] for j in range(len(names)) if grad[j] != 0}
        want = PRINTED_LINEAR_PARTS[i]
        if set(got) != set(want):
            proportional = False
            continue
        ratios = {got[k] / want[k] for k in got}
        if len(ratios) == 1 and next(iter(ratios)) > 0:
            scales[i] = next(iter(ratios))
        else:
            proportional = False

    quantities, bound = config_bound(TEO5_CONFIG)
    (h4_value, _), (h5_value, h5_degree) = bound.h_on_eta
    h4_zero = h4_value == 0
    h5_ok = h5_value < 0 and h5_degree == 2
    h5_exact = h5_value == H5_ON_ETA
    h4 = reduce_quantities(quantities, TEO5_PIVOTS)[0]
    transversal = any(g != 0 for g in gradient_on_line(h4, ETA_LINE))

    passed = (
        jac_all.rank == 3
        and jac3.rank == 3
        and proportional
        and h4_zero
        and h5_ok
        and transversal
        and bound.total == 5
        and bound.k == 3
        and bound.l == 2
    )
    return {
        "claim": "teo5-cyclicity",
        "passed": bool(passed),
        "rank_L1_L9": jac_all.rank,
        "rank_L1_L3": jac3.rank,
        "per_quantity_scales": {i: str(s) for i, s in scales.items()},
        "h4_on_line": str(h4_value),
        "h5_on_line": str(h5_value),
        "h5_matches_published_exactly": h5_exact,
        "transversal": transversal,
        "bound": {"k": bound.k, "l": bound.l, "total": bound.total},
        "eta_note": (
            "line sets the eight published parameters to zero, "
            "c101 = -252889 b200 / 66891; the pivot trio and b101 are "
            "likewise zero (they do not appear in h4 or h5)"
        ),
    }


# ---------------------------------------------------------------------------
# claim 8: displacement cross-validation


def claim_lyapunov_crosscheck():
    """dbar(rho0)/rho0^3 against pi L_1 on the focus family; sign check on
    the unperturbed family off the center."""
    f4 = catalog.e4_normal({"c": 0.25, "h": 2.0})
    L1 = report_for_field(f4, 1).quantities[0]
    target = math.pi * L1
    rows = []
    ok = True
    for rho0 in (0.025, 0.05):
        s = simulate.displacement(f4, rho0)
        ratio = s.dbar / rho0**3
        rel = abs(ratio - target) / abs(target)
        ok = ok and rel <= CROSSCHECK_REL_TOL and (ratio < 0) == (target < 0)
        rows.append({"rho0": rho0, "dbar": s.dbar, "ratio": ratio, "pi_L1": target, "rel": rel})

    f1 = catalog.build("e1-normal", {"c": F(1, 10), "d": 1, "k": 1}).to_float()
    L1n = report_for_field(f1, 1).quantities[0]
    s1 = simulate.displacement(f1, 0.05)
    sign_ok = (s1.dbar > 0) == (L1n > 0)
    ok = ok and sign_ok
    return {
        "claim": "lyapunov-crosscheck",
        "passed": bool(ok),
        "rows": rows,
        "e1_normal_sign": {"dbar": s1.dbar, "L1": L1n, "match": sign_ok},
    }


# ---------------------------------------------------------------------------
# claim 9: conservation and exports


FIG_PHASE_ICS = [
    (0.08, 0.002, 0.03),
    (0.4, 0.07, 0.13),
    (-0.5, 0.3, 0.25),
    (0.2, 0.7, 0.85),
    (0.5, 0.75, 0.5),
    (0.8, 0.7, -0.5),
    (-1.0, -0.75, 0.6),
    (-1.0, 1.0, 1.0),
]
FIG_SERIES_IC = (0.5, -0.75, 0.1)


def claim_conservation(out_dir=None):
    """u^2 + v^2 conservation at tol 1e-10 over t in [0, 100], plus the
    CSV/plot-script artifacts for the reference initial conditions."""
    fld = catalog.build("e1-center", {"d": 1}).to_float()
    traj = simulate.integrate(fld, FIG_SERIES_IC, (0.0, 100.0), 1e-10)
    H0 = FIG_SERIES_IC[0] ** 2 + FIG_SERIES_IC[1] ** 2
    drift = max(abs(u * u + v * v - H0) for u, v, _ in traj.states) / H0

    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="hopfcm-fig-")
    os.makedirs(out_dir, exist_ok=True)
    artifacts = []
    series_path = os.path.join(out_dir, "series_u5_v-75_w1.csv")
    simulate.export_csv(traj, series_path)
    artifacts.append(series_path)
    for i, ic in enumerate(FIG_PHASE_ICS):
        t = simulate.integrate(fld, ic, (0.0, 60.0), 1e-10, max_points=4000)
        p = os.path.join(out_dir, f"phase_{i}.csv")
        simulate.export_csv(t, p)
        artifacts.append(p)
    script = simulate.export_plot_script(os.path.join(out_dir, "plot_phase.py"))
    artifacts.append(script)
    exists = all(os.path.exists(a) for a in artifacts)
    return {
        "claim": "conservation",
        "passed": bool(drift <= DRIFT_TOL and exists),
        "drift": drift,
        "artifacts": artifacts,
        "out_dir": out_dir,
    }


CLAIMS = {
    "teo1-hopf": claim_teo1_hopf,
    "teo1-center": claim_teo1_center,
    "teo1-l1": claim_teo1_l1,
    "teo2-foci": claim_teo2_foci,
    "teo1-isochronous": claim_teo1_isochronous,
    "teo4-cyclicity": claim_teo4_cyclicity,
    "teo5-cyclicity": claim_teo5_cyclicity,
    "lyapunov-crosscheck": claim_lyapunov_crosscheck,
    "conservation": claim_conservation,
}
