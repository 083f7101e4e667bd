"""Output checks for benchmark jobs.

Fixed jobs are compared with the outputs recorded in ``reference/``: every
exact field (strings, integers, booleans) must match byte for byte, and a
float field must stay within the tolerance that the matching claim already
applies.  Seeded jobs are checked with identities that do not use hopfcm's
own arithmetic: ``fractions.Fraction``, ``math`` and sympy 1.14.

* e1-normal L1 (published, cleared):  raw * 4k(c^2d^2+k^2)(d^4+4k^2)
  = printed(c, d, k) * d^3, with printed = d(k^2+4c^2-1) + 2(k^2+1)c
  + 2c(2c^2-1)d^2; on the center line (k = 1, c = 0) L2 vanishes, and L2 and
  L3 have no linear part there (the exact rank 2 of teo4-cyclicity);
* Hopf at E1 of khaled-original: a Hopf point exactly when a = c and
  (1+cd)(1-bd) - c^2d^2 > 0, with omega^2 = that discriminant / d^2 and
  lambda3 = -d;
* isochronicity of e1-center: T2 = 0 and T4 = d^4 / (8(d^4+4));
* teo4 cyclicity on the center line: rank 2 and bound 3 (2 + trace);
* teo5 cyclicity on the published line eta (b200 = 1,
  c101 = -252889/66891): rank 3, h4 = 0 and the published
  h5 = -4990766496931/7701305314560000, so bound 5 = 3 + 2;
* E4/E5 first quantity: raw * sqrt(2)/4 W^3 (lam^2+1)^2 (lam^2+4)
  = -+h|c|^(7/2) sqrt(W) (h^4+4c^2)^2 with W = h^4-4c^2, within 1e-6
  (teo2-foci), and dbar/rho0^3 within 10% of pi*L1 (lyapunov-crosscheck);
* e1-center conserves u^2+v^2 to 1e-8 relative drift (conservation).

``teo4-cyclicity`` returns ``passed: false`` (exit 2) by design: the stated
rank 3 is unattainable.  That recorded result is its reference and counts
as correct.

A check returns ``None`` when the output is correct, else a reason.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Float tolerances of the fixed jobs, taken from the claims that cover them.
# ``rtol``: relative distance to the reference value.  ``limits``: fields
# that are error measures; they must stay below the claim's limit instead.
# ``ignore``: solver statistics, which are not results.
# ``complex_strings``: string fields holding floating-point eigenvalues.
DEFAULT_RTOL = 1e-9
TOLERANCES = {
    "claim-teo2-foci": {"rtol": 1e-6, "limits": {"rel": 1e-6}},
    "claim-lyapunov-crosscheck": {"rtol": 0.10, "limits": {"rel": 0.10}},
    "claim-teo1-isochronous": {"rtol": 0.05},
    "claim-conservation": {"limits": {"drift": 1e-8}},
    "readme-displacement": {"rtol": 0.10, "limits": {"omega_residual": 1e-10}},
    "readme-simulate": {"ignore": {"steps", "nfev"}},
    "readme-hopf": {"complex_strings": {"eigenvalues"}},
}
COMPLEX_TOL = 1e-9
CONSERVATION_DRIFT = 1e-8
FOCI_REL_TOL = 1e-6
LYAPUNOV_REL_TOL = 0.10
OMEGA_TOL = 1e-10


def load_reference(name):
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# closed forms


def printed_l1(c, d, k):
    return d * (k**2 + 4 * c**2 - 1) + 2 * (k**2 + 1) * c + 2 * c * (2 * c**2 - 1) * d**2


def clearing_e1(c, d, k):
    return 4 * k * (c * c * d * d + k * k) * (d**4 + 4 * k * k)


def published_l1_e45(family, c, h):
    """First quantity of e4/e5-normal from the published form (float)."""
    W = h**4 - 4 * c * c
    lam2 = 8 * abs(c) ** 3 * h * h / W
    clearing = math.sqrt(2) / 4 * W**3 * (lam2 + 1) ** 2 * (lam2 + 4)
    sign = -1.0 if family == "e4" else 1.0
    return sign * h * abs(c) ** 3.5 * math.sqrt(W) * (h**4 + 4 * c * c) ** 2 / clearing


def t4_e1_center(d):
    return d**4 / (8 * (d**4 + 4))


# ---------------------------------------------------------------------------
# reference comparison


def compare(actual, expected, tol, path=()):
    """Mismatches between an output and its reference, as path strings."""
    key = path[-1] if path else None
    where = "/".join(map(str, path)) or "."
    if key in tol.get("ignore", ()):
        return []
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ"]
        out = []
        for k in expected:
            out += compare(actual[k], expected[k], tol, path + (k,))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: list differs"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, tol, path + (i,))
        return out
    # the field name of a list element is the name of the list
    field = next((p for p in reversed(path) if isinstance(p, str)), None)
    if isinstance(expected, float) and not isinstance(expected, bool):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return [f"{where}: not a number"]
        limits = tol.get("limits", {})
        if field in limits:
            return [] if abs(actual) <= limits[field] else [f"{where}: {actual} above {limits[field]}"]
        rtol = tol.get("rtol", DEFAULT_RTOL)
        if abs(actual - expected) <= rtol * max(abs(actual), abs(expected)):
            return []
        return [f"{where}: {actual} != {expected} (rtol {rtol})"]
    if isinstance(expected, str) and field in tol.get("complex_strings", ()):
        try:
            a, e = complex(actual), complex(expected)
        except (TypeError, ValueError):
            return [f"{where}: not a complex number"]
        return [] if abs(a - e) <= COMPLEX_TOL * max(1.0, abs(e)) else [f"{where}: {actual} != {expected}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def check_reference(job, res):
    ref = load_reference(job["ref"])
    if ref["argv"] != job["argv"]:
        return "reference was recorded for another command"
    if res["exit"] != ref["exit"]:
        return f"exit {res['exit']}, reference {ref['exit']}"
    diffs = compare(res["output"], ref["output"], TOLERANCES.get(job["ref"], {}))
    if diffs:
        return "; ".join(diffs[:3])
    extra = {
        "readme-displacement": check_displacement,
        "readme-simulate": check_conserved_uv,
        "period-symbolic-d": check_period_symbolic,
        "readme-cyclicity-teo5": check_teo5_line,
    }.get(job["ref"])
    return extra(job, res) if extra else None


# ---------------------------------------------------------------------------
# seeded checks


def _exit(res, expected=0):
    if res["exit"] != expected:
        return f"exit {res['exit']}, expected {expected}"
    if res["output"] is None:
        return "no output"
    return None


def _symbols():
    import sympy

    return {n: sympy.Symbol(n) for n in ("c", "d", "k")}


def parse_exact(text):
    """A hopfcm exact string (rational function in c, d, k) as sympy."""
    import sympy

    return sympy.sympify(text.replace("^", "**"), locals=_symbols())


def _is_zero_rational(expr):
    import sympy

    return sympy.expand(sympy.together(expr).as_numer_denom()[0]) == 0


def check_focus_symbolic(job, res):
    err = _exit(res)
    if err:
        return err
    bound = {k: Fraction(v) for k, v in job["args"]["bound"].items()}
    quantities = res["output"]["quantities"]
    order = int(job["argv"][job["argv"].index("--order") + 1])
    if len(quantities) != order:
        return f"{len(quantities)} quantities, expected {order}"
    if len(bound) == 3:  # a point: plain Fractions suffice
        c, d, k = bound["c"], bound["d"], bound["k"]
        raw = Fraction(quantities[0])
        if raw * clearing_e1(c, d, k) != printed_l1(c, d, k) * d**3:
            return f"L1 = {raw} breaks the published identity"
        return None
    import sympy

    sym = _symbols()
    vals = {n: bound.get(n, sym[n]) for n in ("c", "d", "k")}
    vals = {n: sympy.Rational(v.numerator, v.denominator) if isinstance(v, Fraction) else v
            for n, v in vals.items()}
    c, d, k = vals["c"], vals["d"], vals["k"]
    raw = parse_exact(quantities[0])
    if not _is_zero_rational(raw * clearing_e1(c, d, k) - printed_l1(c, d, k) * d**3):
        return "L1 breaks the published identity"
    if order >= 2 and bound.get("k") == 1 and "c" not in bound:
        # the published L2 carries an overall factor c
        if not _is_zero_rational(parse_exact(quantities[1]).subs(sym["c"], 0)):
            return "L2 does not vanish at c = 0"
    return None


def _jet_terms(text):
    """A hopfcm jet string as {(e_k, e_c, e_d): Fraction}."""
    import sympy

    sym = _symbols()
    expr = parse_exact(text)
    if expr == 0:
        return {}
    poly = sympy.Poly(expr, sym["k"], sym["c"], sym["d"])
    return {m: Fraction(int(v.p), int(v.q)) for m, v in poly.terms()}


def taylor_l1_center(d0, degree):
    """Jet of the published L1 at (k, c, d) = (1, 0, d0), truncated.

    The jet variables are the increments of k, c and d; the result maps
    exponents (e_k, e_c, e_d) to Fractions.
    """
    from sympy import QQ
    from sympy.polys.rings import ring

    R, ek, ec, ed = ring("k,c,d", QQ)
    k, c, d = 1 + ek, ec, QQ(d0.numerator, d0.denominator) + ed
    num = printed_l1(c, d, k) * d**3
    den = clearing_e1(c, d, k)

    def trunc(p):
        return R({m: v for m, v in p.items() if sum(m) <= degree})

    den0 = den.coeff(1)
    rest = trunc(den - den0) * (1 / den0)
    inv, power = R(1 / den0), R(1 / den0)
    for _ in range(degree):
        power = trunc(-power * rest)
        inv += power
    out = trunc(trunc(num) * inv)
    return {m: Fraction(int(v.numerator), int(v.denominator)) for m, v in out.items()}


def check_focus_jet(job, res):
    err = _exit(res)
    if err:
        return err
    quantities = res["output"]["quantities"]
    order = int(job["argv"][job["argv"].index("--order") + 1])
    if len(quantities) != order:
        return f"{len(quantities)} quantities, expected {order}"
    d0 = Fraction(job["args"]["d0"])
    degree = job["args"]["degree"]
    if _jet_terms(quantities[0]) != taylor_l1_center(d0, degree):
        return "L1 jet differs from the published L1 expanded at the center"
    for i in range(1, order):
        terms = _jet_terms(quantities[i])
        if (0, 0, 0) in terms:
            return f"L{i + 1} does not vanish on the center line"
        if i == 1 and any(sum(m) == 1 for m in terms):
            return "L2 has a linear part on the center line"
    return None


def check_teo4_bound(job, res):
    err = _exit(res)
    if err:
        return err
    out = res["output"]
    want = {"rank": 2, "k": 2, "l": 0, "total": 3, "trace_bonus": True}
    got = {key: out.get(key) for key in want}
    return None if got == want else f"teo4 report {got}, expected {want}"


# Theorem 5: the line eta and the value of h5 on it, as published.
TEO5_ETA = {"b200": "1", "c101": "-252889/66891"}
TEO5_H5 = Fraction(-4990766496931, 7701305314560000)


def check_teo5_line(job, res):
    out = res["output"]
    want = {"rank": 3, "k": 3, "l": 2, "total": 5, "trace_bonus": False, "eta": TEO5_ETA}
    got = {key: out.get(key) for key in want}
    if got != want:
        return f"teo5 report {got}, expected {want}"
    h = [Fraction(v) for v, _ in out["h_on_eta"]]
    return None if h == [0, TEO5_H5] else f"h4, h5 on eta {h}, expected [0, {TEO5_H5}]"


def check_hopf_e1(job, res):
    a, b, c, d = (Fraction(job["args"][n]) for n in "abcd")
    disc = (1 + c * d) * (1 - b * d) - c**2 * d**2
    expected = a == c and disc > 0
    err = _exit(res, 0 if expected else 2)
    if err:
        return err
    out = res["output"]
    if out["is_hopf"] is not expected:
        return f"is_hopf {out['is_hopf']}, expected {expected}"
    if out["point"] != ["0", "0", str(1 / d)]:
        return f"E1 at {out['point']}, expected (0, 0, 1/d)"
    if expected:
        if Fraction(out["omega_squared"]) != disc / d**2:
            return f"omega^2 {out['omega_squared']}, expected {disc / d**2}"
        if Fraction(out["lambda3"]) != -d:
            return f"lambda3 {out['lambda3']}, expected {-d}"
    return None


def check_period_bound(job, res):
    err = _exit(res)
    if err:
        return err
    out = res["output"]
    d = Fraction(job["args"]["d"])
    if out["constants"][0] != "0" or Fraction(out["constants"][1]) != t4_e1_center(d):
        return f"T2, T4 = {out['constants']}, expected 0, {t4_e1_center(d)}"
    if any(r != "0" for r in out["odd_residuals"]) or out["isochronous"] is not False:
        return "odd residuals or isochronous flag wrong"
    return None


def check_period_symbolic(job, res):
    consts = res["output"]["constants"]
    d = _symbols()["d"]
    if consts[0] != "0" or not _is_zero_rational(parse_exact(consts[1]) - t4_e1_center(d)):
        return f"T2, T4 = {consts[:2]}, expected 0, d^4/(8(d^4+4))"
    return None


def _float_params(job):
    return job["args"]["family"], float(Fraction(job["args"]["c"])), float(Fraction(job["args"]["h"]))


def check_focus_float(job, res):
    err = _exit(res)
    if err:
        return err
    fam, c, h = _float_params(job)
    raw = res["output"]["quantities"][0]
    want = published_l1_e45(fam, c, h)
    if abs(raw - want) > FOCI_REL_TOL * abs(want):
        return f"L1 {raw}, published {want}"
    return None


def check_displacement(job, res):
    err = _exit(res)
    if err:
        return err
    fam, c, h = _float_params(job)
    target = math.pi * published_l1_e45(fam, c, h)
    grid = [float(v) for v in job["argv"][job["argv"].index("--rho0-grid") + 1].split(",")]
    samples = res["output"]["samples"]
    if [s["rho0"] for s in samples] != grid:
        return "samples do not follow the rho0 grid"
    for s in samples:
        ratio = s["dbar"] / s["rho0"] ** 3
        if abs(ratio - target) > LYAPUNOV_REL_TOL * abs(target) or (ratio < 0) != (target < 0):
            return f"dbar/rho0^3 = {ratio} at rho0 {s['rho0']}, pi*L1 = {target}"
        if abs(s["omega_residual"]) > OMEGA_TOL:
            return f"omega residual {s['omega_residual']}"
    return None


def check_conserved_uv(job, res):
    err = _exit(res)
    if err:
        return err
    if res["output"].get("artifacts", [None])[0] != job["out"]:
        return "trajectory written elsewhere"
    drift = res.get("drift")
    if drift is None or not drift <= CONSERVATION_DRIFT:
        return f"u^2+v^2 drift {drift}"
    return None


def uv_drift(path):
    """Largest relative change of u^2+v^2 along a trajectory CSV."""
    with open(path) as fh:
        next(fh)
        h = [u * u + v * v for u, v in
             ((float(r[1]), float(r[2])) for r in (line.split(",") for line in fh))]
    return max(abs(x - h[0]) for x in h) / h[0] if h else None


CHECKS = {
    "reference": check_reference,
    "focus_symbolic": check_focus_symbolic,
    "focus_jet": check_focus_jet,
    "teo4_bound": check_teo4_bound,
    "hopf_e1": check_hopf_e1,
    "period_bound": check_period_bound,
    "focus_float": check_focus_float,
    "displacement": check_displacement,
    "conserved_uv": check_conserved_uv,
}


def check(job, res):
    """``None`` when the job's output is correct, else the reason."""
    if res.get("error"):
        return res["error"]
    return CHECKS[job["check"]](job, res)
