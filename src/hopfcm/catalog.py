"""Built-in system catalog.

The quadratic four-wing family and the coordinate forms derived from it:

* ``khaled-original``      -- the quadratic system with parameters a, b, c, d.
* ``e1-shifted``           -- origin-translated E1 under a = c and the
  reparametrization b = (1 + cd - c^2 d^2 - k^2) / (d (1 + cd)), k > 0.
* ``e1-normal``            -- rotation normal form of e1-shifted (params c, d, k).
* ``e1-normal-trace``      -- e1-normal with a trace perturbation sigma.
* ``e1-center``            -- e1-normal on the center locus k = 1, c = 0 (param d).
* ``e1-center-perturbed``  -- e1-center at d = 1 with the 18 quadratic
  perturbation coefficients as parameters.
* ``e4m`` / ``e5m``        -- origin-translated E4-/E5- families at d = 0
  (float backend; parameters c, h).
* ``e4-normal`` / ``e5-normal`` -- their rotation normal forms, built by
  applying the eigenbasis change of coordinates and time rescaling (float).

Exact-backend entries keep radical-free coefficients; the radical families
are exposed through the float backend only.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import RegionUndefined, SchemaError
from .paramfield import ParamExpr
from .polysys import StatePoly, VectorField3, transform

PERTURBATION_PARAMS = tuple(
    f"{letter}{j}{k}{l}"
    for letter in "abc"
    for (j, k, l) in ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
)


def _exact_field(params, rows, name):
    comps = []
    for row in rows:
        terms = {}
        for exp, coeff in row.items():
            if isinstance(coeff, (int, Fraction)):
                coeff = ParamExpr.const(params, coeff)
            if coeff:
                terms[exp] = coeff
        comps.append(StatePoly(terms))
    return VectorField3(tuple(comps), "exact", params, name)


def khaled_original(values=None):
    """The quadratic four-wing system with parameters a, b, c, d."""
    P = ("a", "b", "c", "d")
    a, b, c, d = (ParamExpr.var(P, n) for n in P)
    rows = [
        {(0, 1, 0): a, (1, 0, 0): -a, (0, 1, 1): ParamExpr.const(P, 1)},
        {(1, 0, 0): b, (0, 1, 0): c, (1, 0, 1): ParamExpr.const(P, -1)},
        {(0, 0, 1): -d, (1, 1, 0): ParamExpr.const(P, 1), (0, 0, 0): ParamExpr.const(P, 1)},
    ]
    return _maybe_bind(_exact_field(P, rows, "khaled-original"), values)


def e1_shifted(values=None):
    """E1 moved to the origin, a = c, with b eliminated through k > 0."""
    P = ("c", "d", "k")
    c, d, k = (ParamExpr.var(P, n) for n in P)
    one = ParamExpr.one(P)
    rows = [
        {(1, 0, 0): -c, (0, 1, 0): c + 1 / d, (0, 1, 1): one},
        {
            (1, 0, 0): -(c**2 * d**2 + k**2) / (d * (1 + c * d)),
            (0, 1, 0): c,
            (1, 0, 1): -one,
        },
        {(1, 1, 0): one, (0, 0, 1): -d},
    ]
    return _maybe_bind(_exact_field(P, rows, "e1-shifted"), values)


def _e1_normal_rows(P):
    c, d, k = (ParamExpr.var(P, n) for n in ("c", "d", "k"))
    one = ParamExpr.one(P)
    denom = c**2 * d**2 + k**2
    a_uw = c * d**2 * (c * d + 1) / (k * denom)
    a_vw = (
        d
        * (2 * c**4 * d**4 + 2 * c**3 * d**3 + 2 * c**2 * d**2 * k**2 + c**2 * d**2 + k**4)
        / (k**2 * (c * d + 1) * denom)
    )
    b_uw = -d * (c * d + 1) / denom
    b_vw = -c * d**2 * (c * d + 1) / (k * denom)
    c_uv = d * (c * d + 1) / denom
    c_vv = c * d**2 * (c * d + 1) / (k * denom)
    rows = [
        {(0, 1, 0): one, (1, 0, 1): a_uw, (0, 1, 1): a_vw},
        {(1, 0, 0): -one, (1, 0, 1): b_uw, (0, 1, 1): b_vw},
        {(0, 0, 1): -(d**2) / k, (1, 1, 0): c_uv, (0, 2, 0): c_vv},
    ]
    return rows


def e1_normal(values=None):
    """Rotation normal form at E1; parameters c, d, k (k > 0, d != 0)."""
    return _maybe_bind(_exact_field(("c", "d", "k"), _e1_normal_rows(("c", "d", "k")), "e1-normal"), values)


def e1_normal_trace(values=None):
    """e1-normal with a trace term sigma on the rotation block."""
    P = ("c", "d", "k", "sigma")
    rows = _e1_normal_rows(P)
    sigma = ParamExpr.var(P, "sigma")
    rows[0][(1, 0, 0)] = sigma
    rows[1][(0, 1, 0)] = sigma
    return _maybe_bind(_exact_field(P, rows, "e1-normal-trace"), values)


def e1_center(values=None):
    """The center family: k = 1, c = 0 in e1-normal, one parameter d."""
    P = ("d",)
    d = ParamExpr.var(P, "d")
    one = ParamExpr.one(P)
    rows = [
        {(0, 1, 0): one, (0, 1, 1): d},
        {(1, 0, 0): -one, (1, 0, 1): -d},
        {(0, 0, 1): -(d**2), (1, 1, 0): d},
    ]
    return _maybe_bind(_exact_field(P, rows, "e1-center"), values)


def e1_center_perturbed(values=None):
    """e1-center at d = 1 with all 18 quadratic perturbation coefficients."""
    P = PERTURBATION_PARAMS
    one = ParamExpr.one(P)
    rows = [
        {(0, 1, 0): one, (0, 1, 1): one},
        {(1, 0, 0): -one, (1, 0, 1): -one},
        {(0, 0, 1): -one, (1, 1, 0): one},
    ]
    quad_exps = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    for letter, row in zip("abc", rows):
        for exp in quad_exps:
            name = f"{letter}{exp[0]}{exp[1]}{exp[2]}"
            prev = row.get(exp, ParamExpr.zero(P))
            row[exp] = prev + ParamExpr.var(P, name)
    return _maybe_bind(_exact_field(P, rows, "e1-center-perturbed"), values)


def _maybe_bind(fld, values):
    return fld.substitute_params(values) if values else fld


# ---------------------------------------------------------------------------
# d = 0 radical families (float backend)


def _require_e4(c, h):
    if not (c > 0 and h > 0 and h**4 - 4 * c**2 > 0):
        raise RegionUndefined("e4 family needs c > 0, h > 0, h^4 - 4c^2 > 0")


def _require_e5(c, h):
    if not (c < 0 and h > 0 and h**4 - 4 * c**2 > 0):
        raise RegionUndefined("e5 family needs c < 0, h > 0, h^4 - 4c^2 > 0")


def e4m(values):
    """E4- translated to the origin (d = 0, a = -c, b solved through h > 0)."""
    c, h = float(values["c"]), float(values["h"])
    _require_e4(c, h)
    sc = math.sqrt(c)
    comps = (
        StatePoly({(1, 0, 0): c, (0, 1, 0): h * h / 2.0,
                   (0, 0, 1): math.sqrt(2.0) * sc / h, (0, 1, 1): 1.0}),
        StatePoly({(1, 0, 0): 2.0 * c * c / (h * h), (0, 1, 0): c,
                   (0, 0, 1): h / (math.sqrt(2.0) * sc), (1, 0, 1): -1.0}),
        StatePoly({(1, 0, 0): math.sqrt(2.0) * sc / h,
                   (0, 1, 0): -h / (math.sqrt(2.0) * sc), (1, 1, 0): 1.0}),
    )
    return VectorField3(comps, "float", (), "e4m")


def e5m(values):
    """E5- translated to the origin (d = 0, a = -c, c < 0)."""
    c, h = float(values["c"]), float(values["h"])
    _require_e5(c, h)
    sc = math.sqrt(-c)
    comps = (
        StatePoly({(1, 0, 0): c, (0, 1, 0): -h * h / 2.0,
                   (0, 0, 1): math.sqrt(2.0) * sc / h, (0, 1, 1): 1.0}),
        StatePoly({(1, 0, 0): -2.0 * c * c / (h * h), (0, 1, 0): c,
                   (0, 0, 1): h / (math.sqrt(2.0) * sc), (1, 0, 1): -1.0}),
        StatePoly({(1, 0, 0): math.sqrt(2.0) * sc / h,
                   (0, 1, 0): -h / (math.sqrt(2.0) * sc), (1, 1, 0): 1.0}),
    )
    return VectorField3(comps, "float", (), "e5m")


def e4_normal(values):
    """Rotation normal form at E4-: eigenbasis change plus time rescaling."""
    c, h = float(values["c"]), float(values["h"])
    _require_e4(c, h)
    fld = e4m(values)
    root = math.sqrt(h**4 - 4 * c**2)
    dd = 8 * c**3 * h**2 - 4 * c**2 + h**4
    sc = math.sqrt(c)
    m = [
        [-2 * c * (c * h * h - 1) * root / dd,
         -sc * h * (4 * c * c + h**4) / (math.sqrt(2.0) * dd),
         h * h / (2 * c)],
        [(4 * c**3 + h * h) * root / dd,
         -math.sqrt(2.0) * c * sc * (4 * c * c + h**4) / (h * dd),
         1.0],
        [0.0, 1.0, 0.0],
    ]
    scale = root / (math.sqrt(2.0) * sc * h)
    out = transform(fld, (0.0, 0.0, 0.0), m, scale)
    out.name = "e4-normal"
    return out


def e5_normal(values):
    """Rotation normal form at E5-."""
    c, h = float(values["c"]), float(values["h"])
    _require_e5(c, h)
    fld = e5m(values)
    root = math.sqrt(h**4 - 4 * c**2)
    dd = 8 * c**3 * h**2 + 4 * c**2 - h**4
    sc = math.sqrt(-c)
    # first column carries (c h^2 + 1): that is the factor the eigenvectors
    # of the translated linear part actually produce for c < 0
    m = [
        [2 * c * (c * h * h + 1) * root / dd,
         -sc * h * (4 * c * c + h**4) / (math.sqrt(2.0) * dd),
         -h * h / (2 * c)],
        [(4 * c**3 - h * h) * root / dd,
         -math.sqrt(2.0) * (-c) * sc * (4 * c * c + h**4) / (h * dd),
         1.0],
        [0.0, 1.0, 0.0],
    ]
    scale = root / (math.sqrt(2.0) * sc * h)
    out = transform(fld, (0.0, 0.0, 0.0), m, scale)
    out.name = "e5-normal"
    return out


# ---------------------------------------------------------------------------
# closed-form equilibria of the original system


def equilibria_catalog(values):
    """Closed-form equilibria of khaled-original at a parameter point.

    Returns the (label, point) pairs of the real equilibria.  Radical points
    come out as floats; E1 stays rational when the inputs are rational.  The
    symmetric partner of each +/- pair maps through (x,y,z) -> (-x,-y,z).
    Raises SchemaError when ``values`` lacks one of a, b, c, d.
    """
    missing = [p for p in "abcd" if p not in values]
    if missing:
        raise SchemaError(
            f"the equilibria E<k> of khaled-original need values for {missing}"
        )
    a = float(values["a"])
    b = float(values["b"])
    c = float(values["c"])
    d = float(values["d"])
    out = []
    delta = (a + b) ** 2 + 4 * a * c
    if d != 0:
        vd = values["d"]
        one_over_d = (
            Fraction(1) / Fraction(vd) if not isinstance(vd, float) else 1.0 / vd
        )
        out.append(("E1", (0 * one_over_d, 0 * one_over_d, one_over_d)))
        if delta > 0 and a * c != 0:
            # z solves z^2 + (a-b) z - a(b+c) = 0; then y = a x / (a+z) and
            # x^2 = (dz-1)(a+z)/a from the last equation
            sdelta = math.sqrt(delta)
            for label, sgn in (("E2", -1.0), ("E3", 1.0)):
                z = 0.5 * (-a + b + sgn * sdelta)
                if a + z == 0:
                    continue
                inner = (d * z - 1) * (a + z) / a
                if inner <= 0:
                    continue
                x = math.sqrt(inner)
                y = a * x / (a + z)
                out.append((f"{label}+", (x, y, z)))
                out.append((f"{label}-", (-x, -y, z)))
    else:
        if delta <= 0:
            raise RegionUndefined("discriminant not positive at d = 0")
        sdelta = math.sqrt(delta)
        if a == 0 or c == 0:
            raise RegionUndefined("E4/E5 need a != 0 and c != 0")
        for label, sgn in (("E4", 1.0), ("E5", -1.0)):
            inner = -(a + b + sgn * sdelta) / a
            if inner <= 0:
                continue
            r = math.sqrt(inner)
            x = r / math.sqrt(2)
            y = -(a + b - sgn * sdelta) * r / (2 * math.sqrt(2) * c)
            z = 0.5 * (-a + b + sgn * sdelta)
            out.append((f"{label}+", (x, y, z)))
            out.append((f"{label}-", (-x, -y, z)))
    return out


# ---------------------------------------------------------------------------

BUILTIN_SYSTEMS = {
    "khaled-original": {
        "factory": khaled_original,
        "backend": "exact",
        "params": ("a", "b", "c", "d"),
        "description": "quadratic four-wing system",
    },
    "e1-shifted": {
        "factory": e1_shifted,
        "backend": "exact",
        "params": ("c", "d", "k"),
        "description": "E1 translated to the origin, a=c, b reparametrized by k",
    },
    "e1-normal": {
        "factory": e1_normal,
        "backend": "exact",
        "params": ("c", "d", "k"),
        "description": "rotation normal form at E1",
    },
    "e1-normal-trace": {
        "factory": e1_normal_trace,
        "backend": "exact",
        "params": ("c", "d", "k", "sigma"),
        "description": "E1 normal form with trace perturbation",
    },
    "e1-center": {
        "factory": e1_center,
        "backend": "exact",
        "params": ("d",),
        "description": "center family (k=1, c=0), first integral u^2+v^2",
    },
    "e1-center-perturbed": {
        "factory": e1_center_perturbed,
        "backend": "exact",
        "params": PERTURBATION_PARAMS,
        "description": "center (d=1) with 18 quadratic perturbation coefficients",
    },
    "e4m": {
        "factory": e4m,
        "backend": "float",
        "params": ("c", "h"),
        "description": "E4- translated to origin (d=0, a=-c, c>0)",
    },
    "e5m": {
        "factory": e5m,
        "backend": "float",
        "params": ("c", "h"),
        "description": "E5- translated to origin (d=0, a=-c, c<0)",
    },
    "e4-normal": {
        "factory": e4_normal,
        "backend": "float",
        "params": ("c", "h"),
        "description": "rotation normal form at E4- (focus case)",
    },
    "e5-normal": {
        "factory": e5_normal,
        "backend": "float",
        "params": ("c", "h"),
        "description": "rotation normal form at E5- (focus case)",
    },
}


def build(name, values=None):
    """Instantiate a built-in system by name."""
    if name not in BUILTIN_SYSTEMS:
        raise SchemaError(f"unknown built-in system {name!r}")
    meta = BUILTIN_SYSTEMS[name]
    if meta["backend"] == "float":
        if not values:
            raise SchemaError(f"{name} requires parameter values")
        missing = set(meta["params"]) - set(values)
        if missing:
            raise SchemaError(f"{name} missing parameter(s) {sorted(missing)}")
        return meta["factory"](values)
    return meta["factory"](values)
