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
  (float coefficients; parameters c, h).  One builder serves both, through
  the sign s of c and a = |c|.
* ``e4-normal`` / ``e5-normal`` -- their rotation normal forms, built by
  applying the eigenbasis change of coordinates and time rescaling (float).

Each exact entry is one function of its parameter values that returns the
three {exponent: coefficient} rows of its field, radical-free, computed in
the number type of the values; ``build`` binds it (``polysys.bind``), so a
field is built once, in Fractions, jets, or ParamExprs where parameters
stay free.  The radical families have float coefficients only.  A field's
number type is that of its coefficients; the registry's ``"backend"`` is
metadata: the ``catalog`` command lists it, and ``build`` requires
parameter values for the float entries.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import RegionUndefined, SchemaError, SingularTransform
from .polysys import StatePoly, VectorField3, bind, parse_system, refuse_jets, transform

PERTURBATION_PARAMS = tuple(
    f"{letter}{j}{k}{l}"
    for letter in "abc"
    for (j, k, l) in ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
)


def khaled_original(a, b, c, d):
    """The quadratic four-wing system with parameters a, b, c, d."""
    return [
        {(0, 1, 0): a, (1, 0, 0): -a, (0, 1, 1): 1},
        {(1, 0, 0): b, (0, 1, 0): c, (1, 0, 1): -1},
        {(0, 0, 1): -d, (1, 1, 0): 1, (0, 0, 0): 1},
    ]


def e1_shifted(c, d, k):
    """E1 moved to the origin, a = c, with b eliminated through k > 0."""
    return [
        {(1, 0, 0): -c, (0, 1, 0): c + 1 / d, (0, 1, 1): 1},
        {(1, 0, 0): -(c**2 * d**2 + k**2) / (d * (1 + c * d)), (0, 1, 0): c, (1, 0, 1): -1},
        {(1, 1, 0): 1, (0, 0, 1): -d},
    ]


def e1_normal(c, d, k):
    """Rotation normal form at E1; parameters c, d, k (k > 0, d != 0)."""
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
    return [
        {(0, 1, 0): 1, (1, 0, 1): a_uw, (0, 1, 1): a_vw},
        {(1, 0, 0): -1, (1, 0, 1): b_uw, (0, 1, 1): b_vw},
        {(0, 0, 1): -(d**2) / k, (1, 1, 0): c_uv, (0, 2, 0): c_vv},
    ]


def e1_normal_trace(c, d, k, sigma):
    """e1-normal with a trace term sigma on the rotation block."""
    rows = e1_normal(c, d, k)
    rows[0][(1, 0, 0)] = sigma
    rows[1][(0, 1, 0)] = sigma
    return rows


def e1_center(d):
    """The center family: k = 1, c = 0 in e1-normal, one parameter d."""
    return [
        {(0, 1, 0): 1, (0, 1, 1): d},
        {(1, 0, 0): -1, (1, 0, 1): -d},
        {(0, 0, 1): -(d**2), (1, 1, 0): d},
    ]


def e1_center_perturbed(*coefficients):
    """e1-center at d = 1 plus the 18 quadratic perturbation coefficients,
    in the order of PERTURBATION_PARAMS."""
    rows = e1_center(1)
    for name, value in zip(PERTURBATION_PARAMS, coefficients):
        row = rows["abc".index(name[0])]
        exp = tuple(map(int, name[1:]))
        row[exp] = row.get(exp, 0) + value
    return rows


# ---------------------------------------------------------------------------
# d = 0 radical families (float coefficients)


def _radical_field(values, s, name, build):
    """``build(c, h, s)`` at the (c, h) of ``values`` in the E4 (s = 1)
    or E5 (s = -1) family, whose c has sign s.  A point outside the region,
    or one whose coefficients do not fit a float, is RegionUndefined."""
    family, order = ("e4", ">") if s > 0 else ("e5", "<")
    try:
        c, h = float(values["c"]), float(values["h"])
        # h^2 > 2|c| is h^4 - 4c^2 > 0 without the fourth power
        if not (s * c > 0 and h > 0 and h * h > 2 * s * c):
            raise RegionUndefined(f"{family} family needs c {order} 0, h > 0, h^4 - 4c^2 > 0")
        fld = build(c, h, s)
    except (ArithmeticError, ValueError, SingularTransform):
        # a power overflows, a divisor underflows to zero, or h^4 - 4c^2
        # rounds to zero or below at the edge of the region
        fld = None
    if fld is None or not all(
        math.isfinite(x) for comp in fld.components for x in comp.terms.values()
    ):
        raise RegionUndefined(f"the {name} coefficients at this (c, h) do not fit a float")
    return fld


def _radical_translated(c, h, s):
    """E4- (s = 1) or E5- (s = -1) translated to the origin; sqrt|c| = sqrt(s c)."""
    sc = math.sqrt(s * c)
    comps = (
        StatePoly({(1, 0, 0): c, (0, 1, 0): s * h * h / 2.0,
                   (0, 0, 1): math.sqrt(2.0) * sc / h, (0, 1, 1): 1.0}),
        StatePoly({(1, 0, 0): s * 2.0 * c * c / (h * h), (0, 1, 0): c,
                   (0, 0, 1): h / (math.sqrt(2.0) * sc), (1, 0, 1): -1.0}),
        StatePoly({(1, 0, 0): math.sqrt(2.0) * sc / h,
                   (0, 1, 0): -h / (math.sqrt(2.0) * sc), (1, 1, 0): 1.0}),
    )
    return VectorField3(comps)


def _radical_normal(c, h, s):
    """The eigenbasis change plus time rescaling of ``_radical_translated``.

    With a = |c|: dd = 8 c^3 h^2 + s (h^4 - 4 c^2), and the first column
    carries (a h^2 - 1), the factor the eigenvectors of the translated
    linear part produce for either sign of c.
    """
    a = s * c
    root = math.sqrt(h**4 - 4 * c**2)
    dd = 8 * c**3 * h**2 - s * 4 * c**2 + s * h**4
    sc = math.sqrt(a)
    m = [
        [-2 * c * (a * h * h - 1) * root / dd,
         -sc * h * (4 * c * c + h**4) / (math.sqrt(2.0) * dd),
         h * h / (2 * a)],
        [(4 * c**3 + s * h * h) * root / dd,
         -math.sqrt(2.0) * a * sc * (4 * c * c + h**4) / (h * dd),
         1.0],
        [0.0, 1.0, 0.0],
    ]
    scale = root / (math.sqrt(2.0) * sc * h)
    return transform(_radical_translated(c, h, s), (0.0, 0.0, 0.0), m, scale)


def e4m(values):
    """E4- translated to the origin (d = 0, a = -c, b solved through h > 0)."""
    return _radical_field(values, 1, "e4m", _radical_translated)


def e5m(values):
    """E5- translated to the origin (d = 0, a = -c, c < 0)."""
    return _radical_field(values, -1, "e5m", _radical_translated)


def e4_normal(values):
    """Rotation normal form at E4-: eigenbasis change plus time rescaling."""
    return _radical_field(values, 1, "e4-normal", _radical_normal)


def e5_normal(values):
    """Rotation normal form at E5-."""
    return _radical_field(values, -1, "e5-normal", _radical_normal)


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
    """Instantiate a built-in system by name, with ``values`` bound: an exact
    entry through ``polysys.bind``, so the parameters left out stay free; a
    float entry needs a number for each parameter."""
    if name not in BUILTIN_SYSTEMS:
        raise SchemaError(f"unknown built-in system {name!r}")
    meta = BUILTIN_SYSTEMS[name]
    values = values or {}
    if meta["backend"] == "float":
        refuse_jets(values)
        missing = set(meta["params"]) - set(values)
        if missing:
            raise SchemaError(f"{name} requires values for {sorted(missing)}")
        return meta["factory"](values)
    return bind(meta["params"], values, meta["factory"])


def load(name_or_path, values=None):
    """A built-in system by name, or else the system document at a path,
    with ``values`` bound (see ``build`` and ``polysys.parse_system``)."""
    if name_or_path in BUILTIN_SYSTEMS:
        return build(name_or_path, values)
    with open(name_or_path) as fh:
        return parse_system(fh.read(), values)
