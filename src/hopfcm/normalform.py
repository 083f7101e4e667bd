"""Reduction of a Hopf equilibrium to rotation-plus-axis normal form.

The target shape has linear part ((0, -o, 0), (o, 0, 0), (0, 0, lambda)) with
o = +/-1 after time rescaling; ``orientation`` records o.  The field stays
in the frame it was reduced to, with u and v never swapped;
``focusq.complexify`` reads ``orientation`` to pick its complex variable
(x = u + iv for +1, x = v + iu for -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import BadTransform, NotHopf, abridged, listed
from .paramfield import FLOAT_TOL, negligible
from .polysys import (
    StatePoly,
    VectorField3,
    _mat_inv3,
    char_cubic,
    hopf_test,
    known_value,
    transform,
)


@dataclass
class NormalForm3:
    """A field whose linear part is the rotation-plus-hyperbolic block."""

    field: VectorField3
    lam: object
    orientation: int
    shift: tuple
    matrix: list
    time_scale: object

    @property
    def P(self):
        return _nonlinear_part(self.field.components[0])

    @property
    def Q(self):
        return _nonlinear_part(self.field.components[1])

    @property
    def R(self):
        return _nonlinear_part(self.field.components[2])


def _nonlinear_part(poly: StatePoly) -> StatePoly:
    return StatePoly({e: c for e, c in poly.terms.items() if sum(e) >= 2})


def _classify_linear(mat):
    """Check rotation + axis block shape; return (s, lam) where the (u, v)
    block is ((0, s), (-s, 0)) and lam is the axis entry."""
    for (i, j) in ((0, 2), (1, 2), (2, 0), (2, 1), (0, 0), (1, 1)):
        if not negligible(mat[i][j]):
            raise BadTransform(f"linear part entry {(i, j)} does not vanish")
    a01, a10, lam = mat[0][1], mat[1][0], mat[2][2]
    if not negligible(a01 + a10):
        raise BadTransform("rotation block is not antisymmetric")
    if not a01:
        raise BadTransform("rotation block vanishes")
    return a01, lam


def to_normal_form(
    fld: VectorField3,
    equilibrium,
    matrix=None,
    time_scale=None,
) -> NormalForm3:
    """Translate the equilibrium to the origin, apply the linear change of
    coordinates and a time rescaling in one ``transform``, and validate the
    resulting shape; every zero test is ``negligible``.

    Exact coefficients: ``matrix`` entries must lie in the parameter field,
    and the rescaled rotation entries must be exactly +/-1.  When
    ``time_scale`` is omitted it is |s| for the rotation entry
    s = (M^-1 J M)[0][1] of the matrix M and the Jacobian J at the
    equilibrium, which must then be a known constant; time is never
    reversed, and it is left unscaled when s is zero, so that the shape
    test names the first entry that fails.  Float coefficients (see
    ``VectorField3.zero``) with no matrix: the eigenbasis comes from the
    spectrum that the Hopf test found.
    """
    res = fld.evaluate(equilibrium)
    if not all(map(negligible, res)):
        raise NotHopf(f"point ({listed(equilibrium)}) is not an equilibrium: {listed(res)}")
    jac = fld.jacobian_at(equilibrium)
    report = hopf_test(char_cubic(jac))
    if report.is_hopf is False:
        raise NotHopf(f"eigenvalue conditions fail: {listed(report.conditions, 120)}")

    floating = isinstance(fld.zero, float)
    if matrix is None:
        if floating:
            matrix = _float_eigenbasis(jac, report.omega, report.lambda3)
        else:
            one, zero = fld.zero ** 0, fld.zero
            matrix = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    shift = tuple(equilibrium)

    if time_scale is None:
        row = _mat_inv3(matrix)[0]
        col = [j[0] * matrix[0][1] + j[1] * matrix[1][1] + j[2] * matrix[2][1] for j in jac]
        value = known_value(row[0] * col[0] + row[1] * col[1] + row[2] * col[2])
        if value is None:
            raise BadTransform(
                "rotation entry is not constant; pass time_scale explicitly"
            )
        time_scale = abs(value) or value ** 0

    final = transform(fld, shift, matrix, time_scale)
    if floating:
        # the equilibrium test vouched for the constant terms
        final = replace(final, components=tuple(
            StatePoly({e: v for e, v in c.chop(FLOAT_TOL * 1e-3).terms.items() if any(e)})
            for c in final.components
        ))
    s, lam = _classify_linear(final.jacobian_at((fld.zero,) * 3))
    if negligible(s - 1):
        orientation = -1  # udot = +v: clockwise frame
    elif negligible(s + 1):
        orientation = 1
    else:
        raise BadTransform(f"rotation entry {abridged(str(s))} did not rescale to +/-1")
    if not lam:
        raise NotHopf("transverse eigenvalue is zero")

    return NormalForm3(
        field=final,
        lam=lam,
        orientation=orientation,
        shift=shift,
        matrix=matrix,
        time_scale=time_scale,
    )


def _float_eigenbasis(jac, omega, lam):
    """Real basis (Im v, Re v, a) at a float Hopf point of spectrum +/- i omega, lam.

    The columns of J - lam span the rotation plane, so their largest, p,
    gives the +i omega eigenvector v = J p / omega + i p, scaled so that its
    largest-modulus entry is 1.  The columns of J^2 + omega^2 span the axis;
    a is their largest, of unit length, its largest-modulus entry positive.
    """
    jac = [[float(x) for x in row] for row in jac]
    idx = range(3)

    def largest_column(m):
        return max(zip(*m), key=lambda col: math.hypot(*col))

    p = largest_column([[jac[r][c] - lam * (r == c) for c in idx] for r in idx])
    v = [complex(sum(jac[r][c] * p[c] for c in idx) / omega, p[r]) for r in idx]
    pivot = max(v, key=abs)
    v = [x / pivot for x in v]
    a = largest_column(
        [[sum(jac[r][k] * jac[k][c] for k in idx) + omega * omega * (r == c) for c in idx]
         for r in idx]
    )
    scale = math.copysign(math.hypot(*a), max(a, key=abs))
    return [[v[r].imag, v[r].real, a[r] / scale] for r in idx]


def roundtrip_defect(nf: NormalForm3, original: VectorField3):
    """Transform the original field with the stored data and subtract the
    normal form; returns the max absolute coefficient of the difference
    (0 when exact, None when a symbolic coefficient fails to cancel).
    """
    redone = transform(original, nf.shift, nf.matrix, nf.time_scale)
    worst = 0
    for got, want in zip(redone.components, nf.field.components):
        diff = got - want
        for coeff in diff.terms.values():
            if isinstance(coeff, (int, float, Fraction)):
                worst = max(worst, abs(coeff))
            elif coeff:
                return None
    return worst
