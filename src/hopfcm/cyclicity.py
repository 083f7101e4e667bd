"""Limit-cycle lower bounds from focus-quantity expansions.

Around a point of the center variety the focus quantities are expanded as
truncated jets in the bifurcation parameters.  Independent linear parts of
L_1..L_k give k cycles directly, and a declared trace parameter one more.
On the locus L_1 = ... = L_k = 0 the k pivot parameters are power series
in the other parameters; each later quantity restricted to that locus has
no linear part left, and its degree-2 part is a quadratic form h_j in the
non-pivot parameters.  A line on which the intermediate h_j vanish with
independent gradients while the last one does not certifies the extra
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import catalog
from .errors import BadPivots, SchemaError
from .focusq import report_for_field
from .paramfield import Jet, JetContext
from .polysys import VectorField3


@dataclass
class JacobianReport:
    matrix: list  # rows: quantities; columns: parameters
    rank: int
    pivot_params: tuple


@dataclass
class CyclicityReport:
    k: int  # cycles from independent linear parts (excluding the trace one)
    l: int  # extra cycles from homogeneous parts along the line
    trace_bonus: bool
    total: int
    rank: int
    eta: Optional[dict]
    h_on_eta: list  # (value, degree) per form
    notes: list


# ---------------------------------------------------------------------------
# exact linear algebra


def _row_reduce(matrix):
    """Gauss-Jordan elimination over Q: (reduced rows, pivot columns)."""
    rows = [list(map(Fraction, r)) for r in matrix]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, tuple(pivots)


def exact_rank(matrix):
    """Row echelon over Q; returns (rank, pivot column indices)."""
    _, pivots = _row_reduce(matrix)
    return len(pivots), pivots


def _inverse(block):
    """Inverse of a matrix over Q, or None when it is not square or singular."""
    n = len(block)
    if any(len(row) != n for row in block):
        return None
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    rows, pivots = _row_reduce([list(row) + e for row, e in zip(block, eye)])
    if pivots != tuple(range(n)):
        return None
    return [row[n:] for row in rows]


# ---------------------------------------------------------------------------
# jet-valued focus reports


def jet_system(system, point: dict, small, degree: int) -> VectorField3:
    """The field of ``system``, a built-in name or a document path
    (``catalog.load``), with every parameter bound to a jet: its ``point``
    value plus eps for the small parameters, which need no point value (it
    defaults to 0).  ``small`` None makes every parameter small.

    Raises HopfcmError on a float system, and SchemaError on a repeated
    small parameter, a name that is not a parameter of the system, or a
    parameter neither in ``point`` nor small.
    """

    def jets(params):
        names = params if small is None else tuple(small)
        repeated = sorted({p for p in names if names.count(p) > 1})
        if repeated:
            raise SchemaError(f"small parameter(s) {repeated} repeated")
        ctx = JetContext(names, degree)
        assignment = {p: ctx.const(v) for p, v in point.items()}
        for p in names:
            assignment[p] = assignment.get(p, ctx.zero()) + ctx.eps(p)
        return assignment

    fld = catalog.load(system, jets)
    if fld.params:
        raise SchemaError(f"parameter(s) {list(fld.params)} have no value")
    return fld


def jet_focus_report(system, point, small, degree, n):
    """Focus quantities as jets around the given parameter point."""
    return report_for_field(jet_system(system, point, small, degree), n)


# ---------------------------------------------------------------------------
# operations


def jacobian_rank(quantities, params) -> JacobianReport:
    """Exact rank of the linear parts of the jet quantities in ``params``."""
    rows = []
    params = tuple(params)
    for q in quantities:
        grad = q.linear_coefficients()
        names = q.ctx.names
        rows.append([grad[names.index(p)] if p in names else Fraction(0) for p in params])
    rank, pivot_cols = exact_rank(rows)
    return JacobianReport(rows, rank, tuple(params[c] for c in pivot_cols))


def reduce_quantities(quantities, pivots):
    """The forms h_j of the quantities past the first k on the pivot locus.

    ``quantities`` are jets L_1..L_{k+l}, k = len(pivots), that vanish at
    the expansion point (``cyclicity_bound`` checks it) and whose first k
    have linear parts with an invertible block B in the ``pivots`` columns.
    On the locus L_1 = ... = L_k = 0 the pivots are power series in the
    other small parameters: from p = 0, each chord step
    p <- p - B^-1 (L_1..L_k)(p) fixes one more degree, so ``ctx.degree``
    steps give the series to the jet's degree.  Each later L_j evaluated
    there must have no linear part left; its degree-2 part is h_j, a
    quadratic form in the non-pivot parameters.  Returns
    [h_{k+1}, ..., h_{k+l}].
    """
    if not quantities:
        return []
    ctx = quantities[0].ctx
    leading = quantities[: len(pivots)]
    outside = [p for p in pivots if p not in ctx.names]
    if outside:
        raise BadPivots(f"pivot(s) {outside} are not small parameters")
    columns = [ctx.names.index(p) for p in pivots]
    block = [[q.linear_coefficients()[i] for i in columns] for q in leading]
    inverse = _inverse(block)
    if inverse is None:
        raise BadPivots(f"pivot block of {tuple(pivots)} is not invertible")
    series = {p: ctx.zero() if p in pivots else ctx.eps(p) for p in ctx.names}
    for _ in range(ctx.degree):
        residual = [q.evaluate(series) for q in leading]
        for p, row in zip(pivots, inverse):
            series[p] = series[p] - sum(c * r for c, r in zip(row, residual) if c)
    forms = []
    for j, q in enumerate(quantities[len(pivots):], len(pivots) + 1):
        # the zero form stays a jet
        restricted = ctx.zero() + q.evaluate(series)
        if restricted.homogeneous_part(1):
            raise BadPivots(f"quantity {j} keeps a linear part on the pivot locus")
        forms.append(restricted.homogeneous_part(2))
    return forms


def form_on_line(h: Jet, line):
    """(value, degree, gradient) of a form h at the point of the line where
    the free scalar is 1, from one evaluation at that point plus
    first-order jets: the value is the constant part and the gradient the
    linear part.  h is homogeneous, so the degree is that of any monomial
    of h whose parameters all lie on the line, None when it has none.

    ``line`` maps small-parameter names to rational multiples of the free
    scalar; unlisted parameters are zero.  Raises ValueError for a name
    that is not a small parameter.
    """
    names, monomials, degrees = h.ctx.names, h.ctx.monomials, h.ctx.degrees
    unknown = sorted(set(line) - set(names))
    if unknown:
        raise ValueError(f"line parameter(s) {unknown} are not small parameters")
    ctx = JetContext(names, 1)
    # the zero form evaluates to a Fraction, which the sum makes a jet
    jet = ctx.zero() + h.evaluate({p: ctx.const(line.get(p, 0)) + ctx.eps(p) for p in names})
    degree = next(
        (degrees[k] for k in h.nums if all(line.get(names[i]) for i, _ in monomials[k])), None
    )
    return jet.constant_part(), degree, jet.linear_coefficients()


# ---------------------------------------------------------------------------
# the bound


def cyclicity_bound(
    quantities, small, trace_declared=False, pivots=(), line=None
) -> CyclicityReport:
    """Cycles certified by the jet quantities L_1..L_n in the ``small``
    parameters: k, the rank of their linear parts.  With a ``line``, the
    quantities past the ``pivots`` become forms on the pivot locus, and
    they add one cycle each when the intermediate forms vanish on the line
    with independent gradients and the last does not.  A declared trace
    parameter adds one through the classical eigenvalue crossing.

    Every L_j must vanish at the expansion point, which is then a center
    to order n; raises BadPivots naming the first that does not (the point
    is a weak focus of that order) and the order that stops before it."""
    for j, q in enumerate(quantities, 1):
        value = q.constant_part()
        if value:
            hint = f"use order {j - 1}" if j > 1 else "expand at a center"
            raise BadPivots(
                f"L{j} = {value} at the expansion point, a weak focus of order {j}: {hint}"
            )
    jac = jacobian_rank(quantities, small)
    l = 0
    values = []
    notes = []
    if line is not None:
        h_forms = reduce_quantities(quantities, pivots)
        on_line = [form_on_line(h, line) for h in h_forms]
        values = [(value, degree) for value, degree, _ in on_line]
        if on_line:
            *mid, last = on_line
            if last[0] != 0 and all(v[0] == 0 for v in mid):
                gradients = [gradient for _, _, gradient in mid]
                if exact_rank(gradients)[0] == len(gradients):
                    l = len(values)
                else:
                    notes.append("transversality failed along the line")
            else:
                notes.append("line values do not match the vanishing pattern")
    notes.append(
        f"jacobian pivots: {jac.pivot_params}" if line is None else f"pivots: {tuple(pivots)}"
    )
    return CyclicityReport(
        k=jac.rank,
        l=l,
        trace_bonus=trace_declared,
        total=jac.rank + l + (1 if trace_declared else 0),
        rank=jac.rank,
        eta=None if line is None else dict(line),
        h_on_eta=values,
        notes=notes,
    )
