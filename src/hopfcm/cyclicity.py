"""Limit-cycle lower bounds from focus-quantity expansions.

Around a point of the center variety the focus quantities are expanded as
truncated jets in the bifurcation parameters.  Independent linear parts give
cycles directly (one fewer when the extra cycle comes from a separately
declared trace parameter); quantities whose linear parts are dependent are
reduced by subtracting the matching combinations of earlier quantities and
restricting to the locus where the leading linear parts vanish, leaving
homogeneous forms h_i in the remaining parameters.  A line on which the
intermediate h_i vanish transversally while the last one does not certifies
the extra cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .errors import BadPivots, SchemaError
from .focusq import complexify, focus_quantities
from .normalform import to_normal_form
from .paramfield import Jet, JetContext, ParamExpr
from .polysys import StatePoly, VectorField3


@dataclass
class JacobianReport:
    matrix: list  # rows: quantities; columns: parameters
    params: tuple
    point: dict
    rank: int
    pivot_params: tuple


@dataclass
class CyclicityReport:
    k: int  # cycles from independent linear parts (excluding the trace one)
    l: int  # extra cycles from homogeneous parts along the line
    trace_bonus: bool
    total: int
    rank: int
    eta: Optional[dict] = None
    h_on_eta: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)


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


def _solve_square(a, b):
    """Solve a x = b exactly (a invertible, small)."""
    n = len(a)
    rows, pivots = _row_reduce([list(row) + [v] for row, v in zip(a, b)])
    if pivots != tuple(range(n)):
        raise BadPivots("pivot block is singular")
    return [row[n] for row in rows]


# ---------------------------------------------------------------------------
# jet-valued focus reports


def jet_system(fld: VectorField3, point: dict, small, degree: int) -> VectorField3:
    """Bind every parameter to a jet: its ``point`` value plus eps for the
    small parameters, which need no point value (it defaults to 0).

    Raises SchemaError on a repeated small parameter, a name that is not a
    parameter of ``fld``, or a parameter neither in ``point`` nor small.
    """
    small = tuple(small)
    repeated = sorted({p for p in small if small.count(p) > 1})
    if repeated:
        raise SchemaError(f"small parameter(s) {repeated} repeated")
    ctx = JetContext(small, degree)
    assignment = {p: ctx.const(v) for p, v in point.items()}
    for p in small:
        assignment[p] = assignment.get(p, ctx.zero()) + ctx.eps(p)
    return fld.bind(assignment)


def jet_focus_report(fld, point, small, degree, n, trace_param=None):
    """Focus quantities as jets around the given parameter point.

    When ``trace_param`` names one of the small parameters, its first-order
    contribution sigma on the rotation block is peeled off the linear part
    and threaded through the recursion divisors, so the quantities carry
    their trace derivatives as well.
    """
    jf = jet_system(fld, point, small, degree)
    zero = Fraction(0)
    sigma = None
    if trace_param is not None:
        lin = jf.linear_matrix()
        sigma = lin[0][0]
        if not isinstance(sigma, Jet) or sigma.constant_part() != 0:
            raise BadPivots("trace entry is not an infinitesimal jet")
        if not (lin[1][1] - sigma).is_zero():
            raise BadPivots("rotation block trace is not isotropic")
        comps = list(jf.components)
        comps[0] = comps[0] - StatePoly({(1, 0, 0): sigma})
        comps[1] = comps[1] - StatePoly({(0, 1, 0): sigma})
        jf = VectorField3(tuple(comps), "exact", (), jf.name)
    nf = to_normal_form(jf, (zero, zero, zero))
    cs = complexify(nf.canonical())
    if sigma is not None:
        cs.sigma = sigma
    return focus_quantities(cs, n)


# ---------------------------------------------------------------------------
# operations


def jacobian_rank(quantities, params, point=None) -> JacobianReport:
    """Exact rank of the Jacobian of the quantities w.r.t. the parameters.

    Jet-valued quantities carry their own linear parts; symbolic quantities
    are differentiated and evaluated at ``point``.
    """
    rows = []
    params = tuple(params)
    for q in quantities:
        if isinstance(q, Jet):
            grad = q.linear_coefficients()
            names = q.ctx.names
            rows.append([grad[names.index(p)] if p in names else Fraction(0) for p in params])
        elif isinstance(q, ParamExpr):
            if point is None:
                raise ValueError("symbolic quantities need an evaluation point")
            vals = {k: Fraction(v) for k, v in point.items()}
            rows.append([q.derivative(p).evaluate(vals) for p in params])
        else:
            rows.append([Fraction(0)] * len(params))
    rank, pivot_cols = exact_rank(rows)
    return JacobianReport(
        rows, params, dict(point or {}), rank, tuple(params[c] for c in pivot_cols)
    )


def reduce_quantities(quantities, pivots):
    """Kill dependent linear parts and restrict to the pivot locus.

    ``quantities`` are degree>=2 jets L_1..L_{k+l} whose first k linear
    parts are independent with an invertible block in the ``pivots``
    columns.  Returns the list of homogeneous quadratic forms h_i
    (i = k+1..k+l) as jets in the non-pivot parameters, plus bookkeeping.
    """
    if not quantities:
        return [], {}
    ctx = quantities[0].ctx
    names = ctx.names
    k = len(pivots)
    piv_idx = [names.index(p) for p in pivots]
    rest_idx = [i for i in range(len(names)) if i not in piv_idx]
    lin = [q.linear_coefficients() for q in quantities]
    block = [[lin[j][i] for i in piv_idx] for j in range(k)]
    rank, _ = exact_rank(block)
    if rank != k:
        raise BadPivots(f"pivot block of {pivots} has rank {rank} < {k}")

    # express later linear parts through the first k and subtract
    reduced = list(quantities[:k])
    combos = {}
    bt = [[block[r][c] for r in range(k)] for c in range(k)]  # transpose
    for j in range(k, len(quantities)):
        target = [lin[j][i] for i in piv_idx]
        coeffs = _solve_square(bt, target)
        # coefficients found on the pivot columns must match everywhere
        combined = [
            sum(coeffs[r] * lin[r][i] for r in range(k)) for i in range(len(names))
        ]
        if combined != lin[j]:
            raise BadPivots(
                f"linear part of quantity {j + 1} is not a combination of the "
                f"first {k}"
            )
        red = quantities[j]
        for r in range(k):
            if coeffs[r]:
                red = red - ctx.const(coeffs[r]) * quantities[r]
        reduced.append(red)
        combos[j] = coeffs

    # on the locus where the first k linear parts vanish, the pivot
    # parameters are linear functions of the rest
    rhs_cols = {}
    for i in rest_idx:
        col = [-lin[j][i] for j in range(k)]
        rhs_cols[i] = _solve_square(block, col)
    substitution = {
        piv_idx[r]: {i: rhs_cols[i][r] for i in rest_idx if rhs_cols[i][r] != 0}
        for r in range(k)
    }

    h_forms = []
    for j in range(k, len(quantities)):
        quad = reduced[j].homogeneous_part(2)
        h_forms.append(_substitute_linear(quad, substitution, ctx))
    return h_forms, {"combinations": combos, "substitution": substitution}


def _substitute_linear(q: Jet, substitution, ctx) -> Jet:
    """Substitute pivot variables by linear forms in the rest variables."""
    out = ctx.zero()
    for mono, coeff in q.terms.items():
        factors = []
        for i, e in mono:
            for _ in range(e):
                factors.append(i)
        term = ctx.const(coeff)
        for i in factors:
            if i in substitution:
                lin_form = ctx.zero()
                for r, c in substitution[i].items():
                    lin_form = lin_form + ctx.const(c) * _eps_by_index(ctx, r)
                term = term * lin_form
            else:
                term = term * _eps_by_index(ctx, i)
        out = out + term
    return out


def _eps_by_index(ctx, i):
    return ctx.eps(ctx.names[i])


def evaluate_on_line(h_list, line):
    """Each h_i becomes (coefficient, degree) of the free scalar on the line.

    ``line`` maps parameter names to rational multiples of the free scalar;
    unlisted parameters are zero.
    """
    out = []
    for h in h_list:
        ctx = h.ctx
        coeffs = {ctx.names.index(p): Fraction(v) for p, v in line.items()}
        total = Fraction(0)
        degree = None
        for mono, c in h.terms.items():
            deg = sum(e for _, e in mono)
            prod = c
            for i, e in mono:
                prod = prod * coeffs.get(i, Fraction(0)) ** e
            if prod:
                if degree is None:
                    degree = deg
                elif degree != deg:
                    raise ValueError("line evaluation mixes degrees")
                total += prod
        out.append((total, degree))
    return out


def gradient_on_line(h: Jet, line):
    """Gradient of a homogeneous jet form at a point of the line (free
    scalar set to 1)."""
    ctx = h.ctx
    coeffs = {ctx.names.index(p): Fraction(v) for p, v in line.items()}
    grad = [Fraction(0)] * len(ctx.names)
    for mono, c in h.terms.items():
        for pos, (i, e) in enumerate(mono):
            prod = c * e
            for q, (jv, ev) in enumerate(mono):
                power = ev - 1 if q == pos else ev
                if power:
                    prod = prod * coeffs.get(jv, Fraction(0)) ** power
            grad[i] += prod
    return grad


# ---------------------------------------------------------------------------
# end-to-end bounds


def cyclicity_bound_rank(
    fld, point, small, degree, n, trace_declared, trace_param=None
) -> CyclicityReport:
    """Bound from independent linear parts; a declared trace parameter adds
    one cycle through the classical eigenvalue-crossing mechanism."""
    report = jet_focus_report(fld, point, small, degree, n, trace_param=trace_param)
    jac = jacobian_rank(report.quantities, small)
    k = jac.rank
    total = k + (1 if trace_declared else 0)
    return CyclicityReport(
        k=k,
        l=0,
        trace_bonus=trace_declared,
        total=total,
        rank=jac.rank,
        notes=[f"jacobian pivots: {jac.pivot_params}"],
    )


def cyclicity_bound_line(
    fld, point, small, n, pivots, line, trace_declared=False
) -> CyclicityReport:
    """Bound combining independent linear parts with the line analysis."""
    deg2 = jet_focus_report(fld, point, small, 2, n)
    return line_analysis(deg2.quantities, small, pivots, line, trace_declared)


def line_analysis(
    quantities, small, pivots, line, trace_declared=False
) -> CyclicityReport:
    """The bound of ``cyclicity_bound_line`` from its degree-2 jet
    quantities: Jacobian rank plus the cycles certified along ``line``."""
    rank = jacobian_rank(quantities, small).rank
    h_forms, _ = reduce_quantities(quantities, pivots)
    values = evaluate_on_line(h_forms, line)
    l = 0
    notes = []
    # count trailing h's: intermediates vanish transversally, the last is nonzero
    if values:
        *mid, last = values
        if last[0] != 0 and all(v[0] == 0 for v in mid):
            transversal = all(
                any(g != 0 for g in gradient_on_line(h, line)) for h in h_forms[:-1]
            )
            if transversal:
                l = len(values)
            else:
                notes.append("transversality failed along the line")
        else:
            notes.append("line values do not match the vanishing pattern")
    k = rank
    total = k + l + (1 if trace_declared else 0)
    return CyclicityReport(
        k=k,
        l=l,
        trace_bonus=trace_declared,
        total=total,
        rank=rank,
        eta=dict(line),
        h_on_eta=[(str(v), deg) for v, deg in values],
        notes=notes + [f"pivots: {tuple(pivots)}"],
    )
