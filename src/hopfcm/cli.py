"""Command-line entry point.

Subcommands: catalog, hopf, normalize, focus, period, cyclicity, simulate,
displacement, verify.  Reports are JSON on stdout (exact values as rational
strings); exit code 0 on success, 2 on domain errors, 1 on usage errors
(among them an input file that cannot be read or an output path that
cannot be written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import catalog, simulate
from .cyclicity import jet_focus_report
from .errors import FocusObstruction, HopfcmError, SchemaError
from .focusq import report_for_field
from .grammar import eval_exact, parse_expression
from .normalform import to_normal_form
from .period import isochronicity_constants
from .polysys import char_cubic, hopf_test
from .verify import CLAIMS, TEO5_CONFIG, config_bound, teo4_config

USAGE_EXIT = 1
DOMAIN_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def jsonable(x):
    """Containers and dataclasses as JSON values; scalars that JSON lacks
    are left for ``_emit``'s ``default=str``."""
    if is_dataclass(x) and not isinstance(x, type):
        return {k: jsonable(v) for k, v in asdict(x).items()}
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, float) and x != x:
        return "nan"
    return x


def _emit(report, out=None):
    text = json.dumps(jsonable(report), indent=2, default=str)
    if out:
        simulate.write_output(out, text + "\n")
    else:
        print(text)


def _exact_number(text):
    """Decimals and p/q parsed exactly; malformed text is a domain error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise HopfcmError(f"bad number {text!r}: {exc}") from exc


def _numbers(spec):
    return [_exact_number(v) for v in spec.split(",")]


def _read_json(path, required, what):
    """The JSON object in ``path``; a SchemaError when it is not valid JSON,
    not an object, or lacks a key in ``required``."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} {path} is not a JSON object")
    missing = [k for k in required if k not in doc]
    if missing:
        raise SchemaError(f"{what} {path} lacks {missing}")
    return doc


def _parse_params(spec):
    if not spec:
        return {}
    out = {}
    for item in spec.split(","):
        if "=" not in item:
            raise HopfcmError(f"bad parameter assignment {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = _exact_number(v)
    return out


def _parse_point(spec, fld, params):
    if spec is None:
        return (fld.zero,) * 3
    if spec.startswith("E"):
        pts = dict(catalog.equilibria_catalog(params))
        if spec not in pts:
            raise HopfcmError(f"equilibrium {spec} does not exist at {params}")
        return pts[spec]
    vals = _numbers(spec)
    if len(vals) != 3:
        raise HopfcmError("point must be E<k> or three comma-separated values")
    return tuple(vals)


def _cmd_catalog(args):
    rows = []
    for name, meta in catalog.BUILTIN_SYSTEMS.items():
        rows.append(
            {
                "name": name,
                "backend": meta["backend"],
                "params": list(meta["params"]),
                "description": meta["description"],
            }
        )
    _emit({"systems": rows}, args.out)
    return 0


def _cmd_hopf(args):
    params = _parse_params(args.params)
    fld = catalog.load(args.system, params)
    point = _parse_point(args.point, fld, params)
    cubic = char_cubic(fld.jacobian_at(point))
    report = hopf_test(cubic)
    _emit(
        {
            "system": args.system,
            "point": point,
            "is_hopf": report.is_hopf,
            "omega_squared": report.omega_squared,
            "lambda3": report.lambda3,
            "eigenvalues": [str(e) for e in (report.eigenvalues() or [])],
            "conditions": report.conditions,
        },
        args.out,
    )
    return 0 if report.is_hopf else DOMAIN_EXIT


def _cmd_normalize(args):
    params = _parse_params(args.params)
    fld = catalog.load(args.system, params)
    matrix = None
    time_scale = None
    if args.transform:
        doc = _read_json(args.transform, ("matrix",), "transform file")
        rows = doc["matrix"]
        if not (
            isinstance(rows, list)
            and len(rows) == 3
            and all(isinstance(row, list) and len(row) == 3 for row in rows)
        ):
            raise SchemaError(f"matrix in {args.transform} must be a 3x3 list of lists")
        if isinstance(fld.zero, float):
            matrix = [[float(_exact_number(str(v))) for v in row] for row in rows]
            if doc.get("time_scale") is not None:
                time_scale = float(_exact_number(str(doc["time_scale"])))
        else:
            matrix = [
                [eval_exact(parse_expression(str(v)), fld.params) for v in row]
                for row in rows
            ]
            if doc.get("time_scale") is not None:
                time_scale = eval_exact(
                    parse_expression(str(doc["time_scale"])), fld.params
                )
    point = _parse_point(args.point, fld, params)
    nf = to_normal_form(fld, point, matrix=matrix, time_scale=time_scale)
    _emit(
        {
            "system": args.system,
            "lambda": str(nf.lam),
            "orientation": nf.orientation,
            "components": [str(c) for c in nf.field.components],
        },
        args.out,
    )
    return 0


def _cmd_focus(args):
    if args.small is not None and args.jet_degree is None:
        args.usage_error("--small needs --jet-degree")
    params = _parse_params(args.params)
    if args.jet_degree is None:
        report = report_for_field(catalog.load(args.system, params), args.order)
    else:
        if args.jet_degree < 1:
            raise HopfcmError(f"--jet-degree must be at least 1, got {args.jet_degree}")
        small = tuple(s.strip() for s in args.small.split(",")) if args.small else None
        report = jet_focus_report(args.system, params, small, args.jet_degree, args.order)
    _emit(
        {
            "system": args.system,
            "order": args.order,
            "backend": report.backend,
            "normalization": report.normalization,
            "quantities": report.quantities,
        },
        args.out,
    )
    return 0


def _cmd_period(args):
    params = _parse_params(args.params)
    fld = catalog.load(args.system, params)
    nf = to_normal_form(fld, (fld.zero,) * 3)
    try:
        pe = isochronicity_constants(nf, args.order)
    except FocusObstruction as exc:
        _emit(
            {
                "system": args.system,
                "focus_obstruction": {"order": exc.order, "value": exc.value},
            },
            args.out,
        )
        return DOMAIN_EXIT
    _emit(
        {
            "system": args.system,
            "constants": pe.constants,
            "odd_residuals": pe.odd_residuals,
            "isochronous": pe.is_isochronous(),
        },
        args.out,
    )
    return 0


_NAMES = (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v), "a list of names")
_COUNT = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
_NUMBERS = (lambda v: isinstance(v, dict), "an object of numbers")
# the check and the description of what each custom cyclicity config key holds
_CYCLICITY_KEYS = {
    "system": (lambda v: isinstance(v, str), "a name or a path"),
    "small": _NAMES, "pivots": _NAMES, "order": _COUNT, "degree": _COUNT,
    "trace": (lambda v: type(v) is bool, "true or false"), "point": _NUMBERS, "line": _NUMBERS,
}


def _cyclicity_config(path):
    """The custom cyclicity config with its defaults filled in; a
    SchemaError names the first value of the wrong kind."""
    cfg = _read_json(path, ("system", "small", "order"), "cyclicity config")
    if "line" in cfg and "pivots" not in cfg:
        raise SchemaError(f"cyclicity config {path} has a line but no pivots")
    cfg = {"point": {}, "pivots": [], "degree": 1, "trace": False, **cfg}
    for key, (ok, kind) in _CYCLICITY_KEYS.items():
        if key in cfg and not ok(cfg[key]):
            raise SchemaError(f"cyclicity config {path}: {key} must be {kind}")
    try:
        for key in ("point", "line"):
            if key in cfg:
                cfg[key] = {k: Fraction(str(v)) for k, v in cfg[key].items()}
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"cyclicity config {path}: bad number in {key}: {exc}") from exc
    unknown = sorted({*cfg["pivots"], *cfg.get("line", ())} - set(cfg["small"]))
    if unknown:
        raise SchemaError(f"cyclicity config {path}: {unknown} are not small parameters")
    return cfg


def _cmd_cyclicity(args):
    if args.d0 is not None and args.mode != "teo4":
        args.usage_error("--d0 needs --mode teo4")
    if args.config is not None and args.mode != "custom":
        args.usage_error("--config needs --mode custom")
    if args.mode == "teo4":
        cfg = teo4_config(_exact_number("1" if args.d0 is None else args.d0))
    elif args.mode == "teo5":
        cfg = TEO5_CONFIG
    elif args.config is None:
        args.usage_error("--mode custom needs --config")
    else:
        cfg = _cyclicity_config(args.config)
    _, report = config_bound(cfg)
    _emit(report, args.out)
    return 0


def _cmd_simulate(args):
    params = _parse_params(args.params)
    fld = catalog.load(args.system, params).to_float()
    x0 = tuple(float(v) for v in _numbers(args.x0))
    if len(x0) != 3:
        raise HopfcmError("--x0 must be three comma-separated values")
    t_span = (0.0, -args.tmax) if args.backward else (0.0, args.tmax)
    traj = simulate.integrate(fld, x0, t_span, args.tol)
    out = args.out or "trajectory.csv"
    simulate.export_csv(traj, out)
    artifacts = [out]
    if args.plot_script:
        artifacts.append(simulate.export_plot_script(os.path.splitext(out)[0] + "_plot.py"))
    print(json.dumps({"artifacts": artifacts, "steps": len(traj.t), "nfev": traj.nfev}))
    return 0


def _cmd_displacement(args):
    params = _parse_params(args.params)
    fld = catalog.load(args.system, params).to_float()
    grid = [float(v) for v in _numbers(args.rho0_grid)]
    samples = []
    for rho0 in grid:
        samples.append(simulate.displacement(fld, rho0))
    report = {
        "system": args.system,
        "samples": [
            {
                "rho0": s.rho0,
                "dbar": s.dbar,
                "dbar_over_rho0_cubed": s.dbar / s.rho0**3,
                "omega0": s.omega0,
                "omega_residual": s.omega_residual,
            }
            for s in samples
        ],
    }
    if args.csv:
        simulate.export_displacement_csv(samples, args.csv)
        report["csv"] = args.csv
    _emit(report, args.out)
    return 0


def _cmd_verify(args):
    kwargs = {}
    if args.claim == "conservation" and args.out_dir:
        kwargs["out_dir"] = args.out_dir
    result = CLAIMS[args.claim](**kwargs)
    _emit(result, args.out)
    return 0 if result["passed"] else DOMAIN_EXIT


def build_parser():
    p = _Parser(prog="hopfcm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the JSON report to this file")

    sp = sub.add_parser("catalog", help="list built-in systems")
    common(sp)
    sp.set_defaults(fn=_cmd_catalog)

    sp = sub.add_parser("hopf", help="eigenvalue test at an equilibrium")
    sp.add_argument("--system", required=True)
    sp.add_argument("--point", help="E<k> or u,v,w")
    sp.add_argument("--params", help="name=value,...")
    common(sp)
    sp.set_defaults(fn=_cmd_hopf)

    sp = sub.add_parser("normalize", help="rotation normal form at a Hopf point")
    sp.add_argument("--system", required=True)
    sp.add_argument("--point")
    sp.add_argument("--params")
    sp.add_argument("--transform", help="JSON file with matrix (and time_scale)")
    common(sp)
    sp.set_defaults(fn=_cmd_normalize)

    sp = sub.add_parser("focus", help="focus quantities")
    sp.add_argument("--system", required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--params")
    sp.add_argument("--jet-degree", type=int, dest="jet_degree")
    sp.add_argument("--small", help="comma-separated small parameters (with --jet-degree)")
    common(sp)
    sp.set_defaults(fn=_cmd_focus, usage_error=sp.error)

    sp = sub.add_parser("period", help="isochronicity constants")
    sp.add_argument("--system", required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--params")
    common(sp)
    sp.set_defaults(fn=_cmd_period)

    sp = sub.add_parser("cyclicity", help="limit-cycle lower bounds")
    sp.add_argument("--mode", choices=("teo4", "teo5", "custom"), required=True)
    sp.add_argument("--d0", help="teo4 base point d value (default 1)")
    sp.add_argument("--config", help="JSON config for custom mode")
    common(sp)
    sp.set_defaults(fn=_cmd_cyclicity, usage_error=sp.error)

    sp = sub.add_parser("simulate", help="integrate and export a trajectory")
    sp.add_argument("--system", required=True)
    sp.add_argument("--x0", required=True)
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--params")
    sp.add_argument("--backward", action="store_true")
    sp.add_argument("--plot-script", action="store_true", dest="plot_script")
    common(sp)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("displacement", help="reduced displacement sweep")
    sp.add_argument("--system", required=True)
    sp.add_argument("--rho0-grid", required=True, dest="rho0_grid")
    sp.add_argument("--params")
    sp.add_argument("--csv", help="write rho0,dbar pairs to this file")
    common(sp)
    sp.set_defaults(fn=_cmd_displacement)

    sp = sub.add_parser("verify", help="run a named verification claim")
    sp.add_argument("--claim", required=True, choices=sorted(CLAIMS))
    sp.add_argument("--out-dir", dest="out_dir")
    common(sp)
    sp.set_defaults(fn=_cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HopfcmError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return DOMAIN_EXIT
    except FileNotFoundError as exc:
        print(json.dumps({"error": "FileNotFound", "message": str(exc)}), file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
