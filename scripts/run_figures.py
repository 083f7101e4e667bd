#!/usr/bin/env python3
"""Regenerate the reference trajectory datasets and plot scripts.

Outputs, under the chosen directory:
  center/  phase portraits of the center family (d = 1) for eight initial
           conditions plus per-variable series for (0.5, -0.75, 0.1);
  e4_*/    forward and backward runs of the first focus family at
           (c, h) in {(1/4, 2), (1, 2), (3, 5), (1/9, 1/2)};
  e5_*/    the same for the second focus family at
           (c, h) in {(-1, 2), (-1/4, 10), (-2, 10), (-1/3, 2)}.
"""

import argparse
import os

from hopfcm import catalog, simulate
from hopfcm.verify import FIG_PHASE_ICS, FIG_SERIES_IC

FOCUS_ICS = [
    (0.4, 0.07, 0.13),
    (0.08, 0.002, 0.03),
    (-0.1, 0.1, 0.11),
    (0.2, 0.4, 0.125),
    (0.5, -0.375, -0.1),
    (-0.2, 0.1, 0.075),
    (-0.6, -0.375, 0.15),
    (-0.35, 0.6, -0.05),
]

E4_PARAMS = [(0.25, 2.0), (1.0, 2.0), (3.0, 5.0), (1.0 / 9.0, 0.5)]
E5_PARAMS = [(-1.0, 2.0), (-0.25, 10.0), (-2.0, 10.0), (-1.0 / 3.0, 2.0)]


def dump(fld, ics, out_dir, tmax, backward=False):
    os.makedirs(out_dir, exist_ok=True)
    span = (0.0, -tmax) if backward else (0.0, tmax)
    for i, ic in enumerate(ics):
        traj = simulate.integrate(fld, ic, span, 1e-10, max_points=6000, stop_radius=6.0)
        simulate.export_csv(traj, os.path.join(out_dir, f"orbit_{i}.csv"))
    simulate.export_plot_script(os.path.join(out_dir, "plot.py"))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="figure_data")
    ap.add_argument("--tmax", type=float, default=40.0)
    args = ap.parse_args()

    center = catalog.build("e1-center", {"d": 1}).to_float()
    dump(center, FIG_PHASE_ICS, os.path.join(args.out, "center"), 100.0)
    series = simulate.integrate(center, FIG_SERIES_IC, (0.0, 100.0), 1e-10)
    simulate.export_csv(series, os.path.join(args.out, "center", "series.csv"))

    for c, h in E4_PARAMS:
        fld = catalog.e4_normal({"c": c, "h": h})
        tag = f"e4_c{c:g}_h{h:g}".replace(".", "p").replace("-", "m")
        dump(fld, FOCUS_ICS, os.path.join(args.out, tag + "_fwd"), args.tmax)
        dump(fld, FOCUS_ICS, os.path.join(args.out, tag + "_bwd"), args.tmax, backward=True)
    for c, h in E5_PARAMS:
        fld = catalog.e5_normal({"c": c, "h": h})
        tag = f"e5_c{c:g}_h{h:g}".replace(".", "p").replace("-", "m")
        dump(fld, FOCUS_ICS, os.path.join(args.out, tag + "_fwd"), args.tmax)
        dump(fld, FOCUS_ICS, os.path.join(args.out, tag + "_bwd"), args.tmax, backward=True)
    print(f"wrote datasets under {args.out}/")


if __name__ == "__main__":
    main()
