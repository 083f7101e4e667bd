"""Seeded job lists for the four benchmark workloads.

A job is one user-level command, given as the argument list of
``hopfcm.cli.main``.  Fixed jobs (``verify --claim`` runs and README CLI
examples) are compared with outputs recorded in ``reference/``; seeded jobs
draw their exact parameters from ``random.Random(seed)`` and are checked
with closed-form identities (see ``checks.py``).

Input hygiene, so that planned refactors cannot change reference outputs:
every ``--params`` and ``--d0`` value is written as ``p/q`` (never a
decimal), no job passes ``--json``, and extended precision is reached only
through ``verify --claim teo1-isochronous``.  Initial conditions, rho0 grids,
times and tolerances are float inputs that the CLI parses with ``float()``.

Each workload's job counts are fixed, so its cost hardly depends on the
seed: the seed changes parameter values only, drawn from small sets whose
costs were measured to be close.  Job counts are chosen so that the median
job and the tail job (the 11th slowest of a pass) fall inside a block of
jobs of one kind, not on the border between two kinds.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORK_DIR = ".perfbench_work"

# Budget of the frontier job: the fully symbolic L1 of e1-normal, which does
# not finish in 200 s with the in-house gcd.  Its latency is this budget
# while it overruns.
FRONTIER_BUDGET_S = 2.0
# Budget of every other job; an overrun counts as a failure.
JOB_BUDGET_S = 60.0

# Workload names and why each was chosen (the ``why`` of BENCHMARK.json).
WORKLOADS = {
    "jet-cyclicity": (
        "Jet multiplication and the jet Psi recursion (teo5 bound, teo4 "
        "claim, teo4 bounds, degree 1-3 jets); no gcd or integration."
    ),
    "exact-symbolic": (
        "ParamExpr normalization and poly_gcd coefficient growth: focus "
        "with free parameters, symbolic period series, budgeted all-free "
        "L1."
    ),
    "exact-points": (
        "Many tiny fully bound ParamExprs (bound focus, hopf, teo1 claims): "
        "per-object overhead, not the gcd, dominates."
    ),
    "numeric-crosscheck": (
        "Float right-hand side, section crossings, displacement secant, and "
        "the extended mpmath period fit of teo1-isochronous."
    ),
}


def q(x) -> str:
    """Write a rational as ``p/q`` (or ``p``), never as a decimal."""
    return str(Fraction(x))


def _frac(rng, nums, dens, signs=(1,)):
    return Fraction(rng.choice(signs) * rng.choice(nums), rng.choice(dens))


def _job(workload, tag, argv, check, args=None, ref=None, frontier=False):
    ext = "csv" if argv[0] == "simulate" else "json"
    return {
        "id": tag,
        "argv": list(argv),
        "out": f"{WORK_DIR}/{workload}/{tag}.{ext}",
        "check": check,
        "args": args or {},
        "ref": ref,
        "frontier": frontier,
        "budget_s": FRONTIER_BUDGET_S if frontier else JOB_BUDGET_S,
    }


def _claim(workload, name):
    argv = ["verify", "--claim", name]
    if name == "conservation":
        argv += ["--out-dir", f"{WORK_DIR}/{workload}/conservation"]
    return _job(workload, f"claim-{name}", argv, "reference", ref=f"claim-{name}")


# ---------------------------------------------------------------------------
# fixed jobs (compared with reference/)


def fixed_jobs(workload):
    w = workload
    if w == "jet-cyclicity":
        return [
            # the degree-2 L1..L5 and line analysis of the teo5 claim, once
            _job(w, "readme-cyclicity-teo5", ["cyclicity", "--mode", "teo5"],
                 "reference", ref="readme-cyclicity-teo5"),
            _claim(w, "teo4-cyclicity"),
            _job(w, "readme-cyclicity-teo4",
                 ["cyclicity", "--mode", "teo4", "--d0", "1/2"],
                 "reference", ref="readme-cyclicity-teo4"),
            _job(w, "readme-focus-jet",
                 ["focus", "--system", "e1-normal", "--order", "3",
                  "--jet-degree", "1", "--small", "k,c,d",
                  "--params", "k=1,c=0,d=1"],
                 "reference", ref="readme-focus-jet"),
        ]
    if w == "exact-symbolic":
        return [
            _claim(w, "teo1-center"),
            _job(w, "period-symbolic-d",
                 ["period", "--system", "e1-center", "--order", "3"],
                 "reference", ref="period-symbolic-d"),
            _job(w, "frontier-l1-all-free",
                 ["focus", "--system", "e1-normal", "--order", "1"],
                 "focus_symbolic", args={"bound": {}}, frontier=True),
        ]
    if w == "exact-points":
        return [
            _claim(w, "teo1-l1"),
            _claim(w, "teo1-hopf"),
            _job(w, "readme-catalog", ["catalog"], "reference",
                 ref="readme-catalog"),
            _job(w, "readme-hopf",
                 ["hopf", "--system", "khaled-original", "--point", "E1",
                  "--params", "a=1,c=1,b=0,d=1"],
                 "reference", ref="readme-hopf"),
            _job(w, "readme-focus-center",
                 ["focus", "--system", "e1-center", "--params", "d=2",
                  "--order", "3"],
                 "reference", ref="readme-focus-center"),
            _job(w, "readme-period",
                 ["period", "--system", "e1-center", "--params", "d=1",
                  "--order", "2"],
                 "reference", ref="readme-period"),
        ]
    if w == "numeric-crosscheck":
        return [
            _claim(w, "teo1-isochronous"),
            _claim(w, "lyapunov-crosscheck"),
            _claim(w, "conservation"),
            _claim(w, "teo2-foci"),
            _job(w, "readme-displacement",
                 ["displacement", "--system", "e4-normal",
                  "--params", "c=1/4,h=2", "--rho0-grid", "0.025,0.05"],
                 "reference", ref="readme-displacement",
                 args={"family": "e4", "c": "1/4", "h": "2"}),
            _job(w, "readme-simulate",
                 ["simulate", "--system", "e1-center", "--params", "d=1",
                  "--x0", "0.5,-0.75,0.1", "--tmax", "100", "--tol", "1e-10",
                  "--plot-script"],
                 "reference", ref="readme-simulate"),
        ]
    raise KeyError(f"unknown workload {workload!r}")


def trace_only_jobs(workload):
    """Fixed jobs run once, after the passes, by a traced run only.

    The ``teo5-cyclicity`` claim (about 20 s, it computes the degree-2
    L1..L5 twice) is a single job longer than half a run: in a pass it would
    leave one sample of one job per run.  Its work is timed through
    ``cyclicity --mode teo5`` in every pass; the traced run adds the claim
    itself, for ``verify.teo5-cyclicity.s`` and its reference check.
    """
    if workload == "jet-cyclicity":
        return [_claim(workload, "teo5-cyclicity")]
    return []


# ---------------------------------------------------------------------------
# seeded jobs (checked with closed-form identities)


def _seeded_jet_cyclicity(rng, w):
    jobs = []
    for i in range(6):
        d0 = _frac(rng, range(1, 8), range(1, 6))
        jobs.append(_job(w, f"teo4-{i}",
                         ["cyclicity", "--mode", "teo4", "--d0", q(d0)],
                         "teo4_bound"))
    # degree 3 takes the generic dict path of Jet; these jobs hold the
    # median and the tail job of a pass
    for degree, order, count in ((1, 3, 2), (2, 3, 4), (3, 2, 24)):
        for i in range(count):
            d0 = _frac(rng, (1, 2, 3), (1, 2))
            jobs.append(_job(
                w, f"jet{degree}-{i}",
                ["focus", "--system", "e1-normal", "--order", str(order),
                 "--jet-degree", str(degree), "--small", "k,c,d",
                 "--params", f"k=1,c=0,d={q(d0)}"],
                "focus_jet", args={"degree": degree, "d0": q(d0)}))
    return jobs


def _focus_job(w, tag, bound, order=1):
    params = ",".join(f"{k}={q(v)}" for k, v in bound.items())
    argv = ["focus", "--system", "e1-normal", "--order", str(order)]
    if params:
        argv += ["--params", params]
    return _job(w, tag, argv, "focus_symbolic",
                args={"bound": {k: q(v) for k, v in bound.items()}})


def _seeded_exact_symbolic(rng, w):
    jobs = []
    small = (1, 2, 3)
    for i in range(4):
        while True:  # 1 + cd = 0 leaves E1 undefined
            c = _frac(rng, small, (1, 2, 3), (1, -1))
            d = _frac(rng, small, (1, 2, 3), (1, -1))
            if 1 + c * d != 0:
                break
        jobs.append(_focus_job(w, f"free-k-{i}", {"c": c, "d": d}))
    # these hold the median and the tail job of a pass
    for i in range(12):
        d = _frac(rng, small, (1, 2, 3), (1, -1))
        k = _frac(rng, small, (1, 2, 3))
        jobs.append(_focus_job(w, f"free-c-{i}", {"d": d, "k": k}))
    for i in range(2):
        c = _frac(rng, (1,), (1, 2), (1, -1))
        k = Fraction(rng.choice((1, 2)))
        jobs.append(_focus_job(w, f"free-d-{i}", {"c": c, "k": k}))
    for i in range(2):
        k = Fraction(rng.choice((1, 2)), rng.choice((1, 2)))
        jobs.append(_focus_job(w, f"free-cd-{i}", {"k": k}))
    # d = 2 costs about 1.5 times and d = 1/2 or 3/2 4 to 5 times as much
    # as d = 1
    d = Fraction(rng.choice((1, -1)))
    jobs.append(_focus_job(w, "order2-free-c", {"k": Fraction(1), "d": d}, order=2))
    return jobs


def _hopf_point(rng):
    """khaled-original parameters with E1 defined (d != 0); half on a = c."""
    while True:
        b = _frac(rng, range(0, 7), range(1, 5), (1, -1))
        c = _frac(rng, range(1, 7), range(1, 5), (1, -1))
        d = _frac(rng, range(1, 7), range(1, 5), (1, -1))
        a = c if rng.random() < 0.5 else c + _frac(rng, range(1, 5), range(1, 4))
        return {"a": a, "b": b, "c": c, "d": d}


def _seeded_exact_points(rng, w):
    jobs = []
    # small heights: the cost of exact arithmetic grows with them
    for i in range(24):
        while True:
            c = _frac(rng, range(0, 5), range(1, 4), (1, -1))
            d = _frac(rng, range(1, 5), range(1, 4), (1, -1))
            if 1 + c * d != 0:
                break
        k = _frac(rng, range(1, 5), range(1, 3))
        jobs.append(_focus_job(w, f"bound-focus-{i}", {"c": c, "d": d, "k": k}))
    for i in range(24):
        p = _hopf_point(rng)
        params = ",".join(f"{k}={q(v)}" for k, v in p.items())
        jobs.append(_job(w, f"hopf-{i}",
                         ["hopf", "--system", "khaled-original", "--point", "E1",
                          "--params", params],
                         "hopf_e1", args={k: q(v) for k, v in p.items()}))
    for i in range(8):
        d = _frac(rng, range(1, 9), range(1, 6), (1, -1))
        jobs.append(_job(w, f"period-{i}",
                         ["period", "--system", "e1-center", "--params",
                          f"d={q(d)}", "--order", "2"],
                         "period_bound", args={"d": q(d)}))
    return jobs


def _seeded_numeric(rng, w):
    jobs = []
    # |c| <= 5/16 and c/h^2 <= 1/20, near the lyapunov-crosscheck claim
    # (c = 1/4, h = 2).  On e4-normal the displacement slows sharply for
    # larger c: 3 s at c = 9/20, h = 3, and over 5 s at c = 9/16, h = 3 and
    # at c = 1/2, h = 2.
    for fam, sign in (("e4", 1), ("e5", -1)):
        h = Fraction(rng.choice((3, 4, 5)), 2)
        c = sign * h * h / rng.choice((20, 24, 32))
        jobs.append(_job(
            w, f"displacement-{fam}",
            ["displacement", "--system", f"{fam}-normal",
             "--params", f"c={q(c)},h={q(h)}", "--rho0-grid", "0.025,0.05"],
            "displacement", args={"family": fam, "c": q(c), "h": q(h)}))
    # initial conditions and grids are float inputs: the CLI parses them
    # with float(), so they are written as short decimals
    # the cost of an e1-center run grows with d (stiffer w direction) and
    # with the amplitude; these jobs hold the tail job of a pass
    for i in range(16):
        d = Fraction(rng.choice((1, 2)), 2)
        x0 = [rng.choice((1, -1)) * rng.randint(3, 6) / 10 for _ in range(3)]
        jobs.append(_job(
            w, f"simulate-{i}",
            ["simulate", "--system", "e1-center", "--params", f"d={q(d)}",
             "--x0=" + ",".join(str(x) for x in x0), "--tmax", "40",
             "--tol", "1e-10"],
            "conserved_uv"))
    # these hold the median job of a pass
    for i in range(40):
        fam = "e4" if i % 2 == 0 else "e5"
        h = Fraction(rng.randint(3, 12), 2)
        c = (1 if fam == "e4" else -1) * h * h / rng.choice((8, 12, 16, 24))
        jobs.append(_job(
            w, f"float-focus-{i}",
            ["focus", "--system", f"{fam}-normal", "--order", "1",
             "--params", f"c={q(c)},h={q(h)}"],
            "focus_float", args={"family": fam, "c": q(c), "h": q(h)}))
    return jobs


_SEEDED = {
    "jet-cyclicity": _seeded_jet_cyclicity,
    "exact-symbolic": _seeded_exact_symbolic,
    "exact-points": _seeded_exact_points,
    "numeric-crosscheck": _seeded_numeric,
}


def job_list(workload, seed):
    """The workload's jobs for ``seed``, in run order.

    The list depends only on the workload name and the seed.  Jobs are
    interleaved by the seed so that heavy fixed jobs do not always run first.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = fixed_jobs(workload) + _SEEDED[workload](rng, workload)
    rng.shuffle(jobs)
    return jobs
