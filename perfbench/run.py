"""hopfcm benchmark: seeded lists of CLI jobs, run in one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload jet-cyclicity --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each job is a README CLI command or a ``verify --claim``, run through
``hopfcm.cli.main(argv)`` with ``--out`` (see ``workloads.py``), one at a
time, in this process and its single thread.  Every output is checked
(``checks.py``).  The default seed is 1.  The process is pinned to one CPU.

Job times are scaled to a reference machine speed (``speed.py``): a fixed
pure-Python loop is timed before each job and every 0.1 s of CPU time
during it, and each job's wall time is divided by the machine's slowness
while it ran.  On a shared host the same job list otherwise takes up to
1.6 times as long from one minute to the next.  Raw wall times are printed
beside the scaled ones and kept in the job log.

``--trace 0`` runs the workload's job list (one pass) repeatedly while the
next pass is expected to end within ``--seconds`` (at least one pass), and
prints the end-to-end figures (the result line carries ``setup_s``,
``wall_s`` and ``peak_rss_mb``; see ``END_TO_END``):

* ``setup_s``: fresh interpreter to the first job (``import hopfcm.cli``
  plus construction of the built-in systems), median of several runs in
  child processes started one at a time;
* ``wall_s``: median over passes of the time of one pass over the job list
  (the sum of its jobs' scaled times);
* ``job_p50_s``: median scaled job time;
* ``job_tail_s``: job time at the highest percentile with at least 10 jobs
  per pass above it (the percentile is printed beside it);
* ``peak_rss_mb``: peak resident memory of this process, read before the
  checks import sympy;
* ``fail_frac`` (printed only; it is 0 on a correct build): jobs that
  raised, exited with another code than their reference, failed their
  check or overran their budget, over jobs attempted.

The budgeted frontier job (symbolic L1 of e1-normal in c, d, k) is stopped
by an in-process alarm after its budget; its latency is then the budget and
its progress (innermost hopfcm function, and gcd rate when traced) is
printed.  An overrun is its expected outcome at this commit, so it is not
counted as a failure; if it finishes, its output is checked.

``--trace 1`` runs one untraced pass and one traced pass and prints the
per-layer metrics of the traced pass plus the tracing overhead (traced
minus untraced pass time); spans are written to
``.perfbench_work/trace-<workload>-<seed>.json``.  After the traced pass it
runs the workload's trace-only jobs (``workloads.trace_only_jobs``: the
20 s ``teo5-cyclicity`` claim), which are checked and counted in the
per-layer metrics but are not part of a pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from checks import uv_drift  # noqa: E402
from speed import SpeedMeter  # noqa: E402

# One thread for BLAS/OpenMP in this process and its children.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_RUNS = 5
# A run stops starting jobs after this long, so it exits within 180 s.
HARD_LIMIT_S = 150.0

SETUP_CODE = """
import sys
sys.path.insert(0, "src")
import hopfcm.cli
from hopfcm import catalog
for name, meta in catalog.BUILTIN_SYSTEMS.items():
    if meta["backend"] == "exact":
        catalog.build(name)
catalog.build("e4-normal", {"c": 0.25, "h": 2.0})
catalog.build("e5-normal", {"c": -0.25, "h": 2.0})
"""

# End-to-end metrics of the result line.  job_p50_s and job_tail_s are
# printed but not part of it: on a shared 2-vCPU machine their spread
# (interquartile range over median) over five seeded runs reached 0.11 and
# 0.14, above a third of the largest bound a metric may have (0.25), while
# that of the scaled wall_s stayed at or below 0.06.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

CLAIM_NAMES = (
    "teo1-hopf", "teo1-center", "teo1-l1", "teo2-foci", "teo1-isochronous",
    "teo4-cyclicity", "teo5-cyclicity", "lyapunov-crosscheck", "conservation",
)

# per-layer metric -> (traced name, statistic, unit)
PER_LAYER = {
    "paramfield.Jet.mul.calls": ("paramfield.Jet.mul", "calls", "count"),
    "paramfield.Jet.mul.s": ("paramfield.Jet.mul", "s", "s"),
    "paramfield.ParamExpr.ops": ("paramfield.ParamExpr", "calls", "count"),
    "paramfield.ParamExpr.s": ("paramfield.ParamExpr", "s", "s"),
    "paramfield.poly_gcd.calls": ("paramfield.poly_gcd", "calls", "count"),
    "paramfield.poly_gcd.s": ("paramfield.poly_gcd", "s", "s"),
    "focusq.focus_quantities.calls": ("focusq.focus_quantities", "calls", "count"),
    "focusq.focus_quantities.self_s": ("focusq.focus_quantities", "self_s", "s"),
    "focusq.complexify.self_s": ("focusq.complexify", "self_s", "s"),
    "normalform.to_normal_form.calls": ("normalform.to_normal_form", "calls", "count"),
    "normalform.to_normal_form.self_s": ("normalform.to_normal_form", "self_s", "s"),
    "period.polar_reduce.self_s": ("period.polar_reduce", "self_s", "s"),
    "period.periodic_solution_series.self_s": ("period.periodic_solution_series", "self_s", "s"),
    "period.isochronicity_constants.self_s": ("period.isochronicity_constants", "self_s", "s"),
    "cyclicity.jet_focus_report.calls": ("cyclicity.jet_focus_report", "calls", "count"),
    "cyclicity.jet_focus_report.self_s": ("cyclicity.jet_focus_report", "self_s", "s"),
    "cyclicity.jacobian_rank.s": ("cyclicity.jacobian_rank", "s", "s"),
    "cyclicity.reduce_quantities.s": ("cyclicity.reduce_quantities", "s", "s"),
    "polysys.VectorField3.evaluate.calls": ("polysys.VectorField3.evaluate", "calls", "count"),
    "polysys.VectorField3.evaluate.s": ("polysys.VectorField3.evaluate", "s", "s"),
    "polysys.hopf_test.calls": ("polysys.hopf_test", "calls", "count"),
    "polysys.hopf_test.s": ("polysys.hopf_test", "s", "s"),
    "polysys.transform.s": ("polysys.transform", "s", "s"),
    "simulate.integrate.calls": ("simulate.integrate", "calls", "count"),
    "simulate.integrate.s": ("simulate.integrate", "s", "s"),
    "simulate.first_return.calls": ("simulate.first_return", "calls", "count"),
    "simulate.first_return.s": ("simulate.first_return", "s", "s"),
    "simulate.displacement.calls": ("simulate.displacement", "calls", "count"),
    "simulate.displacement.s": ("simulate.displacement", "s", "s"),
    "simulate.measure_period.double_s": ("simulate.measure_period.double", "s", "s"),
    "simulate.measure_period.extended_s": ("simulate.measure_period.extended", "s", "s"),
    "catalog.build.s": ("catalog.build", "s", "s"),
    "cli.jsonable.s": ("cli.jsonable", "s", "s"),
}
PER_LAYER.update({f"verify.{c}.s": (f"verify.{c}", "s", "s") for c in CLAIM_NAMES})


class BudgetExceeded(BaseException):
    """Raised by the alarm; a BaseException so that no handler inside the
    library that catches Exception can swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def _innermost_hopfcm_frame(tb):
    where = None
    for frame, _ in traceback.walk_tb(tb):
        path = frame.f_code.co_filename
        if os.sep + "hopfcm" + os.sep in path:
            module = os.path.splitext(os.path.basename(path))[0]
            where = f"{module}.{frame.f_code.co_name}"
    return where


def measure_setup(env):
    """Median wall time of a fresh interpreter's set-up.

    It is not scaled by the reference loop: imports (file reads, unmarshal,
    allocation) do not slow down with it.
    """
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: " + proc.stderr.decode()[-500:])
    return statistics.median(times)


def run_job(cli, job, budget, meter):
    """Run one job; return its result record (output parsed, not checked).

    ``time`` is the job's time at reference speed, ``raw_time`` its wall
    time; both leave out the reference-loop chunks taken during the job.
    """
    out = job["out"]
    if os.path.exists(out):
        os.remove(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    res = {"exit": None, "output": None, "error": None, "overrun": False}
    first = len(meter.samples)
    meter.chunk()
    in_job0 = meter.in_job_s
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                res["exit"] = cli.main(job["argv"] + ["--out", out])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded as exc:
        res["overrun"] = True
        res["error"] = f"overran its {budget:.1f} s budget"
        res["progress"] = _innermost_hopfcm_frame(exc.__traceback__)
    except SystemExit as exc:  # argparse usage errors
        res["exit"] = exc.code
        res["error"] = f"usage error: {stderr.getvalue()[-200:]}"
    except Exception as exc:  # a job must not stop the benchmark
        res["error"] = f"raised {type(exc).__name__}: {exc}"[:300]
    res["raw_time"] = time.perf_counter() - t0 - (meter.in_job_s - in_job0)
    # an overrun's latency is its budget, whatever the machine's speed
    res["time"] = budget if res["overrun"] else res["raw_time"] / meter.slowness(first)
    res["stderr"] = stderr.getvalue()[-300:]
    # a domain error (exit 2) may leave no report; the check judges the exit
    if res["error"] is None and os.path.exists(out):
        try:
            if job["argv"][0] == "simulate":
                res["output"] = json.loads(stdout.getvalue())
                res["drift"] = uv_drift(out)
            else:
                with open(out) as fh:
                    res["output"] = json.load(fh)
        except ValueError as exc:
            res["error"] = f"unreadable output: {exc}"
    return res


def run_pass(cli, jobs, started, meter, tracer=None):
    """One pass over the job list.

    Returns (pass time at reference speed, [(job, result)]): the sum of the
    jobs' times, which leaves out the reference-loop chunks between them.
    """
    results = []
    meter.start()
    try:
        for job in jobs:
            results.append((job, _run_in_pass(cli, job, started, meter, tracer)))
    finally:
        meter.stop()
    return sum(res["time"] for _, res in results), results


def _run_in_pass(cli, job, started, meter, tracer):
    remaining = HARD_LIMIT_S - (time.perf_counter() - started)
    if remaining <= 0:
        return {"exit": None, "output": None, "overrun": True,
                "error": "not started: run time limit", "time": 0.0, "raw_time": 0.0}
    budget = min(job["budget_s"], remaining)
    if tracer is None:
        return run_job(cli, job, budget, meter)
    snap = tracer.snapshot() if job["frontier"] else None
    with tracer.job(job["id"]):
        res = run_job(cli, job, budget, meter)
    if snap is not None:
        # the frontier's counts depend on how far it got within the
        # budget; keep them out of the per-layer counts
        before = snap[0].get("paramfield.poly_gcd")
        gcd = tracer.stats["paramfield.poly_gcd"].calls - (before.calls if before else 0)
        tracer.restore(snap)
        tracer.counters["frontier.poly_gcd.per_s"] = gcd / res["raw_time"]
    return res


def tail_index(n_total, n_passes):
    """Sorted index of the job time with 10 jobs per pass above it."""
    return max(0, n_total - 10 * n_passes - 1)


def per_layer_metrics(tracer):
    m = {}
    for metric, (name, stat, unit) in PER_LAYER.items():
        st = tracer.stats.get(name)
        m[metric] = (getattr(st, stat) if st else 0, unit)
    cnt = tracer.counters
    gcd_calls = m["paramfield.poly_gcd.calls"][0]
    disp_calls = m["simulate.displacement.calls"][0]
    m["paramfield.poly_gcd.nontrivial_ratio"] = (
        cnt.get("paramfield.poly_gcd.nontrivial", 0) / gcd_calls if gcd_calls else 0.0, "ratio")
    m["simulate.displacement.secant_iters"] = (int(cnt.get("simulate.displacement.secant_iters", 0)), "count")
    m["simulate.first_return.per_displacement"] = (
        cnt.get("simulate.first_return.in_displacement", 0) / disp_calls if disp_calls else 0.0, "ratio")
    m["simulate.fail"] = (int(cnt.get("simulate.fail", 0)), "count")
    m["frontier.poly_gcd.per_s"] = (cnt.get("frontier.poly_gcd.per_s", 0.0), "1/s")
    return m


def run_workload(args):
    os.chdir(ROOT)
    if not os.path.exists(os.path.join(ROOT, "src", "hopfcm", "cli.py")):
        print(f"error: no hopfcm sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    # extended precision is selected only by the teo1-isochronous claim
    os.environ.pop("HF_PRECISION", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hopfcm import cli

    jobs = workloads.job_list(args.workload, args.seed)
    os.makedirs(os.path.join(workloads.WORK_DIR, args.workload), exist_ok=True)
    # the reference loop runs on the jobs' CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s = measure_setup(dict(os.environ))
    meter = SpeedMeter()
    signal.signal(signal.SIGALRM, _on_alarm)

    started = time.perf_counter()
    passes = []  # (time at reference speed, results)
    extra = []  # trace-only jobs, not part of a pass
    tracer = None
    if args.trace:
        from tracer import Tracer

        passes.append(run_pass(cli, jobs, started, meter))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cli, jobs, started, meter, tracer))
            extra = run_pass(cli, workloads.trace_only_jobs(args.workload), started,
                             meter, tracer)[1]
        finally:
            tracer.uninstall()
    else:
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(cli, jobs, started, meter))
            elapsed = time.perf_counter() - started
            if elapsed + (time.perf_counter() - t0) > args.seconds or elapsed > HARD_LIMIT_S / 2:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    attempted = failed = 0
    failures, frontier = [], []
    for results in [r for _, r in passes] + [extra]:
        for job, res in results:
            attempted += 1
            if job["frontier"] and res["overrun"]:
                frontier.append(res)
                continue
            reason = checks.check(job, res)
            if reason:
                failed += 1
                failures.append(f"{job['id']}: {reason} {res.get('stderr', '')}".strip())

    job_log = os.path.join(workloads.WORK_DIR, f"jobs-{args.workload}-{args.seed}.json")
    with open(job_log, "w") as fh:
        json.dump([[{"id": job["id"], "argv": job["argv"], "time": res["time"],
                     "raw_time": res["raw_time"], "exit": res["exit"], "error": res["error"]}
                    for job, res in results]
                   for results in [r for _, r in passes] + [extra] if results], fh, indent=1)

    # end-to-end figures come from untraced passes only
    timed = passes[:1] if args.trace else passes
    times = sorted(res["time"] for _, results in timed for _, res in results)
    n_passes = len(timed)
    ti = tail_index(len(times), n_passes)
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(w for w, _ in timed),
        "job_p50_s": statistics.median(times),
        "job_tail_s": times[ti],
        "peak_rss_mb": peak_rss_mb,
    }
    pct = 100.0 * (ti + 1) / len(times)
    wall_raw_s = statistics.median(sum(res["raw_time"] for _, res in results)
                                   for _, results in timed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {n_passes}  jobs/pass {len(jobs)}  "
          f"(times at reference speed; machine slowness {meter.slowness():.3f})")
    print(f"  setup_s      {setup_s:.4f} s   (median of {SETUP_RUNS} fresh interpreters)")
    print(f"  wall_s       {e2e['wall_s']:.4f} s   (median over {n_passes} passes; "
          f"raw {wall_raw_s:.4f} s)")
    print(f"  job_p50_s    {e2e['job_p50_s']:.4f} s   ({len(times)} jobs)")
    print(f"  job_tail_s   {e2e['job_tail_s']:.4f} s   (p{pct:.1f}, {len(times) - ti - 1} jobs above)")
    print(f"  fail_frac    {failed / attempted:.4f}     ({failed}/{attempted})")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    for res in frontier:
        print(f"  frontier: overran {res['raw_time']:.2f} s budget in {res.get('progress')}")
    for line in failures[:20]:
        print(f"  FAILED {line}")

    if args.trace:
        overhead = passes[1][0] - passes[0][0]
        layer = per_layer_metrics(tracer)
        layer["trace.overhead_s"] = (overhead, "s")
        print(f"  trace.overhead_s {overhead:.4f} s  (traced {passes[1][0]:.3f} s, "
              f"untraced {passes[0][0]:.3f} s)")
        for name, (value, unit) in layer.items():
            if value:
                print(f"  {name} {value:.6g} {unit}")
        span_path = os.path.join(workloads.WORK_DIR, f"trace-{args.workload}-{args.seed}.json")
        tracer.write_spans(span_path)
        print(f"  spans written to {span_path} ({len(tracer.spans)})")
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in layer.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in turn, each in its own process."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
