"""Tests of the benchmark itself (not of hopfcm).

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402


def _job(workload, job_id, seed=1):
    for job in workloads.job_list(workload, seed):
        if job["id"] == job_id:
            return job
    raise KeyError(job_id)


def _ok(output, exit=0, **extra):
    return {"exit": exit, "output": output, "error": None, **extra}


# -- job lists ----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_job_lists_repeat_for_the_same_seed(workload):
    assert workloads.job_list(workload, 7) == workloads.job_list(workload, 7)
    assert workloads.job_list(workload, 7) != workloads.job_list(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_job_inputs_follow_the_hygiene_rules(workload):
    jobs = workloads.job_list(workload, 3)
    assert len({j["id"] for j in jobs}) == len(jobs)
    for job in jobs:
        argv = job["argv"]
        assert "--json" not in argv
        for flag in ("--params", "--d0"):
            if flag in argv:
                assert "." not in argv[argv.index(flag) + 1], argv
        if "--claim" not in argv:
            assert "teo1-isochronous" not in argv


# -- fixed jobs against their references --------------------------------------


def _reference_jobs():
    for workload in workloads.WORKLOADS:
        for job in workloads.fixed_jobs(workload) + workloads.trace_only_jobs(workload):
            if job["ref"]:
                yield job


@pytest.mark.parametrize("job", list(_reference_jobs()), ids=lambda j: j["ref"])
def test_recorded_reference_passes_its_own_check(job):
    ref = checks.load_reference(job["ref"])
    assert checks.check(job, _ok(ref["output"], ref["exit"], drift=0.0)) is None


def test_teo4_red_by_design_counts_as_correct():
    job = _job("jet-cyclicity", "claim-teo4-cyclicity")
    ref = checks.load_reference("claim-teo4-cyclicity")
    assert ref["exit"] == 2 and ref["output"]["passed"] is False
    assert checks.check(job, _ok(ref["output"], 2)) is None
    # a run that suddenly "passes" is not the recorded result
    flipped = copy.deepcopy(ref["output"])
    flipped["passed"] = True
    assert checks.check(job, _ok(flipped, 0)) is not None


def test_claim_rank_off_by_one_is_rejected():
    job = _job("jet-cyclicity", "claim-teo4-cyclicity")
    out = copy.deepcopy(checks.load_reference("claim-teo4-cyclicity")["output"])
    out["computed_ranks"]["1"] = 3
    assert checks.check(job, _ok(out, 2)) is not None


def test_float_fields_use_the_claim_tolerance():
    job = _job("numeric-crosscheck", "claim-lyapunov-crosscheck")
    ref = checks.load_reference("claim-lyapunov-crosscheck")
    near, far = copy.deepcopy(ref["output"]), copy.deepcopy(ref["output"])
    near["rows"][0]["dbar"] *= 1.05
    far["rows"][0]["dbar"] *= 1.2
    assert checks.check(job, _ok(near)) is None
    assert checks.check(job, _ok(far)) is not None


def test_exact_field_must_match_byte_for_byte():
    job = _job("exact-symbolic", "period-symbolic-d")
    out = copy.deepcopy(checks.load_reference("period-symbolic-d")["output"])
    out["constants"][1] = "(d^4/8)/(d^4 + 4)"  # equal value, other bytes
    assert checks.check(job, _ok(out)) is not None


# -- seeded jobs against closed-form identities -------------------------------


def _bound_focus_job():
    return next(j for j in workloads.job_list("exact-points", 1)
                if j["id"].startswith("bound-focus"))


def test_bound_l1_identity_and_sign_flip():
    job = _bound_focus_job()
    c, d, k = (Fraction(job["args"]["bound"][n]) for n in "cdk")
    raw = checks.printed_l1(c, d, k) * d**3 / checks.clearing_e1(c, d, k)
    assert checks.check(job, _ok({"quantities": [str(raw)]})) is None
    assert raw != 0
    assert checks.check(job, _ok({"quantities": [str(-raw)]})) is not None


def test_symbolic_l1_identity_and_sign_flip():
    job = {"argv": ["focus", "--system", "e1-normal", "--order", "1",
                    "--params", "c=1/3,d=2/5"],
           "check": "focus_symbolic", "args": {"bound": {"c": "1/3", "d": "2/5"}}}
    good = "(600*k^2 + 610/3)/(140625*k^5 + 3400*k^3 + 16*k)"
    assert checks.check(job, _ok({"quantities": [good]})) is None
    bad = "(-600*k^2 - 610/3)/(140625*k^5 + 3400*k^3 + 16*k)"
    assert checks.check(job, _ok({"quantities": [bad]})) is not None


def test_teo5_line_values_are_the_published_ones():
    job = _job("jet-cyclicity", "readme-cyclicity-teo5")
    ref = checks.load_reference("readme-cyclicity-teo5")
    out = copy.deepcopy(ref["output"])
    out["h_on_eta"][1][0] = out["h_on_eta"][1][0].lstrip("-")
    assert checks.check_teo5_line(job, _ok(out)) is not None
    out = copy.deepcopy(ref["output"])
    out["total"] = 4
    assert checks.check_teo5_line(job, _ok(out)) is not None


def test_teo4_bound_rank_off_by_one_is_rejected():
    job = next(j for j in workloads.job_list("jet-cyclicity", 1) if j["id"].startswith("teo4-"))
    report = {"k": 2, "l": 0, "trace_bonus": True, "total": 3, "rank": 2}
    assert checks.check(job, _ok(report)) is None
    assert checks.check(job, _ok(dict(report, rank=3))) is not None
    assert checks.check(job, _ok(dict(report, total=4))) is not None


def test_jet_l1_matches_the_published_expansion():
    job = {"argv": ["focus", "--order", "3"], "check": "focus_jet",
           "args": {"degree": 1, "d0": "1"}}
    out = {"quantities": ["1/10*k + 1/10*c", "0", "281/68000*k + 61/68000*c"]}
    assert checks.check(job, _ok(out)) is None
    out["quantities"][0] = "1/10*k + -1/10*c"
    assert checks.check(job, _ok(out)) is not None


def test_hopf_discriminant_condition():
    job = {"argv": [], "check": "hopf_e1",
           "args": {"a": "1", "b": "0", "c": "1", "d": "1"}}
    out = checks.load_reference("readme-hopf")["output"]
    assert checks.check(job, _ok(out)) is None
    assert checks.check(job, _ok(dict(out, is_hopf=False))) is not None
    assert checks.check(job, _ok(out, 2)) is not None


def test_period_t4_identity():
    job = {"argv": [], "check": "period_bound", "args": {"d": "3/7"}}
    out = {"constants": ["0", "81/77480"], "odd_residuals": ["0", "0"], "isochronous": False}
    assert checks.check(job, _ok(out)) is None
    out["constants"][1] = "-81/77480"
    assert checks.check(job, _ok(out)) is not None


def test_float_l1_and_displacement_against_published_form():
    focus = {"argv": [], "check": "focus_float",
             "args": {"family": "e4", "c": "1/4", "h": "2"}}
    L1 = checks.published_l1_e45("e4", 0.25, 2.0)
    assert checks.check(focus, _ok({"quantities": [L1 * (1 + 1e-8)]})) is None
    assert checks.check(focus, _ok({"quantities": [-L1]})) is not None

    job = _job("numeric-crosscheck", "readme-displacement")
    out = copy.deepcopy(checks.load_reference("readme-displacement")["output"])
    assert checks.check(job, _ok(out)) is None
    out["samples"][0]["dbar"] = -out["samples"][0]["dbar"]
    assert checks.check(job, _ok(out)) is not None


def test_errors_and_overruns_fail():
    job = _bound_focus_job()
    assert checks.check(job, {"exit": None, "output": None,
                              "error": "overran its 60.0 s budget"}) is not None


# -- tracer ---------------------------------------------------------------------


def test_tracer_reaches_reimported_names_and_restores_them():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from hopfcm import cli, focusq, normalform
    from tracer import Tracer

    original = normalform.to_normal_form
    tracer = Tracer()
    tracer.install()
    try:
        # focusq.report_for_field calls to_normal_form through focusq's binding
        assert focusq.to_normal_form is not original
        assert cli.main(["focus", "--system", "e1-center", "--params", "d=2",
                         "--order", "1", "--out", os.devnull]) == 0
    finally:
        tracer.uninstall()
    assert normalform.to_normal_form is original and focusq.to_normal_form is original
    assert tracer.stats["normalform.to_normal_form"].calls == 1
    assert tracer.stats["focusq.focus_quantities"].calls == 1
    assert tracer.stats["paramfield.ParamExpr"].calls > 0


def test_benchmark_json_lists_the_metrics_the_run_prints():
    import json

    import run
    from tracer import Tracer

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    layer = run.per_layer_metrics(Tracer())
    layer["trace.overhead_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        n: u for n, (_, u) in layer.items()}
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WORKLOADS


# -- machine-speed scaling -----------------------------------------------------


def test_slowness_is_a_trimmed_mean_reaching_back_to_enough_chunks():
    from speed import MIN_SAMPLES, NOMINAL_CHUNK_S, SpeedMeter

    meter = SpeedMeter()
    meter.samples = [2 * NOMINAL_CHUNK_S] * 10 + [NOMINAL_CHUNK_S] * MIN_SAMPLES + [1.0]
    # the chunks from index 10 on; the slow outlier is dropped
    assert meter.slowness(10) == pytest.approx(1.0)
    # a job with one chunk of its own borrows the latest earlier ones
    assert meter.slowness(len(meter.samples) - 1) == pytest.approx(1.0)
    # all 19 chunks, the fastest and the slowest three dropped
    assert meter.slowness(0) == pytest.approx((5 * 1 + 8 * 2) / 13)


def test_timer_takes_chunks_while_work_runs():
    import time

    from speed import SpeedMeter, reference_loop

    meter = SpeedMeter()
    meter.start()
    try:
        t0 = time.process_time()
        while time.process_time() - t0 < 0.35:
            reference_loop(1000)
    finally:
        meter.stop()
    assert len(meter.samples) >= 2
    assert meter.in_job_s >= sum(meter.samples) * 0.99
