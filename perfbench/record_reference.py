"""Record the reference outputs of the fixed benchmark jobs.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference/<name>.json`` with the command, its exit
code and its parsed JSON output (standard output for ``simulate``).  The
benchmark compares later outputs with these files (``checks.py``).
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main():
    os.chdir(ROOT)
    os.environ.pop("HF_PRECISION", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hopfcm import cli

    ref_dir = os.path.join(HERE, "reference")
    os.makedirs(ref_dir, exist_ok=True)
    for workload in workloads.WORKLOADS:
        os.makedirs(os.path.join(workloads.WORK_DIR, workload), exist_ok=True)
        for job in workloads.fixed_jobs(workload) + workloads.trace_only_jobs(workload):
            if not job["ref"]:
                continue
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = cli.main(job["argv"] + ["--out", job["out"]])
            if job["argv"][0] == "simulate":
                output = json.loads(stdout.getvalue())
            else:
                with open(job["out"]) as fh:
                    output = json.load(fh)
            with open(os.path.join(ref_dir, f"{job['ref']}.json"), "w") as fh:
                json.dump({"argv": job["argv"], "exit": code, "output": output}, fh, indent=1)
                fh.write("\n")
            print(f"{job['ref']}: exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
