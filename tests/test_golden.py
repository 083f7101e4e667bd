"""Golden outputs: every claim and README command recorded in
``perfbench/reference/`` except the two that write files (the conservation
claim and the README ``simulate``), against their recorded outputs.

Exact fields must match byte for byte and floats must stay within the
tolerance of the claim that covers them, by the rules of
``perfbench/checks.py`` (read here, never written).
"""

import json
import os
import types

import pytest

from hopfcm.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_checks():
    # executed from source, so no bytecode cache is written under perfbench/
    path = os.path.join(PERFBENCH, "checks.py")
    module = types.ModuleType("perfbench_checks")
    module.__file__ = path
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


checks = _load_checks()


@pytest.mark.parametrize(
    "name",
    [
        "claim-teo1-isochronous",
        "claim-lyapunov-crosscheck",
        "readme-displacement",
        "readme-cyclicity-teo5",
        "readme-cyclicity-teo4",
        "readme-focus-jet",
        "claim-teo4-cyclicity",
        "claim-teo5-cyclicity",
        "readme-period",
        "period-symbolic-d",
        "readme-catalog",
        "readme-hopf",
        "readme-focus-center",
        "claim-teo1-center",
        "claim-teo1-hopf",
        "claim-teo1-l1",
        "claim-teo2-foci",
    ],
)
def test_output_matches_the_recorded_reference(tmp_path, capsys, name):
    ref = checks.load_reference(name)
    out = tmp_path / "out.json"
    code = main(ref["argv"] + ["--out", str(out)])
    capsys.readouterr()
    assert code == ref["exit"]
    output = json.loads(out.read_text())
    assert checks.compare(output, ref["output"], checks.TOLERANCES.get(name, {})) == []
