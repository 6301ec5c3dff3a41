"""Each narrative script under ``demos/`` runs to completion, in a scratch
directory so that whatever it writes stays out of the checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["PYTHONWARNINGS"] = "error"
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    run_demo(script, tmp_path)


# The encoding-circuits walk-through above its report, byte for byte: three
# fidelities and five operator errors against the dense ideal gates.  The
# report itself is pinned by ``test_verify_circuits_stdout_pinned``.
ENCODING_CIRCUITS_HEAD = """\
qutrit encoder fidelity:      1.000000000000
six-photon encoder fidelity:  1.000000000000
multiplexed vs six-photon:    1.000000000000

cross-DOF CNOT constructions (operator error vs ideal):
  pol1 -> pol2: 0.00e+00
  pol1 -> tb2: 0.00e+00
  tb1 -> pol2: 0.00e+00
  tb1 -> tb2: 0.00e+00

branch-split Toffoli vs ideal: 0.00e+00

"""


def test_encoding_circuits_demo_pinned(tmp_path):
    out = run_demo(ROOT / "demos" / "05_encoding_circuits.py", tmp_path)
    assert out.split("full verification report:")[0] == ENCODING_CIRCUITS_HEAD
