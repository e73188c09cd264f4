import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep_adv", "certify_q2", "certify_chart"])
def test_traced_run_passes_its_gate(workload):
    # --trace 1 patches translab names (certifier.enumerate_cubes,
    # certifier.pullback_perturbation, extremal.profile, ...); a renamed or
    # deleted one breaks the traced run, and only this catches it
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
