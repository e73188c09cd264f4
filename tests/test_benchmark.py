import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["sweep_adv", "certify_q2", "certify_chart"]


def bench_gate(workload, trace):
    """One ``--seconds 0`` perfbench run; its last stdout line must report a clean gate."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_its_gate(workload):
    # --trace 1 patches translab names (certifier.enumerate_cubes,
    # certifier.pullback_perturbation, extremal.profile, ...); a renamed or
    # deleted one breaks the traced run, and only this catches it
    bench_gate(workload, "1")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_its_gate(workload):
    # the traced evaluator hides evaluate_many, so only an untraced run
    # sends certify_q2's whole face-lattice block through one
    # SampledFunction.evaluate_many call
    bench_gate(workload, "0")
