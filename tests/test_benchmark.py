import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["sweep_adv", "certify_q2", "certify_chart"]
# Per-layer counts of one traced pass.  certify_chart's input calls F once
# per face-lattice point, so a point call that stops going through
# extremal.profile reads 0 points there.  sweep_adv counts its nine rows
# and the knots of the 18 perturbations whose zeros it counts.
TRACED_COUNTS = {
    "certify_chart": {"extremal.points": 4216, "certifier.evals": 4216},
    "sweep_adv": {"driver.rows": 9, "funcrep.count_knots": 163552},
}


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
    return last


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_its_gate(workload):
    # --trace 1 patches translab names (certifier.enumerate_cubes,
    # certifier.pullback_perturbation, extremal.profile, ...); a renamed or
    # deleted one breaks the traced run, and only this catches it
    metrics = bench_gate(workload, "1")["metrics"]
    for name, count in TRACED_COUNTS.get(workload, {}).items():
        assert metrics[name]["value"] == count, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_its_gate(workload):
    # the traced evaluator hides evaluate_many, so only an untraced run
    # sends certify_q2's whole face-lattice block through one
    # SampledFunction.evaluate_many call
    bench_gate(workload, "0")
