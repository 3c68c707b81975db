import os
import subprocess
import sys
from pathlib import Path

from metricbundle.zoo import builtin_models

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )


def test_convergence_study_smoke():
    proc = run_script("convergence_study.py", "--t1", "0.5", "--halvings", "1")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()[2:]]
    assert rows == ["propagator_inverse", "metric_closed_form", "u_r_vs_expm"]


def test_run_all_demos_has_no_unexpected_failures():
    # The only run of every demo over its full span: it pins the zoo's
    # expected-failure declarations.
    proc = run_script("run_all_demos.py")
    assert proc.returncode == 0, proc.stderr
    demos = [line for line in proc.stdout.splitlines() if line.startswith("=== ")]
    verdicts = [line for line in proc.stdout.splitlines() if line.endswith(" unexpected failures")]
    assert len(demos) == len(builtin_models())
    assert len(verdicts) == len(demos)
    assert all(line.endswith(" 0 unexpected failures") for line in verdicts)


def test_run_all_demos_rejects_node_stride_below_one():
    proc = run_script("run_all_demos.py", "--node-stride", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr == "error: --node-stride must be at least 1, got 0\n"
