import os
import subprocess
import sys
from pathlib import Path

from metricbundle.zoo import builtin_models

ROOT = Path(__file__).resolve().parent.parent


def run_python(path, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path), *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )


def run_script(name, *args):
    return run_python(ROOT / "scripts" / name, *args)


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


def test_setup_probe_on_perfbench_chains(perfbench_chain_files):
    # The probe times pt-chain's set-up; it must load and resolve every chain.
    proc = run_python(ROOT / "perfbench" / "setup_probe.py", *map(str, perfbench_chain_files))
    assert proc.returncode == 0, proc.stderr
    assert [path.name for path in perfbench_chain_files] == [
        "chain16.json", "chain32.json", "chain64.json"]
