import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_convergence_study_skips_a_residual_that_rounds_to_zero():
    # At this span u_r_vs_expm is exactly 0 at one step and not at the next.
    proc = run_script("convergence_study.py", "hermitian-rabi", "--t1", "1e-5",
                      "--coarsest", "1e-5")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 5


@pytest.mark.parametrize("args, code, message", [
    (["no-such-demo"], 2, "error[schema]: unknown demo model 'no-such-demo'"),
    (["--coarsest", "0"], 2, "error[schema]: /integrator/step: step must be positive"),
    (["--t1", "0"], 2, "error[schema]: /t1: t1 must exceed t0"),
    (["pt-dimer-broken", "--t1", "40"], 3, "error[numeric]: NonFiniteError: "),
    (["--halvings", "x"], 1, "error[usage]: argument --halvings: invalid int value: 'x'"),
], ids=["unknown-demo", "coarsest-0", "t1-0", "blow-up", "halvings-x"])
def test_convergence_study_reports_one_error_line(args, code, message):
    proc = run_script("convergence_study.py", *args)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_run_all_demos_rejects_node_stride_below_one():
    # The CLI rejects the stride at the first demo, before any report.
    proc = run_script("run_all_demos.py", "--node-stride", "0")
    assert proc.returncode == 1
    assert proc.stderr == "error[usage]: --node-stride must be at least 1, got 0\n"
    assert "scenario:" not in proc.stdout and "status" not in proc.stdout


def test_run_all_demos_rejects_non_integer_node_stride():
    proc = run_script("run_all_demos.py", "--node-stride", "abc")
    assert proc.returncode == 1
    assert proc.stderr == "error[usage]: argument --node-stride: invalid int value: 'abc'\n"
    assert "scenario:" not in proc.stdout


def test_setup_probe_on_perfbench_chains(perfbench_chain_files):
    # The probe times pt-chain's set-up; it must load and resolve every chain.
    proc = run_python(ROOT / "perfbench" / "setup_probe.py", *map(str, perfbench_chain_files))
    assert proc.returncode == 0, proc.stderr
    assert [path.name for path in perfbench_chain_files] == [
        "chain16.json", "chain32.json", "chain64.json"]
