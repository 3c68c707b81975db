import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_convergence_study_smoke():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "convergence_study.py"), "--t1", "0.5",
         "--halvings", "1"],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()[2:]]
    assert rows == ["propagator_inverse", "metric_closed_form", "vielbein_transport", "u_r_vs_expm"]
