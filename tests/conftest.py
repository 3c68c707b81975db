import importlib.util
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from metricbundle import evolution, zoo
from metricbundle.evolution import EvolutionBundle

ROOT = Path(__file__).resolve().parent.parent

# Hypothesis's pytest plugin imports hypothesis.extra._patching to print a
# failing test's example. That import raises a DeprecationWarning from a
# dependency of libcst, which filterwarnings = ["error"] turns into an
# INTERNALERROR in place of the "Falsifying example:" report. Imported once
# here with that warning ignored, the module is in sys.modules when the plugin
# asks for it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional: the plugin then prints no patch
        pass

# Stationary PT metric fixture used across modules: for H = s*sx + i*gamma*sz
# with sin(alpha) = gamma/s the trace-free-normalized metric is
# (1/cos(alpha)) [[1, -i sin a], [i sin a, 1]].
SIN_ALPHA = 0.5
COS_ALPHA = np.sqrt(1 - SIN_ALPHA**2)
G_PT = (1.0 / COS_ALPHA) * np.array(
    [[1.0, -1j * SIN_ALPHA], [1j * SIN_ALPHA, 1.0]], dtype=complex
)


def index_of_time(bundle: EvolutionBundle, t: float) -> int:
    """Grid node nearest to t; t must lie on the grid within half a step."""
    idx = int(round((t - bundle.ts[0]) / bundle.step))
    if idx < 0 or idx >= bundle.n_nodes or abs(bundle.ts[idx] - t) > 0.5 * bundle.step:
        raise IndexError(f"time {t} is not on the grid")
    return idx


def _decode_complex_array(doc) -> np.ndarray:
    """Inverse of complex_pairs, bit for bit (re + 1j * im would drop the
    sign of a zero imaginary part)."""
    return np.array(doc, dtype=np.float64).view(np.complex128)[..., 0]


def bundle_from_json_dict(doc: dict) -> EvolutionBundle:
    """Re-ingest an exported trajectory as an explicit bundle: its integrated
    channels and psi0 from its scenario."""
    return EvolutionBundle(
        ts=np.asarray(doc["t"], dtype=float),
        u_r=_decode_complex_array(doc["u_r"]),
        u_l=_decode_complex_array(doc["u_l"]),
        g=_decode_complex_array(doc["g"]),
        psi0=_decode_complex_array(doc["scenario"]["psi0"]),
        step=float(doc["step"]),
        metadata=dict(doc.get("metadata", {})),
    )


def pytest_terminal_summary(terminalreporter):
    """Echo the one-line-per-criterion acceptance results after the run."""
    try:
        from test_acceptance import RECORDED
    except ImportError:
        return
    if RECORDED:
        terminalreporter.section("acceptance criteria")
        for line in sorted(RECORDED):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def pt_unbroken_bundle():
    scenario = zoo.get_demo("pt-dimer-unbroken")
    return scenario, evolution.integrate(scenario)


@pytest.fixture(scope="session")
def driven_bundle():
    scenario = zoo.get_demo("driven-dimer")
    return scenario, evolution.integrate(scenario)


@pytest.fixture(scope="session")
def rabi_bundle():
    scenario = zoo.get_demo("hermitian-rabi")
    return scenario, evolution.integrate(scenario)


def _perfbench_scenario_files(workload: str, workdir: Path) -> list[Path]:
    """The scenario files perfbench/workloads.py writes for workload at seed 5."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    cli_cmd = [sys.executable, "-m", "metricbundle.cli"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return [Path(case.ref) for case in workloads.make_cases(workload, 5, workdir, cli_cmd, env)]


@pytest.fixture(scope="session")
def perfbench_chain_files(tmp_path_factory):
    """The 16-, 32- and 64-site chain files of pt-chain."""
    return _perfbench_scenario_files("pt-chain", tmp_path_factory.mktemp("pt-chain"))


@pytest.fixture(scope="session")
def perfbench_ep_sweep_files(tmp_path_factory):
    """The dimer files of ep-sweep, each written by `metricbundle demo`."""
    return _perfbench_scenario_files("ep-sweep", tmp_path_factory.mktemp("ep-sweep"))
