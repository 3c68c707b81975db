import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from metricbundle import evolution, zoo

ROOT = Path(__file__).resolve().parent.parent

# Stationary PT metric fixture used across modules: for H = s*sx + i*gamma*sz
# with sin(alpha) = gamma/s the trace-free-normalized metric is
# (1/cos(alpha)) [[1, -i sin a], [i sin a, 1]].
SIN_ALPHA = 0.5
COS_ALPHA = np.sqrt(1 - SIN_ALPHA**2)
G_PT = (1.0 / COS_ALPHA) * np.array(
    [[1.0, -1j * SIN_ALPHA], [1j * SIN_ALPHA, 1.0]], dtype=complex
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


@pytest.fixture(scope="session")
def perfbench_chain_files(tmp_path_factory):
    """The 16-, 32- and 64-site chain files of pt-chain, written by perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    workdir = tmp_path_factory.mktemp("pt-chain")
    return [Path(case.ref) for case in workloads.make_cases("pt-chain", 5, workdir, [], {})]
