"""What a CLI run loads: each subcommand imports only the code it executes.

Each probe runs in a fresh interpreter, since this process has long since
imported every module of the package.
"""

import gc
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import metricbundle
from metricbundle.cli import main
from metricbundle.model import save_scenario
from metricbundle.zoo import get_demo

ROOT = Path(__file__).resolve().parent.parent

# Loaded by no path that does not run the identity suite.
SUITE_ONLY = ("metricbundle.verify", "hashlib")
# Loaded by no path at all: two INFO lines need no logging package, and
# numpy.ma comes in only through np.union1d / np.unique (numpy 2.4).
NEVER = ("logging", "numpy.ma")

CLI_PROBE = """
import json, sys
from metricbundle.cli import main
code = main(sys.argv[1:])
loaded = sorted(sys.modules)
print(json.dumps([code, loaded]))
"""

# The set-up path, as perfbench/setup_probe.py times it.
SETUP_PROBE = """
import json, sys
import metricbundle.cli
from metricbundle.model import load_scenario, resolve_initial_metric
from metricbundle.zoo import DEMO_PREFIX, get_demo
for ref in sys.argv[1:]:
    if ref.startswith(DEMO_PREFIX):
        scenario = get_demo(ref[len(DEMO_PREFIX):])
    else:
        scenario = load_scenario(ref)
    resolve_initial_metric(scenario)
loaded = sorted(sys.modules)
print(json.dumps([0, loaded]))
"""


# The process entry point, as `python -m metricbundle.cli` runs it; the atexit
# hook reports how many objects sit in the permanent generation at exit.
FREEZE_PROBE = """
import atexit, gc, runpy
atexit.register(lambda: print(gc.get_freeze_count()))
runpy.run_module("metricbundle.cli", run_name="__main__", alter_sys=True)
"""


def probe(code: str, *args) -> set:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("METRICBUNDLE_LOG", None)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert exit_code == 0, proc.stderr
    return set(loaded)


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "pt.json"
    save_scenario(get_demo("pt-dimer-unbroken", t1=0.05), path)
    return path


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_evolve_loads_neither_suite_nor_logging(tmp_path, fmt):
    loaded = probe(CLI_PROBE, "evolve", "demo:pt-dimer-unbroken", "--t1", "0.05",
                   "-o", str(tmp_path / f"x.{fmt}"), "--format", fmt)
    assert "metricbundle.evolution" in loaded
    assert loaded.isdisjoint(SUITE_ONLY + NEVER), sorted(loaded & {*SUITE_ONLY, *NEVER})


def test_setup_path_loads_neither_suite_nor_logging(scenario_file):
    loaded = probe(SETUP_PROBE, "demo:pt-dimer-unbroken", str(scenario_file))
    assert loaded.isdisjoint(SUITE_ONLY + NEVER), sorted(loaded & {*SUITE_ONLY, *NEVER})


def test_verify_loads_neither_logging_nor_masked_arrays(scenario_file):
    loaded = probe(CLI_PROBE, "verify", str(scenario_file), "--node-stride", "2")
    assert "metricbundle.verify" in loaded
    assert loaded.isdisjoint(NEVER), sorted(loaded & set(NEVER))


@pytest.mark.parametrize("argv", [
    ("evolve", "--format", "csv"), ("evolve", "--format", "json"), ("verify", "--node-stride", "2"),
], ids=["evolve-csv", "evolve-json", "verify"])
def test_entry_point_freezes_the_import_time_heap(tmp_path, scenario_file, argv):
    command, *flags = argv
    out = ["-o", str(tmp_path / "x.out")] if command == "evolve" else []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE, command, str(scenario_file), *flags,
                           *out], env=env, capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    # numpy's and the package's import-time objects: about 22,000 with numpy 2.4.
    assert int(proc.stdout.splitlines()[-1]) >= 10_000


def test_main_in_process_does_not_freeze(tmp_path, scenario_file):
    frozen = gc.get_freeze_count()
    assert main(["evolve", str(scenario_file), "-o", str(tmp_path / "x.csv")]) == 0
    assert main(["verify", str(scenario_file), "--node-stride", "2"]) == 0
    assert gc.get_freeze_count() == frozen


def test_package_import_loads_no_submodule_it_does_not_need():
    loaded = probe("import json, sys, metricbundle; print(json.dumps([0, sorted(sys.modules)]))")
    assert "metricbundle" in loaded
    assert [name for name in loaded if name.startswith("metricbundle.")] == []


# Names that the package once re-exported; each now has one import path, its submodule.
SUBMODULE_OF = {
    "MetricBundleError": "errors",
    "EvolutionBundle": "evolution",
    "closed_form_metric": "evolution",
    "integrate": "evolution",
    "IntegratorConfig": "model",
    "MetricInit": "model",
    "OperatorSpec": "model",
    "Scenario": "model",
    "load_scenario": "model",
    "save_scenario": "model",
    "solve_stationary_metric": "model",
    "VerificationReport": "verify",
    "budget": "verify",
    "run_suite": "verify",
    "builtin_models": "zoo",
    "get_demo": "zoo",
}


@pytest.mark.parametrize("name", SUBMODULE_OF)
def test_export_is_its_submodule_object(name):
    module = importlib.import_module(f"metricbundle.{SUBMODULE_OF[name]}")
    obj = getattr(module, name)
    assert obj.__module__ == module.__name__
    assert name in getattr(module, "__all__", [name])
    assert not hasattr(metricbundle, name)
    assert name not in dir(metricbundle)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(
    metricbundle.__path__)))
def test_every_name_in_a_submodules_all_resolves(module):
    # A stale entry would break `from metricbundle.<module> import *`.
    mod = importlib.import_module(f"metricbundle.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        metricbundle.no_such_name  # noqa: B018
    from metricbundle import verify  # a submodule, not an export
    assert verify.__name__ == "metricbundle.verify"
