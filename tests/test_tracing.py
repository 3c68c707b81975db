"""The package names that perfbench's in-process tracer (`run.py --trace 1`) binds.

The tracer wraps public functions by name from outside the package; a rename
or a call path that bypasses a wrapped name silently empties its metrics.
"""

import importlib.util
import sys
from pathlib import Path

from metricbundle import cli, model

ROOT = Path(__file__).resolve().parent.parent


def _tracer_class():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _package_bindings() -> dict:
    bindings = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "metricbundle" or name.startswith("metricbundle.")
        for attr, value in vars(module).items()
    }
    methods = vars(model.OperatorSpec).items()
    bindings.update({("OperatorSpec", attr): value for attr, value in methods})
    return bindings


def test_tracer_sees_the_json_export_and_uninstalls(tmp_path):
    before = _package_bindings()
    tracer = _tracer_class()()
    tracer.install()
    try:
        out = tmp_path / "traj.json"
        argv = ["evolve", "demo:pt-dimer-unbroken", "--t1", "0.05", "-o", str(out),
                "--format", "json"]
        assert tracer.wrap_main(cli.main)(argv) == cli.EXIT_OK
    finally:
        tracer.uninstall()

    calls, inclusive, _ = tracer.totals()
    assert calls["cli.main"] == 1
    assert calls["evolution.integrate"] == 1
    assert calls["evolution.bundle_to_json_dict"] == 1
    assert calls["model.solve_stationary_metric"] == 1
    to_json_s = inclusive["evolution.bundle_to_json_dict"]
    assert tracer.layer_metrics()["evolution.to_json_s"] == to_json_s > 0
    assert out.stat().st_size > 0

    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_each_demo_route_calls_get_demo_once(tmp_path, capsys):
    # zoo.get_demo_s stays meaningful only while both routes go through the wrapped name.
    for argv in (["demo", "pt-ep", "--t1", "0.5"],
                 ["evolve", "demo:pt-ep", "--t1", "0.05", "-o", str(tmp_path / "x.csv")]):
        tracer = _tracer_class()()
        tracer.install()
        try:
            assert tracer.wrap_main(cli.main)(argv) == cli.EXIT_OK
        finally:
            tracer.uninstall()
        calls, _, _ = tracer.totals()
        assert calls["zoo.get_demo"] == 1, argv
