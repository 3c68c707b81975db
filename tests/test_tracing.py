"""The package names that perfbench's in-process tracer (`run.py --trace 1`) binds.

The tracer wraps public functions by name from outside the package; a rename
or a call path that bypasses a wrapped name silently empties its metrics.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from metricbundle import cli, model, verify

ROOT = Path(__file__).resolve().parent.parent


def _tracing_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def _run_traced(argv):
    """The tracer of one CLI run on argv, after it has restored every binding."""
    before = _package_bindings()
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        assert tracer.wrap_main(cli.main)(argv) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    return tracer


def test_tracer_sees_the_json_export_and_uninstalls(tmp_path):
    out = tmp_path / "traj.json"
    tracer = _run_traced(["evolve", "demo:pt-dimer-unbroken", "--t1", "0.05", "-o", str(out),
                          "--format", "json"])
    calls, inclusive, _ = tracer.totals()
    assert calls["cli.main"] == 1
    assert calls["evolution.integrate"] == 1
    assert calls["evolution.bundle_to_json_dict"] == 1
    assert calls["model.solve_stationary_metric"] == 1
    to_json_s = inclusive["evolution.bundle_to_json_dict"]
    assert tracer.layer_metrics()["evolution.to_json_s"] == to_json_s > 0
    assert out.stat().st_size > 0


def test_each_demo_route_calls_get_demo_once(tmp_path, capsys):
    # zoo.get_demo_s stays meaningful only while both routes go through the wrapped name.
    for argv in (["demo", "pt-ep", "--t1", "0.5"],
                 ["evolve", "demo:pt-ep", "--t1", "0.05", "-o", str(tmp_path / "x.csv")]):
        calls, _, _ = _run_traced(argv).totals()
        assert calls["zoo.get_demo"] == 1, argv


def test_tracer_sees_verify_and_uninstalls(capsys):
    tracer = _run_traced(["verify", "demo:time-dependent-observable", "--t1", "0.75"])
    calls, _, _ = tracer.totals()
    assert calls["verify.run_suite"] == 1
    assert calls["representations.transport"] == 30  # 27 H and HL, 3 naive
    assert calls["representations.expectation"] == 5
    assert calls["matops.inverse"] == 1
    assert calls["matops.eig"] == 14
    assert calls["model.solve_stationary_metric"] == 1
    assert tracer.counts["verify.checks"] == 36


@pytest.mark.parametrize("stride", range(1, 30))
def test_tracer_samples_the_nodes_verify_samples(stride):
    # The tracer restates verify's sampling rule for verify.nodes_sampled.
    nodes_sampled = _tracing_module()._nodes_sampled
    for n in range(1, 80):
        assert nodes_sampled(n, stride) == len(verify._sample_indices(n, stride)), n


@pytest.mark.parametrize("t1", ["0.75", "0.03", "0.2"])
def test_tracer_counts_the_nodes_a_benchmark_report_samples(tmp_path, capsys, t1):
    # 751, 31 and 201 nodes: the run lengths of zoo-d2, pt-chain and ep-sweep.
    # The tracer restates the rule at the requested stride, which the report's
    # sampled stride equals on runs of at least 2 * stride + 1 nodes.
    report_path = tmp_path / "report.json"
    tracer = _run_traced(["verify", "demo:pt-dimer-unbroken", "--t1", t1, "-o", str(report_path)])
    doc = json.loads(report_path.read_text())
    n_nodes = round(float(t1) / doc["integrator"]["step"]) + 1
    sampled = len(verify._sample_indices(n_nodes, doc["integrator"]["node_stride"]))
    assert tracer.counts["verify.nodes_sampled"] == sampled
