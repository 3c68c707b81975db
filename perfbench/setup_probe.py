"""Everything a CLI invocation pays before its first RK4 step, in a fresh interpreter.

Imports `metricbundle.cli`, resolves each scenario reference the way the CLI
does (`get_demo` for `demo:<name>`, `load_scenario` for a file) and calls
`resolve_initial_metric`. The benchmark times the whole process.

    PYTHONPATH=src python3 perfbench/setup_probe.py demo:pt-ep scenario.json ...
"""

import sys

import metricbundle.cli  # noqa: F401  (the import cost is part of set-up)
from metricbundle.model import load_scenario, resolve_initial_metric
from metricbundle.zoo import DEMO_PREFIX, get_demo

for ref in sys.argv[1:]:
    if ref.startswith(DEMO_PREFIX):
        scenario = get_demo(ref[len(DEMO_PREFIX):])
    else:
        scenario = load_scenario(ref)
    resolve_initial_metric(scenario)
