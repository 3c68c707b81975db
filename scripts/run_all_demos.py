#!/usr/bin/env python3
"""Integrate and verify every built-in demo scenario, printing each report.

Scenarios that cannot be integrated (e.g. the broken-phase dimer over a long
span blows up past the finite-range guard) are reported as such rather than
aborting the sweep. Exits nonzero if any scenario produced an unexpected
check failure.

Usage:
    python3 scripts/run_all_demos.py [--node-stride N]
"""

import argparse
import sys
import time

from metricbundle.errors import MetricBundleError
from metricbundle.evolution import integrate
from metricbundle.verify import render_table, run_suite
from metricbundle.zoo import builtin_models, get_demo


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--node-stride", type=int, default=10)
    args = parser.parse_args()
    if args.node_stride < 1:
        print(f"error: --node-stride must be at least 1, got {args.node_stride}", file=sys.stderr)
        return 2

    unexpected = 0
    for name in sorted(builtin_models()):
        scenario = get_demo(name)
        print(f"=== {name} " + "=" * max(0, 60 - len(name)))
        start = time.perf_counter()
        try:
            bundle = integrate(scenario)
        except MetricBundleError as exc:
            print(f"integration aborted: {type(exc).__name__}: {exc}")
            print()
            continue
        report = run_suite(bundle, scenario, node_stride=args.node_stride)
        print(render_table(report))
        print(f"({time.perf_counter() - start:.2f}s)")
        print()
        unexpected += len(report.unexpected_failures)

    if unexpected:
        print(f"{unexpected} unexpected failures across the zoo", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
