#!/usr/bin/env python3
"""Measure how the main drift residuals scale with the integrator step.

Integrates a demo scenario at a ladder of halved steps and prints, for each
residual, the value at every step and the empirical order (log2 of the mean
halving ratio). Useful for checking which residuals sit at the nominal
fourth order and which enjoy structural cancellation (the propagator-inverse
residual is fifth-order: the forward and backward one-step maps are mutually
inverse through h^5).

Usage:
    python3 scripts/convergence_study.py [demo-name] [--t1 T] [--coarsest H]
"""

import math
import sys

import numpy as np

try:
    from scipy.linalg import expm
except ImportError:  # scipy comes with the test extra only; main reports it
    expm = None

from metricbundle import cli
from metricbundle.errors import MetricBundleError
from metricbundle.evolution import integrate
from metricbundle.matops import frobenius
from metricbundle.verify import run_suite
from metricbundle.zoo import get_demo


def residuals(bundle, scenario):
    """verify's two residuals, max over all nodes, and for a constant H the
    distance of the last U_R from expm(-i t H)."""
    checks = {c.name: c.residual for c in run_suite(bundle, scenario, node_stride=1).checks}
    out = {
        "propagator_inverse": checks["propagator_inverse_left"],
        "metric_closed_form": checks["metric_closed_form"],
    }
    h = scenario.hamiltonian.constant
    if h is not None:
        t = float(bundle.ts[-1] - bundle.ts[0])
        out["u_r_vs_expm"] = frobenius(bundle.u_r[-1] - expm(-1j * t * h))
    return out


def main(argv=None):
    if expm is None:
        print("error[usage]: convergence_study.py needs scipy: pip install -e '.[test]'",
              file=sys.stderr)
        return cli.EXIT_USAGE
    parser = cli.Parser(description=__doc__.splitlines()[0])
    parser.add_argument("demo", nargs="?", default="pt-dimer-unbroken")
    parser.add_argument("--t1", type=float, default=2.0)
    parser.add_argument("--coarsest", type=float, default=0.04)
    parser.add_argument("--halvings", type=int, default=3)
    args = parser.parse_args(argv)

    steps = [args.coarsest / 2**k for k in range(args.halvings + 1)]
    table = {}
    try:
        for step in steps:
            scenario = get_demo(args.demo, t1=args.t1, step=step)
            bundle = integrate(scenario)
            for name, value in residuals(bundle, scenario).items():
                table.setdefault(name, []).append(value)
    except MetricBundleError as exc:
        return cli.report_failure(exc)

    header = f"{'residual':24s}" + "".join(f"  h={s:<10.4g}" for s in steps) + "  order"
    print(f"demo {args.demo}, span {args.t1}")
    print(header)
    for name, values in table.items():
        # A residual that is exactly 0 (rounding) has no order: skip its ratios.
        ratios = [a / b for a, b in zip(values, values[1:]) if a > 0 and b > 0]
        order = math.log2(np.exp(np.mean(np.log(ratios)))) if ratios else float("nan")
        cells = "".join(f"  {v:12.3e}" for v in values)
        print(f"{name:24s}{cells}  {order:5.2f}")
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
