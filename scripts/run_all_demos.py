#!/usr/bin/env python3
"""Run `metricbundle verify` on every built-in demo, printing each report.

Each demo, in sorted order, runs as `metricbundle verify demo:<name>
[--node-stride N]` does, through the CLI's entry point, so it prints the same
table and reports a failure with the same error[CODE] line. A usage error
(a bad --node-stride) stops the sweep and exits 1; otherwise the script exits
with the largest exit code any demo returned (0 when every demo passes).

Usage:
    python3 scripts/run_all_demos.py [--node-stride N]
"""

import sys
import time

from metricbundle import cli
from metricbundle.zoo import builtin_models


def main(argv=None):
    parser = cli.Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--node-stride",
                        help="passed to verify as given; verify's own default when absent")
    args = parser.parse_args(argv)
    stride = [] if args.node_stride is None else ["--node-stride", args.node_stride]

    worst = cli.EXIT_OK
    for name in sorted(builtin_models()):
        print(f"=== {name} " + "=" * max(0, 60 - len(name)))
        start = time.perf_counter()
        code = cli.main(["verify", f"demo:{name}", *stride])
        if code == cli.EXIT_USAGE:
            return code
        print(f"({time.perf_counter() - start:.2f}s)")
        print()
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
