"""Command-line entry point.

Subcommands:
    evolve SCENARIO -o OUT [--format csv|json]   integrate and export
    verify SCENARIO [-o REPORT] [--node-stride]  run the identity suite
    spectrum SCENARIO --observable NAME --times  eigenvalues at given times
    demo NAME [-o OUT] [overrides]               emit a built-in scenario file

SCENARIO is a JSON file path or "demo:<name>". Exit codes: 0 success,
1 usage error, 2 scenario validation error, 3 numerical failure (an
errors.NumericError), 4 unexpected verification failure. Diagnostics go to
stderr with an "error[CODE]:" prefix. Set METRICBUNDLE_LOG to quiet|info|debug.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import representations as rep
from .errors import MetricBundleError, NoPositiveDefiniteSolutionError, NumericError, SchemaError
from .evolution import bundle_to_json_dict, integrate, to_json_parts
from .matops import sorted_eigenvalues
from .model import Scenario, load_scenario, scenario_to_json_text, with_overrides
from .zoo import DEMO_PREFIX, builtin_models, get_demo

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


def _info(message: str) -> None:
    """An INFO line on stderr when METRICBUNDLE_LOG, read at each call, is info or debug."""
    if os.environ.get("METRICBUNDLE_LOG", "quiet").lower() in ("info", "debug"):
        print(f"INFO metricbundle: {message}", file=sys.stderr)


def _error(code: str, message: str) -> None:
    print(f"error[{code}]: {message}", file=sys.stderr)


class Parser(argparse.ArgumentParser):
    """Reports a usage error as one error[usage] line, in place of argparse's usage block."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token of "-" and a digit, "-." and a digit, "-inf" or "-nan" (any
        # case) is a value ("-1e-3", "-1,0", "-Infinity"): no option of this CLI
        # starts so. argparse's own (private) pattern reads only -\d+ and
        # -\d*\.\d+ as values.
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        _error("usage", message)
        raise SystemExit(EXIT_USAGE)


def _times(args) -> dict:
    """The --t0/--t1/--step flags, as with_overrides takes them."""
    return {"t0": args.t0, "t1": args.t1, "step": args.step}


def _resolve_scenario(ref: str, **times) -> Scenario:
    if ref.startswith(DEMO_PREFIX):
        return get_demo(ref[len(DEMO_PREFIX):], **times)
    return with_overrides(load_scenario(ref), **times)


def _expectations(scenario: Scenario, bundle):
    return {
        name: rep.expectation_schrodinger(bundle, slice(None), obs.assemble_many(bundle.ts))
        for name, obs in scenario.observables.items()
    }


def _write_complex_csv(path, times, columns: dict) -> None:
    """A t column, then NAME_re and NAME_im for each complex column; floats as their repr."""
    import csv  # only CSV output loads it

    parts = [part for column in columns.values() for part in (column.real, column.imag)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *(f"{name}_{part}" for name in columns for part in ("re", "im"))])
        writer.writerows(np.column_stack([times, *parts]).tolist())


def _cmd_evolve(args) -> int:
    scenario = _resolve_scenario(args.scenario, **_times(args))
    _info(f"integrating {scenario.name or args.scenario}")
    bundle = integrate(scenario)
    expectations = _expectations(scenario, bundle)
    if args.format == "csv":
        _write_complex_csv(args.output, bundle.ts, expectations)
    else:
        doc = bundle_to_json_dict(bundle, scenario, expectations)
        parts = to_json_parts(doc)  # written piece by piece: no copy of the whole text
        with open(args.output, "w") as fh:
            fh.writelines(parts)
            fh.write("\n")
    _info(f"wrote {args.output} ({bundle.n_nodes} nodes)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import render_table, run_suite  # only verify loads the suite

    if args.node_stride < 1:
        _error("usage", f"--node-stride must be at least 1, got {args.node_stride}")
        return EXIT_USAGE
    scenario = _resolve_scenario(args.scenario, **_times(args))
    bundle = integrate(scenario)
    report = run_suite(bundle, scenario, node_stride=args.node_stride)
    print(render_table(report))
    if args.output:
        Path(args.output).write_text(report.to_json())
    if report.unexpected_failures:
        _error("verify", f"{len(report.unexpected_failures)} unexpected check failures")
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    if args.observable not in scenario.observables:
        available = ", ".join(sorted(scenario.observables))
        raise SchemaError(
            f"unknown observable {args.observable!r}; "
            + (f"available: {available}" if available else "the scenario has no observables"),
            "/observables",
        )
    obs = scenario.observables[args.observable]
    try:
        times = [float(x) for x in args.times.split(",") if x.strip()]
    except ValueError as exc:
        raise SchemaError(f"bad --times value: {exc}", "") from exc
    if not times:
        raise SchemaError(f"bad --times value: no times in {args.times!r}", "")
    bad = [t for t in times if not math.isfinite(t)]
    if bad:
        raise SchemaError(f"bad --times value: {bad[0]!r} is not finite", "")
    values = sorted_eigenvalues(obs.assemble_many(times))
    if args.output:
        _write_complex_csv(args.output, times,
                           {f"ev{k}": values[:, k] for k in range(scenario.dim)})
    else:
        for t, vals in zip(times, values):
            rendered = ", ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in vals)
            print(f"t={t:g}: {rendered}")
    return EXIT_OK


def _cmd_demo(args) -> int:
    params = {key: getattr(args, key) for key in ("s", "gamma") if getattr(args, key) is not None}
    doc = scenario_to_json_text(get_demo(args.name, **params, **_times(args)))
    if args.output:
        Path(args.output).write_text(doc)
    else:
        print(doc, end="")
    return EXIT_OK


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="metricbundle",
        description="Non-Hermitian quantum dynamics with a co-evolved Hilbert-space metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--step", type=float, default=None, help="override integrator step")
        p.add_argument("--t0", type=float, default=None, help="override start time")
        p.add_argument("--t1", type=float, default=None, help="override end time")

    p_evolve = sub.add_parser("evolve", help="integrate a scenario and export the trajectory")
    p_evolve.add_argument("scenario", help="scenario file or demo:<name>")
    p_evolve.add_argument("-o", "--output", required=True)
    p_evolve.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p_evolve)
    p_evolve.set_defaults(func=_cmd_evolve)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("scenario", help="scenario file or demo:<name>")
    p_verify.add_argument("-o", "--output", default=None, help="write JSON report here")
    p_verify.add_argument("--node-stride", type=int, default=10)
    add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_spectrum = sub.add_parser("spectrum", help="observable eigenvalues at given times")
    p_spectrum.add_argument("scenario", help="scenario file or demo:<name>")
    p_spectrum.add_argument("--observable", required=True)
    p_spectrum.add_argument("--times", required=True, help="comma-separated times")
    p_spectrum.add_argument("-o", "--output", default=None, help="write CSV here")
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_demo = sub.add_parser("demo", help="emit a built-in scenario as JSON")
    p_demo.add_argument("name", help=f"one of: {', '.join(sorted(builtin_models()))}")
    p_demo.add_argument("-o", "--output", default=None)
    p_demo.add_argument("--s", type=float, default=None, help="sigma_x coupling")
    p_demo.add_argument("--gamma", type=float, default=None, help="gain/loss rate")
    add_common(p_demo)
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, a usage error EXIT_USAGE
        return exc.code
    try:
        return args.func(args)
    except (MetricBundleError, OSError) as exc:
        return report_failure(exc)


def report_failure(exc: MetricBundleError | OSError) -> int:
    """Print the one error[CODE] line for exc to stderr and return its exit code."""
    if isinstance(exc, NoPositiveDefiniteSolutionError):
        hint = "system in broken phase; supply explicit metric or use identity"
        _error("schema", f"{exc} ({hint})")
        return EXIT_SCENARIO
    if isinstance(exc, SchemaError):
        _error("schema", str(exc))
        return EXIT_SCENARIO
    if isinstance(exc, MetricBundleError):
        numeric = isinstance(exc, NumericError)
        _error("numeric" if numeric else "schema", f"{type(exc).__name__}: {exc}")
        return EXIT_NUMERIC if numeric else EXIT_SCENARIO
    _error("usage", str(exc))  # an OSError
    return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
